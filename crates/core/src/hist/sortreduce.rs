//! Sort-and-reduce histogram strategy (paper §3.3.4).
//!
//! Builds a `(feature × bins + bin)` key per (instance, feature) pair,
//! radix-sorts keys with the d-dimensional gradient pair as payload,
//! then `reduce_by_key`s runs of equal keys into the histogram. No
//! atomics at all — write contention is structurally impossible — but
//! the whole payload moves through every radix pass, so cost grows
//! steeply with the output dimension and the method "consistently incurs
//! the highest cost" (Fig. 6a) except under extreme contention.

use super::HistContext;
use gpusim::cost::KernelCost;
use gpusim::primitives::{reduce_by_key_sorted, sort_by_key_u32};
use gpusim::{Device, Phase};

/// Radix passes over 32-bit keys.
const RADIX_PASSES: f64 = 4.0;

/// Build the kernel-cost descriptor.
pub fn cost_descriptor(ctx: &HistContext<'_>, nn: usize) -> KernelCost {
    let mf = ctx.features.len();
    let d = ctx.d();
    let keys = nn as f64 * mf as f64 * super::density_factor(ctx);
    // Gradient and Hessian (or count) columns of each key's payload.
    let cols = (d + ctx.hess_cols()) as f64;
    // Payload carried through each radix pass: key (4 B) + the columns
    // (4 B each for f32, 2 B quantized), read + written per pass.
    let payload_bytes = 4.0 + super::stats::elem_bytes(ctx) * cols;
    let sort_traffic = RADIX_PASSES * 2.0 * keys * payload_bytes;
    // Reduce: per output, the (g, h) pair is gathered through the sort
    // permutation — a random-access pattern served at L2-sector
    // granularity — then streamed into reduce_by_key and the histogram.
    let sector = ctx.device.model().params.sector_bytes as f64;
    let reduce_traffic = keys * d as f64 * sector
        + keys * payload_bytes
        + (mf * ctx.bins * (d + ctx.hess_cols())) as f64 * 8.0;

    KernelCost {
        flops: keys * (8.0 + cols),
        dram_bytes: sort_traffic + reduce_traffic,
        sort_keys: keys,
        // Key build + 4 radix passes (histogram + scatter each) + one
        // reduce_by_key pass per output dimension.
        launches: 1.0 + RADIX_PASSES * 2.0 + d as f64,
        ..Default::default()
    }
}

/// Declare this kernel's access stream to an attached sanitizer, under
/// the kernel name `name` it was charged as. After
/// the radix sort, `reduce_by_key` assigns each run of equal keys to
/// one thread, which writes each histogram slot exactly once with a
/// *plain* store — no atomics anywhere, and racecheck verifies the
/// slots really are disjoint.
pub fn trace(
    ctx: &HistContext<'_>,
    idx: &[u32],
    san: &gpusim::sanitize::Sanitizer,
    name: &'static str,
) {
    use gpusim::{AccessKind, MemSpace, ThreadCtx};
    let mf = ctx.features.len();
    let d = ctx.d();
    let bins = ctx.bins;
    let nn = idx.len();
    let scope = san.scope(name);
    let k_id = scope.register("sorted_keys", nn * mf, MemSpace::Global, true);
    let g_id = scope.register("hist_g", mf * d * bins, MemSpace::Global, false);
    let h_id = scope.register("hist_h", mf * d * bins, MemSpace::Global, false);
    let c_id = scope.register("hist_counts", mf * bins, MemSpace::Global, false);

    // Distinct (feature, bin) slots among a deterministic sample of
    // pairs; each slot is owned by exactly one reducer thread.
    let f_stride = mf.div_ceil(crate::sanitize::MAX_TRACE_FEATURES).max(1);
    let mut slots: Vec<(usize, usize)> = Vec::new();
    for f_local in (0..mf).step_by(f_stride) {
        let f = ctx.features[f_local] as usize;
        let col = ctx.data.bins.col(f);
        for j in crate::sanitize::sample_stride(nn, crate::sanitize::MAX_TRACE_INSTANCES) {
            slots.push((f_local, col[idx[j] as usize] as usize));
        }
    }
    slots.sort_unstable();
    slots.dedup();
    for (t, &(f_local, b)) in slots.iter().enumerate() {
        let tctx = ThreadCtx::from_global(t, 256);
        // The reducer reads the head key of its run…
        scope.touch(
            k_id,
            tctx,
            (f_local * nn).min(nn * mf - 1),
            AccessKind::Read,
        );
        // …and writes each output's (g, h) slot plus the count once;
        // on the uniform-Hessian path, only g and the count.
        for k in 0..d.min(crate::sanitize::MAX_TRACE_OUTPUTS) {
            let slot = crate::sanitize::device_gh_slot(f_local, k, b, d, bins);
            scope.touch(g_id, tctx, slot, AccessKind::Write);
            if ctx.grads.uniform_h().is_none() {
                scope.touch(h_id, tctx, slot, AccessKind::Write);
            }
        }
        scope.touch(c_id, tctx, f_local * bins + b, AccessKind::Write);
    }
}

/// Reference implementation that *actually* routes the data through the
/// simulator's `sort_by_key` / `reduce_by_key` primitives, one output at
/// a time. Used by tests to prove the production accumulation path and
/// the sort pipeline agree; too slow for hot training loops.
pub fn build_exact_via_sort(
    device: &Device,
    ctx: &HistContext<'_>,
    idx: &[u32],
    out: &mut super::NodeHistogram,
) {
    let d = ctx.d();
    let bins = ctx.bins;
    out.reset();

    // Keys over (f_local, bin) for every (instance, feature) pair.
    let mut keys = Vec::with_capacity(idx.len() * ctx.features.len());
    let mut inst = Vec::with_capacity(keys.capacity());
    for (f_local, &f) in ctx.features.iter().enumerate() {
        let col = ctx.data.bins.col(f as usize);
        for &i in idx {
            keys.push((f_local * bins + col[i as usize] as usize) as u32);
            inst.push(i);
        }
    }
    let (sorted_keys, perm) = sort_by_key_u32(device, Phase::Histogram, "sr_sort", &keys);

    for k in 0..d {
        let gvals: Vec<f64> = perm
            .iter()
            .map(|&p| ctx.grads.g[inst[p as usize] as usize * d + k] as f64)
            .collect();
        let hvals: Vec<f64> = perm
            .iter()
            .map(|&p| ctx.grads.h[inst[p as usize] as usize * d + k] as f64)
            .collect();
        let (uk, gsums) = reduce_by_key_sorted(
            device,
            Phase::Histogram,
            "sr_reduce_g",
            &sorted_keys,
            &gvals,
        );
        let (_, hsums) = reduce_by_key_sorted(
            device,
            Phase::Histogram,
            "sr_reduce_h",
            &sorted_keys,
            &hvals,
        );
        for ((key, gs), hs) in uk.iter().zip(gsums).zip(hsums) {
            let f_local = *key as usize / bins;
            let b = *key as usize % bins;
            let at = out.gh_index(f_local, k, b);
            out.g[at] = gs;
            out.h[at] = hs;
        }
    }
    // Counts from the key runs.
    let mut i = 0;
    while i < sorted_keys.len() {
        let mut j = i;
        while j < sorted_keys.len() && sorted_keys[j] == sorted_keys[i] {
            j += 1;
        }
        let key = sorted_keys[i] as usize;
        let at = out.cnt_index(key / bins, key % bins);
        out.counts[at] = (j - i) as u32;
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::super::adaptive::predict_costs;
    use super::super::test_support::fixture;
    use super::super::{accumulate_dense, charge_method, HistContext, NodeHistogram};
    use super::*;
    use crate::config::{HistOptions, HistogramMethod};
    use gpusim::Device;

    fn make_ctx<'a>(
        device: &'a gpusim::Device,
        data: &'a gbdt_data::BinnedDataset,
        grads: &'a crate::grad::Gradients,
        features: &'a [u32],
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins: 32,
            opts: HistOptions::default(),
        }
    }

    #[test]
    fn exact_sort_path_matches_accumulation() {
        let (_, data, grads) = fixture(150, 5, 3, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..5).collect();
        let ctx = make_ctx(&device, &data, &grads, &features);
        let idx: Vec<u32> = (0..150).filter(|i| i % 4 != 3).collect();

        let mut via_sort = NodeHistogram::new(5, grads.d, 32);
        build_exact_via_sort(&device, &ctx, &idx, &mut via_sort);
        let mut via_accum = NodeHistogram::new(5, grads.d, 32);
        accumulate_dense(&ctx, &idx, &mut via_accum);

        assert_eq!(via_sort.counts, via_accum.counts);
        for (a, b) in via_sort.g.iter().zip(&via_accum.g) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in via_sort.h.iter().zip(&via_accum.h) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn cost_grows_steeply_with_outputs() {
        let (_, data2, grads2) = fixture(20_000, 6, 2, 2);
        let (_, data16, grads16) = fixture(20_000, 6, 16, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let t2 = predict_costs(&make_ctx(&device, &data2, &grads2, &features), 20_000).sort_ns;
        let t16 = predict_costs(&make_ctx(&device, &data16, &grads16, &features), 20_000).sort_ns;
        assert!(t16 > t2 * 2.0, "d=16 {t16} vs d=2 {t2}");
    }

    #[test]
    fn sort_reduce_is_slowest_on_typical_nodes() {
        // Fig. 6a's headline ordering on a representative mid-size,
        // multi-output node.
        let (_, data, grads) = fixture(2000, 8, 12, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = make_ctx(&device, &data, &grads, &features);
        let costs = predict_costs(&ctx, 2000);
        let (sr, g, s) = (costs.sort_ns, costs.gmem_ns, costs.smem_ns);
        assert!(sr > g, "sort-reduce {sr} vs gmem {g}");
        assert!(sr > s, "sort-reduce {sr} vs smem {s}");
    }

    #[test]
    fn charge_books_histogram_time() {
        let (_, data, grads) = fixture(200, 4, 2, 4);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..4).collect();
        let ctx = make_ctx(&device, &data, &grads, &features);
        charge_method(
            &ctx,
            &(0..200).collect::<Vec<u32>>(),
            HistogramMethod::SortReduce,
        );
        assert!(device.summary().by_phase.contains_key(&Phase::Histogram));
    }
}
