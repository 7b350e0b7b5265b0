//! Shared-memory tiled histogram strategy (paper §3.3.3).
//!
//! Each block accumulates into a private sub-histogram in shared memory
//! (48 KB), then flushes to the global histogram once. The (bins ×
//! outputs) plane rarely fits in 48 KB for multi-output training, so it
//! is tiled: every tile pass re-reads the node's bin IDs but only the
//! tile's output range of gradients ("the tiling parameters — chunk size
//! and bin offset — are computed dynamically per block").
//!
//! Without the warp-level optimization collision replays still happen,
//! but at shared-memory atomic cost — an order of magnitude cheaper
//! than global replays — and byte-granular bin staging adds a modeled
//! 4-way bank-conflict penalty on the accumulate stream (the paper's
//! "data compression to reduce bank conflicts"). With it, each warp
//! aggregates its same-bin lanes before the shared-memory atomics
//! ([`stats::atomic_updates`]), so nothing replays.

use super::stats::{self, ContentionStats};
use super::HistContext;
use gpusim::cost::KernelCost;

/// Bank-conflict degree of byte-granular shared-memory staging without
/// bin packing: four lanes' bytes share each 4-byte bank word.
const UNPACKED_BANK_CONFLICT: f64 = 4.0;

/// Number of tile passes needed to cover the (bins × columns) plane of
/// one feature in shared memory: `d` gradient and `hess_cols` Hessian
/// (or count) columns of 4 bytes.
pub fn tile_passes(ctx: &HistContext<'_>) -> usize {
    let p = &ctx.device.model().params;
    let full_bytes = ctx.bins * (ctx.d() + ctx.hess_cols()) * 4;
    full_bytes.div_ceil(p.smem_per_block).max(1)
}

/// Build the kernel-cost descriptor from contention statistics.
pub fn cost_descriptor(ctx: &HistContext<'_>, nn: usize, s: &ContentionStats) -> KernelCost {
    let mf = ctx.features.len();
    let d = ctx.d();
    let p = &ctx.device.model().params;
    let density = super::density_factor(ctx);
    let pairs = nn as f64 * mf as f64 * density;
    let cols = (d + ctx.hess_cols()) as f64;
    let passes = tile_passes(ctx) as f64;

    let (bin_trans, issue_per_pair) = if ctx.opts.warp_packing {
        (s.bin_transactions_packed, 1.0)
    } else {
        (s.bin_transactions_unpacked, 4.0)
    };
    // Each tile pass is a launch of its own, so it groups its lanes anew.
    let updates = stats::atomic_updates(ctx, nn, s, passes);
    // Collision replays at smem cost; plus bank-conflict replays on the
    // unpacked layout.
    let mut smem_replays = updates.replays;
    if !ctx.opts.warp_packing {
        smem_replays += updates.atomics * (UNPACKED_BANK_CONFLICT - 1.0) / UNPACKED_BANK_CONFLICT;
    }
    // Flush: one spread (conflict-free) global atomic per histogram slot.
    let flush_atomics = (mf * ctx.bins * (d + ctx.hess_cols())) as f64;

    KernelCost {
        flops: pairs * (cols + issue_per_pair) * passes.sqrt(),
        // Bin IDs re-read once per tile pass; gradients read once total
        // (each pass covers a disjoint output range).
        dram_bytes: bin_trans * p.sector_bytes as f64 * passes
            + stats::gh_bytes(ctx, nn)
            + flush_atomics * 4.0,
        smem_atomics: updates.atomics,
        smem_atomic_replays: smem_replays,
        shuffles: updates.shuffles,
        gmem_atomics: flush_atomics,
        launches: passes + 1.0, // accumulate passes + flush kernel
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::super::adaptive::predict_costs;
    use super::super::charge_method;
    use super::super::test_support::fixture;
    use super::*;
    use crate::config::{HistOptions, HistogramMethod};
    use crate::grad::Gradients;
    use gpusim::Device;

    fn make_ctx<'a>(
        device: &'a gpusim::Device,
        data: &'a gbdt_data::BinnedDataset,
        grads: &'a crate::grad::Gradients,
        features: &'a [u32],
        packing: bool,
        bins: usize,
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins,
            opts: HistOptions {
                warp_packing: packing,
                ..HistOptions::default()
            },
        }
    }

    #[test]
    fn tile_passes_grow_with_outputs() {
        let (_, data, grads2) = fixture(100, 4, 2, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..4).collect();
        // 256 bins × 2 outputs × 8 B = 4 KB → 1 pass.
        let ctx = make_ctx(&device, &data, &grads2, &features, true, 256);
        assert_eq!(tile_passes(&ctx), 1);
        // 256 × 100 × 8 = 200 KB → ≥ 5 passes in 48 KB.
        let (_, data100, uniform) = fixture(100, 4, 100, 1);
        let general = Gradients::general(uniform.g.clone(), uniform.h.clone(), 100, 100);
        let ctx100 = make_ctx(&device, &data100, &general, &features, true, 256);
        assert!(tile_passes(&ctx100) >= 4, "got {}", tile_passes(&ctx100));
        // One count column instead of 100 Hessian columns: 256 × 101 × 4
        // = 101 KB → 3 passes.
        let ctx_uniform = make_ctx(&device, &data100, &uniform, &features, true, 256);
        assert_eq!(tile_passes(&ctx_uniform), 3);
    }

    /// On the uniform-Hessian path each (instance, feature) pair issues
    /// `d` gradient updates and one count update; off it, `2d`.
    #[test]
    fn a_uniform_build_charges_d_plus_one_atomics_per_pair() {
        let (_, data, uniform) = super::super::test_support::fixture_dense(600, 5, 4, 7);
        let general = Gradients::general(uniform.g.clone(), uniform.h.clone(), 600, 4);
        let features: Vec<u32> = (0..5).collect();
        let idx: Vec<u32> = (0..600).filter(|i| i % 3 != 0).collect();
        let device = Device::rtx4090();
        let pairs = (idx.len() * features.len()) as f64;
        for (grads, cols) in [(&uniform, 4.0 + 1.0), (&general, 8.0)] {
            // Unpacked, so no warp aggregation scales the count.
            let ctx = make_ctx(&device, &data, grads, &features, false, 32);
            let cost = cost_descriptor(&ctx, idx.len(), &stats::measure(&ctx, &idx));
            assert_eq!(cost.smem_atomics, pairs * cols);
        }
    }

    #[test]
    fn warp_opt_reduces_smem_cost_substantially() {
        // Fig. 6a: "+wo" gives its biggest wins on the smem path (bank
        // conflicts removed).
        let (_, data, grads) = fixture(1500, 8, 6, 2);
        let features: Vec<u32> = (0..8).collect();
        let idx: Vec<u32> = (0..1500).collect();

        let d1 = Device::rtx4090();
        charge_method(
            &make_ctx(&d1, &data, &grads, &features, false, 32),
            &idx,
            HistogramMethod::SharedMemory,
        );
        let d2 = Device::rtx4090();
        charge_method(
            &make_ctx(&d2, &data, &grads, &features, true, 32),
            &idx,
            HistogramMethod::SharedMemory,
        );
        assert!(
            d2.now_ns() < d1.now_ns() * 0.9,
            "+wo {} vs unpacked {}",
            d2.now_ns(),
            d1.now_ns()
        );
    }

    /// Charge one build of `idx` with `method` on a fresh device and
    /// return its time.
    fn charged_ns(
        data: &gbdt_data::BinnedDataset,
        grads: &Gradients,
        features: &[u32],
        idx: &[u32],
        packing: bool,
        method: HistogramMethod,
    ) -> f64 {
        let device = Device::rtx4090();
        let ctx = make_ctx(&device, data, grads, features, packing, 32);
        charge_method(&ctx, idx, method);
        device.now_ns()
    }

    #[test]
    fn smem_beats_gmem_on_large_contended_nodes() {
        // Sparse data → heavy zero-bin collisions → without the
        // warp-level optimization, gmem replays are costly.
        let (_, data, grads) = fixture(4000, 8, 8, 3);
        let features: Vec<u32> = (0..8).collect();
        let idx: Vec<u32> = (0..4000).collect();
        let ns = |method| charged_ns(&data, &grads, &features, &idx, false, method);
        let (g, s) = (
            ns(HistogramMethod::GlobalMemory),
            ns(HistogramMethod::SharedMemory),
        );
        assert!(s < g, "smem {s} should beat gmem {g} on contended root");
    }

    /// With the warp-level optimization nothing replays on either
    /// path, so on the same root the cheaper global atomics of one
    /// launch beat smem's pass, flush and two launches.
    #[test]
    fn gmem_beats_smem_on_aggregated_contended_nodes() {
        let (_, data, grads) = fixture(4000, 8, 8, 3);
        let features: Vec<u32> = (0..8).collect();
        let idx: Vec<u32> = (0..4000).collect();
        let ns = |method| charged_ns(&data, &grads, &features, &idx, true, method);
        let (g, s) = (
            ns(HistogramMethod::GlobalMemory),
            ns(HistogramMethod::SharedMemory),
        );
        assert!(g < s, "gmem {g} should beat smem {s} once warps aggregate");
    }

    #[test]
    fn gmem_beats_smem_on_tiny_nodes() {
        // The flush term (bins × (d + hc) global atomics) plus the extra
        // launch dominate for nodes much smaller than the histogram —
        // the training-stage dependence behind the adaptive selector.
        // Dense data: no zero-bin skew inflating gmem replays.
        let (_, data, grads) = super::super::test_support::fixture_dense(4000, 8, 8, 4);
        let features: Vec<u32> = (0..8).collect();
        let device = Device::rtx4090();
        let ctx = make_ctx(&device, &data, &grads, &features, true, 256);
        let small = 40;
        let costs = predict_costs(&ctx, small);
        let (g, s) = (costs.gmem_ns, costs.smem_ns);
        assert!(
            g < s,
            "gmem {g} should beat smem {s} for {small}-instance nodes"
        );
    }
}
