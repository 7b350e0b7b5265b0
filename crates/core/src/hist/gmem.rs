//! Global-memory histogram strategy (paper §3.3.2).
//!
//! One simulated thread per (instance, feature) pair: fetch the bin ID,
//! then `atomicAdd` the instance's `d` gradient and `d` Hessian values
//! (one count when every row shares its Hessians) into the global
//! histogram. Simple and launch-cheap, but every update
//! is a global atomic: without the warp-level optimization, intra-warp
//! bin collisions serialize into replays, so skewed bin distributions
//! (sparse data funnelling into the zero bin) degrade it sharply — the
//! motivation for the other strategies. With it, each warp aggregates
//! its same-bin lanes first ([`stats::atomic_updates`]).

use super::stats::{self, ContentionStats};
use super::HistContext;
use gpusim::cost::KernelCost;

/// Build the kernel-cost descriptor from contention statistics.
pub fn cost_descriptor(ctx: &HistContext<'_>, nn: usize, s: &ContentionStats) -> KernelCost {
    let mf = ctx.features.len();
    let d = ctx.d();
    let p = &ctx.device.model().params;
    // Sparsity-aware kernels (§3.2) visit only CSC-present entries and
    // fill the implicit-zero bin in closed form, so the per-pair work
    // scales with the data's density (plus one zero-bin pass per
    // (feature, output), negligible against the entry stream).
    let density = super::density_factor(ctx);
    let pairs = nn as f64 * mf as f64 * density;
    // Gradient and Hessian (or count) columns each pair updates.
    let cols = (d + ctx.hess_cols()) as f64;

    let (bin_trans, issue_per_pair) = if ctx.opts.warp_packing {
        // Packed: one u32 serves 4 instances.
        (s.bin_transactions_packed, 1.0)
    } else {
        // Byte-granular loads: 4× the load instructions for the same data.
        (s.bin_transactions_unpacked, 4.0)
    };
    let updates = stats::atomic_updates(ctx, nn, s, 1.0);

    KernelCost {
        flops: pairs * (cols + issue_per_pair),
        dram_bytes: bin_trans * p.sector_bytes as f64 + stats::gh_bytes(ctx, nn),
        gmem_atomics: updates.atomics,
        gmem_atomic_replays: updates.replays,
        shuffles: updates.shuffles,
        launches: 1.0,
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
    use gpusim::{Device, Phase};

    fn make_ctx<'a>(
        device: &'a gpusim::Device,
        data: &'a gbdt_data::BinnedDataset,
        grads: &'a crate::grad::Gradients,
        features: &'a [u32],
        packing: bool,
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins: 32,
            opts: HistOptions {
                warp_packing: packing,
                ..HistOptions::default()
            },
        }
    }

    #[test]
    fn charge_accumulates_histogram_phase_time() {
        let (_, data, grads) = fixture(400, 6, 3, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, true);
        let idx: Vec<u32> = (0..400).collect();
        charge_method(&ctx, &idx, HistogramMethod::GlobalMemory);
        let s = device.summary();
        assert!(s.by_phase.contains_key(&Phase::Histogram));
        assert!(s.total_ns > 0.0);
    }

    #[test]
    fn cost_scales_with_outputs() {
        // Large enough that the d-proportional atomic/replay terms
        // dominate fixed launch overhead. Unpacked, every lane's atomic
        // replays once per column.
        let (_, data, grads) = fixture(10_000, 8, 2, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, false);
        let t_small = predict_costs(&ctx, 10_000).gmem_ns;

        let (_, data8, grads8) = fixture(10_000, 8, 8, 2);
        let ctx8 = make_ctx(&device, &data8, &grads8, &features, false);
        let t_big = predict_costs(&ctx8, 10_000).gmem_ns;
        assert!(
            t_big > t_small * 2.0,
            "d=8 ({t_big}) should cost ≫ d=2 ({t_small})"
        );
    }

    /// With the warp-level optimization the per-column terms, atomics
    /// and shuffle reductions, scale with the columns exactly, while a
    /// warp groups its lanes once per feature whatever the width: on one
    /// node, four times the columns cost more than twice as much.
    #[test]
    fn aggregated_cost_scales_with_outputs() {
        use super::super::test_support::mixed_gradients;
        let (_, data, _) = fixture(10_000, 8, 2, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let idx: Vec<u32> = (0..10_000).collect();
        let (narrow, wide) = (mixed_gradients(10_000, 2), mixed_gradients(10_000, 8));
        let cost = |grads: &crate::grad::Gradients| {
            let ctx = make_ctx(&device, &data, grads, &features, true);
            let c = cost_descriptor(&ctx, idx.len(), &stats::measure(&ctx, &idx));
            (c, device.model().kernel_ns(&c))
        };
        let ((small, t_small), (big, t_big)) = (cost(&narrow), cost(&wide));
        assert_eq!(big.gmem_atomics, small.gmem_atomics * 4.0);
        assert_eq!(
            (big.gmem_atomic_replays, small.gmem_atomic_replays),
            (0.0, 0.0)
        );
        assert!(big.shuffles > small.shuffles * 3.0 && big.shuffles < small.shuffles * 4.0);
        assert!(
            t_big > t_small * 2.0,
            "d=8 ({t_big}) should cost ≫ d=2 ({t_small})"
        );
    }

    #[test]
    fn warp_packing_does_not_increase_cost() {
        let (_, data, grads) = fixture(500, 6, 4, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let idx: Vec<u32> = (0..500).filter(|i| i % 2 == 0).collect();

        let d1 = Device::rtx4090();
        let ctx = make_ctx(&d1, &data, &grads, &features, false);
        charge_method(&ctx, &idx, HistogramMethod::GlobalMemory);
        let d2 = Device::rtx4090();
        let ctx_wo = make_ctx(&d2, &data, &grads, &features, true);
        charge_method(&ctx_wo, &idx, HistogramMethod::GlobalMemory);
        assert!(
            d2.now_ns() <= d1.now_ns(),
            "+wo {} vs {}",
            d2.now_ns(),
            d1.now_ns()
        );
        let _ = device;
    }

    #[test]
    fn estimate_is_positive_and_monotone_in_node_size() {
        let (_, data, grads) = fixture(1000, 5, 3, 4);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..5).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, true);
        let t100 = predict_costs(&ctx, 100).gmem_ns;
        let t1000 = predict_costs(&ctx, 1000).gmem_ns;
        assert!(t100 > 0.0);
        assert!(t1000 > t100);
    }
}
