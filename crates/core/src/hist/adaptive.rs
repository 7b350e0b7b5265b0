//! Adaptive histogram-method selection (paper §3.3: "our system
//! dynamically selects the most appropriate histogram building method
//! from multiple optimized approaches based on the dataset
//! characteristics and training stage").
//!
//! Before building a node's histogram, each strategy's cost is predicted
//! from the analytical model with closed-form contention estimates —
//! node size, feature/output counts, bin budget, dataset sparsity — and
//! the cheapest wins. Large contended roots favour shared memory; small
//! deep nodes favour global memory (the smem flush is a fixed cost);
//! sort-and-reduce wins only when contention is extreme relative to the
//! output width.
//!
//! All three predictors price the output dimension at
//! [`HistContext::d()`] = `grads.d` — the *effective* width of the
//! gradient matrix actually handed to the kernels. Under gradient
//! sketching ([`crate::sketch`]) that is `k`, not the model's `d`, so a
//! sketched round's predicted costs shrink automatically and the
//! selector can flip its choice (e.g. sort-and-reduce loses its appeal
//! once the per-key payload drops from `d + hc` to `k + hc` columns,
//! `hc` being the Hessian (or count) columns, [`HistContext::hess_cols`]).
//!
//! A node's price includes its kernel launches only when the node pays
//! for them ([`Launches::PerNode`]). The level grower, on one device
//! and on each device of a group, charges a level's builds as one kernel
//! per method ([`Launches::PerLevel`]), so there a node adds only its
//! work; pricing its launches too would charge the selector for
//! overhead the level never pays.

use super::{gmem, smem, sortreduce, stats, HistContext};
use crate::config::HistogramMethod;
use gpusim::cost::KernelCost;

/// Who pays a node build's kernel launches, which decides whether the
/// selector prices them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launches {
    /// Each node build is its own kernel and pays its method's launches.
    PerNode,
    /// One kernel per method covers a level's builds; a node adds only
    /// its work.
    PerLevel,
}

/// Predicted cost of every concrete method, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct MethodCosts {
    /// Global-memory atomics.
    pub gmem_ns: f64,
    /// Shared-memory tiling.
    pub smem_ns: f64,
    /// Sort-and-reduce.
    pub sort_ns: f64,
}

impl MethodCosts {
    /// The cheapest method under these predictions.
    pub fn best(&self) -> HistogramMethod {
        if self.gmem_ns <= self.smem_ns && self.gmem_ns <= self.sort_ns {
            HistogramMethod::GlobalMemory
        } else if self.smem_ns <= self.sort_ns {
            HistogramMethod::SharedMemory
        } else {
            HistogramMethod::SortReduce
        }
    }
}

/// Predict all three methods' costs for a node of `node_size` instances
/// built as its own kernel, launches included.
pub fn predict_costs(ctx: &HistContext<'_>, node_size: usize) -> MethodCosts {
    predict_costs_with(ctx, node_size, Launches::PerNode)
}

/// Predict all three methods' costs for a node of `node_size` instances,
/// with or without its launches as `launches` says. The expected
/// contention statistics are computed once and priced through every
/// method's cost descriptor.
pub fn predict_costs_with(
    ctx: &HistContext<'_>,
    node_size: usize,
    launches: Launches,
) -> MethodCosts {
    let s = stats::expect(ctx, node_size);
    let model = ctx.device.model();
    let price = |c: KernelCost| match launches {
        Launches::PerNode => model.kernel_ns(&c),
        Launches::PerLevel => model.work_ns(&c),
    };
    MethodCosts {
        gmem_ns: price(gmem::cost_descriptor(ctx, node_size, &s)),
        smem_ns: price(smem::cost_descriptor(ctx, node_size, &s)),
        sort_ns: price(sortreduce::cost_descriptor(ctx, node_size)),
    }
}

/// Select the method to use for a node of `node_size` instances whose
/// launches are paid as `launches` says.
pub fn select_method(
    ctx: &HistContext<'_>,
    node_size: usize,
    launches: Launches,
) -> HistogramMethod {
    predict_costs_with(ctx, node_size, launches).best()
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fixture;
    use super::*;
    use crate::config::HistOptions;
    use gpusim::Device;

    fn make_ctx<'a>(
        device: &'a gpusim::Device,
        data: &'a gbdt_data::BinnedDataset,
        grads: &'a crate::grad::Gradients,
        features: &'a [u32],
        bins: usize,
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins,
            opts: HistOptions::default(),
        }
    }

    #[test]
    fn selection_is_never_worse_than_either_fixed_choice() {
        let (_, data, grads) = fixture(3000, 8, 8, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, 256);
        for size in [50, 500, 3000] {
            let c = predict_costs(&ctx, size);
            let best = match c.best() {
                HistogramMethod::GlobalMemory => c.gmem_ns,
                HistogramMethod::SharedMemory => c.smem_ns,
                HistogramMethod::SortReduce => c.sort_ns,
                HistogramMethod::Adaptive => unreachable!(),
            };
            assert!(best <= c.gmem_ns && best <= c.smem_ns && best <= c.sort_ns);
        }
    }

    #[test]
    fn stage_dependence_small_nodes_prefer_gmem() {
        // With a 256-bin × d histogram, tiny nodes must avoid the smem
        // flush (a fixed bins×d×2 global-atomic cost).
        let (_, data, grads) = fixture(4000, 8, 8, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, 256);
        assert_eq!(
            select_method(&ctx, 30, Launches::PerNode),
            HistogramMethod::GlobalMemory
        );
    }

    #[test]
    fn contended_roots_prefer_smem() {
        // A large sparse root with many outputs: without the warp-level
        // optimization, zero-bin collisions make global atomics
        // replay-heavy.
        let (_, data, grads) = fixture(4000, 8, 8, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = HistContext {
            opts: HistOptions {
                warp_packing: false,
                ..HistOptions::default()
            },
            ..make_ctx(&device, &data, &grads, &features, 32)
        };
        assert_eq!(
            select_method(&ctx, 4000, Launches::PerNode),
            HistogramMethod::SharedMemory
        );
    }

    /// With the warp-level optimization the same root's warps aggregate
    /// their same-bin lanes, so no global atomic replays, and gmem's one
    /// launch beats smem's tile pass, flush and flush launch.
    #[test]
    fn aggregated_contended_roots_prefer_gmem() {
        let (_, data, grads) = fixture(4000, 8, 8, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, 32);
        assert!(ctx.opts.warp_packing);
        assert_eq!(
            select_method(&ctx, 4000, Launches::PerNode),
            HistogramMethod::GlobalMemory
        );
    }

    /// The level-batched price of a node is its per-node price less
    /// exactly its method's launches: gmem one, smem `passes + 1`,
    /// sort-and-reduce `1 + 2·4 + d`; `predict_costs` keeps them.
    #[test]
    fn the_batched_price_leaves_out_only_the_launch_term() {
        let (_, data, grads) = fixture(3000, 8, 8, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, 256);
        let launch_ns = device.model().params.launch_overhead_sec * 1e9;
        let passes = super::super::smem::tile_passes(&ctx) as f64;
        for size in [20, 500, 3000] {
            let per_node = predict_costs(&ctx, size);
            let per_level = predict_costs_with(&ctx, size, Launches::PerLevel);
            for (label, node, level, launches) in [
                ("gmem", per_node.gmem_ns, per_level.gmem_ns, 1.0),
                ("smem", per_node.smem_ns, per_level.smem_ns, passes + 1.0),
                (
                    "sort",
                    per_node.sort_ns,
                    per_level.sort_ns,
                    9.0 + ctx.d() as f64,
                ),
            ] {
                let gap = node - level;
                assert!(
                    (gap - launches * launch_ns).abs() < 1e-6 * node,
                    "{label} at {size}: per-node {node} − per-level {level} = {gap}"
                );
            }
        }
    }

    #[test]
    fn costs_are_finite_for_degenerate_nodes() {
        let (_, data, grads) = fixture(100, 4, 2, 4);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..4).collect();
        let ctx = make_ctx(&device, &data, &grads, &features, 32);
        let c = predict_costs(&ctx, 0);
        assert!(c.gmem_ns.is_finite() && c.smem_ns.is_finite() && c.sort_ns.is_finite());
    }

    #[test]
    fn sketched_rounds_price_histograms_at_effective_d_k() {
        // The cost model reads the output width from `ctx.grads.d`, so a
        // round trained on a k-column gradient sketch must predict
        // strictly cheaper histograms for every method — the mechanism
        // behind the `repro bench --sketch` speedups.
        use crate::config::OutputSketch;
        use crate::sketch::{apply_sketch, plan_sketch};
        let (_, data, grads) = fixture(3000, 8, 16, 5);
        let device = Device::rtx4090();
        let plan = plan_sketch(&device, &grads, OutputSketch::TopOutputs(4), 11);
        let sketched = apply_sketch(&device, &grads, &plan);
        assert_eq!(sketched.d, 4);
        let features: Vec<u32> = (0..8).collect();
        let full = make_ctx(&device, &data, &grads, &features, 64);
        let thin = make_ctx(&device, &data, &sketched, &features, 64);
        assert_eq!(full.d(), 16);
        assert_eq!(thin.d(), 4);
        for size in [200, 3000] {
            let cf = predict_costs(&full, size);
            let ct = predict_costs(&thin, size);
            assert!(
                ct.gmem_ns < cf.gmem_ns,
                "gmem {} !< {}",
                ct.gmem_ns,
                cf.gmem_ns
            );
            assert!(
                ct.smem_ns < cf.smem_ns,
                "smem {} !< {}",
                ct.smem_ns,
                cf.smem_ns
            );
            assert!(
                ct.sort_ns < cf.sort_ns,
                "sort {} !< {}",
                ct.sort_ns,
                cf.sort_ns
            );
        }
    }
}
