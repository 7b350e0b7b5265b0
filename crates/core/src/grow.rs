//! Level-wise tree growth (paper Algorithm 1).
//!
//! The frontier of open nodes is processed one depth level at a time in
//! a **two-stage pass**:
//!
//! 1. **Histogram build** — every open node's histogram is produced:
//!    fresh builds accumulate from instance data (in parallel across
//!    nodes when [`TrainConfig::parallel_level_hist`] is set — they are
//!    mutually independent), then subtraction-inherited nodes derive
//!    `parent − sibling` from the parent buffer that survived the
//!    previous level. Level-batched buffers are only used when the
//!    subtraction trick or real host parallelism calls for them;
//!    otherwise stage 1 is skipped and each histogram is built lazily
//!    in stage 2 over a single hot pooled buffer (better cache reuse
//!    single-threaded).
//! 2. **Split selection** — nodes are visited strictly in node-index
//!    order: each fresh build joins its method's level batch, the best
//!    split is found via segmented reductions, and instances are
//!    partitioned into the children. At the level's end the histogram,
//!    split and partition kernels are charged once per level
//!    (`HistCharges`, [`LevelSplitCharges`]).
//!
//! Because stage 2 is serial and consumes histograms in node-index
//! order, the grown tree and the simulated timeline are bit-identical
//! at any host thread count and with the parallel build disabled.
//! Histogram buffers come from a [`HistogramPool`] reused across
//! levels and trees; on the subtraction path the parent's buffer stays
//! alive (owned by the level loop) until both children have resolved.

use crate::config::{HistogramMethod, TrainConfig};
use crate::grad::Gradients;
use crate::hist::{
    accumulate_only, charge_builds_on, method_cost, resolve_method, HistContext, Launches,
    NodeHistogram,
};
use crate::memory::HistogramPool;
use crate::split::{
    find_best_split_constrained, leaf_values, ConstraintState, LevelSplitCharges, SplitParams,
};
use crate::tree::Tree;
use gbdt_data::BinnedDataset;
use gpusim::cost::KernelCost;
use gpusim::{Device, Phase};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Charging policy for one level's histogram kernels: one launch per
/// (level, method), not one per node.
///
/// Each fresh build is planned in node-index order: the adaptive
/// selector resolves its method pricing it without launches
/// ([`Launches::PerLevel`]), it is priced from measured statistics, and
/// its launch-free cost joins its method's batch. [`HistCharges::flush`]
/// charges each method used as one kernel: the merged costs of its
/// nodes, that method's launch count once, and a 4-byte node-slot read
/// per row (the batched kernel looks up which node each row accumulates
/// into). Every build is still traced for an attached sanitizer. The
/// level's subtraction derives follow as one `hist_subtract` launch: a
/// derive reads its sibling's fresh histogram.
///
/// Every kernel goes to the default stream. A level's batches are few
/// (one per method used) and its derive depends on them, so worker
/// streams would have nothing to overlap.
#[derive(Default)]
struct HistCharges {
    /// Fresh builds of the level, per concrete method.
    batches: BTreeMap<HistogramMethod, MethodBatch>,
    /// Histogram elements derived by subtraction this level.
    derived: usize,
}

/// The fresh builds one method handles in a level.
#[derive(Default)]
struct MethodBatch {
    /// Merged launch-free costs of the method's nodes.
    work: KernelCost,
    /// The method's launch count, paid once per level.
    launches: f64,
    nodes: usize,
    rows: usize,
    /// The nodes' instances, kept only for an attached sanitizer.
    traced: Vec<Vec<u32>>,
}

impl HistCharges {
    /// Plan one fresh build with the configured method and add it to its
    /// method's batch; returns the concrete method.
    fn build(&mut self, ctx: &HistContext<'_>, idx: &[u32]) -> HistogramMethod {
        let method = resolve_method(ctx, idx.len(), ctx.opts.method, Launches::PerLevel);
        let cost = method_cost(ctx, idx, method);
        let batch = self.batches.entry(method).or_default();
        batch.work = batch.work.merged(&KernelCost {
            launches: 0.0,
            ..cost
        });
        batch.launches = cost.launches;
        batch.nodes += 1;
        batch.rows += idx.len();
        if ctx.device.sanitizer().is_some() {
            batch.traced.push(idx.to_vec());
        }
        method
    }

    /// Trace one subtraction derive of `elems` histogram elements.
    fn derive(&mut self, device: &Device, elems: usize) {
        crate::sanitize::trace_subtract(device, elems);
        self.derived += elems;
    }

    /// End of level: charge one kernel per method used, then the derive
    /// kernel. Each method's kernel, nodes and launches are added to
    /// `launches` at `depth`.
    fn flush(
        &mut self,
        ctx: &HistContext<'_>,
        depth: usize,
        launches: &mut BTreeMap<(usize, HistogramMethod), HistLaunches>,
    ) {
        for (method, batch) in std::mem::take(&mut self.batches) {
            let seen = launches.entry((depth, method)).or_default();
            seen.kernels += 1;
            seen.nodes += batch.nodes;
            seen.launches += batch.launches;
            let cost = batch.work.merged(&KernelCost {
                dram_bytes: 4.0 * batch.rows as f64,
                launches: batch.launches,
                ..Default::default()
            });
            charge_builds_on(ctx, method, 0, &cost, &batch.traced);
        }
        if self.derived > 0 {
            let elems = self.derived as f64;
            ctx.device.charge_kernel(
                "hist_subtract",
                Phase::Histogram,
                &KernelCost::streaming(elems * 2.0, elems * 3.0 * 8.0),
            );
            self.derived = 0;
        }
    }
}

/// Stable in-order partition of `idx` by `flags` (`true` → left). The
/// functional core of the scan-based partition kernel; its cost is
/// charged level-batched by the grower.
pub fn partition_stable(idx: &[u32], flags: &[bool]) -> (Vec<u32>, Vec<u32>) {
    debug_assert_eq!(idx.len(), flags.len());
    let mut left = Vec::with_capacity(idx.len());
    let mut right = Vec::with_capacity(idx.len());
    for (&i, &f) in idx.iter().zip(flags) {
        if f {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    (left, right)
}

/// Where a frontier node's histogram comes from in the level's build
/// stage.
#[derive(Debug, Clone, Copy)]
enum HistSource {
    /// Accumulate from instance data (fresh build; charged as a
    /// histogram kernel).
    Build,
    /// Derive as `parents[parent] − sibling's histogram` — the
    /// subtraction trick. The sibling (at frontier index `sibling`,
    /// always the smaller child) builds fresh in the same level; the
    /// parent's buffer survived the previous level for exactly this.
    Derive { parent: usize, sibling: usize },
}

/// One open node during growth.
struct NodeWork {
    /// Index of this node in the tree.
    tree_node: usize,
    /// Instances resident in the node.
    instances: Vec<u32>,
    /// Per-output gradient totals.
    g: Vec<f64>,
    /// Per-output Hessian totals.
    h: Vec<f64>,
    /// How this node's histogram is produced.
    source: HistSource,
    /// Per-output leaf-value bounds from constrained ancestors (only
    /// allocated when monotone constraints are active).
    bounds: Option<Vec<(f64, f64)>>,
}

/// Clamp raw leaf values into a node's monotonicity bounds (before the
/// learning-rate scaling that `leaf_values` applies uniformly).
fn clamp_leaf(values: &mut [f32], bounds: &[(f64, f64)], learning_rate: f32) {
    for (v, &(lo, hi)) in values.iter_mut().zip(bounds) {
        let unscaled = (*v / learning_rate) as f64;
        *v = (unscaled.clamp(lo, hi) as f32) * learning_rate;
    }
}

/// Result of growing one tree.
pub struct GrowResult {
    /// The finished tree.
    pub tree: Tree,
    /// `(instances, leaf value)` per leaf — input to the incremental
    /// score update.
    pub leaf_assignments: Vec<(Vec<u32>, Vec<f32>)>,
    /// Tree-node index of each entry in `leaf_assignments` (lets
    /// post-processing — e.g. SketchBoost's full-dimensional leaf
    /// refit — rewrite leaf values in place).
    pub leaf_nodes: Vec<usize>,
    /// How many nodes each histogram method handled (adaptive
    /// selection telemetry, reported by the ablation benches).
    pub methods_used: BTreeMap<HistogramMethod, usize>,
    /// Histogram kernels per (depth, method) of a grower that charges a
    /// level's builds as one kernel per method; empty where each build
    /// is a kernel of its own.
    pub hist_launches: BTreeMap<(usize, HistogramMethod), HistLaunches>,
    /// Feature columns histograms were built and scanned over: the
    /// grower's features that can split ([`BinnedDataset::splittable`]).
    pub features_built: usize,
}

/// The histogram kernels of one (depth, method): how many were charged,
/// the fresh node builds they cover and the launches they pay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistLaunches {
    /// Batched kernels charged (one per level and tree).
    pub kernels: usize,
    /// Fresh node builds.
    pub nodes: usize,
    /// Kernel launches paid for them.
    pub launches: f64,
}

/// Grow one tree over `features` (global IDs) on `device`, rooting at
/// all instances.
pub fn grow_tree(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
) -> GrowResult {
    let root_idx: Vec<u32> = (0..grads.n as u32).collect();
    grow_tree_on(device, data, grads, config, features, root_idx)
}

/// Grow one tree rooted at an explicit instance subset (stochastic
/// gradient boosting's per-tree row sample). Allocates a private
/// [`HistogramPool`]; the trainer's tree loop uses
/// [`grow_tree_pooled`] to reuse buffers across trees.
pub fn grow_tree_on(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
    root_idx: Vec<u32>,
) -> GrowResult {
    let mut pool = HistogramPool::new(features.len(), grads.d, config.max_bins);
    grow_tree_pooled(device, data, grads, config, features, root_idx, &mut pool)
}

/// [`grow_tree_on`] with a caller-owned histogram-buffer pool, so
/// consecutive trees reuse the same multi-MB allocations.
///
/// Only the columns of `features` that can split are built, charged
/// and scanned ([`BinnedDataset::splittable`]): a one-bin column has no
/// threshold that leaves both children non-empty, so dropping it leaves
/// the tree unchanged. With no such column the root is the only leaf.
///
/// The grower is deliberately sketch-agnostic: every histogram shape,
/// cost estimate, and leaf value is sized by `grads.d` — the width of
/// whatever gradient matrix it is handed. Under gradient sketching
/// ([`crate::sketch`]) the trainer passes an `n × k` sketch here (so
/// the whole structure search runs at effective dimension `k`) and then
/// overwrites the resulting leaves from the full-`d` gradients with
/// [`crate::sketch::refit_leaves_full_d`].
pub fn grow_tree_pooled(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
    root_idx: Vec<u32>,
    pool: &mut HistogramPool,
) -> GrowResult {
    let d = grads.d;
    let features = &data.splittable(features)[..];
    let max_depth = if features.is_empty() {
        0
    } else {
        config.max_depth
    };
    pool.ensure_shape(features.len(), d, config.max_bins);
    let ctx = HistContext {
        device,
        data,
        grads,
        features,
        bins: config.max_bins,
        opts: config.hist,
    };
    let params = SplitParams {
        lambda: config.lambda,
        min_gain: config.min_gain,
        min_instances: config.min_instances,
        segments_c: config.segments_per_block_c,
    };

    let mut tree = Tree::new(d);
    let mut leaf_assignments: Vec<(Vec<u32>, Vec<f32>)> = Vec::new();
    let mut leaf_nodes: Vec<usize> = Vec::new();
    let mut methods_used: BTreeMap<HistogramMethod, usize> = BTreeMap::new();
    let mut hist_launches = BTreeMap::new();

    let constrained = !config.monotone_constraints.is_empty();
    if constrained {
        assert_eq!(
            config.monotone_constraints.len(),
            data.m(),
            "monotone_constraints must have one entry per feature"
        );
    }
    let (root_g, root_h) = grads.sums(&root_idx);
    let mut frontier = vec![NodeWork {
        tree_node: 0,
        instances: root_idx,
        g: root_g,
        h: root_h,
        source: HistSource::Build,
        bounds: constrained.then(|| vec![(f64::NEG_INFINITY, f64::INFINITY); d]),
    }];
    // Parent histograms surviving from the previous level so that
    // `HistSource::Derive` children can subtract against them.
    let mut parents: Vec<NodeHistogram> = Vec::new();

    for depth in 0..max_depth {
        // Per-level profiling scope nested under the trainer's round
        // scope (no-op when profiling is off; purely observational).
        let _level_scope = device.prof_scope("level", Some(depth as u64));
        let mut next = Vec::new();
        let mut next_parents: Vec<NodeHistogram> = Vec::new();
        // Split evaluation and partitioning are charged once per level
        // as batched kernels (paper §3.1.3) — per-node launches would
        // dominate at depth.
        let mut split_charges = LevelSplitCharges::new();
        let mut hist_charges = HistCharges::default();
        let mut partition_elems = 0usize;

        // ---- stage 1: histogram build ------------------------------
        // Level-batched buffers are needed when subtraction derives
        // must see their sibling's and parent's buffers at once, and
        // they pay off when real host parallelism is available. With
        // neither, each histogram is instead built immediately before
        // its split is selected (in stage 2), keeping a single hot
        // buffer resident in cache — measurably faster single-threaded.
        // Either way every buffer comes from the pool and all device
        // charges are issued in stage 2's node-index order, so the tree
        // and the simulated timeline are identical across modes.
        let batch = config.hist.subtraction
            || (config.parallel_level_hist && rayon::current_num_threads() > 1);
        let mut hists: Vec<Option<NodeHistogram>> = frontier.iter().map(|_| None).collect();
        if batch {
            // Fresh builds of the level run over pooled buffers; they
            // are mutually independent, so they may run across host
            // threads. Nodes too small to split get no histogram.
            let mut jobs: Vec<(usize, NodeHistogram)> = Vec::new();
            for (i, work) in frontier.iter().enumerate() {
                if work.instances.len() < 2 * config.min_instances {
                    debug_assert!(
                        matches!(work.source, HistSource::Build),
                        "derive nodes are at least 2×min_instances by construction"
                    );
                    continue;
                }
                if matches!(work.source, HistSource::Build) {
                    jobs.push((i, pool.acquire()));
                }
            }
            {
                let build = |(i, buf): &mut (usize, NodeHistogram)| {
                    let w = &frontier[*i];
                    accumulate_only(&ctx, &w.instances, &w.g, &w.h, buf);
                };
                if config.parallel_level_hist && jobs.len() > 1 {
                    jobs.par_iter_mut().for_each(build);
                } else {
                    jobs.iter_mut().for_each(build);
                }
            }
            for (i, buf) in jobs {
                hists[i] = Some(buf);
            }

            // Subtraction-inherited nodes derive `parent − sibling`
            // (one streaming pass, charged with the level's other
            // derives at flush); afterwards the parent buffers return to
            // the pool.
            for (i, work) in frontier.iter().enumerate() {
                let HistSource::Derive { parent, sibling } = work.source else {
                    continue;
                };
                let mut out = pool.acquire();
                let sib = hists[sibling]
                    .as_ref()
                    .expect("smaller sibling builds fresh in the same level");
                out.assign_difference(&parents[parent], sib);
                hist_charges.derive(device, out.g.len());
                hists[i] = Some(out);
            }
        }
        for p in parents.drain(..) {
            pool.release(p);
        }

        // ---- stage 2: split selection, node-index order ------------
        for (i, work) in std::mem::take(&mut frontier).into_iter().enumerate() {
            let NodeWork {
                tree_node,
                instances,
                g,
                h,
                source,
                bounds,
            } = work;

            let leaf_bounds = bounds.clone();
            let mut finalize_leaf = |tree: &mut Tree, instances: Vec<u32>, g: &[f64], h: &[f64]| {
                let mut v = leaf_values(g, h, config.lambda, config.learning_rate);
                if let Some(b) = &leaf_bounds {
                    clamp_leaf(&mut v, b, config.learning_rate);
                }
                crate::sanitize::trace_leaf_values(device, v.len());
                tree.set_leaf(tree_node, v.clone());
                leaf_assignments.push((instances, v));
                leaf_nodes.push(tree_node);
            };

            // Un-batched levels build the histogram right here, just
            // before it is consumed (same pooled buffer every node).
            let hist_slot = hists[i].take().or_else(|| {
                if !batch && instances.len() >= 2 * config.min_instances {
                    let mut buf = pool.acquire();
                    accumulate_only(&ctx, &instances, &g, &h, &mut buf);
                    Some(buf)
                } else {
                    None
                }
            });
            let Some(hist) = hist_slot else {
                // Too small to split (no histogram was built).
                finalize_leaf(&mut tree, instances, &g, &h);
                continue;
            };

            // The fresh build joins its method's level batch, strictly
            // in node-index order so the batches are independent of how
            // stage 1 was parallelized.
            if matches!(source, HistSource::Build) {
                let m = hist_charges.build(&ctx, &instances);
                *methods_used.entry(m).or_insert(0) += 1;
            }

            let state = bounds.as_ref().map(|b| ConstraintState {
                monotone: &config.monotone_constraints,
                bounds: b,
            });
            let split = find_best_split_constrained(
                &mut split_charges,
                &hist,
                features,
                &g,
                &h,
                instances.len() as u32,
                &params,
                state.as_ref(),
            );
            let Some(split) = split else {
                pool.release(hist);
                finalize_leaf(&mut tree, instances, &g, &h);
                continue;
            };
            if let Some(tel) = device.telemetry() {
                // Observer only: the split decision above is final.
                tel.hist_observe("train.split_gain", split.gain);
            }

            // Partition instances by the winning condition (Algorithm 1
            // lines 16–17); the scan-based partition kernel for all of
            // the level's nodes is charged once below.
            let col = data.bins.col(split.feature as usize);
            let flags: Vec<bool> = instances
                .iter()
                .map(|&i| col[i as usize] <= split.bin)
                .collect();
            partition_elems += instances.len();
            crate::sanitize::trace_partition(device, &flags);
            let (left_idx, right_idx) = partition_stable(&instances, &flags);
            debug_assert_eq!(left_idx.len(), split.left_count as usize);
            debug_assert_eq!(right_idx.len(), split.right_count as usize);

            let threshold = data.cuts.threshold(split.feature as usize, split.bin);
            let (l, r) = tree.split_node(tree_node, split.feature, split.bin, threshold);

            let right_g: Vec<f64> = g.iter().zip(&split.left_g).map(|(a, b)| a - b).collect();
            let right_h: Vec<f64> = h.iter().zip(&split.left_h).map(|(a, b)| a - b).collect();

            // Monotone bound propagation: a constrained split fixes the
            // midpoint of the two (clamped) child values as the new
            // boundary between the children's admissible intervals.
            let (left_bounds, right_bounds) = if let Some(parent_bounds) = &bounds {
                let c = config.monotone_constraints[split.feature as usize];
                let mut lb = parent_bounds.clone();
                let mut rb = parent_bounds.clone();
                if c != 0 {
                    for k in 0..d {
                        let (lo, hi) = parent_bounds[k];
                        let vl =
                            (-(split.left_g[k] / (split.left_h[k] + config.lambda))).clamp(lo, hi);
                        let vr = (-(right_g[k] / (right_h[k] + config.lambda))).clamp(lo, hi);
                        let mid = 0.5 * (vl + vr);
                        if c > 0 {
                            lb[k].1 = lb[k].1.min(mid);
                            rb[k].0 = rb[k].0.max(mid);
                        } else {
                            lb[k].0 = lb[k].0.max(mid);
                            rb[k].1 = rb[k].1.min(mid);
                        }
                    }
                }
                (Some(lb), Some(rb))
            } else {
                (None, None)
            };

            // Histogram subtraction: plan to rebuild only the smaller
            // child next level; the larger then derives
            // `parent − smaller` from this node's buffer, which the
            // level loop keeps alive until both children resolve.
            let (mut left_source, mut right_source) = (HistSource::Build, HistSource::Build);
            let mut parent_survives = false;
            if config.hist.subtraction && depth + 1 < max_depth {
                let smaller_is_left = left_idx.len() <= right_idx.len();
                let smaller_len = left_idx.len().min(right_idx.len());
                if smaller_len >= 2 * config.min_instances {
                    let parent = next_parents.len();
                    let left_pos = next.len();
                    let right_pos = next.len() + 1;
                    if smaller_is_left {
                        right_source = HistSource::Derive {
                            parent,
                            sibling: left_pos,
                        };
                    } else {
                        left_source = HistSource::Derive {
                            parent,
                            sibling: right_pos,
                        };
                    }
                    parent_survives = true;
                }
            }
            if parent_survives {
                next_parents.push(hist);
            } else {
                pool.release(hist);
            }

            next.push(NodeWork {
                tree_node: l,
                instances: left_idx,
                g: split.left_g,
                h: split.left_h,
                source: left_source,
                bounds: left_bounds,
            });
            next.push(NodeWork {
                tree_node: r,
                instances: right_idx,
                g: right_g,
                h: right_h,
                source: right_source,
                bounds: right_bounds,
            });
        }
        hist_charges.flush(&ctx, depth, &mut hist_launches);
        split_charges.flush(device, device.model().params.sm_count, params.segments_c);
        if partition_elems > 0 {
            device.charge_kernel(
                "partition_level",
                Phase::Partition,
                &KernelCost {
                    flops: 3.0 * partition_elems as f64,
                    // flag read + index read + scan traffic + scatter
                    dram_bytes: (partition_elems * 17) as f64,
                    launches: 2.0,
                    ..Default::default()
                },
            );
        }
        frontier = next;
        parents = next_parents;
        if frontier.is_empty() {
            break;
        }
    }
    // Parent buffers planned for a level that never ran (depth limit).
    for p in parents.drain(..) {
        pool.release(p);
    }

    // Depth limit reached: everything still open becomes a leaf.
    for work in frontier {
        let mut v = leaf_values(&work.g, &work.h, config.lambda, config.learning_rate);
        if let Some(b) = &work.bounds {
            clamp_leaf(&mut v, b, config.learning_rate);
        }
        crate::sanitize::trace_leaf_values(device, v.len());
        tree.set_leaf(work.tree_node, v.clone());
        leaf_assignments.push((work.instances, v));
        leaf_nodes.push(work.tree_node);
    }

    GrowResult {
        tree,
        leaf_assignments,
        leaf_nodes,
        methods_used,
        hist_launches,
        features_built: features.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::compute_gradients;
    use crate::loss::MseLoss;
    use gbdt_data::synth::{make_regression, RegressionSpec};
    use gbdt_data::Dataset;

    fn setup(n: usize, m: usize, d: usize) -> (Dataset, BinnedDataset, Gradients) {
        let ds = make_regression(&RegressionSpec {
            instances: n,
            features: m,
            outputs: d,
            informative: (m / 2).max(1),
            noise: 0.05,
            seed: 42,
            ..Default::default()
        });
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n * d];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, d);
        (ds, binned, grads)
    }

    fn config() -> TrainConfig {
        TrainConfig {
            max_depth: 4,
            min_instances: 5,
            max_bins: 32,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn leaves_partition_all_instances() {
        let (_, data, grads) = setup(300, 6, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let res = grow_tree(&device, &data, &grads, &config(), &features);
        let mut seen = vec![false; 300];
        for (instances, _) in &res.leaf_assignments {
            for &i in instances {
                assert!(!seen[i as usize], "instance {i} in two leaves");
                seen[i as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every instance must land in a leaf"
        );
        assert_eq!(res.leaf_assignments.len(), res.tree.num_leaves());
    }

    #[test]
    fn depth_limit_is_respected() {
        let (_, data, grads) = setup(400, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        for depth in [1, 2, 3] {
            let mut cfg = config();
            cfg.max_depth = depth;
            let res = grow_tree(&device, &data, &grads, &cfg, &features);
            assert!(
                res.tree.depth() <= depth,
                "depth {} > limit {depth}",
                res.tree.depth()
            );
        }
    }

    #[test]
    fn tree_reduces_training_loss() {
        let (ds, data, grads) = setup(400, 6, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let res = grow_tree(&device, &data, &grads, &config(), &features);

        // Applying the tree's leaf values must reduce squared error
        // against the targets (scores started at zero).
        let d = 3;
        let mut scores = vec![0.0f32; 400 * d];
        for (instances, value) in &res.leaf_assignments {
            for &i in instances {
                for k in 0..d {
                    scores[i as usize * d + k] += value[k];
                }
            }
        }
        let before: f64 = ds.targets().iter().map(|&t| (t as f64).powi(2)).sum();
        let after: f64 = scores
            .iter()
            .zip(ds.targets())
            .map(|(&s, &t)| ((s - t) as f64).powi(2))
            .sum();
        assert!(
            after < before * 0.9,
            "loss {after} not reduced from {before}"
        );
    }

    #[test]
    fn min_instances_bounds_leaf_sizes() {
        let (_, data, grads) = setup(300, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let mut cfg = config();
        cfg.min_instances = 30;
        let res = grow_tree(&device, &data, &grads, &cfg, &features);
        for (instances, _) in &res.leaf_assignments {
            assert!(
                instances.len() >= 30,
                "leaf of size {} violates min_instances",
                instances.len()
            );
        }
    }

    #[test]
    fn subtraction_grows_equivalent_tree() {
        let (_, data, grads) = setup(500, 8, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let plain = grow_tree(&device, &data, &grads, &config(), &features);
        let mut cfg = config();
        cfg.hist.subtraction = true;
        let sub = grow_tree(&device, &data, &grads, &cfg, &features);
        // Identical split structure and (up to fp noise) leaf values.
        assert_eq!(plain.tree.num_nodes(), sub.tree.num_nodes());
        assert_eq!(plain.tree.num_leaves(), sub.tree.num_leaves());
        for ((ia, va), (ib, vb)) in plain.leaf_assignments.iter().zip(&sub.leaf_assignments) {
            assert_eq!(ia, ib);
            for (a, b) in va.iter().zip(vb) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn charges_land_in_expected_phases() {
        let (_, data, grads) = setup(4000, 12, 6);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..12).collect();
        let _ = grow_tree(&device, &data, &grads, &config(), &features);
        let s = device.summary();
        for phase in [Phase::Histogram, Phase::SplitEval, Phase::Partition] {
            assert!(
                s.by_phase.contains_key(&phase),
                "missing charges for {phase:?}"
            );
        }
        // Histogram must dominate split evaluation (the paper's Fig. 4).
        assert!(s.fraction(Phase::Histogram) > s.fraction(Phase::SplitEval));
    }

    #[test]
    fn monotone_constraint_makes_predictions_monotone() {
        use gbdt_data::{Dataset, DenseMatrix, Task};
        // y = x + noise on a single feature: a +1 constraint must yield
        // a globally non-decreasing prediction function (bound
        // propagation guarantees it, not just local ordering).
        let n = 500;
        let xs: Vec<f32> = (0..n).map(|i| i as f32 / 50.0).collect();
        let targets: Vec<f32> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x + ((i * 37) % 11) as f32 * 0.2 - 1.0)
            .collect();
        let ds = Dataset::new(
            DenseMatrix::new(n, 1, xs.clone()),
            targets,
            1,
            Task::MultiRegression,
        );
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, 1);
        let mut cfg = config();
        cfg.max_depth = 5;
        cfg.min_instances = 3;
        cfg.monotone_constraints = vec![1];
        let res = grow_tree(&device, &binned, &grads, &cfg, &[0]);
        assert!(
            res.tree.num_leaves() > 2,
            "constraint should still allow splits"
        );

        let mut last = f32::NEG_INFINITY;
        for &x in &xs {
            let mut out = [0.0f32];
            res.tree.predict_into(&[x], &mut out);
            assert!(
                out[0] >= last - 1e-6,
                "prediction decreased at x={x}: {} < {last}",
                out[0]
            );
            last = out[0];
        }
    }

    #[test]
    fn opposing_constraint_suppresses_splits() {
        use gbdt_data::{Dataset, DenseMatrix, Task};
        // y strictly increasing in x, but we demand non-increasing: no
        // admissible split exists, so the tree must stay (nearly) a stump.
        let n = 300;
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let targets: Vec<f32> = xs.clone();
        let ds = Dataset::new(
            DenseMatrix::new(n, 1, xs),
            targets,
            1,
            Task::MultiRegression,
        );
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, 1);
        let mut cfg = config();
        cfg.monotone_constraints = vec![-1];
        let res = grow_tree(&device, &binned, &grads, &cfg, &[0]);
        assert_eq!(
            res.tree.num_leaves(),
            1,
            "a −1 constraint on increasing data must forbid every split"
        );
    }

    #[test]
    fn unconstrained_features_are_unaffected() {
        let (_, data, grads) = setup(400, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let plain = grow_tree(&device, &data, &grads, &config(), &features);
        let mut cfg = config();
        cfg.monotone_constraints = vec![0; 6];
        let zeroed = grow_tree(&device, &data, &grads, &cfg, &features);
        assert_eq!(
            plain.tree, zeroed.tree,
            "all-zero constraints must be a no-op"
        );
    }

    /// A level's histogram kernels are its method batches and then the
    /// derive that reads them, so the grower keeps them all on the
    /// default stream: streams change neither the model nor a single
    /// charge, start stamp or stream id.
    #[test]
    fn streams_change_neither_the_model_nor_the_level_timeline() {
        let (_, data, grads) = setup(2000, 10, 4);
        let features: Vec<u32> = (0..10).collect();
        let mut serial_cfg = config();
        serial_cfg.max_depth = 6;
        serial_cfg.hist.subtraction = true;
        let mut streamed_cfg = serial_cfg.clone();
        streamed_cfg.streams = 4;

        let d1 = Device::rtx4090();
        let serial = grow_tree(&d1, &data, &grads, &serial_cfg, &features);
        let d2 = Device::rtx4090();
        let streamed = grow_tree(&d2, &data, &grads, &streamed_cfg, &features);

        assert_eq!(serial.tree, streamed.tree);
        assert_eq!(d1.now_ns().to_bits(), d2.now_ns().to_bits());
        let (r1, r2) = (d1.records(), d2.records());
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.ns.to_bits(), b.ns.to_bits(), "{}", a.name);
            assert_eq!(a.start_ns.to_bits(), b.start_ns.to_bits(), "{}", a.name);
            assert_eq!(b.stream, 0, "{} left the default stream", b.name);
        }
        // Each derive starts after the fresh builds it subtracts.
        let derives = r2.iter().filter(|r| r.name == "hist_subtract").count();
        assert!(derives > 0, "subtraction must derive some nodes");
        for (i, r) in r2
            .iter()
            .enumerate()
            .filter(|(_, r)| r.name == "hist_subtract")
        {
            let build = &r2[i - 1];
            assert!(
                build.name.starts_with("hist_"),
                "{} precedes a derive",
                build.name
            );
            assert!(r.start_ns >= build.start_ns + build.ns);
        }
    }

    /// A level books one `Phase::Histogram` record per method it used:
    /// the merged launch-free costs of the method's nodes, its launch
    /// count once and a 4-byte node-slot read per row, priced by
    /// `kernel_ns`.
    #[test]
    fn a_level_books_one_histogram_kernel_per_method() {
        let (_, data, grads) = setup(3000, 8, 4);
        let features: Vec<u32> = (0..8).collect();
        let device = Device::rtx4090();
        let mut cfg = config();
        cfg.max_bins = 256;
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: cfg.max_bins,
            opts: cfg.hist,
        };
        // A large node and many small ones: the selector picks smem for
        // the first and gmem for the rest.
        let nodes: Vec<Vec<u32>> = std::iter::once((0..2500).collect())
            .chain((0..10).map(|j| (2500 + 50 * j..2550 + 50 * j).collect()))
            .collect();
        let mut charges = HistCharges::default();
        let mut want: BTreeMap<HistogramMethod, (KernelCost, f64, usize)> = BTreeMap::new();
        for idx in &nodes {
            let m = charges.build(&ctx, idx);
            let method = resolve_method(&ctx, idx.len(), cfg.hist.method, Launches::PerLevel);
            assert_eq!(method, m);
            let cost = method_cost(&ctx, idx, method);
            let e = want.entry(m).or_insert((KernelCost::default(), 0.0, 0));
            e.0 = e.0.merged(&KernelCost {
                launches: 0.0,
                ..cost
            });
            e.1 = cost.launches;
            e.2 += idx.len();
        }
        assert_eq!(want.len(), 2, "the level must use two methods");
        let mut launches = BTreeMap::new();
        charges.flush(&ctx, 3, &mut launches);

        let records = device.records();
        assert!(records.iter().all(|r| r.phase == Phase::Histogram));
        assert_eq!(records.len(), want.len(), "one record per method used");
        for (r, (method, (work, method_launches, rows))) in records.iter().zip(&want) {
            let cost = work.merged(&KernelCost {
                dram_bytes: 4.0 * *rows as f64,
                launches: *method_launches,
                ..Default::default()
            });
            assert_eq!(
                r.ns.to_bits(),
                device.model().kernel_ns(&cost).to_bits(),
                "{method:?}"
            );
            assert_eq!(launches[&(3, *method)].launches, *method_launches);
        }
        let nodes_seen: usize = launches.values().map(|l| l.nodes).sum();
        assert_eq!(nodes_seen, nodes.len());
    }

    #[test]
    fn parallel_toggle_changes_neither_model_nor_simulated_time() {
        let (_, data, grads) = setup(2000, 10, 4);
        let features: Vec<u32> = (0..10).collect();
        for subtraction in [false, true] {
            let mut on_cfg = config();
            on_cfg.max_depth = 6;
            on_cfg.hist.subtraction = subtraction;
            on_cfg.parallel_level_hist = true;
            let mut off_cfg = on_cfg.clone();
            off_cfg.parallel_level_hist = false;

            let d_on = Device::rtx4090();
            let on = grow_tree(&d_on, &data, &grads, &on_cfg, &features);
            let d_off = Device::rtx4090();
            let off = grow_tree(&d_off, &data, &grads, &off_cfg, &features);

            // Bit-identical model and leaf values…
            assert_eq!(on.tree, off.tree, "subtraction={subtraction}");
            for ((ia, va), (ib, vb)) in on.leaf_assignments.iter().zip(&off.leaf_assignments) {
                assert_eq!(ia, ib);
                assert_eq!(va, vb, "leaf values must match bitwise");
            }
            // …and bit-identical simulated timeline: charges are issued
            // serially in node-index order regardless of the toggle.
            assert_eq!(d_on.now_ns(), d_off.now_ns(), "subtraction={subtraction}");
        }
    }

    /// The histogram pass and the split scan run inside `par_chunks_mut`
    /// and `into_par_iter` over features; how those calls split the
    /// features across threads must move neither the tree, the leaf
    /// value bits nor the simulated clock. Leaf values are `f32`, which
    /// can hide a change in the `f64` sums, so the root's histogram and
    /// best split are compared bit for bit too; the gradients span eight
    /// decades, so a sum taken in another order shows there.
    #[test]
    fn trees_do_not_depend_on_the_thread_count() {
        let (_, data, _) = setup(2000, 10, 4);
        let grads = crate::hist::test_support::mixed_gradients(2000, 4);
        let features: Vec<u32> = (0..10).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for subtraction in [false, true] {
            let mut cfg = config();
            cfg.max_depth = 6;
            cfg.hist.subtraction = subtraction;
            let grow_on = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("thread pool");
                pool.install(|| {
                    let device = Device::rtx4090();
                    let ctx = HistContext {
                        device: &device,
                        data: &data,
                        grads: &grads,
                        features: &features,
                        bins: cfg.max_bins,
                        opts: cfg.hist,
                    };
                    let root: Vec<u32> = (0..2000).collect();
                    let (g, h) = grads.sums(&root);
                    let mut hist = NodeHistogram::new(features.len(), 4, cfg.max_bins);
                    accumulate_only(&ctx, &root, &g, &h, &mut hist);
                    let params = SplitParams {
                        lambda: cfg.lambda,
                        min_gain: cfg.min_gain,
                        min_instances: cfg.min_instances,
                        segments_c: cfg.segments_per_block_c,
                    };
                    let mut charges = LevelSplitCharges::new();
                    let split = find_best_split_constrained(
                        &mut charges,
                        &hist,
                        &features,
                        &g,
                        &h,
                        2000,
                        &params,
                        None,
                    )
                    .expect("the root splits");
                    let res = grow_tree(&device, &data, &grads, &cfg, &features);
                    let root_bits = [bits(&hist.g), bits(&hist.h), bits(&split.left_g)];
                    (res, device.now_ns(), root_bits, split.gain.to_bits())
                })
            };
            let (one, one_ns, one_root, one_gain) = grow_on(1);
            assert!(one.tree.num_nodes() > 31, "subtraction={subtraction}");
            for threads in [2, 3] {
                let (res, ns, root, gain) = grow_on(threads);
                let at = format!("subtraction={subtraction} threads={threads}");
                assert!(
                    root == one_root,
                    "{at}: root histogram or split sums differ"
                );
                assert_eq!(gain, one_gain, "{at}: root split gain differs");
                assert_eq!(res.tree, one.tree, "{at}");
                assert_eq!(res.leaf_assignments.len(), one.leaf_assignments.len());
                for ((ia, va), (ib, vb)) in res.leaf_assignments.iter().zip(&one.leaf_assignments) {
                    assert_eq!(ia, ib, "{at}");
                    let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        f32_bits(va),
                        f32_bits(vb),
                        "{at}: leaf values must match bitwise"
                    );
                }
                assert_eq!(ns.to_bits(), one_ns.to_bits(), "{at}");
            }
        }
    }

    #[test]
    fn pooled_growth_stops_allocating_after_first_tree() {
        let (_, data, grads) = setup(500, 8, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let mut cfg = config();
        cfg.hist.subtraction = true;
        let mut pool = HistogramPool::new(features.len(), 3, cfg.max_bins);
        let root: Vec<u32> = (0..500).collect();
        let first = grow_tree_pooled(
            &device,
            &data,
            &grads,
            &cfg,
            &features,
            root.clone(),
            &mut pool,
        );
        let high_water = pool.allocated();
        assert!(high_water > 0);
        let second = grow_tree_pooled(&device, &data, &grads, &cfg, &features, root, &mut pool);
        assert_eq!(
            pool.allocated(),
            high_water,
            "second tree must reuse the first tree's buffers"
        );
        assert_eq!(first.tree, second.tree);
    }

    #[test]
    fn streams_and_subtraction_compose_deterministically() {
        // The deferred subtraction build charges in the child's level;
        // two identical runs must produce identical timelines.
        let (_, data, grads) = setup(1500, 8, 3);
        let features: Vec<u32> = (0..8).collect();
        let mut cfg = config();
        cfg.max_depth = 5;
        cfg.hist.subtraction = true;
        cfg.streams = 4;
        let d1 = Device::rtx4090();
        let r1 = grow_tree(&d1, &data, &grads, &cfg, &features);
        let d2 = Device::rtx4090();
        let r2 = grow_tree(&d2, &data, &grads, &cfg, &features);
        assert_eq!(r1.tree, r2.tree);
        assert_eq!(d1.now_ns(), d2.now_ns());
    }

    #[test]
    fn methods_used_reports_selection() {
        let (_, data, grads) = setup(300, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let mut cfg = config();
        cfg.hist.method = HistogramMethod::GlobalMemory;
        let res = grow_tree(&device, &data, &grads, &cfg, &features);
        let total: usize = res.methods_used.values().sum();
        assert!(total > 0);
        assert!(res
            .methods_used
            .contains_key(&HistogramMethod::GlobalMemory));
    }
}
