//! Level-wise tree growth (paper Algorithm 1): the one level loop of
//! every placement.
//!
//! The frontier of open nodes is processed one depth level at a time,
//! strictly in node-index order: each node's histogram is produced, the
//! best split is found via segmented reductions, and instances are
//! partitioned into the children. At the level's end the histogram,
//! split and partition kernels are charged once per level and device
//! (`hist::HistCharges`, `split::LevelSplitCharges`).
//!
//! [`grow_tree_pooled`] grows on one device; a device group
//! ([`crate::multigpu`]) grows on the same loop, [`grow_levels`], which
//! reads what each device charges from a `multigpu::Spread`.
//!
//! A node's histogram is built when the loop reaches it, over a pooled
//! buffer still hot in cache; the build's accumulation spreads over the
//! host threads on its own. Under the subtraction trick the loop walks
//! each sibling pair as one step: the smaller child builds fresh and the
//! larger derives `parent − smaller` from the parent's buffer, which the
//! larger child carries, before either node's split is selected. A
//! level's fresh builds are known, and planned, when it opens.
//!
//! Every charge is planned in node-index order, so the grown tree and
//! the simulated timeline are bit-identical at any host thread count.
//! Histogram buffers come from a [`HistogramPool`] reused across levels
//! and trees; a parent's buffer returns to it as soon as its pair has
//! derived.
//!
//! The node steps the baselines share live here too: [`OpenNode::split`]
//! routes a split, [`OpenNode::close_leaf`] closes a leaf, and
//! [`partition_cost`] prices the partition kernel.

use crate::config::{HistogramMethod, TrainConfig};
use crate::grad::Gradients;
use crate::hist::{accumulate_only, HistContext, NodeHistogram};
use crate::memory::HistogramPool;
use crate::multigpu::{NodePath, PathTally, Spread};
use crate::split::{leaf_values, ConstraintState, SplitCandidate, SplitParams};
use crate::tree::Tree;
use gbdt_data::BinnedDataset;
use gpusim::cost::KernelCost;
use gpusim::Device;
use std::collections::BTreeMap;

/// Stable in-order partition of `idx` by `flags` (`true` → left). The
/// functional core of the scan-based partition kernel.
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

/// The scan-based partition kernel over `rows` instances: a flag scan
/// and a scatter (flag read + index read + scan traffic + scatter).
pub fn partition_cost(rows: usize) -> KernelCost {
    KernelCost {
        flops: 3.0 * rows as f64,
        dram_bytes: (rows * 17) as f64,
        launches: 2.0,
        ..Default::default()
    }
}

/// A tree node open for growth.
pub struct OpenNode {
    /// Index of this node in the tree.
    pub node: usize,
    /// Instances resident in the node.
    pub instances: Vec<u32>,
    /// Per-output gradient totals.
    pub g: Vec<f64>,
    /// Per-output Hessian totals.
    pub h: Vec<f64>,
}

impl OpenNode {
    /// The root of a tree over `instances`.
    pub fn root(grads: &Gradients, instances: Vec<u32>) -> Self {
        let (g, h) = grads.sums(&instances);
        OpenNode {
            node: 0,
            instances,
            g,
            h,
        }
    }

    /// Route the node's instances by `split` (Algorithm 1 lines 16–17)
    /// and split its tree node at the cut's threshold. Each instance is
    /// flagged by its bin (`true` → left) and the instances are
    /// partitioned stably; the right child's sums are the node's minus
    /// the left's. Returns `[left, right]` and the flags, which the
    /// caller traces on the device that computed them; the caller also
    /// charges the partition kernel.
    pub fn split(
        &self,
        split: SplitCandidate,
        data: &BinnedDataset,
        tree: &mut Tree,
    ) -> ([OpenNode; 2], Vec<bool>) {
        let col = data.bins.col(split.feature as usize);
        let flags: Vec<bool> = self
            .instances
            .iter()
            .map(|&i| col[i as usize] <= split.bin)
            .collect();
        let (left, right) = partition_stable(&self.instances, &flags);
        debug_assert_eq!(left.len(), split.left_count as usize);
        debug_assert_eq!(right.len(), split.right_count as usize);
        let threshold = data.cuts.threshold(split.feature as usize, split.bin);
        let (l, r) = tree.split_node(self.node, split.feature, split.bin, threshold);
        let minus = |total: &[f64], part: &[f64]| -> Vec<f64> {
            total.iter().zip(part).map(|(a, b)| a - b).collect()
        };
        let (right_g, right_h) = (minus(&self.g, &split.left_g), minus(&self.h, &split.left_h));
        let children = [
            OpenNode {
                node: l,
                instances: left,
                g: split.left_g,
                h: split.left_h,
            },
            OpenNode {
                node: r,
                instances: right,
                g: right_g,
                h: right_h,
            },
        ];
        (children, flags)
    }

    /// Close the node as a leaf holding the regularized optimum of its
    /// sums, clamped into monotone `bounds` when given, and record it in
    /// `grown`. The leaf-value kernel is traced on `trace_on`.
    pub fn close_leaf(
        self,
        grown: &mut GrowResult,
        config: &TrainConfig,
        bounds: Option<&[(f64, f64)]>,
        trace_on: &Device,
    ) {
        let mut v = leaf_values(&self.g, &self.h, config.lambda, config.learning_rate);
        if let Some(b) = bounds {
            clamp_leaf(&mut v, b, config.learning_rate);
        }
        crate::sanitize::trace_leaf_values(trace_on, v.len());
        grown.tree.set_leaf(self.node, v.clone());
        grown.leaf_assignments.push((self.instances, v));
        grown.leaf_nodes.push(self.node);
    }
}

/// One open node of the level grower.
struct NodeWork {
    open: OpenNode,
    /// The parent's histogram, carried by the larger child of a
    /// subtraction pair: that child derives `parent − smaller sibling`.
    parent: Option<NodeHistogram>,
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
    /// Histogram kernels per (depth, method) of the level grower, which
    /// charges a level's builds on each device as one kernel per method
    /// (`hist::HistCharges`); empty where each build is a kernel of its own.
    pub hist_launches: BTreeMap<(usize, HistogramMethod), HistLaunches>,
    /// Built nodes and collective bytes per (depth, path) of a
    /// data-parallel group; empty everywhere else.
    pub node_paths: BTreeMap<(usize, NodePath), PathTally>,
    /// Feature columns histograms were built and scanned over: the
    /// grower's features that can split ([`BinnedDataset::splittable`]).
    pub features_built: usize,
}

impl GrowResult {
    /// A tree of `d` outputs with no leaf closed yet, grown over
    /// `features_built` columns.
    pub fn new(d: usize, features_built: usize) -> Self {
        GrowResult {
            tree: Tree::new(d),
            leaf_assignments: Vec::new(),
            leaf_nodes: Vec::new(),
            methods_used: BTreeMap::new(),
            hist_launches: BTreeMap::new(),
            node_paths: BTreeMap::new(),
            features_built,
        }
    }
}

/// The histogram kernels of one (depth, method): how many were charged,
/// the fresh node builds they cover and the launches they pay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistLaunches {
    /// Batched kernels charged (one per level and tree).
    pub kernels: usize,
    /// Fresh node builds.
    pub nodes: usize,
    /// Those of the builds that took the uniform-Hessian path, carrying
    /// one count column instead of `d` Hessian columns.
    pub one_column: usize,
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
    let spread = Spread::one(device);
    grow_levels(&spread, data, grads, config, features, root_idx, pool)
}

/// The level loop of every placement, each device charging its share
/// as `spread` divides the work.
pub(crate) fn grow_levels(
    spread: &Spread<'_>,
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
    let lead = spread.devices[0];
    // The lead's context over every splittable column: the functional
    // accumulation, which runs once whatever the placement.
    let ctx = HistContext {
        device: lead,
        data,
        grads,
        features,
        bins: config.max_bins,
        opts: config.hist,
    };
    let ranges = spread.ranges(data.m(), features);
    let params = SplitParams::from(config);
    let mut grown = GrowResult::new(d, features.len());

    let constrained = !config.monotone_constraints.is_empty();
    if constrained {
        assert_eq!(
            config.monotone_constraints.len(),
            data.m(),
            "monotone_constraints must have one entry per feature"
        );
    }
    let mut frontier = vec![NodeWork {
        open: OpenNode::root(grads, root_idx),
        parent: None,
        bounds: constrained.then(|| vec![(f64::NEG_INFINITY, f64::INFINITY); d]),
    }];
    // A fresh build, accumulated into a pooled buffer.
    let build = |node: &OpenNode, pool: &mut HistogramPool| {
        let mut buf = pool.acquire();
        accumulate_only(&ctx, &node.instances, &node.g, &node.h, &mut buf);
        buf
    };
    // Nodes too small to split get no histogram.
    let splittable = |w: &NodeWork| w.open.instances.len() >= 2 * config.min_instances;
    let mut fence = None;

    for depth in 0..max_depth {
        // Per-level profiling scopes nested under the trainer's round
        // scope (no-op when profiling is off; purely observational).
        let _level_scopes: Vec<_> = spread
            .devices
            .iter()
            .map(|dev| dev.prof_scope("level", Some(depth as u64)))
            .collect();
        // Every splittable node builds fresh but the larger child of a
        // subtraction pair, which derives. The level's histogram, split
        // and partition kernels are charged once per device (paper
        // §3.1.3) — per-node launches would dominate at depth.
        let fresh: Vec<&[u32]> = frontier
            .iter()
            .filter(|w| w.parent.is_none() && splittable(w))
            .map(|w| &w.open.instances[..])
            .collect();
        let mut level = spread.open_level(fence, &ctx, &ranges, &fresh, depth, &mut grown);
        let mut next = Vec::new();

        // Children come in sibling pairs below the root. A subtraction
        // pair resolves before its nodes' split steps: the smaller child
        // builds fresh, the larger derives `parent − smaller`, and the
        // parent's buffer goes back to the pool. Every other node builds
        // when the loop reaches it.
        let mut nodes = std::mem::take(&mut frontier).into_iter();
        while let Some(first) = nodes.next() {
            let mut pair: Vec<NodeWork> = std::iter::once(first).chain(nodes.next()).collect();
            let mut hists: [Option<NodeHistogram>; 2] = [None, None];
            if let Some(larger) = pair.iter().position(|w| w.parent.is_some()) {
                let smaller = 1 - larger;
                let parent = pair[larger].parent.take().expect("carried parent");
                let fresh = build(&pair[smaller].open, pool);
                let mut derived = pool.acquire();
                derived.assign_difference(&parent, &fresh);
                pool.release(parent);
                level.derive();
                hists[smaller] = Some(fresh);
                hists[larger] = Some(derived);
            }
            for (work, hist) in pair.into_iter().zip(hists) {
                let hist = match hist {
                    Some(hist) => hist,
                    None if splittable(&work) => build(&work.open, pool),
                    None => {
                        work.open
                            .close_leaf(&mut grown, config, work.bounds.as_deref(), lead);
                        continue;
                    }
                };
                let NodeWork { open, bounds, .. } = work;

                let state = bounds.as_ref().map(|b| ConstraintState {
                    monotone: &config.monotone_constraints,
                    bounds: b,
                });
                let Some(split) = level.best_split(&hist, &open, &params, state.as_ref()) else {
                    pool.release(hist);
                    open.close_leaf(&mut grown, config, bounds.as_deref(), lead);
                    continue;
                };
                if let Some(tel) = lead.telemetry() {
                    // Observer only: the split decision above is final.
                    tel.hist_observe("train.split_gain", split.gain);
                }

                let feature = split.feature;
                let ([left, right], flags) = open.split(split, data, &mut grown.tree);
                level.route(feature, flags);
                // Monotone bound propagation: a constrained split fixes the
                // midpoint of the two (clamped) child values as the new
                // boundary between the children's admissible intervals.
                let (left_bounds, right_bounds) = if let Some(parent_bounds) = &bounds {
                    let c = config.monotone_constraints[feature as usize];
                    let mut lb = parent_bounds.clone();
                    let mut rb = parent_bounds.clone();
                    if c != 0 {
                        for k in 0..d {
                            let (lo, hi) = parent_bounds[k];
                            let value =
                                |n: &OpenNode| (-(n.g[k] / (n.h[k] + config.lambda))).clamp(lo, hi);
                            let mid = 0.5 * (value(&left) + value(&right));
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

                // Histogram subtraction: next level the smaller child builds
                // fresh and the larger derives `parent − smaller`, so the
                // larger carries this node's buffer (the right on a tie).
                let smaller_is_left = left.instances.len() <= right.instances.len();
                let smaller = left.instances.len().min(right.instances.len());
                let parent = if config.hist.subtraction
                    && depth + 1 < max_depth
                    && smaller >= 2 * config.min_instances
                {
                    Some(hist)
                } else {
                    pool.release(hist);
                    None
                };
                let (left_parent, right_parent) = if smaller_is_left {
                    (None, parent)
                } else {
                    (parent, None)
                };
                next.push(NodeWork {
                    open: left,
                    parent: left_parent,
                    bounds: left_bounds,
                });
                next.push(NodeWork {
                    open: right,
                    parent: right_parent,
                    bounds: right_bounds,
                });
            }
        }
        fence = level.close(depth, &mut grown, &params);
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }

    // Depth limit reached: everything still open becomes a leaf. No
    // node of the last level carries a parent buffer.
    for work in frontier {
        debug_assert!(work.parent.is_none());
        work.open
            .close_leaf(&mut grown, config, work.bounds.as_deref(), lead);
    }
    grown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::compute_gradients;
    use crate::hist::{method_cost, resolve_method, HistCharges, Launches};
    use crate::loss::MseLoss;
    use crate::split::{find_best_split_constrained, LevelSplitCharges};
    use gbdt_data::synth::{make_regression, RegressionSpec};
    use gbdt_data::Dataset;
    use gpusim::Phase;

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

    /// A derive subtracts the sibling from the parent over every
    /// (feature, bin): each `f64` value (`d` gradients, plus `d`
    /// Hessians off the uniform-Hessian path) reads two operands and
    /// writes one, 24 bytes, and each `u32` count 12 bytes.
    #[test]
    fn a_derive_is_priced_per_f64_value_and_u32_count() {
        let (_, data, uniform) = setup(2000, 6, 3);
        let general = Gradients::general(uniform.g.clone(), uniform.h.clone(), 2000, 3);
        let features: Vec<u32> = (0..6).collect();
        let slots = (data.splittable(&features).len() * 32) as f64;
        let mut cfg = config();
        // The root's children form the one pair, so one level derives.
        cfg.max_depth = 2;
        cfg.hist.subtraction = true;
        for (grads, values) in [(&uniform, slots * 3.0), (&general, slots * 6.0)] {
            let device = Device::rtx4090();
            grow_tree(&device, &data, grads, &cfg, &features);
            let derives: Vec<_> = device
                .records()
                .into_iter()
                .filter(|r| r.name == "hist_subtract")
                .collect();
            assert_eq!(derives.len(), 1);
            let want = KernelCost::streaming(values + slots, values * 24.0 + slots * 12.0);
            assert_eq!(
                derives[0].ns.to_bits(),
                device.model().kernel_ns(&want).to_bits()
            );
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
        let mut want: BTreeMap<HistogramMethod, (KernelCost, f64, usize, usize)> = BTreeMap::new();
        for idx in &nodes {
            charges.plan(&ctx, idx);
            let method = resolve_method(&ctx, idx.len(), cfg.hist.method, Launches::PerLevel);
            let cost = method_cost(&ctx, idx, method);
            let e = want
                .entry(method)
                .or_insert((KernelCost::default(), 0.0, 0, 0));
            e.0 = e.0.merged(&KernelCost {
                launches: 0.0,
                ..cost
            });
            e.1 = cost.launches;
            e.2 += idx.len();
            e.3 += 1;
        }
        assert_eq!(want.len(), 2, "the level must use two methods");
        let mut grown = GrowResult::new(4, features.len());
        charges.flush(&ctx, 0, 3, &mut grown);
        let launches = grown.hist_launches;

        let records = device.records();
        assert!(records.iter().all(|r| r.phase == Phase::Histogram));
        assert_eq!(records.len(), want.len(), "one record per method used");
        for (r, (method, (work, method_launches, rows, built))) in records.iter().zip(&want) {
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
            assert_eq!(grown.methods_used[method], *built, "{method:?}");
        }
        let nodes_seen: usize = launches.values().map(|l| l.nodes).sum();
        assert_eq!(nodes_seen, nodes.len());
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
                    let params = SplitParams::from(&cfg);
                    let mut charges = LevelSplitCharges::new();
                    let split = find_best_split_constrained(
                        &mut charges,
                        &hist,
                        &features,
                        0..features.len(),
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

    /// Under subtraction a sibling pair resolves when the loop reaches
    /// it, whichever child is smaller, and the parent's buffer returns to
    /// the pool as soon as the larger child has derived from it. The pool
    /// therefore holds the parents carried across a level boundary plus
    /// the pair being resolved, never a whole level of builds and
    /// derives. Dyadic gradients make every histogram sum
    /// exact, so derived and rebuilt histograms agree bit for bit, and
    /// so do the trees.
    #[test]
    fn subtraction_pairs_resolve_at_their_first_node_and_free_parents_early() {
        use crate::tree::Node;
        let (n, m, d) = (3000, 10, 4);
        let (_, data, _) = setup(n, m, d);
        let mut state = 7u64;
        let mut dyadic = |lo: i64, span: i64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as i64 % span + lo) as f32 / 256.0
        };
        let g: Vec<f32> = (0..n * d).map(|_| dyadic(-1024, 2048)).collect();
        let h: Vec<f32> = (0..n * d).map(|_| dyadic(1, 1024)).collect();
        let grads = Gradients::new(g, h, n, d);
        let features: Vec<u32> = (0..m as u32).collect();
        let mut cfg = config();
        cfg.max_depth = 7;
        let fit = |subtraction: bool| {
            let mut cfg = cfg.clone();
            cfg.hist.subtraction = subtraction;
            let one_thread = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("thread pool");
            one_thread.install(|| {
                let device = Device::rtx4090();
                let mut pool = HistogramPool::new(m, d, cfg.max_bins);
                let root = (0..n as u32).collect();
                let res =
                    grow_tree_pooled(&device, &data, &grads, &cfg, &features, root, &mut pool);
                (res, pool.allocated())
            })
        };
        let (plain, _) = fit(false);
        let (sub, high_water) = fit(true);
        assert_eq!(sub.tree, plain.tree, "subtraction changed the tree");

        // Rows and depth of every node; children follow their parent.
        let nodes = sub.tree.nodes();
        let mut rows = vec![0usize; nodes.len()];
        for ((idx, _), &at) in sub.leaf_assignments.iter().zip(&sub.leaf_nodes) {
            rows[at] = idx.len();
        }
        let children = |at: usize| match &nodes[at] {
            Node::Split { left, right, .. } => Some((*left as usize, *right as usize)),
            Node::Leaf { .. } => None,
        };
        for at in (0..nodes.len()).rev() {
            if let Some((l, r)) = children(at) {
                rows[at] = rows[l] + rows[r];
            }
        }
        let mut depth = vec![0usize; nodes.len()];
        for at in 0..nodes.len() {
            if let Some((l, r)) = children(at) {
                (depth[l], depth[r]) = (depth[at] + 1, depth[at] + 1);
            }
        }
        // Pairs whose level ran and whose smaller child could split
        // derive the larger child; count them by side and by level.
        let mut derived_at = vec![0usize; cfg.max_depth];
        let (mut smaller_left, mut smaller_right) = (0, 0);
        for at in 0..nodes.len() {
            let Some((l, r)) = children(at) else { continue };
            if depth[l] >= cfg.max_depth || rows[l].min(rows[r]) < 2 * cfg.min_instances {
                continue;
            }
            derived_at[depth[l]] += 1;
            smaller_left += usize::from(rows[l] < rows[r]);
            smaller_right += usize::from(rows[r] < rows[l]);
        }
        assert!(
            smaller_left > 0,
            "no pair with the smaller child on the left"
        );
        assert!(
            smaller_right > 0,
            "no pair with the smaller child on the right"
        );

        // At most every parent carried into a level and every parent
        // carried out of it, plus the pair in flight: its fresh build
        // and its derive.
        let carried = derived_at
            .windows(2)
            .map(|w| w[0] + w[1])
            .max()
            .unwrap_or(0);
        assert!(
            high_water <= carried + 2,
            "pool high-water {high_water} exceeds {carried} carried parents + 2"
        );
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
