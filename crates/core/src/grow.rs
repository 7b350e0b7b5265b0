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
//!    order: device charges are issued, the best split is found via
//!    segmented reductions, and instances are partitioned into the
//!    children.
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
    accumulate_only, charge_method, charge_method_on, resolve_method, HistContext, NodeHistogram,
};
use crate::memory::HistogramPool;
use crate::split::{
    find_best_split_constrained, leaf_values, ConstraintState, LevelSplitCharges, SplitParams,
};
use crate::tree::Tree;
use gbdt_data::BinnedDataset;
use gpusim::cost::KernelCost;
use gpusim::{Device, Event, Phase};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Charging policy for one level's per-node fresh-histogram kernels.
///
/// At `streams = 1` every charge goes to the default stream, which
/// reproduces the serial clock bit for bit. With more streams, each
/// fresh build issues on the currently least-loaded worker stream
/// (`1..=streams`): a level's node histograms are mutually independent,
/// so sibling builds overlap on the simulated timeline up to the
/// device's occupancy-derived concurrency cap. Every worker stream is
/// fenced to the level-start clock of the default stream before its
/// first charge, and [`HistCharges::flush`] joins the default stream to
/// every used worker's completion fence — so split evaluation and the
/// partition kernel (default stream) start only after the last build.
///
/// Charges still *issue* in node-index order regardless of stream
/// count: the ledger's record list, the fault injector's charge-index
/// semantics, and the profiler's aggregates are identical to the serial
/// schedule. Only start timestamps and the makespan move.
struct HistCharges {
    streams: usize,
    /// Default-stream clock at level start (before this level's derive
    /// subtractions), which is what fresh builds actually depend on.
    fence: Event,
    /// Worker streams fenced (and charged) since construction.
    used: Vec<bool>,
}

impl HistCharges {
    fn new(device: &Device, streams: usize) -> Self {
        let streams = streams.max(1);
        HistCharges {
            streams,
            fence: device.record_event(0),
            used: vec![false; streams + 1],
        }
    }

    fn charge(&mut self, ctx: &HistContext<'_>, idx: &[u32], method: HistogramMethod) {
        if self.streams == 1 {
            charge_method(ctx, idx, method);
            return;
        }
        // Least-loaded worker stream first (greedy LPT, deterministic:
        // stream clocks are simulated and ties go to the lowest id).
        let mut best = 1;
        let mut best_now = f64::INFINITY;
        for s in 1..=self.streams {
            let now = ctx.device.stream_now(s);
            if now < best_now {
                best_now = now;
                best = s;
            }
        }
        if !self.used[best] {
            ctx.device.wait_event(best, self.fence);
            self.used[best] = true;
        }
        charge_method_on(ctx, idx, method, best);
    }

    /// End of level: the default stream waits for every used worker.
    fn flush(&mut self, device: &Device) {
        for (s, used) in self.used.iter_mut().enumerate() {
            if *used {
                let done = device.record_event(s);
                device.wait_event(0, done);
                *used = false;
            }
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

    for depth in 0..config.max_depth {
        // Per-level profiling scope nested under the trainer's round
        // scope (no-op when profiling is off; purely observational).
        let _level_scope = device.prof_scope("level", Some(depth as u64));
        let mut next = Vec::new();
        let mut next_parents: Vec<NodeHistogram> = Vec::new();
        // Split evaluation and partitioning are charged once per level
        // as batched kernels (paper §3.1.3) — per-node launches would
        // dominate at depth.
        let mut split_charges = LevelSplitCharges::new();
        let mut hist_charges = HistCharges::new(device, config.streams);
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
            // (one streaming pass, charged per node); afterwards the
            // parent buffers return to the pool.
            for (i, work) in frontier.iter().enumerate() {
                let HistSource::Derive { parent, sibling } = work.source else {
                    continue;
                };
                let mut out = pool.acquire();
                let sib = hists[sibling]
                    .as_ref()
                    .expect("smaller sibling builds fresh in the same level");
                out.assign_difference(&parents[parent], sib);
                device.charge_kernel(
                    "hist_subtract",
                    Phase::Histogram,
                    &KernelCost::streaming(out.g.len() as f64 * 2.0, (out.g.len() * 3 * 8) as f64),
                );
                crate::sanitize::trace_subtract(device, out.g.len());
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

            // Device charge for the fresh build, issued strictly in
            // node-index order so the stream-scheduling (LPT) outcome
            // is independent of how stage 1 was parallelized.
            if matches!(source, HistSource::Build) {
                let m = resolve_method(&ctx, instances.len());
                hist_charges.charge(&ctx, &instances, m);
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
            if config.hist.subtraction && depth + 1 < config.max_depth {
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
        hist_charges.flush(device);
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

    #[test]
    fn streams_shorten_levels_without_changing_the_model() {
        let (_, data, grads) = setup(2000, 10, 4);
        let features: Vec<u32> = (0..10).collect();
        let mut serial_cfg = config();
        serial_cfg.max_depth = 6;
        let mut streamed_cfg = serial_cfg.clone();
        streamed_cfg.streams = 4;

        let d1 = Device::rtx4090();
        let serial = grow_tree(&d1, &data, &grads, &serial_cfg, &features);
        let d2 = Device::rtx4090();
        let streamed = grow_tree(&d2, &data, &grads, &streamed_cfg, &features);

        // Identical model: streams are a scheduling change only.
        assert_eq!(serial.tree, streamed.tree);
        // Deep levels have many independent node kernels → overlap wins.
        assert!(
            d2.now_ns() < d1.now_ns(),
            "4 streams ({}) should beat serial ({})",
            d2.now_ns(),
            d1.now_ns()
        );
        // Never better than perfect 4× overlap of the histogram phase.
        let hist_serial = d1.summary().by_phase[&Phase::Histogram];
        let hist_streamed = d2.summary().by_phase[&Phase::Histogram];
        assert!(hist_streamed * 4.2 > hist_serial, "superlinear overlap");
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
