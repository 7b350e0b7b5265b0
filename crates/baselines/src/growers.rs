//! Alternative tree-growth policies.
//!
//! The paper's GPU baselines differ chiefly in how they grow trees:
//! XGBoost grows level-wise (that policy lives in `gbdt_core::grow`),
//! LightGBM grows **leaf-wise** (always expand the highest-gain open
//! leaf, bounded by a leaf budget), and CatBoost grows **oblivious**
//! (symmetric) trees where every node of a level shares one split
//! condition. Both policies here are full multi-output growers reusing
//! the core histogram and split machinery, so they also serve as
//! optional growth modes for GBDT-MO itself.

use gbdt_core::config::TrainConfig;
use gbdt_core::grad::Gradients;
use gbdt_core::grow::{partition_stable, GrowResult};
use gbdt_core::hist::{add_rows, build_node_histogram, HistContext, NodeHistogram};
use gbdt_core::split::{
    find_best_split_batched, leaf_values, split_gain, LevelSplitCharges, SplitParams,
};
use gbdt_core::tree::Tree;
use gbdt_data::BinnedDataset;
use gpusim::cost::KernelCost;
use gpusim::{Device, Phase};
use std::collections::BTreeMap;

fn split_params(config: &TrainConfig) -> SplitParams {
    SplitParams {
        lambda: config.lambda,
        min_gain: config.min_gain,
        min_instances: config.min_instances,
        segments_c: config.segments_per_block_c,
    }
}

/// Grow one tree leaf-wise (LightGBM-style): repeatedly expand the
/// open leaf with the highest split gain until `max_leaves` leaves
/// exist or no leaf can split. Depth is still bounded by
/// `config.max_depth`. As in the level-wise grower, only the columns
/// of `features` that can split are built and scanned.
pub fn grow_tree_leafwise(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
    max_leaves: usize,
) -> GrowResult {
    let d = grads.d;
    let features = &data.splittable(features)[..];
    let ctx = HistContext {
        device,
        data,
        grads,
        features,
        bins: config.max_bins,
        opts: config.hist,
    };
    let params = split_params(config);

    struct Open {
        tree_node: usize,
        instances: Vec<u32>,
        g: Vec<f64>,
        h: Vec<f64>,
        depth: usize,
        split: Option<gbdt_core::split::SplitCandidate>,
    }

    let mut tree = Tree::new(d);
    let mut methods_used = BTreeMap::new();
    let mut hist = NodeHistogram::new(features.len(), d, config.max_bins);
    let mut charges = LevelSplitCharges::new();

    let evaluate = |hist: &mut NodeHistogram,
                    charges: &mut LevelSplitCharges,
                    methods: &mut BTreeMap<gbdt_core::HistogramMethod, usize>,
                    tree_node: usize,
                    instances: Vec<u32>,
                    g: Vec<f64>,
                    h: Vec<f64>,
                    depth: usize|
     -> Open {
        let split = if instances.len() >= 2 * config.min_instances && depth < config.max_depth {
            let m = build_node_histogram(&ctx, &instances, &g, &h, hist);
            *methods.entry(m).or_insert(0) += 1;
            let s = find_best_split_batched(
                charges,
                hist,
                features,
                &g,
                &h,
                instances.len() as u32,
                &params,
            );
            // Leaf-wise expansion is inherently sequential: every
            // evaluation is its own kernel group (no level batching).
            charges.flush(device, device.model().params.sm_count, params.segments_c);
            s
        } else {
            None
        };
        Open {
            tree_node,
            instances,
            g,
            h,
            depth,
            split,
        }
    };

    let root_idx: Vec<u32> = (0..grads.n as u32).collect();
    let (rg, rh) = grads.sums(&root_idx);
    let mut open = vec![evaluate(
        &mut hist,
        &mut charges,
        &mut methods_used,
        0,
        root_idx,
        rg,
        rh,
        0,
    )];
    let mut leaves = 1usize;

    while leaves < max_leaves {
        // Highest-gain open leaf (lowest tree_node breaks ties).
        let Some(best_at) = open
            .iter()
            .enumerate()
            .filter(|(_, o)| o.split.is_some())
            .max_by(|(ia, a), (ib, b)| {
                let ga = a.split.as_ref().unwrap().gain;
                let gb = b.split.as_ref().unwrap().gain;
                ga.partial_cmp(&gb).unwrap().then(ib.cmp(ia)) // lower index wins ties
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        let node = open.swap_remove(best_at);
        let split = node.split.expect("filtered for splittable");

        let col = data.bins.col(split.feature as usize);
        let flags: Vec<bool> = node
            .instances
            .iter()
            .map(|&i| col[i as usize] <= split.bin)
            .collect();
        let (left_idx, right_idx) = partition_stable(&node.instances, &flags);
        device.charge_kernel(
            "partition",
            Phase::Partition,
            &KernelCost {
                flops: 3.0 * node.instances.len() as f64,
                dram_bytes: (node.instances.len() * 17) as f64,
                launches: 2.0,
                ..Default::default()
            },
        );

        let threshold = data.cuts.threshold(split.feature as usize, split.bin);
        let (l, r) = tree.split_node(node.tree_node, split.feature, split.bin, threshold);
        let right_g: Vec<f64> = node
            .g
            .iter()
            .zip(&split.left_g)
            .map(|(a, b)| a - b)
            .collect();
        let right_h: Vec<f64> = node
            .h
            .iter()
            .zip(&split.left_h)
            .map(|(a, b)| a - b)
            .collect();

        let lg = split.left_g;
        let lh = split.left_h;
        open.push(evaluate(
            &mut hist,
            &mut charges,
            &mut methods_used,
            l,
            left_idx,
            lg,
            lh,
            node.depth + 1,
        ));
        open.push(evaluate(
            &mut hist,
            &mut charges,
            &mut methods_used,
            r,
            right_idx,
            right_g,
            right_h,
            node.depth + 1,
        ));
        leaves += 1;
    }

    let mut leaf_assignments = Vec::with_capacity(open.len());
    let mut leaf_nodes = Vec::with_capacity(open.len());
    for node in open {
        let v = leaf_values(&node.g, &node.h, config.lambda, config.learning_rate);
        tree.set_leaf(node.tree_node, v.clone());
        leaf_assignments.push((node.instances, v));
        leaf_nodes.push(node.tree_node);
    }

    GrowResult {
        tree,
        leaf_assignments,
        leaf_nodes,
        methods_used,
        hist_launches: BTreeMap::new(),
        features_built: features.len(),
    }
}

/// Grow one oblivious (symmetric) tree, CatBoost-style: at every level,
/// a single `(feature, bin)` condition is chosen to split *all* open
/// nodes, by maximizing the summed gain across them. Only the columns
/// of `features` that can split are built and scanned.
pub fn grow_tree_oblivious(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
) -> GrowResult {
    let d = grads.d;
    let bins = config.max_bins;
    let features = &data.splittable(features)[..];
    let ctx = HistContext {
        device,
        data,
        grads,
        features,
        bins,
        opts: config.hist,
    };
    let params = split_params(config);

    let mut tree = Tree::new(d);
    let mut methods_used = BTreeMap::new();
    let mut hist = NodeHistogram::new(features.len(), d, bins);

    // Frontier: (tree node, instances, g sums, h sums).
    let root_idx: Vec<u32> = (0..grads.n as u32).collect();
    let (rg, rh) = grads.sums(&root_idx);
    let mut frontier = vec![(0usize, root_idx, rg, rh)];

    for _level in 0..config.max_depth {
        // Summed gain per (feature, bin) over all splittable nodes.
        let mut level_gains = vec![0.0f64; features.len() * bins];
        let mut any = false;
        for (_, instances, g, h) in &frontier {
            if instances.len() < 2 * config.min_instances {
                continue;
            }
            any = true;
            let m = build_node_histogram(&ctx, instances, g, h, &mut hist);
            *methods_used.entry(m).or_insert(0) += 1;
            for f_local in 0..features.len() {
                let mut gl = vec![0.0f64; d];
                let mut hl = vec![0.0f64; d];
                let mut left_cnt = 0u32;
                for b in 0..bins - 1 {
                    left_cnt += hist.counts[hist.cnt_index(f_local, b)];
                    add_rows(
                        &mut gl,
                        &mut hl,
                        hist.g_row(f_local, b),
                        hist.h_row(f_local, b),
                    );
                    let right_cnt = instances.len() as u32 - left_cnt;
                    if left_cnt < params.min_child() || right_cnt < params.min_child() {
                        continue;
                    }
                    level_gains[f_local * bins + b] += split_gain(&gl, &hl, g, h, config.lambda);
                }
            }
        }
        if !any {
            break;
        }
        // One level-wide gain reduction kernel.
        device.charge_kernel(
            "oblivious_level_argmax",
            Phase::SplitEval,
            &KernelCost {
                flops: level_gains.len() as f64 * 2.0,
                dram_bytes: level_gains.len() as f64 * 8.0,
                launches: 2.0,
                ..Default::default()
            },
        );
        let (mut best_at, mut best_gain) = (0usize, f64::NEG_INFINITY);
        for (i, &g) in level_gains.iter().enumerate() {
            if g > best_gain {
                best_gain = g;
                best_at = i;
            }
        }
        if best_gain <= params.min_gain {
            break;
        }
        let f_local = best_at / bins;
        let b = (best_at % bins) as u8;
        let feature = features[f_local];
        let threshold = data.cuts.threshold(feature as usize, b);
        let col = data.bins.col(feature as usize);

        // Split every node by the shared condition.
        let mut next = Vec::with_capacity(frontier.len() * 2);
        let mut partition_elems = 0usize;
        for (tree_node, instances, g, h) in frontier {
            let flags: Vec<bool> = instances.iter().map(|&i| col[i as usize] <= b).collect();
            partition_elems += instances.len();
            let (left_idx, right_idx) = partition_stable(&instances, &flags);
            let (l, r) = tree.split_node(tree_node, feature, b, threshold);
            let (lg, lh) = grads.sums(&left_idx);
            let rg: Vec<f64> = g.iter().zip(&lg).map(|(a, x)| a - x).collect();
            let rh: Vec<f64> = h.iter().zip(&lh).map(|(a, x)| a - x).collect();
            next.push((l, left_idx, lg, lh));
            next.push((r, right_idx, rg, rh));
        }
        device.charge_kernel(
            "partition_level",
            Phase::Partition,
            &KernelCost {
                flops: 3.0 * partition_elems as f64,
                dram_bytes: (partition_elems * 17) as f64,
                launches: 2.0,
                ..Default::default()
            },
        );
        frontier = next;
    }

    let mut leaf_assignments = Vec::with_capacity(frontier.len());
    let mut leaf_nodes = Vec::with_capacity(frontier.len());
    for (tree_node, instances, g, h) in frontier {
        let v = leaf_values(&g, &h, config.lambda, config.learning_rate);
        tree.set_leaf(tree_node, v.clone());
        leaf_assignments.push((instances, v));
        leaf_nodes.push(tree_node);
    }

    GrowResult {
        tree,
        leaf_assignments,
        leaf_nodes,
        methods_used,
        hist_launches: BTreeMap::new(),
        features_built: features.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::grad::compute_gradients;
    use gbdt_core::loss::MseLoss;
    use gbdt_data::synth::{make_regression, RegressionSpec};

    fn setup(n: usize, m: usize, d: usize) -> (BinnedDataset, Gradients, gbdt_data::Dataset) {
        let ds = make_regression(&RegressionSpec {
            instances: n,
            features: m,
            outputs: d,
            informative: (m / 2).max(1),
            noise: 0.05,
            seed: 11,
            ..Default::default()
        });
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n * d];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, d);
        (binned, grads, ds)
    }

    fn config() -> TrainConfig {
        TrainConfig {
            max_depth: 6,
            min_instances: 5,
            max_bins: 32,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn leafwise_respects_leaf_budget() {
        let (data, grads, _) = setup(400, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        for budget in [2, 5, 16] {
            let res = grow_tree_leafwise(&device, &data, &grads, &config(), &features, budget);
            assert!(
                res.tree.num_leaves() <= budget,
                "{} leaves > budget {budget}",
                res.tree.num_leaves()
            );
            // Instances still partition exactly.
            let total: usize = res.leaf_assignments.iter().map(|(i, _)| i.len()).sum();
            assert_eq!(total, 400);
        }
    }

    #[test]
    fn leafwise_expands_highest_gain_first() {
        let (data, grads, _) = setup(500, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        // With a budget of 2 (a stump), the single split must equal the
        // level-wise grower's root split.
        let leafwise = grow_tree_leafwise(&device, &data, &grads, &config(), &features, 2);
        let levelwise =
            gbdt_core::grow::grow_tree(&device, &data, &grads, &config().with_depth(1), &features);
        assert_eq!(leafwise.tree.nodes()[0], levelwise.tree.nodes()[0]);
    }

    #[test]
    fn oblivious_tree_is_symmetric() {
        let (data, grads, _) = setup(600, 8, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let mut cfg = config();
        cfg.max_depth = 3;
        let res = grow_tree_oblivious(&device, &data, &grads, &cfg, &features);
        // Every level uses one (feature, bin): collect conditions by
        // BFS depth and check uniformity.
        use gbdt_core::tree::Node;
        let mut level_nodes = vec![vec![0usize]];
        loop {
            let last = level_nodes.last().unwrap();
            let mut nxt = Vec::new();
            for &at in last {
                if let Node::Split { left, right, .. } = &res.tree.nodes()[at] {
                    nxt.push(*left as usize);
                    nxt.push(*right as usize);
                }
            }
            if nxt.is_empty() {
                break;
            }
            level_nodes.push(nxt);
        }
        for level in &level_nodes {
            let conds: Vec<(u32, u8)> = level
                .iter()
                .filter_map(|&at| match &res.tree.nodes()[at] {
                    Node::Split { feature, bin, .. } => Some((*feature, *bin)),
                    Node::Leaf { .. } => None,
                })
                .collect();
            assert!(
                conds.windows(2).all(|w| w[0] == w[1]),
                "level conditions differ: {conds:?}"
            );
        }
    }

    #[test]
    fn both_policies_reduce_training_loss() {
        let (data, grads, ds) = setup(500, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        for res in [
            grow_tree_leafwise(&device, &data, &grads, &config(), &features, 16),
            grow_tree_oblivious(&device, &data, &grads, &config(), &features),
        ] {
            let d = 2;
            let mut scores = vec![0.0f32; 500 * d];
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
            assert!(after < before * 0.9, "loss {after} not below {before}");
        }
    }

    #[test]
    fn oblivious_partitions_all_instances() {
        let (data, grads, _) = setup(300, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let res = grow_tree_oblivious(&device, &data, &grads, &config(), &features);
        let mut seen = vec![false; 300];
        for (instances, _) in &res.leaf_assignments {
            for &i in instances {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }
}
