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
use gbdt_core::grow::{partition_cost, partition_stable, GrowResult, OpenNode};
use gbdt_core::hist::{add_rows, build_node_histogram, HistContext, NodeHistogram};
use gbdt_core::split::{
    find_best_split_constrained, split_gain, LevelSplitCharges, SplitCandidate, SplitParams,
};
use gbdt_data::BinnedDataset;
use gpusim::cost::KernelCost;
use gpusim::{Device, Phase};

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
    let params = SplitParams::from(config);

    struct Open {
        node: OpenNode,
        depth: usize,
        split: Option<SplitCandidate>,
    }

    let mut grown = GrowResult::new(d, features.len());
    let mut hist = NodeHistogram::new(features.len(), d, config.max_bins);
    let mut charges = LevelSplitCharges::new();

    let mut evaluate = |grown: &mut GrowResult, node: OpenNode, depth: usize| -> Open {
        let split = if node.instances.len() >= 2 * config.min_instances && depth < config.max_depth
        {
            let m = build_node_histogram(&ctx, &node.instances, &node.g, &node.h, &mut hist);
            *grown.methods_used.entry(m).or_insert(0) += 1;
            let s = find_best_split_constrained(
                &mut charges,
                &hist,
                features,
                0..features.len(),
                &node.g,
                &node.h,
                node.instances.len() as u32,
                &params,
                None,
            );
            // Leaf-wise expansion is inherently sequential: every
            // evaluation is its own kernel group (no level batching).
            charges.flush(device, device.model().params.sm_count, params.segments_c);
            s
        } else {
            None
        };
        Open { node, depth, split }
    };

    let root = OpenNode::root(grads, (0..grads.n as u32).collect());
    let mut open = vec![evaluate(&mut grown, root, 0)];
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
        let Open { node, depth, split } = open.swap_remove(best_at);
        let split = split.expect("filtered for splittable");
        let ([left, right], _) = node.split(split, data, &mut grown.tree);
        device.charge_kernel(
            "partition",
            Phase::Partition,
            &partition_cost(node.instances.len()),
        );
        open.push(evaluate(&mut grown, left, depth + 1));
        open.push(evaluate(&mut grown, right, depth + 1));
        leaves += 1;
    }

    for o in open {
        o.node.close_leaf(&mut grown, config, None, device);
    }
    grown
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
    let params = SplitParams::from(config);

    let mut grown = GrowResult::new(d, features.len());
    let mut hist = NodeHistogram::new(features.len(), d, bins);
    let mut frontier = vec![OpenNode::root(grads, (0..grads.n as u32).collect())];

    for _level in 0..config.max_depth {
        // Summed gain per (feature, bin) over all splittable nodes.
        let mut level_gains = vec![0.0f64; features.len() * bins];
        let mut any = false;
        for OpenNode {
            instances, g, h, ..
        } in &frontier
        {
            if instances.len() < 2 * config.min_instances {
                continue;
            }
            any = true;
            let m = build_node_histogram(&ctx, instances, g, h, &mut hist);
            *grown.methods_used.entry(m).or_insert(0) += 1;
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
        for OpenNode {
            node,
            instances,
            g,
            h,
        } in frontier
        {
            let flags: Vec<bool> = instances.iter().map(|&i| col[i as usize] <= b).collect();
            partition_elems += instances.len();
            let (left_idx, right_idx) = partition_stable(&instances, &flags);
            let (l, r) = grown.tree.split_node(node, feature, b, threshold);
            let (lg, lh) = grads.sums(&left_idx);
            let rg: Vec<f64> = g.iter().zip(&lg).map(|(a, x)| a - x).collect();
            let rh: Vec<f64> = h.iter().zip(&lh).map(|(a, x)| a - x).collect();
            next.push(OpenNode {
                node: l,
                instances: left_idx,
                g: lg,
                h: lh,
            });
            next.push(OpenNode {
                node: r,
                instances: right_idx,
                g: rg,
                h: rh,
            });
        }
        device.charge_kernel(
            "partition_level",
            Phase::Partition,
            &partition_cost(partition_elems),
        );
        frontier = next;
    }

    for open in frontier {
        open.close_leaf(&mut grown, config, None, device);
    }
    grown
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
