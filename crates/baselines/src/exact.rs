//! Exact greedy split finding on raw (unbinned) feature values.
//!
//! The paper's §3.1.2 notes that split candidates can come either from
//! "enumerating all feature values" or from histogram cut points. This
//! module implements the enumeration path — the classic pre-sorted
//! exact greedy algorithm of XGBoost — as a correctness oracle: on data
//! whose features have at most `max_bins` distinct values, the
//! histogram pipeline must pick the same splits.

use gbdt_core::config::TrainConfig;
use gbdt_core::grad::Gradients;
use gbdt_core::split::{leaf_values, split_gain};
use gbdt_core::tree::Tree;
use gbdt_data::DenseMatrix;

/// An exact split candidate on raw values.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSplit {
    /// Feature index.
    pub feature: u32,
    /// Float threshold: `value ≤ threshold` goes left (midpoint between
    /// adjacent distinct values).
    pub threshold: f32,
    /// Gain of Eq. (3).
    pub gain: f64,
}

/// Exhaustively find the best split of `instances` by scanning every
/// feature's sorted values. Returns `None` when no candidate clears
/// `min_gain` with both children ≥ `min_instances`.
pub fn exact_best_split(
    features: &DenseMatrix,
    grads: &Gradients,
    instances: &[u32],
    lambda: f64,
    min_gain: f64,
    min_instances: usize,
) -> Option<ExactSplit> {
    let d = grads.d;
    let (node_g, node_h) = grads.sums(instances);
    let mut best: Option<ExactSplit> = None;

    for f in 0..features.cols() {
        // Sort the node's instances by this feature's value (stable on
        // instance index for determinism).
        let mut order: Vec<u32> = instances.to_vec();
        order.sort_by(|&a, &b| {
            features
                .get(a as usize, f)
                .partial_cmp(&features.get(b as usize, f))
                .unwrap()
                .then(a.cmp(&b))
        });

        let mut gl = vec![0.0f64; d];
        let mut hl = vec![0.0f64; d];
        for pos in 0..order.len().saturating_sub(1) {
            let i = order[pos] as usize;
            for k in 0..d {
                gl[k] += grads.g[i * d + k] as f64;
                hl[k] += grads.h[i * d + k] as f64;
            }
            let v = features.get(i, f);
            let v_next = features.get(order[pos + 1] as usize, f);
            if v == v_next {
                continue; // can only split between distinct values
            }
            let left_count = pos + 1;
            let right_count = order.len() - left_count;
            if left_count < min_instances || right_count < min_instances {
                continue;
            }
            let gain = split_gain(&gl, &hl, &node_g, &node_h, lambda);
            let better = match &best {
                None => gain > min_gain,
                Some(b) => gain > b.gain + 1e-12 || (gain > min_gain && gain > b.gain),
            };
            if better {
                best = Some(ExactSplit {
                    feature: f as u32,
                    threshold: (v + v_next) * 0.5,
                    gain,
                });
            }
        }
    }
    best.filter(|b| b.gain > min_gain)
}

/// Grow a full tree with exact greedy splits (recursive, host-only).
/// Used as the oracle in integration tests.
pub fn grow_exact_tree(features: &DenseMatrix, grads: &Gradients, config: &TrainConfig) -> Tree {
    let mut tree = Tree::new(grads.d);
    let all: Vec<u32> = (0..grads.n as u32).collect();
    grow_rec(features, grads, config, &mut tree, 0, all, 0);
    tree
}

fn grow_rec(
    features: &DenseMatrix,
    grads: &Gradients,
    config: &TrainConfig,
    tree: &mut Tree,
    node: usize,
    instances: Vec<u32>,
    depth: usize,
) {
    let (g, h) = grads.sums(&instances);
    let make_leaf = |tree: &mut Tree| {
        tree.set_leaf(
            node,
            leaf_values(&g, &h, config.lambda, config.learning_rate),
        );
    };
    if depth >= config.max_depth || instances.len() < 2 * config.min_instances {
        make_leaf(tree);
        return;
    }
    let Some(split) = exact_best_split(
        features,
        grads,
        &instances,
        config.lambda,
        config.min_gain,
        config.min_instances,
    ) else {
        make_leaf(tree);
        return;
    };
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for &i in &instances {
        if features.get(i as usize, split.feature as usize) <= split.threshold {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    // Bin 0 is a placeholder: exact trees route by float threshold only.
    let (l, r) = tree.split_node(node, split.feature, 0, split.threshold);
    grow_rec(features, grads, config, tree, l, left, depth + 1);
    grow_rec(features, grads, config, tree, r, right, depth + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::grad::compute_gradients;
    use gbdt_core::grow::grow_tree;
    use gbdt_core::loss::MseLoss;
    use gbdt_core::tree::Node;
    use gbdt_data::synth::{make_regression, RegressionSpec};
    use gbdt_data::BinnedDataset;
    use gpusim::Device;

    /// Small data with few distinct values per feature so that 256-bin
    /// histograms are *exact*.
    fn coarse_dataset(n: usize, m: usize, d: usize) -> (DenseMatrix, Gradients) {
        let ds = make_regression(&RegressionSpec {
            instances: n,
            features: m,
            outputs: d,
            informative: m,
            noise: 0.1,
            seed: 33,
            ..Default::default()
        });
        // Quantize feature values to 10 distinct levels.
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            rows.push(
                ds.features()
                    .row(i)
                    .iter()
                    .map(|&v| (v * 2.0).round() / 2.0)
                    .collect::<Vec<f32>>(),
            );
        }
        let features = DenseMatrix::from_rows(&rows);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n * d];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, d);
        (features, grads)
    }

    #[test]
    fn exact_split_maximizes_gain() {
        // One feature separating two gradient groups perfectly.
        let features = DenseMatrix::new(6, 1, vec![1.0, 1.0, 1.0, 5.0, 5.0, 5.0]);
        let grads = Gradients::new(vec![-2.0, -2.0, -2.0, 2.0, 2.0, 2.0], vec![2.0; 6], 6, 1);
        let s = exact_best_split(&features, &grads, &[0, 1, 2, 3, 4, 5], 1.0, 0.0, 1).unwrap();
        assert_eq!(s.feature, 0);
        assert_eq!(s.threshold, 3.0);
        assert!(s.gain > 0.0);
    }

    #[test]
    fn no_split_on_constant_feature() {
        let features = DenseMatrix::new(4, 1, vec![7.0; 4]);
        let grads = Gradients::new(vec![-1.0, 1.0, -1.0, 1.0], vec![2.0; 4], 4, 1);
        assert!(exact_best_split(&features, &grads, &[0, 1, 2, 3], 1.0, 0.0, 1).is_none());
    }

    #[test]
    fn histogram_tree_matches_exact_tree_on_coarse_data() {
        // With exact (per-distinct-value) bins, the histogram grower and
        // the exact grower must choose the same split structure.
        let (features, grads) = coarse_dataset(300, 4, 2);
        let config = TrainConfig {
            max_depth: 3,
            min_instances: 10,
            max_bins: 256,
            ..TrainConfig::default()
        };
        let exact = grow_exact_tree(&features, &grads, &config);

        let binned = BinnedDataset::build(&features, 256);
        let device = Device::rtx4090();
        let feats: Vec<u32> = (0..4).collect();
        let hist_tree = grow_tree(&device, &binned, &grads, &config, &feats).tree;

        assert_eq!(exact.num_nodes(), hist_tree.num_nodes());
        // Same split features/thresholds by recursive traversal (the
        // two growers append nodes in different orders — DFS vs BFS —
        // so index-wise comparison would be meaningless).
        fn compare(a: &Tree, at_a: usize, b: &Tree, at_b: usize) {
            match (&a.nodes()[at_a], &b.nodes()[at_b]) {
                (
                    Node::Split {
                        feature: fa,
                        threshold: ta,
                        left: la,
                        right: ra,
                        ..
                    },
                    Node::Split {
                        feature: fb,
                        threshold: tb,
                        left: lb,
                        right: rb,
                        ..
                    },
                ) => {
                    assert_eq!(fa, fb, "split feature differs");
                    assert!((ta - tb).abs() < 1e-5, "threshold {ta} vs {tb}");
                    compare(a, *la as usize, b, *lb as usize);
                    compare(a, *ra as usize, b, *rb as usize);
                }
                (Node::Leaf { value: va }, Node::Leaf { value: vb }) => {
                    for (x, y) in va.iter().zip(vb) {
                        assert!((x - y).abs() < 1e-4, "leaf {x} vs {y}");
                    }
                }
                (x, y) => panic!("structure mismatch: {x:?} vs {y:?}"),
            }
        }
        compare(&exact, 0, &hist_tree, 0);
    }

    #[test]
    fn min_instances_respected() {
        let (features, grads) = coarse_dataset(50, 3, 1);
        let all: Vec<u32> = (0..50).collect();
        let s = exact_best_split(&features, &grads, &all, 1.0, 0.0, 25);
        if let Some(s) = s {
            let left = all
                .iter()
                .filter(|&&i| features.get(i as usize, s.feature as usize) <= s.threshold)
                .count();
            assert!(left >= 25 && 50 - left >= 25);
        }
    }
}
