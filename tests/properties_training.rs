//! Property-based tests over the training pipeline's invariants:
//! histogram conservation, gain non-negativity, leaf partitioning,
//! prediction-mode equivalence.
#![allow(clippy::needless_range_loop)] // index math mirrors the formulas

use gbdt_mo::core::grad::{compute_gradients, Gradients};
use gbdt_mo::core::hist::{accumulate_dense, HistContext, NodeHistogram};
use gbdt_mo::core::loss::MseLoss;
use gbdt_mo::core::predict::{predict_raw, PredictMode};
use gbdt_mo::core::split::{find_best_split, SplitParams};
use gbdt_mo::core::{grow, HistOptions, TrainConfig};
use gbdt_mo::prelude::*;
use proptest::prelude::*;

/// Random small training problem: features, targets, an instance subset.
#[derive(Debug, Clone)]
struct Problem {
    n: usize,
    m: usize,
    d: usize,
    features: Vec<f32>,
    targets: Vec<f32>,
    subset: Vec<u32>,
}

fn problem() -> impl Strategy<Value = Problem> {
    (4usize..60, 1usize..5, 1usize..4).prop_flat_map(|(n, m, d)| {
        (
            proptest::collection::vec(-10.0f32..10.0, n * m),
            proptest::collection::vec(-5.0f32..5.0, n * d),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(features, targets, mask)| {
                let mut subset: Vec<u32> = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i as u32)
                    .collect();
                if subset.is_empty() {
                    subset.push(0);
                }
                Problem {
                    n,
                    m,
                    d,
                    features,
                    targets,
                    subset,
                }
            })
    })
}

fn setup(p: &Problem) -> (BinnedDataset, Gradients) {
    let features = gbdt_mo::data::DenseMatrix::new(p.n, p.m, p.features.clone());
    let binned = BinnedDataset::build(&features, 16);
    let device = Device::rtx4090();
    let scores = vec![0.0f32; p.n * p.d];
    let grads = compute_gradients(&device, &MseLoss, &scores, &p.targets, p.n, p.d);
    (binned, grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_conserves_mass(p in problem()) {
        // Σ_bins hist(f, k, ·) == node totals, for every feature and
        // output — the conservation law split finding relies on.
        let (binned, grads) = setup(&p);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..p.m as u32).collect();
        let ctx = HistContext {
            device: &device,
            data: &binned,
            grads: &grads,
            features: &features,
            bins: 16,
            opts: HistOptions::default(),
        };
        let mut hist = NodeHistogram::new(p.m, p.d, 16);
        accumulate_dense(&ctx, &p.subset, &mut hist);
        let (ng, nh) = grads.sums(&p.subset);
        for f in 0..p.m {
            let count: u32 = (0..16).map(|b| hist.counts[hist.cnt_index(f, b)]).sum();
            prop_assert_eq!(count as usize, p.subset.len());
            for k in 0..p.d {
                let sg: f64 = (0..16).map(|b| hist.g_row(f, b)[k]).sum();
                let sh: f64 = (0..16).map(|b| hist.h_row(f, b)[k]).sum();
                prop_assert!((sg - ng[k]).abs() < 1e-4, "g mass {} vs {}", sg, ng[k]);
                prop_assert!((sh - nh[k]).abs() < 1e-4, "h mass {} vs {}", sh, nh[k]);
            }
        }
    }

    #[test]
    fn split_gain_is_positive_and_children_valid(p in problem()) {
        let (binned, grads) = setup(&p);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..p.m as u32).collect();
        let ctx = HistContext {
            device: &device,
            data: &binned,
            grads: &grads,
            features: &features,
            bins: 16,
            opts: HistOptions::default(),
        };
        let mut hist = NodeHistogram::new(p.m, p.d, 16);
        accumulate_dense(&ctx, &p.subset, &mut hist);
        let (ng, nh) = grads.sums(&p.subset);
        let params = SplitParams {
            lambda: 1.0,
            min_gain: 0.0,
            min_instances: 1,
            segments_c: 4.0,
        };
        if let Some(s) = find_best_split(
            &device, &hist, &features, &ng, &nh, p.subset.len() as u32, &params,
        ) {
            prop_assert!(s.gain > 0.0);
            prop_assert!(s.left_count >= 1);
            prop_assert!(s.right_count >= 1);
            prop_assert_eq!(
                (s.left_count + s.right_count) as usize,
                p.subset.len()
            );
            // Left sums bounded by node sums in the Hessian (h > 0).
            for k in 0..p.d {
                prop_assert!(s.left_h[k] <= nh[k] + 1e-9);
                prop_assert!(s.left_h[k] >= -1e-9);
            }
        }
    }

    #[test]
    fn grown_tree_partitions_instances(p in problem()) {
        let (binned, grads) = setup(&p);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..p.m as u32).collect();
        let config = TrainConfig {
            num_trees: 1,
            max_depth: 3,
            max_bins: 16,
            min_instances: 1,
            ..TrainConfig::default()
        };
        let res = grow::grow_tree(&device, &binned, &grads, &config, &features);
        let mut seen = vec![false; p.n];
        for (instances, value) in &res.leaf_assignments {
            prop_assert_eq!(value.len(), p.d);
            for &i in instances {
                prop_assert!(!seen[i as usize], "instance {} in two leaves", i);
                seen[i as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(res.leaf_assignments.len(), res.tree.num_leaves());
        prop_assert!(res.tree.depth() <= 3);
    }

    #[test]
    fn leaf_routing_agrees_with_assignments(p in problem()) {
        // Instances assigned to a leaf during growth must route to that
        // same leaf when re-traversing by float thresholds.
        let (binned, grads) = setup(&p);
        let features_mx = gbdt_mo::data::DenseMatrix::new(p.n, p.m, p.features.clone());
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..p.m as u32).collect();
        let config = TrainConfig {
            num_trees: 1,
            max_depth: 3,
            max_bins: 16,
            min_instances: 1,
            ..TrainConfig::default()
        };
        let res = grow::grow_tree(&device, &binned, &grads, &config, &features);
        for ((instances, _), &node) in res.leaf_assignments.iter().zip(&res.leaf_nodes) {
            for &i in instances {
                let routed = res.tree.leaf_for_row(features_mx.row(i as usize));
                prop_assert_eq!(routed, node, "instance {} routed elsewhere", i);
            }
        }
    }

    #[test]
    fn prediction_modes_agree(p in problem()) {
        let (binned, grads) = setup(&p);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..p.m as u32).collect();
        let config = TrainConfig {
            num_trees: 1,
            max_depth: 3,
            max_bins: 16,
            min_instances: 1,
            ..TrainConfig::default()
        };
        let res = grow::grow_tree(&device, &binned, &grads, &config, &features);
        let features_mx = gbdt_mo::data::DenseMatrix::new(p.n, p.m, p.features);
        let base = vec![0.0f32; p.d];
        let trees = vec![res.tree];
        let a = predict_raw(&trees, &base, &features_mx, PredictMode::InstanceLevel);
        let b = predict_raw(&trees, &base, &features_mx, PredictMode::TreeLevel);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn one_boosting_step_never_increases_training_mse(p in problem()) {
        // With lr=1, λ≥0 and MSE, applying one tree's optimal leaf
        // values cannot increase the squared-error objective.
        let (binned, grads) = setup(&p);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..p.m as u32).collect();
        let config = TrainConfig {
            num_trees: 1,
            max_depth: 3,
            max_bins: 16,
            min_instances: 1,
            lambda: 0.0,
            min_gain: 1e-9,
            ..TrainConfig::default()
        };
        let res = grow::grow_tree(&device, &binned, &grads, &config, &features);
        let mut scores = vec![0.0f32; p.n * p.d];
        for (instances, value) in &res.leaf_assignments {
            for &i in instances {
                for k in 0..p.d {
                    scores[i as usize * p.d + k] += value[k];
                }
            }
        }
        let before: f64 = p.targets.iter().map(|&t| (t as f64).powi(2)).sum();
        let after: f64 = scores
            .iter()
            .zip(&p.targets)
            .map(|(&s, &t)| ((s - t) as f64).powi(2))
            .sum();
        prop_assert!(after <= before + 1e-6, "mse rose from {} to {}", before, after);
    }
}
