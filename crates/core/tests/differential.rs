//! Differential oracle: the simulated-GPU pipeline against the CPU
//! GBDT-MO baseline (`gbdt-baselines::CpuMoTrainer`).
//!
//! Both trainers implement the *same algorithm* (shared binning,
//! histogram, split-search, and leaf-value helpers) on different
//! execution substrates, so they must agree **split for split**: every
//! tree, every internal node (feature, bin, threshold, topology), and
//! every leaf vector. Any divergence means one side's kernel decomposed
//! the math differently — exactly the class of bug a simulator can hide.
//!
//! Three seeded dataset families cover the paper's task spread:
//! regression (RF1-like), multiclass (MNIST-like), and sparse
//! multilabel (NUS-WIDE-like).
//!
//! The second half pins what skipping one-bin columns may not change:
//! appended constant columns leave every placement's trees, and one
//! device's histogram and split-evaluation time, bit-identical. The
//! `groups_` tests pin device groups to one device's trees under
//! subtraction, monotone constraints, early stopping and a custom loss.

use gbdt_baselines::{CpuMoTrainer, CpuStorage};
use gbdt_core::config::{HistogramMethod, TrainConfig};
use gbdt_core::loss::CustomLoss;
use gbdt_core::tree::Node;
use gbdt_core::{GpuTrainer, MultiGpuStrategy, MultiGpuTrainer, ValidationReport};
use gbdt_data::synth::{
    make_classification, make_multilabel, make_regression, ClassificationSpec, MultilabelSpec,
    RegressionSpec,
};
use gbdt_data::{Dataset, DenseMatrix};
use gpusim::{Device, DeviceGroup, Phase};

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        (
            "regression",
            make_regression(&RegressionSpec {
                instances: 500,
                features: 12,
                outputs: 4,
                informative: 8,
                noise: 0.1,
                seed: 7,
                ..Default::default()
            }),
        ),
        (
            "classification",
            make_classification(&ClassificationSpec {
                instances: 500,
                features: 16,
                classes: 5,
                informative: 10,
                seed: 21,
                ..Default::default()
            }),
        ),
        (
            "multilabel",
            make_multilabel(&MultilabelSpec {
                instances: 400,
                features: 30,
                labels: 6,
                sparsity: 0.3,
                seed: 35,
                ..Default::default()
            }),
        ),
    ]
}

fn config() -> TrainConfig {
    TrainConfig {
        num_trees: 3,
        max_depth: 5,
        max_bins: 64,
        min_instances: 5,
        ..TrainConfig::default()
    }
}

/// Node-by-node comparison: identical topology, identical split
/// decisions, bit-identical leaf vectors.
fn assert_trees_agree(tag: &str, gpu: &gbdt_core::model::Model, cpu: &gbdt_core::model::Model) {
    assert_eq!(
        gpu.trees.len(),
        cpu.trees.len(),
        "{tag}: ensemble sizes differ"
    );
    for (t, (tg, tc)) in gpu.trees.iter().zip(&cpu.trees).enumerate() {
        assert_eq!(
            tg.num_nodes(),
            tc.num_nodes(),
            "{tag}: tree {t} node counts differ"
        );
        for (i, (ng, nc)) in tg.nodes().iter().zip(tc.nodes()).enumerate() {
            match (ng, nc) {
                (
                    Node::Split {
                        feature: fg,
                        bin: bg,
                        threshold: hg,
                        left: lg,
                        right: rg,
                    },
                    Node::Split {
                        feature: fc,
                        bin: bc,
                        threshold: hc,
                        left: lc,
                        right: rc,
                    },
                ) => {
                    assert_eq!(fg, fc, "{tag}: tree {t} node {i} split feature");
                    assert_eq!(bg, bc, "{tag}: tree {t} node {i} split bin");
                    assert_eq!(
                        hg.to_bits(),
                        hc.to_bits(),
                        "{tag}: tree {t} node {i} threshold"
                    );
                    assert_eq!((lg, rg), (lc, rc), "{tag}: tree {t} node {i} topology");
                }
                (Node::Leaf { value: vg }, Node::Leaf { value: vc }) => {
                    assert_eq!(vg.len(), vc.len(), "{tag}: tree {t} leaf {i} dim");
                    for (k, (a, b)) in vg.iter().zip(vc).enumerate() {
                        assert!(
                            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                            "{tag}: tree {t} leaf {i} output {k}: gpu={a} cpu={b}"
                        );
                    }
                }
                _ => panic!("{tag}: tree {t} node {i} kind mismatch (split vs leaf)"),
            }
        }
    }
}

/// Every histogram method on the simulated GPU must reproduce the CPU
/// oracle's trees on all three task families.
#[test]
fn gpu_pipeline_matches_cpu_oracle_split_for_split() {
    for (tag, ds) in datasets() {
        let cpu = CpuMoTrainer::new(config(), CpuStorage::Dense).fit(&ds);
        for m in [
            HistogramMethod::GlobalMemory,
            HistogramMethod::SharedMemory,
            HistogramMethod::SortReduce,
            HistogramMethod::Adaptive,
        ] {
            let gpu = GpuTrainer::new(Device::rtx4090(), config().with_hist_method(m)).fit(&ds);
            assert_trees_agree(&format!("{tag}/{m:?}"), &gpu, &cpu);
        }
    }
}

/// The sparse-storage CPU variant is algorithmically equivalent to the
/// dense one, so it inherits the same oracle agreement.
#[test]
fn sparse_cpu_storage_agrees_with_gpu() {
    for (tag, ds) in datasets() {
        let cpu = CpuMoTrainer::new(config(), CpuStorage::Sparse).fit(&ds);
        let gpu = GpuTrainer::new(
            Device::rtx4090(),
            config().with_hist_method(HistogramMethod::SharedMemory),
        )
        .fit(&ds);
        assert_trees_agree(&format!("{tag}/sparse"), &gpu, &cpu);
    }
}

/// Predictions from oracle-equal models agree on held-out-style inputs
/// (the training features double as probes here; routing is what's
/// under test, not generalisation).
#[test]
fn predictions_agree_with_oracle() {
    for (tag, ds) in datasets() {
        let cpu = CpuMoTrainer::new(config(), CpuStorage::Dense).fit(&ds);
        let gpu = GpuTrainer::new(
            Device::rtx4090(),
            config().with_hist_method(HistogramMethod::Adaptive),
        )
        .fit(&ds);
        let pa = gpu.predict(ds.features());
        let pb = cpu.predict(ds.features());
        assert_eq!(pa.len(), pb.len());
        for (i, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert!(
                (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                "{tag}: prediction {i}: gpu={a} cpu={b}"
            );
        }
    }
}

/// `ds` with `extra` columns appended: alternately all-zero and a
/// non-zero constant, so each bins to a single bin and can never split.
fn with_constant_columns(ds: &Dataset, extra: usize) -> Dataset {
    let (n, m) = (ds.n(), ds.m());
    let mut values = Vec::with_capacity(n * (m + extra));
    for i in 0..n {
        values.extend_from_slice(ds.features().row(i));
        values.extend((0..extra).map(|j| if j % 2 == 0 { 0.0 } else { 2.5 }));
    }
    Dataset::new(
        DenseMatrix::new(n, m + extra, values),
        ds.targets().to_vec(),
        ds.d(),
        ds.task(),
    )
}

/// Every split's feature, bin, threshold bits and children, and every
/// leaf value's bits, tree by tree.
fn tree_bits(model: &gbdt_core::model::Model) -> Vec<Vec<u64>> {
    model
        .trees
        .iter()
        .map(|tree| {
            let mut words = Vec::new();
            for node in tree.nodes() {
                match node {
                    Node::Split {
                        feature,
                        bin,
                        threshold,
                        left,
                        right,
                    } => words.extend([
                        u64::from(*feature),
                        u64::from(*bin),
                        u64::from(threshold.to_bits()),
                        u64::from(*left),
                        u64::from(*right),
                    ]),
                    Node::Leaf { value } => {
                        words.extend(value.iter().map(|v| u64::from(v.to_bits())))
                    }
                }
            }
            words
        })
        .collect()
}

/// A one-bin column has no split that leaves both children non-empty,
/// so skipping it must not move a tree: appending constant columns
/// leaves the trees bit-identical on one device and on every placement
/// of a device group. With 12 real and 6 constant columns, the last of
/// three feature-parallel devices owns only constant columns.
#[test]
fn constant_columns_leave_trees_bit_identical_on_every_placement() {
    let base = make_classification(&ClassificationSpec {
        instances: 300,
        features: 12,
        classes: 4,
        informative: 8,
        sparsity: 0.3,
        seed: 5,
        ..Default::default()
    });
    let wide = with_constant_columns(&base, 6);
    for streams in [1, 4] {
        let cfg = TrainConfig {
            streams,
            ..config()
        };
        let want = tree_bits(&GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&base));
        let single = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&wide);
        assert_eq!(tree_bits(&single), want, "one device, streams={streams}");
        for k in 1..=3 {
            for strategy in [
                MultiGpuStrategy::FeatureParallel,
                MultiGpuStrategy::DataParallel,
            ] {
                let group = DeviceGroup::rtx4090s(k);
                let model = MultiGpuTrainer::with_strategy(group, cfg.clone(), strategy).fit(&wide);
                assert_eq!(
                    tree_bits(&model),
                    want,
                    "{strategy:?}({k}), streams={streams}"
                );
            }
        }
    }
}

/// The columns skipped are never charged: with the method fixed, the
/// histogram and split-evaluation ns of a fit do not see appended
/// constant columns, and neither do a sparse-aware fit's histogram ns,
/// whose density counts only the columns built.
#[test]
fn constant_columns_cost_no_histogram_or_split_time() {
    let (_, base) = datasets().swap_remove(2);
    let wide = with_constant_columns(&base, 5);
    let phases = |cfg: &TrainConfig, ds: &Dataset| {
        let r = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit_report(ds);
        assert_eq!(r.features_built + r.features_one_bin, ds.m());
        let ns = |p| r.sim.by_phase.get(&p).copied().unwrap_or(0.0).to_bits();
        (
            ns(Phase::Histogram),
            ns(Phase::SplitEval),
            r.features_one_bin,
        )
    };
    let smem = config().with_hist_method(HistogramMethod::SharedMemory);
    let (hist, split, skipped) = phases(&smem, &wide);
    let (base_hist, base_split, base_skipped) = phases(&smem, &base);
    assert_eq!((hist, split), (base_hist, base_split));
    assert_eq!(skipped, base_skipped + 5);
    let mut sparse = config();
    sparse.hist.sparse_aware = true;
    assert_eq!(phases(&sparse, &wide).0, phases(&sparse, &base).0);
}

/// With no column that can split, every placement grows single-leaf
/// trees.
#[test]
fn an_all_constant_dataset_trains_to_single_leaf_trees() {
    let base = datasets().swap_remove(0).1;
    let flat = Dataset::new(
        DenseMatrix::new(base.n(), 4, vec![1.0; base.n() * 4]),
        base.targets().to_vec(),
        base.d(),
        base.task(),
    );
    let r = GpuTrainer::new(Device::rtx4090(), config()).fit_report(&flat);
    assert_eq!((r.features_built, r.features_one_bin), (0, 4));
    let mut models = vec![r.model];
    for strategy in [
        MultiGpuStrategy::FeatureParallel,
        MultiGpuStrategy::DataParallel,
    ] {
        let group = DeviceGroup::rtx4090s(2);
        models.push(MultiGpuTrainer::with_strategy(group, config(), strategy).fit(&flat));
    }
    for model in &models {
        assert_eq!(model.trees.len(), config().num_trees);
        assert!(model.trees.iter().all(|t| t.num_nodes() == 1));
    }
    assert_eq!(tree_bits(&models[1]), tree_bits(&models[0]));
    assert_eq!(tree_bits(&models[2]), tree_bits(&models[0]));
}

/// `min_instances: 0` still never leaves a child empty: every split of
/// every tree routes at least one training row to each side, on data
/// with constant columns, whose only boundaries send every row left.
#[test]
fn no_split_leaves_a_child_empty_at_min_instances_zero() {
    for (tag, base) in datasets() {
        let ds = with_constant_columns(&base, 2);
        let cfg = TrainConfig {
            min_instances: 0,
            min_gain: 0.0,
            max_depth: 8,
            ..config()
        };
        let model = GpuTrainer::new(Device::rtx4090(), cfg).fit(&ds);
        for (t, tree) in model.trees.iter().enumerate() {
            let mut rows = vec![0usize; tree.num_nodes()];
            for i in 0..ds.n() {
                let row = ds.features().row(i);
                let mut at = 0usize;
                loop {
                    rows[at] += 1;
                    match &tree.nodes()[at] {
                        Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                            ..
                        } => {
                            at = if row[*feature as usize] <= *threshold {
                                *left as usize
                            } else {
                                *right as usize
                            }
                        }
                        Node::Leaf { .. } => break,
                    }
                }
            }
            for (i, node) in tree.nodes().iter().enumerate() {
                if let Node::Split { left, right, .. } = node {
                    assert!(
                        rows[*left as usize] > 0 && rows[*right as usize] > 0,
                        "{tag}: tree {t} node {i} leaves a child empty"
                    );
                }
            }
        }
    }
}

/// Fit `cfg` on one device, then on {feature, data} parallel groups of
/// 1–3 devices at 1 and 4 streams, and check every group's trees
/// against the one device's, bit for bit. Returns the one device's
/// trees.
fn assert_groups_grow_one_device_trees(
    tag: &str,
    ds: &Dataset,
    cfg: &TrainConfig,
) -> Vec<Vec<u64>> {
    let want = tree_bits(&GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(ds));
    for k in 1..=3 {
        for streams in [1, 4] {
            for strategy in [
                MultiGpuStrategy::FeatureParallel,
                MultiGpuStrategy::DataParallel,
            ] {
                let cfg = TrainConfig {
                    streams,
                    ..cfg.clone()
                };
                let group = DeviceGroup::rtx4090s(k);
                let model = MultiGpuTrainer::try_with_strategy(group, cfg, strategy)
                    .unwrap_or_else(|e| panic!("{tag}: {strategy:?}({k}) rejected: {e}"))
                    .fit(ds);
                assert_eq!(
                    tree_bits(&model),
                    want,
                    "{tag}: {strategy:?}({k}), streams={streams}"
                );
            }
        }
    }
    want
}

/// Under histogram subtraction a group derives each pair's larger child
/// from the parent, as one device does, on every device count, layout
/// and stream count.
#[test]
fn groups_under_subtraction_grow_one_device_trees_bit_for_bit() {
    for (tag, ds) in datasets() {
        let mut cfg = config();
        cfg.hist.subtraction = true;
        assert_groups_grow_one_device_trees(tag, &ds, &cfg);
    }
}

/// Monotone constraints bound a group's splits and leaves as they bound
/// one device's; the constraints chosen here change the trees.
#[test]
fn groups_under_monotone_constraints_grow_one_device_trees_bit_for_bit() {
    for (tag, ds) in datasets() {
        let free = tree_bits(&GpuTrainer::new(Device::rtx4090(), config()).fit(&ds));
        let cfg = TrainConfig {
            monotone_constraints: (0..ds.m()).map(|f| [1, 0, -1][f % 3]).collect(),
            ..config()
        };
        let constrained = assert_groups_grow_one_device_trees(tag, &ds, &cfg);
        assert_ne!(constrained, free, "{tag}: the constraints bound nothing");
    }
}

/// Early stopping on a group scores the validation split as one device
/// does: the same truncated trees, the same history bit for bit and the
/// same best iteration, on {feature, data} parallel groups of 2 and 3.
#[test]
fn groups_with_validation_stop_where_one_device_stops() {
    let ds = make_classification(&ClassificationSpec {
        instances: 500,
        features: 10,
        classes: 3,
        informative: 8,
        flip_y: 0.15,
        seed: 22,
        ..Default::default()
    });
    let (train, valid) = ds.split(0.4, 23);
    let cfg = TrainConfig {
        num_trees: 20,
        ..config()
    };
    let bits = |r: &ValidationReport| {
        let history: Vec<u64> = r.history.iter().map(|v| v.to_bits()).collect();
        (tree_bits(&r.report.model), history, r.best_iteration)
    };
    let want = bits(
        &GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit_with_validation(&train, &valid, 3),
    );
    assert!(want.2 + 1 < cfg.num_trees, "validation never stopped early");
    for k in [2, 3] {
        for strategy in [
            MultiGpuStrategy::FeatureParallel,
            MultiGpuStrategy::DataParallel,
        ] {
            let trainer =
                MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(k), cfg.clone(), strategy);
            let got = bits(&trainer.fit_with_validation(&train, &valid, 3));
            assert_eq!(got, want, "{strategy:?}({k})");
        }
    }
}

/// A user-defined loss drives a group's gradients as it drives one
/// device's: the same trees, bit for bit, on {feature, data} parallel
/// groups of 2 and 3.
#[test]
fn groups_with_a_custom_loss_grow_one_device_trees_bit_for_bit() {
    // An asymmetric squared loss: under-prediction penalized 3× harder.
    let loss = CustomLoss::new(
        "asymmetric-mse",
        |scores, targets, g, h| {
            for k in 0..scores.len() {
                let r = scores[k] - targets[k];
                let w = if r < 0.0 { 3.0 } else { 1.0 };
                g[k] = 2.0 * w * r;
                h[k] = 2.0 * w;
            }
        },
        |scores, targets| {
            scores
                .iter()
                .zip(targets)
                .map(|(&s, &t)| {
                    let r = (s - t) as f64;
                    let w = if r < 0.0 { 3.0 } else { 1.0 };
                    w * r * r
                })
                .sum()
        },
        6.0,
    );
    let (_, ds) = datasets().swap_remove(0);
    let want = tree_bits(
        &GpuTrainer::new(Device::rtx4090(), config())
            .fit_with_loss(&ds, &loss)
            .model,
    );
    let task_loss = tree_bits(&GpuTrainer::new(Device::rtx4090(), config()).fit(&ds));
    assert_ne!(want, task_loss, "the custom loss changed nothing");
    for k in [2, 3] {
        for strategy in [
            MultiGpuStrategy::FeatureParallel,
            MultiGpuStrategy::DataParallel,
        ] {
            let trainer =
                MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(k), config(), strategy);
            let got = tree_bits(&trainer.fit_with_loss(&ds, &loss).model);
            assert_eq!(got, want, "{strategy:?}({k})");
        }
    }
}
