//! Differential tests of the uniform-Hessian path: a fit whose
//! histograms carry one count column must equal, bit for bit, the same
//! fit forced onto the general `d`-column path
//! ([`crate::grad::on_general_path`]), on every histogram method, with
//! and without sparsity-aware builds, subtraction and quantized
//! gradients, on one device and on feature- and data-parallel pairs.
//! A placement that rejects a knob must reject it on both paths. GOSS,
//! pseudo-Huber and asymmetric custom-loss fits never take the path.

use crate::config::{HistOptions, HistogramMethod, TrainConfig};
use crate::grad::on_general_path;
use crate::serialize::to_bytes;
use crate::trainer::{GpuTrainer, TrainReport};
use crate::{MultiGpuStrategy, MultiGpuTrainer};
use gbdt_data::synth::{
    make_classification, make_multilabel, make_regression, ClassificationSpec, MultilabelSpec,
    RegressionSpec,
};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, Phase};

const METHODS: [HistogramMethod; 4] = [
    HistogramMethod::GlobalMemory,
    HistogramMethod::SharedMemory,
    HistogramMethod::SortReduce,
    HistogramMethod::Adaptive,
];

/// Where a fit runs.
#[derive(Debug, Clone, Copy)]
enum Placement {
    Single,
    Group(MultiGpuStrategy),
}

/// A regression set with a quarter of its feature values zero, so the
/// sparsity-aware builds fill real zero-bin remainders.
fn regression() -> Dataset {
    make_regression(&RegressionSpec {
        instances: 300,
        features: 8,
        outputs: 3,
        informative: 5,
        noise: 0.1,
        sparsity: 0.25,
        seed: 11,
        ..Default::default()
    })
}

fn config(hist: HistOptions) -> TrainConfig {
    TrainConfig {
        num_trees: 3,
        max_depth: 4,
        max_bins: 32,
        min_instances: 4,
        hist,
        ..TrainConfig::default()
    }
}

/// Fit `ds` where `placement` says, or the placement's rejection.
fn fit(ds: &Dataset, cfg: &TrainConfig, placement: Placement) -> Result<TrainReport, String> {
    match placement {
        Placement::Single => Ok(GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit_report(ds)),
        Placement::Group(strategy) => {
            MultiGpuTrainer::try_with_strategy(DeviceGroup::rtx4090s(2), cfg.clone(), strategy)
                .map(|t| t.fit_report(ds))
                .map_err(|e| e.to_string())
        }
    }
}

fn histogram_ns(r: &TrainReport) -> f64 {
    r.sim
        .by_phase
        .get(&Phase::Histogram)
        .copied()
        .unwrap_or(0.0)
}

/// One-column builds and all builds over a single-device fit.
fn one_column_builds(r: &TrainReport) -> (usize, usize) {
    let launches = r.hist_launches.values();
    launches.fold((0, 0), |(one, all), l| (one + l.one_column, all + l.nodes))
}

#[test]
fn uniform_fits_equal_general_path_fits_bit_for_bit() {
    let ds = regression();
    let placements = [
        Placement::Single,
        Placement::Group(MultiGpuStrategy::FeatureParallel),
        Placement::Group(MultiGpuStrategy::DataParallel),
    ];
    let mut fitted = 0;
    for method in METHODS {
        for sparse_aware in [false, true] {
            for subtraction in [false, true] {
                for quantized_gradients in [false, true] {
                    let cfg = config(HistOptions {
                        method,
                        sparse_aware,
                        subtraction,
                        quantized_gradients,
                        ..HistOptions::default()
                    });
                    for placement in placements {
                        let at = format!("{placement:?} {:?}", cfg.hist);
                        let uniform = fit(&ds, &cfg, placement);
                        let general = on_general_path(|| fit(&ds, &cfg, placement));
                        let (uniform, general) = match (uniform, general) {
                            (Ok(u), Ok(g)) => (u, g),
                            (Err(u), Err(g)) => {
                                assert_eq!(u, g, "{at}: rejected differently");
                                continue;
                            }
                            _ => panic!("{at}: one path fits, the other rejects"),
                        };
                        fitted += 1;
                        assert_eq!(
                            to_bytes(&uniform.model),
                            to_bytes(&general.model),
                            "{at}: the uniform path changed the model"
                        );
                        // MSE shares one Hessian row on every round, so
                        // every build takes the one-column path and
                        // histograms cost less.
                        assert!(
                            histogram_ns(&uniform) < histogram_ns(&general),
                            "{at}: uniform {} ns vs general {} ns",
                            histogram_ns(&uniform),
                            histogram_ns(&general)
                        );
                        if let Placement::Single = placement {
                            let (one, all) = one_column_builds(&uniform);
                            assert!(all > 0, "{at}: no builds");
                            assert_eq!(one, all, "{at}: builds off the one-column path");
                            assert_eq!(one_column_builds(&general).0, 0, "{at}");
                        }
                    }
                }
            }
        }
    }
    // One device runs all 32 combinations; a pair runs the 4 methods on
    // dense, unquantized builds, with and without subtraction.
    assert_eq!(fitted, 32 + 2 * 8);
}

/// Sigmoid and softmax start every row at the base scores, so round 0
/// shares one Hessian row and later rounds do not.
#[test]
fn sigmoid_and_softmax_take_the_one_column_path_on_round_0_only() {
    let multilabel = make_multilabel(&MultilabelSpec {
        instances: 300,
        features: 10,
        labels: 4,
        sparsity: 0.3,
        seed: 5,
        ..Default::default()
    });
    let multiclass = make_classification(&ClassificationSpec {
        instances: 300,
        features: 10,
        classes: 4,
        informative: 6,
        seed: 6,
        ..Default::default()
    });
    for (name, ds) in [("sigmoid", multilabel), ("softmax", multiclass)] {
        let one_round = TrainConfig {
            num_trees: 1,
            ..config(HistOptions::default())
        };
        let round0 = fit(&ds, &one_round, Placement::Single).expect("one device fits");
        let (one, all) = one_column_builds(&round0);
        assert!(all > 0, "{name}: round 0 built nothing");
        assert_eq!(one, all, "{name}: round 0 off the one-column path");

        let cfg = config(HistOptions::default());
        let uniform = fit(&ds, &cfg, Placement::Single).expect("one device fits");
        let general = on_general_path(|| fit(&ds, &cfg, Placement::Single)).expect("fits");
        assert_eq!(
            to_bytes(&uniform.model),
            to_bytes(&general.model),
            "{name}: the uniform path changed the model"
        );
        let (one_later, all_later) = one_column_builds(&uniform);
        assert_eq!(
            one_later, one,
            "{name}: only round 0 takes the one-column path"
        );
        assert!(all_later > all, "{name}: later rounds built nothing");
        assert_eq!(one_column_builds(&general).0, 0, "{name}");
    }
}

/// GOSS amplifies the sampled rows' Hessians, and pseudo-Huber and an
/// asymmetric custom loss give each row its own Hessian from its
/// residual, so no round of these fits takes the one-column path.
#[test]
fn goss_huber_and_custom_asymmetric_fits_never_take_the_one_column_path() {
    use crate::config::GossConfig;
    use crate::loss::{CustomLoss, HuberLoss};
    let ds = regression();
    let cfg = config(HistOptions::default());
    let asymmetric = CustomLoss::new(
        "asymmetric-mse",
        |scores, targets, g, h| {
            for k in 0..scores.len() {
                let r = scores[k] - targets[k];
                let w = if r < 0.0 { 3.0 } else { 1.0 };
                g[k] = 2.0 * w * r;
                h[k] = 2.0 * w;
            }
        },
        |_, _| 0.0,
        6.0,
    );
    let goss = TrainConfig {
        goss: Some(GossConfig::default_rates()),
        ..cfg.clone()
    };
    let trainer = GpuTrainer::new(Device::rtx4090(), cfg);
    for (name, report) in [
        (
            "goss",
            fit(&ds, &goss, Placement::Single).expect("one device fits"),
        ),
        ("huber", trainer.fit_with_loss(&ds, &HuberLoss::default())),
        ("asymmetric", trainer.fit_with_loss(&ds, &asymmetric)),
    ] {
        let (one, all) = one_column_builds(&report);
        assert!(all > 0, "{name}: no builds");
        assert_eq!(one, 0, "{name}: a build took the one-column path");
    }
}
