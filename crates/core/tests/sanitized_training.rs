//! Full-pipeline sanitizer tests (the PR's acceptance gate):
//!
//! 1. A complete sanitized boosting round — for **every** histogram
//!    method, including adaptive — reports **zero** violations across
//!    the histogram builders, the partition kernel, and the leaf-value
//!    kernels, and the traced kernel set actually covers them.
//! 2. Turning the sanitizer **off** is free: the trained model's
//!    predictions are bit-identical and the simulated timeline is
//!    exactly equal to a run that never knew the sanitizer existed.
//! 3. Feature- and data-parallel groups are clean on every device, and
//!    each device traces the kernels it runs.

use gbdt_core::config::{HistogramMethod, TrainConfig};
use gbdt_core::{GpuTrainer, MultiGpuStrategy, MultiGpuTrainer};
use gbdt_data::synth::{make_regression, RegressionSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, SanitizeMode};

fn dataset() -> Dataset {
    make_regression(&RegressionSpec {
        instances: 400,
        features: 8,
        outputs: 3,
        informative: 6,
        noise: 0.05,
        seed: 11,
        ..Default::default()
    })
}

fn config(m: HistogramMethod) -> TrainConfig {
    TrainConfig {
        num_trees: 2,
        max_depth: 4,
        max_bins: 32,
        min_instances: 5,
        ..TrainConfig::default()
    }
    .with_hist_method(m)
}

#[test]
fn sanitized_training_round_is_clean_for_every_method() {
    let ds = dataset();
    for m in [
        HistogramMethod::GlobalMemory,
        HistogramMethod::SharedMemory,
        HistogramMethod::SortReduce,
        HistogramMethod::Adaptive,
    ] {
        let device = Device::rtx4090();
        device.enable_sanitizer(SanitizeMode::Full);
        let _model = GpuTrainer::new(device.clone(), config(m)).fit(&ds);
        let report = device.sanitize_report().expect("sanitizer enabled");
        assert!(
            report.is_clean(),
            "{m:?}: sanitized training must be violation-free, got {:#?}",
            report.violations
        );
        assert!(report.total_accesses > 0, "{m:?}: nothing was traced");
        // The pipeline's kernels were actually covered, not skipped.
        for required in ["partition_level", "leaf_values", "update_scores"] {
            assert!(
                report.kernels.contains_key(required),
                "{m:?}: kernel {required} missing from {:?}",
                report.kernels.keys().collect::<Vec<_>>()
            );
        }
        let hist_traced = report.kernels.keys().any(|k| {
            k.starts_with("hist_gmem") || k.starts_with("hist_smem") || *k == "hist_sort_reduce"
        });
        assert!(hist_traced, "{m:?}: no histogram kernel was traced");
    }
}

#[test]
fn sanitized_group_training_is_clean_on_every_device() {
    let ds = dataset();
    for strategy in [
        MultiGpuStrategy::FeatureParallel,
        MultiGpuStrategy::DataParallel,
    ] {
        for streams in [1, 4] {
            let group = DeviceGroup::rtx4090s(2);
            for dev in group.devices() {
                dev.enable_sanitizer(SanitizeMode::Full);
            }
            let cfg = TrainConfig {
                streams,
                ..config(HistogramMethod::Adaptive)
            };
            let _ = MultiGpuTrainer::with_strategy(group.clone(), cfg, strategy).fit(&ds);
            for (rank, dev) in group.devices().iter().enumerate() {
                let label = format!("{strategy:?} streams {streams} device {rank}");
                let report = dev.sanitize_report().expect("sanitizer enabled");
                assert!(report.is_clean(), "{label}: {:#?}", report.violations);
                // Each device ingests its share, mirrors the gradients
                // and the score update; the lead closes the leaves and
                // (data-parallel, or owning a split feature) partitions.
                let mut required = vec!["quantile_binning", "grad_hess", "update_scores"];
                if rank == 0 {
                    required.extend(["leaf_values", "partition_level"]);
                }
                for kernel in required {
                    assert!(
                        report.kernels.contains_key(kernel),
                        "{label}: kernel {kernel} missing from {:?}",
                        report.kernels.keys().collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}

#[test]
fn histogram_builders_declare_verified_atomics() {
    let ds = dataset();
    let device = Device::rtx4090();
    device.enable_sanitizer(SanitizeMode::Full);
    let _ = GpuTrainer::new(device.clone(), config(HistogramMethod::GlobalMemory)).fit(&ds);
    let report = device.sanitize_report().expect("enabled");
    let atomics: u64 = report
        .kernels
        .iter()
        .filter(|(k, _)| k.starts_with("hist_gmem"))
        .map(|(_, s)| s.atomics)
        .sum();
    assert!(
        atomics > 0,
        "gmem histogram updates must be declared atomic"
    );
}

#[test]
fn sanitizer_off_is_bit_identical_to_never_enabled() {
    let ds = dataset();
    let cfg = config(HistogramMethod::Adaptive);

    let plain = Device::rtx4090();
    let model_plain = GpuTrainer::new(plain.clone(), cfg.clone()).fit(&ds);

    let sanitized = Device::rtx4090();
    sanitized.enable_sanitizer(SanitizeMode::Full);
    let model_san = GpuTrainer::new(sanitized.clone(), cfg.clone()).fit(&ds);

    // Functional results do not shift by a single bit…
    let p_plain = model_plain.predict(ds.features());
    let p_san = model_san.predict(ds.features());
    assert_eq!(p_plain.len(), p_san.len());
    for (a, b) in p_plain.iter().zip(&p_san) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // …and the simulated timeline is exactly the one the paper's cost
    // model would produce with no sanitizer in the build.
    assert_eq!(
        plain.now_ns().to_bits(),
        sanitized.now_ns().to_bits(),
        "sanitizer must never charge the ledger"
    );

    // A third device with the sanitizer enabled then disabled matches too.
    let toggled = Device::rtx4090();
    toggled.enable_sanitizer(SanitizeMode::Full);
    toggled.disable_sanitizer();
    let model_toggled = GpuTrainer::new(toggled.clone(), cfg).fit(&ds);
    let p_toggled = model_toggled.predict(ds.features());
    for (a, b) in p_plain.iter().zip(&p_toggled) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(plain.now_ns().to_bits(), toggled.now_ns().to_bits());
}

#[test]
fn streamed_histogram_charging_still_traces() {
    // streams > 1 takes the LPT branch in HistCharges::charge, which
    // bypasses the builders' charge() entry points; trace_hist must
    // cover it explicitly.
    let ds = dataset();
    let device = Device::rtx4090();
    device.enable_sanitizer(SanitizeMode::Full);
    let cfg = TrainConfig {
        streams: 4,
        ..config(HistogramMethod::GlobalMemory)
    };
    let _ = GpuTrainer::new(device.clone(), cfg).fit(&ds);
    let report = device.sanitize_report().expect("enabled");
    assert!(report.is_clean(), "{:#?}", report.violations);
    assert!(
        report.kernels.keys().any(|k| k.starts_with("hist_gmem")),
        "streamed charging must still declare histogram accesses: {:?}",
        report.kernels.keys().collect::<Vec<_>>()
    );
}
