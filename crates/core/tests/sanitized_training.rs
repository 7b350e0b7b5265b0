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
//!    each device traces the kernels it runs, its histogram builds under
//!    the name of the level kernel that charged them and, under
//!    subtraction, its derives over its own feature range.

use gbdt_core::config::{HistogramMethod, TrainConfig};
use gbdt_core::multigpu::partition_features;
use gbdt_core::{GpuTrainer, MultiGpuStrategy, MultiGpuTrainer};
use gbdt_data::synth::{make_regression, RegressionSpec};
use gbdt_data::{BinnedDataset, Dataset};
use gpusim::{Device, DeviceGroup, Phase, SanitizeMode};
use std::collections::BTreeMap;

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

/// The kernel a fixed method's node builds are charged as; `None` for
/// `Adaptive`, whose builds may use any of them.
fn node_kernel(m: HistogramMethod, packed: bool) -> Option<&'static str> {
    Some(match (m, packed) {
        (HistogramMethod::GlobalMemory, false) => "hist_gmem",
        (HistogramMethod::GlobalMemory, true) => "hist_gmem_packed",
        (HistogramMethod::SharedMemory, false) => "hist_smem",
        (HistogramMethod::SharedMemory, true) => "hist_smem_packed",
        (HistogramMethod::SortReduce, _) => "hist_sort_reduce",
        (HistogramMethod::Adaptive, _) => return None,
    })
}

#[test]
fn sanitized_training_round_is_clean_for_every_method() {
    let ds = dataset();
    for (m, packed) in [
        HistogramMethod::GlobalMemory,
        HistogramMethod::SharedMemory,
        HistogramMethod::SortReduce,
        HistogramMethod::Adaptive,
    ]
    .into_iter()
    .flat_map(|m| [(m, true), (m, false)])
    {
        let label = format!("{m:?} packed={packed}");
        let device = Device::rtx4090();
        device.enable_sanitizer(SanitizeMode::Full);
        let cfg = config(m).with_warp_packing(packed);
        let fit = GpuTrainer::new(device.clone(), cfg).fit_report(&ds);
        let report = device.sanitize_report().expect("sanitizer enabled");
        assert!(
            report.is_clean(),
            "{label}: sanitized training must be violation-free, got {:#?}",
            report.violations
        );
        assert!(report.total_accesses > 0, "{label}: nothing was traced");
        // The pipeline's kernels were actually covered, not skipped.
        for required in ["partition_level", "leaf_values", "update_scores"] {
            assert!(
                report.kernels.contains_key(required),
                "{label}: kernel {required} missing from {:?}",
                report.kernels.keys().collect::<Vec<_>>()
            );
        }
        // One name per method: every node build was traced under the
        // name its level's kernel was charged as. The ledger books one
        // kernel per (level, method); the sanitizer sees every build.
        let mut built: BTreeMap<&str, u64> = BTreeMap::new();
        for r in device.records() {
            if r.phase == Phase::Histogram {
                *built.entry(r.name).or_default() += 1;
            }
        }
        assert!(
            !built.is_empty(),
            "{label}: no histogram kernel was charged"
        );
        if let Some(kernel) = node_kernel(m, packed) {
            assert_eq!(
                built.keys().copied().collect::<Vec<_>>(),
                [kernel],
                "{label}"
            );
        }
        let traced: BTreeMap<&str, u64> = report
            .kernels
            .iter()
            .filter(|(k, _)| k.starts_with("hist_"))
            .map(|(&k, s)| (k, s.launches))
            .collect();
        // Per name: the sanitizer saw each of the method's node builds
        // (`hist_methods`) and the ledger each of its level kernels
        // (`hist_launches`).
        let name = |method| node_kernel(method, packed).expect("a concrete method");
        let want_traced: BTreeMap<&str, u64> = fit
            .hist_methods
            .iter()
            .map(|(&method, &nodes)| (name(method), nodes as u64))
            .collect();
        let mut want_built: BTreeMap<&str, u64> = BTreeMap::new();
        for (&(_, method), seen) in &fit.hist_launches {
            *want_built.entry(name(method)).or_default() += seen.kernels as u64;
        }
        assert_eq!(traced, want_traced, "{label}: traced builds per name");
        assert_eq!(built, want_built, "{label}: charged kernels per name");
    }
}

#[test]
fn sanitized_group_training_is_clean_on_every_device() {
    let ds = dataset();
    for (strategy, subtraction) in [
        (MultiGpuStrategy::FeatureParallel, false),
        (MultiGpuStrategy::DataParallel, false),
        (MultiGpuStrategy::DataParallel, true),
    ] {
        for streams in [1, 4] {
            let group = DeviceGroup::rtx4090s(2);
            for dev in group.devices() {
                dev.enable_sanitizer(SanitizeMode::Full);
            }
            let mut cfg = TrainConfig {
                streams,
                ..config(HistogramMethod::Adaptive)
            };
            cfg.hist.subtraction = subtraction;
            let packed = cfg.hist.warp_packing;
            let bins = cfg.max_bins;
            let fit = MultiGpuTrainer::with_strategy(group.clone(), cfg, strategy).fit_report(&ds);
            // As on one device, per name: the sanitizers saw each
            // device's node builds (`hist_methods`) and the ledgers each
            // device's level kernels (`hist_launches`), whose nodes sum
            // over the devices to `hist_methods`.
            let name = |method| node_kernel(method, packed).expect("a concrete method");
            let (mut traced, mut built) = (BTreeMap::new(), BTreeMap::new());
            for dev in group.devices() {
                let report = dev.sanitize_report().expect("sanitizer enabled");
                for (&k, s) in &report.kernels {
                    if fit.hist_methods.keys().any(|&m| name(m) == k) {
                        *traced.entry(k).or_insert(0u64) += s.launches;
                    }
                }
                for r in dev.records() {
                    if fit.hist_methods.keys().any(|&m| name(m) == r.name) {
                        *built.entry(r.name).or_insert(0u64) += 1;
                    }
                }
            }
            let (mut want_traced, mut want_built) = (BTreeMap::new(), BTreeMap::new());
            let mut nodes = BTreeMap::new();
            for (&method, &n) in &fit.hist_methods {
                want_traced.insert(name(method), n as u64);
            }
            for (&(_, method), seen) in &fit.hist_launches {
                *want_built.entry(name(method)).or_insert(0u64) += seen.kernels as u64;
                *nodes.entry(method).or_insert(0) += seen.nodes;
            }
            let label = format!("{strategy:?} subtraction {subtraction} streams {streams}");
            assert!(!fit.hist_launches.is_empty(), "{label}: no level kernels");
            assert_eq!(nodes, fit.hist_methods, "{label}: nodes per method");
            assert_eq!(traced, want_traced, "{label}: traced builds per name");
            assert_eq!(built, want_built, "{label}: charged kernels per name");
            // Under subtraction each device derives only the slice of
            // its own feature range: every derive's `parent − sibling`
            // touches `|range| × bins` slots of `d` gradient columns and
            // a count (MSE shares one Hessian row), three accesses each.
            let all: Vec<u32> = (0..ds.m() as u32).collect();
            let splittable = BinnedDataset::build(ds.features(), bins)
                .splittable(&all)
                .len();
            let ranges = partition_features(splittable, 2);
            let mut derives = Vec::new();
            for (rank, dev) in group.devices().iter().enumerate() {
                let label = format!("{label} device {rank}");
                let report = dev.sanitize_report().expect("sanitizer enabled");
                assert!(report.is_clean(), "{label}: {:#?}", report.violations);
                let derived = report.kernels.get("hist_subtract");
                assert_eq!(derived.is_some(), subtraction, "{label}: derives traced");
                if let Some(s) = derived {
                    let (lo, hi) = ranges[rank];
                    let elems = (hi - lo) * bins * (ds.d() + 1);
                    assert_eq!(s.accesses, s.launches * 3 * elems as u64, "{label}");
                    derives.push(s.launches);
                }
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
            if subtraction {
                assert!(derives[0] > 0, "{label}: nothing derived");
                assert_eq!(derives[0], derives[1], "{label}: derives per device");
            }
        }
    }
}

/// Row subsampling routes every row through the grown tree, and a
/// validation split is scored each round: both walks are traced under
/// their own kernel names and come out clean.
#[test]
fn sanitized_subsampled_fit_with_validation_traces_both_walks() {
    let ds = dataset();
    let (train, valid) = ds.split(0.25, 3);
    let device = Device::rtx4090();
    device.enable_sanitizer(SanitizeMode::Full);
    let cfg = TrainConfig {
        subsample: 0.5,
        ..config(HistogramMethod::Adaptive)
    };
    let _ = GpuTrainer::new(device.clone(), cfg).fit_with_validation(&train, &valid, 5);
    let report = device.sanitize_report().expect("enabled");
    assert!(report.is_clean(), "{:#?}", report.violations);
    for kernel in ["update_scores_routed", "validation_predict"] {
        assert!(
            report.kernels.contains_key(kernel),
            "kernel {kernel} missing from {:?}",
            report.kernels.keys().collect::<Vec<_>>()
        );
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
    // streams > 1 moves ingest to a copy stream; every build is still
    // traced.
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
