//! Full-pipeline profiler tests (this PR's acceptance gate):
//!
//! 1. The zero-perturbation contract — profiling attached, detached, or
//!    never enabled all produce **bit-identical** trees, predictions,
//!    and charged nanoseconds (the profiler is a pure observer,
//!    mirroring the sanitizer contract from the previous PR).
//! 2. A profiled training run actually covers the pipeline: round and
//!    level scopes, per-method histogram scopes, per-kernel aggregates,
//!    and a Chrome trace that parses as JSON with a `traceEvents` array.

use gbdt_core::config::{HistogramMethod, TrainConfig};
use gbdt_core::{DeviceEnsemble, GpuTrainer, MultiGpuTrainer, PredictMode};
use gbdt_data::synth::{make_regression, RegressionSpec};
use gbdt_data::Dataset;
use gpusim::{Device, Phase};
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

/// The profiler scope a node-build kernel runs under: the method's, so
/// packed and unpacked builds share one.
fn method_scope(kernel: &str) -> &'static str {
    match kernel {
        "hist_gmem" | "hist_gmem_packed" => "round/level/hist_gmem",
        "hist_smem" | "hist_smem_packed" => "round/level/hist_smem",
        "hist_sort_reduce" => "round/level/hist_sortreduce",
        other => panic!("unexpected node-build kernel {other}"),
    }
}

/// Profiling on, off, or toggled: trees, predictions, and the simulated
/// timeline never shift by a single bit. And each node build carries
/// one name: its ledger record and its profiler scope agree, build for
/// build, for every method and packing, with no separate scope for the
/// adaptive selector.
#[test]
fn profiler_off_is_bit_identical_to_never_enabled() {
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
        let cfg = config(m).with_warp_packing(packed);
        let label = format!("{m:?} packed={packed}");

        let plain = Device::rtx4090();
        let model_plain = GpuTrainer::new(plain.clone(), cfg.clone()).fit(&ds);

        let profiled = Device::rtx4090();
        profiled.enable_profiler();
        let model_prof = GpuTrainer::new(profiled.clone(), cfg.clone()).fit(&ds);

        let p_plain = model_plain.predict(ds.features());
        let p_prof = model_prof.predict(ds.features());
        assert_eq!(p_plain.len(), p_prof.len());
        for (a, b) in p_plain.iter().zip(&p_prof) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: predictions diverged");
        }
        assert_eq!(
            plain.now_ns().to_bits(),
            profiled.now_ns().to_bits(),
            "{label}: profiler must never charge the ledger"
        );
        // The charged cost stream is bit-for-bit identical, record by
        // record (name, phase, ns, start time).
        let ra = plain.records();
        let rb = profiled.records();
        assert_eq!(ra.len(), rb.len(), "{label}: record counts diverged");
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.name, y.name, "{label}");
            assert_eq!(x.phase, y.phase, "{label}");
            assert_eq!(x.ns.to_bits(), y.ns.to_bits(), "{label}: ns diverged");
            assert_eq!(
                x.start_ns.to_bits(),
                y.start_ns.to_bits(),
                "{label}: start diverged"
            );
        }

        // One name per build: the ledger's node-build records, grouped
        // by their method's scope, are exactly the profiler's
        // `round/level/hist_*` scope entries.
        let mut built: BTreeMap<&str, u64> = BTreeMap::new();
        let mut by_scope: BTreeMap<&str, u64> = BTreeMap::new();
        for r in rb.iter().filter(|r| r.phase == Phase::Histogram) {
            *built.entry(r.name).or_default() += 1;
            *by_scope.entry(method_scope(r.name)).or_default() += 1;
        }
        assert!(!built.is_empty(), "{label}: no node build charged");
        if let Some(kernel) = node_kernel(m, packed) {
            assert_eq!(
                built.keys().copied().collect::<Vec<_>>(),
                [kernel],
                "{label}"
            );
        }
        let prof = profiled.profile_summary().expect("profiler enabled");
        let scopes: BTreeMap<&str, u64> = prof
            .scopes
            .iter()
            .filter(|s| s.path.contains("hist_"))
            .map(|s| (s.path.as_str(), s.count))
            .collect();
        assert_eq!(scopes, by_scope, "{label}: scopes vs ledger {built:?}");

        // Enabled-then-disabled matches a device that never profiled.
        let toggled = Device::rtx4090();
        toggled.enable_profiler();
        toggled.disable_profiler();
        let model_toggled = GpuTrainer::new(toggled.clone(), cfg).fit(&ds);
        let p_toggled = model_toggled.predict(ds.features());
        for (a, b) in p_plain.iter().zip(&p_toggled) {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: toggled diverged");
        }
        assert_eq!(plain.now_ns().to_bits(), toggled.now_ns().to_bits());
    }
}

/// A profiled run produces the full scope hierarchy and per-kernel
/// aggregates, and its phase totals reconcile exactly with the ledger.
#[test]
fn profiled_training_covers_the_pipeline() {
    let ds = dataset();
    let device = Device::rtx4090();
    device.enable_profiler();
    let trainer = GpuTrainer::new(device.clone(), config(HistogramMethod::Adaptive));
    let model = trainer.fit(&ds);
    // Charged inference rides the same profiler.
    let ens = DeviceEnsemble::upload(device.clone(), &model.compile());
    let _ = ens.predict(PredictMode::InstanceLevel, ds.features());

    let prof = device.profile_summary().expect("profiler enabled");
    assert_eq!(prof.schema_version, gpusim::PROFILE_SCHEMA_VERSION);
    assert_eq!(prof.device, "SimRTX4090");
    assert!(prof.total_ns > 0.0);
    assert_eq!(prof.dropped_records, 0);
    assert_eq!(prof.dropped_events, 0);

    // Hierarchical scopes: preprocess, rounds, levels under rounds,
    // method scopes under levels, and the serving predict scope.
    let paths: Vec<&str> = prof.scopes.iter().map(|s| s.path.as_str()).collect();
    assert!(paths.contains(&"preprocess"), "{paths:?}");
    assert!(paths.contains(&"round"), "{paths:?}");
    assert!(paths.contains(&"round/level"), "{paths:?}");
    assert!(paths.contains(&"serve_predict"), "{paths:?}");
    assert!(
        paths.iter().any(|p| p.starts_with("round/level/hist_")),
        "histogram method scopes missing: {paths:?}"
    );
    // Adaptive builds run under the chosen method's scope alone.
    assert!(
        !paths.iter().any(|p| p.contains("hist_adaptive")),
        "{paths:?}"
    );
    let round = prof
        .scopes
        .iter()
        .find(|s| s.path == "round")
        .expect("round scope");
    assert_eq!(round.count, 2, "one scope entry per boosting round");
    assert_eq!(round.depth, 0);
    let level = prof
        .scopes
        .iter()
        .find(|s| s.path == "round/level")
        .expect("level scope");
    assert_eq!(level.depth, 1);
    assert!(level.count >= 2);
    // A round contains its levels: aggregate level time fits inside it.
    assert!(level.total_ns <= round.total_ns + 1e-9);

    // Per-kernel aggregates: histogram kernels present, stats sane.
    let hist_rows: Vec<_> = prof
        .kernels
        .iter()
        .filter(|k| k.phase == "Histogram")
        .collect();
    assert!(!hist_rows.is_empty(), "no histogram kernels profiled");
    for k in &prof.kernels {
        assert!(k.count > 0);
        assert!(k.total_ns > 0.0);
        assert!(k.max_ns <= k.total_ns + 1e-9);
        assert!((k.mean_ns - k.total_ns / k.count as f64).abs() < 1e-9);
    }
    // Aggregate kernel time reconciles exactly with the ledger total.
    let agg: f64 = prof.kernels.iter().map(|k| k.total_ns).sum();
    let ledger = device.summary();
    assert!(
        (agg - ledger.total_ns).abs() < 1e-6 * ledger.total_ns.max(1.0),
        "aggregates ({agg}) must reconcile with ledger ({})",
        ledger.total_ns
    );
    // by_phase mirrors the ledger keyed by phase names.
    assert_eq!(
        prof.by_phase.get("Histogram").copied().unwrap_or(0.0),
        ledger
            .by_phase
            .get(&Phase::Histogram)
            .copied()
            .unwrap_or(0.0)
    );
    assert!(prof.phase_share("Histogram") > 0.0);

    // Chrome trace: valid JSON with a traceEvents array that contains
    // both kernel and scope events.
    let trace = device.chrome_trace().expect("profiler enabled");
    let v: serde::Value = serde_json::from_str(&trace).expect("chrome trace must be valid JSON");
    let obj = v.as_object().expect("envelope object");
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let cats: Vec<String> = events
        .iter()
        .filter_map(|e| e.as_object())
        .filter_map(|o| {
            o.iter()
                .find(|(k, _)| k == "cat")
                .and_then(|(_, v)| v.as_str().map(str::to_string))
        })
        .collect();
    assert!(cats.iter().any(|c| c == "Histogram"), "{cats:?}");
    assert!(cats.iter().any(|c| c == "scope"), "{cats:?}");
}

/// Multi-GPU training with profiling enabled on every device stays
/// bit-identical and records round/level scopes on device 0.
#[test]
fn multigpu_profiling_is_zero_perturbation() {
    let ds = dataset();
    let cfg = config(HistogramMethod::SharedMemory);

    let plain = MultiGpuTrainer::new(gpusim::DeviceGroup::rtx4090s(2), cfg.clone());
    let model_plain = plain.fit(&ds);

    let profiled = MultiGpuTrainer::new(gpusim::DeviceGroup::rtx4090s(2), cfg);
    for dev in profiled.group().devices() {
        dev.enable_profiler();
    }
    let model_prof = profiled.fit(&ds);

    let a = model_plain.predict(ds.features());
    let b = model_prof.predict(ds.features());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (da, db) in plain
        .group()
        .devices()
        .iter()
        .zip(profiled.group().devices())
    {
        assert_eq!(da.now_ns().to_bits(), db.now_ns().to_bits());
    }
    let prof = profiled
        .group()
        .device(0)
        .profile_summary()
        .expect("enabled");
    let paths: Vec<&str> = prof.scopes.iter().map(|s| s.path.as_str()).collect();
    assert!(paths.contains(&"round"), "{paths:?}");
    assert!(paths.contains(&"round/level"), "{paths:?}");
}
