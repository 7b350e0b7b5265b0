//! Golden fingerprints of trained models: the host histogram's memory
//! layout is an implementation detail and must never change a model or
//! the simulated clock.
//!
//! Small fixed-seed fits run over every histogram method × {dense,
//! sparsity-aware, subtraction} on one device, plus the feature- and
//! data-parallel multi-GPU trainers on two devices. Each of these rows
//! carries two hashes: an FNV-1a hash of every tree's split features,
//! bins, threshold bits and leaf-value bits, and a hash of the fit's
//! simulated total ns bits. A change in what a fit charges therefore
//! shows in the second column alone when the trees hold.
//!
//! A second set of rows pins the multi-GPU trainers' whole charge
//! stream: {feature, data} parallel × {1, 2, 3} devices × {1, 4}
//! streams × {no sketch, top-2 sketch}, plus a transient fault with a
//! retry and a device loss on a 3-device group. Each of those rows
//! carries two hashes. The charges hash extends the trees hash, followed
//! by the simulated total ns bits, by
//! `TrainReport::hist_methods` and every device's clock and charge
//! records (name, phase, stream, start and duration bits). The
//! telemetry hash covers the counters and gauges of a registry shared
//! by the group, so a change in what a fit observes never hides a
//! change in what it charges.
//!
//! A mismatch means the model, the charged cost or the recorded
//! telemetry moved. If that is intended, print the new tables with
//! `UPDATE_GOLDEN=1 cargo test -p gbdt-core --test layout_golden -- --nocapture`
//! and paste them over `GOLDEN` and `CHARGE_GOLDEN`. A re-bless whose
//! trees column moved changed a model, not only a charge.

use gbdt_core::config::TrainConfig;
use gbdt_core::multigpu::{MultiGpuStrategy, MultiGpuTrainer};
use gbdt_core::trainer::{GpuTrainer, TrainReport};
use gbdt_core::tree::Node;
use gbdt_core::{HistOptions, HistogramMethod, OutputSketch, RetryPolicy};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, FaultPlan, Telemetry};
use std::sync::Arc;

#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("GlobalMemory/dense", 0xded628e5fad8ea62, 0xb741e7cb327bdef5),
    ("GlobalMemory/sparse_aware", 0xded628e5fad8ea62, 0x5e9ac93a384692d9),
    ("GlobalMemory/subtraction", 0xded628e5fad8ea62, 0x99f682e81de58aff),
    ("SharedMemory/dense", 0xded628e5fad8ea62, 0xfa54236cb0bf4193),
    ("SharedMemory/sparse_aware", 0xded628e5fad8ea62, 0x1e973735ce7140ac),
    ("SharedMemory/subtraction", 0xded628e5fad8ea62, 0x3ad737ca005c074b),
    ("SortReduce/dense", 0xded628e5fad8ea62, 0x19374724bfbedf82),
    ("SortReduce/sparse_aware", 0xded628e5fad8ea62, 0xbf8fb0ce59fa9e64),
    ("SortReduce/subtraction", 0xded628e5fad8ea62, 0x68cf7083d98edd78),
    ("Adaptive/dense", 0xded628e5fad8ea62, 0xfa54236cb0bf4193),
    ("Adaptive/sparse_aware", 0xded628e5fad8ea62, 0x1e973735ce7140ac),
    ("Adaptive/subtraction", 0xded628e5fad8ea62, 0x3ad737ca005c074b),
    ("FP(2)", 0xded628e5fad8ea62, 0xd6cf3b8d1d2148f9),
    ("DP(2)", 0xded628e5fad8ea62, 0x65df109d0a6e898e),
];

#[rustfmt::skip]
const CHARGE_GOLDEN: &[(&str, u64, u64)] = &[
    ("FP(1)/streams1/none", 0x6fab8a4c9add4eb9, 0x70503113ca298d46),
    ("FP(1)/streams1/top2", 0x0a62be271fa56999, 0xde4f8568254add6f),
    ("FP(1)/streams4/none", 0x3018bc297e64ef9d, 0x38cd93ff5a344443),
    ("FP(1)/streams4/top2", 0x78abdb83ba854c85, 0x40698901d6d108c9),
    ("FP(2)/streams1/none", 0x8b9e0f7e45a12081, 0xef67ef696fe7935d),
    ("FP(2)/streams1/top2", 0x026beb229af1cf47, 0xd9015bfd0e804e51),
    ("FP(2)/streams4/none", 0xe097100d838e78a7, 0x3c2593a1ea76bbf2),
    ("FP(2)/streams4/top2", 0x85bc7b2cec7fbcf8, 0xb23607af8c976ec7),
    ("FP(3)/streams1/none", 0x48af35a900ae40b9, 0xdbea5c08337aa153),
    ("FP(3)/streams1/top2", 0xda13f9e6778ce45a, 0xf9f97ec3d1dda71c),
    ("FP(3)/streams4/none", 0x245857953ef3a5e5, 0x2b02d1373cb4b81c),
    ("FP(3)/streams4/top2", 0x7816adc50e9ce402, 0x4606b61666ecf256),
    ("FP(3)/transient", 0x69541ec39c6c3e1b, 0xcae0214a60f35cc1),
    ("FP(3)/lost", 0x6eb709ebcb1b79fe, 0xc909273c95dc4638),
    ("DP(1)/streams1/none", 0x4732f0562050d341, 0x70503113ca298d46),
    ("DP(1)/streams1/top2", 0x9bbef3b8a7f7a5fb, 0xde4f8568254add6f),
    ("DP(1)/streams4/none", 0xf6e5041419019e6d, 0x70503113ca298d46),
    ("DP(1)/streams4/top2", 0x91ef9d111bfe1cba, 0xde4f8568254add6f),
    ("DP(2)/streams1/none", 0x488912eccc90be02, 0x1058320fa58f2178),
    ("DP(2)/streams1/top2", 0x7bea702261e833b0, 0xe668a62bbfb79601),
    ("DP(2)/streams4/none", 0x36c06adddea83f9d, 0x4d3a00c4e0c64629),
    ("DP(2)/streams4/top2", 0x2b4c751dfe2eabec, 0x583169f559f5e65e),
    ("DP(3)/streams1/none", 0x5e4dd3903ceb8426, 0x5fce1ebab35c09cb),
    ("DP(3)/streams1/top2", 0xf25cd757eb189d9a, 0x4787c9835d2dc615),
    ("DP(3)/streams4/none", 0x2b0ed8195d862c09, 0x65d39cbcd5bfbd6c),
    ("DP(3)/streams4/top2", 0x046537f81fe70399, 0x0e53c4ee51e0e7c0),
    ("DP(3)/transient", 0x720635398a32cc54, 0x412dd0e5720350b0),
    ("DP(3)/lost", 0x990aca1063453ac8, 0xf802ea79a4e865c3),
];

fn dataset() -> Dataset {
    // Sparse enough that the sparsity-aware path folds a real zero bin,
    // with d = 5 outputs so the histogram has an output axis to lay out.
    make_classification(&ClassificationSpec {
        instances: 400,
        features: 12,
        classes: 5,
        informative: 8,
        sparsity: 0.4,
        seed: 21,
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

/// FNV-1a over little-endian words: stable across toolchains, unlike
/// `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for byte in s.bytes() {
            self.word(byte as u64);
        }
    }
}

/// Hash of every tree's split features, bins, threshold bits and
/// leaf-value bits, left open so [`fingerprint`] can extend it.
fn trees_hash(report: &TrainReport) -> Fnv {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for tree in &report.model.trees {
        h.word(tree.num_nodes() as u64);
        for node in tree.nodes() {
            match node {
                Node::Split {
                    feature,
                    bin,
                    threshold,
                    ..
                } => {
                    h.word(*feature as u64);
                    h.word(*bin as u64);
                    h.word(threshold.to_bits() as u64);
                }
                Node::Leaf { value } => {
                    for v in value {
                        h.word(v.to_bits() as u64);
                    }
                }
            }
        }
    }
    h
}

/// Hash of the fit's simulated total ns bits.
fn sim_hash(report: &TrainReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(report.sim.total_ns.to_bits());
    h.0
}

/// The trees hash followed by the simulated total ns bits: the seed of
/// every [`charge_fingerprint`].
fn fingerprint(report: &TrainReport) -> u64 {
    let mut h = trees_hash(report);
    h.word(report.sim.total_ns.to_bits());
    h.0
}

/// A single-device or `GOLDEN` multi-GPU row: `(label, trees, sim)`.
fn row(label: String, report: &TrainReport) -> (String, u64, u64) {
    (label, trees_hash(report).0, sim_hash(report))
}

/// [`fingerprint`] extended by everything a multi-GPU fit charges: the
/// chosen histogram methods and each device's clock and full charge
/// stream in order.
fn charge_fingerprint(report: &TrainReport, group: &DeviceGroup) -> u64 {
    let mut h = Fnv(fingerprint(report));
    for (method, count) in &report.hist_methods {
        h.text(&format!("{method:?}"));
        h.word(*count as u64);
    }
    for dev in group.devices() {
        h.word(dev.now_ns().to_bits());
        let records = dev.records();
        h.word(records.len() as u64);
        for r in &records {
            h.text(r.name);
            h.text(&format!("{:?}", r.phase));
            h.word(r.stream as u64);
            h.word(r.start_ns.to_bits());
            h.word(r.ns.to_bits());
        }
    }
    h.0
}

/// The counters and gauges a fit recorded on its group's registry.
fn telemetry_fingerprint(tel: &Telemetry) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let snap = tel.snapshot();
    for (name, v) in &snap.counters {
        h.text(name);
        h.word(*v);
    }
    for (name, v) in &snap.gauges {
        h.text(name);
        h.word(v.to_bits());
    }
    h.0
}

/// Fault injected on device 1 of a charge-stream row.
#[derive(Clone, Copy)]
enum Fault {
    None,
    Transient,
    Lost,
}

fn multigpu_fit(
    strategy: MultiGpuStrategy,
    k: usize,
    streams: usize,
    sketch: OutputSketch,
    fault: Fault,
) -> (u64, u64) {
    let cfg = TrainConfig {
        streams,
        sketch,
        ..config(HistOptions::default())
    };
    let group = DeviceGroup::rtx4090s(k);
    let tel = Arc::new(Telemetry::new());
    for dev in group.devices() {
        dev.attach_telemetry(tel.clone());
    }
    // Charge 30 on device 1 lands inside the first boosting round.
    let cfg = match fault {
        Fault::None => cfg,
        Fault::Transient => {
            group
                .device(1)
                .enable_faults(FaultPlan::new().transient_at(30));
            cfg.with_retry(RetryPolicy::retries(2))
        }
        Fault::Lost => {
            group
                .device(1)
                .enable_faults(FaultPlan::new().device_lost_at(30));
            cfg
        }
    };
    let report =
        MultiGpuTrainer::with_strategy(group.clone(), cfg, strategy).fit_report(&dataset());
    if !matches!(fault, Fault::None) {
        let faults = group.device(1).fault_report().expect("injector attached");
        assert_eq!(
            faults.transient_injected + faults.device_lost,
            1,
            "the fault fired"
        );
    }
    (
        charge_fingerprint(&report, &group),
        telemetry_fingerprint(&tel),
    )
}

fn multigpu_fits() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (tag, strategy) in [
        ("FP", MultiGpuStrategy::FeatureParallel),
        ("DP", MultiGpuStrategy::DataParallel),
    ] {
        for k in 1..=3 {
            for streams in [1, 4] {
                for sketch in [OutputSketch::None, OutputSketch::TopOutputs(2)] {
                    let label = format!("{tag}({k})/streams{streams}/{}", sketch.label());
                    let (charges, tel) = multigpu_fit(strategy, k, streams, sketch, Fault::None);
                    out.push((label, charges, tel));
                }
            }
        }
        for (label, fault) in [("transient", Fault::Transient), ("lost", Fault::Lost)] {
            let (charges, tel) = multigpu_fit(strategy, 3, 1, OutputSketch::None, fault);
            out.push((format!("{tag}(3)/{label}"), charges, tel));
        }
    }
    out
}

fn fits() -> Vec<(String, u64, u64)> {
    let ds = dataset();
    let mut out = Vec::new();
    for method in [
        HistogramMethod::GlobalMemory,
        HistogramMethod::SharedMemory,
        HistogramMethod::SortReduce,
        HistogramMethod::Adaptive,
    ] {
        let variants = [
            ("dense", HistOptions::default()),
            (
                "sparse_aware",
                HistOptions {
                    sparse_aware: true,
                    ..HistOptions::default()
                },
            ),
            (
                "subtraction",
                HistOptions {
                    subtraction: true,
                    ..HistOptions::default()
                },
            ),
        ];
        for (label, opts) in variants {
            let hist = HistOptions { method, ..opts };
            let report = GpuTrainer::new(Device::rtx4090(), config(hist)).fit_report(&ds);
            out.push(row(format!("{method:?}/{label}"), &report));
        }
    }
    for (label, strategy) in [
        ("FP(2)", MultiGpuStrategy::FeatureParallel),
        ("DP(2)", MultiGpuStrategy::DataParallel),
    ] {
        let trainer = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(2),
            config(HistOptions::default()),
            strategy,
        );
        out.push(row(label.to_string(), &trainer.fit_report(&ds)));
    }
    out
}

#[test]
fn trained_models_and_clocks_match_their_golden_fingerprints() {
    let got = fits();
    let got_streams = multigpu_fits();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        for (label, trees, sim) in &got {
            println!("    (\"{label}\", {trees:#018x}, {sim:#018x}),");
        }
        println!();
        for (label, charges, tel) in &got_streams {
            println!("    (\"{label}\", {charges:#018x}, {tel:#018x}),");
        }
        return;
    }
    let owned = |rows: &[(&str, u64, u64)]| -> Vec<(String, u64, u64)> {
        rows.iter()
            .map(|&(l, a, b)| (l.to_string(), a, b))
            .collect()
    };
    let first = |rows: &[(String, u64, u64)]| -> Vec<(String, u64)> {
        rows.iter().map(|(l, a, _)| (l.clone(), *a)).collect()
    };
    let second = |rows: &[(String, u64, u64)]| -> Vec<(String, u64)> {
        rows.iter().map(|(l, _, b)| (l.clone(), *b)).collect()
    };
    // Trees first: a model that moved is reported as such even when its
    // clock moved with it.
    // Subtraction derives a sibling's histogram instead of building it,
    // and its derives are charged as one kernel per level; neither may
    // move a tree, whatever the method.
    let trees_of = |label: &str| got.iter().find(|(l, _, _)| l == label).map(|r| r.1);
    for method in ["GlobalMemory", "SharedMemory", "SortReduce", "Adaptive"] {
        let dense = trees_of(&format!("{method}/dense"));
        assert!(dense.is_some(), "{method}/dense row");
        assert_eq!(
            trees_of(&format!("{method}/subtraction")),
            dense,
            "{method}: subtraction moved a tree"
        );
    }
    let want = owned(GOLDEN);
    assert_eq!(first(&got), first(&want), "a trained model moved");
    assert_eq!(second(&got), second(&want), "a fit's simulated clock moved");
    // Charges first: a charge that moved is reported as such even when
    // the telemetry moved with it.
    let want_streams = owned(CHARGE_GOLDEN);
    let (charges, telemetry) = (first, second);
    assert_eq!(
        charges(&got_streams),
        charges(&want_streams),
        "a multi-GPU charge stream or clock moved"
    );
    assert_eq!(
        telemetry(&got_streams),
        telemetry(&want_streams),
        "the telemetry a multi-GPU fit records moved"
    );
}
