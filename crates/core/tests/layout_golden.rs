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
    ("GlobalMemory/dense", 0xded628e5fad8ea62, 0xc7c525e78dcfd6b5),
    ("GlobalMemory/sparse_aware", 0xded628e5fad8ea62, 0x13a793f67ea774ba),
    ("GlobalMemory/subtraction", 0xded628e5fad8ea62, 0x796130bf5f6173c1),
    ("SharedMemory/dense", 0xded628e5fad8ea62, 0x9f27e7036239fe38),
    ("SharedMemory/sparse_aware", 0xded628e5fad8ea62, 0xe1cfbf4cbc41388c),
    ("SharedMemory/subtraction", 0xded628e5fad8ea62, 0xf67c9dc07332ba00),
    ("SortReduce/dense", 0xded628e5fad8ea62, 0x19374724bfbedf82),
    ("SortReduce/sparse_aware", 0xded628e5fad8ea62, 0xbf8fb0ce59fa9e64),
    ("SortReduce/subtraction", 0xded628e5fad8ea62, 0xfb2074854e6f51bc),
    ("Adaptive/dense", 0xded628e5fad8ea62, 0x760ba4ece5c0b23f),
    ("Adaptive/sparse_aware", 0xded628e5fad8ea62, 0xfe92bf0163d609bf),
    ("Adaptive/subtraction", 0xded628e5fad8ea62, 0x18c75f62e43de574),
    ("FP(2)", 0xded628e5fad8ea62, 0xb87066229958c51a),
    ("DP(2)", 0xded628e5fad8ea62, 0x12e3d5d0e87d007b),
];

#[rustfmt::skip]
const CHARGE_GOLDEN: &[(&str, u64, u64)] = &[
    ("FP(1)/streams1/none", 0x80a15b50f2e6c7d4, 0x0bab553334e690b1),
    ("FP(1)/streams1/top2", 0x5305235d8eac67e9, 0xbd35b0e7c2df344c),
    ("FP(1)/streams4/none", 0x756096d3ce266a27, 0x8e4a4501ca1421ad),
    ("FP(1)/streams4/top2", 0xa71537711c02b67e, 0x21bc78c4d2cbd7b0),
    ("FP(2)/streams1/none", 0xcecb93a26694fa4e, 0x3a723188c299c64f),
    ("FP(2)/streams1/top2", 0x72f9157b101dc7fa, 0xe34998b27a47c3d7),
    ("FP(2)/streams4/none", 0x37ca5b9ef738b670, 0xbb8982b4b0115eb8),
    ("FP(2)/streams4/top2", 0x80af83824bc715c9, 0x02ee80c7e6899fd8),
    ("FP(3)/streams1/none", 0x4bc97f4cda7bab60, 0x5e4864f03db59ff1),
    ("FP(3)/streams1/top2", 0xbcf190344f2baf5c, 0xfc64bf316efe400a),
    ("FP(3)/streams4/none", 0x814f33689b72236b, 0xd104c04af95d65c8),
    ("FP(3)/streams4/top2", 0x951acbfccc4ad15f, 0xfebe4bda40716b5f),
    ("FP(3)/transient", 0x8497d4b701423d9a, 0xdc1c4ccd309babfe),
    ("FP(3)/lost", 0xb44edd32773a1685, 0xc65ad40dd213b1d4),
    ("DP(1)/streams1/none", 0x80a15b50f2e6c7d4, 0x0bab553334e690b1),
    ("DP(1)/streams1/top2", 0x5305235d8eac67e9, 0xbd35b0e7c2df344c),
    ("DP(1)/streams4/none", 0x756096d3ce266a27, 0x8e4a4501ca1421ad),
    ("DP(1)/streams4/top2", 0xa71537711c02b67e, 0x21bc78c4d2cbd7b0),
    ("DP(2)/streams1/none", 0xe4a89025c6443dd1, 0x85d7bce59e9c7454),
    ("DP(2)/streams1/top2", 0x29fdb9a9de58d129, 0xd4448a4551330400),
    ("DP(2)/streams4/none", 0x9be4505e93a58793, 0x9b2e7abed90d68c8),
    ("DP(2)/streams4/top2", 0xa25a84270f209913, 0xaa0165c20a23cb5c),
    ("DP(3)/streams1/none", 0x44e32a5175799e63, 0xfc7c7fe69c068eb6),
    ("DP(3)/streams1/top2", 0x54d3c784ec9d59b7, 0x5eeb1af07fe7b18d),
    ("DP(3)/streams4/none", 0xd2372fcd912e48e4, 0x3cdaeceb0b387bf4),
    ("DP(3)/streams4/top2", 0xc07a9c1d41339f5b, 0x6eda58872e104c07),
    ("DP(3)/transient", 0x20c662b435875eb2, 0xaf7665d4ae74f1a1),
    ("DP(3)/lost", 0x6837e4ac50460721, 0xf99f98f98734ce80),
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
