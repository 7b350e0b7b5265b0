//! Golden fingerprints of trained models: the host histogram's memory
//! layout is an implementation detail and must never change a model or
//! the simulated clock.
//!
//! Small fixed-seed fits run over every histogram method × {dense,
//! sparsity-aware, subtraction} on one device, plus the feature- and
//! data-parallel multi-GPU trainers on two devices. Each fit is reduced
//! to an FNV-1a hash of every tree's split features, bins, threshold
//! bits and leaf-value bits, followed by the fit's simulated total ns
//! bits, and compared with the committed value.
//!
//! A second set of rows pins the multi-GPU trainers' whole charge
//! stream: {feature, data} parallel × {1, 2, 3} devices × {1, 4}
//! streams × {no sketch, top-2 sketch}, plus a transient fault with a
//! retry and a device loss on a 3-device group. Each of those rows
//! carries two hashes. The charges hash extends the fingerprint by
//! `TrainReport::hist_methods` and every device's clock and charge
//! records (name, phase, stream, start and duration bits). The
//! telemetry hash covers the counters and gauges of a registry shared
//! by the group, so a change in what a fit observes never hides a
//! change in what it charges.
//!
//! A mismatch means the model, the charged cost or the recorded
//! telemetry moved. If that is intended, print the new tables with
//! `UPDATE_GOLDEN=1 cargo test -p gbdt-core --test layout_golden -- --nocapture`
//! and paste them over `GOLDEN` and `CHARGE_GOLDEN`.

use gbdt_core::config::TrainConfig;
use gbdt_core::multigpu::{MultiGpuStrategy, MultiGpuTrainer};
use gbdt_core::trainer::{GpuTrainer, TrainReport};
use gbdt_core::tree::Node;
use gbdt_core::{HistOptions, HistogramMethod, OutputSketch, RetryPolicy};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, FaultPlan, Telemetry};
use std::sync::Arc;

const GOLDEN: &[(&str, u64)] = &[
    ("GlobalMemory/dense", 0xa48611ddbdb59ce1),
    ("GlobalMemory/sparse_aware", 0xb7bd5256a4f5e471),
    ("GlobalMemory/subtraction", 0x5edcf2c1c7d573fb),
    ("SharedMemory/dense", 0x169163d641cbc62f),
    ("SharedMemory/sparse_aware", 0xaf6fe37cabaa3576),
    ("SharedMemory/subtraction", 0xd060fb8106320513),
    ("SortReduce/dense", 0x5b3bf1b7db0208b1),
    ("SortReduce/sparse_aware", 0x292f61bdc7b51bf7),
    ("SortReduce/subtraction", 0x8d4284487240f9e4),
    ("Adaptive/dense", 0x4ddfec1ea3e5a4aa),
    ("Adaptive/sparse_aware", 0xb7bd5256a4f5e471),
    ("Adaptive/subtraction", 0x02d13954346203fb),
    ("FP(2)", 0xfcd2af056361c017),
    ("DP(2)", 0xc90535a73bb9d6d6),
];

#[rustfmt::skip]
const CHARGE_GOLDEN: &[(&str, u64, u64)] = &[
    ("FP(1)/streams1/none", 0xf0fe574812263df8, 0x97465ff69a01efc6),
    ("FP(1)/streams1/top2", 0xccd7428be831d6b7, 0xde4f8568254add6f),
    ("FP(1)/streams4/none", 0x243292e233af1b25, 0x366849b1e421265b),
    ("FP(1)/streams4/top2", 0xb57e312722dd05d1, 0x1b618479c48a06c9),
    ("FP(2)/streams1/none", 0xe4ce8dcfe9b18b8a, 0xef67ef696fe7935d),
    ("FP(2)/streams1/top2", 0xa77d64d0c60987c4, 0xd9015bfd0e804e51),
    ("FP(2)/streams4/none", 0x16ae2f95ac775d4d, 0x11d392511e05fb16),
    ("FP(2)/streams4/top2", 0x392e377cbed543bf, 0x815a43329f1cb05a),
    ("FP(3)/streams1/none", 0x330f5e284852b606, 0xdbea5c08337aa153),
    ("FP(3)/streams1/top2", 0x0daa6823f9048f5b, 0xf9f97ec3d1dda71c),
    ("FP(3)/streams4/none", 0xffc9e0f330216a68, 0xc2c25f53d4aa6f70),
    ("FP(3)/streams4/top2", 0x1db35566f8494a6a, 0x0e6072d2f7baf9cc),
    ("FP(3)/transient", 0xafa3f88de2bc6ab2, 0xcae0214a60f35cc1),
    ("FP(3)/lost", 0xc9c4197324534a76, 0xc909273c95dc4638),
    ("DP(1)/streams1/none", 0xa11a7a09228eab89, 0x97465ff69a01efc6),
    ("DP(1)/streams1/top2", 0xb458d03b218f559e, 0xde4f8568254add6f),
    ("DP(1)/streams4/none", 0xb0f306690946b9a5, 0x97465ff69a01efc6),
    ("DP(1)/streams4/top2", 0x2214be8f79e89ebb, 0xde4f8568254add6f),
    ("DP(2)/streams1/none", 0xd4b5cffcd54247c7, 0x8e3f1bfe294f3ddd),
    ("DP(2)/streams1/top2", 0xa3a673d8469592c1, 0x125973781d485a3d),
    ("DP(2)/streams4/none", 0x95b6d52ec8b4f078, 0x24bbbd6c4132d803),
    ("DP(2)/streams4/top2", 0xa8c65840212e3502, 0xa767aed894aae258),
    ("DP(3)/streams1/none", 0xf6352ea18ffba4c6, 0x28383733b02a0ddc),
    ("DP(3)/streams1/top2", 0x8b72a1f008d33fdc, 0x3876f5831dc5683d),
    ("DP(3)/streams4/none", 0x229897f740207702, 0xd3f42cda6b5267f4),
    ("DP(3)/streams4/top2", 0xa89cf12c90f1994a, 0xf867c6e7c2707edb),
    ("DP(3)/transient", 0x264635b2b82b2cbc, 0x24b66699e991dafe),
    ("DP(3)/lost", 0x440f8f2187e1c805, 0x735b90495613e1fd),
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

fn fingerprint(report: &TrainReport) -> u64 {
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
    h.word(report.sim.total_ns.to_bits());
    h.0
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

fn fits() -> Vec<(String, u64)> {
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
            out.push((format!("{method:?}/{label}"), fingerprint(&report)));
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
        out.push((label.to_string(), fingerprint(&trainer.fit_report(&ds))));
    }
    out
}

#[test]
fn trained_models_and_clocks_match_their_golden_fingerprints() {
    let got = fits();
    let got_streams = multigpu_fits();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        for (label, hash) in &got {
            println!("    (\"{label}\", {hash:#018x}),");
        }
        println!();
        for (label, charges, tel) in &got_streams {
            println!("    (\"{label}\", {charges:#018x}, {tel:#018x}),");
        }
        return;
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    assert_eq!(got, want, "a trained model or its simulated clock moved");
    // Charges first: a charge that moved is reported as such even when
    // the telemetry moved with it.
    let want_streams: Vec<(String, u64, u64)> = CHARGE_GOLDEN
        .iter()
        .map(|&(l, c, t)| (l.to_string(), c, t))
        .collect();
    let charges = |rows: &[(String, u64, u64)]| -> Vec<(String, u64)> {
        rows.iter().map(|(l, c, _)| (l.clone(), *c)).collect()
    };
    let telemetry = |rows: &[(String, u64, u64)]| -> Vec<(String, u64)> {
        rows.iter().map(|(l, _, t)| (l.clone(), *t)).collect()
    };
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
