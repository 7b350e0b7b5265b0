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
//! retry and a device loss on a 3-device group. Those rows also hash
//! `TrainReport::hist_methods`, every device's clock and charge records
//! (name, phase, stream, start and duration bits) and the counters and
//! gauges of a telemetry registry shared by the group.
//!
//! A mismatch means the model or the charged cost moved. If that is
//! intended, print the new table with
//! `UPDATE_GOLDEN=1 cargo test -p gbdt-core --test layout_golden -- --nocapture`
//! and paste it over `GOLDEN`.

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
    ("FP(1)/streams1/none", 0xea5bcf74def61c3d),
    ("FP(1)/streams1/top2", 0xdecf9ba09de07a52),
    ("FP(1)/streams4/none", 0x891106cb91f69780),
    ("FP(1)/streams4/top2", 0x3f7c0df8f729d874),
    ("FP(2)/streams1/none", 0xd173f1b14467a59c),
    ("FP(2)/streams1/top2", 0xfd77398d24ba5892),
    ("FP(2)/streams4/none", 0xbe87aed11922bb9f),
    ("FP(2)/streams4/top2", 0x9469e60cfb7eb1a9),
    ("FP(3)/streams1/none", 0x42061082d6f6fc66),
    ("FP(3)/streams1/top2", 0xbd5cf9eaa215cb13),
    ("FP(3)/streams4/none", 0x43b53511bd5ff0bc),
    ("FP(3)/streams4/top2", 0x6c33004cc3d96d1e),
    ("FP(3)/transient", 0x71c00412e3e47fa0),
    ("FP(3)/lost", 0x1d600263586f7281),
    ("DP(1)/streams1/none", 0xd693857fae7b312c),
    ("DP(1)/streams1/top2", 0xd3f441ef7b84fb5b),
    ("DP(1)/streams4/none", 0x9ab5de219c162600),
    ("DP(1)/streams4/top2", 0x9934eb2af639afde),
    ("DP(2)/streams1/none", 0x737df4043b5ff295),
    ("DP(2)/streams1/top2", 0xf0d608abb3d46b8f),
    ("DP(2)/streams4/none", 0xc7749903c252303a),
    ("DP(2)/streams4/top2", 0x50835c1dd8c256f8),
    ("DP(3)/streams1/none", 0x2b96d30a45e5b7d5),
    ("DP(3)/streams1/top2", 0xf88bd1f7c841826d),
    ("DP(3)/streams4/none", 0x25994e9f631c1ad9),
    ("DP(3)/streams4/top2", 0xfdb867388b96300b),
    ("DP(3)/transient", 0x93fa1e2357755e51),
    ("DP(3)/lost", 0x1391e578365a43f3),
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

/// [`fingerprint`] extended by everything a multi-GPU fit books: the
/// chosen histogram methods, each device's clock and full charge
/// stream in order, and the group registry's counters and gauges.
fn charge_stream_fingerprint(report: &TrainReport, group: &DeviceGroup, tel: &Telemetry) -> u64 {
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
) -> u64 {
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
    charge_stream_fingerprint(&report, &group, &tel)
}

fn multigpu_fits() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (tag, strategy) in [
        ("FP", MultiGpuStrategy::FeatureParallel),
        ("DP", MultiGpuStrategy::DataParallel),
    ] {
        for k in 1..=3 {
            for streams in [1, 4] {
                for sketch in [OutputSketch::None, OutputSketch::TopOutputs(2)] {
                    let label = format!("{tag}({k})/streams{streams}/{}", sketch.label());
                    let hash = multigpu_fit(strategy, k, streams, sketch, Fault::None);
                    out.push((label, hash));
                }
            }
        }
        for (label, fault) in [("transient", Fault::Transient), ("lost", Fault::Lost)] {
            let hash = multigpu_fit(strategy, 3, 1, OutputSketch::None, fault);
            out.push((format!("{tag}(3)/{label}"), hash));
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
    out.extend(multigpu_fits());
    out
}

#[test]
fn trained_models_and_clocks_match_their_golden_fingerprints() {
    let got = fits();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        for (label, hash) in &got {
            println!("    (\"{label}\", {hash:#018x}),");
        }
        return;
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    assert_eq!(got, want, "a trained model or its simulated clock moved");
}
