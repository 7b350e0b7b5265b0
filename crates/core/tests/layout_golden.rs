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
//! A mismatch means the model or the charged cost moved. If that is
//! intended, print the new table with
//! `UPDATE_GOLDEN=1 cargo test -p gbdt-core --test layout_golden -- --nocapture`
//! and paste it over `GOLDEN`.

use gbdt_core::config::TrainConfig;
use gbdt_core::multigpu::{MultiGpuStrategy, MultiGpuTrainer};
use gbdt_core::trainer::{GpuTrainer, TrainReport};
use gbdt_core::tree::Node;
use gbdt_core::{HistOptions, HistogramMethod};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup};

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
    ("DP(2)", 0xe08f27ddc4df2425),
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
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        for (label, hash) in &got {
            println!("    (\"{label}\", {hash:#018x}),");
        }
        return;
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    assert_eq!(got, want, "a trained model or its simulated clock moved");
}
