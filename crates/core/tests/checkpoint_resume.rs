//! Property test: checkpoint after tree `t`, resume on a fresh device,
//! and the resumed run is bit-identical to the uninterrupted one — for
//! every histogram method × output-sketch mode combination, and on
//! device groups of either layout.
//!
//! "Bit-identical" covers three layers: the grown trees, the final
//! predictions, and the simulated charge stream (each resumed device's
//! records after its two preprocess charges must match the tail of the
//! same rank's uninterrupted stream exactly, name and bit-pattern).

use gbdt_core::config::{OutputSketch, TrainConfig};
use gbdt_core::trainer::GpuTrainer;
use gbdt_core::{Checkpoint, HistOptions, HistogramMethod, MultiGpuStrategy};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, DeviceProps, KernelRecord};

fn dataset() -> Dataset {
    make_classification(&ClassificationSpec {
        instances: 250,
        features: 8,
        classes: 6,
        informative: 6,
        seed: 9,
        ..Default::default()
    })
}

fn grid() -> Vec<(HistogramMethod, OutputSketch)> {
    let methods = [
        HistogramMethod::GlobalMemory,
        HistogramMethod::SharedMemory,
        HistogramMethod::SortReduce,
        HistogramMethod::Adaptive,
    ];
    let sketches = [
        OutputSketch::None,
        OutputSketch::TopOutputs(2),
        OutputSketch::RandomSampling(2),
        OutputSketch::RandomProjection(2),
    ];
    methods
        .into_iter()
        .flat_map(|h| sketches.into_iter().map(move |s| (h, s)))
        .collect()
}

#[test]
fn resume_is_bit_identical_across_hist_methods_and_sketches() {
    let ds = dataset();
    for (hist, sketch) in grid() {
        let cfg = TrainConfig {
            num_trees: 6,
            max_depth: 3,
            max_bins: 16,
            min_instances: 5,
            hist: HistOptions {
                method: hist,
                ..HistOptions::default()
            },
            sketch,
            ..TrainConfig::default()
        };
        let label = format!("{hist:?}/{}", sketch.label());

        let dev_a = Device::new(0, DeviceProps::rtx4090());
        let trainer = GpuTrainer::try_new(dev_a.clone(), cfg.clone())
            .unwrap_or_else(|e| panic!("{label}: invalid config: {e}"));
        let (full, checkpoints) = trainer
            .try_fit_checkpointed(&ds)
            .unwrap_or_else(|e| panic!("{label}: checkpointed fit failed: {e}"));
        assert_eq!(checkpoints.len(), 6, "{label}: one checkpoint per tree");

        let ck = checkpoints
            .iter()
            .find(|c| c.completed_trees == 3)
            .unwrap_or_else(|| panic!("{label}: no checkpoint at tree 3"));
        // Serialization roundtrip must preserve the resume point.
        let ck = Checkpoint::from_bytes(&ck.to_bytes())
            .unwrap_or_else(|e| panic!("{label}: checkpoint roundtrip failed: {e}"));
        assert_eq!(ck.completed_trees, 3);

        let dev_b = Device::new(0, DeviceProps::rtx4090());
        let resumed = gbdt_core::Model::resume_from(dev_b.clone(), &ck, &ds)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));

        assert_eq!(
            resumed.model.trees, full.model.trees,
            "{label}: resumed trees diverged"
        );
        assert_eq!(
            resumed.model.predict(ds.features()),
            full.model.predict(ds.features()),
            "{label}: resumed predictions diverged"
        );

        // Charge-stream identity: after its preprocess re-charges the
        // resumed device must book exactly the tail of the
        // uninterrupted stream.
        assert_resumed_tail(&label, &dev_a.records(), &dev_b.records());
    }
}

/// Assert that `resumed`, after its two preprocess charges
/// (htod_features + quantile_binning), booked exactly the tail of
/// `full`, name and bit-pattern.
fn assert_resumed_tail(label: &str, full: &[KernelRecord], resumed: &[KernelRecord]) {
    assert!(
        resumed.len() > 2,
        "{label}: resumed run booked no round work"
    );
    let tail = &resumed[2..];
    assert!(
        full.len() >= tail.len(),
        "{label}: resumed stream longer than the full run"
    );
    for (x, y) in full[full.len() - tail.len()..].iter().zip(tail) {
        assert_eq!(x.name, y.name, "{label}: kernel sequence drifted");
        assert_eq!(
            x.ns.to_bits(),
            y.ns.to_bits(),
            "{label}: {} charge drifted on resume",
            x.name
        );
    }
}

/// A device group checkpoints and resumes as one device does: a fresh
/// group of the same size and strategy, resumed from the tree-3
/// checkpoint after a bytes round-trip, grows the uninterrupted group's
/// trees and predictions, and each of its devices books the tail of the
/// same rank's uninterrupted charge stream.
#[test]
fn group_resume_is_bit_identical_to_the_uninterrupted_group_fit() {
    let ds = dataset();
    for strategy in [
        MultiGpuStrategy::FeatureParallel,
        MultiGpuStrategy::DataParallel,
    ] {
        for streams in [1, 4] {
            let cfg = TrainConfig {
                num_trees: 6,
                max_depth: 3,
                max_bins: 16,
                min_instances: 5,
                streams,
                ..TrainConfig::default()
            };
            let label = format!("{strategy:?}(2) streams {streams}");
            let group_a = DeviceGroup::rtx4090s(2);
            let (full, checkpoints) =
                GpuTrainer::try_with_strategy(group_a.clone(), cfg.clone(), strategy)
                    .unwrap_or_else(|e| panic!("{label}: invalid config: {e}"))
                    .try_fit_checkpointed(&ds)
                    .unwrap_or_else(|e| panic!("{label}: checkpointed fit failed: {e}"));
            assert_eq!(checkpoints.len(), 6, "{label}: one checkpoint per tree");
            let ck = Checkpoint::from_bytes(&checkpoints[2].to_bytes())
                .unwrap_or_else(|e| panic!("{label}: checkpoint roundtrip failed: {e}"));
            assert_eq!(ck.completed_trees, 3);

            let group_b = DeviceGroup::rtx4090s(2);
            let resumed =
                GpuTrainer::try_with_strategy(group_b.clone(), ck.config.clone(), strategy)
                    .unwrap_or_else(|e| panic!("{label}: invalid config: {e}"))
                    .try_fit_resumed(&ds, &ck)
                    .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            assert_eq!(
                resumed.model.trees, full.model.trees,
                "{label}: resumed trees diverged"
            );
            assert_eq!(
                resumed.model.predict(ds.features()),
                full.model.predict(ds.features()),
                "{label}: resumed predictions diverged"
            );
            for (rank, (a, b)) in group_a.devices().iter().zip(group_b.devices()).enumerate() {
                assert_resumed_tail(&format!("{label} rank {rank}"), &a.records(), &b.records());
            }
        }
    }
}

/// Resuming from the final checkpoint grows nothing: the model is
/// already complete and only the preprocess charges are booked.
#[test]
fn resume_from_final_checkpoint_is_a_no_op_fit() {
    let ds = dataset();
    let cfg = TrainConfig {
        num_trees: 4,
        max_depth: 3,
        max_bins: 16,
        min_instances: 5,
        ..TrainConfig::default()
    };
    let dev_a = Device::new(0, DeviceProps::rtx4090());
    let (full, checkpoints) = GpuTrainer::try_new(dev_a, cfg)
        .expect("valid config")
        .try_fit_checkpointed(&ds)
        .expect("fit succeeds");
    let last = checkpoints.last().expect("checkpoints recorded");
    assert_eq!(last.completed_trees, 4);

    let dev_b = Device::new(0, DeviceProps::rtx4090());
    let resumed = gbdt_core::Model::resume_from(dev_b.clone(), last, &ds).expect("resume");
    assert_eq!(resumed.model.trees, full.model.trees);
    assert_eq!(
        dev_b.records().len(),
        2,
        "only htod_features + quantile_binning should be charged"
    );
}

/// A checkpoint whose embedded config carries a key the config type no
/// longer has (`parallel_level_hist`, a removed host-threading toggle)
/// still loads, and resuming from it is bit-identical to the
/// uninterrupted fit: trees, predictions and the charge stream's tail.
#[test]
fn checkpoint_with_a_removed_config_key_resumes_bit_identically() {
    let ds = dataset();
    let cfg = TrainConfig {
        num_trees: 4,
        max_depth: 3,
        max_bins: 16,
        min_instances: 5,
        hist: HistOptions {
            subtraction: true,
            ..HistOptions::default()
        },
        ..TrainConfig::default()
    };
    let dev_a = Device::new(0, DeviceProps::rtx4090());
    let (full, checkpoints) = GpuTrainer::try_new(dev_a.clone(), cfg)
        .expect("valid config")
        .try_fit_checkpointed(&ds)
        .expect("fit succeeds");
    let bytes = checkpoints[1].to_bytes();

    // The config JSON follows a 19-byte header and its u32 length.
    let len = u32::from_le_bytes(bytes[19..23].try_into().unwrap()) as usize;
    let json = std::str::from_utf8(&bytes[23..23 + len]).expect("config is JSON");
    assert!(!json.contains("parallel_level_hist"));
    let old = json.replacen('{', "{\"parallel_level_hist\":false,", 1);
    let mut spliced = bytes[..19].to_vec();
    spliced.extend((old.len() as u32).to_le_bytes());
    spliced.extend(old.as_bytes());
    spliced.extend(&bytes[23 + len..]);
    let ck = Checkpoint::from_bytes(&spliced).expect("an unknown config key is ignored");
    assert_eq!(ck.completed_trees, 2);

    let dev_b = Device::new(0, DeviceProps::rtx4090());
    let resumed = gbdt_core::Model::resume_from(dev_b.clone(), &ck, &ds).expect("resume");
    assert_eq!(resumed.model.trees, full.model.trees);
    assert_eq!(
        resumed.model.predict(ds.features()),
        full.model.predict(ds.features())
    );
    // After the two preprocess charges, the resumed stream is the tail
    // of the uninterrupted one.
    let (a, b) = (dev_a.records(), dev_b.records());
    let tail = &b[2..];
    assert!(!tail.is_empty() && a.len() >= tail.len());
    for (x, y) in a[a.len() - tail.len()..].iter().zip(tail) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.ns.to_bits(), y.ns.to_bits(), "{} charge drifted", x.name);
    }
}

/// A checkpoint taken against one dataset refuses to resume against a
/// mismatched one — typed error, not a wrong model.
#[test]
fn resume_rejects_mismatched_dataset() {
    let ds = dataset();
    let cfg = TrainConfig {
        num_trees: 3,
        max_depth: 3,
        max_bins: 16,
        min_instances: 5,
        ..TrainConfig::default()
    };
    let (_, checkpoints) = GpuTrainer::try_new(Device::rtx4090(), cfg)
        .expect("valid config")
        .try_fit_checkpointed(&ds)
        .expect("fit succeeds");
    let ck = &checkpoints[0];

    let other = make_classification(&ClassificationSpec {
        instances: 100,
        features: 8,
        classes: 6,
        informative: 6,
        seed: 10,
        ..Default::default()
    });
    let err = gbdt_core::Model::resume_from(Device::rtx4090(), ck, &other)
        .expect_err("shape mismatch must be rejected");
    assert!(!err.to_string().is_empty());
}

/// Corrupted checkpoint bytes are a typed error, never a panic.
#[test]
fn corrupted_checkpoint_bytes_are_typed_errors() {
    let ds = dataset();
    let cfg = TrainConfig {
        num_trees: 3,
        max_depth: 3,
        max_bins: 16,
        min_instances: 5,
        ..TrainConfig::default()
    };
    let (_, checkpoints) = GpuTrainer::try_new(Device::rtx4090(), cfg)
        .expect("valid config")
        .try_fit_checkpointed(&ds)
        .expect("fit succeeds");
    let bytes = checkpoints[1].to_bytes();

    // Truncation at every prefix length must fail cleanly.
    for len in 0..bytes.len().min(96) {
        assert!(
            Checkpoint::from_bytes(&bytes[..len]).is_err(),
            "truncation to {len} bytes must be rejected"
        );
    }
    // Bad magic.
    let mut bad = bytes.to_vec();
    bad[0] ^= 0xFF;
    assert!(Checkpoint::from_bytes(&bad).is_err());
    // Bad version.
    let mut bad = bytes.to_vec();
    bad[4] = 0xFF;
    assert!(Checkpoint::from_bytes(&bad).is_err());
}
