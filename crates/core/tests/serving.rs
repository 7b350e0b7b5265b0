//! Integration tests for the batched serving subsystem: differential
//! bit-identity against the interpreter, micro-batching semantics, cost
//! accounting, and observer (profiler/sanitizer) zero-perturbation.

use gbdt_core::compiled::CompiledEnsemble;
use gbdt_core::config::TrainConfig;
use gbdt_core::memory::estimate_serving_bytes;
use gbdt_core::predict::predict_raw;
use gbdt_core::serve::{BatchConfig, BatchServer, DeviceEnsemble};
use gbdt_core::trainer::GpuTrainer;
use gbdt_core::{Model, PredictMode};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::sanitize::SanitizeMode;
use gpusim::{Device, Phase};
use std::sync::Arc;

fn trained() -> (Model, Dataset) {
    let ds = make_classification(&ClassificationSpec {
        instances: 300,
        features: 12,
        classes: 5,
        informative: 8,
        seed: 77,
        ..Default::default()
    });
    let cfg = TrainConfig {
        num_trees: 10,
        max_depth: 5,
        max_bins: 32,
        min_instances: 5,
        ..TrainConfig::default()
    };
    (GpuTrainer::new(Device::rtx4090(), cfg).fit(&ds), ds)
}

fn serve_all(server: &mut BatchServer, ds: &Dataset, arrival: impl Fn(usize) -> f64) -> Vec<f32> {
    let n = ds.features().rows();
    let d = server.ensemble().d();
    let mut out = vec![0.0f32; n * d];
    let mut place = |b: gbdt_core::ServedBatch| {
        let start = b.first_id as usize * d;
        out[start..start + b.scores.len()].copy_from_slice(&b.scores);
    };
    for i in 0..n {
        for b in server.submit(arrival(i), ds.features().row(i)) {
            place(b);
        }
    }
    if let Some(b) = server.flush() {
        place(b);
    }
    out
}

/// Differential: `BatchServer` outputs are bit-identical to the
/// growth-form `predict_raw` oracle (as are `CompiledEnsemble::predict`
/// and `Model::predict`) across batch sizes, in both predict modes.
#[test]
fn batch_server_is_bit_identical_across_batch_sizes_and_modes() {
    let (model, ds) = trained();
    let reference = predict_raw(&model.trees, &model.base, ds.features());
    assert_eq!(model.predict(ds.features()), reference);
    let compiled = CompiledEnsemble::compile(&model);
    assert_eq!(compiled.predict(ds.features()), reference);
    let n = ds.features().rows();
    for mode in [PredictMode::InstanceLevel, PredictMode::TreeLevel] {
        for max_batch in [1usize, 7, 256, n] {
            let device = Device::rtx4090();
            let ens = DeviceEnsemble::upload(device, &compiled);
            let mut server = BatchServer::new(
                ens,
                BatchConfig {
                    max_batch,
                    mode,
                    ..BatchConfig::default()
                },
            )
            .expect("valid batch config");
            let got = serve_all(&mut server, &ds, |_| 0.0);
            assert_eq!(
                got, reference,
                "mode {mode:?} batch {max_batch} diverged from the predict_raw oracle"
            );
            let stats = server.stats();
            assert_eq!(stats.served, n as u64);
            assert_eq!(stats.batches as usize, n.div_ceil(max_batch));
            assert!(stats.p50_ns <= stats.p90_ns && stats.p90_ns <= stats.p99_ns);
            assert!(stats.p99_ns <= stats.max_ns);
            assert!(stats.throughput_rps > 0.0);
        }
    }
}

/// Serving charges land in `Phase::Serve`; the upload is a charged
/// transfer whose resident bytes match the memory estimate.
#[test]
fn upload_and_serve_charge_the_right_phases() {
    let (model, ds) = trained();
    let compiled = model.compile();
    let device = Device::rtx4090();
    let ens = DeviceEnsemble::upload(Arc::clone(&device), &compiled);
    let transfer_ns = device.summary().by_phase[&Phase::Transfer];
    assert!(transfer_ns > 0.0, "upload must charge Transfer");
    let est = estimate_serving_bytes(
        compiled.num_nodes(),
        compiled.num_leaf_values(),
        compiled.num_trees(),
        compiled.d(),
        ds.features().cols(),
        256,
    );
    assert_eq!(ens.resident_bytes(), est.resident_bytes());
    let _ = ens.predict(PredictMode::InstanceLevel, ds.features());
    let serve_ns = device.summary().by_phase[&Phase::Serve];
    assert!(serve_ns > 0.0, "prediction must charge Serve");
    // No Predict-phase leakage: serving is its own pipeline phase.
    assert!(!device.summary().by_phase.contains_key(&Phase::Predict));
}

/// Tree-level serving pays the partial-matrix reduction: strictly more
/// simulated time than instance-level on the same batch.
#[test]
fn tree_level_serving_charges_strictly_more() {
    let (model, ds) = trained();
    let compiled = model.compile();
    let mut times = Vec::new();
    for mode in [PredictMode::InstanceLevel, PredictMode::TreeLevel] {
        let device = Device::rtx4090();
        let ens = DeviceEnsemble::upload(Arc::clone(&device), &compiled);
        let t0 = device.now_ns();
        let _ = ens.predict(mode, ds.features());
        times.push(device.now_ns() - t0);
    }
    assert!(
        times[1] > times[0],
        "tree-level {} ns must exceed instance-level {} ns",
        times[1],
        times[0]
    );
}

/// The deadline trigger flushes the oldest pending request at
/// `arrival + max_delay_ns`, before the triggering arrival joins.
#[test]
fn deadline_flushes_stale_batches() {
    let (model, ds) = trained();
    let compiled = model.compile();
    let ens = DeviceEnsemble::upload(Device::rtx4090(), &compiled);
    let mut server = BatchServer::new(
        ens,
        BatchConfig {
            max_batch: 1000,
            max_delay_ns: 5_000.0,
            ..BatchConfig::default()
        },
    )
    .expect("valid batch config");
    let row = ds.features().row(0);
    assert!(server.submit(0.0, row).is_empty());
    assert!(server.submit(1_000.0, row).is_empty());
    // This arrival finds the oldest request 6 µs old → flush of the
    // two pending rows, stamped at the 5 µs deadline.
    let served = server.submit(6_000.0, row);
    assert_eq!(served.len(), 1);
    assert_eq!(served[0].rows, 2);
    assert_eq!(served[0].first_id, 0);
    assert!(served[0].completed_ns >= 5_000.0);
    let last = server.flush().expect("one row still pending");
    assert_eq!(last.first_id, 2);
    assert_eq!(last.rows, 1);
}

/// Batched submission beats single-row submission on throughput: one
/// launch per batch amortizes the fixed launch overhead.
#[test]
fn batching_amortizes_launch_overhead() {
    let (model, ds) = trained();
    let compiled = model.compile();
    let mut throughput = Vec::new();
    for max_batch in [1usize, 256] {
        let ens = DeviceEnsemble::upload(Device::rtx4090(), &compiled);
        let mut server = BatchServer::new(
            ens,
            BatchConfig {
                max_batch,
                ..BatchConfig::default()
            },
        )
        .expect("valid batch config");
        let _ = serve_all(&mut server, &ds, |_| 0.0);
        throughput.push(server.stats().throughput_rps);
    }
    assert!(
        throughput[1] > throughput[0] * 2.0,
        "batched {} rows/s should far exceed single-row {} rows/s",
        throughput[1],
        throughput[0]
    );
}

/// Degenerate batching policies are configuration errors, not panics:
/// a zero batch size would never flush, and NaN/negative deadlines
/// compare as never-expired.
#[test]
fn degenerate_batch_configs_are_typed_errors() {
    let (model, _) = trained();
    let compiled = model.compile();
    for cfg in [
        BatchConfig {
            max_batch: 0,
            ..BatchConfig::default()
        },
        BatchConfig {
            max_delay_ns: f64::NAN,
            ..BatchConfig::default()
        },
        BatchConfig {
            max_delay_ns: -1.0,
            ..BatchConfig::default()
        },
    ] {
        let ens = DeviceEnsemble::upload(Device::rtx4090(), &compiled);
        let err = match BatchServer::new(ens, cfg) {
            Err(e) => e,
            Ok(_) => panic!("degenerate config accepted: {cfg:?}"),
        };
        assert!(!err.message().is_empty());
    }
}

/// A zero deadline is legal: every arrival finds the pending batch
/// already expired, so requests flush one behind the arrival stream.
#[test]
fn zero_deadline_flushes_every_pending_request() {
    let (model, ds) = trained();
    let compiled = model.compile();
    let ens = DeviceEnsemble::upload(Device::rtx4090(), &compiled);
    let mut server = BatchServer::new(
        ens,
        BatchConfig {
            max_batch: 1000,
            max_delay_ns: 0.0,
            ..BatchConfig::default()
        },
    )
    .expect("zero deadline is valid");
    let row = ds.features().row(0);
    assert!(server.submit(0.0, row).is_empty());
    for i in 1..5u64 {
        let served = server.submit(i as f64 * 100.0, row);
        assert_eq!(served.len(), 1, "arrival {i} must flush the pending row");
        assert_eq!(served[0].rows, 1);
        assert_eq!(served[0].first_id, i - 1);
    }
    assert_eq!(server.flush().expect("last row pending").rows, 1);
    assert!(server.flush().is_none(), "empty flush must be a no-op");
}

/// `flush` on a server that never saw a submission is `None`, and the
/// stats of an idle server are all zeros — no division by an empty
/// latency set.
#[test]
fn empty_flush_and_idle_stats_are_benign() {
    let (model, _) = trained();
    let compiled = model.compile();
    let ens = DeviceEnsemble::upload(Device::rtx4090(), &compiled);
    let mut server = BatchServer::new(ens, BatchConfig::default()).expect("valid");
    assert!(server.flush().is_none());
    let stats = server.stats();
    assert_eq!(stats.served, 0);
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.throughput_rps, 0.0);
}

/// The upload captures per-buffer digests; a planned ECC flip in any
/// resident array is caught by `verify` as a typed corruption error
/// naming the buffer, while a clean upload verifies endlessly.
#[test]
fn verify_catches_planted_corruption_in_each_buffer() {
    let (model, _) = trained();
    let compiled = model.compile();
    let clean = DeviceEnsemble::upload(Device::rtx4090(), &compiled);
    clean.verify().expect("clean upload verifies");
    clean.verify().expect("verification is idempotent");
    for buffer in [
        "serve_feature",
        "serve_threshold",
        "serve_left",
        "serve_right",
        "serve_leaf_values",
        "serve_roots",
        "serve_base",
    ] {
        let device = Device::rtx4090();
        device.enable_faults(gpusim::FaultPlan::new().bit_flip(0, buffer, 3, 11));
        // Pass the arming index with a throwaway charge, then upload:
        // the corruption lands after the digests are captured.
        device.charge_ns("warmup", Phase::Other, 1.0);
        let ens = DeviceEnsemble::upload(Arc::clone(&device), &compiled);
        match ens.verify() {
            Err(gbdt_core::ServeError::Corruption {
                buffer: b,
                expected,
                actual,
            }) => {
                assert_eq!(b, buffer);
                assert_ne!(expected, actual);
            }
            other => panic!("expected corruption in {buffer}, got {other:?}"),
        }
        assert!(
            device.poll_fault().is_ok(),
            "ECC flips must stay silent to the fault poll"
        );
    }
}

/// A staged model version double-buffers behind in-flight batches: its
/// SoA upload and checksum pass run on the copy stream during the
/// arrival gaps, and the first flush that finds the upload complete
/// swaps it in. Batches before the swap serve the old model
/// bit-identically, batches after serve the new one.
#[test]
fn staged_upload_double_buffers_behind_batches() {
    let (model_a, ds) = trained();
    let model_b = GpuTrainer::new(
        Device::rtx4090(),
        TrainConfig {
            num_trees: 16,
            max_depth: 5,
            max_bins: 32,
            min_instances: 5,
            ..TrainConfig::default()
        },
    )
    .fit(&ds);
    let compiled_a = CompiledEnsemble::compile(&model_a);
    let compiled_b = CompiledEnsemble::compile(&model_b);
    let ref_a = compiled_a.predict(ds.features());
    let ref_b = compiled_b.predict(ds.features());

    let device = Device::rtx4090();
    let ens = DeviceEnsemble::upload(Arc::clone(&device), &compiled_a);
    let d = ens.d();
    let mut server = BatchServer::new(
        ens,
        BatchConfig {
            max_batch: 50,
            ..BatchConfig::default()
        },
    )
    .expect("valid batch config");

    // Rows arrive 1 ms apart: batch kernels and the staged upload are
    // microseconds, so the copy drains long before the next trigger.
    let n = ds.features().rows();
    let mut batches = Vec::new();
    for i in 0..n {
        let arrival = i as f64 * 1e6;
        if i == 150 {
            server.stage(&compiled_b).expect("same output dimension");
        }
        batches.extend(server.submit(arrival, ds.features().row(i)));
    }
    batches.extend(server.flush());
    assert_eq!(batches.len(), 6);

    for b in &batches {
        let reference = if b.first_id < 150 { &ref_a } else { &ref_b };
        let start = b.first_id as usize * d;
        assert_eq!(
            b.scores,
            reference[start..start + b.rows * d],
            "batch at id {} served the wrong model version",
            b.first_id
        );
    }

    // The upload ran on the copy stream, and it ran at stage time —
    // inside the arrival gap, before the swapping flush's trigger —
    // not serialized into the swap.
    let swap_trigger_ns = 199e6;
    let copies: Vec<_> = device
        .records()
        .into_iter()
        .filter(|r| r.stream == 1)
        .collect();
    assert_eq!(
        copies.len(),
        14,
        "7 htod transfers + 7 checksum kernels on the copy stream"
    );
    for r in &copies {
        assert!(
            r.start_ns + r.ns <= swap_trigger_ns,
            "{} on the copy stream finished at {} ns, after the swap trigger",
            r.name,
            r.start_ns + r.ns
        );
    }

    // Staging a model with a different output dimension is rejected.
    let tiny = make_classification(&ClassificationSpec {
        instances: 100,
        features: 12,
        classes: 2,
        informative: 6,
        seed: 9,
        ..Default::default()
    });
    let model_c = GpuTrainer::new(
        Device::rtx4090(),
        TrainConfig {
            num_trees: 2,
            max_depth: 3,
            max_bins: 16,
            min_instances: 5,
            ..TrainConfig::default()
        },
    )
    .fit(&tiny);
    let err = server
        .stage(&CompiledEnsemble::compile(&model_c))
        .expect_err("dimension change must be rejected");
    assert!(err.message().contains("output dimension"));
}

/// Zero perturbation: attaching the profiler and sanitizer changes
/// neither the results nor the charged cost stream, and the sanitized
/// run is clean in both predict modes.
#[test]
fn observers_do_not_perturb_serving() {
    let (model, ds) = trained();
    let compiled = model.compile();
    for mode in [PredictMode::InstanceLevel, PredictMode::TreeLevel] {
        let plain_dev = Device::rtx4090();
        let plain_ens = DeviceEnsemble::upload(Arc::clone(&plain_dev), &compiled);
        let plain = plain_ens.predict(mode, ds.features());

        let observed_dev = Device::rtx4090();
        observed_dev.enable_profiler();
        observed_dev.enable_sanitizer(SanitizeMode::Full);
        let observed_ens = DeviceEnsemble::upload(Arc::clone(&observed_dev), &compiled);
        let observed = observed_ens.predict(mode, ds.features());

        assert_eq!(plain, observed, "results perturbed in {mode:?}");
        let (a, b) = (plain_dev.records(), observed_dev.records());
        assert_eq!(a.len(), b.len(), "charge count perturbed in {mode:?}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ns.to_bits(), y.ns.to_bits(), "{} charge drifted", x.name);
        }
        let report = observed_dev.sanitize_report().expect("sanitizer attached");
        assert!(report.is_clean(), "violations: {}", report.table());
        let profile = observed_dev.profile_summary().expect("profiler attached");
        assert!(
            profile.by_phase.get("Serve").copied().unwrap_or(0.0) > 0.0,
            "profiler must see the Serve phase"
        );
    }
}
