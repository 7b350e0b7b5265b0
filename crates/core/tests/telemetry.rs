//! Zero-perturbation contract for the telemetry registry.
//!
//! Telemetry is an *observer*: attached, detached, or toggled mid-run,
//! it must change nothing the simulation can measure — trees,
//! predictions, the device clock, and every charge record are
//! bit-identical with the registry on or off. These tests pin that
//! contract across the full histogram-method × sketch grid, multi-GPU
//! training under both strategies, and batched serving, and then prove
//! the flight recorder actually pays for its keep: a seeded device
//! loss must leave behind a non-empty, parseable postmortem.

use gbdt_core::config::{OutputSketch, TrainConfig};
use gbdt_core::serve::{BatchConfig, BatchServer, DeviceEnsemble};
use gbdt_core::trainer::GpuTrainer;
use gbdt_core::{
    HistOptions, HistogramMethod, MultiGpuStrategy, MultiGpuTrainer, RetryPolicy, TrainError,
};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, DeviceProps, FaultPlan, Telemetry};
use serde::Value;
use std::sync::Arc;

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

fn config(hist: HistogramMethod, sketch: OutputSketch, streams: usize) -> TrainConfig {
    TrainConfig {
        num_trees: 4,
        max_depth: 3,
        max_bins: 16,
        min_instances: 5,
        hist: HistOptions {
            method: hist,
            ..HistOptions::default()
        },
        sketch,
        streams,
        ..TrainConfig::default()
    }
}

/// Charge streams must agree bit-for-bit: names, durations, start
/// stamps, and stream assignments.
fn assert_records_identical(label: &str, plain: &Arc<Device>, observed: &Arc<Device>) {
    assert_eq!(
        plain.now_ns().to_bits(),
        observed.now_ns().to_bits(),
        "{label}: telemetry perturbed the clock"
    );
    let (a, b) = (plain.records(), observed.records());
    assert_eq!(
        a.len(),
        b.len(),
        "{label}: telemetry perturbed charge count"
    );
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name, "{label}: charge order changed");
        assert_eq!(x.ns.to_bits(), y.ns.to_bits(), "{label}: {} ns", x.name);
        assert_eq!(
            x.start_ns.to_bits(),
            y.start_ns.to_bits(),
            "{label}: {} start",
            x.name
        );
        assert_eq!(x.stream, y.stream, "{label}: {} stream", x.name);
    }
}

/// Headline zero-perturbation sweep: the full hist-method × sketch
/// grid, plain device vs. telemetry-enabled device. The registry must
/// also come back non-trivial — it watched the run, it just didn't
/// touch it.
#[test]
fn telemetry_is_invisible_across_methods_and_sketches() {
    let ds = dataset();
    for (hist, sketch) in grid() {
        let label = format!("{hist:?}/{}", sketch.label());
        let cfg = config(hist, sketch, 1);

        let plain_dev = Device::new(0, DeviceProps::rtx4090());
        let plain = GpuTrainer::new(plain_dev.clone(), cfg.clone()).fit(&ds);

        let tel_dev = Device::new(0, DeviceProps::rtx4090());
        let tel = tel_dev.enable_telemetry();
        let observed = GpuTrainer::new(tel_dev.clone(), cfg).fit(&ds);

        assert_eq!(
            plain.predict(ds.features()),
            observed.predict(ds.features()),
            "{label}: telemetry perturbed the model"
        );
        assert_records_identical(&label, &plain_dev, &tel_dev);

        let snap = tel.snapshot();
        assert_eq!(
            snap.counters.get("train.rounds_total").copied(),
            Some(4),
            "{label}: registry missed training rounds"
        );
        assert!(
            snap.charges_recorded > 0,
            "{label}: flight recorder saw no charges"
        );
    }
}

/// Toggling mid-run is still invisible: train with the registry
/// attached, detach it, train again on the same device, re-attach a
/// fresh one, train a third time — the clock and charge stream must
/// match a device that never carried telemetry through the same three
/// fits.
#[test]
fn telemetry_toggled_mid_run_is_invisible() {
    let ds = dataset();
    let cfg = config(HistogramMethod::Adaptive, OutputSketch::TopOutputs(2), 2);

    let plain_dev = Device::new(0, DeviceProps::rtx4090());
    let mut plain_preds = Vec::new();
    for _ in 0..3 {
        let model = GpuTrainer::new(plain_dev.clone(), cfg.clone()).fit(&ds);
        plain_preds.push(model.predict(ds.features()));
    }

    let tog_dev = Device::new(0, DeviceProps::rtx4090());
    let mut tog_preds = Vec::new();
    tog_dev.enable_telemetry();
    tog_preds.push(
        GpuTrainer::new(tog_dev.clone(), cfg.clone())
            .fit(&ds)
            .predict(ds.features()),
    );
    tog_dev.disable_telemetry();
    tog_preds.push(
        GpuTrainer::new(tog_dev.clone(), cfg.clone())
            .fit(&ds)
            .predict(ds.features()),
    );
    let tel = tog_dev.enable_telemetry();
    tog_preds.push(
        GpuTrainer::new(tog_dev.clone(), cfg)
            .fit(&ds)
            .predict(ds.features()),
    );

    assert_eq!(plain_preds, tog_preds, "toggling telemetry changed models");
    assert_records_identical("toggled", &plain_dev, &tog_dev);
    // The final registry only watched the third fit.
    assert_eq!(
        tel.snapshot().counters.get("train.rounds_total").copied(),
        Some(4),
        "re-attached registry should see exactly one fit"
    );
}

/// Multi-GPU: one registry shared by every group member (the
/// `attach_telemetry` pattern) perturbs neither strategy — predictions
/// and every member's charge stream stay bit-identical, while the
/// group-level series (collective bytes, makespan skew) land in the
/// shared registry.
#[test]
fn telemetry_is_invisible_to_multi_gpu_training() {
    let ds = dataset();
    let cfg = config(HistogramMethod::Adaptive, OutputSketch::None, 1);
    for strategy in [
        MultiGpuStrategy::FeatureParallel,
        MultiGpuStrategy::DataParallel,
    ] {
        let label = format!("{strategy:?}");

        let plain_group = DeviceGroup::rtx4090s(2);
        let plain =
            MultiGpuTrainer::with_strategy(plain_group.clone(), cfg.clone(), strategy).fit(&ds);

        let tel_group = DeviceGroup::rtx4090s(2);
        let tel = Arc::new(Telemetry::new());
        for dev in tel_group.devices() {
            dev.attach_telemetry(Arc::clone(&tel));
        }
        let observed = MultiGpuTrainer::with_strategy(tel_group.clone(), cfg.clone(), strategy)
            .fit_report(&ds);

        assert_eq!(
            plain.predict(ds.features()),
            observed.model.predict(ds.features()),
            "{label}: telemetry perturbed the multi-GPU model"
        );
        for (p, t) in plain_group.devices().iter().zip(tel_group.devices()) {
            assert_records_identical(&label, p, t);
        }

        let snap = tel.snapshot();
        assert!(
            snap.counters
                .get("multigpu.collective_bytes")
                .copied()
                .unwrap_or(0)
                > 0,
            "{label}: no collective bytes were counted"
        );
        assert!(
            snap.gauges.contains_key("multigpu.makespan_skew_ns"),
            "{label}: makespan skew gauge never set"
        );
        // Groups run the single-device boosting loop, so they record
        // its training series too.
        assert_eq!(
            snap.counters.get("train.rounds_total").copied(),
            Some(cfg.num_trees as u64),
            "{label}: one round counted per tree"
        );
        let hist_counted: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("train.hist_method_"))
            .map(|(_, count)| *count)
            .sum();
        let hist_reported: usize = observed.hist_methods.values().sum();
        assert!(hist_reported > 0, "{label}: no histogram builds reported");
        assert_eq!(
            hist_counted, hist_reported as u64,
            "{label}: hist-method counters disagree with the report"
        );
        assert!(
            snap.gauges.contains_key("train.loss"),
            "{label}: loss gauge never set"
        );
    }
}

/// Serving: a telemetry-carrying device serves the same batches with
/// bit-identical outputs and charges, and toggling the registry
/// between submissions changes nothing either.
#[test]
fn telemetry_is_invisible_to_serving() {
    let ds = dataset();
    let cfg = config(HistogramMethod::Adaptive, OutputSketch::None, 1);
    let compiled = GpuTrainer::new(Device::rtx4090(), cfg).fit(&ds).compile();
    let rows: Vec<Vec<f32>> = (0..24).map(|i| ds.features().row(i).to_vec()).collect();

    let drive = |server: &mut BatchServer, toggle_dev: Option<&Arc<Device>>| {
        let mut out = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            if i == rows.len() / 2 {
                if let Some(dev) = toggle_dev {
                    // Mid-stream toggle: detach, re-attach fresh.
                    dev.disable_telemetry();
                    dev.enable_telemetry();
                }
            }
            for batch in server.submit(i as f64 * 50.0, row) {
                out.extend(batch.scores);
            }
        }
        if let Some(batch) = server.flush() {
            out.extend(batch.scores);
        }
        out
    };

    let plain_dev = Device::rtx4090();
    let mut plain_srv = BatchServer::new(
        DeviceEnsemble::upload(Arc::clone(&plain_dev), &compiled),
        BatchConfig::default(),
    )
    .expect("valid config");
    let plain_out = drive(&mut plain_srv, None);

    let tel_dev = Device::rtx4090();
    let tel = tel_dev.enable_telemetry();
    let mut tel_srv = BatchServer::new(
        DeviceEnsemble::upload(Arc::clone(&tel_dev), &compiled),
        BatchConfig::default(),
    )
    .expect("valid config");
    let tel_out = drive(&mut tel_srv, None);

    let tog_dev = Device::rtx4090();
    tog_dev.enable_telemetry();
    let mut tog_srv = BatchServer::new(
        DeviceEnsemble::upload(Arc::clone(&tog_dev), &compiled),
        BatchConfig::default(),
    )
    .expect("valid config");
    let tog_out = drive(&mut tog_srv, Some(&tog_dev));

    assert_eq!(plain_out, tel_out, "telemetry perturbed served outputs");
    assert_eq!(plain_out, tog_out, "toggling perturbed served outputs");
    assert_records_identical("serve", &plain_dev, &tel_dev);
    assert_records_identical("serve-toggled", &plain_dev, &tog_dev);
    assert!(
        tel.snapshot()
            .counters
            .get("serve.requests_total")
            .copied()
            .unwrap_or(0)
            > 0,
        "registry missed served requests"
    );
}

/// A postmortem takes the records the ledger booked: on a streamed
/// adaptive fit, its charge events are the device's last charge records
/// one for one, in order — same name, phase and stream, the same start
/// bits, and an end of exactly `start_ns + ns`.
#[test]
fn flight_recorder_charges_are_the_booked_records() {
    let ds = dataset();
    let dev = Device::new(0, DeviceProps::rtx4090());
    let tel = dev.enable_telemetry();
    GpuTrainer::new(
        dev.clone(),
        config(HistogramMethod::Adaptive, OutputSketch::None, 4),
    )
    .fit(&ds);

    let records = dev.records();
    assert!(
        records.iter().any(|r| r.stream > 0),
        "the fit never left the default stream"
    );
    let pm = gpusim::postmortem("end of fit", std::slice::from_ref(&dev));
    let charges: Vec<_> = pm.events.iter().filter(|e| e.kind == "charge").collect();
    assert!(!charges.is_empty() && charges.len() <= records.len());
    assert_eq!(tel.snapshot().charges_recorded, records.len() as u64);
    let tail = &records[records.len() - charges.len()..];
    for (i, (e, r)) in charges.iter().zip(tail).enumerate() {
        assert_eq!(e.name, r.name, "charge {i}");
        assert_eq!(e.detail, r.phase.name(), "charge {i}: phase");
        assert_eq!(e.stream, r.stream, "charge {i}: stream");
        assert_eq!(e.start_ns.to_bits(), r.start_ns.to_bits(), "charge {i}");
        assert_eq!(
            e.end_ns.to_bits(),
            (r.start_ns + r.ns).to_bits(),
            "charge {i}: end"
        );
    }
}

/// Acceptance criterion: a seeded `DeviceLost` run leaves a non-empty
/// flight-recorder postmortem whose JSON parses, names the failure,
/// and carries the events leading up to it.
#[test]
fn seeded_device_loss_dumps_a_nonempty_postmortem() {
    let ds = dataset();
    let cfg = config(HistogramMethod::Adaptive, OutputSketch::None, 1)
        .with_retry(RetryPolicy::retries(1));
    let mut dumped = false;
    for seed in 0..64u64 {
        let dev = Device::new(0, DeviceProps::rtx4090());
        let tel = dev.enable_telemetry();
        dev.enable_faults(FaultPlan::seeded(seed, 150));
        let trainer = GpuTrainer::try_new(dev.clone(), cfg.clone()).expect("valid config");
        match trainer.try_fit(&ds) {
            Err(TrainError::DeviceLost { .. }) => {
                let json = tel
                    .last_postmortem_json()
                    .expect("device loss must record a postmortem");
                assert!(!json.is_empty());
                let doc: Value = serde_json::from_str(&json).expect("postmortem JSON must parse");
                let obj = doc.as_object().expect("postmortem is an object");
                let events = obj
                    .iter()
                    .find(|(k, _)| k == "events")
                    .and_then(|(_, v)| v.as_array())
                    .expect("postmortem carries an events array");
                assert!(!events.is_empty(), "flight-recorder ring was empty");
                let reason = obj
                    .iter()
                    .find(|(k, _)| k == "reason")
                    .and_then(|(_, v)| v.as_str())
                    .expect("postmortem names its reason");
                assert!(
                    reason.contains("lost"),
                    "reason should describe the loss: {reason}"
                );
                dumped = true;
                break;
            }
            _ => continue,
        }
    }
    assert!(dumped, "no seed in 0..64 produced a device loss");
}
