//! Chaos suite: training under injected GPU faults.
//!
//! The contract proved here — for *any* seeded fault plan, training
//! either completes with results bit-identical to a fault-free run or
//! fails with a typed [`TrainError`]; it never panics, never returns a
//! silently wrong model, and the fault-free path is charge-for-charge
//! unperturbed by the recovery machinery.

use gbdt_core::config::TrainConfig;
use gbdt_core::trainer::GpuTrainer;
use gbdt_core::{MultiGpuStrategy, MultiGpuTrainer, RetryPolicy, TrainError};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, DeviceProps, FaultPlan};

fn dataset() -> Dataset {
    make_classification(&ClassificationSpec {
        instances: 300,
        features: 10,
        classes: 4,
        informative: 7,
        class_sep: 1.8,
        seed: 42,
        ..Default::default()
    })
}

fn quick_config() -> TrainConfig {
    TrainConfig {
        num_trees: 5,
        max_depth: 3,
        max_bins: 16,
        min_instances: 5,
        ..TrainConfig::default()
    }
}

/// Headline property, single GPU: 120 seeded fault plans. Every run
/// either matches the fault-free predictions bit-for-bit or returns a
/// typed error — and both outcomes actually occur across the sweep.
#[test]
fn seeded_fault_plans_are_bit_identical_or_typed_errors() {
    let ds = dataset();
    let cfg = quick_config();
    let reference = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&ds);
    let ref_pred = reference.predict(ds.features());

    let (mut ok_runs, mut err_runs, mut faulted_oks) = (0u32, 0u32, 0u32);
    for seed in 0..120u64 {
        let device = Device::new(0, DeviceProps::rtx4090());
        device.enable_faults(FaultPlan::seeded(seed, 150));
        let trainer = GpuTrainer::try_new(
            device.clone(),
            cfg.clone().with_retry(RetryPolicy::retries(2)),
        )
        .expect("valid config");
        match trainer.try_fit(&ds) {
            Ok(model) => {
                ok_runs += 1;
                assert_eq!(
                    model.predict(ds.features()),
                    ref_pred,
                    "seed {seed}: recovered run diverged from fault-free"
                );
                let report = device.fault_report().expect("injector attached");
                if report.transient_injected > 0 {
                    faulted_oks += 1;
                }
            }
            Err(e @ (TrainError::RetriesExhausted { .. } | TrainError::DeviceLost { .. })) => {
                err_runs += 1;
                assert!(!e.to_string().is_empty());
            }
            Err(other) => panic!("seed {seed}: unexpected error class: {other}"),
        }
    }
    assert!(ok_runs > 0, "no seeded plan completed");
    assert!(err_runs > 0, "no seeded plan failed — horizon too large?");
    assert!(
        faulted_oks > 0,
        "no run recovered from an injected transient — injection too sparse"
    );
}

/// A transient fault inside a round is retried and the result is
/// bit-identical; the failed attempt's charges stay booked, so the
/// faulted run is strictly slower in simulated time.
#[test]
fn transient_retry_recovers_bit_identically_and_pays_for_the_retry() {
    let ds = dataset();
    let cfg = quick_config();
    let clean_dev = Device::new(0, DeviceProps::rtx4090());
    let clean = GpuTrainer::new(clean_dev.clone(), cfg.clone()).fit_report(&ds);

    let dev = Device::new(0, DeviceProps::rtx4090());
    // Index 20 lands inside the boosting rounds (preprocess is the
    // first two charges).
    dev.enable_faults(FaultPlan::new().transient_at(20));
    let trainer = GpuTrainer::try_new(dev.clone(), cfg.clone().with_retry(RetryPolicy::retries(1)))
        .expect("valid config");
    let report = trainer.try_fit_report(&ds).expect("one retry suffices");
    assert_eq!(
        report.model.predict(ds.features()),
        clean.model.predict(ds.features())
    );
    assert_eq!(report.model.trees, clean.model.trees);
    assert!(
        dev.now_ns() > clean_dev.now_ns(),
        "re-executed round must cost extra simulated time"
    );
    assert_eq!(dev.fault_report().unwrap().transient_injected, 1);
}

/// With a zero retry budget the same transient is a typed
/// `RetriesExhausted`, not a panic or a wrong model.
#[test]
fn exhausted_retry_budget_is_a_typed_error() {
    let ds = dataset();
    let dev = Device::rtx4090();
    dev.enable_faults(FaultPlan::new().transient_at(20));
    let trainer = GpuTrainer::try_new(dev, quick_config()).expect("valid config");
    match trainer.try_fit(&ds) {
        Err(TrainError::RetriesExhausted {
            attempts, fault, ..
        }) => {
            // `attempts` counts retries performed; a zero budget means
            // the fault was never retried.
            assert_eq!(attempts, 0);
            assert!(fault.is_transient());
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Losing the only device is fatal — typed, with the failing round.
#[test]
fn single_gpu_device_loss_is_a_typed_error() {
    let ds = dataset();
    let dev = Device::rtx4090();
    dev.enable_faults(FaultPlan::new().device_lost_at(20));
    let trainer = GpuTrainer::try_new(dev, quick_config().with_retry(RetryPolicy::retries(5)))
        .expect("valid config");
    match trainer.try_fit(&ds) {
        Err(TrainError::DeviceLost { fault, .. }) => assert!(!fault.is_transient()),
        other => panic!("expected DeviceLost, got {other:?}"),
    }
}

/// A one-device group is one device: losing it is fatal with the
/// same typed error, not a degradation to no survivors.
#[test]
fn one_device_group_loss_is_a_device_lost_error() {
    let ds = dataset();
    for strategy in [
        MultiGpuStrategy::FeatureParallel,
        MultiGpuStrategy::DataParallel,
    ] {
        let group = DeviceGroup::rtx4090s(1);
        group
            .device(0)
            .enable_faults(FaultPlan::new().device_lost_at(20));
        let cfg = quick_config().with_retry(RetryPolicy::retries(5));
        let trainer =
            MultiGpuTrainer::try_with_strategy(group, cfg, strategy).expect("valid config");
        match trainer.try_fit(&ds) {
            Err(TrainError::DeviceLost { fault, .. }) => assert!(!fault.is_transient()),
            other => panic!("{strategy:?}(1): expected DeviceLost, got {other:?}"),
        }
    }
}

/// Zero perturbation: a trainer carrying a retry policy but no
/// injector produces the identical model AND the identical charge
/// stream as a plain trainer — the recovery machinery is free when
/// faults are off.
#[test]
fn fault_machinery_is_free_when_no_injector_is_attached() {
    let ds = dataset();
    let cfg = quick_config();
    let plain_dev = Device::new(0, DeviceProps::rtx4090());
    let plain = GpuTrainer::new(plain_dev.clone(), cfg.clone()).fit(&ds);

    let armed_dev = Device::new(0, DeviceProps::rtx4090());
    let armed = GpuTrainer::try_new(armed_dev.clone(), cfg.with_retry(RetryPolicy::retries(7)))
        .expect("valid config")
        .try_fit(&ds)
        .expect("no faults injected");

    assert_eq!(plain.trees, armed.trees);
    assert_eq!(plain.predict(ds.features()), armed.predict(ds.features()));
    let (a, b) = (plain_dev.records(), armed_dev.records());
    assert_eq!(a.len(), b.len(), "charge count perturbed");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.ns.to_bits(), y.ns.to_bits(), "{} charge drifted", x.name);
        assert_eq!(x.start_ns.to_bits(), y.start_ns.to_bits());
    }
}

/// Multi-GPU graceful degradation: a device dies mid-training, the
/// survivor absorbs its share, and the final trees are bit-identical
/// to a fault-free group — for both decomposition strategies.
#[test]
fn multi_gpu_degrades_to_survivors_with_identical_trees() {
    let ds = dataset();
    let cfg = quick_config();
    for strategy in [
        MultiGpuStrategy::FeatureParallel,
        MultiGpuStrategy::DataParallel,
    ] {
        let reference =
            MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(2), cfg.clone(), strategy)
                .fit(&ds);

        let group = DeviceGroup::rtx4090s(2);
        // Device 1 dies inside the boosting rounds; its preprocess
        // shares (2 charges) are long done by index 10.
        group
            .device(1)
            .enable_faults(FaultPlan::new().device_lost_at(10));
        let trainer = MultiGpuTrainer::try_with_strategy(group.clone(), cfg.clone(), strategy)
            .expect("valid config");
        let model = trainer.try_fit(&ds).expect("survivor finishes the job");
        assert_eq!(
            model.trees, reference.trees,
            "{strategy:?}: degraded run must grow identical trees"
        );
        assert_eq!(
            model.predict(ds.features()),
            reference.predict(ds.features())
        );
        let report = group.device(1).fault_report().expect("injector attached");
        assert_eq!(report.device_lost, 1);
        assert!(
            report.charges_dropped_after_loss > 0,
            "{strategy:?}: the dead device must stop accumulating work"
        );
    }
}

/// When every device in the group dies, training fails with the typed
/// `AllDevicesLost` — never a panic, never a partial model.
#[test]
fn multi_gpu_total_loss_is_a_typed_error() {
    let ds = dataset();
    let group = DeviceGroup::rtx4090s(2);
    group
        .device(0)
        .enable_faults(FaultPlan::new().device_lost_at(8));
    group
        .device(1)
        .enable_faults(FaultPlan::new().device_lost_at(8));
    let trainer = MultiGpuTrainer::try_new(group, quick_config()).expect("valid config");
    match trainer.try_fit(&ds) {
        Err(TrainError::AllDevicesLost { .. }) => {}
        other => panic!("expected AllDevicesLost, got {other:?}"),
    }
}

/// Multi-GPU chaos sweep: 40 seeds × 3 devices, every device carrying
/// its own seeded plan. Same contract as the single-GPU sweep.
#[test]
fn multi_gpu_seeded_chaos_sweep() {
    let ds = dataset();
    let cfg = quick_config();
    let reference = MultiGpuTrainer::new(DeviceGroup::rtx4090s(3), cfg.clone()).fit(&ds);
    let ref_pred = reference.predict(ds.features());

    let (mut ok_runs, mut err_runs) = (0u32, 0u32);
    for seed in 0..40u64 {
        let group = DeviceGroup::rtx4090s(3);
        for (i, dev) in group.devices().iter().enumerate() {
            dev.enable_faults(FaultPlan::seeded(seed * 31 + i as u64, 120));
        }
        let trainer =
            MultiGpuTrainer::try_new(group, cfg.clone().with_retry(RetryPolicy::retries(2)))
                .expect("valid config");
        match trainer.try_fit(&ds) {
            Ok(model) => {
                ok_runs += 1;
                assert_eq!(
                    model.predict(ds.features()),
                    ref_pred,
                    "seed {seed}: degraded group diverged"
                );
            }
            Err(
                e @ (TrainError::RetriesExhausted { .. }
                | TrainError::AllDevicesLost { .. }
                | TrainError::DeviceLost { .. }),
            ) => {
                err_runs += 1;
                assert!(!e.to_string().is_empty());
            }
            Err(other) => panic!("seed {seed}: unexpected error class: {other}"),
        }
    }
    assert!(ok_runs > 0, "no multi-GPU chaos run completed");
    // Individual device losses degrade rather than fail, so errors are
    // rarer here than single-GPU; the sweep still must exercise some.
    assert!(
        ok_runs + err_runs == 40,
        "every seed must resolve to exactly one outcome"
    );
}
