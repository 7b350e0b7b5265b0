//! End-to-end sanitizer tests over a live [`Device`].
//!
//! The headline case is a *deliberately racy* test-only kernel — a grid
//! reduction whose blocks store their partials into one output word
//! with plain (non-atomic) writes. Racecheck must flag it, and the
//! atomically-corrected twin of the same kernel must come back clean.
//! A second group proves the sanitizer is cost-invisible: a sanitized
//! launch charges bit-identical time to an unsanitized one.

use gpusim::sanitize::audit_determinism;
use gpusim::{
    AccessKind, Device, KernelCost, MemSpace, Phase, SanitizeMode, ThreadCtx, ViolationKind,
};

/// Elements (one per thread) each block of the test kernel reduces.
const BLOCK: usize = 256;

/// Test-only grid-sum kernel. Each block reduces its element range
/// functionally, then the per-block partials are combined into `out[0]`.
/// The `atomic` flag selects how that combine step is *declared* to the
/// sanitizer: `false` models the classic missing-`atomicAdd` bug (a
/// plain read-modify-write), `true` the corrected kernel.
fn grid_sum(device: &Device, xs: &[f32], atomic: bool) -> f32 {
    let partials: Vec<f32> = xs.chunks(BLOCK).map(|c| c.iter().sum()).collect();
    device.charge_kernel(
        "test_grid_sum",
        Phase::Histogram,
        &KernelCost::streaming(xs.len() as f64, (xs.len() * 4) as f64),
    );
    if let Some(san) = device.sanitizer() {
        let scope = san.scope("test_grid_sum");
        let xs_id = scope.register("xs", xs.len(), MemSpace::Global, true);
        let out_id = scope.register("out", 1, MemSpace::Global, true);
        for b in 0..partials.len() {
            let t = ThreadCtx {
                block: b as u32,
                thread: 0,
            };
            // Each block reads the head of its range…
            scope.touch(xs_id, t, b * BLOCK, AccessKind::Read);
            // …then combines into the single shared slot.
            if atomic {
                scope.touch(out_id, t, 0, AccessKind::Atomic);
            } else {
                scope.touch(out_id, t, 0, AccessKind::Read);
                scope.touch(out_id, t, 0, AccessKind::Write);
            }
        }
    }
    partials.iter().sum()
}

#[test]
fn racecheck_flags_the_seeded_racy_kernel() {
    let device = Device::rtx4090();
    device.enable_sanitizer(SanitizeMode::Full);
    let xs: Vec<f32> = (0..2000).map(|i| i as f32).collect();
    let got = grid_sum(&device, &xs, false);
    let want: f32 = xs.iter().sum();
    assert_eq!(got, want, "functional result must be unperturbed");

    let report = device.sanitize_report().expect("sanitizer enabled");
    assert!(!report.is_clean(), "the seeded race must be detected");
    let races: Vec<_> = report
        .violations
        .iter()
        .filter(|v| {
            v.kernel == "test_grid_sum"
                && matches!(
                    v.kind,
                    ViolationKind::WriteWriteRace | ViolationKind::ReadWriteRace
                )
        })
        .collect();
    assert!(
        !races.is_empty(),
        "expected a write-write or read-write race on out[0], got {:?}",
        report.violations
    );
    assert!(races.iter().any(|v| v.buffer == "out"));
}

#[test]
fn corrected_atomic_kernel_is_clean() {
    let device = Device::rtx4090();
    device.enable_sanitizer(SanitizeMode::Full);
    let xs: Vec<f32> = (0..2000).map(|i| (i % 7) as f32).collect();
    let got = grid_sum(&device, &xs, true);
    assert_eq!(got, xs.iter().sum::<f32>());
    let report = device.sanitize_report().expect("sanitizer enabled");
    assert!(
        report.is_clean(),
        "atomic combine must pass racecheck: {:?}",
        report.violations
    );
    // The atomics were verified, not ignored.
    let stats = &report.kernels["test_grid_sum"];
    assert!(stats.atomics > 0);
}

#[test]
fn sanitizer_does_not_change_charged_time_or_result() {
    let xs: Vec<f32> = (0..5000).map(|i| (i as f32).sin()).collect();

    let plain = Device::rtx4090();
    let r_plain = grid_sum(&plain, &xs, true);

    let sanitized = Device::rtx4090();
    sanitized.enable_sanitizer(SanitizeMode::Full);
    let r_san = grid_sum(&sanitized, &xs, true);

    assert_eq!(r_plain.to_bits(), r_san.to_bits());
    assert_eq!(
        plain.now_ns().to_bits(),
        sanitized.now_ns().to_bits(),
        "sanitizer must never charge the ledger"
    );
}

#[test]
fn memcheck_flags_out_of_bounds_through_a_device_scope() {
    let device = Device::rtx4090();
    device.enable_sanitizer(SanitizeMode::Memcheck);
    let san = device.sanitizer().expect("enabled");
    {
        let scope = san.scope("test_oob");
        let buf = scope.register("small", 4, MemSpace::Global, true);
        scope.touch(
            buf,
            ThreadCtx {
                block: 0,
                thread: 0,
            },
            9,
            AccessKind::Read,
        );
    }
    let report = device.sanitize_report().expect("enabled");
    assert!(report
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::OutOfBounds && v.buffer == "small"));
}

#[test]
fn disable_sanitizer_clears_state() {
    let device = Device::rtx4090();
    device.enable_sanitizer(SanitizeMode::Full);
    assert!(device.sanitizer().is_some());
    device.disable_sanitizer();
    assert!(device.sanitizer().is_none());
    assert!(device.sanitize_report().is_none());
}

#[test]
fn determinism_audit_passes_for_the_corrected_kernel() {
    let props = Device::rtx4090().props().clone();
    let xs: Vec<f32> = (0..3000).map(|i| (i as f32).cos()).collect();
    let report = audit_determinism(&props, |dev| {
        let s = grid_sum(dev, &xs, true);
        gpusim::sanitize::digest_f32s(&[s])
    });
    assert!(report.is_deterministic(), "{:?}", report.divergences);
    assert_eq!(report.kernel_count, 1);
}
