//! # gpusim — a software-simulated CUDA-like GPU
//!
//! This crate stands in for the CUDA runtime used by the original paper
//! ("Accelerating Multi-Output GBDTs with GPUs", ICPP'25). It provides:
//!
//! * **Functional execution** — every "kernel" computes its real result on
//!   the host, parallelized with rayon across simulated thread blocks, so
//!   all downstream model-quality numbers are genuine.
//! * **An analytical cost model** — every kernel is charged to a
//!   nanosecond-resolution ledger using a roofline-style model of an
//!   NVIDIA-class device: streaming multiprocessors, 32-lane warps,
//!   coalesced global-memory transactions, shared-memory bank conflicts,
//!   atomic replay/serialization, kernel-launch overhead, PCIe transfers
//!   and multi-device ring collectives. Contention terms are derived from
//!   the *actual addresses* kernels touch (sampled per warp), so the
//!   data-dependent effects the paper measures (Fig. 4, Fig. 6a) emerge
//!   from real access patterns rather than constants.
//!
//! The crate is deliberately structured like a miniature CUDA stack:
//!
//! | CUDA concept            | gpusim equivalent                          |
//! |-------------------------|--------------------------------------------|
//! | `cudaDeviceProp`        | [`DeviceProps`]                            |
//! | device                  | [`Device`]                                 |
//! | streams + events        | [`Device::stream`], [`Event`] fences       |
//! | `cudaMalloc`/`cudaMemcpy`| [`Device::alloc_zeroed`], [`Device::htod`] |
//! | kernel launch           | [`Device::charge_kernel`] + [`launch::run_blocks`] |
//! | Thrust/CUB primitives   | [`primitives`]                             |
//! | NCCL collectives        | [`collective::DeviceGroup`]                |
//!
//! Deterministic by construction: block-level parallel execution always
//! merges partial results in block order, so repeated runs produce
//! bit-identical results regardless of the rayon schedule.

#![warn(missing_docs)]

pub mod buffer;
pub mod collective;
pub mod cost;
pub mod device;
pub mod fault;
pub mod launch;
pub mod occupancy;
pub mod primitives;
pub mod prof;
pub mod sanitize;
pub mod timeline;
pub mod warp;

pub use buffer::GpuBuffer;
pub use collective::DeviceGroup;
pub use cost::{CostModel, CostParams, KernelCost};
pub use device::{Device, DeviceProps, Phase, Stream};
pub use fault::{
    buffer_checksum, buffer_checksum_on, Bits32, FaultEvent, FaultInjector, FaultKind, FaultPlan,
    FaultReport, GpuFault,
};
pub use launch::LaunchCfg;
pub use prof::{
    postmortem, KernelStatRow, ProfScope, ProfileSummary, ScopeRow, POSTMORTEM_TAIL,
    PROFILE_SCHEMA_VERSION,
};
pub use sanitize::{
    AccessKind, MemSpace, SanitizeMode, SanitizeReport, Sanitizer, ThreadCtx, Violation,
    ViolationKind,
};
pub use telemetry::{
    FlightEvent, Postmortem, Telemetry, TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION,
};
pub use timeline::{Event, KernelRecord, LedgerSummary};

/// Seconds represented as `f64` nanoseconds, the unit of the ledger.
pub type Nanos = f64;

/// Convert a nanosecond ledger value into seconds.
#[inline]
pub fn ns_to_secs(ns: Nanos) -> f64 {
    ns * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_to_secs_converts() {
        assert!((ns_to_secs(2.5e9) - 2.5).abs() < 1e-12);
        assert_eq!(ns_to_secs(0.0), 0.0);
    }
}
