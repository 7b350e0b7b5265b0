//! # gpusim — a software-simulated CUDA-like GPU
//!
//! This crate stands in for the CUDA runtime used by the original paper
//! ("Accelerating Multi-Output GBDTs with GPUs", ICPP'25). It provides:
//!
//! * **An analytical cost model** — every kernel is charged to a
//!   nanosecond-resolution ledger using a roofline-style model of an
//!   NVIDIA-class device: streaming multiprocessors, 32-lane warps,
//!   coalesced global-memory transactions, shared-memory bank conflicts,
//!   atomic replay/serialization, kernel-launch overhead, PCIe transfers
//!   and multi-device ring collectives. Callers compute each kernel's
//!   real result on the host and describe its work in a [`KernelCost`];
//!   contention terms come from the *actual addresses* kernels touch
//!   (sampled per warp, [`warp`]), so the data-dependent effects the
//!   paper measures (Fig. 4, Fig. 6a) emerge from real access patterns
//!   rather than constants.
//! * **Streams, faults, a sanitizer and a profiler** around that ledger:
//!   stream overlap, seeded fault injection, racecheck/memcheck over
//!   declared access streams, and one event log per device behind the
//!   profile and the Chrome trace.
//!
//! The crate is deliberately structured like a miniature CUDA stack:
//!
//! | CUDA concept            | gpusim equivalent                          |
//! |-------------------------|--------------------------------------------|
//! | `cudaDeviceProp`        | [`DeviceProps`]                            |
//! | device                  | [`Device`]                                 |
//! | streams + events        | [`Device::stream`], [`Event`] fences       |
//! | `cudaMemcpy`            | [`Device::htod`]                           |
//! | kernel launch           | [`Device::charge_kernel`]                  |
//! | CUB `sort_by_key`/`reduce_by_key` | [`primitives`]                   |
//! | NCCL collectives        | [`collective::DeviceGroup`]                |
//! | `compute-sanitizer`     | [`sanitize`]                               |
//!
//! Deterministic by construction: a charge's cost depends only on its
//! descriptor, so repeated runs book bit-identical ledgers regardless of
//! the host schedule.

#![warn(missing_docs)]

pub mod buffer;
pub mod collective;
pub mod cost;
pub mod device;
pub mod fault;
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
pub use prof::{
    postmortem, KernelStatRow, ProfScope, ProfileSummary, ScopeRow, ScopeSpan, POSTMORTEM_TAIL,
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
