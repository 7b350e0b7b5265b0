//! Batched, device-charged serving of compiled ensembles.
//!
//! Training produces a [`crate::compiled::CompiledEnsemble`]; this
//! module is the inference side of the paper's §3.4.2 story at serving
//! time, following the SoA-tree + batched-traversal recipe of the
//! XGBoost GPU paper (Mitchell et al., 2018) in the d-dimensional-leaf
//! setting of GBDT-MO (Zhang & Jung, 2020):
//!
//! 1. [`DeviceEnsemble::upload`] copies the ensemble to the device as
//!    concatenated structure-of-arrays buffers (a charged H2D transfer;
//!    resident bytes match [`crate::memory::estimate_serving_bytes`]);
//! 2. the traversal kernels — `predict_compiled_instance`,
//!    `predict_compiled_tree` + `predict_reduce` — charge
//!    [`gpusim::Phase::Serve`] with costs derived from the *real*
//!    per-row traversal depths and leaf-gather patterns of the batch,
//!    not a flat per-node guess;
//! 3. a [`BatchServer`] fronts the device: single-row submissions are
//!    micro-batched up to a configurable size/deadline, and per-request
//!    latency / throughput percentiles come out of the simulated clock.
//!
//! Outputs are bit-identical to [`crate::model::Model::predict`] in
//! every mode and batch size: all paths accumulate `base + t₀ + t₁ + …`
//! per element in the same order.

mod batch;
mod soa;
mod trace;

pub use batch::{BatchConfig, BatchServer, ServeStats, ServedBatch};
pub use soa::DeviceEnsemble;
pub(crate) use soa::{add_tree_scores, SoaView};
