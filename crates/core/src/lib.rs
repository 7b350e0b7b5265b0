//! # gbdt-core — GPU-accelerated multi-output GBDT training
//!
//! Rust reproduction of the training system from *"Accelerating
//! Multi-Output GBDTs with GPUs"* (ICPP'25) over the [`gpusim`]
//! simulated device. The pipeline follows the paper's Fig. 2:
//!
//! 1. **Gradients** ([`grad`]) — per-instance, per-output `g`/`h` from a
//!    pluggable loss ([`loss`]);
//! 2. **Histograms** ([`hist`]) — the dominant cost; three strategies
//!    (global-memory atomics, shared-memory tiling, sort-and-reduce),
//!    warp-level bin packing, and adaptive per-node selection;
//! 3. **Split selection** ([`split`]) — segmented prefix sums + Eq. (3)
//!    gains + segmented/global reductions;
//! 4. **Partition & growth** ([`grow`], [`tree`]) — level-wise
//!    Algorithm 1 with optional histogram subtraction;
//! 5. **Prediction** ([`predict`]) — instance- and tree-level parallel
//!    inference, plus the incremental training-score update.
//!
//! [`trainer::GpuTrainer`] drives a single device;
//! [`multigpu::MultiGpuTrainer`] partitions features across a
//! [`gpusim::DeviceGroup`] (paper §3.4.2).
//!
//! For inference beyond training, [`compiled::CompiledEnsemble`]
//! flattens trees into SoA arrays and [`serve`] uploads them to a
//! device behind a micro-batching [`serve::BatchServer`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod compiled;
pub mod config;
pub mod cv;
pub mod error;
pub mod grad;
pub mod grow;
pub mod hist;
pub mod importance;
pub mod loss;
pub mod memory;
pub mod metrics;
pub mod model;
pub mod multigpu;
pub mod predict;
pub mod sanitize;
pub mod serialize;
pub mod serve;
mod simd;
pub mod sketch;
pub mod split;
pub mod trainer;
pub mod tree;

pub use checkpoint::Checkpoint;
pub use compiled::CompiledEnsemble;
pub use config::{ConfigError, HistOptions, HistogramMethod, OutputSketch, TrainConfig};
pub use error::{RetryPolicy, ServeError, TrainError};
pub use grad::Gradients;
pub use metrics::{accuracy, logloss, rmse, top_k_accuracy};
pub use model::Model;
pub use multigpu::{MultiGpuStrategy, MultiGpuTrainer};
pub use predict::PredictMode;
pub use serve::{BatchConfig, BatchServer, DeviceEnsemble, ServeStats, ServedBatch};
pub use trainer::{GpuTrainer, TrainReport, ValidationReport};
pub use tree::{Node, Tree};
