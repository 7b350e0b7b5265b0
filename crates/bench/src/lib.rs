//! # gbdt-bench — experiment harness
//!
//! Shared machinery for regenerating every table and figure of the
//! paper's evaluation (§4): system runners, task-appropriate metrics,
//! scaled dataset construction and fixed-width table rendering. The
//! `repro` binary drives it; the Criterion benches reuse it.
//!
//! **Timing domains.** GPU systems (ours, the SO baselines, sk-boost)
//! report *simulated* device seconds from the `gpusim` cost model; the
//! CPU baselines (mo-fu, mo-sp) report *measured host wall-clock*. The
//! two domains are printed side by side exactly as the paper's tables
//! mix GPU and CPU rows, but EXPERIMENTS.md compares shapes, not
//! absolute cross-domain ratios.

#![warn(missing_docs)]

pub mod report;

use gbdt_baselines::{
    CpuMoTrainer, CpuStorage, GbdtSoTrainer, GrowthPolicy, SketchBoostTrainer, SketchStrategy,
};
use gbdt_core::loss::loss_for_task;
use gbdt_core::{accuracy, rmse, GpuTrainer, HistogramMethod, TrainConfig};
use gbdt_data::{Dataset, PaperDataset, Task};
use gpusim::{Device, DeviceGroup, DeviceProps, LedgerSummary};
use serde::Serialize;
use std::sync::Arc;

/// A device modeling SketchBoost's actual substrate: Py-Boost drives
/// CUDA through Python/CuPy, whose per-operation dispatch overhead is
/// an order of magnitude above a native C++ launch, and its histogram
/// kernel is a plain global-atomic one without warp-level packing.
/// Without this, "sk-boost" would unrealistically inherit our own
/// optimized pipeline and beat the paper's ordering.
pub fn pyboost_device() -> Arc<Device> {
    let mut props = DeviceProps::rtx4090();
    props.name = "SimRTX4090-pyboost".into();
    props.cost.launch_overhead_sec = 2.0e-5;
    Device::new(0, props)
}

/// Which clock a result was measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TimeDomain {
    /// Simulated device time (gpusim cost model).
    Simulated,
    /// Host wall-clock.
    HostWall,
}

/// The systems compared in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemId {
    /// The paper's system (this repo's GPU GBDT-MO trainer).
    Ours,
    /// Ours with feature-parallel multi-GPU training (`k` devices).
    OursMultiGpu(usize),
    /// XGBoost-style: level-wise single-output ensembles.
    XgBoost,
    /// LightGBM-style: leaf-wise single-output ensembles.
    LightGbm,
    /// CatBoost-style: oblivious single-output ensembles.
    CatBoost,
    /// SketchBoost with Top-Outputs sketching.
    SkBoost,
    /// CPU GBDT-MO over dense storage ("mo-fu").
    MoFu,
    /// CPU GBDT-MO over CSC storage ("mo-sp").
    MoSp,
}

impl SystemId {
    /// Display name matching the paper's table headers.
    pub fn name(&self) -> String {
        match self {
            SystemId::Ours => "ours".into(),
            SystemId::OursMultiGpu(k) => format!("ours×{k}"),
            SystemId::XgBoost => "xgboost".into(),
            SystemId::LightGbm => "lightgbm".into(),
            SystemId::CatBoost => "catboost".into(),
            SystemId::SkBoost => "sk-boost".into(),
            SystemId::MoFu => "mo-fu".into(),
            SystemId::MoSp => "mo-sp".into(),
        }
    }

    /// The paper's GPU baselines for Tables 2–3, in column order.
    pub fn gpu_systems() -> Vec<SystemId> {
        vec![
            SystemId::CatBoost,
            SystemId::LightGbm,
            SystemId::XgBoost,
            SystemId::SkBoost,
            SystemId::Ours,
        ]
    }
}

/// One system × dataset result.
#[derive(Debug, Clone, Serialize)]
pub struct RunOutcome {
    /// System name.
    pub system: String,
    /// Dataset name.
    pub dataset: String,
    /// Training time in seconds ([`TimeDomain`] says which clock).
    pub seconds: f64,
    /// Which clock `seconds` is on.
    pub domain: TimeDomain,
    /// Metric name (`accuracy%` or `rmse`).
    pub metric_name: &'static str,
    /// Metric value on the held-out test set.
    pub metric: f64,
    /// Phase breakdown (simulated systems only).
    #[serde(skip)]
    pub ledger: Option<LedgerSummary>,
}

/// Scaled-down training configuration for the harness.
/// `--full` runs restore the paper's §4.1 defaults (100 trees, depth 7,
/// 256 bins).
pub fn bench_config(trees: usize, depth: usize, bins: usize) -> TrainConfig {
    TrainConfig {
        num_trees: trees,
        max_depth: depth,
        max_bins: bins,
        min_instances: 20,
        learning_rate: 1.0,
        ..TrainConfig::default()
    }
}

/// Task-appropriate test metric on raw scores, as in Tables 3–4:
/// accuracy (%) for multiclass, RMSE for regression, RMSE over
/// predicted probabilities for multilabel.
pub fn metric_of(task: Task, raw_scores: &[f32], test: &Dataset) -> (&'static str, f64) {
    match task {
        Task::MultiClass => ("accuracy%", 100.0 * accuracy(raw_scores, &test.labels())),
        Task::MultiRegression => ("rmse", rmse(raw_scores, test.targets())),
        Task::MultiLabel => {
            let loss = loss_for_task(task);
            let mut probs = raw_scores.to_vec();
            for row in probs.chunks_mut(test.d()) {
                loss.transform_row(row);
            }
            ("rmse", rmse(&probs, test.targets()))
        }
    }
}

/// Train `system` on `train`, evaluate on `test`.
pub fn run_system(
    system: SystemId,
    dataset_name: &str,
    train: &Dataset,
    test: &Dataset,
    config: &TrainConfig,
) -> RunOutcome {
    let task = train.task();
    let (seconds, domain, scores, ledger) = match system {
        SystemId::Ours | SystemId::OursMultiGpu(_) => {
            let k = match system {
                SystemId::OursMultiGpu(k) => k,
                _ => 1,
            };
            let r = GpuTrainer::new(DeviceGroup::rtx4090s(k), config.clone()).fit_report(train);
            (
                r.sim_seconds,
                TimeDomain::Simulated,
                r.model.predict(test.features()),
                Some(r.sim),
            )
        }
        SystemId::XgBoost | SystemId::LightGbm | SystemId::CatBoost => {
            let policy = match system {
                SystemId::XgBoost => GrowthPolicy::LevelWise,
                SystemId::LightGbm => GrowthPolicy::LeafWise,
                _ => GrowthPolicy::Oblivious,
            };
            let r = GbdtSoTrainer::new(Device::rtx4090(), config.clone(), policy).fit_report(train);
            (
                r.sim_seconds,
                TimeDomain::Simulated,
                r.model.predict(test.features()),
                Some(r.sim),
            )
        }
        SystemId::SkBoost => {
            let mut cfg = config.clone();
            cfg.hist.method = HistogramMethod::GlobalMemory;
            cfg.hist.warp_packing = false;
            let r = SketchBoostTrainer::new(
                pyboost_device(),
                cfg,
                SketchStrategy::TopOutputs,
                SketchBoostTrainer::DEFAULT_SKETCH_DIM,
            )
            .fit_report(train);
            (
                r.sim_seconds,
                TimeDomain::Simulated,
                r.model.predict(test.features()),
                Some(r.sim),
            )
        }
        SystemId::MoFu | SystemId::MoSp => {
            let storage = if system == SystemId::MoFu {
                CpuStorage::Dense
            } else {
                CpuStorage::Sparse
            };
            let r = CpuMoTrainer::new(config.clone(), storage).fit_report(train);
            (
                r.wall_seconds,
                TimeDomain::HostWall,
                r.model.predict(test.features()),
                None,
            )
        }
    };
    let (metric_name, metric) = metric_of(task, &scores, test);
    RunOutcome {
        system: system.name(),
        dataset: dataset_name.to_string(),
        seconds,
        domain,
        metric_name,
        metric,
        ledger,
    }
}

/// Generate a paper dataset at the harness's reduced shape (optionally
/// rescaled) and split 80/20.
pub fn bench_dataset(ds: PaperDataset, scale_mult: f64, seed: u64) -> (Dataset, Dataset, String) {
    let (scale, m_cap, d_cap) = ds.bench_shape();
    let data = ds.generate(scale * scale_mult, m_cap, d_cap, seed);
    let (train, test) = data.split(0.2, seed.wrapping_add(1));
    (train, test, ds.shape().name.to_string())
}

/// Predict with a core model and compute the test metric (utility for
/// ablation benches).
pub fn model_metric(model: &gbdt_core::Model, test: &Dataset) -> f64 {
    let (_, v) = metric_of(test.task(), &model.predict(test.features()), test);
    v
}

/// Fixed-width table renderer (first column left-aligned).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<w$}", cell, w = widths[0]));
            } else {
                line.push_str(&format!("  {:>w$}", cell, w = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_every_system_on_a_tiny_dataset() {
        let (train, test, name) = bench_dataset(PaperDataset::Otto, 0.3, 1);
        let cfg = bench_config(3, 3, 16);
        for system in [
            SystemId::Ours,
            SystemId::OursMultiGpu(2),
            SystemId::XgBoost,
            SystemId::LightGbm,
            SystemId::CatBoost,
            SystemId::SkBoost,
            SystemId::MoFu,
            SystemId::MoSp,
        ] {
            let r = run_system(system, &name, &train, &test, &cfg);
            assert!(r.seconds > 0.0, "{}: no time booked", r.system);
            assert!(r.metric.is_finite());
            match system {
                SystemId::MoFu | SystemId::MoSp => assert_eq!(r.domain, TimeDomain::HostWall),
                _ => assert_eq!(r.domain, TimeDomain::Simulated),
            }
        }
    }

    #[test]
    fn metric_matches_task_kind() {
        let (train, test, _) = bench_dataset(PaperDataset::Rf1, 0.3, 2);
        assert_eq!(train.task(), Task::MultiRegression);
        let cfg = bench_config(3, 3, 16);
        let r = run_system(SystemId::Ours, "RF1", &train, &test, &cfg);
        assert_eq!(r.metric_name, "rmse");

        let (train, test, _) = bench_dataset(PaperDataset::Otto, 0.3, 2);
        let r = run_system(SystemId::Ours, "Otto", &train, &test, &cfg);
        assert_eq!(r.metric_name, "accuracy%");
        assert!(r.metric >= 0.0 && r.metric <= 100.0);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["dataset", "a", "b"],
            &[
                vec!["MNIST".into(), "1.0".into(), "2.0".into()],
                vec!["Caltech101".into(), "10.5".into(), "0.1".into()],
            ],
        );
        assert!(t.contains("MNIST"));
        assert!(t.contains("Caltech101"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[1].chars().filter(|&c| c == '-').count(),
            lines[1].len()
        );
    }

    #[test]
    fn fmt_secs_scales_units() {
        assert_eq!(fmt_secs(0.0123), "12.30ms");
        assert_eq!(fmt_secs(3.21), "3.21");
        assert_eq!(fmt_secs(123.4), "123");
    }

    #[test]
    fn pyboost_device_is_slower_per_launch() {
        // The sk-boost substrate models Python/CuPy dispatch overhead:
        // same kernel, more time.
        use gpusim::cost::KernelCost;
        let native = gpusim::Device::rtx4090();
        let pyboost = pyboost_device();
        let k = KernelCost::streaming(1e6, 1e6);
        native.charge_kernel("k", gpusim::Phase::Other, &k);
        pyboost.charge_kernel("k", gpusim::Phase::Other, &k);
        assert!(
            pyboost.now_ns() > native.now_ns() * 5.0,
            "pyboost {} vs native {}",
            pyboost.now_ns(),
            native.now_ns()
        );
    }

    #[test]
    fn bench_dataset_scales_and_names() {
        let (train, test, name) = bench_dataset(PaperDataset::Delicious, 1.0, 3);
        assert_eq!(name, "Delicious");
        assert!(train.n() > test.n());
        let (bigger, _, _) = bench_dataset(PaperDataset::Delicious, 2.0, 3);
        assert!(bigger.n() > train.n());
    }
}
