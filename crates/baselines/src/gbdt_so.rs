//! GBDT-SO: single-output GBDT baselines (paper Fig. 1, left side).
//!
//! Where GBDT-MO trains `|T|` trees with `d`-dimensional leaves, the
//! single-output systems train `d × |T|` trees — one ensemble per
//! class/label/target — which is exactly why their cost balloons with
//! the output count (the paper's Fig. 6b). Three flavours mirror the
//! paper's GPU baselines by growth policy:
//!
//! | flavour  | paper baseline | growth               |
//! |----------|----------------|----------------------|
//! | [`GrowthPolicy::LevelWise`] | XGBoost  | depth-synchronous    |
//! | [`GrowthPolicy::LeafWise`]  | LightGBM | best-gain-first      |
//! | [`GrowthPolicy::Oblivious`] | CatBoost | symmetric trees      |
//!
//! Multiclass training is faithful to the real systems: each boosting
//! round computes the softmax gradient over *all* class scores, then
//! fits one single-output tree per class on its gradient column.

use crate::growers::{grow_tree_leafwise, grow_tree_oblivious};
use gbdt_core::config::TrainConfig;
use gbdt_core::grad::{compute_gradients, update_scores_from_leaves, Gradients};
use gbdt_core::grow::{grow_tree, GrowResult};
use gbdt_core::loss::loss_for_task;
use gbdt_core::predict::predict_raw;
use gbdt_core::trainer::base_scores;
use gbdt_core::tree::Tree;
use gbdt_data::{BinnedDataset, Dataset, DenseMatrix, Task};
use gpusim::cost::KernelCost;
use gpusim::{Device, LedgerSummary, Phase};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Tree-growth policy, distinguishing the three GPU baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrowthPolicy {
    /// Depth-synchronous growth (XGBoost-style).
    LevelWise,
    /// Best-gain-first growth with a `2^max_depth` leaf budget
    /// (LightGBM-style).
    LeafWise,
    /// Symmetric/oblivious trees (CatBoost-style).
    Oblivious,
}

/// A trained single-output baseline: `d` independent ensembles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoModel {
    /// `per_output[k]` is output `k`'s tree sequence (each tree has
    /// 1-dimensional leaves).
    pub per_output: Vec<Vec<Tree>>,
    /// Initial score per output.
    pub base: Vec<f32>,
    /// Output dimension.
    pub d: usize,
    /// Task trained for.
    pub task: Task,
}

impl SoModel {
    /// Raw `n × d` scores (column `k` from ensemble `k`).
    pub fn predict(&self, features: &DenseMatrix) -> Vec<f32> {
        let n = features.rows();
        let d = self.d;
        let mut scores = vec![0.0f32; n * d];
        for (k, trees) in self.per_output.iter().enumerate() {
            let col = predict_raw(trees, &[self.base[k]], features);
            for i in 0..n {
                scores[i * d + k] = col[i];
            }
        }
        scores
    }

    /// Total trees across all ensembles — `d×` the GBDT-MO count, the
    /// model-complexity argument of the paper's §2.1.
    pub fn num_trees(&self) -> usize {
        self.per_output.iter().map(Vec::len).sum()
    }

    /// Approximate model bytes.
    pub fn memory_bytes(&self) -> usize {
        self.per_output
            .iter()
            .flatten()
            .map(Tree::memory_bytes)
            .sum()
    }
}

/// Report of one GBDT-SO training run.
#[derive(Debug)]
pub struct SoReport {
    /// The trained model.
    pub model: SoModel,
    /// Simulated device time of the fit.
    pub sim: LedgerSummary,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Host wall-clock seconds.
    pub host_seconds: f64,
}

/// Single-output GBDT trainer on the simulated device.
pub struct GbdtSoTrainer {
    device: Arc<Device>,
    config: TrainConfig,
    policy: GrowthPolicy,
}

impl GbdtSoTrainer {
    /// Create a trainer with the given growth policy.
    pub fn new(device: Arc<Device>, config: TrainConfig, policy: GrowthPolicy) -> Self {
        config.validate().expect("invalid training configuration");
        GbdtSoTrainer {
            device,
            config,
            policy,
        }
    }

    /// The device charged by this trainer.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    fn grow(&self, binned: &BinnedDataset, grads: &Gradients, features: &[u32]) -> GrowResult {
        match self.policy {
            GrowthPolicy::LevelWise => {
                grow_tree(&self.device, binned, grads, &self.config, features)
            }
            GrowthPolicy::LeafWise => {
                // LightGBM bounds the number of leaves, not the depth:
                // keep the leaf budget at 2^max_depth but let chains
                // grow deeper, as `num_leaves`-driven growth does.
                let mut cfg = self.config.clone();
                cfg.max_depth = (self.config.max_depth + 4).min(24);
                grow_tree_leafwise(
                    &self.device,
                    binned,
                    grads,
                    &cfg,
                    features,
                    1 << self.config.max_depth,
                )
            }
            GrowthPolicy::Oblivious => {
                grow_tree_oblivious(&self.device, binned, grads, &self.config, features)
            }
        }
    }

    /// Train and return just the model.
    pub fn fit(&self, ds: &Dataset) -> SoModel {
        self.fit_report(ds).model
    }

    /// Train with the timing report.
    pub fn fit_report(&self, ds: &Dataset) -> SoReport {
        let start = self.device.summary();
        let host_start = Instant::now();
        let n = ds.n();
        let d = ds.d();
        let device = &*self.device;

        let raw_bytes = (n * ds.m() * 4) as f64;
        device.charge_ns(
            "htod_features",
            Phase::Transfer,
            device.model().host_copy_ns(raw_bytes),
        );
        let binned = BinnedDataset::build(ds.features(), self.config.max_bins);
        device.charge_kernel(
            "quantile_binning",
            Phase::Binning,
            &KernelCost::streaming((n * ds.m()) as f64 * 16.0, raw_bytes * 2.5),
        );

        let base = base_scores(ds);
        let mut scores = vec![0.0f32; n * d];
        for row in scores.chunks_mut(d) {
            row.copy_from_slice(&base);
        }
        let loss = loss_for_task(ds.task());
        let features: Vec<u32> = (0..ds.m() as u32).collect();
        let mut per_output: Vec<Vec<Tree>> = vec![Vec::new(); d];

        for _round in 0..self.config.num_trees {
            // Full-dimensional gradients from the shared scores (softmax
            // couples the classes, exactly as XGBoost's multiclass mode).
            let grads = compute_gradients(device, loss.as_ref(), &scores, ds.targets(), n, d);
            for k in 0..d {
                // Column k as a single-output gradient set.
                let gk = Gradients::new(
                    (0..n).map(|i| grads.g[i * d + k]).collect(),
                    (0..n).map(|i| grads.h[i * d + k]).collect(),
                    n,
                    1,
                );
                device.charge_kernel(
                    "strided_gather_column",
                    Phase::Gradient,
                    // The gather plus the uniform-Hessian check of the column.
                    &KernelCost::streaming((n * 2) as f64, (n * 16) as f64),
                );
                let grown = self.grow(&binned, &gk, &features);
                // Scatter this tree's leaf deltas into score column k.
                let mut col_scores: Vec<f32> = (0..n).map(|i| scores[i * d + k]).collect();
                update_scores_from_leaves(device, &mut col_scores, 1, &grown.leaf_assignments);
                for i in 0..n {
                    scores[i * d + k] = col_scores[i];
                }
                per_output[k].push(grown.tree);
            }
        }

        let model = SoModel {
            per_output,
            base,
            d,
            task: ds.task(),
        };
        let sim = self.device.summary().since(&start);
        SoReport {
            sim_seconds: sim.total_ns * 1e-9,
            host_seconds: host_start.elapsed().as_secs_f64(),
            sim,
            model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::metrics::accuracy;
    use gbdt_core::trainer::GpuTrainer;
    use gbdt_data::synth::{make_classification, ClassificationSpec};

    fn dataset(classes: usize, seed: u64) -> Dataset {
        make_classification(&ClassificationSpec {
            instances: 400,
            features: 10,
            classes,
            informative: 8,
            class_sep: 2.0,
            flip_y: 0.0,
            seed,
            ..Default::default()
        })
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            num_trees: 5,
            max_depth: 4,
            max_bins: 32,
            min_instances: 5,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn all_policies_learn() {
        let ds = dataset(3, 1);
        let (train, test) = ds.split(0.3, 2);
        for policy in [
            GrowthPolicy::LevelWise,
            GrowthPolicy::LeafWise,
            GrowthPolicy::Oblivious,
        ] {
            let model = GbdtSoTrainer::new(Device::rtx4090(), quick_config(), policy).fit(&train);
            let acc = accuracy(&model.predict(test.features()), &test.labels());
            assert!(acc > 0.7, "{policy:?} accuracy only {acc}");
        }
    }

    #[test]
    fn trains_d_times_more_trees_than_mo() {
        let ds = dataset(4, 2);
        let so =
            GbdtSoTrainer::new(Device::rtx4090(), quick_config(), GrowthPolicy::LevelWise).fit(&ds);
        let mo = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        assert_eq!(so.num_trees(), 4 * mo.num_trees());
    }

    #[test]
    fn so_cost_scales_with_class_count_mo_does_not() {
        // The Fig. 6b mechanism: GBDT-SO simulated time grows roughly
        // linearly in d, GBDT-MO much slower.
        let few = dataset(2, 3);
        let many = dataset(8, 3);

        let so_few = GbdtSoTrainer::new(Device::rtx4090(), quick_config(), GrowthPolicy::LevelWise)
            .fit_report(&few);
        let so_many =
            GbdtSoTrainer::new(Device::rtx4090(), quick_config(), GrowthPolicy::LevelWise)
                .fit_report(&many);
        let so_ratio = so_many.sim_seconds / so_few.sim_seconds;

        let mo_few = GpuTrainer::new(Device::rtx4090(), quick_config()).fit_report(&few);
        let mo_many = GpuTrainer::new(Device::rtx4090(), quick_config()).fit_report(&many);
        let mo_ratio = mo_many.sim_seconds / mo_few.sim_seconds;

        assert!(
            so_ratio > 2.0,
            "SO should scale steeply with classes: ratio {so_ratio}"
        );
        assert!(
            mo_ratio < so_ratio,
            "MO ratio {mo_ratio} must beat SO ratio {so_ratio}"
        );
    }

    #[test]
    fn so_predictions_have_right_shape() {
        let ds = dataset(3, 4);
        let model =
            GbdtSoTrainer::new(Device::rtx4090(), quick_config(), GrowthPolicy::LeafWise).fit(&ds);
        let scores = model.predict(ds.features());
        assert_eq!(scores.len(), ds.n() * 3);
        assert!(model.memory_bytes() > 0);
    }
}
