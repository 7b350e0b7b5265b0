//! Multi-output random forest — the bagging-family comparator from the
//! paper's related work ("multi-output random forests ensuring
//! robustness and interpretability", §5).
//!
//! Each tree fits the raw targets directly (one full-strength MSE
//! gradient step from zero scores is exactly a variance-reduction
//! regression tree whose leaves hold target means) on a bootstrap
//! sample, with a random feature subset per tree; predictions average
//! the ensemble. Runs on the simulated device like every other GPU
//! system here, so it slots into the same comparison tables.

use gbdt_core::config::TrainConfig;
use gbdt_core::grad::Gradients;
use gbdt_core::grow::grow_tree_on;
use gbdt_core::predict::predict_raw;
use gbdt_core::tree::Tree;
use gbdt_data::{BinnedDataset, Dataset, DenseMatrix};
use gpusim::cost::KernelCost;
use gpusim::{Device, LedgerSummary, Phase};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Random-forest hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub num_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Histogram bins.
    pub max_bins: usize,
    /// Minimum instances per leaf.
    pub min_instances: usize,
    /// Features considered per tree (fraction; classic RF uses √m —
    /// pass `None` for that default).
    pub feature_fraction: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            num_trees: 50,
            max_depth: 8,
            max_bins: 64,
            min_instances: 5,
            feature_fraction: None,
            seed: 0,
        }
    }
}

/// A trained multi-output random forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForestModel {
    /// The trees (each with `d`-dimensional mean leaves).
    pub trees: Vec<Tree>,
    /// Output dimension.
    pub d: usize,
}

impl ForestModel {
    /// Averaged `n × d` predictions.
    pub fn predict(&self, features: &DenseMatrix) -> Vec<f32> {
        let base = vec![0.0f32; self.d];
        let mut sum = predict_raw(&self.trees, &base, features);
        let inv = 1.0 / self.trees.len().max(1) as f32;
        for v in &mut sum {
            *v *= inv;
        }
        sum
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Report of one forest fit.
#[derive(Debug)]
pub struct ForestReport {
    /// The trained forest.
    pub model: ForestModel,
    /// Simulated device time.
    pub sim: LedgerSummary,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Host wall-clock seconds.
    pub host_seconds: f64,
}

/// Multi-output random-forest trainer on the simulated device.
pub struct RandomForestTrainer {
    device: Arc<Device>,
    config: ForestConfig,
}

impl RandomForestTrainer {
    /// Create a trainer.
    pub fn new(device: Arc<Device>, config: ForestConfig) -> Self {
        assert!(config.num_trees > 0, "need at least one tree");
        RandomForestTrainer { device, config }
    }

    /// Fit and return just the model.
    pub fn fit(&self, ds: &Dataset) -> ForestModel {
        self.fit_report(ds).model
    }

    /// Fit with the timing report.
    pub fn fit_report(&self, ds: &Dataset) -> ForestReport {
        let start = self.device.summary();
        let host_start = Instant::now();
        let n = ds.n();
        let d = ds.d();
        let device = &*self.device;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);

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

        // A variance-reduction tree = one full MSE gradient step from
        // zero scores: g = −2y, h = 2 ⇒ leaf value −G/(H+λ) = mean(y)
        // with λ = 0.
        let grads = Gradients::new(
            ds.targets().iter().map(|&y| -2.0 * y).collect(),
            vec![2.0; n * d],
            n,
            d,
        );
        device.charge_kernel(
            "rf_pseudo_gradients",
            Phase::Gradient,
            // One write and one uniform-Hessian compare per element.
            &KernelCost::streaming((n * d * 2) as f64, (n * d * 12) as f64),
        );

        let m = ds.m();
        let feature_count = match self.config.feature_fraction {
            Some(f) => ((m as f64 * f).round() as usize).clamp(1, m),
            None => (m as f64).sqrt().round().max(1.0) as usize,
        };
        let tree_config = TrainConfig {
            num_trees: 1,
            max_depth: self.config.max_depth,
            max_bins: self.config.max_bins,
            min_instances: self.config.min_instances,
            lambda: 0.0,
            learning_rate: 1.0,
            ..TrainConfig::default()
        };

        let mut trees = Vec::with_capacity(self.config.num_trees);
        for _ in 0..self.config.num_trees {
            // Bootstrap sample (with replacement), sorted for locality.
            let mut sample: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n as u32)).collect();
            sample.sort_unstable();
            // Random feature subset.
            let mut features: Vec<u32> = (0..m as u32).collect();
            features.shuffle(&mut rng);
            features.truncate(feature_count);
            features.sort_unstable();

            let grown = grow_tree_on(device, &binned, &grads, &tree_config, &features, sample);
            trees.push(grown.tree);
        }

        let model = ForestModel { trees, d };
        let sim = self.device.summary().since(&start);
        ForestReport {
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
    use gbdt_core::{accuracy, rmse};
    use gbdt_data::synth::{
        make_classification, make_regression, ClassificationSpec, RegressionSpec,
    };

    fn quick() -> ForestConfig {
        ForestConfig {
            num_trees: 20,
            max_depth: 6,
            max_bins: 32,
            min_instances: 3,
            ..ForestConfig::default()
        }
    }

    #[test]
    fn forest_learns_classification() {
        let ds = make_classification(&ClassificationSpec {
            instances: 600,
            features: 12,
            classes: 3,
            informative: 9,
            class_sep: 2.0,
            flip_y: 0.0,
            seed: 60,
            ..Default::default()
        });
        let (train, test) = ds.split(0.3, 61);
        let model = RandomForestTrainer::new(Device::rtx4090(), quick()).fit(&train);
        let acc = accuracy(&model.predict(test.features()), &test.labels());
        assert!(acc > 0.75, "forest accuracy {acc}");
    }

    #[test]
    fn forest_learns_regression_and_beats_mean() {
        let ds = make_regression(&RegressionSpec {
            instances: 700,
            features: 10,
            outputs: 3,
            informative: 7,
            noise: 0.05,
            seed: 62,
            ..Default::default()
        });
        let (train, test) = ds.split(0.3, 63);
        let model = RandomForestTrainer::new(Device::rtx4090(), quick()).fit(&train);
        let e = rmse(&model.predict(test.features()), test.targets());
        let mean: f32 = train.targets().iter().sum::<f32>() / train.targets().len() as f32;
        let e0 = rmse(&vec![mean; test.targets().len()], test.targets());
        assert!(e < e0 * 0.8, "forest rmse {e} vs global-mean {e0}");
    }

    #[test]
    fn forest_is_deterministic() {
        let ds = make_classification(&ClassificationSpec {
            instances: 300,
            features: 8,
            classes: 3,
            informative: 6,
            seed: 64,
            ..Default::default()
        });
        let a = RandomForestTrainer::new(Device::rtx4090(), quick()).fit(&ds);
        let b = RandomForestTrainer::new(Device::rtx4090(), quick()).fit(&ds);
        assert_eq!(a.predict(ds.features()), b.predict(ds.features()));
    }

    #[test]
    fn trees_differ_thanks_to_bagging() {
        let ds = make_classification(&ClassificationSpec {
            instances: 400,
            features: 12,
            classes: 3,
            informative: 9,
            seed: 65,
            ..Default::default()
        });
        let model = RandomForestTrainer::new(Device::rtx4090(), quick()).fit(&ds);
        let distinct = model.trees.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            distinct > 0,
            "bootstrap/feature sampling must diversify trees"
        );
        assert_eq!(model.num_trees(), 20);
    }

    #[test]
    fn averaging_bounds_predictions() {
        // Forest output is a mean of per-tree leaf means of one-hot
        // targets → every class score stays in [0, 1].
        let ds = make_classification(&ClassificationSpec {
            instances: 300,
            features: 8,
            classes: 3,
            informative: 6,
            seed: 66,
            ..Default::default()
        });
        let model = RandomForestTrainer::new(Device::rtx4090(), quick()).fit(&ds);
        let scores = model.predict(ds.features());
        assert!(
            scores.iter().all(|&s| (-0.01..=1.01).contains(&s)),
            "scores outside [0,1]"
        );
    }
}
