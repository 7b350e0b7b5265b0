//! CPU GBDT-MO baselines — the paper's `mo-full` ("mo-fu", dense
//! storage) and `mo-sparse` ("mo-sp", CSC storage) comparators
//! (Zhang & Jung 2020, as used in the paper's Table 4).
//!
//! Unlike the GPU trainers, these run the *same algorithm* natively on
//! host cores (rayon across features, like the original's OpenMP) and
//! report **measured wall-clock**, not simulated time. The dense
//! variant streams the column-major bin matrix; the sparse variant
//! walks CSC non-zeros and fills the implicit-zero bin in closed form —
//! cheaper on very sparse data, slower on dense data (which is why the
//! paper's Table 4 shows `mo-sp` behind `mo-fu` on these datasets).

use gbdt_core::config::TrainConfig;
use gbdt_core::grad::Gradients;
use gbdt_core::grow::{GrowResult, OpenNode};
use gbdt_core::hist::{accumulate_dense, accumulate_sparse, HistContext, NodeHistogram};
use gbdt_core::loss::loss_for_task;
use gbdt_core::model::Model;
use gbdt_core::split::{find_best_split_constrained, LevelSplitCharges, SplitParams};
use gbdt_core::trainer::base_scores;
use gbdt_data::{BinnedDataset, Dataset};
use gpusim::Device;
use rayon::prelude::*;
use std::time::Instant;

/// Feature-storage variant of the CPU trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuStorage {
    /// Dense column-major bin matrix (`mo-full` / "mo-fu").
    Dense,
    /// CSC non-zeros + implicit zero bin (`mo-sparse` / "mo-sp").
    Sparse,
}

/// Report of a CPU training run: the model plus *measured* host time.
#[derive(Debug)]
pub struct CpuReport {
    /// The trained model (same [`Model`] type as the GPU trainer — the
    /// algorithms are identical, only the execution substrate differs).
    pub model: Model,
    /// Measured wall-clock seconds of the fit.
    pub wall_seconds: f64,
}

/// Multicore CPU GBDT-MO trainer.
pub struct CpuMoTrainer {
    config: TrainConfig,
    storage: CpuStorage,
}

impl CpuMoTrainer {
    /// Create a CPU trainer over the chosen storage.
    pub fn new(config: TrainConfig, storage: CpuStorage) -> Self {
        config.validate().expect("invalid training configuration");
        CpuMoTrainer { config, storage }
    }

    /// Train and return just the model.
    pub fn fit(&self, ds: &Dataset) -> Model {
        self.fit_report(ds).model
    }

    /// Train, measuring host wall-clock.
    pub fn fit_report(&self, ds: &Dataset) -> CpuReport {
        let start = Instant::now();
        let n = ds.n();
        let d = ds.d();
        let binned = BinnedDataset::build(ds.features(), self.config.max_bins);
        let loss = loss_for_task(ds.task());
        let params = SplitParams::from(&self.config);
        // Only the columns that can split are built and scanned, as in
        // the GPU growers, so both sides of Table 4 do the same work.
        let features = binned.splittable(&(0..ds.m() as u32).collect::<Vec<_>>());

        let base = base_scores(ds);
        let mut scores = vec![0.0f32; n * d];
        for row in scores.chunks_mut(d) {
            row.copy_from_slice(&base);
        }

        // A throwaway device: the shared histogram helpers take a
        // HistContext; all charges land on this ledger and are ignored.
        // The *measured* wall-clock is what this trainer reports.
        let scratch_device = Device::rtx4090();

        let mut trees = Vec::with_capacity(self.config.num_trees);
        let mut hist = NodeHistogram::new(features.len(), d, self.config.max_bins);

        for _t in 0..self.config.num_trees {
            // Gradients, multicore.
            let mut g = vec![0.0f32; n * d];
            let mut h = vec![0.0f32; n * d];
            g.par_chunks_mut(d)
                .zip(h.par_chunks_mut(d))
                .enumerate()
                .for_each(|(i, (gr, hr))| {
                    loss.grad_hess_row(
                        &scores[i * d..(i + 1) * d],
                        &ds.targets()[i * d..(i + 1) * d],
                        gr,
                        hr,
                    );
                });
            let grads = Gradients::new(g, h, n, d);
            let ctx = HistContext {
                device: &scratch_device,
                data: &binned,
                grads: &grads,
                features: &features,
                bins: self.config.max_bins,
                opts: self.config.hist,
            };

            // Level-wise growth (identical logic to the GPU grower).
            let mut grown = GrowResult::new(d, features.len());
            let mut frontier = vec![OpenNode::root(&grads, (0..n as u32).collect())];
            let mut sink = LevelSplitCharges::new();

            for _depth in 0..self.config.max_depth {
                let mut next = Vec::new();
                for open in frontier {
                    let split = if open.instances.len() < 2 * self.config.min_instances {
                        None
                    } else {
                        hist.reset();
                        match self.storage {
                            CpuStorage::Dense => accumulate_dense(&ctx, &open.instances, &mut hist),
                            CpuStorage::Sparse => accumulate_sparse(
                                &ctx,
                                &open.instances,
                                &open.g,
                                &open.h,
                                &mut hist,
                            ),
                        }
                        find_best_split_constrained(
                            &mut sink,
                            &hist,
                            &features,
                            0..features.len(),
                            &open.g,
                            &open.h,
                            open.instances.len() as u32,
                            &params,
                            None,
                        )
                    };
                    match split {
                        Some(split) => next.extend(open.split(split, &binned, &mut grown.tree).0),
                        None => open.close_leaf(&mut grown, &self.config, None, &scratch_device),
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            for open in frontier {
                open.close_leaf(&mut grown, &self.config, None, &scratch_device);
            }

            for (instances, value) in &grown.leaf_assignments {
                for &i in instances {
                    let bss = i as usize * d;
                    for k in 0..d {
                        scores[bss + k] += value[k];
                    }
                }
            }
            trees.push(grown.tree);
        }

        CpuReport {
            model: Model {
                trees,
                base,
                d,
                task: ds.task(),
                config: self.config.clone(),
            },
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::metrics::accuracy;
    use gbdt_core::trainer::GpuTrainer;
    use gbdt_core::tree::Node;
    use gbdt_data::synth::{make_classification, ClassificationSpec};
    use gbdt_data::DenseMatrix;

    fn dataset(sparsity: f64, seed: u64) -> Dataset {
        make_classification(&ClassificationSpec {
            instances: 400,
            features: 12,
            classes: 3,
            informative: 8,
            class_sep: 2.0,
            sparsity,
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
    fn dense_and_sparse_produce_equivalent_models() {
        let ds = dataset(0.5, 1);
        let dense = CpuMoTrainer::new(quick_config(), CpuStorage::Dense).fit(&ds);
        let sparse = CpuMoTrainer::new(quick_config(), CpuStorage::Sparse).fit(&ds);
        let pd = dense.predict(ds.features());
        let ps = sparse.predict(ds.features());
        for (a, b) in pd.iter().zip(&ps) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn cpu_model_matches_gpu_model_exactly_in_structure() {
        // Same algorithm, same data, same config → same splits. The GPU
        // path is the same functional code charged to a device.
        let ds = dataset(0.3, 2);
        let cpu = CpuMoTrainer::new(quick_config(), CpuStorage::Dense).fit(&ds);
        let gpu = GpuTrainer::new(Device::rtx4090(), quick_config()).fit(&ds);
        assert_eq!(cpu.predict(ds.features()), gpu.predict(ds.features()));
    }

    /// `ds` with one-bin columns (alternately zero and a non-zero
    /// constant) at the wide positions `at`, and the original id of each
    /// wide column that is not one of them.
    fn with_constant_columns(ds: &Dataset, at: &[usize]) -> (Dataset, Vec<Option<u32>>) {
        let (n, m) = (ds.n(), ds.m());
        let mut original = Vec::with_capacity(m + at.len());
        let mut next = 0u32;
        for j in 0..m + at.len() {
            if at.contains(&j) {
                original.push(None);
            } else {
                original.push(Some(next));
                next += 1;
            }
        }
        let mut values = Vec::with_capacity(n * original.len());
        for i in 0..n {
            let row = ds.features().row(i);
            values.extend(original.iter().enumerate().map(|(j, orig)| match orig {
                Some(f) => row[*f as usize],
                None if j % 2 == 0 => 0.0,
                None => 2.5,
            }));
        }
        let wide = Dataset::new(
            DenseMatrix::new(n, original.len(), values),
            ds.targets().to_vec(),
            ds.d(),
            ds.task(),
        );
        (wide, original)
    }

    #[test]
    fn constant_columns_leave_cpu_trees_unchanged() {
        let base = dataset(0.3, 6);
        // One-bin columns first, between splittable ones and last, so a
        // column's position among the splittable ones differs from its id.
        let (wide, original) = with_constant_columns(&base, &[0, 4, 5, 9, 16]);
        assert_eq!(wide.m(), base.m() + 5);
        for min_instances in [0, 5] {
            let cfg = TrainConfig {
                min_instances,
                ..quick_config()
            };
            for storage in [CpuStorage::Dense, CpuStorage::Sparse] {
                let want = CpuMoTrainer::new(cfg.clone(), storage).fit(&base);
                let got = CpuMoTrainer::new(cfg.clone(), storage).fit(&wide);
                assert_eq!(got.trees.len(), want.trees.len());
                for (g, w) in got.trees.iter().zip(&want.trees) {
                    let mapped: Vec<Node> = g
                        .nodes()
                        .iter()
                        .map(|node| match node.clone() {
                            Node::Split {
                                feature,
                                bin,
                                threshold,
                                left,
                                right,
                            } => Node::Split {
                                feature: original[feature as usize]
                                    .expect("a one-bin column never splits"),
                                bin,
                                threshold,
                                left,
                                right,
                            },
                            leaf => leaf,
                        })
                        .collect();
                    assert_eq!(
                        mapped,
                        w.nodes(),
                        "{storage:?}, min_instances {min_instances}"
                    );
                }
                assert_eq!(
                    got.predict(wide.features()),
                    want.predict(base.features()),
                    "{storage:?}, min_instances {min_instances}"
                );
            }
        }
        // With no column that can split, every tree is one leaf.
        let (n, d) = (base.n(), base.d());
        let flat = Dataset::new(
            DenseMatrix::new(n, 2, vec![2.5; n * 2]),
            base.targets().to_vec(),
            d,
            base.task(),
        );
        for storage in [CpuStorage::Dense, CpuStorage::Sparse] {
            let model = CpuMoTrainer::new(quick_config(), storage).fit(&flat);
            assert!(
                model.trees.iter().all(|t| t.num_nodes() == 1),
                "{storage:?}"
            );
        }
    }

    #[test]
    fn cpu_learns() {
        let ds = dataset(0.2, 3);
        let (train, test) = ds.split(0.3, 4);
        let report = CpuMoTrainer::new(quick_config(), CpuStorage::Dense).fit_report(&train);
        let acc = accuracy(&report.model.predict(test.features()), &test.labels());
        assert!(acc > 0.7, "accuracy {acc}");
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn wall_clock_is_measured() {
        let ds = dataset(0.0, 5);
        let r = CpuMoTrainer::new(quick_config(), CpuStorage::Sparse).fit_report(&ds);
        assert!(r.wall_seconds > 0.0 && r.wall_seconds < 60.0);
    }
}
