//! Shape-faithful synthetic replicas of the paper's nine evaluation
//! datasets (Table 1).
//!
//! The real datasets are not redistributable here, so each is replaced
//! by a synthetic stand-in generated with matching shape — instance
//! count, feature count, output dimension, task type and approximate
//! feature sparsity. Histogram-building cost (the paper's bottleneck)
//! depends exactly on these shape parameters plus the bin-collision
//! distribution, so the timing experiments transfer; absolute accuracy
//! values do not, and EXPERIMENTS.md flags that.
//!
//! Because several full-size configurations need multi-GB histograms,
//! every dataset can be generated at a `scale` factor on the instance
//! count and with caps on features/outputs; the defaults used by the
//! benchmark driver are in [`PaperDataset::bench_shape`].

use crate::synth::{
    make_classification, make_multilabel, make_regression, ClassificationSpec, MultilabelSpec,
    RegressionSpec,
};
use crate::{Dataset, Task};
use serde::{Deserialize, Serialize};

/// The nine datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperDataset {
    /// Otto Group product classification: 61,878 × 93, 9 classes.
    Otto,
    /// San Francisco crime: 878,049 × 10, 39 classes.
    SfCrime,
    /// Helena (AutoML): 65,196 × 27, 100 classes.
    Helena,
    /// Caltech101 silhouettes: 6,073 × 324, 101 classes.
    Caltech101,
    /// MNIST digits: 50,000 × 784, 10 classes.
    Mnist,
    /// MNIST-Inpainting: 50,000 × 200, 24 regression outputs.
    MnistIn,
    /// River flow RF1: 9,125 × 61, 16 regression outputs.
    Rf1,
    /// Delicious bookmarks: 16,105 × 500, 983 labels.
    Delicious,
    /// NUS-WIDE images: 161,789 × 128, 81 labels.
    NusWide,
}

/// All nine datasets in Table 1 order.
pub const PAPER_DATASETS: [PaperDataset; 9] = [
    PaperDataset::Otto,
    PaperDataset::SfCrime,
    PaperDataset::Helena,
    PaperDataset::Caltech101,
    PaperDataset::Mnist,
    PaperDataset::MnistIn,
    PaperDataset::Rf1,
    PaperDataset::Delicious,
    PaperDataset::NusWide,
];

/// Static shape of one dataset, mirroring Table 1 plus an assumed
/// feature sparsity used by the generator.
///
/// Serialize-only: `name` borrows `'static` display-name literals,
/// which cannot be reconstructed from transient JSON input.
#[derive(Debug, Clone, Serialize)]
pub struct DatasetShape {
    /// Display name as printed in the paper.
    pub name: &'static str,
    /// Instance count (`#instances`).
    pub instances: usize,
    /// Feature count (`#features`).
    pub features: usize,
    /// Output dimension (`#outputs`).
    pub outputs: usize,
    /// Task type.
    pub task: Task,
    /// Approximate fraction of zero feature entries.
    pub sparsity: f64,
}

impl PaperDataset {
    /// Table 1 shape of this dataset.
    pub fn shape(&self) -> DatasetShape {
        use PaperDataset::*;
        use Task::*;
        match self {
            Otto => DatasetShape {
                name: "Otto",
                instances: 61_878,
                features: 93,
                outputs: 9,
                task: MultiClass,
                sparsity: 0.60,
            },
            SfCrime => DatasetShape {
                name: "SF-Crime",
                instances: 878_049,
                features: 10,
                outputs: 39,
                task: MultiClass,
                sparsity: 0.10,
            },
            Helena => DatasetShape {
                name: "Helena",
                instances: 65_196,
                features: 27,
                outputs: 100,
                task: MultiClass,
                sparsity: 0.05,
            },
            Caltech101 => DatasetShape {
                name: "Caltech101",
                instances: 6_073,
                features: 324,
                outputs: 101,
                task: MultiClass,
                sparsity: 0.50,
            },
            Mnist => DatasetShape {
                name: "MNIST",
                instances: 50_000,
                features: 784,
                outputs: 10,
                task: MultiClass,
                sparsity: 0.80,
            },
            MnistIn => DatasetShape {
                name: "MNIST-IN",
                instances: 50_000,
                features: 200,
                outputs: 24,
                task: MultiRegression,
                sparsity: 0.55,
            },
            Rf1 => DatasetShape {
                name: "RF1",
                instances: 9_125,
                features: 61,
                outputs: 16,
                task: MultiRegression,
                sparsity: 0.05,
            },
            Delicious => DatasetShape {
                name: "Delicious",
                instances: 16_105,
                features: 500,
                outputs: 983,
                task: MultiLabel,
                sparsity: 0.95,
            },
            NusWide => DatasetShape {
                name: "NUS-WIDE",
                instances: 161_789,
                features: 128,
                outputs: 81,
                task: MultiLabel,
                sparsity: 0.30,
            },
        }
    }

    /// Shape actually used by the CI-sized benchmark driver:
    /// `(scale_n, feature_cap, output_cap)`. Chosen so the slowest
    /// configuration stays within seconds of host time and the largest
    /// per-level histogram within ~100 MB, while preserving each
    /// dataset's character (wide vs tall vs many-output).
    pub fn bench_shape(&self) -> (f64, usize, usize) {
        use PaperDataset::*;
        match self {
            Otto => (0.03, 93, 9),
            SfCrime => (0.003, 10, 39),
            Helena => (0.02, 27, 100),
            Caltech101 => (0.15, 120, 40),
            Mnist => (0.02, 200, 10),
            MnistIn => (0.02, 100, 24),
            Rf1 => (0.10, 61, 16),
            Delicious => (0.037, 120, 50),
            NusWide => (0.006, 64, 40),
        }
    }

    /// Generate with an instance-count `scale` and caps on features and
    /// outputs. Scaled instance count is floored at 300.
    pub fn generate(
        &self,
        scale: f64,
        feature_cap: usize,
        output_cap: usize,
        seed: u64,
    ) -> Dataset {
        let s = self.shape();
        let n = ((s.instances as f64 * scale) as usize).max(300);
        let m = s.features.min(feature_cap);
        let d = s.outputs.min(output_cap).max(2);
        match s.task {
            Task::MultiClass => make_classification(&ClassificationSpec {
                instances: n,
                features: m,
                classes: d,
                informative: (m / 2).max(1),
                clusters_per_class: 1 + (d < 20) as usize,
                class_sep: 1.8,
                flip_y: 0.02,
                sparsity: s.sparsity,
                seed,
            }),
            Task::MultiRegression => make_regression(&RegressionSpec {
                instances: n,
                features: m,
                outputs: d,
                informative: (m / 2).max(1),
                noise: 0.1,
                nonlinear: true,
                sparsity: s.sparsity,
                seed,
            }),
            Task::MultiLabel => make_multilabel(&MultilabelSpec {
                instances: n,
                features: m,
                labels: d,
                avg_labels: (d as f64 * 0.05).clamp(1.5, 20.0),
                features_per_label: (m / 16).max(3),
                sparsity: s.sparsity * 0.5, // prototypes already sparse
                seed,
            }),
        }
    }

    /// Render Table 1 for the `repro datasets` subcommand.
    pub fn table1() -> String {
        let mut out = format!(
            "{:<12} {:>10} {:>10} {:>9} {:>14}\n",
            "Dataset", "#instances", "#features", "#outputs", "task"
        );
        for ds in PAPER_DATASETS {
            let s = ds.shape();
            out.push_str(&format!(
                "{:<12} {:>10} {:>10} {:>9} {:>14}\n",
                s.name,
                s.instances,
                s.features,
                s.outputs,
                match s.task {
                    Task::MultiClass => "multiclass",
                    Task::MultiLabel => "multilabel",
                    Task::MultiRegression => "multiregress",
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_match_paper() {
        let otto = PaperDataset::Otto.shape();
        assert_eq!(
            (otto.instances, otto.features, otto.outputs),
            (61_878, 93, 9)
        );
        let del = PaperDataset::Delicious.shape();
        assert_eq!(
            (del.instances, del.features, del.outputs),
            (16_105, 500, 983)
        );
        assert_eq!(del.task, Task::MultiLabel);
        let sf = PaperDataset::SfCrime.shape();
        assert_eq!(sf.instances, 878_049);
        assert_eq!(PAPER_DATASETS.len(), 9);
    }

    #[test]
    fn generated_bench_shapes_respect_caps() {
        for ds in PAPER_DATASETS {
            let data = ds.generate(0.01, 50, 20, 7);
            let s = ds.shape();
            assert!(data.n() >= 300);
            assert!(data.m() <= 50.min(s.features));
            assert!(data.d() <= 20);
            assert_eq!(data.task(), s.task);
        }
    }

    #[test]
    fn generated_task_types_match() {
        let d = PaperDataset::Mnist.generate(0.01, 64, 10, 1);
        assert_eq!(d.task(), Task::MultiClass);
        let d = PaperDataset::Rf1.generate(0.1, 64, 16, 1);
        assert_eq!(d.task(), Task::MultiRegression);
        let d = PaperDataset::NusWide.generate(0.005, 64, 20, 1);
        assert_eq!(d.task(), Task::MultiLabel);
    }

    #[test]
    fn sparse_datasets_come_out_sparse() {
        let d = PaperDataset::Mnist.generate(0.01, 100, 10, 3);
        assert!(
            d.sparsity() > 0.5,
            "MNIST stand-in sparsity {}",
            d.sparsity()
        );
        let dense = PaperDataset::Helena.generate(0.01, 27, 10, 3);
        assert!(
            dense.sparsity() < 0.3,
            "Helena stand-in sparsity {}",
            dense.sparsity()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = PaperDataset::Otto.generate(0.01, 30, 9, 11);
        let b = PaperDataset::Otto.generate(0.01, 30, 9, 11);
        assert_eq!(a.features().values(), b.features().values());
    }

    #[test]
    fn table1_renders_all_rows() {
        let t = PaperDataset::table1();
        for ds in PAPER_DATASETS {
            assert!(t.contains(ds.shape().name), "missing {}", ds.shape().name);
        }
    }
}
