//! Trained ensembles.

use crate::config::TrainConfig;
use crate::loss::loss_for_task;
use crate::tree::Tree;
use gbdt_data::{DenseMatrix, Task};
use serde::{Deserialize, Serialize};

/// A trained GBDT-MO model: one sequence of trees with `d`-dimensional
/// leaves (paper Fig. 1, right side).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Model {
    /// Boosted trees, in training order.
    pub trees: Vec<Tree>,
    /// Initial score per output (prior).
    pub base: Vec<f32>,
    /// Output dimension.
    pub d: usize,
    /// Task the model was trained for (selects the score transform).
    pub task: Task,
    /// The configuration used for training.
    pub config: TrainConfig,
}

impl Model {
    /// Raw additive scores (`n × d`), walked on the compiled form.
    pub fn predict(&self, features: &DenseMatrix) -> Vec<f32> {
        self.compile().predict(features)
    }

    /// Task-space predictions: softmax/sigmoid probabilities for
    /// classification tasks, identity for regression.
    pub fn predict_transformed(&self, features: &DenseMatrix) -> Vec<f32> {
        let mut scores = self.predict(features);
        let loss = loss_for_task(self.task);
        for row in scores.chunks_mut(self.d) {
            loss.transform_row(row);
        }
        scores
    }

    /// Argmax class labels (multiclass convenience).
    pub fn predict_labels(&self, features: &DenseMatrix) -> Vec<u32> {
        self.predict(features)
            .chunks(self.d)
            .map(|row| {
                let mut best = (0usize, f32::NEG_INFINITY);
                for (k, &v) in row.iter().enumerate() {
                    if v > best.1 {
                        best = (k, v);
                    }
                }
                best.0 as u32
            })
            .collect()
    }

    /// Compile to the SoA serving form (see [`crate::serve`] for the
    /// device-resident side).
    pub fn compile(&self) -> crate::compiled::CompiledEnsemble {
        crate::compiled::CompiledEnsemble::compile(self)
    }

    /// Total tree count (for the GBDT-MO-vs-SO model-size comparison).
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total leaves across trees.
    pub fn num_leaves(&self) -> usize {
        self.trees.iter().map(Tree::num_leaves).sum()
    }

    /// Approximate model size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.trees.iter().map(Tree::memory_bytes).sum::<usize>() + self.base.len() * 4
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serialization cannot fail")
    }

    /// Deserialize from JSON. Like the binary decoder, rejects a model
    /// whose base or trees disagree with its output dimension `d`.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let model: Model = serde_json::from_str(s).map_err(|e| e.to_string())?;
        let d = model.d;
        check_base_width(d, &model.base)?;
        for (i, t) in model.trees.iter().enumerate() {
            if t.d() != d {
                let td = t.d();
                return Err(format!("tree {i}: output dimension {td} != model d = {d}"));
            }
        }
        Ok(model)
    }

    /// Resume an interrupted training run from `checkpoint` on a fresh
    /// `device`, against the same dataset: the remaining
    /// `num_trees − completed_trees` rounds replay bit-identically to
    /// an uninterrupted fit (property-tested in
    /// `crates/core/tests/checkpoint_resume.rs`). The trainer is
    /// rebuilt from the checkpoint's embedded config; shape or
    /// consistency mismatches surface as
    /// [`crate::TrainError::Checkpoint`].
    pub fn resume_from(
        device: std::sync::Arc<gpusim::Device>,
        checkpoint: &crate::checkpoint::Checkpoint,
        ds: &gbdt_data::Dataset,
    ) -> Result<crate::trainer::TrainReport, crate::TrainError> {
        let trainer = crate::trainer::GpuTrainer::try_new(device, checkpoint.config.clone())?;
        trainer.try_fit_resumed(ds, checkpoint)
    }
}

/// Reject an output dimension `d` of zero or a base whose length is
/// not `d`: the shared width check of `Model::from_json` and
/// `CompiledEnsemble::validate`.
pub(crate) fn check_base_width(d: usize, base: &[f32]) -> Result<(), String> {
    if d == 0 {
        return Err("output dimension d must be positive".to_string());
    }
    if base.len() != d {
        return Err(format!(
            "base length {} != output dimension d = {d}",
            base.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> Model {
        let mut t = Tree::new(2);
        let (l, r) = t.split_node(0, 0, 0, 0.0);
        t.set_leaf(l, vec![2.0, -2.0]);
        t.set_leaf(r, vec![-2.0, 2.0]);
        Model {
            trees: vec![t],
            base: vec![0.0, 0.0],
            d: 2,
            task: Task::MultiClass,
            config: TrainConfig::default(),
        }
    }

    #[test]
    fn predict_and_labels() {
        let m = tiny_model();
        let x = DenseMatrix::from_rows(&[vec![-1.0], vec![1.0]]);
        let s = m.predict(&x);
        assert_eq!(s, vec![2.0, -2.0, -2.0, 2.0]);
        assert_eq!(m.predict_labels(&x), vec![0, 1]);
    }

    #[test]
    fn transformed_scores_are_probabilities() {
        let m = tiny_model();
        let x = DenseMatrix::from_rows(&[vec![-1.0]]);
        let p = m.predict_transformed(&x);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-6);
        assert!(p[0] > 0.9, "softmax of (2,-2) favours class 0: {p:?}");
    }

    #[test]
    fn counters() {
        let m = tiny_model();
        assert_eq!(m.num_trees(), 1);
        assert_eq!(m.num_leaves(), 2);
        assert!(m.memory_bytes() > 0);
    }

    #[test]
    fn json_roundtrip() {
        let m = tiny_model();
        let j = m.to_json();
        let back = Model::from_json(&j).unwrap();
        assert_eq!(m.trees, back.trees);
        assert_eq!(m.base, back.base);
        assert!(Model::from_json("not json").is_err());
    }

    #[test]
    fn from_json_rejects_zero_d() {
        let m = Model {
            trees: vec![],
            base: vec![],
            d: 0,
            ..tiny_model()
        };
        let err = Model::from_json(&m.to_json()).expect_err("d = 0 must be rejected");
        assert!(err.contains("must be positive"), "{err}");
    }

    #[test]
    fn from_json_rejects_base_of_wrong_width() {
        let m = Model {
            base: vec![0.0; 3],
            ..tiny_model()
        };
        let err = Model::from_json(&m.to_json()).expect_err("base.len() != d must be rejected");
        assert!(
            err.contains("base length 3 != output dimension d = 2"),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_tree_of_wrong_width() {
        let mut m = tiny_model();
        m.trees.push(Tree::new(3));
        let err = Model::from_json(&m.to_json()).expect_err("tree.d() != d must be rejected");
        assert!(
            err.contains("tree 1: output dimension 3 != model d = 2"),
            "{err}"
        );
    }
}
