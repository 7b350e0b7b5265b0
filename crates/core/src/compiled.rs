//! Compiled (structure-of-arrays) inference ensembles.
//!
//! [`crate::tree::Tree`]'s `Vec<Node>` enum layout is convenient for
//! growth but branchy and pointer-chasing for serving. A
//! [`CompiledEnsemble`] flattens every tree into parallel primitive
//! arrays — the layout a GPU inference kernel would consume (§3.4.2's
//! instance-level parallel prediction walks exactly such arrays) — and
//! encodes leaves as negative child indices so traversal is a tight
//! loop with no enum matching.

use crate::model::Model;
use crate::serve::SoaView;
use crate::tree::{Node, Tree};
use gbdt_data::DenseMatrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One tree in flattened SoA form. Fields are crate-visible so the
/// serving layer ([`crate::serve`]) can upload them as device buffers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CompiledTree {
    /// Split feature per node (undefined for leaves).
    pub(crate) feature: Vec<u32>,
    /// Split threshold per node (undefined for leaves).
    pub(crate) threshold: Vec<f32>,
    /// Child indices: `≥ 0` → node index, `< 0` → leaf, whose values
    /// start at `(-child − 1) × d` in `leaf_values`.
    pub(crate) left: Vec<i32>,
    /// Right siblings of [`CompiledTree::left`].
    pub(crate) right: Vec<i32>,
    /// Root marker: `< 0` if the whole tree is one leaf.
    pub(crate) root: i32,
    /// Concatenated leaf value vectors (`num_leaves × d`).
    pub(crate) leaf_values: Vec<f32>,
}

impl CompiledTree {
    pub(crate) fn from_tree(tree: &Tree) -> Self {
        let n = tree.num_nodes();
        let d = tree.d();
        let mut feature = vec![0u32; n];
        let mut threshold = vec![0.0f32; n];
        let mut left = vec![0i32; n];
        let mut right = vec![0i32; n];
        let mut leaf_values: Vec<f32> = Vec::new();
        // Leaf slot id per node (dense numbering of leaves).
        let mut leaf_slot = vec![-1i32; n];
        for (at, node) in tree.nodes().iter().enumerate() {
            if let Node::Leaf { value } = node {
                leaf_slot[at] = (leaf_values.len() / d) as i32;
                leaf_values.extend_from_slice(value);
            }
        }
        let encode = |at: usize, leaf_slot: &[i32]| -> i32 {
            if leaf_slot[at] >= 0 {
                -(leaf_slot[at] + 1)
            } else {
                at as i32
            }
        };
        for (at, node) in tree.nodes().iter().enumerate() {
            if let Node::Split {
                feature: f,
                threshold: t,
                left: l,
                right: r,
                ..
            } = node
            {
                feature[at] = *f;
                threshold[at] = *t;
                left[at] = encode(*l as usize, &leaf_slot);
                right[at] = encode(*r as usize, &leaf_slot);
            }
        }
        CompiledTree {
            feature,
            threshold,
            left,
            right,
            root: encode(0, &leaf_slot),
            leaf_values,
        }
    }

    /// This tree as a one-tree [`SoaView`], so the host walks it with
    /// the serving traversal.
    pub(crate) fn view(&self, d: usize) -> SoaView<'_> {
        SoaView {
            feature: &self.feature,
            threshold: &self.threshold,
            left: &self.left,
            right: &self.right,
            leaf_values: &self.leaf_values,
            roots: std::slice::from_ref(&self.root),
            node_base: &[0],
            leaf_base: &[0],
            d,
        }
    }

    /// Check the structural invariants of the flat layout: parallel
    /// arrays agree on node count, leaf slots stay inside
    /// `leaf_values`, and every reachable child link points strictly
    /// forward (the compiler emits children after their parents), so
    /// traversal provably terminates.
    fn validate(&self, d: usize) -> Result<(), String> {
        let n = self.feature.len();
        if self.threshold.len() != n || self.left.len() != n || self.right.len() != n {
            return Err(format!(
                "SoA arrays disagree on node count: feature {}, threshold {}, left {}, right {}",
                n,
                self.threshold.len(),
                self.left.len(),
                self.right.len()
            ));
        }
        if !self.leaf_values.len().is_multiple_of(d) {
            return Err(format!(
                "leaf_values length {} is not a multiple of d = {d}",
                self.leaf_values.len()
            ));
        }
        let leaves = self.leaf_values.len() / d;
        let check_leaf = |c: i32| -> Result<(), String> {
            let slot = (-(c as i64) - 1) as usize;
            if slot >= leaves {
                return Err(format!(
                    "leaf slot {slot} out of range (have {leaves} leaves)"
                ));
            }
            Ok(())
        };
        if self.root < 0 {
            return check_leaf(self.root);
        }
        if (self.root as usize) >= n {
            return Err(format!("root {} out of range (have {n} nodes)", self.root));
        }
        // Only nodes reachable from the root are splits (leaf-occupied
        // slots keep zeroed child links that traversal never reads).
        let mut visited = vec![false; n];
        let mut stack = vec![self.root as usize];
        while let Some(at) = stack.pop() {
            if std::mem::replace(&mut visited[at], true) {
                continue;
            }
            for c in [self.left[at], self.right[at]] {
                if c < 0 {
                    check_leaf(c).map_err(|e| format!("node {at}: {e}"))?;
                } else if (c as usize) >= n {
                    return Err(format!(
                        "node {at}: child index {c} out of range (have {n} nodes)"
                    ));
                } else if c as usize <= at {
                    return Err(format!(
                        "node {at}: child index {c} does not point forward (traversal \
                         would not terminate)"
                    ));
                } else {
                    stack.push(c as usize);
                }
            }
        }
        Ok(())
    }
}

/// A whole model compiled for serving.
///
/// `Deserialize` is hand-written (not derived): a decoded ensemble
/// passes through [`CompiledEnsemble::validate`] before it is returned,
/// so inconsistent data — out-of-range leaf offsets, child indices
/// beyond the node count, `base.len() != d` — is a parse error instead
/// of an out-of-bounds read at predict time.
#[derive(Debug, Clone, Serialize)]
pub struct CompiledEnsemble {
    trees: Vec<CompiledTree>,
    base: Vec<f32>,
    d: usize,
}

impl serde::Deserialize for CompiledEnsemble {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| format!("expected object, got {}", v.kind()))?;
        let ens = CompiledEnsemble {
            trees: serde::field(obj, "trees")?,
            base: serde::field(obj, "base")?,
            d: serde::field(obj, "d")?,
        };
        ens.validate()?;
        Ok(ens)
    }
}

impl TryFrom<&str> for CompiledEnsemble {
    type Error = String;

    /// Parse a JSON-serialized ensemble, validated.
    fn try_from(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

impl CompiledEnsemble {
    /// Parse a JSON-serialized ensemble. Every decoded ensemble passes
    /// [`CompiledEnsemble::validate`] before it is returned, so corrupt
    /// or adversarial input is an `Err`, never a panic or an
    /// out-of-bounds traversal later (fuzzed in
    /// `crates/core/tests/compiled_fuzz.rs`).
    pub fn from_json(json: &str) -> Result<Self, String> {
        Self::try_from(json)
    }

    /// Compile a trained model.
    pub fn compile(model: &Model) -> Self {
        CompiledEnsemble {
            trees: model.trees.iter().map(CompiledTree::from_tree).collect(),
            base: model.base.clone(),
            d: model.d,
        }
    }

    /// Output dimension.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Base scores (length `d`).
    pub fn base(&self) -> &[f32] {
        &self.base
    }

    /// Total node count across all trees.
    pub fn num_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.feature.len()).sum()
    }

    /// Total leaf-value elements across all trees.
    pub fn num_leaf_values(&self) -> usize {
        self.trees.iter().map(|t| t.leaf_values.len()).sum()
    }

    /// The flattened trees (for the serving layer's device upload).
    pub(crate) fn trees(&self) -> &[CompiledTree] {
        &self.trees
    }

    /// Check every structural invariant the traversal loop relies on.
    /// [`CompiledEnsemble::compile`] always produces valid ensembles;
    /// this guards data arriving through deserialization.
    pub fn validate(&self) -> Result<(), String> {
        crate::model::check_base_width(self.d, &self.base)?;
        for (i, t) in self.trees.iter().enumerate() {
            t.validate(self.d).map_err(|e| format!("tree {i}: {e}"))?;
        }
        Ok(())
    }

    /// Raw scores for one instance, written into `out` (length `d`).
    pub fn predict_row_into(&self, row: &[f32], out: &mut [f32]) {
        out.copy_from_slice(&self.base);
        for t in &self.trees {
            t.view(self.d).add_row(row, out);
        }
    }

    /// Raw scores for a batch (`n × d`, instance-parallel).
    pub fn predict(&self, features: &DenseMatrix) -> Vec<f32> {
        let d = self.d;
        let mut scores = vec![0.0f32; features.rows() * d];
        scores
            .par_chunks_mut(d)
            .enumerate()
            .for_each(|(i, out)| self.predict_row_into(features.row(i), out));
        scores
    }

    /// Resident bytes of the compiled form.
    pub fn memory_bytes(&self) -> usize {
        self.trees
            .iter()
            .map(|t| {
                t.feature.len() * 4
                    + t.threshold.len() * 4
                    + t.left.len() * 4
                    + t.right.len() * 4
                    + t.leaf_values.len() * 4
            })
            .sum::<usize>()
            + self.base.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::predict::predict_raw;
    use crate::trainer::GpuTrainer;
    use gbdt_data::synth::{make_classification, ClassificationSpec};
    use gpusim::Device;

    fn trained() -> (Model, gbdt_data::Dataset) {
        let ds = make_classification(&ClassificationSpec {
            instances: 400,
            features: 10,
            classes: 4,
            informative: 7,
            seed: 30,
            ..Default::default()
        });
        let cfg = TrainConfig {
            num_trees: 8,
            max_depth: 5,
            max_bins: 32,
            min_instances: 5,
            ..TrainConfig::default()
        };
        (GpuTrainer::new(Device::rtx4090(), cfg).fit(&ds), ds)
    }

    #[test]
    fn compiled_predictions_match_interpreter_exactly() {
        let (model, ds) = trained();
        let compiled = CompiledEnsemble::compile(&model);
        assert_eq!(
            compiled.predict(ds.features()),
            predict_raw(&model.trees, &model.base, ds.features())
        );
        assert_eq!(compiled.num_trees(), model.num_trees());
        assert_eq!(compiled.d(), 4);
    }

    #[test]
    fn single_leaf_tree_compiles() {
        let model = Model {
            trees: vec![Tree::new(2)],
            base: vec![1.0, -1.0],
            d: 2,
            task: gbdt_data::Task::MultiRegression,
            config: TrainConfig::default(),
        };
        let compiled = CompiledEnsemble::compile(&model);
        let x = DenseMatrix::from_rows(&[vec![9.0]]);
        // Root leaf holds zeros → prediction is the base.
        assert_eq!(compiled.predict(&x), vec![1.0, -1.0]);
    }

    #[test]
    fn nan_routes_like_interpreter() {
        let (model, _) = trained();
        let compiled = CompiledEnsemble::compile(&model);
        let row = vec![f32::NAN; 10];
        let x = DenseMatrix::from_rows(&[row]);
        assert_eq!(
            compiled.predict(&x),
            predict_raw(&model.trees, &model.base, &x)
        );
    }

    #[test]
    fn serde_roundtrip() {
        let (model, ds) = trained();
        let compiled = CompiledEnsemble::compile(&model);
        let json = serde_json::to_string(&compiled).unwrap();
        let back: CompiledEnsemble = serde_json::from_str(&json).unwrap();
        assert_eq!(back.predict(ds.features()), compiled.predict(ds.features()));
    }

    /// A deterministic one-split ensemble whose JSON layout is known
    /// exactly, so tests can corrupt specific substrings.
    fn tiny_json() -> String {
        let mut t = Tree::new(2);
        let (l, r) = t.split_node(0, 0, 0, 0.5);
        t.set_leaf(l, vec![1.0, 2.0]);
        t.set_leaf(r, vec![3.0, 4.0]);
        let model = Model {
            trees: vec![t],
            base: vec![0.5, -0.5],
            d: 2,
            task: gbdt_data::Task::MultiRegression,
            config: TrainConfig::default(),
        };
        serde_json::to_string(&CompiledEnsemble::compile(&model)).unwrap()
    }

    #[test]
    fn try_from_accepts_valid_json() {
        let json = tiny_json();
        let ens = CompiledEnsemble::try_from(json.as_str()).expect("valid ensemble");
        ens.validate().expect("compile output validates");
        let x = DenseMatrix::from_rows(&[vec![0.0], vec![1.0]]);
        assert_eq!(ens.predict(&x), vec![1.5, 1.5, 3.5, 3.5]);
    }

    #[test]
    fn deserialize_rejects_out_of_range_leaf_offset() {
        // left[0] = -1 points at leaf slot 0; slot 8 does not exist.
        let bad = tiny_json().replace("\"left\":[-1", "\"left\":[-9");
        let err = CompiledEnsemble::try_from(bad.as_str()).expect_err("must reject");
        assert!(err.contains("leaf slot"), "{err}");
    }

    #[test]
    fn deserialize_rejects_child_index_beyond_node_count() {
        let bad = tiny_json().replace("\"right\":[-2", "\"right\":[7");
        let err = CompiledEnsemble::try_from(bad.as_str()).expect_err("must reject");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn deserialize_rejects_backward_child_link() {
        // A child pointing at its own slot would loop forever.
        let bad = tiny_json().replace("\"right\":[-2", "\"right\":[0");
        let err = CompiledEnsemble::try_from(bad.as_str()).expect_err("must reject");
        assert!(err.contains("point forward"), "{err}");
    }

    #[test]
    fn deserialize_rejects_base_d_mismatch() {
        let bad = tiny_json().replace("\"d\":2", "\"d\":3");
        let err = CompiledEnsemble::try_from(bad.as_str()).expect_err("must reject");
        assert!(err.contains("d = 3"), "{err}");
    }

    #[test]
    fn memory_accounting_is_positive_and_flat_layout_is_compact() {
        let (model, _) = trained();
        let compiled = CompiledEnsemble::compile(&model);
        assert!(compiled.memory_bytes() > 0);
        // SoA form should not blow up versus the enum representation.
        assert!(compiled.memory_bytes() < model.memory_bytes() * 3);
    }
}
