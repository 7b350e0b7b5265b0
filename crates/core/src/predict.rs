//! Ensemble inference (paper §3.4.2).
//!
//! [`PredictMode`] names the paper's two parallelization schemes:
//! *instance-level* (a thread per instance walks all trees) and
//! *tree-level* (trees are evaluated concurrently and their
//! contributions reduced). Both run in
//! [`crate::serve::DeviceEnsemble::predict`] on the compiled walk that
//! every prediction path shares, charged at the hops they measure. They
//! produce bit-identical raw scores; the tree-level scheme pays an extra
//! reduction for more parallelism on small batches.
//!
//! This module keeps the growth-form walk [`predict_raw`] (the test
//! oracle and the baselines' predictor) and the leaf-index embedding.

use crate::tree::Tree;
use gbdt_data::DenseMatrix;
use rayon::prelude::*;

/// Parallelization scheme for inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictMode {
    /// One thread per instance, trees visited sequentially.
    InstanceLevel,
    /// One task per tree, per-tree score deltas reduced afterwards.
    TreeLevel,
}

/// Raw ensemble scores (`n × d`, row-major): `base + Σ_t f_t(x)`,
/// walking the growth-form trees one instance per task. Serving and
/// [`crate::model::Model::predict`] walk the compiled form instead; this
/// walk is their test oracle and the baselines' predictor.
pub fn predict_raw(trees: &[Tree], base: &[f32], features: &DenseMatrix) -> Vec<f32> {
    let d = base.len();
    let mut scores = base.repeat(features.rows());
    scores.par_chunks_mut(d).enumerate().for_each(|(i, out)| {
        let row = features.row(i);
        for t in trees {
            t.predict_into(row, out);
        }
    });
    scores
}

/// Leaf index of every (instance, tree) pair: `out[i * trees + t]` is
/// the node index of the leaf instance `i` reaches in tree `t` — the
/// "apply" embedding used for GBDT feature transforms (and the paper's
/// observation that instances always terminate in leaves, §3.1.1).
pub fn apply_leaf_indices(trees: &[Tree], features: &DenseMatrix) -> Vec<u32> {
    let n = features.rows();
    let t = trees.len();
    let mut out = vec![0u32; n * t];
    out.par_chunks_mut(t.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            let x = features.row(i);
            for (slot, tree) in trees.iter().enumerate() {
                row[slot] = tree.leaf_for_row(x) as u32;
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_trees() -> (Vec<Tree>, DenseMatrix) {
        let mut t1 = Tree::new(2);
        let (l, r) = t1.split_node(0, 0, 0, 0.5);
        t1.set_leaf(l, vec![1.0, 0.0]);
        t1.set_leaf(r, vec![0.0, 1.0]);
        let mut t2 = Tree::new(2);
        let (l, r) = t2.split_node(0, 1, 0, 0.0);
        t2.set_leaf(l, vec![0.5, 0.5]);
        t2.set_leaf(r, vec![-0.5, -0.5]);
        let x = DenseMatrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 1.0]]);
        (vec![t1, t2], x)
    }

    #[test]
    fn instance_level_sums_trees_and_base() {
        let (trees, x) = two_trees();
        let s = predict_raw(&trees, &[10.0, 20.0], &x);
        // Row 0: t1 → [1,0], t2 → [0.5,0.5].
        assert_eq!(&s[0..2], &[11.5, 20.5]);
        // Row 1: t1 → [0,1], t2 → [-0.5,-0.5].
        assert_eq!(&s[2..4], &[9.5, 20.5]);
    }

    #[test]
    fn empty_ensemble_returns_base() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let s = predict_raw(&[], &[3.0], &x);
        assert_eq!(s, vec![3.0, 3.0]);
    }

    #[test]
    fn apply_returns_consistent_leaf_indices() {
        let (trees, x) = two_trees();
        let leaves = apply_leaf_indices(&trees, &x);
        assert_eq!(leaves.len(), 2 * 2);
        for i in 0..x.rows() {
            for (t, tree) in trees.iter().enumerate() {
                assert_eq!(leaves[i * 2 + t] as usize, tree.leaf_for_row(x.row(i)));
                // The index really is a leaf.
                let _ = tree.leaf_value(leaves[i * 2 + t] as usize);
            }
        }
    }
}
