//! Multi-output decision trees.
//!
//! The defining feature of GBDT-MO (paper Fig. 1): leaves store
//! `d`-dimensional value vectors, so one tree serves all outputs.

use serde::{Deserialize, Serialize};

/// A tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Internal split: `value ≤ threshold` (equivalently `bin ≤ bin`)
    /// goes left.
    Split {
        /// Global feature ID tested.
        feature: u32,
        /// Threshold bin (training-time routing on binned data).
        bin: u8,
        /// Float threshold (inference-time routing on raw values).
        threshold: f32,
        /// Left child index.
        left: u32,
        /// Right child index.
        right: u32,
    },
    /// Leaf with a `d`-dimensional output vector.
    Leaf {
        /// Leaf values (already scaled by the learning rate).
        value: Vec<f32>,
    },
}

/// A single decision tree with `d`-dimensional leaf outputs.
///
/// `Deserialize` is hand-written (not derived): a decoded tree passes
/// through [`Tree::from_parts`], like the binary decoders' trees.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Tree {
    nodes: Vec<Node>,
    d: usize,
}

impl Tree {
    /// A tree consisting of a single (root) leaf.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "output dimension must be positive");
        Tree {
            nodes: vec![Node::Leaf {
                value: vec![0.0; d],
            }],
            d,
        }
    }

    /// Output dimension.
    pub fn d(&self) -> usize {
        self.d
    }

    /// All nodes (root is index 0).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum root-to-leaf depth (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + rec(nodes, *left as usize).max(rec(nodes, *right as usize))
                }
            }
        }
        rec(&self.nodes, 0)
    }

    /// Set node `at` to a leaf with `value`.
    pub fn set_leaf(&mut self, at: usize, value: Vec<f32>) {
        assert_eq!(value.len(), self.d, "leaf value must be d-dimensional");
        self.nodes[at] = Node::Leaf { value };
    }

    /// Replace node `at` by a split, appending two fresh (zero) leaf
    /// children; returns `(left, right)` child indices.
    pub fn split_node(
        &mut self,
        at: usize,
        feature: u32,
        bin: u8,
        threshold: f32,
    ) -> (usize, usize) {
        let left = self.nodes.len();
        let right = left + 1;
        self.nodes.push(Node::Leaf {
            value: vec![0.0; self.d],
        });
        self.nodes.push(Node::Leaf {
            value: vec![0.0; self.d],
        });
        self.nodes[at] = Node::Split {
            feature,
            bin,
            threshold,
            left: left as u32,
            right: right as u32,
        };
        (left, right)
    }

    /// Index of the leaf an instance row reaches (float routing;
    /// non-finite feature values route left).
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > t)` routes NaN left
    pub fn leaf_for_row(&self, row: &[f32]) -> usize {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { .. } => return at,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    let v = row[*feature as usize];
                    at = if !(v > *threshold) { *left } else { *right } as usize;
                }
            }
        }
    }

    /// Add this tree's prediction for `row` into `out` (length `d`).
    pub fn predict_into(&self, row: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.d);
        let leaf = self.leaf_for_row(row);
        if let Node::Leaf { value } = &self.nodes[leaf] {
            for (o, v) in out.iter_mut().zip(value) {
                *o += v;
            }
        }
    }

    /// The value vector of leaf node `at`. Panics if `at` is a split.
    pub fn leaf_value(&self, at: usize) -> &[f32] {
        match &self.nodes[at] {
            Node::Leaf { value } => value,
            Node::Split { .. } => panic!("node {at} is not a leaf"),
        }
    }

    /// Reassemble a tree from raw nodes (deserialization path),
    /// validating child indices and leaf dimensions. Every child must
    /// come after its parent, as [`Tree::split_node`] appends them, so
    /// no decoded tree holds a cycle and traversal terminates.
    pub fn from_parts(nodes: Vec<Node>, d: usize) -> Result<Tree, String> {
        if nodes.is_empty() {
            return Err("tree must have at least one node".into());
        }
        let n = nodes.len();
        for (at, node) in nodes.iter().enumerate() {
            match node {
                Node::Split { left, right, .. } => {
                    if *left as usize >= n || *right as usize >= n {
                        return Err(format!("node {at}: child index out of range"));
                    }
                    if *left as usize <= at || *right as usize <= at {
                        return Err(format!(
                            "node {at}: child index does not point forward (traversal \
                             would not terminate)"
                        ));
                    }
                }
                Node::Leaf { value } => {
                    if value.len() != d {
                        return Err(format!(
                            "node {at}: leaf has {} values, expected {d}",
                            value.len()
                        ));
                    }
                }
            }
        }
        Ok(Tree { nodes, d })
    }

    /// Clone this tree's split structure, replacing every leaf with a
    /// new `d`-dimensional value from `value_of(node_index)`. Node
    /// indices are preserved exactly (used by SketchBoost's
    /// full-dimensional leaf refit).
    pub fn with_leaf_values(&self, d: usize, mut value_of: impl FnMut(usize) -> Vec<f32>) -> Tree {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(at, n)| match n {
                Node::Split { .. } => n.clone(),
                Node::Leaf { .. } => {
                    let value = value_of(at);
                    assert_eq!(value.len(), d, "leaf value must be d-dimensional");
                    Node::Leaf { value }
                }
            })
            .collect();
        Tree { nodes, d }
    }

    /// Approximate resident bytes of the tree (model-size reporting; the
    /// paper's Fig. 1 argument is that GBDT-MO needs d× fewer trees).
    pub fn memory_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Split { .. } => 16,
                Node::Leaf { value } => 8 + value.len() * 4,
            })
            .sum()
    }
}

impl Deserialize for Tree {
    fn from_value(v: &serde::Value) -> Result<Self, String> {
        let obj = v
            .as_object()
            .ok_or_else(|| format!("expected object, got {}", v.kind()))?;
        Tree::from_parts(serde::field(obj, "nodes")?, serde::field(obj, "d")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x0 ≤ 0.5 → leaf [1,0]; else x1 ≤ 2.0 → [0,1] else [5,5].
    fn sample_tree() -> Tree {
        let mut t = Tree::new(2);
        let (l, r) = t.split_node(0, 0, 10, 0.5);
        t.set_leaf(l, vec![1.0, 0.0]);
        let (rl, rr) = t.split_node(r, 1, 20, 2.0);
        t.set_leaf(rl, vec![0.0, 1.0]);
        t.set_leaf(rr, vec![5.0, 5.0]);
        t
    }

    #[test]
    fn routing_follows_thresholds() {
        let t = sample_tree();
        let mut out = [0.0f32; 2];
        t.predict_into(&[0.4, 9.9], &mut out);
        assert_eq!(out, [1.0, 0.0]);
        out = [0.0; 2];
        t.predict_into(&[0.6, 1.0], &mut out);
        assert_eq!(out, [0.0, 1.0]);
        out = [0.0; 2];
        t.predict_into(&[0.6, 3.0], &mut out);
        assert_eq!(out, [5.0, 5.0]);
    }

    #[test]
    fn boundary_goes_left() {
        let t = sample_tree();
        let mut out = [0.0f32; 2];
        t.predict_into(&[0.5, 0.0], &mut out);
        assert_eq!(out, [1.0, 0.0], "v == threshold routes left");
    }

    #[test]
    fn nan_routes_left() {
        let t = sample_tree();
        let mut out = [0.0f32; 2];
        t.predict_into(&[f32::NAN, 0.0], &mut out);
        assert_eq!(out, [1.0, 0.0]);
    }

    #[test]
    fn predictions_accumulate() {
        let t = sample_tree();
        let mut out = [10.0f32, 10.0];
        t.predict_into(&[0.0, 0.0], &mut out);
        assert_eq!(out, [11.0, 10.0]);
    }

    #[test]
    fn structure_counters() {
        let t = sample_tree();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_leaves(), 3);
        assert_eq!(t.depth(), 2);
        assert_eq!(Tree::new(3).depth(), 0);
        assert_eq!(Tree::new(3).num_leaves(), 1);
    }

    #[test]
    fn leaf_value_access() {
        let t = sample_tree();
        let leaf = t.leaf_for_row(&[0.0, 0.0]);
        assert_eq!(t.leaf_value(leaf), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "is not a leaf")]
    fn leaf_value_on_split_panics() {
        let t = sample_tree();
        let _ = t.leaf_value(0);
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample_tree();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    /// A self-loop and a back edge: both stay inside the node range, so
    /// only the forward-child rule catches them. Every decoder — the
    /// binary model, the checkpoint and the JSON model — must refuse
    /// them instead of handing back a tree that traversal never leaves.
    #[test]
    fn decoders_reject_cyclic_trees() {
        use crate::checkpoint::Checkpoint;
        use crate::config::TrainConfig;
        use crate::model::Model;
        use gbdt_data::Task;
        use rand::SeedableRng;

        let split = |left, right| Node::Split {
            feature: 0,
            bin: 0,
            threshold: 0.5,
            left,
            right,
        };
        let leaf = || Node::Leaf {
            value: vec![1.0, -1.0],
        };
        let self_loop = vec![split(0, 1), leaf()];
        let back_edge = vec![split(1, 2), leaf(), split(0, 3), leaf()];
        for (name, nodes) in [("self-loop", self_loop), ("back edge", back_edge)] {
            let tree = Tree { nodes, d: 2 };
            let model = Model {
                trees: vec![tree.clone()],
                base: vec![0.0; 2],
                d: 2,
                task: Task::MultiRegression,
                config: TrainConfig::default(),
            };
            let checkpoint = Checkpoint {
                completed_trees: 1,
                trees: vec![tree],
                base: vec![0.0; 2],
                scores: vec![0.0; 2],
                rng: rand_chacha::ChaCha8Rng::seed_from_u64(0).snapshot(),
                n: 1,
                d: 2,
                task: Task::MultiRegression,
                config: TrainConfig::default(),
            };
            let errors = [
                crate::serialize::from_bytes(&crate::serialize::to_bytes(&model)).map(|_| ()),
                Checkpoint::from_bytes(&checkpoint.to_bytes())
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                Model::from_json(&model.to_json()).map(|_| ()),
            ];
            for (decoder, got) in ["binary", "checkpoint", "json"].iter().zip(errors) {
                let err = got.expect_err(&format!("{decoder} accepted a {name}"));
                assert!(
                    err.contains("does not point forward"),
                    "{decoder} {name}: {err}"
                );
            }
        }
    }
}
