//! Compact binary model format.
//!
//! JSON (via [`crate::Model::to_json`]) is convenient but ~5× larger
//! than necessary; deployment wants the compact form. Layout (all
//! little-endian):
//!
//! ```text
//! magic "GBMO" | version u16 | task u8 | d u32 | base[d] f32
//! | config_json_len u32 | config_json bytes
//! | num_trees u32
//! | per tree: num_nodes u32,
//!     per node: tag u8 — 0 = split (feature u32, bin u8,
//!               threshold f32, left u32, right u32),
//!               1 = leaf (d × f32)
//! ```

use crate::config::TrainConfig;
use crate::model::Model;
use crate::tree::{Node, Tree};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gbdt_data::Task;

const MAGIC: &[u8; 4] = b"GBMO";
const VERSION: u16 = 1;

fn task_tag(task: Task) -> u8 {
    match task {
        Task::MultiClass => 0,
        Task::MultiLabel => 1,
        Task::MultiRegression => 2,
    }
}

fn task_from_tag(tag: u8) -> Result<Task, String> {
    match tag {
        0 => Ok(Task::MultiClass),
        1 => Ok(Task::MultiLabel),
        2 => Ok(Task::MultiRegression),
        other => Err(format!("unknown task tag {other}")),
    }
}

/// Serialize a model into the compact binary format.
pub fn to_bytes(model: &Model) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + model.memory_bytes() * 2);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(task_tag(model.task));
    buf.put_u32_le(model.d as u32);
    for &b in &model.base {
        buf.put_f32_le(b);
    }
    let config_json = serde_json::to_vec(&model.config).expect("config serializes");
    buf.put_u32_le(config_json.len() as u32);
    buf.put_slice(&config_json);
    buf.put_u32_le(model.trees.len() as u32);
    for tree in &model.trees {
        write_tree(&mut buf, tree, model.d);
    }
    buf.freeze()
}

/// Guarded read: error instead of panic on truncated input.
macro_rules! need {
    ($buf:expr, $n:expr) => {
        if $buf.remaining() < $n {
            return Err(format!(
                "truncated model: needed {} bytes, {} left",
                $n,
                $buf.remaining()
            ));
        }
    };
}
pub(crate) use need;

/// Encode one tree in the shared per-node format (tag 0 split / tag 1
/// leaf). Reused by the checkpoint writer.
pub(crate) fn write_tree(buf: &mut BytesMut, tree: &Tree, d: usize) {
    buf.put_u32_le(tree.num_nodes() as u32);
    for node in tree.nodes() {
        match node {
            Node::Split {
                feature,
                bin,
                threshold,
                left,
                right,
            } => {
                buf.put_u8(0);
                buf.put_u32_le(*feature);
                buf.put_u8(*bin);
                buf.put_f32_le(*threshold);
                buf.put_u32_le(*left);
                buf.put_u32_le(*right);
            }
            Node::Leaf { value } => {
                buf.put_u8(1);
                debug_assert_eq!(value.len(), d);
                for &v in value {
                    buf.put_f32_le(v);
                }
            }
        }
    }
}

/// Decode one tree in the shared per-node format; `t` labels the tree
/// in error messages. Reused by the checkpoint reader.
pub(crate) fn read_tree(buf: &mut &[u8], d: usize, t: usize) -> Result<Tree, String> {
    need!(buf, 4);
    let num_nodes = buf.get_u32_le() as usize;
    if num_nodes == 0 {
        return Err(format!("tree {t} has no nodes"));
    }
    let mut nodes = Vec::with_capacity(num_nodes.min(1 << 24));
    for _ in 0..num_nodes {
        need!(buf, 1);
        match buf.get_u8() {
            0 => {
                need!(buf, 4 + 1 + 4 + 4 + 4);
                let feature = buf.get_u32_le();
                let bin = buf.get_u8();
                let threshold = buf.get_f32_le();
                let left = buf.get_u32_le();
                let right = buf.get_u32_le();
                nodes.push(Node::Split {
                    feature,
                    bin,
                    threshold,
                    left,
                    right,
                });
            }
            1 => {
                need!(buf, d * 4);
                let value: Vec<f32> = (0..d).map(|_| buf.get_f32_le()).collect();
                nodes.push(Node::Leaf { value });
            }
            other => return Err(format!("tree {t}: unknown node tag {other}")),
        }
    }
    Tree::from_parts(nodes, d).map_err(|e| format!("tree {t}: {e}"))
}

/// Deserialize a model from the compact binary format.
pub fn from_bytes(data: &[u8]) -> Result<Model, String> {
    let mut buf = data;
    need!(buf, 4 + 2 + 1 + 4);
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err("not a GBMO model (bad magic)".into());
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(format!("unsupported model version {version}"));
    }
    let task = task_from_tag(buf.get_u8())?;
    let d = buf.get_u32_le() as usize;
    if d == 0 || d > 1 << 20 {
        return Err(format!("implausible output dimension {d}"));
    }
    need!(buf, d * 4);
    let base: Vec<f32> = (0..d).map(|_| buf.get_f32_le()).collect();

    need!(buf, 4);
    let config_len = buf.get_u32_le() as usize;
    need!(buf, config_len);
    let config: TrainConfig = serde_json::from_slice(&buf[..config_len])
        .map_err(|e| format!("bad embedded config: {e}"))?;
    buf.advance(config_len);

    need!(buf, 4);
    let num_trees = buf.get_u32_le() as usize;
    let mut trees = Vec::with_capacity(num_trees.min(1 << 20));
    for t in 0..num_trees {
        trees.push(read_tree(&mut buf, d, t)?);
    }
    if buf.has_remaining() {
        return Err(format!("{} trailing bytes after model", buf.remaining()));
    }
    Ok(Model {
        trees,
        base,
        d,
        task,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::GpuTrainer;
    use gbdt_data::synth::{make_classification, ClassificationSpec};
    use gpusim::Device;

    fn trained() -> (Model, gbdt_data::Dataset) {
        let ds = make_classification(&ClassificationSpec {
            instances: 300,
            features: 8,
            classes: 3,
            informative: 6,
            seed: 55,
            ..Default::default()
        });
        let cfg = TrainConfig {
            num_trees: 6,
            max_depth: 4,
            max_bins: 32,
            min_instances: 5,
            ..TrainConfig::default()
        };
        (GpuTrainer::new(Device::rtx4090(), cfg).fit(&ds), ds)
    }

    #[test]
    fn binary_roundtrip_preserves_predictions() {
        let (model, ds) = trained();
        let bytes = to_bytes(&model);
        let back = from_bytes(&bytes).expect("roundtrip");
        assert_eq!(model.predict(ds.features()), back.predict(ds.features()));
        assert_eq!(model.trees, back.trees);
        assert_eq!(model.base, back.base);
        assert_eq!(model.task, back.task);
        assert_eq!(model.config.num_trees, back.config.num_trees);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let (model, _) = trained();
        let bin = to_bytes(&model).len();
        let json = model.to_json().len();
        assert!(bin * 3 < json, "binary {bin} should be ≤ ⅓ of JSON {json}");
    }

    #[test]
    fn bad_magic_rejected() {
        let (model, _) = trained();
        let mut bytes = to_bytes(&model).to_vec();
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).unwrap_err().contains("bad magic"));
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let (model, _) = trained();
        let bytes = to_bytes(&model).to_vec();
        // Every strict prefix must fail cleanly.
        for cut in [0, 3, 6, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (model, _) = trained();
        let mut bytes = to_bytes(&model).to_vec();
        bytes.push(0);
        assert!(from_bytes(&bytes).unwrap_err().contains("trailing"));
    }

    #[test]
    fn corrupt_child_index_rejected() {
        let (model, _) = trained();
        let bytes = to_bytes(&model).to_vec();
        // Find the first split node (tag 0 after the tree header) and
        // clobber its left-child index. Rather than byte-surgery, build
        // a hostile model directly.
        let mut t = Tree::new(1);
        let (l, _r) = t.split_node(0, 0, 0, 0.5);
        t.set_leaf(l, vec![1.0]);
        let hostile = Model {
            trees: vec![t],
            base: vec![0.0],
            d: 1,
            task: Task::MultiRegression,
            config: TrainConfig::default(),
        };
        let mut enc = to_bytes(&hostile).to_vec();
        // The split's left index is at a fixed offset from the end:
        // last node is a leaf (1 + 4 bytes), before it another leaf,
        // before that the split record ends with right u32, left u32
        // before that.
        let len = enc.len();
        let left_at = len - (1 + 4) * 2 - 8;
        enc[left_at..left_at + 4].copy_from_slice(&99u32.to_le_bytes());
        assert!(from_bytes(&enc).unwrap_err().contains("out of range"));
        let _ = bytes;
    }
}
