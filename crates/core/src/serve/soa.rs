//! Device-resident SoA ensemble and the charged traversal kernels. The
//! walk here ([`SoaView::walk`]) is the one every prediction path takes,
//! and its measured hop count is the one traversal price.
//!
//! Cost formulas (RTX 4090 sector size `S = 32 B`, batch of `n` rows,
//! `T` trees, `d` outputs, `H` = measured total hops over all
//! (row, tree) traversals):
//!
//! * `predict_compiled_instance` — one launch, one thread per row:
//!   - flops: `4·H` (load/compare/select per hop) + `n·T·d` leaf-gather
//!     adds + `n·d` base initialization;
//!   - DRAM: `H·(S + 4)` — each hop pulls one poorly-coalesced node
//!     quad (feature/threshold/left/right share a sector) plus the
//!     tested feature value — `n·T·⌈4d/S⌉·S` leaf-vector gathers,
//!     `4·n·d` score writes, `4·d` base broadcast.
//! * `predict_compiled_tree` — `T` launches, one thread per row per
//!   tree: same traversal/gather terms, plus `4·T·n·d` partial-matrix
//!   writes (each tree materializes its own `n × d` delta).
//! * `predict_reduce` — one launch folding the `T` partials into the
//!   final matrix: `T·n·d + n·d` adds; reads `4·T·n·d + 4·d`, writes
//!   `4·n·d`.
//!
//! The tree-level path therefore always charges strictly more than the
//! instance path on a multi-tree ensemble — the "extra reduction" of
//! paper §3.4.2 — while exposing more parallelism for small batches.

use crate::compiled::{CompiledEnsemble, CompiledTree};
use crate::error::ServeError;
use crate::predict::PredictMode;
use crate::serve::trace;
use crate::tree::Tree;
use gbdt_data::DenseMatrix;
use gpusim::cost::KernelCost;
use gpusim::{buffer_checksum_on, Device, GpuBuffer, Phase};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Borrowed view of the concatenated SoA arrays: everything a traversal
/// (or a sanitizer trace replaying one) needs.
pub(crate) struct SoaView<'a> {
    /// Split feature per node, all trees concatenated.
    pub feature: &'a [u32],
    /// Split threshold per node.
    pub threshold: &'a [f32],
    /// Left child per node (tree-local encoding; `< 0` → leaf slot).
    pub left: &'a [i32],
    /// Right child per node.
    pub right: &'a [i32],
    /// Concatenated leaf-value vectors.
    pub leaf_values: &'a [f32],
    /// Per-tree root marker (tree-local encoding).
    pub roots: &'a [i32],
    /// Per-tree node offset into the concatenated node arrays.
    pub node_base: &'a [usize],
    /// Per-tree element offset into `leaf_values`.
    pub leaf_base: &'a [usize],
    /// Output dimension.
    pub d: usize,
}

impl SoaView<'_> {
    /// Walk tree `t` for `row`; returns the global element offset of
    /// the reached leaf vector in `leaf_values` and the hop count.
    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > t)` routes NaN left
    pub(crate) fn walk(&self, t: usize, row: &[f32]) -> (usize, u64) {
        let nb = self.node_base[t];
        let mut at = self.roots[t];
        let mut hops = 0u64;
        while at >= 0 {
            let i = nb + at as usize;
            let v = row[self.feature[i] as usize];
            at = if !(v > self.threshold[i]) {
                self.left[i]
            } else {
                self.right[i]
            };
            hops += 1;
        }
        (self.leaf_base[t] + ((-at - 1) as usize) * self.d, hops)
    }

    /// Add every tree's leaf vector for `row` into `out` (`d` wide,
    /// already holding the prior) in tree order. Returns the hops.
    pub(crate) fn add_row(&self, row: &[f32], out: &mut [f32]) -> u64 {
        let mut hops = 0u64;
        for tree in 0..self.roots.len() {
            let (off, h) = self.walk(tree, row);
            hops += h;
            for (o, v) in out.iter_mut().zip(&self.leaf_values[off..off + self.d]) {
                *o += v;
            }
        }
        hops
    }

    /// Instance-level walk, one task per row: [`SoaView::add_row`] into
    /// the row's slice of `scores` (`n × d`). Returns the total hops.
    pub(crate) fn add_leaves(&self, features: &DenseMatrix, scores: &mut [f32]) -> u64 {
        let (d, total_hops) = (self.d, AtomicU64::new(0));
        scores.par_chunks_mut(d).enumerate().for_each(|(i, out)| {
            // u64 addition is associative: the total is deterministic
            // regardless of rayon's reduction order.
            total_hops.fetch_add(self.add_row(features.row(i), out), Ordering::Relaxed);
        });
        total_hops.into_inner()
    }
}

/// Traversal terms shared by both schemes: hop arithmetic + node/feature
/// loads + one leaf-vector gather per (row, tree) pair at sector
/// granularity. Returns `(flops, dram_bytes)`.
fn traversal_cost(device: &Device, hops: u64, pairs: usize, d: usize) -> (f64, f64) {
    let sect = device.props().cost.sector_bytes as f64;
    let (hops, pairs) = (hops as f64, pairs as f64);
    let leaf_gather = ((d * 4) as f64 / sect).ceil() * sect;
    (
        hops * 4.0 + pairs * d as f64,
        hops * (sect + 4.0) + pairs * leaf_gather,
    )
}

/// The instance-level kernel over `n` rows and `trees` trees at the
/// measured `hops`: traversal terms, one add per output element, `4·n·d`
/// score writes and the read of `prior` initial scores (the `d`-wide
/// base when serving, the `n × d` running scores when training adds a
/// tree).
fn instance_cost(
    device: &Device,
    hops: u64,
    n: usize,
    trees: usize,
    d: usize,
    prior: usize,
) -> KernelCost {
    let (traverse_flops, traverse_dram) = traversal_cost(device, hops, n * trees, d);
    let out_elems = (n * d) as f64;
    KernelCost {
        flops: traverse_flops + out_elems,
        dram_bytes: traverse_dram + out_elems * 4.0 + (prior * 4) as f64,
        launches: 1.0,
        ..Default::default()
    }
}

/// Add one grown tree's leaves into `scores` (`n × d`, the running
/// scores of `features`' rows) through the compiled instance walk, then
/// charge and trace the instance kernel at the hops actually walked.
/// The kernel is `validation_predict` for the eval split and
/// `update_scores_routed` for the training rows under row subsampling.
pub(crate) fn add_tree_scores(
    device: &Device,
    tree: &Tree,
    features: &DenseMatrix,
    scores: &mut [f32],
    validation: bool,
) {
    let compiled = CompiledTree::from_tree(tree);
    let view = compiled.view(tree.d());
    let hops = view.add_leaves(features, scores);
    let name = if validation {
        "validation_predict"
    } else {
        "update_scores_routed"
    };
    let (n, d) = (features.rows(), view.d);
    device.charge_kernel(
        name,
        Phase::Predict,
        &instance_cost(device, hops, n, 1, d, n * d),
    );
    trace::trace_predict_instance(device, name, &view, features, true);
}

/// A [`CompiledEnsemble`] resident on a simulated device as
/// structure-of-arrays buffers, traversed by charged kernels.
pub struct DeviceEnsemble {
    device: Arc<Device>,
    feature: GpuBuffer<u32>,
    threshold: GpuBuffer<f32>,
    left: GpuBuffer<i32>,
    right: GpuBuffer<i32>,
    leaf_values: GpuBuffer<f32>,
    roots: GpuBuffer<i32>,
    base: GpuBuffer<f32>,
    // Host-side layout tables (tree → offset); on hardware these would
    // be kernel parameters, not resident arrays.
    node_base: Vec<usize>,
    leaf_base: Vec<usize>,
    d: usize,
    /// Per-buffer FNV digests captured right after upload, before any
    /// planned ECC corruption lands; [`DeviceEnsemble::verify`]
    /// recomputes and compares against these.
    digests: [(&'static str, u64); 7],
}

impl DeviceEnsemble {
    /// Upload `ens` to `device`, charging the H2D transfer of every
    /// array ([`Phase::Transfer`] via the PCIe cost model).
    pub fn upload(device: Arc<Device>, ens: &CompiledEnsemble) -> Self {
        Self::upload_on(device, ens, 0)
    }

    /// [`DeviceEnsemble::upload`] with the transfers and the post-copy
    /// checksum pass issued on `stream`, so a staged model version can
    /// double-buffer behind in-flight serving batches on the default
    /// stream. Callers fence the stream before uploading — streams are
    /// born idle at t = 0.
    pub fn upload_on(device: Arc<Device>, ens: &CompiledEnsemble, stream: usize) -> Self {
        let trees = ens.trees();
        let mut feature = Vec::with_capacity(ens.num_nodes());
        let mut threshold = Vec::with_capacity(ens.num_nodes());
        let mut left = Vec::with_capacity(ens.num_nodes());
        let mut right = Vec::with_capacity(ens.num_nodes());
        let mut leaf_values = Vec::with_capacity(ens.num_leaf_values());
        let mut roots = Vec::with_capacity(trees.len());
        let mut node_base = Vec::with_capacity(trees.len());
        let mut leaf_base = Vec::with_capacity(trees.len());
        for t in trees {
            node_base.push(feature.len());
            leaf_base.push(leaf_values.len());
            feature.extend_from_slice(&t.feature);
            threshold.extend_from_slice(&t.threshold);
            left.extend_from_slice(&t.left);
            right.extend_from_slice(&t.right);
            leaf_values.extend_from_slice(&t.leaf_values);
            roots.push(t.root);
        }
        let mut this = DeviceEnsemble {
            feature: device.htod_on(&feature, stream),
            threshold: device.htod_on(&threshold, stream),
            left: device.htod_on(&left, stream),
            right: device.htod_on(&right, stream),
            leaf_values: device.htod_on(&leaf_values, stream),
            roots: device.htod_on(&roots, stream),
            base: device.htod_on(ens.base(), stream),
            node_base,
            leaf_base,
            d: ens.d(),
            device,
            digests: [("", 0); 7],
        };
        // Capture the known-good digest of every resident array, then
        // let any planned ECC corruption land — the upload itself is
        // verified, later faults are caught by `verify`.
        this.digests = this.checksums_on(stream);
        let device = this.device.clone();
        device.apply_planned_corruption("serve_feature", &mut this.feature);
        device.apply_planned_corruption("serve_threshold", &mut this.threshold);
        device.apply_planned_corruption("serve_left", &mut this.left);
        device.apply_planned_corruption("serve_right", &mut this.right);
        device.apply_planned_corruption("serve_leaf_values", &mut this.leaf_values);
        device.apply_planned_corruption("serve_roots", &mut this.roots);
        device.apply_planned_corruption("serve_base", &mut this.base);
        this
    }

    /// Checksum every resident SoA buffer with the charged
    /// `buffer_checksum` kernel on the default stream.
    fn checksums(&self) -> [(&'static str, u64); 7] {
        self.checksums_on(0)
    }

    /// [`DeviceEnsemble::checksums`] issued on `stream`: digests are
    /// identical regardless of stream; only the charge timestamps move.
    fn checksums_on(&self, stream: usize) -> [(&'static str, u64); 7] {
        let dev = &self.device;
        [
            (
                "serve_feature",
                buffer_checksum_on(dev, "serve_feature", &self.feature, stream),
            ),
            (
                "serve_threshold",
                buffer_checksum_on(dev, "serve_threshold", &self.threshold, stream),
            ),
            (
                "serve_left",
                buffer_checksum_on(dev, "serve_left", &self.left, stream),
            ),
            (
                "serve_right",
                buffer_checksum_on(dev, "serve_right", &self.right, stream),
            ),
            (
                "serve_leaf_values",
                buffer_checksum_on(dev, "serve_leaf_values", &self.leaf_values, stream),
            ),
            (
                "serve_roots",
                buffer_checksum_on(dev, "serve_roots", &self.roots, stream),
            ),
            (
                "serve_base",
                buffer_checksum_on(dev, "serve_base", &self.base, stream),
            ),
        ]
    }

    /// Re-checksum every resident buffer and compare against the
    /// digests captured at upload. Returns the first mismatch as
    /// [`ServeError::Corruption`] — the ECC scrub a real serving fleet
    /// runs before trusting a long-resident model.
    pub fn verify(&self) -> Result<(), ServeError> {
        for (expected, fresh) in self.digests.iter().zip(self.checksums()) {
            if expected.1 != fresh.1 {
                let err = ServeError::Corruption {
                    buffer: expected.0,
                    expected: expected.1,
                    actual: fresh.1,
                };
                // Observer only: the verdict is already decided; the
                // postmortem keeps what the device was serving.
                if let Some(tel) = self.device.telemetry() {
                    let devices = std::slice::from_ref(&self.device);
                    tel.push_postmortem(gpusim::postmortem(&err.to_string(), devices));
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// The device this ensemble is resident on.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Output dimension.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of resident trees.
    pub fn num_trees(&self) -> usize {
        self.node_base.len()
    }

    /// Device bytes held by the resident SoA buffers.
    pub fn resident_bytes(&self) -> usize {
        self.feature.size_bytes()
            + self.threshold.size_bytes()
            + self.left.size_bytes()
            + self.right.size_bytes()
            + self.leaf_values.size_bytes()
            + self.roots.size_bytes()
            + self.base.size_bytes()
    }

    pub(crate) fn view(&self) -> SoaView<'_> {
        SoaView {
            feature: self.feature.as_slice(),
            threshold: self.threshold.as_slice(),
            left: self.left.as_slice(),
            right: self.right.as_slice(),
            leaf_values: self.leaf_values.as_slice(),
            roots: self.roots.as_slice(),
            node_base: &self.node_base,
            leaf_base: &self.leaf_base,
            d: self.d,
        }
    }

    /// Batched raw scores (`n × d`) with the given parallelization
    /// scheme. Bit-identical to [`CompiledEnsemble::predict`] (and so
    /// to [`crate::model::Model::predict`]) in both modes.
    pub fn predict(&self, mode: PredictMode, features: &DenseMatrix) -> Vec<f32> {
        match mode {
            PredictMode::InstanceLevel => self.predict_instance(features),
            PredictMode::TreeLevel => self.predict_tree(features),
        }
    }

    /// Instance-level scheme: one thread per row walks every tree.
    fn predict_instance(&self, features: &DenseMatrix) -> Vec<f32> {
        let _scope = self.device.prof_scope("serve_predict", None);
        let n = features.rows();
        let view = self.view();
        let mut scores = self.base.as_slice().repeat(n);
        let hops = view.add_leaves(features, &mut scores);
        trace::trace_predict_instance(
            &self.device,
            "predict_compiled_instance",
            &view,
            features,
            false,
        );
        self.device.charge_kernel(
            "predict_compiled_instance",
            Phase::Serve,
            &instance_cost(&self.device, hops, n, self.num_trees(), self.d, self.d),
        );
        scores
    }

    /// Tree-level scheme: one launch per tree materializes an `n × d`
    /// partial, folded by an extra reduce kernel. Partials are produced
    /// in groups of at most `threads`, so peak host memory stays
    /// `O(threads · n · d)`; the fold runs in tree order, keeping the
    /// result bit-identical to the instance path.
    fn predict_tree(&self, features: &DenseMatrix) -> Vec<f32> {
        let _scope = self.device.prof_scope("serve_predict", None);
        let n = features.rows();
        let d = self.d;
        let t = self.num_trees();
        let view = self.view();
        let mut scores = self.base.as_slice().repeat(n);
        let mut total_hops = 0u64;
        let group = rayon::current_num_threads().max(1);
        let tree_ids: Vec<usize> = (0..t).collect();
        for chunk in tree_ids.chunks(group) {
            let partials: Vec<(Vec<f32>, u64)> = chunk
                .par_iter()
                .map(|&tree| {
                    let mut p = vec![0.0f32; n * d];
                    let mut hops = 0u64;
                    for i in 0..n {
                        let (off, h) = view.walk(tree, features.row(i));
                        hops += h;
                        p[i * d..(i + 1) * d].copy_from_slice(&view.leaf_values[off..off + d]);
                    }
                    (p, hops)
                })
                .collect();
            for (p, hops) in partials {
                total_hops += hops;
                for (s, v) in scores.iter_mut().zip(p) {
                    *s += v;
                }
            }
        }
        trace::trace_predict_tree(&self.device, &view, features);
        let (traverse_flops, traverse_dram) = traversal_cost(&self.device, total_hops, n * t, d);
        let out_elems = (n * d) as f64;
        let tf = t.max(1) as f64;
        self.device.charge_kernel(
            "predict_compiled_tree",
            Phase::Serve,
            &KernelCost {
                flops: traverse_flops,
                dram_bytes: traverse_dram + tf * out_elems * 4.0,
                launches: tf,
                ..Default::default()
            },
        );
        self.device.charge_kernel(
            "predict_reduce",
            Phase::Serve,
            &KernelCost {
                flops: tf * out_elems + out_elems,
                dram_bytes: tf * out_elems * 4.0 + out_elems * 4.0 + (d * 4) as f64,
                launches: 1.0,
                ..Default::default()
            },
        );
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::model::Model;
    use crate::predict::predict_raw;

    /// Root split on feature 0 at 0.5: rows left of it reach a leaf in
    /// one hop, rows past 2.5 walk three splits.
    fn unbalanced() -> Tree {
        let mut t = Tree::new(2);
        let (l, r) = t.split_node(0, 0, 0, 0.5);
        t.set_leaf(l, vec![1.0, 0.0]);
        let (rl, rr) = t.split_node(r, 0, 0, 1.5);
        t.set_leaf(rl, vec![0.0, 1.0]);
        let (rrl, rrr) = t.split_node(rr, 0, 0, 2.5);
        t.set_leaf(rrl, vec![2.0, 2.0]);
        t.set_leaf(rrr, vec![-1.0, 3.0]);
        t
    }

    #[test]
    fn routed_update_is_charged_for_the_hops_walked() {
        let tree = unbalanced();
        let n = 1024;
        let charge = |x: f32, want: [f32; 2]| {
            let device = Device::rtx4090();
            let rows = DenseMatrix::from_rows(&vec![vec![x]; n]);
            let mut scores = vec![0.5f32; n * 2];
            add_tree_scores(&device, &tree, &rows, &mut scores, false);
            assert!(scores
                .chunks(2)
                .all(|s| s == [0.5 + want[0], 0.5 + want[1]]));
            device.now_ns()
        };
        let shallow = charge(0.0, [1.0, 0.0]);
        let deep = charge(9.0, [-1.0, 3.0]);
        assert!(
            shallow < deep,
            "depth-1 rows charged {shallow} ns, depth-3 rows {deep} ns"
        );
    }

    #[test]
    fn both_schemes_match_the_oracle_beyond_thread_chunks() {
        // More trees than worker threads forces several fold chunks in
        // the tree-level scheme; both must keep the tree-order sum.
        let mut second = Tree::new(2);
        let (l, r) = second.split_node(0, 0, 0, 1.0);
        second.set_leaf(l, vec![0.25, -0.5]);
        second.set_leaf(r, vec![-0.75, 0.125]);
        let model = Model {
            trees: (0..64)
                .map(|i| [unbalanced(), second.clone()][i % 2].clone())
                .collect(),
            base: vec![0.1, 0.2],
            d: 2,
            task: gbdt_data::Task::MultiRegression,
            config: TrainConfig::default(),
        };
        let x =
            DenseMatrix::from_rows(&[vec![0.0], vec![1.2], vec![2.0], vec![f32::NAN], vec![9.0]]);
        let oracle = predict_raw(&model.trees, &model.base, &x);
        let ens = DeviceEnsemble::upload(Device::rtx4090(), &model.compile());
        for mode in [PredictMode::InstanceLevel, PredictMode::TreeLevel] {
            assert_eq!(ens.predict(mode, &x), oracle, "{mode:?}");
        }
    }
}
