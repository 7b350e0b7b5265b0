//! Sanitizer wiring for the serving kernels.
//!
//! Mirrors [`crate::sanitize`]: when a sanitizer is attached to the
//! device, the traversal each serving kernel implies is *declared* —
//! thread coordinates and the SoA-array offsets the walk actually
//! touches — so racecheck can verify the claimed access pattern
//! (per-row score writes disjoint, per-tree partials disjoint, reduce
//! reads them all). Declarations are deterministically sampled and
//! never charge the time ledger: serving with the sanitizer attached is
//! bit-identical in results and charges (regression-tested in
//! `crates/core/tests/serving.rs`).

use crate::sanitize::{sample_stride, MAX_TRACE_INSTANCES, MAX_TRACE_OUTPUTS};
use crate::serve::soa::SoaView;
use gbdt_data::DenseMatrix;
use gpusim::sanitize::KernelScope;
use gpusim::{AccessKind, Device, MemSpace, ThreadCtx};

/// Max trees whose traversals are declared per (sampled) row.
pub(crate) const MAX_TRACE_TREES: usize = 4;

/// Register the resident SoA arrays with a kernel scope; returns the
/// buffer ids in declaration order (feature, threshold, left, right,
/// leaf_values, rows, out). `out_initialized` marks an output the
/// kernel reads before it writes.
fn register_soa(
    scope: &KernelScope<'_>,
    view: &SoaView<'_>,
    features: &DenseMatrix,
    out_len: usize,
    out_initialized: bool,
) -> [u32; 7] {
    let nodes = view.feature.len();
    [
        scope.register("soa_feature", nodes, MemSpace::Global, true),
        scope.register("soa_threshold", nodes, MemSpace::Global, true),
        scope.register("soa_left", nodes, MemSpace::Global, true),
        scope.register("soa_right", nodes, MemSpace::Global, true),
        scope.register(
            "soa_leaf_values",
            view.leaf_values.len(),
            MemSpace::Global,
            true,
        ),
        scope.register(
            "batch_rows",
            features.rows() * features.cols(),
            MemSpace::Global,
            true,
        ),
        scope.register("serve_scores", out_len, MemSpace::Global, out_initialized),
    ]
}

/// Replay the walk of tree `t` for row `i`, touching every node quad
/// and the tested feature value; returns the reached leaf offset.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(v > t)` routes NaN left
fn touch_walk(
    scope: &KernelScope<'_>,
    ids: &[u32; 7],
    view: &SoaView<'_>,
    features: &DenseMatrix,
    ctx: ThreadCtx,
    i: usize,
    t: usize,
) -> usize {
    let [f_id, t_id, l_id, r_id, ..] = *ids;
    let rows_id = ids[5];
    let row = features.row(i);
    let nb = view.node_base[t];
    let mut at = view.roots[t];
    while at >= 0 {
        let idx = nb + at as usize;
        scope.touch(f_id, ctx, idx, AccessKind::Read);
        scope.touch(t_id, ctx, idx, AccessKind::Read);
        scope.touch(l_id, ctx, idx, AccessKind::Read);
        scope.touch(r_id, ctx, idx, AccessKind::Read);
        let feat = view.feature[idx] as usize;
        scope.touch(rows_id, ctx, i * features.cols() + feat, AccessKind::Read);
        let v = row[feat];
        at = if !(v > view.threshold[idx]) {
            view.left[idx]
        } else {
            view.right[idx]
        };
    }
    view.leaf_base[t] + ((-at - 1) as usize) * view.d
}

/// Declare the instance-level kernel `name`: one thread per row walks
/// every (sampled) tree and writes its own `d`-wide score slice —
/// disjoint by construction, which racecheck verifies. `accumulate`
/// marks the training kernels, which read the running `n × d` scores
/// before adding into them; serving writes fresh scores.
pub(crate) fn trace_predict_instance(
    device: &Device,
    name: &'static str,
    view: &SoaView<'_>,
    features: &DenseMatrix,
    accumulate: bool,
) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let n = features.rows();
    if n == 0 || view.roots.is_empty() {
        return;
    }
    let scope = san.scope(name);
    let ids = register_soa(&scope, view, features, n * view.d, accumulate);
    let (leaf_id, out_id) = (ids[4], ids[6]);
    for i in sample_stride(n, MAX_TRACE_INSTANCES) {
        let ctx = ThreadCtx::from_global(i, 256);
        for t in sample_stride(view.roots.len(), MAX_TRACE_TREES) {
            let off = touch_walk(&scope, &ids, view, features, ctx, i, t);
            for o in sample_stride(view.d, MAX_TRACE_OUTPUTS) {
                scope.touch(leaf_id, ctx, off + o, AccessKind::Read);
                if accumulate {
                    scope.touch(out_id, ctx, i * view.d + o, AccessKind::Read);
                }
                scope.touch(out_id, ctx, i * view.d + o, AccessKind::Write);
            }
        }
    }
}

/// Declare the tree-level serving kernels: one thread per (row, tree)
/// pair writes its tree's private `n × d` partial, then the reduce
/// kernel reads all partials and writes the final matrix — both
/// write-disjoint.
pub(crate) fn trace_predict_tree(device: &Device, view: &SoaView<'_>, features: &DenseMatrix) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let n = features.rows();
    let trees = view.roots.len();
    if n == 0 || trees == 0 {
        return;
    }
    let d = view.d;
    {
        let scope = san.scope("predict_compiled_tree");
        let ids = register_soa(&scope, view, features, n * d, false);
        let leaf_id = ids[4];
        let partials = scope.register("serve_partials", trees * n * d, MemSpace::Global, false);
        for t in sample_stride(trees, MAX_TRACE_TREES) {
            for i in sample_stride(n, MAX_TRACE_INSTANCES) {
                let ctx = ThreadCtx::from_global(t * n + i, 256);
                let off = touch_walk(&scope, &ids, view, features, ctx, i, t);
                for o in sample_stride(d, MAX_TRACE_OUTPUTS) {
                    scope.touch(leaf_id, ctx, off + o, AccessKind::Read);
                    scope.touch(partials, ctx, (t * n + i) * d + o, AccessKind::Write);
                }
            }
        }
    }
    let scope = san.scope("predict_reduce");
    let partials = scope.register("serve_partials", trees * n * d, MemSpace::Global, true);
    let base_id = scope.register("serve_base", d, MemSpace::Global, true);
    let out_id = scope.register("serve_scores", n * d, MemSpace::Global, false);
    for e in sample_stride(n * d, crate::sanitize::MAX_TRACE_ELEMS) {
        let ctx = ThreadCtx::from_global(e, 256);
        scope.touch(base_id, ctx, e % d, AccessKind::Read);
        for t in sample_stride(trees, MAX_TRACE_TREES) {
            scope.touch(partials, ctx, t * n * d + e, AccessKind::Read);
        }
        scope.touch(out_id, ctx, e, AccessKind::Write);
    }
}
