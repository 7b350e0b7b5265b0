//! Histogram building (paper §3.3) — the dominant cost of GBDT-MO
//! training (67–89 % of total time in the paper's Fig. 4).
//!
//! A node histogram aggregates, for every (feature, bin, output), the
//! sums of first and second loss derivatives over the node's instances,
//! plus a per-(feature, bin) instance count. Three kernels produce the
//! identical histogram with different hardware cost profiles:
//!
//! * [`gmem`] — global-memory atomics (§3.3.2);
//! * [`smem`] — shared-memory tiled atomics (§3.3.3);
//! * [`sortreduce`] — sort-and-reduce (§3.3.4);
//!
//! each with and without the warp-level bin-packing optimization
//! (§3.4.1). Each method's module holds its cost formula
//! (`cost_descriptor`); sort-and-reduce also keeps its access tracer
//! and an exact reference. [`adaptive`] predicts each kernel's cost from
//! the model and picks the cheapest per node — the paper's "dynamically
//! selects the most appropriate histogram building method … based on
//! the dataset characteristics and training stage".
//!
//! [`resolve_method`] turns `Adaptive` into a concrete method for a node
//! and [`method_cost`] prices the build; [`charge_builds_on`] is the one
//! place histogram builds are charged: it names the kernel once, opens
//! the method's profiler scope, charges, and traces each build for an
//! attached sanitizer under the same name. The level grower (`grow`)
//! charges a level's builds through `HistCharges`, one instance per
//! device of its placement and one kernel per method, so the selector
//! prices nodes without their launches
//! ([`adaptive::Launches`]). [`charge_method`] charges one build as a
//! kernel of its own, launches priced; the baselines' leaf-wise growers
//! and the probes use it. Either way the growers count the concrete
//! method.
//!
//! All builders share one deterministic functional accumulation
//! ([`accumulate_dense`] / [`accumulate_sparse`]); only the charged cost
//! differs. Histogram **subtraction** (`sibling = parent − child`) is
//! available as an option.
//!
//! The host [`NodeHistogram`] is bin-major: each (feature, bin) owns one
//! contiguous `d`-wide row, so an instance's update and the split scan
//! both walk memory in order. The simulated kernels charge and trace
//! the GPU's output-major buffer instead (`sanitize::device_gh_slot`);
//! no charge reads the host layout, so changing it cannot move a
//! simulated nanosecond.
//!
//! [`accumulate_dense`]'s per-feature pass is built portable, AVX2 and
//! AVX-512, and the widest build the CPU runs is picked at run time
//! (`simd::multiversion!`). Each build is also instantiated for the
//! output widths `d = 1..=8` and for a run-time width above that, and
//! `simd::with_row_width!` picks one per node, so small rows unroll.
//! Only element-wise conversions and adds vectorise, across a row's `d`
//! outputs; each cell still sums its instances in node order, so every
//! build and width gives the same bits.

pub mod adaptive;
pub mod gmem;
pub mod smem;
pub mod sortreduce;
pub mod stats;

pub use adaptive::Launches;

use crate::config::{HistOptions, HistogramMethod};
use crate::grad::Gradients;
use crate::grow::GrowResult;
use gbdt_data::BinnedDataset;
use gpusim::cost::KernelCost;
use gpusim::{Device, MemSpace, Phase};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Effective L2 hit rate for gradient rows re-read across feature
/// columns within one histogram kernel. Gradient rows are touched once
/// per feature; caches capture most of the reuse.
pub(crate) const GH_L2_HIT: f64 = 0.92;

/// A node's gradient histogram over a set of features.
///
/// Layout (bin-major: one contiguous `d`-wide row per (feature, bin)):
/// `g[(f_local*bins + b)*d + k]`, `counts[f_local*bins + b]`. Index
/// through [`NodeHistogram::gh_index`] or the row accessors rather than
/// by hand.
#[derive(Debug, Clone)]
pub struct NodeHistogram {
    /// Per-(feature, bin, output) gradient sums.
    pub g: Vec<f64>,
    /// Per-(feature, bin, output) Hessian sums.
    pub h: Vec<f64>,
    /// Per-(feature, bin) instance counts.
    pub counts: Vec<u32>,
    /// Hessian columns the device kernels built and moved per (feature,
    /// bin): `d`, or `1` when the Hessian plane was filled from the
    /// counts and the gradients' uniform row
    /// ([`HistContext::hess_cols`]). The host `h` plane is full either
    /// way; only charges read this.
    pub hess_cols: usize,
    /// Number of (local) features covered.
    pub num_features: usize,
    /// Output dimension.
    pub d: usize,
    /// Bin stride (uniform across features).
    pub bins: usize,
}

impl NodeHistogram {
    /// Allocate a zeroed histogram.
    pub fn new(num_features: usize, d: usize, bins: usize) -> Self {
        NodeHistogram {
            g: vec![0.0; num_features * d * bins],
            h: vec![0.0; num_features * d * bins],
            counts: vec![0; num_features * bins],
            hess_cols: d,
            num_features,
            d,
            bins,
        }
    }

    /// Zero all accumulators (reuse between nodes, avoiding
    /// reallocation of multi-MB buffers). `fill` lowers to `memset`,
    /// which matters: these buffers are re-zeroed once per node.
    pub fn reset(&mut self) {
        self.g.fill(0.0);
        self.h.fill(0.0);
        self.counts.fill(0);
    }

    /// Flat index of `(f_local, k, b)` into `g`/`h`.
    #[inline]
    pub fn gh_index(&self, f_local: usize, k: usize, b: usize) -> usize {
        (f_local * self.bins + b) * self.d + k
    }

    /// Flat index of `(f_local, b)` into `counts`.
    #[inline]
    pub fn cnt_index(&self, f_local: usize, b: usize) -> usize {
        f_local * self.bins + b
    }

    /// The `d` per-output gradient sums of bin `b` of `f_local`.
    #[inline]
    pub fn g_row(&self, f_local: usize, b: usize) -> &[f64] {
        let s = self.gh_index(f_local, 0, b);
        &self.g[s..s + self.d]
    }

    /// The `d` per-output Hessian sums of bin `b` of `f_local`.
    #[inline]
    pub fn h_row(&self, f_local: usize, b: usize) -> &[f64] {
        let s = self.gh_index(f_local, 0, b);
        &self.h[s..s + self.d]
    }

    /// Replace `self` (a child histogram) by `parent − self`: the
    /// sibling's histogram, obtained without touching instance data.
    pub fn subtract_from(&mut self, parent: &NodeHistogram) {
        assert_eq!(self.g.len(), parent.g.len(), "histogram shape mismatch");
        self.hess_cols = parent.hess_cols;
        for (s, p) in self.g.iter_mut().zip(&parent.g) {
            *s = p - *s;
        }
        for (s, p) in self.h.iter_mut().zip(&parent.h) {
            *s = p - *s;
        }
        for (s, p) in self.counts.iter_mut().zip(&parent.counts) {
            *s = p.checked_sub(*s).expect("child count exceeds parent count");
        }
    }

    /// Overwrite `self` with `parent − child` elementwise: the
    /// subtraction trick without cloning either operand (`self` may be
    /// a dirty pooled buffer; every element is written).
    ///
    /// Arithmetic is identical to building `child` and calling
    /// [`NodeHistogram::subtract_from`] — `p - c` per element in the
    /// same order — so results are bit-identical to that path.
    pub fn assign_difference(&mut self, parent: &NodeHistogram, child: &NodeHistogram) {
        assert_eq!(parent.g.len(), child.g.len(), "histogram shape mismatch");
        assert_eq!(self.g.len(), parent.g.len(), "histogram shape mismatch");
        self.hess_cols = parent.hess_cols;
        for ((o, p), c) in self.g.iter_mut().zip(&parent.g).zip(&child.g) {
            *o = p - c;
        }
        for ((o, p), c) in self.h.iter_mut().zip(&parent.h).zip(&child.h) {
            *o = p - c;
        }
        for ((o, p), c) in self
            .counts
            .iter_mut()
            .zip(&parent.counts)
            .zip(&child.counts)
        {
            *o = p.checked_sub(*c).expect("child count exceeds parent count");
        }
    }

    /// Total bytes of the accumulators (drives tiling decisions and the
    /// memory reporting in the depth experiment, Fig. 7).
    pub fn memory_bytes(&self) -> usize {
        self.g.len() * 8 + self.h.len() * 8 + self.counts.len() * 4
    }
}

/// Everything a histogram builder needs about the training state.
pub struct HistContext<'a> {
    /// The device charged for the work.
    pub device: &'a Device,
    /// Preprocessed (binned) features.
    pub data: &'a BinnedDataset,
    /// Current-iteration gradients.
    pub grads: &'a Gradients,
    /// Global feature IDs this builder covers (all features on single
    /// GPU; a partition of them per device in multi-GPU mode).
    pub features: &'a [u32],
    /// Uniform bin stride (the configured `max_bins`).
    pub bins: usize,
    /// Pipeline options.
    pub opts: HistOptions,
}

impl HistContext<'_> {
    /// Output dimension.
    pub fn d(&self) -> usize {
        self.grads.d
    }

    /// Hessian columns a build accumulates and moves per (feature, bin):
    /// `d`, or `1` (the count column) when every row shares one Hessian
    /// row ([`Gradients::uniform_h`]).
    pub fn hess_cols(&self) -> usize {
        hess_cols(self.grads)
    }
}

/// [`HistContext::hess_cols`] of a gradient set.
pub(crate) fn hess_cols(grads: &Gradients) -> usize {
    if grads.uniform_h().is_some() {
        1
    } else {
        grads.d
    }
}

// The level-parallel grower shares one `&HistContext` across worker
// threads ([`accumulate_only`] is charge-free and takes `&self` state
// only). Keep that contract checked at compile time: every field must
// stay `Sync` (the device's ledger is behind a lock already).
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<HistContext<'static>>();
};

/// Fraction of (instance, feature) pairs the histogram kernel actually
/// touches: 1.0 on the dense path, the non-zero density of the columns
/// it builds when the sparsity-aware CSC path is enabled. The sparse
/// path also scales the measured contention (zero-bin collisions vanish
/// when zeros are handled in closed form — an approximation noted in
/// DESIGN.md).
pub(crate) fn density_factor(ctx: &HistContext<'_>) -> f64 {
    if ctx.opts.sparse_aware {
        built_density(ctx).clamp(0.001, 1.0)
    } else {
        1.0
    }
}

/// Non-zero share of the (instance, feature) pairs of the columns
/// `ctx` builds, from the CSC column lengths.
pub(crate) fn built_density(ctx: &HistContext<'_>) -> f64 {
    let sparse = &ctx.data.sparse;
    let nnz: usize = ctx
        .features
        .iter()
        .map(|&f| sparse.col_nnz(f as usize))
        .sum();
    nnz as f64 / (ctx.data.n() * ctx.features.len()).max(1) as f64
}

/// Add a row into a `d`-wide `f64` accumulator row, in ascending `k`.
/// Always inlined, so each build of a multiversioned caller compiles it
/// with that build's extension.
#[inline(always)]
pub(crate) fn add_row<T: Copy + Into<f64>>(acc: &mut [f64], row: &[T]) {
    for (acc, &v) in acc.iter_mut().zip(row) {
        *acc += v.into();
    }
}

/// `add_row` for a gradient row and a Hessian row.
#[inline(always)]
pub fn add_rows<T: Copy + Into<f64>>(
    g_acc: &mut [f64],
    h_acc: &mut [f64],
    g_row: &[T],
    h_row: &[T],
) {
    add_row(g_acc, g_row);
    add_row(h_acc, h_row);
}

/// Set every bin's Hessian row to `count × c`, the uniform-Hessian
/// path's fill. These are the bits the general path's sum gives: `c` is
/// finite and sign-positive ([`Gradients::uniform_h`]), a partial sum
/// of fewer than 2^29 copies of an `f32` is exact in `f64`, and so is
/// the product.
fn fill_uniform_h(hh: &mut [f64], cnt: &[u32], c: &[f32]) {
    for (row, &count) in hh.chunks_exact_mut(c.len()).zip(cnt) {
        for (v, &ck) in row.iter_mut().zip(c) {
            *v = ck as f64 * count as f64;
        }
    }
}

/// Reference functional accumulation over the dense binned matrix:
/// deterministic (parallel over features, sequential over instances).
///
/// Each instance adds its gradient and Hessian rows into the two
/// contiguous `d`-wide rows of its bin, so every cell sums its
/// instances in node order whatever the layout. When the gradients
/// share one Hessian row, instances add only their gradient rows and
/// the Hessian plane is filled from the counts.
pub fn accumulate_dense(ctx: &HistContext<'_>, idx: &[u32], out: &mut NodeHistogram) {
    let pass = crate::simd::with_row_width!(ctx.d(), dense_feature_pass);
    accumulate_dense_with(ctx, idx, out, pass);
}

/// One feature's share of [`accumulate_dense`]: `col` is the feature's
/// bin column, `gh`/`hh`/`cnt` its `bins` rows of the histogram.
type FeaturePass = fn(&[u8], &[u32], &[f32], &[f32], usize, &mut [f64], &mut [f64], &mut [u32]);

/// [`accumulate_dense`] with its per-feature pass given, so tests can
/// run each build of it.
pub(crate) fn accumulate_dense_with(
    ctx: &HistContext<'_>,
    idx: &[u32],
    out: &mut NodeHistogram,
    pass: FeaturePass,
) {
    let d = ctx.d();
    let bins = ctx.bins;
    debug_assert_eq!(out.d, d);
    debug_assert_eq!(out.bins, bins);
    debug_assert_eq!(out.num_features, ctx.features.len());

    let g = &ctx.grads.g;
    let uniform = ctx.grads.uniform_h();
    // An empty Hessian matrix tells the pass to skip the Hessian adds.
    let h: &[f32] = if uniform.is_some() { &[] } else { &ctx.grads.h };
    let gh_stride = d * bins;
    out.hess_cols = ctx.hess_cols();
    out.g
        .par_chunks_mut(gh_stride)
        .zip(out.h.par_chunks_mut(gh_stride))
        .zip(out.counts.par_chunks_mut(bins))
        .enumerate()
        .for_each(|(f_local, ((gh, hh), cnt))| {
            let col = ctx.data.bins.col(ctx.features[f_local] as usize);
            pass(col, idx, g, h, d, gh, hh, cnt);
            if let Some(c) = uniform {
                fill_uniform_h(hh, cnt, c);
            }
        });
}

crate::simd::multiversion! {
    /// [`dense_feature_pass_portable`], built for the widest vector
    /// extension the CPU has.
    fn dense_feature_pass<const W: usize>(
        col: &[u8],
        idx: &[u32],
        g: &[f32],
        h: &[f32],
        d: usize,
        gh: &mut [f64],
        hh: &mut [f64],
        cnt: &mut [u32],
    ) = dense_feature_pass_portable;
}

/// The portable body of one feature's pass at row width `W` (`0`: `d`
/// read at run time): each instance of `idx` adds its rows into its
/// bin's rows, in node order, its Hessian row only when `h` is not
/// empty. Every row is sliced to exactly `d` elements, so at a fixed
/// width [`add_row`] has a constant trip count and unrolls.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dense_feature_pass_portable<const W: usize>(
    col: &[u8],
    idx: &[u32],
    g: &[f32],
    h: &[f32],
    d: usize,
    gh: &mut [f64],
    hh: &mut [f64],
    cnt: &mut [u32],
) {
    let d = crate::simd::row_width::<W>(d);
    for &i in idx {
        let i = i as usize;
        let b = col[i] as usize;
        cnt[b] += 1;
        add_row(&mut gh[b * d..][..d], &g[i * d..][..d]);
        if !h.is_empty() {
            add_row(&mut hh[b * d..][..d], &h[i * d..][..d]);
        }
    }
}

/// Sparsity-aware accumulation (paper §3.2's CSC storage): explicit
/// entries accumulate individually; each feature's implicit-zero bin
/// receives the node remainder `node_totals − Σ explicit` in closed
/// form, so cost scales with non-zeros instead of `n × m`. On the
/// uniform-Hessian path only gradients and counts accumulate, and the
/// Hessian plane, zero bin included, is filled from the counts.
///
/// `node_g`/`node_h` are the node's per-output gradient totals and
/// `idx` the node's instances.
pub fn accumulate_sparse(
    ctx: &HistContext<'_>,
    idx: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    out: &mut NodeHistogram,
) {
    let d = ctx.d();
    let bins = ctx.bins;
    let n = ctx.grads.n;

    // Node membership bitmap (one pass over the node's instances).
    let mut in_node = vec![false; n];
    for &i in idx {
        in_node[i as usize] = true;
    }

    let g = &ctx.grads.g;
    let h = &ctx.grads.h;
    let uniform = ctx.grads.uniform_h();
    let gh_stride = d * bins;
    let sparse = &ctx.data.sparse;
    out.hess_cols = ctx.hess_cols();
    out.g
        .par_chunks_mut(gh_stride)
        .zip(out.h.par_chunks_mut(gh_stride))
        .zip(out.counts.par_chunks_mut(bins))
        .enumerate()
        .for_each(|(f_local, ((gh, hh), cnt))| {
            let f = ctx.features[f_local] as usize;
            let (rows, ebins) = sparse.col(f);
            let zb = sparse.zero_bin(f) as usize;
            let mut explicit_in_node = 0u32;
            for (&r, &b) in rows.iter().zip(ebins) {
                let i = r as usize;
                if !in_node[i] {
                    continue;
                }
                let b = b as usize;
                explicit_in_node += 1;
                cnt[b] += 1;
                add_row(&mut gh[b * d..(b + 1) * d], &g[i * d..(i + 1) * d]);
                if uniform.is_none() {
                    add_row(&mut hh[b * d..(b + 1) * d], &h[i * d..(i + 1) * d]);
                }
            }
            // Implicit entries: everything in the node not explicit here.
            cnt[zb] += idx.len() as u32 - explicit_in_node;
            // Per output, sum the non-zero bins in ascending `b` (the
            // bin-major walk keeps each output's order), then set the
            // zero bin — which so far holds only explicit zero-valued
            // entries — to the node remainder.
            let remainder = |plane: &mut [f64], node: &[f64]| {
                let mut explicit = vec![0.0f64; d];
                for b in (0..bins).filter(|&b| b != zb) {
                    add_row(&mut explicit, &plane[b * d..(b + 1) * d]);
                }
                for k in 0..d {
                    plane[zb * d + k] = node[k] - explicit[k];
                }
            };
            remainder(gh, node_g);
            match uniform {
                Some(c) => fill_uniform_h(hh, cnt, c),
                None => remainder(hh, node_h),
            }
        });
}

/// The concrete method that builds a node of `node_size` instances:
/// `method` itself, or the adaptive selector's pick for `Adaptive`,
/// priced with or without the node's launches as `launches` says.
pub fn resolve_method(
    ctx: &HistContext<'_>,
    node_size: usize,
    method: HistogramMethod,
    launches: Launches,
) -> HistogramMethod {
    match method {
        HistogramMethod::Adaptive => adaptive::select_method(ctx, node_size, launches),
        m => m,
    }
}

/// Kernel-cost descriptor of building one node's histogram with
/// `method`, from measured access-pattern statistics.
pub fn method_cost(ctx: &HistContext<'_>, idx: &[u32], method: HistogramMethod) -> KernelCost {
    let nn = idx.len();
    match resolve_method(ctx, nn, method, Launches::PerNode) {
        HistogramMethod::GlobalMemory => gmem::cost_descriptor(ctx, nn, &stats::measure(ctx, idx)),
        HistogramMethod::SharedMemory => smem::cost_descriptor(ctx, nn, &stats::measure(ctx, idx)),
        HistogramMethod::SortReduce => sortreduce::cost_descriptor(ctx, nn),
        HistogramMethod::Adaptive => unreachable!("resolve_method returns a concrete method"),
    }
}

/// Charge one node's histogram build as a kernel of its own, pricing
/// the node's launches, and return the concrete method charged: the
/// per-node entry point of the leaf-wise growers and the probes.
pub fn charge_method(
    ctx: &HistContext<'_>,
    idx: &[u32],
    method: HistogramMethod,
) -> HistogramMethod {
    let method = resolve_method(ctx, idx.len(), method, Launches::PerNode);
    charge_builds_on(ctx, method, 0, &method_cost(ctx, idx, method), &[idx]);
    method
}

/// Charging policy for one level's histogram kernels on one device: one
/// kernel per (level, method), not one per node.
///
/// [`HistCharges::plan`] resolves a build's method pricing it without
/// launches ([`Launches::PerLevel`]), prices it from measured statistics
/// and adds its launch-free cost to its method's batch.
/// [`HistCharges::flush`] charges each batch as one kernel: its merged
/// costs, its method's launches once, and a 4-byte node-slot read per
/// row (the batched kernel looks up which node each row accumulates
/// into), and traces each build for an attached sanitizer. A level's
/// subtraction derives follow as one `hist_subtract` kernel, since a
/// derive reads its sibling's fresh histogram. The caller accumulates
/// the histograms.
#[derive(Clone, Default)]
pub(crate) struct HistCharges {
    /// Fresh builds of the level, per concrete method.
    batches: BTreeMap<HistogramMethod, MethodBatch>,
    /// `f64` gradient and Hessian elements derived by subtraction this
    /// level.
    derived_values: usize,
    /// `u32` count elements derived with them.
    derived_counts: usize,
}

/// The fresh builds one method handles in a level.
#[derive(Clone, Default)]
struct MethodBatch {
    /// Merged launch-free costs of the method's nodes.
    work: KernelCost,
    /// The method's launch count, paid once per level.
    launches: f64,
    nodes: usize,
    /// Nodes built on the uniform-Hessian path.
    one_column: usize,
    rows: usize,
    /// The nodes' instances, kept only for an attached sanitizer.
    traced: Vec<Vec<u32>>,
}

impl HistCharges {
    /// Plan the build of the node of instances `idx` over `ctx`'s
    /// features with the configured method, in its method's batch.
    pub(crate) fn plan(&mut self, ctx: &HistContext<'_>, idx: &[u32]) {
        let method = resolve_method(ctx, idx.len(), ctx.opts.method, Launches::PerLevel);
        let cost = method_cost(ctx, idx, method);
        let batch = self.batches.entry(method).or_default();
        batch.work = batch.work.merged(&KernelCost {
            launches: 0.0,
            ..cost
        });
        batch.launches = cost.launches;
        batch.nodes += 1;
        batch.one_column += usize::from(ctx.grads.uniform_h().is_some());
        batch.rows += idx.len();
        if ctx.device.sanitizer().is_some() {
            batch.traced.push(idx.to_vec());
        }
    }

    /// Trace one subtraction derive over `ctx`'s features: over every
    /// (feature, bin), its `d` gradient columns, its `d` Hessian columns
    /// off the uniform-Hessian path, and its count.
    pub(crate) fn derive(&mut self, ctx: &HistContext<'_>) {
        let slots = ctx.features.len() * ctx.bins;
        let hessians = ctx.d() * usize::from(ctx.grads.uniform_h().is_none());
        let values = slots * (ctx.d() + hessians);
        crate::sanitize::trace_subtract(ctx.device, values + slots);
        self.derived_values += values;
        self.derived_counts += slots;
    }

    /// Charge the planned builds on `stream` of `ctx`'s device, one
    /// kernel per method used, then the derive kernel. `ctx` is the one
    /// the builds were planned with. Each method's nodes count into
    /// `grown.methods_used`, and its kernel, nodes and launches into
    /// `grown.hist_launches` at `depth`.
    pub(crate) fn flush(
        &mut self,
        ctx: &HistContext<'_>,
        stream: usize,
        depth: usize,
        grown: &mut GrowResult,
    ) {
        for (method, batch) in std::mem::take(&mut self.batches) {
            *grown.methods_used.entry(method).or_insert(0) += batch.nodes;
            let seen = grown.hist_launches.entry((depth, method)).or_default();
            seen.kernels += 1;
            seen.nodes += batch.nodes;
            seen.one_column += batch.one_column;
            seen.launches += batch.launches;
            let cost = batch.work.merged(&KernelCost {
                dram_bytes: 4.0 * batch.rows as f64,
                launches: batch.launches,
                ..Default::default()
            });
            charge_builds_on(ctx, method, stream, &cost, &batch.traced);
        }
        if self.derived_counts > 0 {
            // One subtract per element, reading the parent and the
            // sibling and writing the derive: 24 bytes per `f64` value,
            // 12 per `u32` count.
            let (values, counts) = (self.derived_values as f64, self.derived_counts as f64);
            ctx.device.stream(stream).charge_kernel(
                "hist_subtract",
                Phase::Histogram,
                &KernelCost::streaming(values + counts, values * 24.0 + counts * 12.0),
            );
            self.derived_values = 0;
            self.derived_counts = 0;
        }
    }
}

/// Charge `cost` as one histogram kernel of the concrete `method` on
/// `stream`, then declare each of `builds` (a node's instances) to an
/// attached sanitizer under the same name: the one place histogram
/// builds reach the ledger (see the module doc). `cost` covers one node
/// or a level's nodes of `method`.
pub fn charge_builds_on<I: AsRef<[u32]>>(
    ctx: &HistContext<'_>,
    method: HistogramMethod,
    stream: usize,
    cost: &KernelCost,
    builds: &[I],
) {
    let name = match (method, ctx.opts.warp_packing) {
        (HistogramMethod::GlobalMemory, false) => "hist_gmem",
        (HistogramMethod::GlobalMemory, true) => "hist_gmem_packed",
        (HistogramMethod::SharedMemory, false) => "hist_smem",
        (HistogramMethod::SharedMemory, true) => "hist_smem_packed",
        (HistogramMethod::SortReduce, _) => "hist_sort_reduce",
        (HistogramMethod::Adaptive, _) => unreachable!("a concrete method is charged"),
    };
    // Profiler scopes name the method, whatever its packing.
    let scope = match method {
        HistogramMethod::GlobalMemory => "hist_gmem",
        HistogramMethod::SharedMemory => "hist_smem",
        _ => "hist_sortreduce",
    };
    let _scope = ctx.device.prof_scope(scope, None);
    ctx.device
        .stream(stream)
        // lint:allow(canonical_kernel_name): hist_smem/_packed are the shared-memory siblings of hist_gmem/_packed, one char apart by design
        .charge_kernel(name, Phase::Histogram, cost);
    for idx in builds {
        trace_build(ctx, idx.as_ref(), method, name);
    }
}

/// Declare one node build's access stream to an attached sanitizer
/// under the kernel name it was charged as. gmem and smem run a thread
/// per (instance, feature) pair whose *declared-atomic* updates
/// racecheck verifies: gmem into the global histogram, smem into a
/// per-block shared tile flushed by spread global atomics.
pub(crate) fn trace_build(
    ctx: &HistContext<'_>,
    idx: &[u32],
    method: HistogramMethod,
    name: &'static str,
) {
    let Some(san) = ctx.device.sanitizer() else {
        return;
    };
    use crate::sanitize::trace_pair_kernel;
    match method {
        HistogramMethod::GlobalMemory => {
            trace_pair_kernel(&san, ctx, idx, name, MemSpace::Global, true)
        }
        HistogramMethod::SharedMemory => {
            trace_pair_kernel(&san, ctx, idx, name, MemSpace::Shared, true)
        }
        _ => sortreduce::trace(ctx, idx, &san, name),
    }
}

/// Build one node's histogram with the configured method, charging the
/// device. Returns the method actually used (after adaptive selection).
///
/// `node_g`/`node_h` are the node's per-output totals (required by the
/// sparse path).
pub fn build_node_histogram(
    ctx: &HistContext<'_>,
    idx: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    out: &mut NodeHistogram,
) -> HistogramMethod {
    accumulate_only(ctx, idx, node_g, node_h, out);
    charge_method(ctx, idx, ctx.opts.method)
}

/// Functional accumulation without any device charge (the charging
/// policy — immediate vs stream-batched — is the caller's).
pub fn accumulate_only(
    ctx: &HistContext<'_>,
    idx: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    out: &mut NodeHistogram,
) {
    out.reset();
    if ctx.opts.sparse_aware {
        accumulate_sparse(ctx, idx, node_g, node_h, out);
    } else {
        accumulate_dense(ctx, idx, out);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::loss::MseLoss;
    use gbdt_data::synth::{make_classification, ClassificationSpec};
    use gbdt_data::Dataset;

    /// A small deterministic fixture: dataset, binned view, gradients.
    pub fn fixture(n: usize, m: usize, d: usize, seed: u64) -> (Dataset, BinnedDataset, Gradients) {
        fixture_with_sparsity(n, m, d, seed, 0.4)
    }

    /// Fixture over fully dense features (no zero-bin skew).
    pub fn fixture_dense(
        n: usize,
        m: usize,
        d: usize,
        seed: u64,
    ) -> (Dataset, BinnedDataset, Gradients) {
        fixture_with_sparsity(n, m, d, seed, 0.0)
    }

    /// Fixture with an explicit zero fraction in the features.
    pub fn fixture_with_sparsity(
        n: usize,
        m: usize,
        d: usize,
        seed: u64,
        sparsity: f64,
    ) -> (Dataset, BinnedDataset, Gradients) {
        let ds = make_classification(&ClassificationSpec {
            instances: n,
            features: m,
            classes: d.max(2),
            informative: (m / 2).max(1),
            sparsity,
            seed,
            ..Default::default()
        });
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n * ds.d()];
        let grads =
            crate::grad::compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, ds.d());
        (ds, binned, grads)
    }

    /// `n × d` Hessians whose rows are all one row of inexact (0.1, 3.7),
    /// tiny (1e-30), exact (2) and zero values.
    pub fn shared_hessians(n: usize, d: usize) -> Vec<f32> {
        let row = [0.1f32, 2.0, 1e-30, 0.0, 3.7];
        (0..n * d).map(|j| row[j % d % row.len()]).collect()
    }

    /// `n × d` gradients (Hessians positive) whose magnitude varies by
    /// instance over eight decades but not by output, so f64 sums round
    /// and any change in summation order, over instances or over
    /// outputs, shows in the bits.
    pub fn mixed_gradients(n: usize, d: usize) -> Gradients {
        let wave = |j: usize| (j as f32 * 0.618).sin() * 10f32.powi((j / d) as i32 % 9 - 4);
        Gradients::new(
            (0..n * d).map(wave).collect(),
            (0..n * d).map(|j| wave(j + 7).abs() + 1e-3).collect(),
            n,
            d,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::fixture;

    fn ctx<'a>(
        device: &'a Device,
        data: &'a BinnedDataset,
        grads: &'a Gradients,
        features: &'a [u32],
        opts: HistOptions,
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins: 32,
            opts,
        }
    }

    #[test]
    fn histogram_totals_match_node_sums() {
        let (_, data, grads) = fixture(200, 6, 3, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let c = ctx(&device, &data, &grads, &features, HistOptions::default());
        let idx: Vec<u32> = (0..200).collect();
        let mut out = NodeHistogram::new(6, grads.d, 32);
        accumulate_dense(&c, &idx, &mut out);

        let (node_g, node_h) = grads.sums(&idx);
        for f in 0..6 {
            // Counts per feature sum to node size.
            let cnt: u32 = out.counts[f * 32..(f + 1) * 32].iter().sum();
            assert_eq!(cnt as usize, idx.len());
            for k in 0..grads.d {
                let sg: f64 = (0..32).map(|b| out.g_row(f, b)[k]).sum();
                let sh: f64 = (0..32).map(|b| out.h_row(f, b)[k]).sum();
                assert!(
                    (sg - node_g[k]).abs() < 1e-6,
                    "f={f} k={k}: {sg} vs {}",
                    node_g[k]
                );
                assert!((sh - node_h[k]).abs() < 1e-6);
            }
        }
    }

    /// `accumulate_dense` equals, bit for bit, a naive scalar loop that
    /// knows the layout only through `gh_index` / `cnt_index`: each cell
    /// sums its instances in node order, outputs in ascending `k`. The
    /// widths cover one lane, vector tails, several full vectors and
    /// both sides of the fixed-width boundary (8 fixed, 9 run-time).
    /// Each width runs once with Hessians that vary by row and once with
    /// one shared Hessian row, which takes the uniform-Hessian fill.
    #[test]
    fn accumulate_dense_matches_a_scalar_reference_bit_for_bit() {
        let (_, data, _) = fixture(300, 7, 3, 6);
        let device = Device::rtx4090();
        // An out-of-order feature subset, as on one feature-parallel shard.
        let features: Vec<u32> = vec![6, 0, 3, 4];
        let idx: Vec<u32> = (0..300).filter(|i| i % 4 != 2).collect();
        for d in [1, 3, 4, 5, 8, 9, 40] {
            let mixed = test_support::mixed_gradients(300, d);
            let shared = Gradients::new(
                mixed.g.clone(),
                test_support::shared_hessians(300, d),
                300,
                d,
            );
            assert!(mixed.uniform_h().is_none() && shared.uniform_h().is_some());
            for grads in [&mixed, &shared] {
                let c = ctx(&device, &data, grads, &features, HistOptions::default());

                let mut want = NodeHistogram::new(features.len(), d, 32);
                for (f_local, &f) in features.iter().enumerate() {
                    let col = data.bins.col(f as usize);
                    for &i in &idx {
                        let i = i as usize;
                        let b = col[i] as usize;
                        let at = want.cnt_index(f_local, b);
                        want.counts[at] += 1;
                        for k in 0..d {
                            let at = want.gh_index(f_local, k, b);
                            want.g[at] += grads.g[i * d + k] as f64;
                            want.h[at] += grads.h[i * d + k] as f64;
                        }
                    }
                }

                // The dispatched entry point, then every build the CPU runs.
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let builds = crate::simd::with_row_width!(d, dense_feature_pass::builds);
                let dispatched: FeaturePass = crate::simd::with_row_width!(d, dense_feature_pass);
                let mut runs = vec![("dispatched", dispatched)];
                runs.extend(builds());
                for (build, pass) in runs {
                    let mut got = NodeHistogram::new(features.len(), d, 32);
                    accumulate_dense_with(&c, &idx, &mut got, pass);
                    assert_eq!(got.counts, want.counts, "d={d} {build}");
                    assert_eq!(bits(&got.g), bits(&want.g), "d={d} {build}");
                    assert_eq!(bits(&got.h), bits(&want.h), "d={d} {build}");
                }
            }
        }
    }

    /// Uniform-Hessian builds, dense and sparsity-aware, equal the same
    /// builds forced onto the general path bit for bit, for a shared row
    /// of inexact, tiny and zero Hessians.
    #[test]
    fn uniform_builds_equal_general_builds_bit_for_bit() {
        let (_, data, _) = fixture(400, 6, 5, 9);
        let device = Device::rtx4090();
        let features: Vec<u32> = vec![5, 1, 2, 0];
        let idx: Vec<u32> = (0..400).filter(|i| i % 3 != 1).collect();
        let g = test_support::mixed_gradients(400, 5).g;
        let h = test_support::shared_hessians(400, 5);
        let uniform = Gradients::new(g.clone(), h.clone(), 400, 5);
        let general = Gradients::general(g, h, 400, 5);
        assert!(uniform.uniform_h().is_some() && general.uniform_h().is_none());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for sparse_aware in [false, true] {
            let opts = HistOptions {
                sparse_aware,
                ..HistOptions::default()
            };
            let build = |grads: &Gradients| {
                let c = ctx(&device, &data, grads, &features, opts);
                let (node_g, node_h) = grads.sums(&idx);
                let mut out = NodeHistogram::new(features.len(), 5, 32);
                accumulate_only(&c, &idx, &node_g, &node_h, &mut out);
                out
            };
            let (one, full) = (build(&uniform), build(&general));
            assert_eq!((one.hess_cols, full.hess_cols), (1, 5));
            assert_eq!(one.counts, full.counts, "sparse_aware={sparse_aware}");
            assert_eq!(bits(&one.g), bits(&full.g), "sparse_aware={sparse_aware}");
            assert_eq!(bits(&one.h), bits(&full.h), "sparse_aware={sparse_aware}");
        }
    }

    #[test]
    fn sparse_accumulation_matches_dense() {
        let (_, data, grads) = fixture(300, 8, 3, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let c = ctx(&device, &data, &grads, &features, HistOptions::default());
        // A scattered subset of instances, as after several splits.
        let idx: Vec<u32> = (0..300).filter(|i| i % 3 != 1).collect();
        let (node_g, node_h) = grads.sums(&idx);

        let mut dense = NodeHistogram::new(8, grads.d, 32);
        accumulate_dense(&c, &idx, &mut dense);
        let mut sparse = NodeHistogram::new(8, grads.d, 32);
        accumulate_sparse(&c, &idx, &node_g, &node_h, &mut sparse);

        assert_eq!(dense.counts, sparse.counts);
        for (a, b) in dense.g.iter().zip(&sparse.g) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in dense.h.iter().zip(&sparse.h) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn subtraction_reconstructs_sibling() {
        let (_, data, grads) = fixture(150, 5, 2, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..5).collect();
        let c = ctx(&device, &data, &grads, &features, HistOptions::default());

        let all: Vec<u32> = (0..150).collect();
        let left: Vec<u32> = (0..150).filter(|i| i % 2 == 0).collect();
        let right: Vec<u32> = (0..150).filter(|i| i % 2 == 1).collect();

        let mut parent = NodeHistogram::new(5, grads.d, 32);
        accumulate_dense(&c, &all, &mut parent);
        let mut derived = NodeHistogram::new(5, grads.d, 32);
        accumulate_dense(&c, &left, &mut derived);
        derived.subtract_from(&parent); // now = parent − left = right

        let mut direct = NodeHistogram::new(5, grads.d, 32);
        accumulate_dense(&c, &right, &mut direct);
        assert_eq!(derived.counts, direct.counts);
        for (a, b) in derived.g.iter().zip(&direct.g) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn all_methods_build_identical_histograms() {
        let (_, data, grads) = fixture(250, 6, 4, 4);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let idx: Vec<u32> = (0..250).collect();
        let (node_g, node_h) = grads.sums(&idx);

        let mut results = Vec::new();
        for method in [
            HistogramMethod::GlobalMemory,
            HistogramMethod::SharedMemory,
            HistogramMethod::SortReduce,
            HistogramMethod::Adaptive,
        ] {
            let opts = HistOptions {
                method,
                ..HistOptions::default()
            };
            let c = ctx(&device, &data, &grads, &features, opts);
            let mut out = NodeHistogram::new(6, grads.d, 32);
            let _ = build_node_histogram(&c, &idx, &node_g, &node_h, &mut out);
            results.push(out);
        }
        for r in &results[1..] {
            assert_eq!(results[0].counts, r.counts);
            assert_eq!(results[0].g, r.g); // same accumulation → bitwise equal
            assert_eq!(results[0].h, r.h);
        }
    }

    #[test]
    fn reset_allows_buffer_reuse() {
        let mut h = NodeHistogram::new(2, 2, 8);
        h.g[5] = 1.0;
        h.counts[3] = 7;
        h.reset();
        assert!(h.g.iter().all(|&x| x == 0.0));
        assert!(h.counts.iter().all(|&x| x == 0));
    }

    #[test]
    fn memory_bytes_scales_with_outputs() {
        let small = NodeHistogram::new(10, 2, 256);
        let big = NodeHistogram::new(10, 20, 256);
        assert!(big.memory_bytes() > small.memory_bytes() * 5);
    }

    #[test]
    #[should_panic(expected = "child count exceeds parent")]
    fn subtraction_detects_inconsistent_histograms() {
        let mut child = NodeHistogram::new(1, 1, 4);
        child.counts[0] = 5;
        let parent = NodeHistogram::new(1, 1, 4);
        child.subtract_from(&parent);
    }
}
