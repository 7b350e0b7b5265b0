//! Split-point selection (paper §2.3, §3.1.2–§3.1.3).
//!
//! From a node's histogram, every bin boundary of every feature is a
//! candidate split. Left-side gradient masses come from a segmented
//! prefix sum over the bins of each (feature, output) segment; the gain
//! of Eq. (3) sums per-output terms; a segmented argmax picks the best
//! threshold per feature and a global argmax the best feature.
//!
//! **Launch batching.** A naive implementation launches the scan/gain/
//! reduction kernels once per node; on deep trees the launch overhead
//! dominates. The paper's §3.1.3 instead treats every (node, feature)
//! pair as a segment of *one* level-wide reduction, mapped to blocks by
//! the adaptive `1 + #segments/#SMs × C` rule. [`LevelSplitCharges`]
//! models exactly that: per-node calls accumulate their work, and one
//! flush per level charges one fused kernel, `split_eval_level`. Its
//! blocks scan their segments and keep the running argmax in registers,
//! and each segment then issues one packed `(gain, index)` atomic max
//! on its node's winner slot, as XGBoost's GPU evaluator scans and
//! reduces in one pass (1806.11248). The packed index orders
//! candidates by feature, then bin, so ties go to the lowest index as
//! the host argmax breaks them.
//!
//! **Host scan.** The functional per-feature scan is built portable,
//! AVX2 and AVX-512, and the widest build the CPU runs is picked at run
//! time (`simd::multiversion!`); each build is also instantiated for
//! the output widths `d = 1..=8` and for a run-time width above that,
//! and `simd::with_row_width!` picks one per node. Per bin it adds the
//! bin's rows into the left sums and writes the `d` per-output gain
//! terms into a scratch row, both element-wise, so they vectorise; it
//! then sums the terms in ascending `k` exactly as [`split_gain`] does.
//! Gains, winners and left sums are bit-identical under every build and
//! width.

use crate::config::TrainConfig;
use crate::hist::{add_rows, NodeHistogram};
use gpusim::cost::KernelCost;
use gpusim::{Device, Phase};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Number of segments each block handles under the paper's adaptive
/// mapping (§3.1.3): `1 + #segments / #SMs × C`. A naive one-segment-
/// per-block grid pays kernel-launch and scheduling overhead per segment
/// on high-dimensional data; batching segments amortizes it.
fn segments_per_block(num_segments: usize, sm_count: u32, c: f64) -> usize {
    (1.0 + num_segments as f64 / sm_count as f64 * c).floor() as usize
}

/// Parameters governing split acceptance.
#[derive(Debug, Clone, Copy)]
pub struct SplitParams {
    /// L2 regularization λ on leaf values.
    pub lambda: f64,
    /// Minimum gain γ for a split to be kept.
    pub min_gain: f64,
    /// Minimum instances per child.
    pub min_instances: usize,
    /// Adaptive segments-per-block constant `C` (§3.1.3).
    pub segments_c: f64,
}

impl From<&TrainConfig> for SplitParams {
    fn from(config: &TrainConfig) -> Self {
        SplitParams {
            lambda: config.lambda,
            min_gain: config.min_gain,
            min_instances: config.min_instances,
            segments_c: config.segments_per_block_c,
        }
    }
}

impl SplitParams {
    /// Fewest instances a child may hold: `min_instances`, and never
    /// fewer than one, so no split leaves a child empty.
    pub fn min_child(&self) -> u32 {
        self.min_instances.max(1) as u32
    }
}

/// A chosen split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitCandidate {
    /// Global feature ID.
    pub feature: u32,
    /// Threshold bin: instances with `bin ≤ bin` go left.
    pub bin: u8,
    /// Gain of Eq. (3).
    pub gain: f64,
    /// Instances routed left.
    pub left_count: u32,
    /// Instances routed right.
    pub right_count: u32,
    /// Per-output gradient sums of the left child.
    pub left_g: Vec<f64>,
    /// Per-output Hessian sums of the left child.
    pub left_h: Vec<f64>,
}

/// One output dimension's gain contribution (½ of Eq. (3)'s summand).
#[inline]
fn gain_term(gl: f64, hl: f64, gr: f64, hr: f64, lambda: f64) -> f64 {
    gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - (gl + gr) * (gl + gr) / (hl + hr + lambda)
}

/// The leaf objective reduction of splitting, summed over outputs.
pub fn split_gain(
    left_g: &[f64],
    left_h: &[f64],
    node_g: &[f64],
    node_h: &[f64],
    lambda: f64,
) -> f64 {
    let mut gain = 0.0;
    for k in 0..node_g.len() {
        let gl = left_g[k];
        let hl = left_h[k];
        gain += gain_term(gl, hl, node_g[k] - gl, node_h[k] - hl, lambda);
    }
    0.5 * gain
}

/// Accumulated split-evaluation work for one tree level, flushed as one
/// fused `split_eval_level` kernel (scan, gain and both argmaxes).
#[derive(Debug, Default, Clone)]
pub struct LevelSplitCharges {
    /// Per-output gain terms: one per (feature, bin, output).
    gain_terms: f64,
    /// Histogram elements the scan reads: gradient and Hessian (or
    /// count) columns over every (feature, bin).
    hist_elems: f64,
    gain_candidates: f64,
    segments: f64,
    nodes: f64,
}

impl LevelSplitCharges {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one node's scan of `mf` features of `hist`. A scan of no
    /// feature adds nothing: a device whose range holds no splittable
    /// column launches no split kernel.
    fn add(&mut self, mf: usize, hist: &NodeHistogram) {
        if mf == 0 {
            return;
        }
        self.gain_terms += (mf * hist.d * hist.bins) as f64;
        self.hist_elems += (mf * hist.bins * (hist.d + hist.hess_cols)) as f64;
        self.gain_candidates += (mf * hist.bins) as f64;
        self.segments += mf as f64;
        self.nodes += 1.0;
    }

    /// Charge the level's fused kernel to `device` and reset.
    pub fn flush(&mut self, device: &Device, sm_count: u32, segments_c: f64) {
        if self.nodes == 0.0 {
            return;
        }
        // The adaptive segment mapping (§3.1.3): batching segments into
        // blocks shrinks the grid. A naive low-C mapping (one segment
        // per block) needs a grid far beyond the SM count, paying a
        // launch-equivalent dispatch round per full wave of blocks —
        // exactly the inefficiency the paper calls out "on
        // high-dimensional datasets due to kernel launch overhead".
        let spb = segments_per_block(self.segments as usize, sm_count, segments_c) as f64;
        let blocks = (self.segments / spb.max(1.0)).ceil();
        let waves = (blocks / sm_count as f64).ceil();
        device.charge_kernel(
            "split_eval_level",
            Phase::SplitEval,
            &KernelCost {
                // Prefix scan and gain per output, then the in-register
                // argmax over each candidate.
                flops: self.gain_terms * 10.0 + self.gain_candidates,
                // Histogram reads, then each node's winning split.
                dram_bytes: self.hist_elems * 8.0 + self.nodes * 32.0,
                // One packed (gain, index) atomic max per segment.
                gmem_atomics: self.segments,
                launches: waves.max(1.0),
                ..Default::default()
            },
        );
        crate::sanitize::trace_split_level(
            device,
            self.segments as usize,
            self.gain_candidates as usize,
            self.nodes as usize,
        );
        *self = Self::default();
    }
}

/// Monotone-constraint context for one node: per-global-feature signs
/// (+1 non-decreasing, −1 non-increasing, 0 free) and the node's
/// per-output leaf-value bounds inherited from constrained ancestors.
#[derive(Debug, Clone, Copy)]
pub struct ConstraintState<'a> {
    /// Per global feature ID: +1 / −1 / 0.
    pub monotone: &'a [i8],
    /// Per output: admissible `[lower, upper]` leaf-value interval.
    pub bounds: &'a [(f64, f64)],
}

impl ConstraintState<'_> {
    /// Clamp a raw optimal leaf value for output `k` into this node's
    /// interval.
    #[inline]
    pub fn clamp(&self, k: usize, v: f64) -> f64 {
        let (lo, hi) = self.bounds[k];
        v.clamp(lo, hi)
    }
}

/// Does a candidate split on a `c`-constrained feature keep the leaf
/// ordering legal? Checks every output with values clamped into the
/// node's bounds (bound propagation makes the guarantee global).
fn constraint_ok(
    c: i8,
    gl: &[f64],
    hl: &[f64],
    node_g: &[f64],
    node_h: &[f64],
    lambda: f64,
    state: &ConstraintState<'_>,
) -> bool {
    for k in 0..node_g.len() {
        let vl = state.clamp(k, -(gl[k] / (hl[k] + lambda)));
        let vr = state.clamp(k, -((node_g[k] - gl[k]) / (node_h[k] - hl[k] + lambda)));
        if (c as f64) * (vr - vl) < 0.0 {
            return false;
        }
    }
    true
}

/// One feature's segmented scan: its best `(bin, gain)` over every
/// admissible threshold, `(0, −∞)` when none is admissible.
type FeatureScan = fn(
    &NodeHistogram,
    usize,
    u32,
    &[f64],
    &[f64],
    u32,
    &SplitParams,
    Option<&ConstraintState<'_>>,
) -> (usize, f64);

crate::simd::multiversion! {
    /// [`scan_feature_portable`], built for the widest vector extension
    /// the CPU has.
    fn scan_feature<const W: usize>(
        hist: &NodeHistogram,
        f_local: usize,
        feature: u32,
        node_g: &[f64],
        node_h: &[f64],
        node_count: u32,
        params: &SplitParams,
        constraints: Option<&ConstraintState<'_>>,
    ) -> (usize, f64) = scan_feature_portable;
}

/// The portable body of one feature's scan at row width `W` (`0`: `d`
/// read at run time). Per bin, the `d` per-output [`gain_term`]s go
/// into a scratch row (element-wise, so the three divisions vectorise)
/// and are then summed exactly as [`split_gain`] sums them: ascending
/// `k` from `0.0`, scaled by `0.5`. Every row is sliced to exactly `d`
/// elements and, at a fixed width, the scratch rows live on the stack,
/// so the per-bin loops have a constant trip count and unroll.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn scan_feature_portable<const W: usize>(
    hist: &NodeHistogram,
    f_local: usize,
    feature: u32,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> (usize, f64) {
    let d = crate::simd::row_width::<W>(hist.d);
    let (node_g, node_h) = (&node_g[..d], &node_h[..d]);
    let min_child = params.min_child();
    let c = constraints
        .map(|s| s.monotone[feature as usize])
        .unwrap_or(0);
    // The left sums and the terms: on the stack at a fixed width, else
    // one allocation per feature.
    let mut fixed = [[0.0f64; W]; 3];
    let mut spill;
    let [gl, hl, terms] = if W > 0 {
        fixed.each_mut().map(|row| &mut row[..])
    } else {
        spill = vec![0.0f64; 3 * d];
        let (gl, rest) = spill.split_at_mut(d);
        let (hl, terms) = rest.split_at_mut(d);
        [gl, hl, terms]
    };
    let mut left_cnt = 0u32;
    let mut best = (0usize, f64::NEG_INFINITY);
    for b in 0..hist.bins.saturating_sub(1) {
        left_cnt += hist.counts[hist.cnt_index(f_local, b)];
        add_rows(
            gl,
            hl,
            &hist.g_row(f_local, b)[..d],
            &hist.h_row(f_local, b)[..d],
        );
        let right_cnt = node_count - left_cnt;
        if left_cnt < min_child || right_cnt < min_child {
            continue;
        }
        if c != 0 {
            let state = constraints.expect("c != 0 implies state");
            if !constraint_ok(c, gl, hl, node_g, node_h, params.lambda, state) {
                continue;
            }
        }
        for ((((t, &gl_k), &hl_k), &g_k), &h_k) in
            terms.iter_mut().zip(&*gl).zip(&*hl).zip(node_g).zip(node_h)
        {
            *t = gain_term(gl_k, hl_k, g_k - gl_k, h_k - hl_k, params.lambda);
        }
        let mut gain = 0.0;
        for &t in &*terms {
            gain += t;
        }
        let gain = 0.5 * gain;
        if gain > best.1 {
            best = (b, gain);
        }
    }
    best
}

/// Pure (uncharged) best-split search over features `f_lo..f_hi` (local
/// indices into `features`/`hist`), each feature scanned by `scan`.
/// Tie-breaking: the lowest feature index, then the lowest bin.
#[allow(clippy::too_many_arguments)]
fn best_split_impl(
    scan: FeatureScan,
    hist: &NodeHistogram,
    features: &[u32],
    f_lo: usize,
    f_hi: usize,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> Option<SplitCandidate> {
    assert_eq!(
        features.len(),
        hist.num_features,
        "feature/histogram mismatch"
    );
    assert!(f_lo <= f_hi && f_hi <= features.len(), "bad feature range");
    let d = hist.d;
    if f_lo == f_hi || node_count == 0 {
        return None;
    }

    // Per-feature best: the segmented scan + gain + segmented argmax,
    // fused (parallel over feature segments).
    let per_feature: Vec<(usize, f64)> = (f_lo..f_hi)
        .into_par_iter()
        .map(|f_local| {
            scan(
                hist,
                f_local,
                features[f_local],
                node_g,
                node_h,
                node_count,
                params,
                constraints,
            )
        })
        .collect();

    // Global argmax across features (lowest index wins ties).
    let mut best_fi = 0usize;
    let mut best_gain = f64::NEG_INFINITY;
    for (i, &(_, g)) in per_feature.iter().enumerate() {
        if g > best_gain {
            best_gain = g;
            best_fi = i;
        }
    }
    if !best_gain.is_finite() || best_gain <= params.min_gain {
        return None;
    }
    let f_local = f_lo + best_fi;
    let best_bin = per_feature[best_fi].0;

    // Reconstruct the winning split's left-side sums.
    let mut left_g = vec![0.0f64; d];
    let mut left_h = vec![0.0f64; d];
    let mut left_count = 0u32;
    for b in 0..=best_bin {
        left_count += hist.counts[hist.cnt_index(f_local, b)];
        add_rows(
            &mut left_g,
            &mut left_h,
            hist.g_row(f_local, b),
            hist.h_row(f_local, b),
        );
    }
    Some(SplitCandidate {
        feature: features[f_local],
        bin: best_bin as u8,
        gain: best_gain,
        left_count,
        right_count: node_count - left_count,
        left_g,
        left_h,
    })
}

/// Best split over the full feature range, charged to `device` at once
/// as this node's own (unbatched) kernels.
pub fn find_best_split(
    device: &Device,
    hist: &NodeHistogram,
    features: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
) -> Option<SplitCandidate> {
    let mut acc = LevelSplitCharges::new();
    let out = find_best_split_constrained(
        &mut acc,
        hist,
        features,
        0..features.len(),
        node_g,
        node_h,
        node_count,
        params,
        None,
    );
    acc.flush(device, device.model().params.sm_count, params.segments_c);
    out
}

/// Best split over the features `cols` (local indices into
/// `features`/`hist`), optionally under monotone constraints, its kernel
/// work accumulated into `charges` instead of being charged immediately
/// — call [`LevelSplitCharges::flush`] once per level (paper §3.1.3's
/// batched segmented reduction). One device scans every column; a
/// device of a group scans its own range. A candidate on a constrained
/// feature is admissible only if its (bound-clamped) child leaf values
/// respect the required ordering on every output.
#[allow(clippy::too_many_arguments)]
pub fn find_best_split_constrained(
    charges: &mut LevelSplitCharges,
    hist: &NodeHistogram,
    features: &[u32],
    cols: Range<usize>,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> Option<SplitCandidate> {
    charges.add(cols.len(), hist);
    best_split_impl(
        crate::simd::with_row_width!(hist.d, scan_feature),
        hist,
        features,
        cols.start,
        cols.end,
        node_g,
        node_h,
        node_count,
        params,
        constraints,
    )
}

/// Optimal leaf values `v*_k = −G_k / (H_k + λ)` (paper §2.2), scaled by
/// the learning rate. The output width follows the input sums, so the
/// same routine serves both the in-grow leaf assignment (at the
/// effective dimension of the gradients being grown — `k` during a
/// sketched round) and the full-`d` refit
/// ([`crate::sketch::refit_leaves_full_d`], SketchBoost's "retarget"
/// step) that replaces those k-dim leaves afterwards.
pub fn leaf_values(node_g: &[f64], node_h: &[f64], lambda: f64, learning_rate: f32) -> Vec<f32> {
    node_g
        .iter()
        .zip(node_h)
        .map(|(&g, &h)| (-(g / (h + lambda)) as f32) * learning_rate)
        .collect()
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn params() -> SplitParams {
        SplitParams {
            lambda: 1.0,
            min_gain: 1e-9,
            min_instances: 1,
            segments_c: 4.0,
        }
    }

    /// Hand-built histogram: 1 feature, 4 bins, d=1. Bins 0–1 have
    /// negative gradients, bins 2–3 positive → best split after bin 1.
    fn polarized_hist() -> NodeHistogram {
        let mut h = NodeHistogram::new(1, 1, 4);
        let g = [-5.0, -5.0, 5.0, 5.0];
        for b in 0..4 {
            {
                let at = h.gh_index(0, 0, b);
                h.g[at] = g[b];
            }
            {
                let at = h.gh_index(0, 0, b);
                h.h[at] = 2.0;
            }
            {
                let at = h.cnt_index(0, b);
                h.counts[at] = 10;
            }
        }
        h
    }

    #[test]
    fn finds_the_obvious_split() {
        let device = Device::rtx4090();
        let hist = polarized_hist();
        let s = find_best_split(&device, &hist, &[7], &[0.0], &[8.0], 40, &params())
            .expect("split must exist");
        assert_eq!(s.feature, 7);
        assert_eq!(s.bin, 1);
        assert_eq!(s.left_count, 20);
        assert_eq!(s.right_count, 20);
        assert_eq!(s.left_g, vec![-10.0]);
        assert!(s.gain > 0.0);
        assert!(device.summary().by_phase.contains_key(&Phase::SplitEval));
    }

    #[test]
    fn gain_matches_equation_3() {
        // Hand-check Eq. (3) for the polarized split: GL=-10, GR=10,
        // HL=HR=4, λ=1 → ½(100/5 + 100/5 − 0/9) = 20.
        let g = split_gain(&[-10.0], &[4.0], &[0.0], &[8.0], 1.0);
        assert!((g - 20.0).abs() < 1e-12, "gain {g}");
    }

    #[test]
    fn min_instances_filters_candidates() {
        let device = Device::rtx4090();
        let hist = polarized_hist();
        let mut p = params();
        p.min_instances = 25; // no boundary leaves ≥25 on both sides
        let s = find_best_split(&device, &hist, &[0], &[0.0], &[8.0], 40, &p);
        assert!(s.is_none());
    }

    #[test]
    fn no_split_leaves_a_child_empty_even_at_min_instances_zero() {
        let device = Device::rtx4090();
        // A one-bin feature: every row sits in bin 0. Node totals that
        // differ from the bin sums give the "everything goes left"
        // boundary a positive gain.
        let mut hist = NodeHistogram::new(1, 1, 4);
        hist.g[0] = -5.0;
        hist.h[0] = 2.0;
        hist.counts[0] = 10;
        let mut p = params();
        p.min_instances = 0;
        p.min_gain = 0.0;
        let s = find_best_split(&device, &hist, &[0], &[-5.0], &[3.0], 10, &p);
        assert!(s.is_none(), "an empty child was admitted: {s:?}");
        assert_eq!(p.min_child(), 1);
    }

    #[test]
    fn min_gain_rejects_weak_splits() {
        let device = Device::rtx4090();
        // Uniform gradients: no split has positive gain.
        let mut hist = NodeHistogram::new(1, 1, 4);
        for b in 0..4 {
            {
                let at = hist.gh_index(0, 0, b);
                hist.g[at] = 1.0;
            }
            {
                let at = hist.gh_index(0, 0, b);
                hist.h[at] = 2.0;
            }
            hist.counts[b] = 5;
        }
        let s = find_best_split(&device, &hist, &[0], &[4.0], &[8.0], 20, &params());
        assert!(s.is_none(), "uniform node must not split: {s:?}");
    }

    #[test]
    fn multi_output_gain_sums_over_outputs() {
        let device = Device::rtx4090();
        // d=2 where each output alone gives gain 20 → total 40.
        let mut hist = NodeHistogram::new(1, 2, 4);
        for k in 0..2 {
            let g = [-5.0, -5.0, 5.0, 5.0];
            for b in 0..4 {
                {
                    let at = hist.gh_index(0, k, b);
                    hist.g[at] = g[b];
                }
                {
                    let at = hist.gh_index(0, k, b);
                    hist.h[at] = 2.0;
                }
            }
        }
        for b in 0..4 {
            hist.counts[b] = 10;
        }
        let s = find_best_split(
            &device,
            &hist,
            &[0],
            &[0.0, 0.0],
            &[8.0, 8.0],
            40,
            &params(),
        )
        .unwrap();
        assert!((s.gain - 40.0).abs() < 1e-9, "gain {}", s.gain);
    }

    #[test]
    fn range_restriction_is_respected() {
        // Two features; only feature 1 carries signal. Restricting the
        // range to feature 0 must find nothing.
        let mut hist = NodeHistogram::new(2, 1, 4);
        let g = [-5.0, -5.0, 5.0, 5.0];
        for b in 0..4 {
            {
                let at = hist.gh_index(1, 0, b);
                hist.g[at] = g[b];
            }
            {
                let at = hist.gh_index(1, 0, b);
                hist.h[at] = 2.0;
            }
            {
                let at = hist.cnt_index(0, b);
                hist.counts[at] = 10;
            }
            {
                let at = hist.cnt_index(1, b);
                hist.counts[at] = 10;
            }
            {
                let at = hist.gh_index(0, 0, b);
                hist.h[at] = 2.0;
            }
        }
        let p = params();
        let mut charges = LevelSplitCharges::new();
        let mut range = |lo, hi| {
            find_best_split_constrained(
                &mut charges,
                &hist,
                &[4, 9],
                lo..hi,
                &[0.0],
                &[8.0],
                40,
                &p,
                None,
            )
        };
        assert!(range(0, 1).is_none());
        let some = range(1, 2).expect("feature 1 must split");
        assert_eq!(some.feature, 9);
    }

    #[test]
    fn batched_path_matches_per_node_path() {
        let device = Device::rtx4090();
        let hist = polarized_hist();
        let per_node =
            find_best_split(&device, &hist, &[7], &[0.0], &[8.0], 40, &params()).unwrap();
        let mut charges = LevelSplitCharges::new();
        let batched = find_best_split_constrained(
            &mut charges,
            &hist,
            &[7],
            0..1,
            &[0.0],
            &[8.0],
            40,
            &params(),
            None,
        )
        .unwrap();
        assert_eq!(per_node.feature, batched.feature);
        assert_eq!(per_node.bin, batched.bin);
        assert_eq!(per_node.gain, batched.gain);
        // Flushing once charges exactly one fused kernel.
        let d2 = Device::rtx4090();
        charges.flush(&d2, d2.model().params.sm_count, 4.0);
        assert_eq!(d2.summary().kernel_count, 1);
        assert_eq!(d2.records()[0].name, "split_eval_level");
    }

    #[test]
    fn batched_charging_amortizes_launches() {
        // 16 nodes charged per-node vs batched: batched must be cheaper.
        let hist = polarized_hist();
        let d_per = Device::rtx4090();
        for _ in 0..16 {
            let _ = find_best_split(&d_per, &hist, &[0], &[0.0], &[8.0], 40, &params());
        }
        let d_batch = Device::rtx4090();
        let mut charges = LevelSplitCharges::new();
        for _ in 0..16 {
            let _ = find_best_split_constrained(
                &mut charges,
                &hist,
                &[0],
                0..1,
                &[0.0],
                &[8.0],
                40,
                &params(),
                None,
            );
        }
        charges.flush(&d_batch, d_batch.model().params.sm_count, 4.0);
        assert!(
            d_batch.now_ns() < d_per.now_ns() / 4.0,
            "batched {} vs per-node {}",
            d_batch.now_ns(),
            d_per.now_ns()
        );
    }

    #[test]
    fn segments_per_block_adaptive_mapping() {
        // Few segments on many SMs → one per block (naive mapping).
        assert_eq!(segments_per_block(10, 128, 4.0), 1);
        // Many segments → batched.
        assert!(segments_per_block(100_000, 128, 4.0) > 1000);
        // Monotone in C.
        assert!(segments_per_block(5000, 128, 8.0) >= segments_per_block(5000, 128, 2.0));
    }

    #[test]
    fn flush_on_empty_accumulator_is_a_noop() {
        let device = Device::rtx4090();
        let mut charges = LevelSplitCharges::new();
        charges.flush(&device, 128, 4.0);
        assert_eq!(device.now_ns(), 0.0);
    }

    #[test]
    fn leaf_values_match_closed_form() {
        let v = leaf_values(&[10.0, -4.0], &[4.0, 1.0], 1.0, 1.0);
        assert_eq!(v, vec![-2.0, 2.0]);
        let v = leaf_values(&[10.0], &[4.0], 1.0, 0.5);
        assert_eq!(v, vec![-1.0]);
    }

    /// The dispatched best split and every build of the scan equal, bit
    /// for bit, a scalar loop that walks every (feature, bin) in order
    /// and calls [`split_gain`] per bin:
    /// same winner, gain bits and left-side sums, with `min_instances`
    /// filtering both ends of every feature. The widths cover both sides
    /// of the fixed-width boundary (8 fixed, 9 run-time); at `d = 4` a
    /// monotone-constrained node must also match the reference, which
    /// checks the clamped child values of every output itself.
    #[test]
    fn best_split_matches_a_scalar_reference_bit_for_bit() {
        for d in [1, 3, 4, 8, 9, 40] {
            check_scan_against_scalar_reference(d, None);
        }
        // Global features 0..6: two non-decreasing, one non-increasing.
        let monotone = [1, 0, -1, 0, 0, 1];
        let free = (f64::NEG_INFINITY, f64::INFINITY);
        let bounds = [(-0.05, 0.05), free, (0.0, f64::INFINITY), free];
        let state = ConstraintState {
            monotone: &monotone,
            bounds: &bounds,
        };
        check_scan_against_scalar_reference(4, Some(&state));
    }

    fn check_scan_against_scalar_reference(d: usize, constraints: Option<&ConstraintState<'_>>) {
        use crate::config::HistOptions;
        use crate::hist::test_support::{fixture, mixed_gradients};
        use crate::hist::{accumulate_dense, HistContext};

        let (_, data, _) = fixture(400, 6, 3, 9);
        let device = Device::rtx4090();
        let features: Vec<u32> = vec![5, 1, 2, 0, 4];
        let idx: Vec<u32> = (0..400).filter(|i| i % 5 != 3).collect();
        let node_count = idx.len() as u32;
        let mut p = params();
        p.min_instances = 40;
        let grads = mixed_gradients(400, d);
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let mut hist = NodeHistogram::new(features.len(), d, 32);
        accumulate_dense(&ctx, &idx, &mut hist);
        let (node_g, node_h) = grads.sums(&idx);

        // Does the reference admit a left side of `(gl, hl)` on `feature`?
        let admissible = |feature: u32, gl: &[f64], hl: &[f64]| {
            let Some(state) = constraints else {
                return true;
            };
            let c = state.monotone[feature as usize] as f64;
            (0..d).all(|k| {
                let vl = state.clamp(k, -(gl[k] / (hl[k] + p.lambda)));
                let gr = node_g[k] - gl[k];
                let vr = state.clamp(k, -(gr / (node_h[k] - hl[k] + p.lambda)));
                c * (vr - vl) >= 0.0
            })
        };
        let mut want: Option<(usize, usize, f64, u32)> = None;
        let (mut left_g, mut left_h) = (vec![], vec![]);
        let (mut filtered, mut blocked) = (0, 0);
        for f_local in 0..features.len() {
            let (mut gl, mut hl, mut left) = (vec![0.0; d], vec![0.0; d], 0u32);
            for b in 0..hist.bins - 1 {
                left += hist.counts[hist.cnt_index(f_local, b)];
                for k in 0..d {
                    gl[k] += hist.g[hist.gh_index(f_local, k, b)];
                    hl[k] += hist.h[hist.gh_index(f_local, k, b)];
                }
                if left < p.min_instances as u32 || node_count - left < p.min_instances as u32 {
                    filtered += 1;
                    continue;
                }
                if !admissible(features[f_local], &gl, &hl) {
                    blocked += 1;
                    continue;
                }
                let gain = split_gain(&gl, &hl, &node_g, &node_h, p.lambda);
                if want.is_none_or(|w| gain > w.2) {
                    want = Some((f_local, b, gain, left));
                    (left_g, left_h) = (gl.clone(), hl.clone());
                }
            }
        }
        assert!(filtered > 0, "d={d}: min_instances filtered nothing");
        if constraints.is_some() {
            assert!(blocked > 0, "d={d}: the constraints blocked nothing");
        }
        let (f_local, bin, gain, left_count) = want.expect("reference finds a split");
        assert!(gain > p.min_gain, "d={d}");

        // The dispatched entry point, then every build the CPU runs.
        let mut charges = LevelSplitCharges::new();
        let dispatched = find_best_split_constrained(
            &mut charges,
            &hist,
            &features,
            0..features.len(),
            &node_g,
            &node_h,
            node_count,
            &p,
            constraints,
        );
        let mut runs = vec![("dispatched", dispatched)];
        let builds = crate::simd::with_row_width!(d, scan_feature::builds);
        for (build, scan) in builds() {
            let n = features.len();
            let got = best_split_impl(
                scan,
                &hist,
                &features,
                0,
                n,
                &node_g,
                &node_h,
                node_count,
                &p,
                constraints,
            );
            runs.push((build, got));
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (build, got) in runs {
            let got = got.expect("split must exist");
            assert_eq!(got.feature, features[f_local], "d={d} {build}");
            assert_eq!(got.bin as usize, bin, "d={d} {build}");
            assert_eq!(got.gain.to_bits(), gain.to_bits(), "d={d} {build}");
            assert_eq!(bits(&got.left_g), bits(&left_g), "d={d} {build}");
            assert_eq!(bits(&got.left_h), bits(&left_h), "d={d} {build}");
            assert_eq!(got.left_count, left_count, "d={d} {build}");
        }
    }

    #[test]
    fn empty_node_yields_no_split() {
        let device = Device::rtx4090();
        let hist = NodeHistogram::new(1, 1, 4);
        assert!(find_best_split(&device, &hist, &[0], &[0.0], &[0.0], 0, &params()).is_none());
    }
}
