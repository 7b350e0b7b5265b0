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
//! flush per level charges the three batched kernels.
//!
//! **Host scan.** The functional per-feature scan is built portable,
//! AVX2 and AVX-512, and the widest build the CPU runs is picked at run
//! time (`simd::multiversion!`). Per bin it adds the bin's rows into
//! the left sums and writes the `d` per-output gain terms into a scratch
//! row, both element-wise, so they vectorise; it then sums the terms in
//! ascending `k` exactly as [`split_gain`] does. Gains, winners and
//! left sums are bit-identical under every build.

use crate::hist::{add_rows, NodeHistogram};
use gpusim::cost::KernelCost;
use gpusim::primitives::reduce::segments_per_block;
use gpusim::{Device, Phase};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

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

/// Accumulated split-evaluation work for one tree level, flushed as
/// three batched kernels (scan+gain, segmented argmax, global argmax).
#[derive(Debug, Default, Clone)]
pub struct LevelSplitCharges {
    scan_elems: f64,
    gain_candidates: f64,
    segments: f64,
    nodes: f64,
}

impl LevelSplitCharges {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn add(&mut self, mf: usize, d: usize, bins: usize) {
        self.scan_elems += (mf * d * bins) as f64;
        self.gain_candidates += (mf * bins) as f64;
        self.segments += mf as f64;
        self.nodes += 1.0;
    }

    /// Charge the level's batched kernels to `device` and reset.
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
            "split_scan_gain_level",
            Phase::SplitEval,
            &KernelCost {
                flops: self.scan_elems * 10.0,
                dram_bytes: self.scan_elems * 16.0 + self.gain_candidates * 8.0,
                launches: 1.0,
                ..Default::default()
            },
        );
        device.charge_kernel(
            "split_seg_argmax_level",
            Phase::SplitEval,
            &KernelCost {
                flops: self.gain_candidates,
                dram_bytes: self.gain_candidates * 8.0 + self.segments * 16.0,
                launches: waves.max(1.0),
                ..Default::default()
            },
        );
        device.charge_kernel(
            "split_global_argmax_level",
            Phase::SplitEval,
            &KernelCost {
                flops: self.segments,
                dram_bytes: self.segments * 16.0 + self.nodes * 32.0,
                launches: 1.0,
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
    fn scan_feature(
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

/// The portable body of one feature's scan. Per bin, the `d` per-output
/// [`gain_term`]s go into a scratch row (element-wise, so the three
/// divisions vectorise) and are then summed exactly as [`split_gain`]
/// sums them: ascending `k` from `0.0`, scaled by `0.5`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn scan_feature_portable(
    hist: &NodeHistogram,
    f_local: usize,
    feature: u32,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> (usize, f64) {
    let d = hist.d;
    let min_child = params.min_instances as u32;
    let c = constraints
        .map(|s| s.monotone[feature as usize])
        .unwrap_or(0);
    // One allocation per feature holds the left sums and the terms.
    let mut scratch = vec![0.0f64; 3 * d];
    let (gl, rest) = scratch.split_at_mut(d);
    let (hl, terms) = rest.split_at_mut(d);
    let mut left_cnt = 0u32;
    let mut best = (0usize, f64::NEG_INFINITY);
    for b in 0..hist.bins.saturating_sub(1) {
        left_cnt += hist.counts[hist.cnt_index(f_local, b)];
        add_rows(gl, hl, hist.g_row(f_local, b), hist.h_row(f_local, b));
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

/// Best split over a feature range, charging `device` for this node's
/// own (unbatched) kernels. Multi-GPU devices use this per node; the
/// single-device grower prefers [`find_best_split_batched`].
#[allow(clippy::too_many_arguments)]
pub fn find_best_split_range(
    device: &Device,
    hist: &NodeHistogram,
    features: &[u32],
    f_lo: usize,
    f_hi: usize,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
) -> Option<SplitCandidate> {
    let out = best_split_impl(
        scan_feature,
        hist,
        features,
        f_lo,
        f_hi,
        node_g,
        node_h,
        node_count,
        params,
        None,
    );
    let mut acc = LevelSplitCharges::new();
    acc.add(f_hi - f_lo, hist.d, hist.bins);
    acc.flush(device, device.model().params.sm_count, params.segments_c);
    out
}

/// Best split over the full feature range with per-node charging.
pub fn find_best_split(
    device: &Device,
    hist: &NodeHistogram,
    features: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
) -> Option<SplitCandidate> {
    find_best_split_range(
        device,
        hist,
        features,
        0,
        features.len(),
        node_g,
        node_h,
        node_count,
        params,
    )
}

/// Best split whose kernel work is accumulated into `charges` instead of
/// being charged immediately — call [`LevelSplitCharges::flush`] once
/// per level (paper §3.1.3's batched segmented reduction).
#[allow(clippy::too_many_arguments)]
pub fn find_best_split_batched(
    charges: &mut LevelSplitCharges,
    hist: &NodeHistogram,
    features: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
) -> Option<SplitCandidate> {
    find_best_split_constrained(
        charges, hist, features, node_g, node_h, node_count, params, None,
    )
}

/// [`find_best_split_batched`] with optional monotone constraints: a
/// candidate on a constrained feature is admissible only if its
/// (bound-clamped) child leaf values respect the required ordering on
/// every output.
#[allow(clippy::too_many_arguments)]
pub fn find_best_split_constrained(
    charges: &mut LevelSplitCharges,
    hist: &NodeHistogram,
    features: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> Option<SplitCandidate> {
    charges.add(features.len(), hist.d, hist.bins);
    best_split_impl(
        scan_feature,
        hist,
        features,
        0,
        features.len(),
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
        let device = Device::rtx4090();
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
        let none = find_best_split_range(&device, &hist, &[4, 9], 0, 1, &[0.0], &[8.0], 40, &p);
        assert!(none.is_none());
        let some = find_best_split_range(&device, &hist, &[4, 9], 1, 2, &[0.0], &[8.0], 40, &p)
            .expect("feature 1 must split");
        assert_eq!(some.feature, 9);
    }

    #[test]
    fn batched_path_matches_per_node_path() {
        let device = Device::rtx4090();
        let hist = polarized_hist();
        let per_node =
            find_best_split(&device, &hist, &[7], &[0.0], &[8.0], 40, &params()).unwrap();
        let mut charges = LevelSplitCharges::new();
        let batched =
            find_best_split_batched(&mut charges, &hist, &[7], &[0.0], &[8.0], 40, &params())
                .unwrap();
        assert_eq!(per_node.feature, batched.feature);
        assert_eq!(per_node.bin, batched.bin);
        assert_eq!(per_node.gain, batched.gain);
        // Flushing once charges exactly three kernels.
        let d2 = Device::rtx4090();
        charges.flush(&d2, d2.model().params.sm_count, 4.0);
        assert_eq!(d2.summary().kernel_count, 3);
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
            let _ =
                find_best_split_batched(&mut charges, &hist, &[0], &[0.0], &[8.0], 40, &params());
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

    /// `find_best_split` equals, bit for bit, a scalar loop that walks
    /// every (feature, bin) in order and calls [`split_gain`] per bin:
    /// same winner, gain bits and left-side sums, with `min_instances`
    /// filtering both ends of every feature.
    #[test]
    fn best_split_matches_a_scalar_reference_bit_for_bit() {
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
        for d in [1, 3, 40] {
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

            let mut want: Option<(usize, usize, f64, u32)> = None;
            let (mut left_g, mut left_h) = (vec![], vec![]);
            let mut filtered = 0;
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
                    let gain = split_gain(&gl, &hl, &node_g, &node_h, p.lambda);
                    if want.is_none_or(|w| gain > w.2) {
                        want = Some((f_local, b, gain, left));
                        (left_g, left_h) = (gl.clone(), hl.clone());
                    }
                }
            }
            assert!(filtered > 0, "d={d}: min_instances filtered nothing");
            let (f_local, bin, gain, left_count) = want.expect("reference finds a split");
            assert!(gain > p.min_gain, "d={d}");

            // The dispatched entry point, then every build the CPU runs.
            let dispatched =
                find_best_split(&device, &hist, &features, &node_g, &node_h, node_count, &p);
            let mut runs = vec![("dispatched", dispatched)];
            for (build, scan) in scan_feature::builds() {
                let n = features.len();
                let got = best_split_impl(
                    scan, &hist, &features, 0, n, &node_g, &node_h, node_count, &p, None,
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
    }

    #[test]
    fn empty_node_yields_no_split() {
        let device = Device::rtx4090();
        let hist = NodeHistogram::new(1, 1, 4);
        assert!(find_best_split(&device, &hist, &[0], &[0.0], &[0.0], 0, &params()).is_none());
    }
}
