//! Gradient/Hessian computation on the device (paper §3.1.1).
//!
//! One simulated thread per instance evaluates the loss derivatives for
//! all `d` outputs from the current raw scores ŷ. Scores themselves are
//! maintained *incrementally*: after each tree, leaf values are
//! scattered onto the instances resident in each leaf, instead of
//! re-traversing the ensemble — the paper's "skip traversal altogether
//! and directly retrieve the leaf weights".

use crate::loss::MultiOutputLoss;
use gpusim::cost::KernelCost;
use gpusim::{Device, Phase};
use rayon::prelude::*;

/// Per-instance, per-output first and second loss derivatives,
/// row-major: `g[i*d + k]`.
///
/// Built only through [`Gradients::new`], which records whether every
/// row shares one Hessian row ([`Gradients::uniform_h`]). Histogram
/// builds then carry one count column instead of `d` Hessian columns
/// (see `crate::hist`). Code that changes `h` in place must rebuild the
/// record, as [`quantize_bf16`] does.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// First derivatives.
    pub g: Vec<f32>,
    /// Second derivatives (diagonal Hessian).
    pub h: Vec<f32>,
    /// Instance count.
    pub n: usize,
    /// Output dimension. This is the *effective* width of the matrix,
    /// not necessarily the model's: during a sketched round
    /// ([`crate::sketch`]) the trainer hands the grower an `n × k`
    /// `Gradients` with `d == k`, and every downstream consumer
    /// (histogram shapes, cost formulas via `HistContext::d()`, split
    /// scan, leaf widths) sizes itself from this field.
    pub d: usize,
    /// The Hessian row every instance shares, if one does.
    uniform_h: Option<Vec<f32>>,
}

/// Rows at or above this count could make a partial sum of one `f32`
/// Hessian inexact in `f64` (24 + 29 bits), so they are never uniform.
const MAX_UNIFORM_ROWS: usize = 1 << 29;

#[cfg(test)]
thread_local! {
    /// Off inside [`on_general_path`]: every `Gradients` built on this
    /// thread reports no uniform row.
    static DETECT_UNIFORM: std::cell::Cell<bool> = const { std::cell::Cell::new(true) };
}

/// Run `f` with uniform-Hessian detection off on this thread, so every
/// histogram it builds takes the general `d`-column path. The
/// differential tests compare such fits with detecting ones.
#[cfg(test)]
pub(crate) fn on_general_path<R>(f: impl FnOnce() -> R) -> R {
    let was = DETECT_UNIFORM.with(|c| c.replace(false));
    let out = f();
    DETECT_UNIFORM.with(|c| c.set(was));
    out
}

/// The Hessian row all `n` rows of `h` share, bit for bit. Only a row
/// of finite, sign-positive values counts, so a bin's `count × c[k]`
/// has the bits of summing `c[k]` `count` times from `+0.0`.
fn uniform_row(h: &[f32], n: usize, d: usize) -> Option<Vec<f32>> {
    #[cfg(test)]
    if !DETECT_UNIFORM.with(|c| c.get()) {
        return None;
    }
    if n == 0 || d == 0 || n >= MAX_UNIFORM_ROWS {
        return None;
    }
    let first = &h[..d];
    if !first.iter().all(|v| v.is_finite() && v.is_sign_positive()) {
        return None;
    }
    let same = |row: &[f32]| {
        row.iter()
            .zip(first)
            .all(|(a, b)| a.to_bits() == b.to_bits())
    };
    h.chunks_exact(d).all(same).then(|| first.to_vec())
}

impl Gradients {
    /// Wrap `n × d` gradient and Hessian matrices, recording whether
    /// every row has the same Hessian row. The check is one compare per
    /// element; the kernel that writes `h` charges it as flops.
    pub fn new(g: Vec<f32>, h: Vec<f32>, n: usize, d: usize) -> Self {
        assert_eq!(g.len(), n * d, "g must be n × d");
        assert_eq!(h.len(), n * d, "h must be n × d");
        let uniform_h = uniform_row(&h, n, d);
        Gradients {
            g,
            h,
            n,
            d,
            uniform_h,
        }
    }

    /// [`Gradients::new`] with the uniform-Hessian check skipped: the
    /// general `d`-column path whatever the data.
    #[cfg(test)]
    pub(crate) fn general(g: Vec<f32>, h: Vec<f32>, n: usize, d: usize) -> Self {
        on_general_path(|| Self::new(g, h, n, d))
    }

    /// The Hessian row every instance shares, if one does: MSE on every
    /// round, and sigmoid and softmax on round 0, when every row starts
    /// from the base scores.
    pub fn uniform_h(&self) -> Option<&[f32]> {
        self.uniform_h.as_deref()
    }

    /// Gradient row of instance `i`.
    pub fn g_row(&self, i: usize) -> &[f32] {
        &self.g[i * self.d..(i + 1) * self.d]
    }

    /// Hessian row of instance `i`.
    pub fn h_row(&self, i: usize) -> &[f32] {
        &self.h[i * self.d..(i + 1) * self.d]
    }

    /// Sum of g and h over the given instances, per output — the root
    /// node's (G, H) totals.
    pub fn sums(&self, idx: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let d = self.d;
        let mut gs = vec![0.0f64; d];
        let mut hs = vec![0.0f64; d];
        for &i in idx {
            let i = i as usize;
            for k in 0..d {
                gs[k] += self.g[i * d + k] as f64;
                hs[k] += self.h[i * d + k] as f64;
            }
        }
        (gs, hs)
    }
}

/// The `grad_hess` kernel over `rows` instances of `d` outputs: the
/// loss's flops per output plus one compare per element for the
/// uniform-Hessian check, reading scores and targets and writing g and h.
pub(crate) fn grad_hess_cost(rows: usize, d: usize, flops_per_output: f64) -> KernelCost {
    KernelCost::streaming(
        rows as f64 * d as f64 * (flops_per_output + 1.0),
        (rows * d * 16) as f64,
    )
}

/// Evaluate `loss` derivatives for every instance on `device`.
///
/// `scores` and `targets` are row-major `n × d`.
pub fn compute_gradients(
    device: &Device,
    loss: &dyn MultiOutputLoss,
    scores: &[f32],
    targets: &[f32],
    n: usize,
    d: usize,
) -> Gradients {
    assert_eq!(scores.len(), n * d, "scores must be n × d");
    assert_eq!(targets.len(), n * d, "targets must be n × d");
    let mut g = vec![0.0f32; n * d];
    let mut h = vec![0.0f32; n * d];
    g.par_chunks_mut(d)
        .zip(h.par_chunks_mut(d))
        .enumerate()
        .for_each(|(i, (gr, hr))| {
            loss.grad_hess_row(
                &scores[i * d..(i + 1) * d],
                &targets[i * d..(i + 1) * d],
                gr,
                hr,
            );
        });
    device.charge_kernel(
        "grad_hess",
        Phase::Gradient,
        &grad_hess_cost(n, d, loss.flops_per_output()),
    );
    crate::sanitize::trace_grad_hess(device, n, d);
    Gradients::new(g, h, n, d)
}

/// Round an `f32` to bfloat16 precision (keep the upper 16 bits, round
/// to nearest-even on the dropped half).
#[inline]
pub fn bf16_round(x: f32) -> f32 {
    let bits = x.to_bits();
    let rounding = 0x7FFF + ((bits >> 16) & 1);
    f32::from_bits((bits.wrapping_add(rounding)) & 0xFFFF_0000)
}

/// Quantize a gradient set to bfloat16 precision in place (paper
/// motivation: GBDT-MO's gradient storage is `d×` a single-output
/// trainer's; bf16 halves it and the histogram read traffic). Rounding
/// can make distinct Hessian rows equal, so the uniform row is found
/// again from the rounded data, one more compare per element.
pub fn quantize_bf16(device: &Device, grads: &mut Gradients) {
    grads.g.iter_mut().for_each(|v| *v = bf16_round(*v));
    grads.h.iter_mut().for_each(|v| *v = bf16_round(*v));
    grads.uniform_h = uniform_row(&grads.h, grads.n, grads.d);
    device.charge_kernel(
        "quantize_bf16",
        Phase::Gradient,
        &KernelCost::streaming((grads.g.len() * 3) as f64, (grads.g.len() * 2 * 6) as f64),
    );
    crate::sanitize::trace_quantize_bf16(device, grads.g.len());
}

/// Scatter a finished tree's leaf values onto the training scores:
/// `scores[i*d..] += leaf_value(leaf containing i)` for every leaf.
/// This is the incremental ŷ update of §3.1.1.
pub fn update_scores_from_leaves(
    device: &Device,
    scores: &mut [f32],
    d: usize,
    leaf_assignments: &[(Vec<u32>, Vec<f32>)],
) {
    let mut touched = 0usize;
    for (instances, value) in leaf_assignments {
        assert_eq!(value.len(), d, "leaf value must be d-dimensional");
        for &i in instances {
            let base = i as usize * d;
            for k in 0..d {
                scores[base + k] += value[k];
            }
        }
        touched += instances.len();
    }
    device.charge_kernel(
        "update_scores",
        Phase::Predict,
        &KernelCost::streaming(
            (touched * d) as f64,
            // read + write each touched score row, read leaf values once
            (touched * d * 8 + leaf_assignments.len() * d * 4) as f64,
        ),
    );
    crate::sanitize::trace_update_scores(device, d, scores.len() / d.max(1), leaf_assignments);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{MseLoss, SoftmaxLoss};

    #[test]
    fn mse_gradients_match_formula() {
        let device = Device::rtx4090();
        let scores = vec![1.0f32, 0.0, /**/ 0.5, 0.5];
        let targets = vec![0.0f32, 0.0, /**/ 0.5, 1.0];
        let gr = compute_gradients(&device, &MseLoss, &scores, &targets, 2, 2);
        assert_eq!(gr.g, vec![2.0, 0.0, 0.0, -1.0]);
        assert!(gr.h.iter().all(|&x| x == 2.0));
        assert!(device.now_ns() > 0.0);
    }

    #[test]
    fn gradient_rows_accessible() {
        let device = Device::rtx4090();
        let scores = vec![0.0f32; 6];
        let targets = vec![1.0f32; 6];
        let gr = compute_gradients(&device, &MseLoss, &scores, &targets, 2, 3);
        assert_eq!(gr.g_row(1), &[-2.0, -2.0, -2.0]);
        assert_eq!(gr.h_row(0), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn sums_accumulate_selected_instances() {
        let device = Device::rtx4090();
        let scores = vec![1.0f32, 2.0, 3.0, 4.0];
        let targets = vec![0.0f32; 4];
        let gr = compute_gradients(&device, &MseLoss, &scores, &targets, 2, 2);
        let (gs, hs) = gr.sums(&[0, 1]);
        assert_eq!(gs, vec![2.0 + 6.0, 4.0 + 8.0]);
        assert_eq!(hs, vec![4.0, 4.0]);
        let (gs, _) = gr.sums(&[1]);
        assert_eq!(gs, vec![6.0, 8.0]);
    }

    #[test]
    fn sums_width_follows_effective_d() {
        // `sums` (and everything downstream) must size itself from the
        // matrix's own `d`, so a k-column sketch yields k-wide (G, H)
        // totals while the untouched full set still yields d-wide ones
        // — the contract the sketched-round leaf refit relies on.
        use crate::config::OutputSketch;
        use crate::sketch::{apply_sketch, plan_sketch};
        let device = Device::rtx4090();
        let scores = vec![0.5f32; 4 * 6];
        let targets: Vec<f32> = (0..24).map(|i| (i % 3) as f32).collect();
        let full = compute_gradients(&device, &MseLoss, &scores, &targets, 4, 6);
        let plan = plan_sketch(&device, &full, OutputSketch::TopOutputs(2), 17);
        let sketched = apply_sketch(&device, &full, &plan);
        let idx = [0u32, 1, 2, 3];
        let (gf, hf) = full.sums(&idx);
        let (gk, hk) = sketched.sums(&idx);
        assert_eq!((gf.len(), hf.len()), (6, 6));
        assert_eq!((gk.len(), hk.len()), (2, 2));
        // Column selection preserves the selected columns' sums exactly.
        for (j, &gs) in gk.iter().enumerate() {
            assert!(
                gf.iter().any(|&x| (x - gs).abs() < 1e-12),
                "sketched column sum {gs} (col {j}) not found in full sums"
            );
        }
    }

    #[test]
    fn softmax_gradients_parallel_matches_serial() {
        let device = Device::rtx4090();
        let n = 100;
        let d = 5;
        let scores: Vec<f32> = (0..n * d).map(|i| ((i * 31) % 17) as f32 * 0.1).collect();
        let mut targets = vec![0.0f32; n * d];
        for i in 0..n {
            targets[i * d + i % d] = 1.0;
        }
        let gr = compute_gradients(&device, &SoftmaxLoss, &scores, &targets, n, d);
        // Spot-check one row against a direct call.
        let mut g = vec![0.0f32; d];
        let mut h = vec![0.0f32; d];
        SoftmaxLoss.grad_hess_row(
            &scores[7 * d..8 * d],
            &targets[7 * d..8 * d],
            &mut g,
            &mut h,
        );
        assert_eq!(gr.g_row(7), &g[..]);
        assert_eq!(gr.h_row(7), &h[..]);
    }

    #[test]
    fn score_update_applies_leaf_values() {
        let device = Device::rtx4090();
        let mut scores = vec![0.0f32; 8]; // 4 instances × d=2
        let leaves = vec![
            (vec![0u32, 2], vec![1.0f32, -1.0]),
            (vec![1u32, 3], vec![0.5f32, 0.5]),
        ];
        update_scores_from_leaves(&device, &mut scores, 2, &leaves);
        assert_eq!(scores, vec![1.0, -1.0, 0.5, 0.5, 1.0, -1.0, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "scores must be n × d")]
    fn shape_mismatch_panics() {
        let device = Device::rtx4090();
        let _ = compute_gradients(&device, &MseLoss, &[0.0; 3], &[0.0; 4], 2, 2);
    }

    #[test]
    fn mse_and_shared_scores_give_one_hessian_row() {
        let device = Device::rtx4090();
        let targets: Vec<f32> = (0..12).map(|i| i as f32 * 0.3 - 1.0).collect();
        let scores: Vec<f32> = (0..12).map(|i| (i % 5) as f32 * 0.7).collect();
        let mse = compute_gradients(&device, &MseLoss, &scores, &targets, 4, 3);
        assert_eq!(mse.uniform_h(), Some(&[2.0f32, 2.0, 2.0][..]));
        // Softmax from shared scores (round 0), then from scores that
        // differ by row.
        let shared = [0.1f32, -0.4, 0.3].repeat(4);
        let round0 = compute_gradients(&device, &SoftmaxLoss, &shared, &targets, 4, 3);
        assert_eq!(round0.uniform_h(), Some(round0.h_row(0)));
        let later = compute_gradients(&device, &SoftmaxLoss, &scores, &targets, 4, 3);
        assert_eq!(later.uniform_h(), None);
        // Forced onto the general path, nothing is uniform.
        let general = Gradients::general(mse.g.clone(), mse.h.clone(), 4, 3);
        assert_eq!(general.uniform_h(), None);
    }

    #[test]
    fn huber_and_custom_asymmetric_gradients_report_no_uniform_row() {
        use crate::loss::{CustomLoss, HuberLoss};
        let device = Device::rtx4090();
        let scores: Vec<f32> = (0..8).map(|i| i as f32 * 0.25).collect();
        let targets = vec![0.8f32; 8];
        let huber = compute_gradients(&device, &HuberLoss::default(), &scores, &targets, 4, 2);
        assert_eq!(huber.uniform_h(), None);
        // Under-prediction weighs 3×, so the Hessian follows the sign of
        // the residual.
        let asymmetric = CustomLoss::new(
            "asymmetric-mse",
            |scores, targets, g, h| {
                for k in 0..scores.len() {
                    let r = scores[k] - targets[k];
                    let w = if r < 0.0 { 3.0 } else { 1.0 };
                    g[k] = 2.0 * w * r;
                    h[k] = 2.0 * w;
                }
            },
            |_, _| 0.0,
            6.0,
        );
        let custom = compute_gradients(&device, &asymmetric, &scores, &targets, 4, 2);
        assert_eq!(custom.uniform_h(), None);
    }

    #[test]
    fn quantization_refreshes_the_uniform_row() {
        let device = Device::rtx4090();
        // Hessians 1 + 2^-20 and 1 differ in f32 and round to the same
        // bf16 value.
        let h = [1.0f32 + 2f32.powi(-20), 1.0, 1.0, 1.0];
        let mut grads = Gradients::new(vec![0.5; 4], h.to_vec(), 4, 1);
        assert_eq!(grads.uniform_h(), None);
        quantize_bf16(&device, &mut grads);
        assert_eq!(grads.uniform_h(), Some(&[1.0f32][..]));
    }

    #[test]
    fn bf16_rounding_is_close_and_idempotent() {
        for &x in &[0.0f32, 1.0, -1.0, 2.75, 1e-8, -123.456, 65504.0] {
            let r = bf16_round(x);
            if x != 0.0 {
                assert!(
                    ((r - x) / x).abs() < 0.01,
                    "bf16({x}) = {r}: relative error too large"
                );
            }
            assert_eq!(bf16_round(r), r, "rounding must be idempotent");
            // bf16 has at most 8 mantissa bits: low 16 bits clear.
            assert_eq!(r.to_bits() & 0xFFFF, 0);
        }
    }

    #[test]
    fn quantization_preserves_learning_signal() {
        let device = Device::rtx4090();
        let scores = vec![0.3f32, -0.7, 1.1, 0.0];
        let targets = vec![1.0f32, 0.0, 0.5, -0.5];
        let mut grads = compute_gradients(&device, &MseLoss, &scores, &targets, 2, 2);
        let exact = grads.g.clone();
        quantize_bf16(&device, &mut grads);
        for (q, e) in grads.g.iter().zip(&exact) {
            assert!((q - e).abs() <= e.abs() * 0.01 + 1e-6);
            // Signs never flip.
            assert!(q.signum() == e.signum() || *e == 0.0);
        }
    }
}
