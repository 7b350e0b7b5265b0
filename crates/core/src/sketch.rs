//! Gradient sketching on the device (SketchBoost's recipe, brought
//! into the GPU pipeline).
//!
//! The paper shows histogram building dominates GBDT-MO training
//! (67–89 % of total time, Fig. 4) and every histogram kernel scales
//! linearly in the output dimension `d`. SketchBoost (Iosipoi &
//! Vakhrushev, 2022 — the paper's strongest baseline) demonstrates that
//! tree *structure* can be searched on a `k ≪ d` gradient sketch with
//! negligible quality loss. This module reduces the round's `n × d`
//! gradient/Hessian matrix to `n × k` **on the device** (each step a
//! charged kernel), so all downstream histogram, split-search and
//! partition kernels run at effective output dimension `k`; leaf
//! *values* are then refit from the full `d`-dimensional gradients
//! ([`refit_leaves_full_d`]) so predictions stay full-output.
//!
//! The sketch math is kept **bit-for-bit identical** to the CPU-side
//! reference in `crates/baselines::sketchboost::sketch_gradients`
//! (same column-energy accumulation order, same RNG stream, same
//! Box–Muller projection), which lets the differential tests pin the
//! GPU trainer split-for-split against `SketchBoostTrainer`. Only the
//! *charging* differs: instead of one monolithic kernel this module
//! charges the real kernel inventory under [`Phase::Sketch`]:
//!
//! | kernel                  | strategy        | work                         |
//! |-------------------------|-----------------|------------------------------|
//! | `sketch_colnorm`        | TopOutputs      | per-output abs-sum reduction |
//! | `sketch_topk_select`    | TopOutputs      | top-`k` select over `d` keys |
//! | `sketch_sample_cols`    | RandomSampling  | keyed shuffle of `d` columns |
//! | `sketch_projection_gen` | RandomProjection| draw the `d × k` Gaussian    |
//! | `sketch_gather`         | selections      | `n × k` column gather        |
//! | `sketch_projection`     | RandomProjection| GEMM-style `n×d · d×k` pass  |
//!
//! [`refit_leaves_full_d`] afterwards charges one `leaf_refit_full_d`
//! gather-reduce pass under [`Phase::LeafValue`].

use crate::config::{OutputSketch, TrainConfig};
use crate::grad::Gradients;
use crate::grow::GrowResult;
use crate::split::leaf_values;
use gpusim::cost::KernelCost;
use gpusim::{Device, Phase};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Standard-normal sample via Box–Muller (bit-identical to the
/// baselines reference).
fn normal(rng: &mut ChaCha8Rng) -> f32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// The per-tree sketch decision: what the *selection* kernels produced
/// and therefore what a multi-GPU group must broadcast before every
/// device can apply the same sketch locally.
#[derive(Debug, Clone, PartialEq)]
pub enum SketchPlan {
    /// `k ≥ d` with a selection strategy: the sketch is the identity
    /// and nothing is charged or broadcast.
    Identity,
    /// Keep exactly these output columns (sorted ascending).
    Columns(Vec<usize>),
    /// Project rows onto `k` Gaussian directions with this row-major
    /// `d × k` matrix (already scaled by `1/√k`).
    Projection {
        /// Row-major `d × k` projection matrix.
        r: Vec<f32>,
        /// Sketch dimension.
        k: usize,
    },
}

impl SketchPlan {
    /// Effective output dimension after applying this plan to
    /// `d`-dimensional gradients.
    pub fn output_dim(&self, d: usize) -> usize {
        match self {
            SketchPlan::Identity => d,
            SketchPlan::Columns(cols) => cols.len(),
            SketchPlan::Projection { k, .. } => *k,
        }
    }

    /// Bytes a multi-GPU group must broadcast so every device holds the
    /// plan: `k` column indices (4 B each) or the `d × k` projection
    /// matrix (4 B per entry). Identity broadcasts nothing.
    pub fn broadcast_bytes(&self, d: usize) -> f64 {
        match self {
            SketchPlan::Identity => 0.0,
            SketchPlan::Columns(cols) => (cols.len() * 4) as f64,
            SketchPlan::Projection { k, .. } => (d * k * 4) as f64,
        }
    }
}

/// Run the *selection* kernels for `sketch` on `device` and return the
/// plan. Charges `sketch_colnorm` + `sketch_topk_select` (TopOutputs),
/// `sketch_sample_cols` (RandomSampling) or `sketch_projection_gen`
/// (RandomProjection) under [`Phase::Sketch`]. Returns
/// [`SketchPlan::Identity`] (charging nothing) when `k ≥ d` with a
/// selection strategy, mirroring the baselines reference.
pub fn plan_sketch(
    device: &Device,
    grads: &Gradients,
    sketch: OutputSketch,
    seed: u64,
) -> SketchPlan {
    let (n, d) = (grads.n, grads.d);
    if sketch.is_none() {
        return SketchPlan::Identity;
    }
    let k = sketch.effective_dim(d);
    if k == d && !matches!(sketch, OutputSketch::RandomProjection(_)) {
        return SketchPlan::Identity;
    }
    // RNG stream identical to baselines::sketchboost::sketch_gradients:
    // created before the strategy dispatch, first drawn by the shuffle
    // (sampling) or the Gaussian matrix (projection).
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    match sketch {
        OutputSketch::None => SketchPlan::Identity,
        OutputSketch::TopOutputs(_) => {
            // Column energies Σ_i |g_ik|, f64-accumulated in ascending
            // instance order (one block per output column on device).
            let mut energy = vec![0.0f64; d];
            for i in 0..n {
                for (e, &gv) in energy.iter_mut().zip(grads.g_row(i)) {
                    *e += gv.abs() as f64;
                }
            }
            device.charge_kernel(
                "sketch_colnorm",
                Phase::Sketch,
                // Read the n×d gradient plane once, write d energies.
                &KernelCost::streaming((n * d) as f64, (n * d * 4 + d * 8) as f64),
            );
            crate::sanitize::trace_sketch_colnorm(device, n, d);
            let mut order: Vec<usize> = (0..d).collect();
            // `total_cmp` is identical to the reference's float compare
            // here: energies are finite non-negative sums of |g|.
            order.sort_by(|&a, &b| energy[b].total_cmp(&energy[a]).then(a.cmp(&b)));
            let mut cols = order[..k].to_vec();
            cols.sort_unstable();
            device.charge_kernel(
                "sketch_topk_select",
                Phase::Sketch,
                // Key sort over d energies + compaction of k indices.
                &KernelCost {
                    flops: d as f64,
                    dram_bytes: (d * 16 + k * 4) as f64,
                    sort_keys: d as f64,
                    launches: 2.0,
                    ..Default::default()
                },
            );
            SketchPlan::Columns(cols)
        }
        OutputSketch::RandomSampling(_) => {
            let mut all: Vec<usize> = (0..d).collect();
            all.shuffle(&mut rng);
            let mut cols = all[..k].to_vec();
            cols.sort_unstable();
            device.charge_kernel(
                "sketch_sample_cols",
                Phase::Sketch,
                // Device-side keyed shuffle: d random keys, sort, keep k.
                &KernelCost {
                    flops: d as f64,
                    dram_bytes: (d * 12 + k * 4) as f64,
                    sort_keys: d as f64,
                    launches: 1.0,
                    ..Default::default()
                },
            );
            SketchPlan::Columns(cols)
        }
        OutputSketch::RandomProjection(_) => {
            let scale = 1.0 / (k as f32).sqrt();
            let r: Vec<f32> = (0..d * k).map(|_| normal(&mut rng) * scale).collect();
            device.charge_kernel(
                "sketch_projection_gen",
                Phase::Sketch,
                // Box–Muller per entry (~8 flops), write the d×k matrix.
                &KernelCost::streaming((d * k) as f64 * 8.0, (d * k * 4) as f64),
            );
            SketchPlan::Projection { r, k }
        }
    }
}

/// Apply `plan` to `grads` on `device`, producing the sketched `n × k`
/// gradient set. Charges `sketch_gather` (column selection) or
/// `sketch_projection` (GEMM-style pass) under [`Phase::Sketch`];
/// [`SketchPlan::Identity`] clones and charges nothing.
pub fn apply_sketch(device: &Device, grads: &Gradients, plan: &SketchPlan) -> Gradients {
    let (n, d) = (grads.n, grads.d);
    match plan {
        SketchPlan::Identity => grads.clone(),
        SketchPlan::Columns(cols) => {
            let k = cols.len();
            let mut g = vec![0.0f32; n * k];
            let mut h = vec![0.0f32; n * k];
            for i in 0..n {
                let grow = grads.g_row(i);
                let hrow = grads.h_row(i);
                for (j, &c) in cols.iter().enumerate() {
                    g[i * k + j] = grow[c];
                    h[i * k + j] = hrow[c];
                }
            }
            charge_apply(device, n, d, plan);
            crate::sanitize::trace_sketch_gather(device, n, d, cols);
            Gradients::new(g, h, n, k)
        }
        SketchPlan::Projection { r, k } => {
            let k = *k;
            let mut g = vec![0.0f32; n * k];
            // Hessians are not linear in the projection; SketchBoost
            // uses the per-instance mean Hessian for every sketched
            // column (exact for MSE where h is constant).
            let mut h = vec![0.0f32; n * k];
            for i in 0..n {
                let grow = grads.g_row(i);
                let hrow = grads.h_row(i);
                let hmean: f32 = hrow.iter().sum::<f32>() / d as f32;
                for j in 0..k {
                    let mut acc = 0.0f32;
                    for (kk, &gv) in grow.iter().enumerate() {
                        acc += gv * r[kk * k + j];
                    }
                    g[i * k + j] = acc;
                    h[i * k + j] = hmean;
                }
            }
            charge_apply(device, n, d, plan);
            crate::sanitize::trace_sketch_projection(device, n, d, k);
            Gradients::new(g, h, n, k)
        }
    }
}

/// Charge the *apply* kernel of `plan` for an `n × d` gradient set
/// without materializing it — used by a device group to mirror
/// the gather/projection pass on replica devices after the broadcast.
/// Identity charges nothing.
pub fn charge_apply(device: &Device, n: usize, d: usize, plan: &SketchPlan) {
    match plan {
        SketchPlan::Identity => {}
        SketchPlan::Columns(cols) => {
            let k = cols.len();
            device.charge_kernel(
                "sketch_gather",
                Phase::Sketch,
                // Read k gathered columns of g and h, write both n×k
                // planes (checking the Hessians for one uniform row),
                // read the k column indices once.
                &KernelCost::streaming((n * k * 3) as f64, (n * k * 16 + k * 4) as f64),
            );
        }
        SketchPlan::Projection { k, .. } => {
            device.charge_kernel(
                "sketch_projection",
                Phase::Sketch,
                // Multiply-add over n×d×k plus the Hessian mean pass and
                // the uniform-Hessian check; read g and h planes, the
                // d×k matrix, write n×k g/h.
                &KernelCost::streaming(
                    (2 * n * d * k + n * d + n * k) as f64,
                    (n * d * 8 + n * k * 8 + d * k * 4) as f64,
                ),
            );
        }
    }
}

/// Replace a sketch-grown tree's `k`-dimensional leaves with the
/// optimal full-`d` values `−G/(H+λ)·lr` of the complete gradients —
/// one gather-reduce pass per leaf (SketchBoost's recipe), charged as
/// `leaf_refit_full_d` under [`Phase::LeafValue`]. Node indices are
/// preserved and `grown.leaf_assignments` is rewritten in place with
/// the refit `d`-dimensional values, so the incremental score update
/// and leaf-routing prediction both see full-output leaves.
pub fn refit_leaves_full_d(
    device: &Device,
    grown: &mut GrowResult,
    full: &Gradients,
    config: &TrainConfig,
) {
    let d = full.d;
    // BTreeMap keeps node→value association in sorted node order; with a
    // HashMap here, any future iteration over `values` would visit leaves in
    // a run-dependent order and break the repo's bit-identity guarantees.
    let mut values: BTreeMap<usize, Vec<f32>> = grown
        .leaf_assignments
        .iter()
        .zip(&grown.leaf_nodes)
        .map(|((instances, _), &node)| {
            let (g, h) = full.sums(instances);
            (
                node,
                leaf_values(&g, &h, config.lambda, config.learning_rate),
            )
        })
        .collect();
    let tree = grown.tree.with_leaf_values(d, |node| {
        values.remove(&node).unwrap_or_else(|| vec![0.0; d])
    });
    grown.tree = tree;
    for ((_, v), &node) in grown.leaf_assignments.iter_mut().zip(&grown.leaf_nodes) {
        *v = grown.tree.leaf_value(node).to_vec();
    }
    let touched: usize = grown.leaf_assignments.iter().map(|(i, _)| i.len()).sum();
    device.charge_kernel(
        "leaf_refit_full_d",
        Phase::LeafValue,
        // Gather-reduce g and h over every resident instance × output,
        // then one divide per (leaf, output).
        &KernelCost::streaming((touched * d * 2) as f64, (touched * d * 8) as f64),
    );
    crate::sanitize::trace_leaf_refit(device, full.n, d, &grown.leaf_assignments);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads(n: usize, d: usize) -> Gradients {
        Gradients::new(
            (0..n * d).map(|i| ((i * 37 % 23) as f32) - 11.0).collect(),
            (0..n * d).map(|i| 1.0 + (i % 5) as f32 * 0.25).collect(),
            n,
            d,
        )
    }

    #[test]
    fn selection_plans_pick_k_sorted_columns() {
        let device = Device::rtx4090();
        let gr = grads(50, 8);
        for s in [OutputSketch::TopOutputs(3), OutputSketch::RandomSampling(3)] {
            let plan = plan_sketch(&device, &gr, s, 7);
            let SketchPlan::Columns(cols) = &plan else {
                panic!("{s:?} must select columns");
            };
            assert_eq!(cols.len(), 3);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            assert!(cols.iter().all(|&c| c < 8));
            let sk = apply_sketch(&device, &gr, &plan);
            assert_eq!((sk.n, sk.d), (50, 3));
            for i in 0..50 {
                for (j, &c) in cols.iter().enumerate() {
                    assert_eq!(sk.g[i * 3 + j].to_bits(), gr.g_row(i)[c].to_bits());
                    assert_eq!(sk.h[i * 3 + j].to_bits(), gr.h_row(i)[c].to_bits());
                }
            }
        }
    }

    #[test]
    fn top_outputs_keeps_highest_energy_columns() {
        let device = Device::rtx4090();
        let n = 20;
        let d = 4;
        let mut g = vec![0.0f32; n * d];
        for i in 0..n {
            g[i * d] = 0.01;
            g[i * d + 1] = 5.0;
            g[i * d + 3] = 100.0;
        }
        let gr = Gradients::new(g, vec![1.0; n * d], n, d);
        let plan = plan_sketch(&device, &gr, OutputSketch::TopOutputs(2), 0);
        assert_eq!(plan, SketchPlan::Columns(vec![1, 3]));
    }

    #[test]
    fn identity_when_k_covers_d_for_selection() {
        let device = Device::rtx4090();
        let gr = grads(10, 4);
        let before = device.now_ns();
        for s in [
            OutputSketch::TopOutputs(4),
            OutputSketch::TopOutputs(9),
            OutputSketch::RandomSampling(4),
            OutputSketch::None,
        ] {
            let plan = plan_sketch(&device, &gr, s, 1);
            assert_eq!(plan, SketchPlan::Identity);
            let sk = apply_sketch(&device, &gr, &plan);
            assert_eq!(sk.g, gr.g);
            assert_eq!(sk.h, gr.h);
        }
        assert_eq!(device.now_ns(), before, "identity must charge nothing");
    }

    #[test]
    fn projection_projects_even_at_full_width() {
        let device = Device::rtx4090();
        let gr = grads(30, 4);
        let plan = plan_sketch(&device, &gr, OutputSketch::RandomProjection(4), 3);
        assert!(matches!(plan, SketchPlan::Projection { k: 4, .. }));
        let sk = apply_sketch(&device, &gr, &plan);
        assert_eq!((sk.n, sk.d), (30, 4));
        // Hessian columns all equal the per-instance mean.
        for i in 0..30 {
            let hmean: f32 = gr.h_row(i).iter().sum::<f32>() / 4.0;
            for j in 0..4 {
                assert_eq!(sk.h[i * 4 + j].to_bits(), hmean.to_bits());
            }
        }
    }

    #[test]
    fn sketch_charges_flow_to_the_sketch_phase() {
        for s in [
            OutputSketch::TopOutputs(2),
            OutputSketch::RandomSampling(2),
            OutputSketch::RandomProjection(2),
        ] {
            let device = Device::rtx4090();
            let gr = grads(40, 6);
            let _ = apply_sketch(&device, &gr, &plan_sketch(&device, &gr, s, 5));
            let sum = device.summary();
            let sk_ns = sum.by_phase.get(&Phase::Sketch).copied().unwrap_or(0.0);
            assert!(sk_ns > 0.0, "{s:?} charged nothing to Phase::Sketch");
            assert!((sk_ns - sum.total_ns).abs() < 1e-9, "{s:?} leaked phases");
        }
    }

    #[test]
    fn broadcast_bytes_match_plan_payload() {
        assert_eq!(SketchPlan::Identity.broadcast_bytes(16), 0.0);
        assert_eq!(SketchPlan::Columns(vec![0, 3, 5]).broadcast_bytes(16), 12.0);
        let p = SketchPlan::Projection {
            r: vec![0.0; 32],
            k: 2,
        };
        assert_eq!(p.broadcast_bytes(16), 128.0);
        assert_eq!(p.output_dim(16), 2);
        assert_eq!(SketchPlan::Identity.output_dim(16), 16);
    }

    #[test]
    fn same_seed_same_plan_different_seed_differs() {
        let device = Device::rtx4090();
        let gr = grads(60, 12);
        let a = plan_sketch(&device, &gr, OutputSketch::RandomSampling(4), 9);
        let b = plan_sketch(&device, &gr, OutputSketch::RandomSampling(4), 9);
        assert_eq!(a, b);
        let c: Vec<SketchPlan> = (0..8)
            .map(|s| plan_sketch(&device, &gr, OutputSketch::RandomSampling(4), s))
            .collect();
        assert!(c.iter().any(|p| *p != a), "seed must matter");
    }
}
