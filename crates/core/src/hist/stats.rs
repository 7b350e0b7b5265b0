//! Access-pattern statistics shared by the histogram cost models.
//!
//! `measure` derives contention from the *actual* bins and instance
//! indices (sampled warps × sampled features, deterministically);
//! `expect` produces the closed-form estimate the adaptive selector uses
//! before any kernel runs — predicting cost must not cost a kernel.
//!
//! `measure` runs on the host once per histogram charge, up to
//! 64 warps × 8 features per node, so it counts without sorting or
//! allocating per sampled warp:
//! - transactions: each sampled warp's instance ids go through
//!   [`sectors_touched`] (a stack-buffer count) once as 1-byte reads and
//!   once rounded down to their packed 4-byte word, reusing one lane
//!   buffer per call;
//! - bin multiplicity: bin ids are `u8`, so a warp's distinct bins are
//!   the set bits of a 256-bit set (`[u64; 4]`); its replay excess is
//!   `lanes − distinct`, and it collides when the excess is not zero.
//!   On the sparsity-aware path the aggregated warps hold non-zero
//!   lanes only: each sampled warp's are gathered from its first lane
//!   on, in a scan of bounded length.
//!
//! The counts are the integers a sort-and-dedup count gives, so the
//! statistics are bit-identical to that reference (pinned by
//! `measure_is_bit_identical_to_the_sort_based_reference`).
//!
//! [`atomic_updates`] turns the statistics into the update stream of an
//! atomic kernel (gmem or smem): one atomic per lane with its collisions
//! replayed, or, with the warp-level optimization, one atomic per
//! distinct bin per warp after a `__match_any_sync` grouping and a
//! shuffle reduction in the warps that collide.

use super::HistContext;
use gpusim::warp::{sectors_touched, WarpSampler};

/// Feature-sampling cap for measured statistics.
const MAX_SAMPLED_FEATURES: usize = 8;
/// Warp-sampling cap per sampled feature.
const MAX_SAMPLED_WARPS: usize = 64;
/// Lanes scanned for one warp of non-zero lanes on the sparsity-aware
/// path: a full warp wherever a feature's non-zero share in the node
/// is at least 1/32.
const MAX_NONZERO_SCAN: usize = 1024;

/// Contention/traffic statistics of one node-histogram launch,
/// already scaled to the full (instances × features) workload. Every
/// count is **per output-pass**: multiply by `d + hess_cols` for the
/// (g, h) update stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContentionStats {
    /// Total excess (replayed) bin-address collisions across all
    /// (warp, feature) atomic groups.
    pub replay_excess: f64,
    /// Distinct bins summed over all (warp, feature) groups: the
    /// atomics left once each warp aggregates its same-bin lanes. On
    /// the sparsity-aware path the groups are the CSC kernel's warps,
    /// of non-zero lanes only.
    pub distinct_bins: f64,
    /// (warp, feature) groups in which at least two lanes share a bin:
    /// the warps that reduce with shuffles before their atomics. Over
    /// the same groups as `distinct_bins`.
    pub colliding_warps: f64,
    /// Global-memory transactions needed to fetch bin IDs, unpacked
    /// (1-byte lanes).
    pub bin_transactions_unpacked: f64,
    /// Same, with 4-per-word bin packing (§3.4.1).
    pub bin_transactions_packed: f64,
}

/// Measure statistics from the real instance list and bin columns.
pub fn measure(ctx: &HistContext<'_>, idx: &[u32]) -> ContentionStats {
    let nn = idx.len();
    let mf = ctx.features.len();
    if nn == 0 || mf == 0 {
        return ContentionStats::default();
    }
    let p = &ctx.device.model().params;
    let warp = p.warp_size as usize;
    let total_warps = nn.div_ceil(warp);
    let sampler = WarpSampler::with_cap(total_warps, MAX_SAMPLED_WARPS);
    let lanes = |w: usize| &idx[w * warp..(w * warp + warp).min(nn)];

    // --- transactions: depend only on the index pattern, not the feature.
    let mut trans_unpacked = 0usize;
    let mut trans_packed = 0usize;
    let mut addrs: Vec<u64> = Vec::with_capacity(warp);
    for w in sampler.indices() {
        addrs.clear();
        addrs.extend(lanes(w).iter().map(|&i| i as u64));
        trans_unpacked += sectors_touched(&addrs, 1, p.sector_bytes);
        // Packed: each lane reads the whole word holding its bin.
        addrs.iter_mut().for_each(|a| *a = (*a / 4) * 4);
        trans_packed += sectors_touched(&addrs, 4, p.sector_bytes);
    }
    let warp_scale = sampler.scale();

    // --- bin multiplicity: sample features and reuse the warp sample.
    // On the sparsity-aware path the aggregated kernel's warps hold a
    // feature's non-zero lanes only, so its distinct bins and collisions
    // are counted over those, from each sampled warp's first lane on.
    let sparse_aware = ctx.opts.sparse_aware;
    let f_stride = mf.div_ceil(MAX_SAMPLED_FEATURES).max(1);
    let mut excess = 0u64;
    let mut distinct_bins = 0u64;
    let mut colliding = 0u64;
    let mut sampled_features = 0usize;
    let mut fi = 0;
    while fi < mf {
        sampled_features += 1;
        let f = ctx.features[fi] as usize;
        let col = ctx.data.bins.col(f);
        let zero_bin = ctx.data.sparse.zero_bin(f);
        for w in sampler.indices() {
            let warp_idx = lanes(w);
            // Every lane beyond a bin's first replays its atomic.
            let distinct = distinct_bins_of(warp_idx.iter().map(|&i| col[i as usize]));
            let lane_excess = warp_idx.len() as u64 - distinct;
            excess += lane_excess;
            let (distinct, lanes) = if sparse_aware {
                nonzero_warp(col, idx, w * warp, zero_bin, warp)
            } else {
                (distinct, warp_idx.len() as u64)
            };
            distinct_bins += distinct;
            colliding += u64::from(lanes > distinct);
        }
        fi += f_stride;
    }
    let feature_scale = mf as f64 / sampled_features as f64;
    // The aggregated groups: the node's warps, or on the sparsity-aware
    // path the warps of its non-zero lanes.
    let group_scale = if sparse_aware {
        nonzero_warps(ctx, nn).0 / sampler.indices().count() as f64
    } else {
        warp_scale
    };

    ContentionStats {
        replay_excess: excess as f64 * warp_scale * feature_scale,
        distinct_bins: distinct_bins as f64 * group_scale * feature_scale,
        colliding_warps: colliding as f64 * group_scale * feature_scale,
        bin_transactions_unpacked: trans_unpacked as f64 * warp_scale * mf as f64,
        bin_transactions_packed: trans_packed as f64 * warp_scale * mf as f64,
    }
}

/// Distinct values among a warp's bin ids. Bin ids are `u8`, so they
/// are the set bits of a 256-bit set.
fn distinct_bins_of(bins: impl Iterator<Item = u8>) -> u64 {
    let mut bin_set = [0u64; 4];
    for b in bins {
        bin_set[(b >> 6) as usize] |= 1 << (b & 63);
    }
    bin_set.iter().map(|word| word.count_ones() as u64).sum()
}

/// One warp of the sparsity-aware kernel, which visits a feature's
/// non-zero entries only: the first `warp` lanes of `idx` whose bin is
/// not `zero_bin`, from `start` on and wrapping around, scanning at most
/// [`MAX_NONZERO_SCAN`] lanes. Returns its distinct bins and its lanes.
fn nonzero_warp(col: &[u8], idx: &[u32], start: usize, zero_bin: u8, warp: usize) -> (u64, u64) {
    let mut lanes = 0;
    let distinct = distinct_bins_of(
        idx[start..]
            .iter()
            .chain(&idx[..start])
            .take(MAX_NONZERO_SCAN)
            .map(|&i| col[i as usize])
            .filter(|&b| b != zero_bin)
            .take(warp)
            .inspect(|_| lanes += 1),
    );
    (distinct, lanes)
}

/// The sparsity-aware kernel's warps per feature over a node of `nn`
/// instances, and the lanes of each: its `nn × density` non-zero lanes
/// in full warps, or one warp of them all when they fill none.
fn nonzero_warps(ctx: &HistContext<'_>, nn: usize) -> (f64, f64) {
    let warp = ctx.device.model().params.warp_size as f64;
    let lanes = nn as f64 * super::density_factor(ctx);
    ((lanes / warp).ceil(), lanes.min(warp))
}

/// Closed-form expectation of the same statistics, used by the adaptive
/// selector. Assumes: bins roughly uniform except a skew mass equal to
/// the built columns' zero fraction landing in one bin; instance indices
/// partially scattered (half-coalesced) after the first splits.
pub fn expect(ctx: &HistContext<'_>, node_size: usize) -> ContentionStats {
    let nn = node_size as f64;
    let mf = ctx.features.len() as f64;
    if nn == 0.0 || mf == 0.0 {
        return ContentionStats::default();
    }
    let p = &ctx.device.model().params;
    let w = p.warp_size as f64;
    let bins = ctx.bins as f64;
    let warps = (nn / w).ceil();

    // Expected distinct bins among w uniform draws over `bins`.
    let uniform_distinct = bins * (1.0 - (1.0 - 1.0 / bins).powf(w));
    let uniform_excess = (w - uniform_distinct).max(0.0);
    // Skew: a zero-heavy feature funnels `sparsity` of each warp into
    // one bin; the zero fraction is that of the columns built.
    let sparsity = 1.0 - super::built_density(ctx);
    let skew_excess = (w * sparsity - 1.0).max(0.0);
    let excess_per_warp = uniform_excess.max(skew_excess).min(w - 1.0);

    // Transactions: a warp reading w consecutive-ish indices spans about
    // half-scattered sectors mid-training.
    let sector = p.sector_bytes as f64;
    let trans_unpacked_per_warp = (w / sector).max(1.0) * 8.0; // ~8 sectors when scattered
    let trans_packed_per_warp = trans_unpacked_per_warp / 2.0;

    // Per warp of `lanes` lanes, each landing in the zero bin with
    // probability `p0` (the zero fraction, or `1/bins` when that is
    // larger) and in each of the other bins uniformly: its expected
    // distinct bins, `Σ_b 1 − (1 − p_b)^lanes`, and the chance that two
    // lanes share a bin, one minus that of at most one zero lane with
    // the rest in distinct non-zero bins. The sparsity-aware kernel's
    // lanes are all non-zero: `p0 = 0`.
    let p0 = if ctx.opts.sparse_aware {
        0.0
    } else {
        sparsity.max(1.0 / bins)
    };
    let rest = (bins - 1.0).max(1.0);
    let per_warp = |lanes: f64| -> (f64, f64) {
        if lanes == 0.0 {
            return (0.0, 0.0);
        }
        let q = (1.0 - p0) / rest;
        let distinct = 1.0 - (1.0 - p0).powf(lanes) + rest * (1.0 - (1.0 - q).powf(lanes));
        let apart = |n: f64| -> f64 {
            (0..n as usize)
                .map(|i| (1.0 - i as f64 / rest).max(0.0))
                .product()
        };
        let no_zero = (1.0 - p0).powf(lanes) * apart(lanes);
        let one_zero = lanes * p0 * (1.0 - p0).powf(lanes - 1.0) * apart(lanes - 1.0);
        (distinct, 1.0 - no_zero - one_zero)
    };
    let (distinct_bins, colliding_warps) = if ctx.opts.sparse_aware {
        let (groups, lanes) = nonzero_warps(ctx, node_size);
        let (distinct, collide) = per_warp(lanes);
        (groups * distinct, groups * collide)
    } else {
        // Full warps, then the tail warp of the remaining lanes.
        let full = (nn / w).floor();
        let (full_distinct, full_collide) = per_warp(w);
        let (tail_distinct, tail_collide) = per_warp(nn - full * w);
        (
            full * full_distinct + tail_distinct,
            full * full_collide + tail_collide,
        )
    };

    ContentionStats {
        replay_excess: excess_per_warp * warps * mf,
        distinct_bins: distinct_bins * mf,
        colliding_warps: colliding_warps * mf,
        bin_transactions_unpacked: trans_unpacked_per_warp * warps * mf,
        bin_transactions_packed: trans_packed_per_warp * warps * mf,
    }
}

/// The update stream of one atomic histogram build (gmem or smem) of
/// `nn` instances, per [`atomic_updates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicUpdates {
    /// Atomic adds issued.
    pub atomics: f64,
    /// Extra adds replayed because lanes of one warp hit one address.
    pub replays: f64,
    /// Warp-wide match and shuffle instructions.
    pub shuffles: f64,
}

/// The atomic updates of a build of `nn` instances with statistics `s`,
/// over every (gradient, Hessian or count) column, by a kernel that
/// reads each bin id in `passes` launches (smem tile passes, each over
/// its own columns).
///
/// Without the warp-level optimization each (instance, feature) pair
/// adds its own value into every column, and each lane beyond the first
/// on a bin replays its add. With it (§3.4.1), a warp groups its lanes
/// by bin once per feature and pass (`__match_any_sync`, priced as one
/// shuffle). A warp with no shared bin takes a warp-uniform branch and
/// adds as is; a warp with one reduces each group's values with
/// `log2(warp)` shuffle-add steps per column. Either way only one lane
/// per group adds, so the atomics are the distinct bins per warp ×
/// columns and nothing replays.
///
/// The sparsity-aware path visits only a `density` share of the pairs,
/// and the pairs and matches scale with it; `s` counts its distinct
/// bins and colliding warps over its own warps of non-zero lanes.
pub fn atomic_updates(
    ctx: &HistContext<'_>,
    nn: usize,
    s: &ContentionStats,
    passes: f64,
) -> AtomicUpdates {
    let mf = ctx.features.len() as f64;
    let density = super::density_factor(ctx);
    let cols = (ctx.d() + ctx.hess_cols()) as f64;
    if !ctx.opts.warp_packing {
        let pairs = nn as f64 * mf * density;
        return AtomicUpdates {
            atomics: pairs * cols,
            replays: s.replay_excess * cols * density,
            shuffles: 0.0,
        };
    }
    let warp = ctx.device.model().params.warp_size as usize;
    let matches = nn.div_ceil(warp) as f64 * mf * passes;
    let reduce_steps = (warp as f64).log2();
    AtomicUpdates {
        atomics: s.distinct_bins * cols,
        replays: 0.0,
        shuffles: matches * density + s.colliding_warps * cols * reduce_steps,
    }
}

/// Effective DRAM bytes for the gradient rows a histogram pass reads:
/// each of the node's `nn` rows (`d` gradients and, off the
/// uniform-Hessian path, `d` Hessians, of [`elem_bytes`] each) is
/// touched once per feature, with L2 capturing most cross-feature reuse.
pub fn gh_bytes(ctx: &HistContext<'_>, nn: usize) -> f64 {
    let mf = ctx.features.len();
    let d = ctx.d();
    let cols = if ctx.grads.uniform_h().is_some() {
        d
    } else {
        2 * d
    };
    let base = nn as f64 * cols as f64 * elem_bytes(ctx);
    base * (1.0 + (mf.saturating_sub(1)) as f64 * (1.0 - super::GH_L2_HIT))
}

/// Bytes of one gradient or Hessian value under the context's gradient
/// precision: 4 for f32, 2 bf16-quantized.
pub fn elem_bytes(ctx: &HistContext<'_>) -> f64 {
    if ctx.opts.quantized_gradients {
        2.0
    } else {
        4.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fixture;
    use super::super::HistContext;
    use super::*;
    use crate::config::HistOptions;
    use crate::grad::Gradients;
    use gbdt_data::BinnedDataset;
    use gpusim::Device;

    /// `measure` counted by sorting: every sampled warp's addresses and
    /// bins copied, sorted and deduplicated. Kept only as the reference
    /// the allocation-free counts must equal.
    fn measure_by_sorting(ctx: &HistContext<'_>, idx: &[u32]) -> ContentionStats {
        fn distinct_sorted(addrs: &[u64]) -> u64 {
            let mut v = addrs.to_vec();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        }
        fn sectors(addrs: &[u64], access_bytes: u64, sector_bytes: u64) -> usize {
            let mut s = Vec::new();
            for &a in addrs {
                s.push(a / sector_bytes);
                s.push((a + access_bytes - 1) / sector_bytes);
            }
            distinct_sorted(&s) as usize
        }
        let nn = idx.len();
        let mf = ctx.features.len();
        if nn == 0 || mf == 0 {
            return ContentionStats::default();
        }
        let p = &ctx.device.model().params;
        let sb = p.sector_bytes as u64;
        let warp = p.warp_size as usize;
        let sampler = WarpSampler::with_cap(nn.div_ceil(warp), MAX_SAMPLED_WARPS);
        let (mut trans_unpacked, mut trans_packed) = (0usize, 0usize);
        for w in sampler.indices() {
            let addrs: Vec<u64> = idx[w * warp..(w * warp + warp).min(nn)]
                .iter()
                .map(|&i| i as u64)
                .collect();
            trans_unpacked += sectors(&addrs, 1, sb);
            let packed: Vec<u64> = addrs.iter().map(|a| (a / 4) * 4).collect();
            trans_packed += sectors(&packed, 4, sb);
        }
        let f_stride = mf.div_ceil(MAX_SAMPLED_FEATURES).max(1);
        let (mut excess, mut distinct_bins, mut colliding) = (0u64, 0u64, 0u64);
        let mut sampled_features = 0usize;
        for fi in (0..mf).step_by(f_stride) {
            sampled_features += 1;
            let col = ctx.data.bins.col(ctx.features[fi] as usize);
            for w in sampler.indices() {
                let bin_addrs: Vec<u64> = idx[w * warp..(w * warp + warp).min(nn)]
                    .iter()
                    .map(|&i| col[i as usize] as u64)
                    .collect();
                let distinct = distinct_sorted(&bin_addrs);
                excess += bin_addrs.len() as u64 - distinct;
                distinct_bins += distinct;
                colliding += u64::from(distinct < bin_addrs.len() as u64);
            }
        }
        let warp_scale = sampler.scale();
        let feature_scale = mf as f64 / sampled_features as f64;
        ContentionStats {
            replay_excess: excess as f64 * warp_scale * feature_scale,
            distinct_bins: distinct_bins as f64 * warp_scale * feature_scale,
            colliding_warps: colliding as f64 * warp_scale * feature_scale,
            bin_transactions_unpacked: trans_unpacked as f64 * warp_scale * mf as f64,
            bin_transactions_packed: trans_packed as f64 * warp_scale * mf as f64,
        }
    }

    #[test]
    fn measure_is_bit_identical_to_the_sort_based_reference() {
        use super::super::test_support::mixed_gradients;
        use gbdt_data::synth::{make_classification, ClassificationSpec};
        let n = 6500;
        let ds = make_classification(&ClassificationSpec {
            instances: n,
            features: 13,
            classes: 3,
            informative: 6,
            sparsity: 0.4,
            seed: 41,
            ..Default::default()
        });
        let grads = mixed_gradients(n, 3);
        let device = Device::rtx4090();
        // Under the 64-warp cap: 1000 ids whose last warp has 8 lanes.
        let contiguous: Vec<u32> = (0..1000).collect();
        // Scattered post-partition pattern; 1447 = 45·32 + 7 gives a
        // 7-lane tail warp.
        let scattered: Vec<u32> = (0..n as u32)
            .filter(|i| (i.wrapping_mul(2_654_435_761) >> 7) % 4 == 1)
            .take(1447)
            .collect();
        // Over the cap: 127 warps sample with stride 2, so the sample
        // ends on the 7-lane tail warp (126·32 + 7 = 4039 lanes).
        let over_cap: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 0).take(4039).collect();
        // Unsorted instance order.
        let shuffled: Vec<u32> = (0..2000u32).map(|i| (i * 1_237) % 2000).collect();
        assert_eq!(scattered.len(), 1447);
        assert_eq!(over_cap.len(), 4039);
        let all: Vec<u32> = (0..13).collect();
        let subset: Vec<u32> = vec![10, 3, 7, 0, 12, 5, 1, 9, 2, 11, 4];
        let narrow: Vec<u32> = vec![6, 2];
        for max_bins in [16usize, 64, 256] {
            let data = BinnedDataset::build(ds.features(), max_bins);
            for features in [&all, &subset, &narrow] {
                let ctx = HistContext {
                    device: &device,
                    data: &data,
                    grads: &grads,
                    features,
                    bins: max_bins,
                    opts: HistOptions::default(),
                };
                for idx in [&contiguous, &scattered, &over_cap, &shuffled] {
                    let (got, want) = (measure(&ctx, idx), measure_by_sorting(&ctx, idx));
                    let case = format!("bins={max_bins} features={features:?} nn={}", idx.len());
                    assert_eq!(
                        got.replay_excess.to_bits(),
                        want.replay_excess.to_bits(),
                        "{case}"
                    );
                    assert_eq!(
                        got.bin_transactions_unpacked.to_bits(),
                        want.bin_transactions_unpacked.to_bits(),
                        "{case}"
                    );
                    assert_eq!(
                        got.bin_transactions_packed.to_bits(),
                        want.bin_transactions_packed.to_bits(),
                        "{case}"
                    );
                    assert_eq!(
                        got.distinct_bins.to_bits(),
                        want.distinct_bins.to_bits(),
                        "{case}"
                    );
                    assert_eq!(
                        got.colliding_warps.to_bits(),
                        want.colliding_warps.to_bits(),
                        "{case}"
                    );
                }
            }
            if max_bins == 256 {
                // The last word of the 256-bit set is exercised.
                let col = data.bins.col(subset[0] as usize);
                assert!(contiguous.iter().any(|&i| col[i as usize] == 255));
            }
        }
    }

    #[test]
    fn measured_stats_scale_with_node_size() {
        let (_, data, grads) = fixture(2000, 8, 3, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let small: Vec<u32> = (0..200).collect();
        let large: Vec<u32> = (0..2000).collect();
        let s = measure(&ctx, &small);
        let l = measure(&ctx, &large);
        assert!(l.replay_excess > s.replay_excess);
        assert!(l.bin_transactions_unpacked > s.bin_transactions_unpacked);
    }

    #[test]
    fn packing_reduces_transactions() {
        let (_, data, grads) = fixture(1000, 4, 2, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..4).collect();
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        // Scattered index list (post-partition pattern).
        let idx: Vec<u32> = (0..1000).filter(|i| i % 3 == 0).collect();
        let s = measure(&ctx, &idx);
        assert!(
            s.bin_transactions_packed <= s.bin_transactions_unpacked,
            "packed {} vs unpacked {}",
            s.bin_transactions_packed,
            s.bin_transactions_unpacked
        );
    }

    #[test]
    fn expected_stats_are_finite_and_monotone() {
        let (_, data, grads) = fixture(500, 6, 2, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let a = expect(&ctx, 100);
        let b = expect(&ctx, 1000);
        assert!(b.replay_excess > a.replay_excess);
        assert!(a.replay_excess.is_finite() && a.replay_excess >= 0.0);
        let zero = expect(&ctx, 0);
        assert_eq!(zero.replay_excess, 0.0);
    }

    #[test]
    fn gh_bytes_grow_with_features_but_sublinearly() {
        let (_, data, uniform) = fixture(1000, 100, 10, 1);
        let general = Gradients::general(uniform.g.clone(), uniform.h.clone(), 1000, 10);
        let device = Device::rtx4090();
        let all: Vec<u32> = (0..100).collect();
        let bytes = |grads: &Gradients, features: &[u32], quantized_gradients: bool| {
            let opts = HistOptions {
                quantized_gradients,
                ..HistOptions::default()
            };
            let ctx = HistContext {
                device: &device,
                data: &data,
                grads,
                features,
                bins: 32,
                opts,
            };
            gh_bytes(&ctx, 1000)
        };
        let one = bytes(&general, &all[..1], false);
        let many = bytes(&general, &all, false);
        assert!(many > one);
        assert!(many < one * 100.0, "L2 reuse must dampen the growth");
        // Quantized values halve the traffic, and so does reading the
        // gradients alone when every row shares its Hessians.
        assert_eq!(bytes(&general, &all, true), many / 2.0);
        assert_eq!(bytes(&uniform, &all, false), many / 2.0);
    }

    #[test]
    fn contention_stats_are_per_output_pass_invariant_under_sketching() {
        // Replay/traffic statistics describe the bin-access pattern only
        // (per output-pass, see `ContentionStats::replay_excess`), so a
        // k-column gradient sketch must leave them bit-identical — the
        // whole sketch saving enters through the `d + hc → k + hc`
        // multiplier in the per-method cost formulas, not through
        // contention.
        use crate::config::OutputSketch;
        use crate::sketch::{apply_sketch, plan_sketch};
        let (_, data, grads) = fixture(1500, 6, 12, 9);
        let device = Device::rtx4090();
        let plan = plan_sketch(&device, &grads, OutputSketch::RandomSampling(3), 13);
        let sketched = apply_sketch(&device, &grads, &plan);
        assert_eq!(sketched.d, 3);
        let features: Vec<u32> = (0..6).collect();
        let full = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let thin = HistContext {
            device: &device,
            data: &data,
            grads: &sketched,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let idx: Vec<u32> = (0..1500).collect();
        let (mf, mt) = (measure(&full, &idx), measure(&thin, &idx));
        assert_eq!(mf.replay_excess.to_bits(), mt.replay_excess.to_bits());
        assert_eq!(
            mf.bin_transactions_unpacked.to_bits(),
            mt.bin_transactions_unpacked.to_bits()
        );
        assert_eq!(
            mf.bin_transactions_packed.to_bits(),
            mt.bin_transactions_packed.to_bits()
        );
        assert_eq!(mf.distinct_bins.to_bits(), mt.distinct_bins.to_bits());
        assert_eq!(mf.colliding_warps.to_bits(), mt.colliding_warps.to_bits());
        let (ef, et) = (expect(&full, 1500), expect(&thin, 1500));
        assert_eq!(ef.replay_excess.to_bits(), et.replay_excess.to_bits());
    }

    /// A fixture context over `features` at `bins`, with or without the
    /// warp-level optimization.
    fn ctx_with<'a>(
        device: &'a Device,
        data: &'a BinnedDataset,
        grads: &'a Gradients,
        features: &'a [u32],
        bins: usize,
        opts: HistOptions,
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins,
            opts,
        }
    }

    fn packing(on: bool) -> HistOptions {
        HistOptions {
            warp_packing: on,
            ..HistOptions::default()
        }
    }

    /// One warp whose 32 lanes all hit one bin: unpacked, 31 lanes
    /// replay in every column; aggregated, the warp matches once,
    /// reduces each column in `log2(32) = 5` shuffle steps and its
    /// leader issues one atomic per column, with nothing replayed.
    #[test]
    fn aggregation_one_bin_warp_charges_no_replays_and_one_atomic_per_column() {
        let (_, data, grads) = fixture(2000, 4, 3, 5);
        let col = data.bins.col(0);
        // The zero bin of a 40 %-sparse column: its most frequent.
        let mut hits = [0usize; 256];
        col.iter().for_each(|&b| hits[b as usize] += 1);
        let zero = (0..=255u8).max_by_key(|&b| hits[b as usize]).unwrap();
        let idx: Vec<u32> = (0..2000u32)
            .filter(|&i| col[i as usize] == zero)
            .take(32)
            .collect();
        assert_eq!(idx.len(), 32);
        let device = Device::rtx4090();
        let features = [0u32];
        let cols = (3 + 1) as f64; // d gradients and the uniform path's count
        let ctx = ctx_with(&device, &data, &grads, &features, 32, packing(true));
        let s = measure(&ctx, &idx);
        assert_eq!(
            (s.replay_excess, s.distinct_bins, s.colliding_warps),
            (31.0, 1.0, 1.0)
        );
        let aggregated = atomic_updates(&ctx, idx.len(), &s, 1.0);
        assert_eq!(
            aggregated,
            AtomicUpdates {
                atomics: cols,
                replays: 0.0,
                shuffles: 1.0 + 5.0 * cols,
            }
        );
        let gmem = super::super::gmem::cost_descriptor(&ctx, idx.len(), &s);
        assert_eq!((gmem.gmem_atomics, gmem.gmem_atomic_replays), (cols, 0.0));
        let smem = super::super::smem::cost_descriptor(&ctx, idx.len(), &s);
        assert_eq!((smem.smem_atomics, smem.smem_atomic_replays), (cols, 0.0));
        let unpacked = ctx_with(&device, &data, &grads, &features, 32, packing(false));
        assert_eq!(
            atomic_updates(&unpacked, idx.len(), &s, 1.0),
            AtomicUpdates {
                atomics: 32.0 * cols,
                replays: 31.0 * cols,
                shuffles: 0.0,
            }
        );
    }

    /// One warp whose 32 lanes hit 32 distinct bins takes the
    /// warp-uniform branch: its match is its only shuffle, and each lane
    /// adds its own values.
    #[test]
    fn aggregation_all_distinct_warp_pays_no_shuffle_reduction() {
        let (ds, _, grads) = super::super::test_support::fixture_dense(4000, 4, 3, 6);
        let data = BinnedDataset::build(ds.features(), 64);
        let col = data.bins.col(0);
        let mut seen = [false; 256];
        let idx: Vec<u32> = (0..4000u32)
            .filter(|&i| !std::mem::replace(&mut seen[col[i as usize] as usize], true))
            .take(32)
            .collect();
        assert_eq!(idx.len(), 32);
        let device = Device::rtx4090();
        let features = [0u32];
        let ctx = ctx_with(&device, &data, &grads, &features, 64, packing(true));
        let s = measure(&ctx, &idx);
        assert_eq!(
            (s.replay_excess, s.distinct_bins, s.colliding_warps),
            (0.0, 32.0, 0.0)
        );
        assert_eq!(
            atomic_updates(&ctx, idx.len(), &s, 1.0),
            AtomicUpdates {
                atomics: 32.0 * 4.0,
                replays: 0.0,
                shuffles: 1.0,
            }
        );
        // Each smem tile pass is a launch that matches anew.
        assert_eq!(atomic_updates(&ctx, idx.len(), &s, 3.0).shuffles, 3.0);
    }

    /// The sparsity-aware kernel's warps hold non-zero lanes only. A
    /// 32-lane node of 16 zero-bin lanes and 16 lanes in distinct
    /// non-zero bins is one warp of 16 distinct lanes for it: no
    /// collision, 16 atomics per column and the match its only shuffle,
    /// where the dense kernel's warp collides on the zero bin.
    #[test]
    fn aggregation_sparse_aware_warps_hold_non_zero_lanes_only() {
        let (_, data, grads) = fixture(2000, 4, 3, 5);
        let col = data.bins.col(0);
        let zero = data.sparse.zero_bin(0);
        let mut seen = [false; 256];
        seen[zero as usize] = true;
        let distinct: Vec<u32> = (0..2000u32)
            .filter(|&i| !std::mem::replace(&mut seen[col[i as usize] as usize], true))
            .take(16)
            .collect();
        let zeros = (0..2000u32).filter(|&i| col[i as usize] == zero).take(16);
        let idx: Vec<u32> = zeros.chain(distinct).collect();
        assert_eq!(idx.len(), 32);
        let device = Device::rtx4090();
        let features = [0u32];
        let dense = ctx_with(&device, &data, &grads, &features, 32, packing(true));
        let s = measure(&dense, &idx);
        assert_eq!((s.distinct_bins, s.colliding_warps), (17.0, 1.0));
        let opts = HistOptions {
            sparse_aware: true,
            ..packing(true)
        };
        let sparse = ctx_with(&device, &data, &grads, &features, 32, opts);
        let s = measure(&sparse, &idx);
        assert_eq!((s.distinct_bins, s.colliding_warps), (16.0, 0.0));
        let density = super::super::density_factor(&sparse);
        assert_eq!(
            atomic_updates(&sparse, idx.len(), &s, 1.0),
            AtomicUpdates {
                atomics: 16.0 * 4.0,
                replays: 0.0,
                shuffles: density,
            }
        );
    }

    /// Without the warp-level optimization both atomic kernels price a
    /// build with the formulas they had before aggregation existed, bit
    /// for bit, and charge no shuffle, so `kernel_ns` adds `+0.0`.
    #[test]
    fn aggregation_leaves_the_unpacked_path_bit_identical() {
        use super::super::test_support::{fixture_dense, mixed_gradients};
        use super::super::{density_factor, gmem, smem};
        use gpusim::cost::KernelCost;
        // The formulas as they stood before warp aggregation.
        fn gmem_before(ctx: &HistContext<'_>, nn: usize, s: &ContentionStats) -> KernelCost {
            let p = &ctx.device.model().params;
            let density = density_factor(ctx);
            let pairs = nn as f64 * ctx.features.len() as f64 * density;
            let cols = (ctx.d() + ctx.hess_cols()) as f64;
            let updates = pairs * cols;
            KernelCost {
                flops: pairs * (cols + 4.0),
                dram_bytes: s.bin_transactions_unpacked * p.sector_bytes as f64 + gh_bytes(ctx, nn),
                gmem_atomics: updates * 1.0,
                gmem_atomic_replays: s.replay_excess * cols * 1.0 * density,
                launches: 1.0,
                ..Default::default()
            }
        }
        fn smem_before(ctx: &HistContext<'_>, nn: usize, s: &ContentionStats) -> KernelCost {
            let p = &ctx.device.model().params;
            let mf = ctx.features.len();
            let density = density_factor(ctx);
            let pairs = nn as f64 * mf as f64 * density;
            let cols = (ctx.d() + ctx.hess_cols()) as f64;
            let passes = smem::tile_passes(ctx) as f64;
            let updates = pairs * cols * 1.0;
            let replays = s.replay_excess * cols * 1.0 * density + updates * 3.0 / 4.0;
            let flush = (mf * ctx.bins * (ctx.d() + ctx.hess_cols())) as f64;
            KernelCost {
                flops: pairs * (cols + 4.0) * passes.sqrt(),
                dram_bytes: s.bin_transactions_unpacked * p.sector_bytes as f64 * passes
                    + gh_bytes(ctx, nn)
                    + flush * 4.0,
                smem_atomics: updates,
                smem_atomic_replays: replays,
                gmem_atomics: flush,
                launches: passes + 1.0,
                ..Default::default()
            }
        }
        let bits = |c: &KernelCost| {
            [
                c.flops,
                c.dram_bytes,
                c.gmem_atomics,
                c.gmem_atomic_replays,
                c.smem_atomics,
                c.smem_atomic_replays,
                c.shuffles,
                c.sort_keys,
                c.launches,
            ]
            .map(f64::to_bits)
        };
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let contiguous: Vec<u32> = (0..3000).collect();
        let scattered: Vec<u32> = (0..3000).filter(|i| i % 7 != 2).take(1447).collect();
        for (_, data, uniform) in [fixture(3000, 8, 6, 8), fixture_dense(3000, 8, 6, 8)] {
            let general = mixed_gradients(3000, 6);
            for grads in [&uniform, &general] {
                for sparse_aware in [false, true] {
                    let opts = HistOptions {
                        sparse_aware,
                        ..packing(false)
                    };
                    let ctx = ctx_with(&device, &data, grads, &features, 32, opts);
                    for idx in [&contiguous, &scattered] {
                        let nn = idx.len();
                        for s in [measure(&ctx, idx), expect(&ctx, nn)] {
                            let got = gmem::cost_descriptor(&ctx, nn, &s);
                            assert_eq!(bits(&got), bits(&gmem_before(&ctx, nn, &s)));
                            let got = smem::cost_descriptor(&ctx, nn, &s);
                            assert_eq!(bits(&got), bits(&smem_before(&ctx, nn, &s)));
                            assert_eq!(got.shuffles, 0.0);
                        }
                    }
                }
            }
        }
    }

    /// The selector's closed form prices the aggregated kernels as the
    /// charge does: on sparse and dense fixtures at 32 and 256 bins, from
    /// roots to 20-row nodes, with and without the sparsity-aware kernel,
    /// `expect`'s distinct bins and colliding warps track `measure`'s, and
    /// the +wo gmem and smem prices agree within 10 %.
    #[test]
    fn aggregation_expect_agrees_with_measure() {
        use super::super::test_support::{fixture_dense, mixed_gradients};
        use super::super::{gmem, smem};
        let device = Device::rtx4090();
        let model = device.model();
        let features: Vec<u32> = (0..8).collect();
        let general = mixed_gradients(4000, 8);
        for (ds, _, uniform) in [fixture(4000, 8, 8, 3), fixture_dense(4000, 8, 8, 3)] {
            for bins in [32usize, 256] {
                let data = BinnedDataset::build(ds.features(), bins);
                for (grads, sparse_aware) in [&uniform, &general]
                    .into_iter()
                    .flat_map(|g| [(g, false), (g, true)])
                {
                    let opts = HistOptions {
                        sparse_aware,
                        ..packing(true)
                    };
                    let ctx = ctx_with(&device, &data, grads, &features, bins, opts);
                    for nn in [4000u32, 1000, 100, 20] {
                        let idx: Vec<u32> = (0..4000).step_by((4000 / nn) as usize).collect();
                        let (m, e) = (measure(&ctx, &idx), expect(&ctx, idx.len()));
                        let case = format!(
                            "bins={bins} nn={nn} sparse_aware={sparse_aware} \
                             measured {m:?} expected {e:?}"
                        );
                        let near = |a: f64, b: f64, tol: f64| (a - b).abs() <= tol * b + 1.0;
                        assert!(near(e.distinct_bins, m.distinct_bins, 0.1), "{case}");
                        assert!(near(e.colliding_warps, m.colliding_warps, 0.1), "{case}");
                        for price in [gmem::cost_descriptor, smem::cost_descriptor] {
                            let charged = model.kernel_ns(&price(&ctx, idx.len(), &m));
                            let predicted = model.kernel_ns(&price(&ctx, idx.len(), &e));
                            assert!(near(predicted, charged, 0.1), "{case}");
                        }
                    }
                }
            }
        }
    }
}
