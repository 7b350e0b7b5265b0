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
//! - replay excess: bin ids are `u8`, so a warp's distinct bins are the
//!   set bits of a 256-bit set (`[u64; 4]`) and its excess is
//!   `lanes − distinct`;
//! - packed-group distinctness: each group of 4 consecutive lanes is
//!   copied into a `[u8; 4]` and a lane counts if no earlier lane of
//!   the group holds the same bin.
//!
//! The counts are the integers a sort-and-dedup count gives, so the
//! statistics are bit-identical to that reference (pinned by
//! `measure_is_bit_identical_to_the_sort_based_reference`).

use super::HistContext;
use gpusim::warp::{sectors_touched, WarpSampler};

/// Feature-sampling cap for measured statistics.
const MAX_SAMPLED_FEATURES: usize = 8;
/// Warp-sampling cap per sampled feature.
const MAX_SAMPLED_WARPS: usize = 64;

/// Contention/traffic statistics of one node-histogram launch,
/// already scaled to the full (instances × features) workload.
#[derive(Debug, Clone, Copy)]
pub struct ContentionStats {
    /// Total excess (replayed) bin-address collisions across all
    /// (warp, feature) atomic groups, **per output-pass** — multiply by
    /// `2d` for the (g, h) update stream.
    pub replay_excess: f64,
    /// Global-memory transactions needed to fetch bin IDs, unpacked
    /// (1-byte lanes).
    pub bin_transactions_unpacked: f64,
    /// Same, with 4-per-word bin packing (§3.4.1).
    pub bin_transactions_packed: f64,
    /// Mean fraction of *distinct* bins within each packed group of 4
    /// consecutive instances (∈ [0.25, 1]). With bin packing, a thread
    /// owns 4 instances and pre-aggregates same-bin contributions in
    /// registers before issuing atomics, so both the atomic count and
    /// the replay count scale by this ratio — the data-dependent part
    /// of the paper's "+wo" speedup (§3.4.1).
    pub packed_aggregation_ratio: f64,
}

impl Default for ContentionStats {
    fn default() -> Self {
        ContentionStats {
            replay_excess: 0.0,
            bin_transactions_unpacked: 0.0,
            bin_transactions_packed: 0.0,
            packed_aggregation_ratio: 1.0,
        }
    }
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

    // --- replay excess: sample features and reuse the warp sample.
    let f_stride = mf.div_ceil(MAX_SAMPLED_FEATURES).max(1);
    let mut excess = 0u64;
    let mut group_distinct = 0u64;
    let mut group_lanes = 0u64;
    let mut sampled_features = 0usize;
    let mut fi = 0;
    while fi < mf {
        sampled_features += 1;
        let col = ctx.data.bins.col(ctx.features[fi] as usize);
        for w in sampler.indices() {
            let warp_idx = lanes(w);
            // Bin ids are `u8`: the warp's distinct bins are the set bits
            // of a 256-bit set, and every other lane replays its atomic.
            let mut bin_set = [0u64; 4];
            // Register-level pre-aggregation potential of packed groups
            // of 4 consecutive instances.
            for group in warp_idx.chunks(4) {
                let mut bins = [0u8; 4];
                for (slot, &i) in bins.iter_mut().zip(group) {
                    *slot = col[i as usize];
                    bin_set[(*slot >> 6) as usize] |= 1 << (*slot & 63);
                }
                let bins = &bins[..group.len()];
                group_distinct += (0..bins.len())
                    .filter(|&j| !bins[..j].contains(&bins[j]))
                    .count() as u64;
                group_lanes += group.len() as u64;
            }
            let distinct: u32 = bin_set.iter().map(|word| word.count_ones()).sum();
            excess += warp_idx.len() as u64 - distinct as u64;
        }
        fi += f_stride;
    }
    let feature_scale = mf as f64 / sampled_features as f64;

    ContentionStats {
        replay_excess: excess as f64 * warp_scale * feature_scale,
        bin_transactions_unpacked: trans_unpacked as f64 * warp_scale * mf as f64,
        bin_transactions_packed: trans_packed as f64 * warp_scale * mf as f64,
        packed_aggregation_ratio: if group_lanes == 0 {
            1.0
        } else {
            group_distinct as f64 / group_lanes as f64
        },
    }
}

/// Closed-form expectation of the same statistics, used by the adaptive
/// selector. Assumes: bins roughly uniform except a skew mass equal to
/// the dataset's zero fraction landing in one bin; instance indices
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
    // one bin.
    let total = (ctx.data.n() * ctx.data.m()) as f64;
    let sparsity = 1.0 - ctx.data.sparse.nnz() as f64 / total.max(1.0);
    let skew_excess = (w * sparsity - 1.0).max(0.0);
    let excess_per_warp = uniform_excess.max(skew_excess).min(w - 1.0);

    // Transactions: a warp reading w consecutive-ish indices spans about
    // half-scattered sectors mid-training.
    let sector = p.sector_bytes as f64;
    let trans_unpacked_per_warp = (w / sector).max(1.0) * 8.0; // ~8 sectors when scattered
    let trans_packed_per_warp = trans_unpacked_per_warp / 2.0;

    // Expected distinct bins in a packed group of 4: uniform draws vs
    // the zero-bin skew collapsing duplicates.
    let uniform_distinct4 = bins * (1.0 - (1.0 - 1.0 / bins).powi(4));
    let skew_distinct4 = 4.0 - (4.0 * sparsity - 1.0).max(0.0);
    let distinct4 = uniform_distinct4.min(skew_distinct4).clamp(1.0, 4.0);

    ContentionStats {
        replay_excess: excess_per_warp * warps * mf,
        bin_transactions_unpacked: trans_unpacked_per_warp * warps * mf,
        bin_transactions_packed: trans_packed_per_warp * warps * mf,
        packed_aggregation_ratio: distinct4 / 4.0,
    }
}

/// Effective DRAM bytes for the gradient/Hessian rows a histogram pass
/// reads: each of the node's `nn` rows (`d` (g, h) pairs of
/// `pair_bytes` — 8 for f32, 4 for bf16-quantized) is touched once per
/// feature, with L2 capturing most cross-feature reuse.
pub fn gh_bytes(nn: usize, mf: usize, d: usize, pair_bytes: f64) -> f64 {
    let base = nn as f64 * d as f64 * pair_bytes;
    base * (1.0 + (mf.saturating_sub(1)) as f64 * (1.0 - super::GH_L2_HIT))
}

/// Bytes of one (g, h) pair under the context's gradient precision.
pub fn pair_bytes(ctx: &HistContext<'_>) -> f64 {
    if ctx.opts.quantized_gradients {
        4.0
    } else {
        8.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fixture;
    use super::super::HistContext;
    use super::*;
    use crate::config::HistOptions;
    use gbdt_data::BinnedDataset;
    use gpusim::Device;

    /// `measure` as it counted before the bit-set rewrite: every sampled
    /// warp and group of 4 copied, sorted and deduplicated. Kept only
    /// as the reference the allocation-free counts must equal.
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
        let (mut excess, mut group_distinct, mut group_lanes) = (0u64, 0u64, 0u64);
        let mut sampled_features = 0usize;
        for fi in (0..mf).step_by(f_stride) {
            sampled_features += 1;
            let col = ctx.data.bins.col(ctx.features[fi] as usize);
            for w in sampler.indices() {
                let bin_addrs: Vec<u64> = idx[w * warp..(w * warp + warp).min(nn)]
                    .iter()
                    .map(|&i| col[i as usize] as u64)
                    .collect();
                excess += bin_addrs.len() as u64 - distinct_sorted(&bin_addrs);
                for group in bin_addrs.chunks(4) {
                    group_distinct += distinct_sorted(group);
                    group_lanes += group.len() as u64;
                }
            }
        }
        let warp_scale = sampler.scale();
        let feature_scale = mf as f64 / sampled_features as f64;
        ContentionStats {
            replay_excess: excess as f64 * warp_scale * feature_scale,
            bin_transactions_unpacked: trans_unpacked as f64 * warp_scale * mf as f64,
            bin_transactions_packed: trans_packed as f64 * warp_scale * mf as f64,
            packed_aggregation_ratio: if group_lanes == 0 {
                1.0
            } else {
                group_distinct as f64 / group_lanes as f64
            },
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
        // 7-lane tail warp whose last group of 4 holds 3 lanes.
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
                        got.packed_aggregation_ratio.to_bits(),
                        want.packed_aggregation_ratio.to_bits(),
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
        let one = gh_bytes(1000, 1, 10, 8.0);
        let many = gh_bytes(1000, 100, 10, 8.0);
        assert!(many > one);
        assert!(many < one * 100.0, "L2 reuse must dampen the growth");
        // Quantized pairs halve the traffic.
        assert!((gh_bytes(1000, 100, 10, 4.0) - many / 2.0).abs() < 1e-6);
    }

    #[test]
    fn contention_stats_are_per_output_pass_invariant_under_sketching() {
        // Replay/traffic statistics describe the bin-access pattern only
        // (per output-pass, see `ContentionStats::replay_excess`), so a
        // k-column gradient sketch must leave them bit-identical — the
        // whole sketch saving enters through the `2d → 2k` multiplier in
        // the per-method cost formulas, not through contention.
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
        assert_eq!(
            mf.packed_aggregation_ratio.to_bits(),
            mt.packed_aggregation_ratio.to_bits()
        );
        let (ef, et) = (expect(&full, 1500), expect(&thin, 1500));
        assert_eq!(ef.replay_excess.to_bits(), et.replay_excess.to_bits());
    }
}
