//! Warp-level access-pattern analysis.
//!
//! [`sectors_touched`] inspects the addresses touched by the lanes of
//! one warp and counts the global-memory transactions they issue — the
//! uncoalesced traffic the paper's bin packing targets (§3.4.1).
//! `gbdt-core`'s `hist::stats::measure` counts atomic replays itself,
//! from the bin ids of the same sampled warps.
//!
//! Analyzing *every* warp of a large kernel would double the simulator's
//! own runtime, so [`WarpSampler`] samples a bounded number of warps with
//! a fixed stride and extrapolates; the sampling is deterministic.

/// Lanes of one warp on the modeled NVIDIA parts: the chunk of lanes
/// whose sectors `sectors_touched` collects on the stack at once.
const WARP_LANES: usize = 32;

/// Count distinct memory sectors touched by one warp's lane addresses.
///
/// A sector is `sector_bytes` wide (32 B on modern NVIDIA L2). Each lane
/// accesses `access_bytes` starting at its address; accesses that
/// straddle a sector boundary touch both sectors. The returned count is
/// the number of global-memory transactions the warp issues.
///
/// Counting runs on a stack buffer holding the distinct sectors of one
/// 32-lane warp, so it never allocates. Longer inputs (wider warps) are
/// taken 32 lanes at a time; a sector then counts only if no lane of an
/// earlier chunk touched it. Panics unless `sector_bytes` is a power of
/// two.
pub fn sectors_touched(addrs: &[u64], access_bytes: u32, sector_bytes: u32) -> usize {
    assert!(
        sector_bytes.is_power_of_two(),
        "sector size must be a power of two, got {sector_bytes}"
    );
    // A shift, not a division: this runs twice per lane.
    let shift = sector_bytes.trailing_zeros();
    let ends = |a: u64| [a >> shift, (a + access_bytes as u64 - 1) >> shift];
    let mut seen = [0u64; 2 * WARP_LANES];
    let mut count = 0;
    for (c, chunk) in addrs.chunks(WARP_LANES).enumerate() {
        let earlier = &addrs[..c * WARP_LANES];
        let (mut len, mut top) = (0, 0);
        for &a in chunk {
            for s in ends(a) {
                // Ascending lanes (the usual instance order) never scan:
                // a sector above all seen is new, a repeat is the latest.
                let new = len == 0 || s > top || !seen[..len].iter().rev().any(|&t| t == s);
                if !new {
                    continue;
                }
                seen[len] = s;
                len += 1;
                top = top.max(s);
                if !earlier.iter().any(|&e| ends(e).contains(&s)) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Deterministic warp sampler: selects up to `max_samples` warps out of
/// `total_warps` with a uniform stride and reports the factor by which
/// sampled statistics must be scaled to estimate the full kernel.
#[derive(Debug, Clone, Copy)]
pub struct WarpSampler {
    /// Total number of warps the kernel executes.
    pub total_warps: usize,
    /// Stride between sampled warps (≥ 1).
    pub stride: usize,
    /// Number of warps that will be sampled.
    pub sampled: usize,
}

impl WarpSampler {
    /// Default cap on sampled warps.
    ///
    /// Sampling bounds the modeling overhead but does not make it small.
    /// The histogram cost model samples 64 warps × 8 features per node
    /// (`hist::stats::measure` in `gbdt-core`), and on the benchmark's
    /// `train-deep` workload (48k rows, depth 10) that sampling took
    /// 42 % of host tree-growth time while it sorted and allocated per
    /// sampled warp, and 14 % once it counted with bit sets and stack
    /// buffers (AMD EPYC, 2 vCPU).
    pub const DEFAULT_MAX_SAMPLES: usize = 512;

    /// Build a sampler over `total_warps` with the default cap.
    pub fn new(total_warps: usize) -> Self {
        Self::with_cap(total_warps, Self::DEFAULT_MAX_SAMPLES)
    }

    /// Build a sampler with an explicit cap.
    pub fn with_cap(total_warps: usize, max_samples: usize) -> Self {
        let max_samples = max_samples.max(1);
        if total_warps <= max_samples {
            WarpSampler {
                total_warps,
                stride: 1,
                sampled: total_warps,
            }
        } else {
            let stride = total_warps.div_ceil(max_samples);
            let sampled = total_warps.div_ceil(stride);
            WarpSampler {
                total_warps,
                stride,
                sampled,
            }
        }
    }

    /// Iterate the indices of the sampled warps.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.sampled).map(move |i| i * self.stride)
    }

    /// Scale factor from sampled statistics to the full kernel.
    pub fn scale(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.total_warps as f64 / self.sampled as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_coalesced_f32_warp_touches_four_sectors() {
        // 32 lanes × 4 B contiguous = 128 B = 4 × 32 B sectors.
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(sectors_touched(&addrs, 4, 32), 4);
    }

    #[test]
    fn byte_access_same_sector_is_one_transaction() {
        // 32 lanes × 1 B contiguous = 32 B = 1 sector. This is why bin
        // packing matters: packed u32 reads serve 4 bins per transaction.
        let addrs: Vec<u64> = (0..32).collect();
        assert_eq!(sectors_touched(&addrs, 1, 32), 1);
    }

    #[test]
    fn strided_access_is_uncoalesced() {
        // Stride-32 float accesses: every lane in its own sector.
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        assert_eq!(sectors_touched(&addrs, 4, 32), 32);
    }

    #[test]
    fn straddling_access_touches_two_sectors() {
        assert_eq!(sectors_touched(&[30], 4, 32), 2);
        assert_eq!(sectors_touched(&[28], 4, 32), 1);
    }

    #[test]
    fn sector_count_matches_sort_and_dedup_at_every_width() {
        // Reference: collect both end sectors of every lane, sort, dedup.
        fn reference(addrs: &[u64], access_bytes: u32, sector_bytes: u32) -> usize {
            let sb = sector_bytes as u64;
            let mut sectors: Vec<u64> = addrs
                .iter()
                .flat_map(|&a| [a / sb, (a + access_bytes as u64 - 1) / sb])
                .collect();
            sectors.sort_unstable();
            sectors.dedup();
            sectors.len()
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        // Widths below, at and above one 32-lane chunk (a 64-lane warp
        // and a ragged 70) exercise the cross-chunk check.
        for lanes in [0usize, 1, 5, 31, 32, 33, 64, 70] {
            for span in [40u64, 400, 100_000] {
                for (access, sector) in [(1u32, 32u32), (4, 32), (4, 2), (8, 4), (100, 32)] {
                    let addrs: Vec<u64> = (0..lanes).map(|_| next(span)).collect();
                    assert_eq!(
                        sectors_touched(&addrs, access, sector),
                        reference(&addrs, access, sector),
                        "lanes={lanes} span={span} access={access} sector={sector}"
                    );
                }
            }
        }
    }

    #[test]
    fn sampler_covers_small_kernels_exactly() {
        let s = WarpSampler::new(100);
        assert_eq!(s.sampled, 100);
        assert_eq!(s.stride, 1);
        assert!((s.scale() - 1.0).abs() < 1e-12);
        assert_eq!(s.indices().count(), 100);
    }

    #[test]
    fn sampler_caps_large_kernels() {
        let s = WarpSampler::new(1_000_000);
        assert!(s.sampled <= WarpSampler::DEFAULT_MAX_SAMPLES);
        assert!(s.scale() > 1.0);
        let idx: Vec<usize> = s.indices().collect();
        assert!(idx.iter().all(|&i| i < 1_000_000));
        // Deterministic: same sampler, same indices.
        let idx2: Vec<usize> = WarpSampler::new(1_000_000).indices().collect();
        assert_eq!(idx, idx2);
    }

    #[test]
    fn sampler_scale_times_sampled_approximates_total() {
        let s = WarpSampler::new(12345);
        let est = s.scale() * s.sampled as f64;
        assert!((est - 12345.0).abs() < 1.0);
    }

    // ---- edge cases ----------------------------------------------------

    #[test]
    fn sampler_with_cap_zero_warps() {
        let s = WarpSampler::with_cap(0, 64);
        assert_eq!(s.sampled, 0);
        assert_eq!(s.indices().count(), 0);
        assert_eq!(s.scale(), 0.0);
    }

    #[test]
    fn sampler_with_cap_zero_cap_is_clamped_to_one() {
        let s = WarpSampler::with_cap(1000, 0);
        assert_eq!(s.sampled, 1);
        assert!(s.stride >= 1000);
        let idx: Vec<usize> = s.indices().collect();
        assert_eq!(idx, vec![0]);
        assert!((s.scale() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_with_cap_indices_stay_in_bounds_and_respect_cap() {
        for total in [1usize, 2, 7, 63, 64, 65, 511, 512, 513, 100_000] {
            for cap in [1usize, 2, 3, 64, 512] {
                let s = WarpSampler::with_cap(total, cap);
                assert!(s.sampled <= cap.max(1), "total={total} cap={cap}");
                // Every total here is non-zero: at least one warp is
                // sampled, and never more than exist.
                assert!((1..=total).contains(&s.sampled), "total={total} cap={cap}");
                let idx: Vec<usize> = s.indices().collect();
                assert_eq!(idx.len(), s.sampled);
                assert!(idx.iter().all(|&i| i < total.max(1)));
                // Indices are strictly increasing (deterministic stride).
                assert!(idx.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
