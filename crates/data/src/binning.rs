//! Per-feature quantile binning.
//!
//! Histogram-based GBDT training discretizes each feature into at most
//! `max_bins` bins (the paper uses 256, §4.1, so a bin ID fits one
//! byte). Cut points are chosen at value quantiles; features with few
//! distinct values get exact cuts at midpoints between them.

use crate::dense::DenseMatrix;
use serde::{Deserialize, Serialize};

/// Per-feature bin cut points.
///
/// For feature `f` with cuts `c_0 < c_1 < …`, a value `v` falls in bin
/// `b(v) = #{i : c_i < v}`, so `b(v) ≤ b ⟺ v ≤ c_b` — a split "at bin
/// `b`" is exactly the float threshold `c_b`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinCuts {
    cuts: Vec<Vec<f32>>,
    max_bins: usize,
}

impl BinCuts {
    /// Compute cuts for every column of `features`, at most `max_bins`
    /// bins per feature (`max_bins ≤ 256` so bin IDs fit in `u8`).
    pub fn from_matrix(features: &DenseMatrix, max_bins: usize) -> Self {
        assert!(
            (2..=256).contains(&max_bins),
            "max_bins must be in 2..=256, got {max_bins}"
        );
        let cuts = (0..features.cols())
            .map(|j| Self::column_cuts(&features.col(j), max_bins))
            .collect();
        BinCuts { cuts, max_bins }
    }

    /// Streaming variant: cut points from a Greenwald–Khanna sketch
    /// (`O(ε⁻¹ log εn)` memory per feature instead of a full sorted
    /// copy) — the path large-scale systems take for datasets like
    /// SF-Crime's 878 k rows. Within the sketch's rank error the cuts
    /// match [`BinCuts::from_matrix`].
    pub fn from_matrix_sketched(features: &DenseMatrix, max_bins: usize, eps: f64) -> Self {
        assert!(
            (2..=256).contains(&max_bins),
            "max_bins must be in 2..=256, got {max_bins}"
        );
        let cuts = (0..features.cols())
            .map(|j| {
                let mut sketch = crate::quantile_sketch::QuantileSketch::new(eps);
                for i in 0..features.rows() {
                    sketch.insert(features.get(i, j));
                }
                sketch.cut_points(max_bins)
            })
            .collect();
        BinCuts { cuts, max_bins }
    }

    /// Cut points for one column of values.
    fn column_cuts(col: &[f32], max_bins: usize) -> Vec<f32> {
        let mut sorted: Vec<f32> = col.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        if sorted.len() <= 1 {
            return Vec::new(); // constant feature: a single bin
        }
        if sorted.len() <= max_bins {
            // Exact cuts at midpoints between consecutive distinct values.
            return sorted.windows(2).map(|w| (w[0] + w[1]) * 0.5).collect();
        }
        // Quantile cuts over the distinct values.
        let mut cuts = Vec::with_capacity(max_bins - 1);
        for q in 1..max_bins {
            let pos = q * sorted.len() / max_bins;
            let lo = sorted[pos.saturating_sub(1)];
            let hi = sorted[pos.min(sorted.len() - 1)];
            cuts.push((lo + hi) * 0.5);
        }
        cuts.dedup();
        cuts
    }

    /// Number of features covered.
    pub fn num_features(&self) -> usize {
        self.cuts.len()
    }

    /// Upper bound on bins across features (the configured maximum).
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// Actual number of bins of feature `f` (`cuts + 1`).
    pub fn num_bins(&self, f: usize) -> usize {
        self.cuts[f].len() + 1
    }

    /// Bin ID of value `v` under feature `f`'s cuts.
    #[inline]
    pub fn bin_value(&self, f: usize, v: f32) -> u8 {
        let cuts = &self.cuts[f];
        cuts.partition_point(|&c| c < v) as u8
    }

    /// Float threshold realized by splitting feature `f` at bin `b`
    /// (instances with `bin ≤ b` go left ⟺ `value ≤ threshold`).
    /// The last bin has no finite upper boundary.
    pub fn threshold(&self, f: usize, b: u8) -> f32 {
        let cuts = &self.cuts[f];
        cuts.get(b as usize).copied().unwrap_or(f32::INFINITY)
    }

    /// The bin that the value `0.0` maps to for feature `f` — the
    /// implicit bin of all CSC-absent entries (sparse histogram path).
    pub fn zero_bin(&self, f: usize) -> u8 {
        self.bin_value(f, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_one_col(vals: &[f32]) -> DenseMatrix {
        DenseMatrix::new(vals.len(), 1, vals.to_vec())
    }

    #[test]
    fn few_distinct_values_get_exact_bins() {
        let m = matrix_one_col(&[1.0, 2.0, 2.0, 5.0, 1.0]);
        let cuts = BinCuts::from_matrix(&m, 256);
        assert_eq!(cuts.num_bins(0), 3); // {1, 2, 5}
        assert_eq!(cuts.bin_value(0, 1.0), 0);
        assert_eq!(cuts.bin_value(0, 2.0), 1);
        assert_eq!(cuts.bin_value(0, 5.0), 2);
        // Midpoint thresholds.
        assert_eq!(cuts.threshold(0, 0), 1.5);
        assert_eq!(cuts.threshold(0, 1), 3.5);
        assert_eq!(cuts.threshold(0, 2), f32::INFINITY);
    }

    #[test]
    fn bin_semantics_match_thresholds() {
        // b(v) ≤ b ⟺ v ≤ threshold(b) for every value and bin.
        let vals: Vec<f32> = (0..1000).map(|i| ((i * 37) % 503) as f32 * 0.7).collect();
        let m = matrix_one_col(&vals);
        let cuts = BinCuts::from_matrix(&m, 64);
        for &v in &vals {
            let bv = cuts.bin_value(0, v);
            for b in 0..cuts.num_bins(0) as u8 {
                assert_eq!(bv <= b, v <= cuts.threshold(0, b), "v={v} b={b} bv={bv}");
            }
        }
    }

    #[test]
    fn quantile_binning_caps_bin_count() {
        let vals: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
        let m = matrix_one_col(&vals);
        let cuts = BinCuts::from_matrix(&m, 256);
        assert!(cuts.num_bins(0) <= 256);
        assert!(cuts.num_bins(0) >= 200, "should use most of the budget");
        // Bins should be roughly balanced.
        let mut counts = vec![0usize; cuts.num_bins(0)];
        for &v in &vals {
            counts[cuts.bin_value(0, v) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < *min * 3, "unbalanced bins: min={min} max={max}");
    }

    #[test]
    fn constant_feature_is_single_bin() {
        let m = matrix_one_col(&[4.2; 10]);
        let cuts = BinCuts::from_matrix(&m, 256);
        assert_eq!(cuts.num_bins(0), 1);
        assert_eq!(cuts.bin_value(0, 4.2), 0);
        assert_eq!(cuts.bin_value(0, -100.0), 0);
    }

    #[test]
    fn zero_bin_locates_zero() {
        let m = matrix_one_col(&[-1.0, 0.0, 0.0, 2.0, 3.0]);
        let cuts = BinCuts::from_matrix(&m, 256);
        assert_eq!(cuts.zero_bin(0), cuts.bin_value(0, 0.0));
        assert_eq!(cuts.zero_bin(0), 1); // bins: {-1}, {0}, {2}, {3}
    }

    #[test]
    fn nonfinite_values_ignored_for_cuts() {
        let m = matrix_one_col(&[1.0, f32::NAN, 2.0, f32::INFINITY]);
        let cuts = BinCuts::from_matrix(&m, 16);
        assert_eq!(cuts.num_bins(0), 2);
    }

    #[test]
    #[should_panic(expected = "max_bins must be in 2..=256")]
    fn max_bins_range_checked() {
        let _ = BinCuts::from_matrix(&matrix_one_col(&[1.0]), 257);
    }

    #[test]
    fn sketched_cuts_bin_like_exact_cuts() {
        // On a large column, the sketch-derived bins must agree with
        // exact quantile bins to within the sketch's rank error: the
        // same value lands in nearby bins, and bin occupancy stays
        // balanced.
        let n = 20_000;
        let vals: Vec<f32> = (0..n)
            .map(|i| ((i * 2654435761_usize) % 100_000) as f32)
            .collect();
        let m = DenseMatrix::new(n, 1, vals.clone());
        let exact = BinCuts::from_matrix(&m, 64);
        let sketched = BinCuts::from_matrix_sketched(&m, 64, 0.002);
        assert!(
            sketched.num_bins(0) >= 48,
            "sketch produced {} bins",
            sketched.num_bins(0)
        );
        let mut max_diff = 0i64;
        for &v in vals.iter().step_by(97) {
            let a = exact.bin_value(0, v) as i64 * 64 / exact.num_bins(0) as i64;
            let b = sketched.bin_value(0, v) as i64 * 64 / sketched.num_bins(0) as i64;
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff <= 3, "normalized bin disagreement {max_diff}");
        // Balanced occupancy under sketched cuts.
        let mut counts = vec![0usize; sketched.num_bins(0)];
        for &v in &vals {
            counts[sketched.bin_value(0, v) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max < 3 * n / sketched.num_bins(0),
            "skewed sketched bins: max {max}"
        );
    }

    #[test]
    fn multifeature_cuts_independent() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 100.0], vec![2.0, 100.0], vec![3.0, 200.0]]);
        let cuts = BinCuts::from_matrix(&m, 8);
        assert_eq!(cuts.num_features(), 2);
        assert_eq!(cuts.num_bins(0), 3);
        assert_eq!(cuts.num_bins(1), 2);
    }
}
