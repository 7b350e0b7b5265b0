//! Binned feature storage: the `u8` bin matrix kernels consume, the
//! packed 4-bins-per-`u32` layout of the paper's warp-level optimization
//! (§3.4.1), and a CSC-style sparse binned form.

use crate::binning::BinCuts;
use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Column-major matrix of bin IDs: `bin(i, f) = bins[f * n + i]`.
///
/// Column-major order is what the paper's "column-wise data
/// distribution" (§3.2) requires: a thread block owns one or more
/// feature columns and its warps stream that column's instances
/// contiguously.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinnedMatrix {
    n: usize,
    m: usize,
    bins: Vec<u8>,
}

impl BinnedMatrix {
    /// Bin every entry of `features` under `cuts`.
    pub fn from_matrix(features: &DenseMatrix, cuts: &BinCuts) -> Self {
        let (n, m) = (features.rows(), features.cols());
        assert_eq!(cuts.num_features(), m, "cuts/features column mismatch");
        let mut bins = vec![0u8; n * m];
        bins.par_chunks_mut(n).enumerate().for_each(|(f, col)| {
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = cuts.bin_value(f, features.get(i, f));
            }
        });
        BinnedMatrix { n, m, bins }
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of features.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Bin of instance `i` under feature `f`.
    #[inline]
    pub fn get(&self, i: usize, f: usize) -> u8 {
        debug_assert!(i < self.n && f < self.m);
        self.bins[f * self.n + i]
    }

    /// Contiguous column of feature `f`'s bins.
    pub fn col(&self, f: usize) -> &[u8] {
        &self.bins[f * self.n..(f + 1) * self.n]
    }

    /// Raw column-major storage.
    pub fn raw(&self) -> &[u8] {
        &self.bins
    }

    /// Resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bins.len()
    }
}

/// Bin IDs packed four-per-`u32`, column-major (paper §3.4.1).
///
/// Byte `i % 4` of word `i / 4` in a column holds instance `i`'s bin
/// (little-endian), so a warp reading 32 consecutive instances' bins
/// needs 8 coalesced word loads instead of 32 byte loads — the memory-
/// transaction saving the paper exploits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackedBins {
    n: usize,
    m: usize,
    words_per_col: usize,
    words: Vec<u32>,
}

impl PackedBins {
    /// Pack an unpacked bin matrix.
    pub fn from_binned(b: &BinnedMatrix) -> Self {
        let n = b.n();
        let m = b.m();
        let words_per_col = n.div_ceil(4);
        let mut words = vec![0u32; words_per_col * m];
        words
            .par_chunks_mut(words_per_col)
            .enumerate()
            .for_each(|(f, col_words)| {
                let col = b.col(f);
                for (w, slot) in col_words.iter_mut().enumerate() {
                    let base = w * 4;
                    let mut word = 0u32;
                    for lane in 0..4 {
                        if base + lane < n {
                            word |= (col[base + lane] as u32) << (8 * lane);
                        }
                    }
                    *slot = word;
                }
            });
        PackedBins {
            n,
            m,
            words_per_col,
            words,
        }
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of features.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Unpack one bin: shift-and-mask, as a kernel lane would.
    #[inline]
    pub fn get(&self, i: usize, f: usize) -> u8 {
        debug_assert!(i < self.n && f < self.m);
        let word = self.words[f * self.words_per_col + i / 4];
        ((word >> (8 * (i % 4))) & 0xFF) as u8
    }

    /// The packed words of feature `f`'s column.
    pub fn col_words(&self, f: usize) -> &[u32] {
        &self.words[f * self.words_per_col..(f + 1) * self.words_per_col]
    }

    /// Resident bytes (≈ same as unpacked, but transacted 4× wider).
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

/// Sparse binned columns: only CSC-present entries carry explicit bins;
/// all absent entries of feature `f` implicitly live in `zero_bin[f]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseBinned {
    n: usize,
    m: usize,
    /// Row indices of explicit entries, per column (CSC order).
    row_indices: Vec<u32>,
    /// Bin of each explicit entry.
    bins: Vec<u8>,
    /// Column pointers (length `m + 1`).
    col_pointers: Vec<usize>,
    /// Implicit bin of absent entries, per feature.
    zero_bins: Vec<u8>,
}

impl SparseBinned {
    /// Bin the explicit entries of a CSC matrix.
    pub fn from_csc(csc: &CscMatrix, cuts: &BinCuts) -> Self {
        assert_eq!(cuts.num_features(), csc.cols(), "cuts/csc column mismatch");
        let bins: Vec<u8> = (0..csc.cols())
            .flat_map(|f| {
                let (_, vals) = csc.col(f);
                vals.iter().map(move |&v| cuts.bin_value(f, v))
            })
            .collect();
        let zero_bins = (0..csc.cols()).map(|f| cuts.zero_bin(f)).collect();
        SparseBinned {
            n: csc.rows(),
            m: csc.cols(),
            row_indices: csc.row_indices().to_vec(),
            bins,
            col_pointers: csc.col_pointers().to_vec(),
            zero_bins,
        }
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of features.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Explicit entries of feature `f`: `(row_indices, bins)`.
    pub fn col(&self, f: usize) -> (&[u32], &[u8]) {
        let (s, e) = (self.col_pointers[f], self.col_pointers[f + 1]);
        (&self.row_indices[s..e], &self.bins[s..e])
    }

    /// Explicit entries of feature `f`.
    pub fn col_nnz(&self, f: usize) -> usize {
        self.col_pointers[f + 1] - self.col_pointers[f]
    }

    /// Implicit bin of feature `f`'s absent entries.
    pub fn zero_bin(&self, f: usize) -> u8 {
        self.zero_bins[f]
    }

    /// Total explicit entries.
    pub fn nnz(&self) -> usize {
        self.bins.len()
    }

    /// Bin of instance `i` under feature `f` (explicit or implicit).
    pub fn get(&self, i: usize, f: usize) -> u8 {
        let (rows, bins) = self.col(f);
        match rows.binary_search(&(i as u32)) {
            Ok(p) => bins[p],
            Err(_) => self.zero_bins[f],
        }
    }

    /// Resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.row_indices.len() * 4
            + self.bins.len()
            + self.col_pointers.len() * 8
            + self.zero_bins.len()
    }
}

/// A fully preprocessed training input: cuts plus binned storage in all
/// three layouts the kernels can consume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinnedDataset {
    /// Per-feature cut points.
    pub cuts: BinCuts,
    /// Unpacked column-major bins.
    pub bins: BinnedMatrix,
    /// Packed bins (warp-level optimization input).
    pub packed: PackedBins,
    /// Sparse binned form (for the sparsity-aware histogram path).
    pub sparse: SparseBinned,
}

impl BinnedDataset {
    /// Preprocess a dense feature matrix with `max_bins` quantile bins.
    pub fn build(features: &DenseMatrix, max_bins: usize) -> Self {
        let cuts = BinCuts::from_matrix(features, max_bins);
        let bins = BinnedMatrix::from_matrix(features, &cuts);
        let packed = PackedBins::from_binned(&bins);
        let sparse = SparseBinned::from_csc(&CscMatrix::from_dense(features), &cuts);
        BinnedDataset {
            cuts,
            bins,
            packed,
            sparse,
        }
    }

    /// Number of instances.
    pub fn n(&self) -> usize {
        self.bins.n()
    }

    /// Number of features.
    pub fn m(&self) -> usize {
        self.bins.m()
    }

    /// The columns of `features` that can split, in their given order:
    /// those binned to more than one bin. Every instance of a one-bin
    /// column shares its bin, so no threshold leaves both children
    /// non-empty and its histogram never decides a split.
    pub fn splittable(&self, features: &[u32]) -> Vec<u32> {
        features
            .iter()
            .copied()
            .filter(|&f| self.cuts.num_bins(f as usize) > 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![0.0, 5.0],
            vec![1.0, 0.0],
            vec![2.0, 5.0],
            vec![0.0, 9.0],
            vec![1.0, 0.0],
        ])
    }

    #[test]
    fn binned_matches_cuts() {
        let f = features();
        let cuts = BinCuts::from_matrix(&f, 16);
        let b = BinnedMatrix::from_matrix(&f, &cuts);
        for i in 0..f.rows() {
            for j in 0..f.cols() {
                assert_eq!(b.get(i, j), cuts.bin_value(j, f.get(i, j)));
            }
        }
        assert_eq!(b.col(0).len(), 5);
    }

    #[test]
    fn packed_roundtrips_every_entry() {
        let f = features();
        let cuts = BinCuts::from_matrix(&f, 16);
        let b = BinnedMatrix::from_matrix(&f, &cuts);
        let p = PackedBins::from_binned(&b);
        for i in 0..f.rows() {
            for j in 0..f.cols() {
                assert_eq!(p.get(i, j), b.get(i, j), "mismatch at ({i},{j})");
            }
        }
        // n=5 → 2 words per column.
        assert_eq!(p.col_words(0).len(), 2);
    }

    #[test]
    fn packed_word_layout_is_little_endian() {
        let f = DenseMatrix::new(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        let cuts = BinCuts::from_matrix(&f, 16);
        let b = BinnedMatrix::from_matrix(&f, &cuts);
        let p = PackedBins::from_binned(&b);
        // bins are 0,1,2,3 → word 0x03020100.
        assert_eq!(p.col_words(0)[0], 0x0302_0100);
    }

    #[test]
    fn sparse_binned_agrees_with_dense_binned() {
        let f = features();
        let cuts = BinCuts::from_matrix(&f, 16);
        let b = BinnedMatrix::from_matrix(&f, &cuts);
        let s = SparseBinned::from_csc(&CscMatrix::from_dense(&f), &cuts);
        for i in 0..f.rows() {
            for j in 0..f.cols() {
                assert_eq!(s.get(i, j), b.get(i, j), "mismatch at ({i},{j})");
            }
        }
        assert_eq!(s.nnz(), f.nnz());
    }

    #[test]
    fn sparse_binned_is_smaller_on_sparse_data() {
        // 95% zeros.
        let n = 400;
        let vals: Vec<f32> = (0..n)
            .map(|i| if i % 20 == 0 { 1.0 } else { 0.0 })
            .collect();
        let f = DenseMatrix::new(n, 1, vals);
        let ds = BinnedDataset::build(&f, 256);
        assert!(ds.sparse.memory_bytes() < ds.bins.memory_bytes());
    }

    #[test]
    fn only_columns_with_two_bins_are_splittable() {
        // Columns: varying, constant, all-zero, varying.
        let f = DenseMatrix::from_rows(&[
            vec![0.0, 3.0, 0.0, 1.0],
            vec![1.0, 3.0, 0.0, 2.0],
            vec![2.0, 3.0, 0.0, 1.0],
        ]);
        let ds = BinnedDataset::build(&f, 16);
        assert_eq!(ds.splittable(&[0, 1, 2, 3]), vec![0, 3]);
        assert_eq!(ds.splittable(&[3, 1]), vec![3]);
        assert!(ds.splittable(&[1, 2]).is_empty());
        assert_eq!(ds.sparse.col_nnz(0), 2);
        assert_eq!(ds.sparse.col_nnz(1), 3);
        assert_eq!(ds.sparse.col_nnz(2), 0);
    }

    #[test]
    fn binned_dataset_builds_consistent_views() {
        let f = features();
        let ds = BinnedDataset::build(&f, 64);
        assert_eq!(ds.n(), 5);
        assert_eq!(ds.m(), 2);
        for i in 0..5 {
            for j in 0..2 {
                let b = ds.bins.get(i, j);
                assert_eq!(ds.packed.get(i, j), b);
                assert_eq!(ds.sparse.get(i, j), b);
            }
        }
    }
}
