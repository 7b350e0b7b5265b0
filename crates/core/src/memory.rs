//! Device-memory footprint estimation.
//!
//! GBDT-MO's memory appetite is a central concern of the paper ("memory
//! usage substantially escalates during the histogram building phase
//! because of the inclusion of the output dimension"; CPU baselines
//! "often run out of memory at greater depths", Fig. 7). This module
//! predicts the device-resident footprint of a training configuration
//! so callers can check it against a device's VRAM *before* committing
//! — and so the harness can report, at full paper shapes, which
//! configurations would not fit.

use crate::config::TrainConfig;
use crate::hist::NodeHistogram;
use serde::{Deserialize, Serialize};

/// Reusable pool of [`NodeHistogram`] buffers.
///
/// The tree grower holds the histograms of the nodes it is resolving
/// (plus surviving parent buffers on the subtraction path); each buffer
/// is multi-MB for wide × many-output configurations, so allocating and
/// freeing them per node dominates *host* time. The pool keeps released
/// buffers for reuse: it grows to the maximum number of simultaneously
/// live histograms of any level and then stops allocating — across
/// levels *and* across trees when the caller keeps the pool alive (the
/// trainer does).
///
/// Buffers come back **dirty**: callers must either reset them
/// ([`crate::hist::accumulate_only`] does) or overwrite every element
/// ([`NodeHistogram::assign_difference`] does).
#[derive(Debug)]
pub struct HistogramPool {
    num_features: usize,
    d: usize,
    bins: usize,
    free: Vec<NodeHistogram>,
    allocated: usize,
}

impl HistogramPool {
    /// Create an empty pool producing `num_features × d × bins`
    /// histograms.
    pub fn new(num_features: usize, d: usize, bins: usize) -> Self {
        HistogramPool {
            num_features,
            d,
            bins,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// The `(num_features, d, bins)` shape of pooled buffers.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.num_features, self.d, self.bins)
    }

    /// Re-target the pool to a new shape, dropping cached buffers if it
    /// changed (the per-tree feature subsample keeps the count constant,
    /// so this is a no-op within one training run).
    pub fn ensure_shape(&mut self, num_features: usize, d: usize, bins: usize) {
        if self.shape() != (num_features, d, bins) {
            self.allocated -= self.free.len();
            self.free.clear();
            self.num_features = num_features;
            self.d = d;
            self.bins = bins;
        }
    }

    /// Take a buffer (reused if available, freshly allocated otherwise).
    /// The contents are unspecified — see the type-level note.
    pub fn acquire(&mut self) -> NodeHistogram {
        self.free.pop().unwrap_or_else(|| {
            self.allocated += 1;
            NodeHistogram::new(self.num_features, self.d, self.bins)
        })
    }

    /// Return a buffer for reuse.
    pub fn release(&mut self, hist: NodeHistogram) {
        debug_assert_eq!(
            (hist.num_features, hist.d, hist.bins),
            self.shape(),
            "released histogram has a foreign shape"
        );
        self.free.push(hist);
    }

    /// Number of buffers ever allocated and still owned by this pool's
    /// clients or free list (the high-water mark of live histograms).
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Number of buffers currently cached for reuse.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Bytes held across all allocated buffers (live + cached).
    pub fn bytes(&self) -> usize {
        let one =
            self.num_features * self.d * self.bins * 2 * 8 + self.num_features * self.bins * 4;
        self.allocated * one
    }
}

/// Byte-level breakdown of a training run's device residency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryEstimate {
    /// Column-major `u8` bin matrix.
    pub binned_bytes: usize,
    /// Packed 4-per-`u32` bins (kept alongside for the +wo kernels).
    pub packed_bytes: usize,
    /// Gradient + Hessian storage (`n × d` each).
    pub gradient_bytes: usize,
    /// Raw score matrix (`n × d` f32).
    pub score_bytes: usize,
    /// Histogram accumulators: one reusable buffer, or one per open
    /// frontier node when subtraction retains parents.
    pub histogram_bytes: usize,
    /// Instance-index lists across the widest frontier.
    pub index_bytes: usize,
    /// Sum of the above.
    pub total_bytes: usize,
}

impl MemoryEstimate {
    /// Human-readable size.
    pub fn total_human(&self) -> String {
        human(self.total_bytes)
    }

    /// Whether the estimate fits a device with `vram_bytes` of memory,
    /// leaving 10% headroom for the allocator and kernel scratch.
    pub fn fits(&self, vram_bytes: usize) -> bool {
        (self.total_bytes as f64) <= vram_bytes as f64 * 0.9
    }
}

/// Render bytes with binary units.
pub fn human(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Most node histograms the level grower holds at once: its pool's
/// worst-case high-water mark. Without subtraction each node's buffer
/// returns to the pool after its split step, so one is live. Under
/// subtraction a node that splits carries its buffer into the next level
/// as its pair's parent, and a pair frees it as soon as it has derived.
/// While a level `L < depth − 1` runs, the parents it has not yet used
/// and the parents it has made so far are live: with the pair in flight
/// (its fresh build and its derive) at most `2^L + 1 ≤ 2^(depth−2) + 1`.
/// The deepest level that builds, `L = depth − 1`, makes no parents; it
/// starts with the `2^(depth−2)` parents carried into it, so the peak is
/// those plus the pair in flight: `2^(depth−2) + 2`.
pub(crate) fn live_histograms(config: &TrainConfig) -> usize {
    if config.hist.subtraction && config.max_depth >= 2 {
        (1usize << (config.max_depth - 2)) + 2
    } else {
        1
    }
}

/// Estimate the training footprint of `config` on an `n × m` dataset
/// with `d` outputs.
pub fn estimate_training_bytes(
    n: usize,
    m: usize,
    d: usize,
    config: &TrainConfig,
) -> MemoryEstimate {
    let bins = config.max_bins;
    let binned_bytes = n * m;
    let packed_bytes = n.div_ceil(4) * 4 * m;
    let grad_elem = if config.hist.quantized_gradients {
        2
    } else {
        4
    };
    let gradient_bytes = n * d * 2 * grad_elem;
    let score_bytes = n * d * 4;
    // One histogram = m × bins × d × 2 gradient sums (f64 accumulators)
    // + m × bins counts.
    let one_hist = m * bins * d * 2 * 8 + m * bins * 4;
    let live_hists = live_histograms(config);
    let histogram_bytes = one_hist * live_hists;
    // Widest frontier holds every instance exactly once, twice over
    // during partition (in + out).
    let index_bytes = n * 4 * 2;
    let total_bytes =
        binned_bytes + packed_bytes + gradient_bytes + score_bytes + histogram_bytes + index_bytes;
    MemoryEstimate {
        binned_bytes,
        packed_bytes,
        gradient_bytes,
        score_bytes,
        histogram_bytes,
        index_bytes,
        total_bytes,
    }
}

/// Byte-level breakdown of a *serving* deployment: the resident
/// compiled ensemble plus one in-flight batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingEstimate {
    /// SoA node arrays (feature, threshold, left, right — 16 B/node).
    pub node_bytes: usize,
    /// Concatenated `num_leaves × d` leaf-value vectors.
    pub leaf_bytes: usize,
    /// Base scores plus per-tree root markers.
    pub base_bytes: usize,
    /// One max-size batch: feature rows in, score matrix out.
    pub batch_bytes: usize,
    /// Sum of the above.
    pub total_bytes: usize,
}

impl ServingEstimate {
    /// Bytes that stay resident between batches (everything except the
    /// in-flight batch buffers). Matches
    /// `crate::serve::DeviceEnsemble::resident_bytes` exactly.
    pub fn resident_bytes(&self) -> usize {
        self.node_bytes + self.leaf_bytes + self.base_bytes
    }

    /// Human-readable size.
    pub fn total_human(&self) -> String {
        human(self.total_bytes)
    }
}

/// Estimate the serving footprint of a compiled ensemble with `nodes`
/// total nodes, `leaf_values` total leaf-value elements and `trees`
/// trees over `d` outputs, serving `m`-feature rows in batches of up to
/// `max_batch`.
pub fn estimate_serving_bytes(
    nodes: usize,
    leaf_values: usize,
    trees: usize,
    d: usize,
    m: usize,
    max_batch: usize,
) -> ServingEstimate {
    let node_bytes = nodes * 16;
    let leaf_bytes = leaf_values * 4;
    let base_bytes = d * 4 + trees * 4;
    let batch_bytes = max_batch * (m + d) * 4;
    ServingEstimate {
        node_bytes,
        leaf_bytes,
        base_bytes,
        batch_bytes,
        total_bytes: node_bytes + leaf_bytes + base_bytes + batch_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bins: usize) -> TrainConfig {
        TrainConfig {
            max_bins: bins,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn components_sum_to_total() {
        let e = estimate_training_bytes(10_000, 100, 10, &cfg(256));
        assert_eq!(
            e.total_bytes,
            e.binned_bytes
                + e.packed_bytes
                + e.gradient_bytes
                + e.score_bytes
                + e.histogram_bytes
                + e.index_bytes
        );
    }

    #[test]
    fn histograms_scale_with_outputs_the_papers_concern() {
        let small = estimate_training_bytes(10_000, 100, 10, &cfg(256));
        let large = estimate_training_bytes(10_000, 100, 100, &cfg(256));
        assert!(large.histogram_bytes >= small.histogram_bytes * 9);
    }

    #[test]
    fn quantized_gradients_halve_gradient_storage() {
        let mut c = cfg(256);
        let full = estimate_training_bytes(10_000, 50, 20, &c);
        c.hist.quantized_gradients = true;
        let quant = estimate_training_bytes(10_000, 50, 20, &c);
        assert_eq!(quant.gradient_bytes * 2, full.gradient_bytes);
    }

    #[test]
    fn subtraction_multiplies_histogram_residency() {
        let mut c = cfg(64);
        c.max_depth = 7;
        let plain = estimate_training_bytes(5_000, 50, 10, &c);
        c.hist.subtraction = true;
        let sub = estimate_training_bytes(5_000, 50, 10, &c);
        assert!(sub.histogram_bytes > plain.histogram_bytes * 32);
    }

    #[test]
    fn paper_scale_delicious_histograms_are_gigabytes() {
        // Delicious at full shape: 500 features × 256 bins × 983 outputs
        // — the "magnitude larger than GBDT-SO" claim of §5.
        let e = estimate_training_bytes(16_105, 500, 983, &cfg(256));
        assert!(
            e.histogram_bytes > 1 << 30,
            "histogram {} should exceed 1 GiB",
            human(e.histogram_bytes)
        );
        // And it does NOT fit subtraction mode on a 24 GB card.
        let mut c = cfg(256);
        c.hist.subtraction = true;
        let e2 = estimate_training_bytes(16_105, 500, 983, &c);
        assert!(!e2.fits(24 * (1 << 30)));
    }

    #[test]
    fn small_config_fits_a_4090() {
        let e = estimate_training_bytes(50_000, 200, 10, &cfg(256));
        assert!(e.fits(24 * (1 << 30)), "footprint {}", e.total_human());
    }

    #[test]
    fn pool_reuses_released_buffers() {
        let mut pool = HistogramPool::new(4, 3, 16);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.allocated(), 2);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.available(), 2);
        let _c = pool.acquire();
        let _d = pool.acquire();
        // Nothing new allocated: both came from the free list.
        assert_eq!(pool.allocated(), 2);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn pool_buffers_have_requested_shape() {
        let mut pool = HistogramPool::new(5, 2, 8);
        let h = pool.acquire();
        assert_eq!((h.num_features, h.d, h.bins), (5, 2, 8));
        assert_eq!(h.g.len(), 5 * 2 * 8);
        pool.release(h);
        assert!(pool.bytes() > 0);
    }

    #[test]
    fn pool_ensure_shape_drops_mismatched_cache() {
        let mut pool = HistogramPool::new(4, 2, 8);
        let h = pool.acquire();
        pool.release(h);
        pool.ensure_shape(4, 2, 8); // no-op
        assert_eq!(pool.available(), 1);
        pool.ensure_shape(6, 2, 8); // shape change drops the cache
        assert_eq!(pool.available(), 0);
        let h = pool.acquire();
        assert_eq!(h.num_features, 6);
    }

    #[test]
    fn serving_estimate_components_sum() {
        let e = estimate_serving_bytes(1000, 5000, 20, 10, 50, 256);
        assert_eq!(e.node_bytes, 16_000);
        assert_eq!(e.leaf_bytes, 20_000);
        assert_eq!(e.base_bytes, 10 * 4 + 20 * 4);
        assert_eq!(e.batch_bytes, 256 * 60 * 4);
        assert_eq!(
            e.total_bytes,
            e.node_bytes + e.leaf_bytes + e.base_bytes + e.batch_bytes
        );
        assert_eq!(
            e.resident_bytes(),
            e.node_bytes + e.leaf_bytes + e.base_bytes
        );
        assert!(!e.total_human().is_empty());
    }

    #[test]
    fn human_units() {
        assert_eq!(human(512), "512 B");
        assert_eq!(human(2048), "2.00 KiB");
        assert_eq!(human(3 * 1024 * 1024), "3.00 MiB");
        assert!(human(5 * 1024 * 1024 * 1024).contains("GiB"));
    }
}
