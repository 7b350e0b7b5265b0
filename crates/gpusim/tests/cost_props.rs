//! Property tests pinning the cost model's algebraic invariants:
//! non-negativity, monotonicity in work, collective degeneracy at one
//! rank, and commutativity of [`KernelCost::merged`] totals. These are
//! the contracts the profiler, the bench regression gate, and the
//! paper-figure reproductions all silently assume.

use gpusim::cost::{CostModel, CostParams, KernelCost};
use proptest::prelude::*;

fn models() -> Vec<CostModel> {
    vec![
        CostModel::new(CostParams::rtx4090()),
        CostModel::new(CostParams::rtx3090()),
        CostModel::new(CostParams::a100()),
        CostModel::new(CostParams::h100()),
    ]
}

/// A bounded-but-wide random work descriptor.
fn cost_strategy() -> impl Strategy<Value = KernelCost> {
    (
        (0.0f64..1e12, 0.0f64..1e11, 0.0f64..1e8, 0.0f64..1e8),
        (0.0f64..1e8, 0.0f64..1e8, 0.0f64..1e8, 0.0f64..1e4),
        0.0f64..1e8,
    )
        .prop_map(
            |(
                (flops, dram_bytes, gmem_atomics, gmem_atomic_replays),
                (smem_atomics, smem_atomic_replays, sort_keys, launches),
                shuffles,
            )| KernelCost {
                flops,
                dram_bytes,
                gmem_atomics,
                gmem_atomic_replays,
                smem_atomics,
                smem_atomic_replays,
                shuffles,
                sort_keys,
                launches,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// kernel_ns is finite and non-negative for any work descriptor,
    /// and exactly zero only for the all-zero descriptor.
    #[test]
    fn kernel_ns_is_finite_and_non_negative(c in cost_strategy()) {
        for m in models() {
            let ns = m.kernel_ns(&c);
            prop_assert!(ns.is_finite(), "{ns}");
            prop_assert!(ns >= 0.0, "{ns}");
        }
    }

    /// More flops never makes a kernel faster (holding all else fixed).
    #[test]
    fn kernel_ns_monotone_in_flops(c in cost_strategy(), extra in 0.0f64..1e12) {
        for m in models() {
            let mut bigger = c;
            bigger.flops += extra;
            prop_assert!(
                m.kernel_ns(&bigger) >= m.kernel_ns(&c),
                "flops +{extra} reduced time"
            );
        }
    }

    /// More DRAM traffic never makes a kernel faster.
    #[test]
    fn kernel_ns_monotone_in_bytes(c in cost_strategy(), extra in 0.0f64..1e11) {
        for m in models() {
            let mut bigger = c;
            bigger.dram_bytes += extra;
            prop_assert!(
                m.kernel_ns(&bigger) >= m.kernel_ns(&c),
                "bytes +{extra} reduced time"
            );
        }
    }

    /// Serialized terms (atomics, replays, shuffles, sort keys, launches) each
    /// strictly add: inflating any one never reduces the charge.
    #[test]
    fn kernel_ns_monotone_in_serialized_terms(
        c in cost_strategy(),
        extra in 1.0f64..1e8,
        which in 0usize..7,
    ) {
        for m in models() {
            let mut bigger = c;
            match which {
                0 => bigger.gmem_atomics += extra,
                1 => bigger.gmem_atomic_replays += extra,
                2 => bigger.smem_atomics += extra,
                3 => bigger.smem_atomic_replays += extra,
                4 => bigger.sort_keys += extra,
                5 => bigger.shuffles += extra,
                _ => bigger.launches += extra,
            }
            prop_assert!(m.kernel_ns(&bigger) >= m.kernel_ns(&c));
        }
    }

    /// Ring reduce-scatter: zero at k ≤ 1, monotone in bytes at fixed
    /// k, and monotone in k at fixed bytes (more hops, more latency).
    #[test]
    fn reduce_scatter_monotone_and_degenerate(
        bytes in 0.0f64..1e10,
        extra in 0.0f64..1e10,
        k in 2usize..64,
    ) {
        for m in models() {
            prop_assert_eq!(m.ring_reduce_scatter_ns(bytes, 0), 0.0);
            prop_assert_eq!(m.ring_reduce_scatter_ns(bytes, 1), 0.0);
            let t = m.ring_reduce_scatter_ns(bytes, k);
            prop_assert!(t.is_finite() && t >= 0.0);
            prop_assert!(m.ring_reduce_scatter_ns(bytes + extra, k) >= t);
            prop_assert!(m.ring_reduce_scatter_ns(bytes, k + 1) >= t);
        }
    }

    /// All-gather: zero at k ≤ 1, monotone in per-rank bytes and k.
    #[test]
    fn all_gather_monotone_and_degenerate(
        bytes in 0.0f64..1e10,
        extra in 0.0f64..1e10,
        k in 2usize..64,
    ) {
        for m in models() {
            prop_assert_eq!(m.all_gather_ns(bytes, 0), 0.0);
            prop_assert_eq!(m.all_gather_ns(bytes, 1), 0.0);
            let t = m.all_gather_ns(bytes, k);
            prop_assert!(t.is_finite() && t >= 0.0);
            prop_assert!(m.all_gather_ns(bytes + extra, k) >= t);
            prop_assert!(m.all_gather_ns(bytes, k + 1) >= t);
        }
    }

    /// Broadcast: zero at k ≤ 1, monotone in bytes; hop count grows
    /// with ceil(log2 k), so doubling k never shrinks the time.
    #[test]
    fn broadcast_monotone_and_degenerate(
        bytes in 0.0f64..1e10,
        extra in 0.0f64..1e10,
        k in 2usize..32,
    ) {
        for m in models() {
            prop_assert_eq!(m.broadcast_ns(bytes, 1), 0.0);
            let t = m.broadcast_ns(bytes, k);
            prop_assert!(t.is_finite() && t >= 0.0);
            prop_assert!(m.broadcast_ns(bytes + extra, k) >= t);
            prop_assert!(m.broadcast_ns(bytes, k * 2) >= t);
        }
    }

    /// merged() sums every term and is commutative on totals: a⊕b and
    /// b⊕a describe identical work, so they must charge identically.
    #[test]
    fn merged_is_commutative_on_totals(a in cost_strategy(), b in cost_strategy()) {
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        prop_assert_eq!(ab.flops.to_bits(), ba.flops.to_bits());
        prop_assert_eq!(ab.dram_bytes.to_bits(), ba.dram_bytes.to_bits());
        prop_assert_eq!(ab.gmem_atomics.to_bits(), ba.gmem_atomics.to_bits());
        prop_assert_eq!(
            ab.gmem_atomic_replays.to_bits(),
            ba.gmem_atomic_replays.to_bits()
        );
        prop_assert_eq!(ab.smem_atomics.to_bits(), ba.smem_atomics.to_bits());
        prop_assert_eq!(
            ab.smem_atomic_replays.to_bits(),
            ba.smem_atomic_replays.to_bits()
        );
        prop_assert_eq!(ab.shuffles.to_bits(), ba.shuffles.to_bits());
        prop_assert_eq!(ab.sort_keys.to_bits(), ba.sort_keys.to_bits());
        prop_assert_eq!(ab.launches.to_bits(), ba.launches.to_bits());
        // And the model sees the same work either way.
        for m in models() {
            prop_assert_eq!(m.kernel_ns(&ab).to_bits(), m.kernel_ns(&ba).to_bits());
        }
    }

    /// Merging with the zero descriptor is the identity on every term.
    #[test]
    fn merged_with_zero_is_identity(a in cost_strategy()) {
        let z = KernelCost::default();
        let az = a.merged(&z);
        prop_assert_eq!(az.flops.to_bits(), a.flops.to_bits());
        prop_assert_eq!(az.dram_bytes.to_bits(), a.dram_bytes.to_bits());
        prop_assert_eq!(az.launches.to_bits(), a.launches.to_bits());
        prop_assert_eq!(az.sort_keys.to_bits(), a.sort_keys.to_bits());
    }
}

/// Commutativity is checked on *totals*: the charged time for a merged
/// descriptor is order-independent because merging is plain addition
/// per field. (kernel_ns(a⊕b) ≠ kernel_ns(a) + kernel_ns(b) in general
/// — max(compute, dram) overlaps — and that is intentional.)
#[test]
fn merged_overlap_can_beat_sum_of_parts() {
    let m = CostModel::new(CostParams::rtx4090());
    let a = KernelCost::streaming(1e12, 0.0); // compute-bound
    let b = KernelCost::streaming(0.0, 1e10); // memory-bound
    let merged = m.kernel_ns(&a.merged(&b));
    let parts = m.kernel_ns(&a) + m.kernel_ns(&b);
    assert!(
        merged <= parts,
        "overlap must never charge more than serial parts: {merged} vs {parts}"
    );
}
