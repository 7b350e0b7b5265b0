//! Key sorting and key-grouped reduction — the simulator's CUB layer and
//! the backbone of the paper's *sort-and-reduce* histogram strategy
//! (§3.3.4).
//!
//! `sort_by_key_u32` is a stable LSD radix sort over 8-bit digits (four
//! passes for 32-bit keys), matching how CUB's `DeviceRadixSort`
//! processes keys; the cost model charges its measured-throughput
//! equivalent. `reduce_by_key_sorted` then collapses runs of equal keys,
//! exactly like `thrust::reduce_by_key` on pre-sorted input. Both compute
//! their real result on the host and charge the owning device; the
//! callers name the kernel and the [`Phase`] it is attributed to.
//! `gbdt-core`'s `hist::sortreduce::build_exact_via_sort` routes a node
//! histogram through them as the reference the production accumulation
//! is tested against.

use crate::cost::KernelCost;
use crate::device::{Device, Phase};
use rayon::prelude::*;

/// Number of radix passes for 32-bit keys with 8-bit digits.
const RADIX_PASSES: usize = 4;

/// Stable radix sort of `keys`; returns `(sorted_keys, permutation)`
/// where `sorted_keys[i] = keys[permutation[i]]`.
pub fn sort_by_key_u32(
    dev: &Device,
    phase: Phase,
    name: &'static str,
    keys: &[u32],
) -> (Vec<u32>, Vec<u32>) {
    let n = keys.len();
    assert!(n < u32::MAX as usize, "sort index space exceeds u32");

    let mut cur_keys: Vec<u32> = keys.to_vec();
    let mut cur_idx: Vec<u32> = (0..n as u32).collect();
    let mut next_keys: Vec<u32> = vec![0; n];
    let mut next_idx: Vec<u32> = vec![0; n];

    for pass in 0..RADIX_PASSES {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &k in &cur_keys {
            counts[((k >> shift) & 0xFF) as usize] += 1;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0;
        for d in 0..256 {
            offsets[d] = acc;
            acc += counts[d];
        }
        for i in 0..n {
            let d = ((cur_keys[i] >> shift) & 0xFF) as usize;
            let dst = offsets[d];
            offsets[d] += 1;
            next_keys[dst] = cur_keys[i];
            next_idx[dst] = cur_idx[i];
        }
        std::mem::swap(&mut cur_keys, &mut next_keys);
        std::mem::swap(&mut cur_idx, &mut next_idx);
    }

    dev.charge_kernel(
        name,
        phase,
        &KernelCost {
            sort_keys: n as f64,
            // Keys + payload move through DRAM once per pass.
            dram_bytes: (n * 8 * RADIX_PASSES) as f64,
            launches: RADIX_PASSES as f64 * 2.0, // histogram + scatter per pass
            ..Default::default()
        },
    );
    (cur_keys, cur_idx)
}

/// Collapse runs of equal keys in pre-sorted input, summing values:
/// returns `(unique_keys, sums)`.
pub fn reduce_by_key_sorted(
    dev: &Device,
    phase: Phase,
    name: &'static str,
    sorted_keys: &[u32],
    vals: &[f64],
) -> (Vec<u32>, Vec<f64>) {
    assert_eq!(sorted_keys.len(), vals.len(), "key/value length mismatch");
    debug_assert!(
        sorted_keys.windows(2).all(|w| w[0] <= w[1]),
        "reduce_by_key_sorted requires sorted keys"
    );
    let n = sorted_keys.len();

    // Head flags → run boundaries, then per-run sequential sums in
    // parallel over runs (deterministic: runs are disjoint).
    let mut boundaries: Vec<usize> = Vec::new();
    for i in 0..n {
        if i == 0 || sorted_keys[i] != sorted_keys[i - 1] {
            boundaries.push(i);
        }
    }
    boundaries.push(n);

    let uniq: Vec<u32> = boundaries[..boundaries.len().saturating_sub(1)]
        .iter()
        .map(|&b| sorted_keys[b])
        .collect();
    let sums: Vec<f64> = boundaries
        .par_windows(2)
        .map(|w| vals[w[0]..w[1]].iter().sum())
        .collect();

    dev.charge_kernel(
        name,
        phase,
        &KernelCost {
            flops: 2.0 * n as f64,
            dram_bytes: (n * 12 + uniq.len() * 12) as f64,
            launches: 2.0,
            ..Default::default()
        },
    );
    (uniq, sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sort_orders_and_permutes() {
        let dev = Device::rtx4090();
        let keys = vec![5u32, 1, 4, 1, 3];
        let (sorted, perm) = sort_by_key_u32(&dev, Phase::Other, "sort", &keys);
        assert_eq!(sorted, vec![1, 1, 3, 4, 5]);
        for (i, &p) in perm.iter().enumerate() {
            assert_eq!(sorted[i], keys[p as usize]);
        }
    }

    #[test]
    fn sort_is_stable() {
        let dev = Device::rtx4090();
        // Two equal keys: original order of their indices must persist.
        let keys = vec![2u32, 7, 2, 7, 2];
        let (_, perm) = sort_by_key_u32(&dev, Phase::Other, "sort", &keys);
        assert_eq!(perm, vec![0, 2, 4, 1, 3]);
    }

    #[test]
    fn sort_random_agrees_with_std() {
        let dev = Device::rtx4090();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let keys: Vec<u32> = (0..10_000).map(|_| rng.gen()).collect();
        let (sorted, _) = sort_by_key_u32(&dev, Phase::Other, "sort", &keys);
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn sort_empty() {
        let dev = Device::rtx4090();
        let (s, p) = sort_by_key_u32(&dev, Phase::Other, "sort", &[]);
        assert!(s.is_empty() && p.is_empty());
    }

    #[test]
    fn reduce_by_key_sums_runs() {
        let dev = Device::rtx4090();
        let keys = vec![1u32, 1, 3, 3, 3, 9];
        let vals = vec![1.0, 2.0, 10.0, 20.0, 30.0, 100.0];
        let (uk, sums) = reduce_by_key_sorted(&dev, Phase::Other, "rbk", &keys, &vals);
        assert_eq!(uk, vec![1, 3, 9]);
        assert_eq!(sums, vec![3.0, 60.0, 100.0]);
    }

    #[test]
    fn reduce_by_key_empty() {
        let dev = Device::rtx4090();
        let (uk, sums) = reduce_by_key_sorted(&dev, Phase::Other, "rbk", &[], &[]);
        assert!(uk.is_empty() && sums.is_empty());
    }

    #[test]
    fn sort_reduce_pipeline_builds_histogram() {
        // End-to-end sanity of the sort-and-reduce histogram path.
        let dev = Device::rtx4090();
        let keys = vec![2u32, 0, 2, 1, 0, 2];
        let weights = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let (sorted, perm) = sort_by_key_u32(&dev, Phase::Other, "s", &keys);
        let permuted: Vec<f64> = perm.iter().map(|&p| weights[p as usize]).collect();
        let (uk, sums) = reduce_by_key_sorted(&dev, Phase::Other, "r", &sorted, &permuted);
        assert_eq!(uk, vec![0, 1, 2]);
        assert_eq!(sums, vec![2.0, 1.0, 3.0]);
    }
}
