//! Property-based tests of the simulator's primitives and cost model.

use gpusim::cost::{CostModel, CostParams, KernelCost};
use gpusim::occupancy::{occupancy, BlockResources, SmLimits};
use gpusim::primitives::{
    exclusive_scan_u32, reduce_by_key_sorted, reduce_sum_f64, segmented_reduce_sum_f64,
    sort_by_key_u32,
};
use gpusim::timeline::Ledger;
use gpusim::warp::{
    atomic_replay_degree, atomic_replay_excess, bank_conflict_degree, sectors_touched,
};
use gpusim::{Device, Phase};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sort_agrees_with_std_and_permutation_is_valid(
        keys in proptest::collection::vec(any::<u32>(), 0..500)
    ) {
        let dev = Device::rtx4090();
        let (sorted, perm) = sort_by_key_u32(&dev, Phase::Other, "s", &keys);
        let mut want = keys.clone();
        want.sort_unstable();
        prop_assert_eq!(&sorted, &want);
        // perm is a permutation of 0..n mapping into the original keys.
        let mut seen = vec![false; keys.len()];
        for (i, &p) in perm.iter().enumerate() {
            prop_assert!(!seen[p as usize]);
            seen[p as usize] = true;
            prop_assert_eq!(sorted[i], keys[p as usize]);
        }
    }

    #[test]
    fn sort_is_stable(keys in proptest::collection::vec(0u32..8, 0..200)) {
        let dev = Device::rtx4090();
        let (_, perm) = sort_by_key_u32(&dev, Phase::Other, "s", &keys);
        // Equal keys keep ascending original indices.
        for w in perm.windows(2) {
            if keys[w[0] as usize] == keys[w[1] as usize] {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn scan_prefix_property(vals in proptest::collection::vec(0u32..1000, 0..300)) {
        let dev = Device::rtx4090();
        let scan = exclusive_scan_u32(&dev, Phase::Other, "scan", &vals);
        prop_assert_eq!(scan.len(), vals.len() + 1);
        prop_assert_eq!(scan[0], 0);
        for i in 0..vals.len() {
            prop_assert_eq!(scan[i + 1], scan[i] + vals[i]);
        }
    }

    #[test]
    fn reduce_matches_sequential_sum(
        vals in proptest::collection::vec(-1e6f64..1e6, 0..2000)
    ) {
        let dev = Device::rtx4090();
        let got = reduce_sum_f64(&dev, Phase::Other, "r", &vals);
        let want: f64 = vals.iter().sum();
        prop_assert!((got - want).abs() <= 1e-6 * (1.0 + want.abs()));
    }

    #[test]
    fn segmented_reduce_matches_chunks(
        vals in proptest::collection::vec(-100.0f64..100.0, 1..300),
        seg in 1usize..20,
    ) {
        let dev = Device::rtx4090();
        let len = (vals.len() / seg) * seg;
        if len == 0 { return Ok(()); }
        let vals = &vals[..len];
        let out = segmented_reduce_sum_f64(&dev, Phase::Other, "sr", vals, seg);
        for (s, chunk) in vals.chunks(seg).enumerate() {
            let want: f64 = chunk.iter().sum();
            prop_assert!((out[s] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce_by_key_conserves_total(
        raw in proptest::collection::vec((0u32..32, -10.0f64..10.0), 0..300)
    ) {
        let dev = Device::rtx4090();
        let mut pairs = raw.clone();
        pairs.sort_by_key(|p| p.0);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let vals: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let (uk, sums) = reduce_by_key_sorted(&dev, Phase::Other, "rbk", &keys, &vals);
        let total_in: f64 = vals.iter().sum();
        let total_out: f64 = sums.iter().sum();
        prop_assert!((total_in - total_out).abs() < 1e-9);
        prop_assert!(uk.windows(2).all(|w| w[0] < w[1]), "unique keys ascending");
    }

    #[test]
    fn warp_statistics_are_bounded(
        addrs in proptest::collection::vec(0u64..100_000, 1..32)
    ) {
        let lanes = addrs.len() as u32;
        let sectors = sectors_touched(&addrs, 4, 32);
        prop_assert!(sectors >= 1 && sectors <= 2 * lanes as usize);
        let conflict = bank_conflict_degree(&addrs, 32);
        prop_assert!(conflict >= 1 && conflict <= lanes);
        let degree = atomic_replay_degree(&addrs);
        prop_assert!(degree >= 1 && degree <= lanes);
        let excess = atomic_replay_excess(&addrs);
        prop_assert!(excess <= (lanes - 1) as u64);
        // Degree and excess are consistent: all-same addresses maximize both.
        if excess == (lanes - 1) as u64 {
            prop_assert_eq!(degree, lanes);
        }
    }

    #[test]
    fn kernel_time_is_monotone_in_every_term(
        flops in 0.0f64..1e12,
        bytes in 0.0f64..1e10,
        atomics in 0.0f64..1e9,
    ) {
        let m = CostModel::new(CostParams::rtx4090());
        let base = KernelCost {
            flops,
            dram_bytes: bytes,
            gmem_atomics: atomics,
            launches: 1.0,
            ..Default::default()
        };
        let t0 = m.kernel_ns(&base);
        for bump in [
            KernelCost { flops: flops * 2.0 + 1.0, ..base },
            KernelCost { dram_bytes: bytes * 2.0 + 1.0, ..base },
            KernelCost { gmem_atomics: atomics * 2.0 + 1.0, ..base },
            KernelCost { gmem_atomic_replays: 1e6, ..base },
            KernelCost { sort_keys: 1e6, ..base },
        ] {
            prop_assert!(m.kernel_ns(&bump) >= t0, "bump reduced time");
        }
    }

    #[test]
    fn occupancy_is_monotone_in_resource_use(
        threads in 32u32..1024,
        smem in 0u32..100_000,
        regs in 0u32..128,
    ) {
        let limits = SmLimits::default();
        let threads = (threads / 32) * 32;
        if threads == 0 { return Ok(()); }
        let base = occupancy(
            BlockResources { threads, smem_bytes: smem, regs_per_thread: regs },
            &limits,
        );
        let heavier = occupancy(
            BlockResources {
                threads,
                smem_bytes: smem.saturating_add(8192),
                regs_per_thread: regs.saturating_add(16),
            },
            &limits,
        );
        prop_assert!(heavier.blocks_per_sm <= base.blocks_per_sm);
        prop_assert!(base.fraction <= 1.0 + 1e-12);
    }

    #[test]
    fn ring_all_reduce_monotone_in_bytes_and_devices(
        bytes in 1.0f64..1e9,
        k in 2usize..16,
    ) {
        let m = CostModel::new(CostParams::rtx4090());
        prop_assert!(m.ring_all_reduce_ns(bytes * 2.0, k) >= m.ring_all_reduce_ns(bytes, k));
        prop_assert!(m.ring_all_reduce_ns(bytes, k + 1) >= m.ring_all_reduce_ns(bytes, k) * 0.8);
    }

    /// The multi-stream makespan is sandwiched between the critical
    /// path (no schedule can beat the busiest stream, nor the longest
    /// single charge) and the serial sum (overlap never slows things
    /// down), and `overlap_saved_ns` is exactly their gap.
    #[test]
    fn stream_makespan_is_bounded_by_critical_path_and_serial_sum(
        charges in proptest::collection::vec(
            (0usize..4, 0.0f64..1e6, 0u32..3), 1..200),
        slots in 1u32..8,
    ) {
        let mut l = Ledger::with_slots(0, slots);
        let mut per_stream = [0.0f64; 4];
        let mut serial_sum = 0.0;
        let mut longest = 0.0f64;
        for &(s, ns, k) in &charges {
            l.charge_scheduled(s, "k", Phase::Other, ns, k);
            per_stream[s] += ns;
            serial_sum += ns;
            longest = longest.max(ns);
        }
        let critical = per_stream.iter().cloned().fold(longest, f64::max);
        let makespan = l.total_ns();
        prop_assert!(makespan <= serial_sum * (1.0 + 1e-12) + 1e-9,
            "makespan {makespan} exceeds serial sum {serial_sum}");
        prop_assert!(makespan >= critical * (1.0 - 1e-12) - 1e-9,
            "makespan {makespan} beats critical path {critical}");
        let saved = l.overlap_saved_ns();
        prop_assert!((saved - (serial_sum - makespan)).abs()
            <= 1e-9 * (1.0 + serial_sum.abs()),
            "overlap_saved {saved} != serial {serial_sum} - makespan {makespan}");
        // Phase subtotals are schedule-independent: the exact charged sum.
        prop_assert!((l.phase_ns(Phase::Other) - serial_sum).abs()
            <= 1e-9 * (1.0 + serial_sum.abs()));
    }

    /// Issuing every charge on the default stream reproduces the plain
    /// serial ledger bit-for-bit — clock, subtotals, and start stamps —
    /// regardless of the slot footprints involved.
    #[test]
    fn default_stream_schedule_is_bitwise_serial(
        charges in proptest::collection::vec((0.0f64..1e6, 0u32..9), 1..100),
        slots in 1u32..8,
    ) {
        let mut serial = Ledger::new(1000);
        let mut streamed = Ledger::with_slots(1000, slots);
        for &(ns, k) in &charges {
            let a = serial.charge("k", Phase::Histogram, ns);
            let b = streamed
                .charge_scheduled(0, "k", Phase::Histogram, ns, k)
                .start_ns;
            prop_assert_eq!(a.to_bits(), b.to_bits(), "start stamps diverged");
        }
        prop_assert_eq!(serial.total_ns().to_bits(), streamed.total_ns().to_bits());
        prop_assert_eq!(
            serial.phase_ns(Phase::Histogram).to_bits(),
            streamed.phase_ns(Phase::Histogram).to_bits()
        );
        prop_assert_eq!(streamed.overlap_saved_ns().to_bits(), 0.0f64.to_bits());
    }
}
