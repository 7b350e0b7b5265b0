//! Property-based tests of the simulator's sort primitives, warp
//! analysis and cost model.

use gpusim::cost::{CostModel, CostParams, KernelCost};
use gpusim::occupancy::{occupancy, BlockResources, SmLimits};
use gpusim::primitives::{reduce_by_key_sorted, sort_by_key_u32};
use gpusim::timeline::Ledger;
use gpusim::warp::sectors_touched;
use gpusim::{Device, Event, Phase};
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

    /// The multi-stream makespan is sandwiched between the critical
    /// path (no schedule can beat the busiest stream, nor the longest
    /// single charge) and the serial sum plus the time charges waited
    /// on fences (overlap never slows things down). Fences past the
    /// clock, as another device's events are, book their gap as
    /// waiting: `overlap_saved_ns` never goes negative, and the serial
    /// sum plus the waiting is the makespan plus the savings.
    #[test]
    fn stream_makespan_is_bounded_by_critical_path_and_serial_sum(
        charges in proptest::collection::vec(
            (0usize..4, 0.0f64..1e6, 0u32..3, 0u32..3, 0.0f64..2e6), 1..200),
        slots in 1u32..8,
    ) {
        let mut l = Ledger::with_slots(0, slots);
        let mut per_stream = [0.0f64; 4];
        let mut serial_sum = 0.0;
        let mut longest = 0.0f64;
        for &(s, ns, k, wait, ahead) in &charges {
            if wait == 0 {
                // A fence up to 2 ms past the device clock.
                l.wait_event(s, Event::at_ns(l.total_ns() + ahead));
            }
            l.charge_scheduled(s, "k", Phase::Other, ns, k);
            per_stream[s] += ns;
            serial_sum += ns;
            longest = longest.max(ns);
        }
        let critical = per_stream.iter().cloned().fold(longest, f64::max);
        let makespan = l.total_ns();
        let (saved, waited) = (l.overlap_saved_ns(), l.waited_ns());
        let tol = 1e-9 * (1.0 + serial_sum + waited);
        prop_assert!(saved >= 0.0, "overlap_saved {saved} is negative");
        prop_assert!(waited >= 0.0, "waited {waited} is negative");
        prop_assert!(makespan <= (serial_sum + waited) * (1.0 + 1e-12) + 1e-9,
            "makespan {makespan} exceeds serial sum {serial_sum} + waited {waited}");
        prop_assert!(makespan >= critical * (1.0 - 1e-12) - 1e-9,
            "makespan {makespan} beats critical path {critical}");
        prop_assert!((serial_sum + waited - (makespan + saved)).abs() <= tol,
            "serial {serial_sum} + waited {waited} != makespan {makespan} + saved {saved}");
        if charges.iter().all(|c| c.3 != 0) {
            prop_assert_eq!(waited.to_bits(), 0.0f64.to_bits());
        }
        let summary = l.summary();
        prop_assert_eq!(summary.waited_ns.to_bits(), waited.to_bits());
        prop_assert_eq!(summary.overlap_saved_ns.to_bits(), saved.to_bits());
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
