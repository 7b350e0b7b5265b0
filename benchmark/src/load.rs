//! Open-loop load: a seeded Poisson arrival schedule on the simulated
//! clock, and the search for the highest rate that meets a latency
//! limit.

/// SplitMix64: a tiny, well-mixed generator, enough to draw arrival
/// gaps reproducibly without pulling in an RNG crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in (0, 1].
    fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One open-loop request: when it is due, in units where the offered
/// rate is one request per nanosecond, and which held-out row it asks
/// to score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    pub due: f64,
    pub row: usize,
}

/// `count` requests of a Poisson process of rate 1 per nanosecond (due
/// times are cumulative sums of unit-mean exponential gaps), each asking
/// for a uniformly drawn one of `rows` rows. Scale `due` by `1e9 / rate`
/// for a stream of `rate` requests per second, so every rate replays the
/// same pattern, only compressed or stretched.
pub fn poisson_requests(count: usize, rows: usize, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64(seed);
    let mut due = 0.0;
    (0..count)
        .map(|_| {
            due += -rng.next_open01().ln();
            let row = (rng.next_u64() % rows as u64) as usize;
            Request { due, row }
        })
        .collect()
}

/// Highest rate in `[lo, hi]` for which `meets` holds, to a relative
/// resolution of `resolution` (e.g. 0.0025 = 0.25 %), by bisection on a
/// log scale. Assumes `meets` is monotone: true up to some knee, false
/// beyond. `None` when even `lo` fails.
pub fn capacity_search(
    lo: f64,
    hi: f64,
    resolution: f64,
    mut meets: impl FnMut(f64) -> bool,
) -> Option<f64> {
    if !meets(lo) {
        return None;
    }
    if meets(hi) {
        return Some(hi);
    }
    let (mut good, mut bad) = (lo, hi);
    while bad / good > 1.0 + resolution {
        let mid = (good * bad).sqrt();
        if meets(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_mean_rate_within_two_percent() {
        let n = 200_000;
        let a = poisson_requests(n, 1000, 42);
        assert_eq!(a, poisson_requests(n, 1000, 42));
        assert_ne!(a, poisson_requests(n, 1000, 43));
        assert!(
            a.windows(2).all(|w| w[1].due > w[0].due),
            "arrivals increase"
        );
        let rate_per_s = 64e6;
        let span_s = a[n - 1].due / rate_per_s;
        let observed = n as f64 / span_s;
        assert!(
            (observed / rate_per_s - 1.0).abs() < 0.02,
            "observed rate {observed} vs offered {rate_per_s}"
        );
        let mut hits = vec![0usize; 1000];
        a.iter().for_each(|r| hits[r.row] += 1);
        assert!(
            hits.iter().all(|&h| (100..300).contains(&h)),
            "rows drawn evenly"
        );
    }

    /// Latency of an M/D/1-like server whose service rate is `knee`:
    /// flat below the knee, blowing up past it.
    fn synthetic_p99(rate: f64, knee: f64) -> f64 {
        let rho = rate / knee;
        if rho >= 1.0 {
            f64::INFINITY
        } else {
            1_000.0 / (1.0 - rho)
        }
    }

    #[test]
    fn capacity_search_finds_a_known_knee() {
        for knee in [3.0e6, 96.0e6, 250.0e6] {
            // Limit 50 µs ⇒ the highest passing rate is knee·(1 − 1/50).
            let truth = knee * (1.0 - 1_000.0 / 50_000.0);
            let found = capacity_search(1e6, 1e9, 0.0025, |r| synthetic_p99(r, knee) <= 50_000.0)
                .expect("1e6 meets the limit");
            assert!(found <= truth, "{found} beyond the knee {truth}");
            assert!(found >= truth / 1.0025, "{found} too far below {truth}");
        }
    }

    #[test]
    fn capacity_is_monotone_in_the_knee() {
        let mut last = 0.0;
        for i in 1..60 {
            let knee = 2e6 * 1.1f64.powi(i);
            let found = capacity_search(1e6, 1e9, 0.0025, |r| synthetic_p99(r, knee) <= 50_000.0)
                .expect("1e6 meets the limit");
            assert!(found >= last, "knee {knee}: {found} < {last}");
            last = found;
        }
    }

    #[test]
    fn capacity_search_edges() {
        assert_eq!(capacity_search(1e6, 1e9, 0.01, |_| false), None);
        assert_eq!(capacity_search(1e6, 1e9, 0.01, |_| true), Some(1e9));
    }
}
