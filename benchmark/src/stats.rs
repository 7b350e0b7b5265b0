//! Order statistics used to summarise repeated measurements.

/// Ascending copy of `values` (NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here match the ones computed over whole runs. Needs
/// at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |j: usize| -> f64 {
        // Position j·(n+1)/4 on the 1-based order; the bracketing pair is
        // clamped to the ends and interpolation extends past them.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let k = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - k as f64;
        v[k - 1] + (v[k] - v[k - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `sorted_values`, which must
/// be sorted ascending and non-empty. The same rule as
/// `BatchServer::stats`, so the two can be cross-checked.
pub fn nearest_rank(sorted_values: &[f64], q: f64) -> f64 {
    let n = sorted_values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted_values[rank - 1]
}

/// Percentiles a timing may be reported at, highest first.
const REPORTABLE: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// The highest reportable percentile that still has at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    REPORTABLE.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + 10
    })
}

/// `"p99=1234"`-style summary of the highest supported percentile of an
/// ascending sample, or a note that the sample is too small for one.
pub fn tail_summary(sorted_values: &[f64]) -> String {
    match supported_percentile(sorted_values.len()) {
        Some(q) => format!("p{}={:.6}", q * 100.0, nearest_rank(sorted_values, q)),
        None => format!(
            "no percentile has 10 samples beyond it (n={})",
            sorted_values.len()
        ),
    }
}

/// Mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: with
        // two values Python extrapolates past the ends.
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // Rank rounds up: 0.9 of 15 is 13.5 → rank 14.
        let w: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 0.9), 14.0);
    }

    #[test]
    fn reported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(200_000), Some(0.9999));
        for n in 0..3000 {
            if let Some(q) = supported_percentile(n) {
                let rank = (q * n as f64).ceil() as usize;
                assert!(n - rank >= 10, "n={n} q={q}");
            }
        }
    }
}
