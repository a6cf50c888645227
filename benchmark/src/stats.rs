//! Order statistics for reporting timings.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no samples is a bug in the
/// benchmark, not a value to report.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by nearest rank: the smallest
/// sample with at least `q·n` samples at or below it.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(q, v.len()) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples. The
/// epsilon keeps a product such as `0.95 * 100`, which floating point
/// may land a hair above 95, from being rounded up a whole rank.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentiles a report may quote, lowest first.
const TAILS: [(&str, f64); 4] = [
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p99.9", 0.999),
];

/// The highest percentile of `xs` that still has **at least ten
/// samples beyond it**, with its label — the only tail a report may
/// quote, because a percentile resting on fewer samples is one or two
/// outliers, not a distribution. `None` below 100 samples (p90 of 99
/// leaves nine).
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    let n = xs.len();
    TAILS
        .iter()
        .rev()
        .find(|&&(_, q)| n > 0 && n - rank(q, n) >= 10)
        .map(|&(label, q)| (label, percentile(xs, q)))
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method) gives them —
/// the rule the acceptance check is stated in.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 99 samples: p90 sits at rank 90 and leaves only nine.
        assert_eq!(tail(&of(99)), None);
        // 100 samples: p90 leaves exactly ten.
        assert_eq!(tail(&of(100)), Some(("p90", 90.0)));
        // 300 samples: p95 leaves 15, p99 would leave 3.
        assert_eq!(tail(&of(300)), Some(("p95", 285.0)));
        // 1000 samples: p99 leaves 10; p99.9 would leave 1.
        assert_eq!(tail(&of(1000)), Some(("p99", 990.0)));
        assert_eq!(tail(&of(10_000)), Some(("p99.9", 9990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3.1, 2.9, 3.0, 3.4, 3.2], n=4)
        //   == [2.95, 3.1, 3.3]
        let (q1, q2, q3) = quartiles(&[3.1, 2.9, 3.0, 3.4, 3.2]);
        assert!((q1 - 2.95).abs() < 1e-12 && q2 == 3.1 && (q3 - 3.3).abs() < 1e-12);
    }
}
