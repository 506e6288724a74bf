//! Order statistics the harness reports: medians, quartiles,
//! nearest-rank percentiles with the "ten samples beyond" rule, geomeans.

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is what the acceptance rule takes spreads from. Needs at least
/// two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // j = i*(n+1)/4 clamped to [1, n-1]; interpolate between v[j-1], v[j].
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the usual percentiles (p50, p90, p99, p99.9) that still
/// has at least ten samples beyond it, as `(numerator, denominator)`;
/// `None` when even the median has fewer than ten samples above it.
pub fn highest_reportable_percentile(samples: usize) -> Option<(u64, u64)> {
    [(999, 1000), (99, 100), (90, 100), (50, 100)]
        .into_iter()
        .find(|&(num, den)| samples_beyond(samples, num, den) >= 10)
}

/// Samples strictly above the nearest-rank `num/den` percentile of a
/// `samples`-element distribution.
pub fn samples_beyond(samples: usize, num: u64, den: u64) -> usize {
    let n = samples as u64;
    let rank = (num * n).div_ceil(den).max(1);
    (n - rank.min(n)) as usize
}

/// Geometric mean of strictly positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of no ratios");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn ten_beyond_rule_picks_the_percentile() {
        // 1000 samples: p99 has exactly ten beyond it, p99.9 only one.
        assert_eq!(samples_beyond(1000, 99, 100), 10);
        assert_eq!(samples_beyond(1000, 999, 1000), 1);
        assert_eq!(highest_reportable_percentile(1000), Some((99, 100)));
        assert_eq!(highest_reportable_percentile(999), Some((90, 100)));
        assert_eq!(highest_reportable_percentile(10_000), Some((999, 1000)));
        assert_eq!(highest_reportable_percentile(20), Some((50, 100)));
        assert_eq!(highest_reportable_percentile(19), None);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
    }
}
