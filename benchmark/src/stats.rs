//! Order statistics, stated once so every row uses the same rule.

/// A duration in milliseconds, the unit of every latency row.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the two middle values for an even count).
/// Empty input gives NaN, which the result writer reports as a failure.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the driver's acceptance check uses that function. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run spread `compare` weighs against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2.abs())
}

/// Percentiles a tail row may report, in tenths of a percent (integers,
/// so "ten samples beyond" is exact).
const LADDER_PERMILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile on the ladder 50/90/95/99/99.9 that still has at
/// least ten samples beyond it, with its nearest-rank value. With fewer
/// than twenty samples not even the median qualifies; the median is
/// reported all the same and the caller states the sample count.
pub fn highest_supported_percentile(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let supported = LADDER_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .unwrap_or(500) as f64
        / 10.0;
    (supported, percentile(values, supported))
}

/// Nearest-rank percentile `p` in `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The guard keeps 90 % of 100 at rank 90 when the product rounds up.
    let rank = (p * v.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// Values checked against CPython 3:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` = [2.75, 5.5, 8.25]
    /// `statistics.quantiles([10.0, 12.0], n=4)` = [9.5, 11.0, 12.5]
    /// `statistics.quantiles([3, 1, 4, 1, 5], n=4)` = [1.0, 3.0, 4.5]
    #[test]
    fn quartiles_match_python_statistics() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[10.0, 12.0]), Some([9.5, 11.0, 12.5]));
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        let n = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        assert_eq!(highest_supported_percentile(&n(19)).0, 50.0);
        assert_eq!(highest_supported_percentile(&n(20)).0, 50.0);
        assert_eq!(highest_supported_percentile(&n(99)).0, 50.0);
        assert_eq!(highest_supported_percentile(&n(100)), (90.0, 90.0));
        assert_eq!(highest_supported_percentile(&n(199)).0, 90.0);
        assert_eq!(highest_supported_percentile(&n(200)), (95.0, 190.0));
        assert_eq!(highest_supported_percentile(&n(1000)), (99.0, 990.0));
        assert_eq!(highest_supported_percentile(&n(10_000)).0, 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
