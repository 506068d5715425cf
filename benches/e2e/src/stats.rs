//! Order statistics the harness reports and calibrates with.

/// Linear-interpolated percentile `q ∈ [0, 1]` of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The reporting rule for timings: alongside the median, report the highest
/// of the candidate percentiles that still has at least ten samples beyond
/// it. `None` when even the lowest candidate has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75].into_iter().find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) computes
/// them, so `calibrate` prints the spread the acceptance rule is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_ignores_input_order() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.75), 3.25);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(iqr_share(&v), 1.0);
    }
}
