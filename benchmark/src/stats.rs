//! Order statistics for latency samples and run-to-run spread.

/// Sort a sample ascending (NaN-free input; NaNs would sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` of the sample at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether a tail percentile may be reported from `n` samples: at least
/// ten of them must lie beyond it (choosing-metrics §1), so p90 needs
/// 100 samples and p99 needs 1000.
pub fn tail_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p) >= 10.0 - 1e-9
}

/// A tail percentile, or `None` when fewer than ten samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    tail_supported(sorted.len(), p)
        .then(|| percentile(sorted, p))
        .flatten()
}

/// Nearest-rank median of an unsorted sample.
pub fn p50(v: &[f64]) -> Option<f64> {
    percentile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Median by midpoint interpolation (Python's `statistics.median`).
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them — the rule the driver applies to ten runs. Needs two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a metric's bound is compared with.
pub fn rel_spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(99, 0.9));
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.9), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 0.9), Some(90.0));
        // Exactly ten samples (91..=100) lie beyond the reported p90.
        assert_eq!(s.iter().filter(|&&x| x > 90.0).count(), 10);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
        assert!((rel_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
