//! Summary statistics the harness reports.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples:
/// the smallest rank `r` with `r / n >= p / 100`.
pub fn rank(n: usize, p: u32) -> usize {
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank `p`-th percentile (`None` when there are no samples).
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Samples strictly beyond the `p`-th percentile among `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether a `p`-th percentile over `n` samples has [`TAIL_BEYOND`]
/// samples beyond it, so the tail is measured rather than extrapolated.
pub fn tail_ok(n: usize, p: u32) -> bool {
    beyond(n, p) >= TAIL_BEYOND
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50).unwrap_or(f64::NAN)
}

/// First, second and third quartile by the "exclusive" method that
/// Python's `statistics.quantiles(values, n=4)` uses by default.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len() as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        // Python clamps the index first and then extrapolates with the
        // (possibly out-of-range) exact remainder.
        let j = (i * m / 4).clamp(1, d.len() as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// Failed ops as a share of attempted ops (0 when nothing was attempted).
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    assert!(
        failed <= attempted,
        "{failed} failed of {attempted} attempted"
    );
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(5.0));
        assert_eq!(percentile(&v, 90), Some(9.0));
        assert_eq!(percentile(&v, 91), Some(10.0));
        assert_eq!(percentile(&v, 100), Some(10.0));
        assert_eq!(percentile(&v, 1), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        // Unsorted input, and the rank uses exact integer arithmetic.
        let w: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&w, 90), Some(899.0));
        assert_eq!(percentile(&w, 99), Some(989.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99), 10);
        assert!(tail_ok(1000, 99));
        assert!(!tail_ok(999, 99));
        assert!(tail_ok(100, 90) && !tail_ok(99, 90));
        assert!(tail_ok(20, 50) && !tail_ok(19, 50));
        assert!(!tail_ok(100_000, 100));
        assert_eq!(beyond(0, 50), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn failed_fraction() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(40, 0), 0.0);
        assert_eq!(failed_frac(40, 10), 0.25);
        assert_eq!(failed_frac(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "failed of")]
    fn more_failures_than_attempts_is_a_bug() {
        failed_frac(1, 2);
    }
}
