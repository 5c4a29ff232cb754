//! Exact sample statistics: nearest-rank percentiles over sorted samples.
//!
//! No bucketing: a percentile is one of the recorded samples. A percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it, so
//! a tail figure always rests on a tail, not on one or two outliers.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank index (0-based) of quantile `q` in `n` sorted samples:
/// the smallest rank `r` with `r / n >= q`.
pub fn nearest_rank_index(n: usize, q: f64) -> usize {
    assert!(n > 0, "nearest rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `q` of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    let i = nearest_rank_index(sorted.len(), q);
    let beyond = sorted.len() - 1 - i;
    (beyond >= MIN_BEYOND).then(|| sorted[i])
}

/// Sorts samples ascending (total order, so NaN cannot panic the sort).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// The median of a small set of repeated measurements (set-up times,
/// per-pass rates). Unlike [`percentile`] it needs no tail: it summarises
/// repeats of one quantity rather than a latency distribution.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs.to_vec());
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank_index(1, 0.5), 0);
        assert_eq!(nearest_rank_index(2, 0.5), 0);
        assert_eq!(nearest_rank_index(3, 0.5), 1);
        assert_eq!(nearest_rank_index(100, 0.99), 98);
        assert_eq!(nearest_rank_index(100, 1.0), 99);
        assert_eq!(nearest_rank_index(100, 0.0), 0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p50 of 20 samples: rank 10, ten samples beyond it.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        // 19 samples: rank 10, nine beyond -> withheld.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        // p99 needs 1000 samples: rank 990, ten beyond.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        // The maximum never has samples beyond it.
        assert_eq!(percentile(&ramp(5000), 1.0), None);
    }

    #[test]
    fn percentile_is_a_recorded_sample_not_a_bucket() {
        // Latencies a power-of-two histogram would round to 128/256/512.
        let xs = sorted((0..40).map(|i| 130.0 + i as f64 * 3.0).collect());
        let p50 = percentile(&xs, 0.5).unwrap();
        assert!(xs.contains(&p50));
        assert_eq!(p50, 130.0 + 19.0 * 3.0);
    }

    #[test]
    fn percentile_with_ties() {
        let xs = vec![7.0; 30];
        assert_eq!(percentile(&xs, 0.5), Some(7.0));
    }

    #[test]
    fn median_and_mean_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
