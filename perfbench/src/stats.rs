//! Summary statistics of a run's latency samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `⌈p·n/100⌉`. A percentile is
//! only *supported* when at least [`MIN_BEYOND`] samples lie beyond that
//! rank — fewer, and the value is set by a handful of outliers.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples (at least 1).
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p·n/100` (99.9 × 10 000 is not exact)
    // from pushing an integral rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile of `sorted` (ascending) by the nearest-rank rule;
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Whether `n` samples support percentile `p` (at least [`MIN_BEYOND`]
/// samples beyond its rank).
pub fn supports(n: usize, p: f64) -> bool {
    n >= MIN_BEYOND && n - nearest_rank(n, p) >= MIN_BEYOND
}

/// The highest of `candidates` that `n` samples support, if any.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| supports(n, p))
        .fold(None, |best, p| match best {
            Some(b) if b >= p => Some(b),
            _ => Some(p),
        })
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median (the nearest-rank 50th percentile) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 5.0);
        assert_eq!(percentile(&samples, 90.0), 9.0);
        assert_eq!(percentile(&samples, 91.0), 10.0);
        assert_eq!(percentile(&samples, 100.0), 10.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        // p99 needs 1000 samples.
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(5, 50.0));
    }

    #[test]
    fn highest_supported_percentile_grows_with_the_sample_count() {
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_supported(15, &candidates), None);
        assert_eq!(highest_supported(20, &candidates), Some(50.0));
        assert_eq!(highest_supported(120, &candidates), Some(90.0));
        assert_eq!(highest_supported(5000, &candidates), Some(99.0));
        assert_eq!(highest_supported(10_000, &candidates), Some(99.9));
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
