//! Order statistics over raw samples, and the percentile rule every
//! reported tail follows.

/// Percentiles the benchmark may report, in basis points (1/10000), from
/// the highest down.
const PERCENTILES_BP: [u64; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// The minimum number of samples that must lie beyond a reported
/// percentile; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: u64 = 10;

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `bp` (basis points).
pub fn samples_beyond(n: u64, bp: u64) -> u64 {
    let rank = (n * bp).div_ceil(10_000);
    n - rank
}

/// Whether `n` samples support reporting percentile `bp`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: u64, bp: u64) -> bool {
    samples_beyond(n, bp) >= MIN_BEYOND
}

/// The highest reportable percentile (in basis points) for `n` samples,
/// or `None` when even the median has too few samples beyond it.
pub fn highest_supported(n: u64) -> Option<u64> {
    PERCENTILES_BP.into_iter().find(|&bp| supports(n, bp))
}

/// Renders a percentile given in basis points as `p99.9`, `p50`, ….
pub fn percentile_label(bp: u64) -> String {
    let whole = bp / 100;
    let frac = bp % 100;
    if frac == 0 {
        format!("p{whole}")
    } else if frac.is_multiple_of(10) {
        format!("p{whole}.{}", frac / 10)
    } else {
        format!("p{whole}.{frac:02}")
    }
}

/// Nearest-rank quantile of an ascending slice; `bp` in basis points.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], bp: u64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len() as u64;
    let rank = (n * bp).div_ceil(10_000).max(1);
    sorted[(rank - 1) as usize]
}

/// Median of a sample set (the mean of the two middle values for an
/// even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sorts samples ascending and returns them, for repeated quantiles.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(samples_beyond(1_000, 9_900), 10);
        assert!(supports(1_000, 9_900));
        assert_eq!(samples_beyond(999, 9_900), 9);
        assert!(!supports(999, 9_900));
    }

    #[test]
    fn highest_supported_percentile_steps_down_with_sample_count() {
        assert_eq!(highest_supported(100_000), Some(9_999));
        assert_eq!(highest_supported(99_999), Some(9_990));
        assert_eq!(highest_supported(10_000), Some(9_990));
        assert_eq!(highest_supported(9_999), Some(9_900));
        assert_eq!(highest_supported(100), Some(9_000));
        assert_eq!(highest_supported(20), Some(5_000));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn labels_render_fractional_percentiles() {
        assert_eq!(percentile_label(9_999), "p99.99");
        assert_eq!(percentile_label(9_990), "p99.9");
        assert_eq!(percentile_label(9_900), "p99");
        assert_eq!(percentile_label(5_000), "p50");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&values, 5_000), 50.0);
        assert_eq!(quantile_sorted(&values, 9_900), 99.0);
        assert_eq!(quantile_sorted(&values, 10_000), 100.0);
        assert_eq!(quantile_sorted(&values, 1), 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
