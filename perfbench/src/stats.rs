//! Order statistics for the report: medians, the tail percentile rule
//! and quartile spreads.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value, which percentile it is, and the sample
/// count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic.
    pub value: f64,
    /// The percentile it sits at (99 when the sample is large enough).
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// Sorts a copy of `values` (NaN-free by construction of the callers).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `q`-quantile of an ascending slice; 0 when empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of unsorted values; 0 when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The p99, or — when fewer than [`TAIL_BEYOND`] samples would lie
/// beyond it — the highest percentile that still leaves that many
/// beyond it. `None` below `TAIL_BEYOND + 1` samples.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - TAIL_BEYOND);
    Some(Tail { value: sorted[rank - 1], percentile: 100.0 * rank as f64 / n as f64, samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn large_samples_report_the_true_p99_with_ten_beyond() {
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 1000);
        let t = tail(&ramp(5000)).unwrap();
        assert_eq!(t.value, 4950.0, "p99 rank leaves 50 beyond");
    }

    #[test]
    fn small_samples_fall_back_to_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(t.value, 90.0, "exactly ten samples beyond");
        assert_eq!(t.percentile, 90.0);
        let t = tail(&ramp(48)).unwrap();
        assert_eq!(t.value, 38.0);
        assert!((t.percentile - 79.166_666).abs() < 1e-3);
        assert_eq!(tail(&ramp(11)).unwrap().value, 1.0);
        assert!(tail(&ramp(10)).is_none(), "no percentile leaves ten beyond");
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
