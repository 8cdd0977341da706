//! Sample summaries: the median plus the highest percentile that still
//! has at least ten samples beyond it, and the sample count.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// A summarized sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median: the middle sample, or the mean of the middle two.
    pub median: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least [`MIN_BEYOND`] samples above it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank index of percentile `p` in a sorted set of `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // In integer per-mille, so 99.9 % of 10 000 is rank 9 990 exactly.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Value at percentile `p` (nearest rank) of `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len())]
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// samples strictly beyond its rank in a set of `n`.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(p, n) >= MIN_BEYOND)
}

/// Summarizes `samples` (any order).
///
/// # Panics
///
/// Panics on an empty set or a NaN sample.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    Summary {
        n: sorted.len(),
        median,
        tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
    }
}

/// Median of `samples` (any order), as Python's `statistics.median`
/// takes it: with an even count, the mean of the middle two, so the
/// median of two passes is not simply the faster one.
///
/// # Panics
///
/// Panics on an empty set.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: the median sits at rank 10, leaving exactly 10 above.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
    }

    #[test]
    fn reported_tail_leaves_ten_samples_beyond() {
        for n in [20, 57, 100, 640, 1000, 4321, 10_000] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&samples);
            let (p, value) = s.tail.expect("tail present");
            let beyond = samples.iter().filter(|&&x| x > value).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p}: {beyond} beyond");
            // And the next rung up would leave fewer than ten.
            if let Some(&higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                let v = percentile(&samples, higher);
                assert!(samples.iter().filter(|&&x| x > v).count() < MIN_BEYOND);
            }
        }
    }

    #[test]
    fn median_is_order_free_and_averages_an_even_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[20.0, 18.0]), 19.0);
        let s = summarize(&[5.0]);
        assert_eq!((s.n, s.median, s.tail), (1, 5.0, None));
    }
}
