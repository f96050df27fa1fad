//! Order statistics over timing samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie above a reported percentile.
const TAIL_MIN_ABOVE: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be sorted
/// ascending and non-empty: the smallest sample with at least `p`% of the
/// samples at or below it.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of `samples` (lower median for an even count, as nearest-rank
/// gives it). Returns `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 50.0))
}

/// The highest percentile of [`TAIL_LADDER`] no higher than `max_p` with
/// at least [`TAIL_MIN_ABOVE`] samples strictly above its rank, as
/// `(percentile, value)`. `None` when even the median lacks them.
fn tail(samples: &[f64], max_p: f64) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .filter(|&&p| p <= max_p)
        .find(|&&p| n > 0 && n - 1 - rank(n, p) >= TAIL_MIN_ABOVE)
        .map(|&p| (p, percentile(&sorted, p)))
}

/// A sample's median and tails, with its size. A tail the sample cannot
/// support falls back to the median.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`: the highest supported percentile up to p99.
    pub tail: (f64, f64),
    /// The same, capped at p90: the end-to-end tail. On a shared 2-core
    /// host a p99 of the same build moves by a third between runs, a p90
    /// by a few percent.
    pub tail90: (f64, f64),
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let p50 = median(samples)?;
        Some(Summary {
            n: samples.len(),
            p50,
            tail: tail(samples, 99.0).unwrap_or((50.0, p50)),
            tail90: tail(samples, 90.0).unwrap_or((50.0, p50)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_above() {
        // p99 of 1000 samples is the 990th: exactly 10 samples above it.
        assert_eq!(tail(&ramp(1000), 99.0), Some((99.0, 990.0)));
        // One sample fewer leaves only 9 above p99, so p95 is reported.
        assert_eq!(tail(&ramp(999), 99.0).map(|t| t.0), Some(95.0));
        // 57 samples: p90 (rank 52) has 5 above, p75 (rank 43) has 14.
        assert_eq!(tail(&ramp(57), 99.0), Some((75.0, 43.0)));
        // 20 samples support the median only; 19 support nothing.
        assert_eq!(tail(&ramp(20), 99.0), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19), 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
        // A cap keeps the tail at or below it.
        assert_eq!(tail(&ramp(1000), 90.0), Some((90.0, 900.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut s = ramp(200);
        s.reverse();
        assert_eq!(tail(&s, 99.0), Some((95.0, 190.0)));
    }

    #[test]
    fn summary_falls_back_to_median_without_a_supported_tail() {
        let s = Summary::of(&ramp(5)).expect("non-empty");
        assert_eq!(
            (s.n, s.p50, s.tail, s.tail90),
            (5, 3.0, (50.0, 3.0), (50.0, 3.0))
        );
        assert!(Summary::of(&[]).is_none());
    }
}
