//! Fixed-bucket latency histograms for the serving layer.
//!
//! A [`Histogram`] is a bank of 32 lock-free buckets with log-spaced
//! (power-of-two) boundaries: bucket 0 covers `0..=1024` ns and each
//! following bucket doubles the upper bound, so the bank spans ~1 µs to
//! ~35 min with a guaranteed factor-2 relative error on any quantile
//! estimate. Recording is one gated relaxed load plus two relaxed atomic
//! adds — cheap enough for per-request paths and safe from any thread.
//!
//! Like the global counters, histograms are process-global statics that
//! snapshot into plain-data [`HistogramSnapshot`]s and zero on
//! [`crate::reset`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::enabled;

/// Number of buckets in every histogram.
pub const HIST_BUCKETS: usize = 32;

/// Smallest upper bound (ns): bucket 0 is `0..=FIRST_BOUND`.
const FIRST_BOUND: u64 = 1024;

/// Upper bound of bucket `i` (the last bucket is open-ended; its nominal
/// bound is only used for quantile interpolation).
#[inline]
pub fn bucket_bound(i: usize) -> u64 {
    FIRST_BOUND << i.min(HIST_BUCKETS - 1)
}

/// The bucket index covering value `v`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v <= FIRST_BOUND {
        0
    } else {
        // Position of the highest set bit of v-1, shifted so that
        // 1025..=2048 lands in bucket 1.
        ((64 - (v - 1).leading_zeros()) as usize - 10).min(HIST_BUCKETS - 1)
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);

/// A named, global, lock-free log-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            counts: [ZERO_U64; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// The histogram's stable name as it appears in snapshots and `/metrics`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation if recording is enabled; otherwise a single
    /// relaxed load + branch (the same disabled-path contract as
    /// [`crate::Counter::add`]).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Copies the current state into a plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HIST_BUCKETS];
        for (out, c) in counts.iter_mut().zip(self.counts.iter()) {
            *out = c.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            name: self.name.to_string(),
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

// The four latency histograms below time the server's route handler only:
// from a request fully framed off the socket to its response document
// built. Reading the request, rendering the body and writing the response
// fall outside, so client-side latency minus these is the time spent
// outside the route.

/// Route time of `/forecast` requests: JSON parse and validation, queue
/// wait, batch compute and building the response document.
pub static SERVE_FORECAST_LATENCY: Histogram = Histogram::new("serve.forecast.latency_ns");
/// Route time of `/observe` requests: JSON parse, the tenant append and
/// building the response document.
pub static SERVE_OBSERVE_LATENCY: Histogram = Histogram::new("serve.observe.latency_ns");
/// Route time of `/metrics` and `/healthz` requests: the snapshot and
/// building the response document.
pub static SERVE_METRICS_LATENCY: Histogram = Histogram::new("serve.metrics.latency_ns");
/// Route time of `/admin/*` requests: JSON parse, the staged registry load
/// and swap, and building the response document.
pub static SERVE_ADMIN_LATENCY: Histogram = Histogram::new("serve.admin.latency_ns");
/// Requests fused into each executed micro-batch (occupancy, not ns).
pub static SERVE_BATCH_OCCUPANCY: Histogram = Histogram::new("serve.batch.occupancy");

pub(crate) fn all_histograms() -> [&'static Histogram; 5] {
    [
        &SERVE_FORECAST_LATENCY,
        &SERVE_OBSERVE_LATENCY,
        &SERVE_METRICS_LATENCY,
        &SERVE_ADMIN_LATENCY,
        &SERVE_BATCH_OCCUPANCY,
    ]
}

/// A point-in-time copy of one histogram: plain data, mergeable, and the
/// source of the quantile estimates rendered by `/metrics` and the bench
/// harness.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name, e.g. `"serve.forecast.latency_ns"`.
    pub name: String,
    /// Observations per bucket (see [`bucket_bound`] for the boundaries).
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of all recorded values (exact, not bucketed).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot with the given name (the merge identity).
    pub fn empty(name: impl Into<String>) -> Self {
        HistogramSnapshot {
            name: name.into(),
            counts: [0; HIST_BUCKETS],
            sum: 0,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact mean of the recorded values (`sum / count`), 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Element-wise merge with another snapshot (bucket counts and sums
    /// add), keeping `self`'s name. Merging is associative and commutative
    /// on the data, with [`HistogramSnapshot::empty`] as identity.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut counts = self.counts;
        for (c, o) in counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        HistogramSnapshot {
            name: self.name.clone(),
            counts,
            sum: self.sum + other.sum,
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket holding the target rank. The estimate is bounded
    /// by the bucket's `[lower, upper]` range, so it is within a factor of
    /// 2 of the true value (exact for values ≤ 1024 up to bucket width).
    /// Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if (next as f64) >= target {
                let lower = if i == 0 { 0 } else { bucket_bound(i - 1) };
                let upper = bucket_bound(i);
                let into = (target - seen as f64) / c as f64;
                return lower as f64 + into * (upper - lower) as f64;
            }
            seen = next;
        }
        bucket_bound(HIST_BUCKETS - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_at_the_edges() {
        // Bucket 0 is 0..=1024; every later bucket is (bound/2, bound].
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(1024), 0);
        assert_eq!(bucket_of(1025), 1);
        assert_eq!(bucket_of(2048), 1);
        assert_eq!(bucket_of(2049), 2);
        assert_eq!(bucket_of(4096), 2);
        for i in 1..HIST_BUCKETS - 1 {
            let bound = bucket_bound(i);
            assert_eq!(bucket_of(bound), i, "upper edge of bucket {i}");
            assert_eq!(
                bucket_of(bound + 1),
                i + 1,
                "lower edge of bucket {}",
                i + 1
            );
        }
        // Everything past the last boundary saturates into the open bucket.
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(bucket_bound(HIST_BUCKETS - 1)), HIST_BUCKETS - 1);
    }

    fn snap_of(values: &[u64]) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::empty("test");
        for &v in values {
            s.counts[bucket_of(v)] += 1;
            s.sum += v;
        }
        s
    }

    #[test]
    fn merge_is_associative_and_has_identity() {
        let a = snap_of(&[10, 2_000, 5_000]);
        let b = snap_of(&[1_500, 1_500, 9_000_000]);
        let c = snap_of(&[u64::MAX / 2, 7]);
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        assert_eq!(left.counts, right.counts);
        assert_eq!(left.sum, right.sum);
        assert_eq!(left.count(), 8);

        let id = HistogramSnapshot::empty("test");
        assert_eq!(a.merge(&id).counts, a.counts);
        assert_eq!(a.merge(&id).sum, a.sum);
        // Commutative on the data (names differ by construction order).
        assert_eq!(a.merge(&b).counts, b.merge(&a).counts);
    }

    #[test]
    fn quantiles_are_within_a_factor_of_two() {
        // 1000 log-spread samples: every quantile estimate must land
        // within the true value's bucket, i.e. within [v/2, 2v].
        let values: Vec<u64> = (0..1000u64).map(|i| 1_000 + i * 997).collect();
        let s = snap_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let est = s.quantile(q);
            let rank =
                ((q * sorted.len() as f64).max(1.0).ceil() as usize - 1).min(sorted.len() - 1);
            let truth = sorted[rank] as f64;
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0,
                "q={q}: estimate {est} vs true {truth}"
            );
        }
        // Degenerate cases: empty histogram and single sample.
        assert_eq!(HistogramSnapshot::empty("e").quantile(0.5), 0.0);
        let one = snap_of(&[3_000]);
        let est = one.quantile(0.99);
        assert!((2048.0..=4096.0).contains(&est), "single sample: {est}");
    }

    #[test]
    fn quantile_interpolates_within_one_bucket() {
        // All mass in bucket 1 (1025..=2048): p0+ pins near the lower
        // bound, p100 reaches the upper bound, p50 sits in between.
        let s = snap_of(&[1_500; 100]);
        assert!((s.quantile(0.0) - 1024.0).abs() <= 1024.0 / 100.0 + 1.0);
        assert_eq!(s.quantile(1.0), 2048.0);
        let mid = s.quantile(0.5);
        assert!(mid > 1024.0 && mid < 2048.0, "{mid}");
        assert_eq!(s.mean(), 1_500.0);
    }

    #[test]
    fn record_respects_the_global_gate() {
        let _g = crate::test_lock();
        static LOCAL: Histogram = Histogram::new("test.local");
        crate::set_enabled(false);
        LOCAL.record(500);
        assert_eq!(LOCAL.snapshot().count(), 0, "disabled record must drop");
        crate::set_enabled(true);
        LOCAL.record(500);
        LOCAL.record(3_000);
        crate::set_enabled(false);
        let s = LOCAL.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.sum, 3_500);
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.counts[bucket_of(3_000)], 1);
        LOCAL.reset();
        assert_eq!(LOCAL.snapshot().count(), 0);
    }
}
