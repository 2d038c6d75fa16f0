//! The [`Histogram`]: a fixed-size log-bucket latency histogram whose
//! record path is a handful of relaxed atomic operations — no
//! allocation, no locks, no floating point.
//!
//! # Bucket layout
//!
//! Values (nanoseconds, by convention) map to buckets with a
//! linear-log scheme: values below 8 get one exact bucket each, and
//! every power-of-two octave above that is split into 8 sub-buckets, so
//! any reported quantile is within one sub-bucket (≤ 12.5% relative
//! error) of the true value. The layout is *fixed at compile time* —
//! [`BUCKETS`] slots covering `0 ..= 2^42 − 1` ns (≈ 73 minutes);
//! anything larger lands in a final **saturating overflow bucket** and
//! is additionally captured exactly by the `max` register. Fixed layout
//! is what makes the record path allocation-free and a snapshot a plain
//! array copy.
//!
//! # Consistency
//!
//! Bucket counts are individually monotonic, so a [`Histogram::snapshot`]
//! taken while other threads record observes, per bucket, some value
//! between "records finished before the snapshot began" and "records
//! started before it ended" — never a torn or decreasing count. The
//! snapshot's `count` is **derived** by summing the bucket array (there
//! is no separate count cell to tear against), so repeated snapshots
//! have non-decreasing totals and `quantile` is always computed over an
//! array that sums to exactly `count`. Locked in by
//! `tests/histogram.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (8): quantiles resolve to ≤ 12.5% error.
const SUB: usize = 1 << SUB_BITS;
/// Highest fully-resolved octave: values `< 2^(MAX_EXP + 1)` ns get a
/// real bucket; beyond that (≈ 73 minutes) the overflow bucket
/// saturates.
const MAX_EXP: u32 = 41;
/// Total bucket count, including the saturating overflow bucket.
pub const BUCKETS: usize = SUB + (MAX_EXP - SUB_BITS + 1) as usize * SUB + 1;
/// Index of the saturating overflow bucket.
const OVERFLOW: usize = BUCKETS - 1;

/// The bucket index `value` maps to (total function: every `u64` maps
/// to exactly one of the [`BUCKETS`] slots).
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    if exp > MAX_EXP {
        return OVERFLOW;
    }
    let top = exp - SUB_BITS;
    let sub = ((value >> top) & (SUB as u64 - 1)) as usize;
    SUB + (top as usize) * SUB + sub
}

/// The inclusive `[lo, hi]` value range of bucket `index`.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB {
        return (index as u64, index as u64);
    }
    if index >= OVERFLOW {
        return (1u64 << (MAX_EXP + 1), u64::MAX);
    }
    let rel = index - SUB;
    let top = (rel / SUB) as u32;
    let sub = (rel % SUB) as u64;
    let lo = (SUB as u64 + sub) << top;
    (lo, lo + (1u64 << top) - 1)
}

/// A concurrent fixed-bucket histogram. Create through
/// [`MetricsRegistry::histogram`](crate::MetricsRegistry::histogram) or
/// [`Histogram::new`] directly.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of recorded values, for `mean` (relaxed; approximate during
    /// concurrent recording, exact at quiescence).
    sum: AtomicU64,
    /// Largest recorded value, exact even for overflow-bucket values.
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds by convention). Three relaxed
    /// atomic RMWs; no allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating past `u64::MAX`,
    /// which is ~584 years — the overflow bucket's problem, not ours).
    #[inline]
    pub fn record_duration(&self, duration: Duration) {
        self.record(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A consistent snapshot: the bucket array copied once, with
    /// `count` derived from the copy (see the module docs for why this
    /// can never tear).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            counts,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("p50", &snap.quantile(0.50))
            .field("p99", &snap.quantile(0.99))
            .field("max", &snap.max)
            .finish()
    }
}

/// An immutable copy of a histogram's state; quantiles are computed
/// here, off the record path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (length [`BUCKETS`]).
    pub counts: Vec<u64>,
    /// Total records — always exactly the sum of `counts`.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The nearest-rank `q`-quantile (`0.0 < q <= 1.0`), reported as
    /// the **upper bound** of the bucket holding that rank (≤ 12.5%
    /// above the true value) and clamped to the exact observed `max`.
    /// Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_maps_to_exactly_one_bucket_and_its_bounds() {
        // Exhaustive near the small-value boundary, sampled elsewhere.
        for v in 0u64..4096 {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {i} [{lo}, {hi}]"
            );
        }
        for exp in 3..=63u32 {
            for v in [1u64 << exp, (1u64 << exp) + 1, (1u64 << exp) - 1] {
                let i = bucket_index(v);
                let (lo, hi) = bucket_bounds(i);
                assert!(lo <= v && v <= hi, "value {v} outside bucket {i}");
            }
        }
        let i = bucket_index(u64::MAX);
        assert_eq!(
            i,
            BUCKETS - 1,
            "u64::MAX saturates into the overflow bucket"
        );
    }

    #[test]
    fn buckets_partition_contiguously() {
        // Consecutive buckets tile the value space with no gap/overlap.
        let mut expected_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i} starts at a gap");
            assert!(hi >= lo);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            expected_lo = hi + 1;
        }
        panic!("last bucket must end at u64::MAX");
    }

    #[test]
    fn relative_error_is_bounded() {
        // Above the exact range, a bucket's width is at most 1/8 of its
        // lower bound — the ≤ 12.5% quantile error bound.
        for i in SUB..BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (hi - lo) as f64 <= lo as f64 / 8.0 + 1.0,
                "bucket {i} [{lo}, {hi}] wider than 12.5%"
            );
        }
    }

    #[test]
    fn mean_and_max_track_exact_values() {
        let h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 60);
        assert_eq!(snap.max, 30);
        assert!((snap.mean() - 20.0).abs() < 1e-12);
    }
}
