//! A log-bucketed latency histogram (HDR-style).
//!
//! Figure 5 of the paper plots latency CDFs spanning five orders of
//! magnitude (sub-millisecond transactions up to multi-second queueing
//! collapse during quiesce periods). A linear histogram cannot cover that
//! range; this one uses 16 sub-buckets per power of two, giving ≤ ~6%
//! relative error per bucket across the full `u64` nanosecond range, with
//! lock-free recording from worker threads.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BUCKET_BITS: u32 = 4; // 16 sub-buckets per octave
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;
const N_BUCKETS: usize = ((64 - SUB_BUCKET_BITS as usize) << SUB_BUCKET_BITS) + SUB_BUCKETS as usize;

/// Concurrent histogram over `u64` values (typically nanoseconds).
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
    let mantissa = (value >> (exp - SUB_BUCKET_BITS)) & (SUB_BUCKETS - 1);
    (((exp - SUB_BUCKET_BITS + 1) as u64) * SUB_BUCKETS + mantissa) as usize
}

/// Representative (lower-bound) value for a bucket.
#[inline]
fn bucket_floor(index: usize) -> u64 {
    let idx = index as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let octave = idx / SUB_BUCKETS - 1;
    let mantissa = idx % SUB_BUCKETS;
    (SUB_BUCKETS + mantissa) << octave
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Maximum observation (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Value at quantile `q` in `[0,1]` (bucket lower bound; 0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_floor(i);
            }
        }
        self.max()
    }

    /// Full CDF as `(value, cumulative_fraction)` pairs over non-empty
    /// buckets — the series plotted in Figure 5.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let total = self.count();
        if total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                seen += c;
                out.push((bucket_floor(i), seen as f64 / total as f64));
            }
        }
        out
    }


    /// Clears all recorded data.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(n={}, mean={:.1}, p50={}, p99={}, max={})",
            self.count(),
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_nondecreasing() {
        let mut last = 0usize;
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 1_000_000, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < N_BUCKETS);
            last = idx;
        }
    }

    #[test]
    fn bucket_floor_is_lower_bound_within_6pct() {
        for v in [1u64, 10, 100, 12345, 999_999, 123_456_789] {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v, "{floor} > {v}");
            assert!(
                (v - floor) as f64 / v as f64 <= 1.0 / 16.0 + 1e-9,
                "error too large for {v}: floor {floor}"
            );
        }
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5);
        assert!((450_000..=550_000).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((930_000..=1_000_000).contains(&p99), "p99={p99}");
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let h = Histogram::new();
        for v in [5u64, 5, 10, 100, 100, 100, 5000] {
            h.record(v);
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut last = 0.0;
        for &(_, frac) in &cdf {
            assert!(frac >= last);
            last = frac;
        }
        assert!((last - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn empty_histogram_quantile_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert!(h.cdf().is_empty());
    }
}
