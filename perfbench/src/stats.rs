//! Exact-sample latency recording and the few order statistics the
//! report needs. Samples are kept whole (no buckets): the engine's
//! log-bucket histogram moves in 5–12 % steps, which would hide a gain
//! smaller than a bucket.

use std::time::Duration;

/// One thread's latency samples in nanoseconds, saturating at ~4.29 s.
#[derive(Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Merges per-thread recorders into one sorted sample.
    pub fn merge(parts: Vec<Samples>) -> Sorted {
        let mut all: Vec<u32> = parts.into_iter().flat_map(|s| s.0).collect();
        all.sort_unstable();
        Sorted(all)
    }
}

/// A sorted, merged latency sample.
pub struct Sorted(Vec<u32>);

impl Sorted {
    /// Merges sorted samples into one.
    pub fn merge(parts: Vec<Sorted>) -> Sorted {
        let mut all: Vec<u32> = parts.into_iter().flat_map(|s| s.0).collect();
        all.sort_unstable();
        Sorted(all)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in microseconds; `None` on an empty sample.
    pub fn percentile_us(&self, p: f64) -> Option<f64> {
        percentile(&self.0, p).map(|ns| f64::from(ns) / 1e3)
    }

    /// The tail the sample can support: `("p99.9", value in µs)`.
    pub fn tail_us(&self) -> Option<(String, f64)> {
        let p = tail_percentile(self.0.len())?;
        let label = format!("{:.4}", p * 100.0);
        let label = label.trim_end_matches('0').trim_end_matches('.');
        Some((format!("p{label}"), self.percentile_us(p)?))
    }
}

/// Nearest-rank percentile of a sorted slice: the smallest element with at
/// least `p` of the sample at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest of p50, p90, p99, p99.9 … that still has at least ten
/// samples beyond it; `None` when even the median does not (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999];
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 - (p * n as f64).ceil() >= 10.0)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method). `None` below four values.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        // p90 of 100 leaves exactly 10 beyond; of 99 only 9.
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(1_000_000), Some(0.99999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v[..1], 0.5), Some(1));
        assert_eq!(percentile::<u32>(&[], 0.5), None);
    }

    #[test]
    fn samples_merge_sorted_and_saturate() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        a.push(Duration::from_micros(30));
        a.push(Duration::from_secs(10));
        b.push(Duration::from_micros(10));
        let s = Samples::merge(vec![a, b]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.percentile_us(0.5), Some(30.0));
        assert_eq!(s.tail_us(), None);
        let many = Sorted((0..10_000).collect());
        assert_eq!(many.tail_us(), Some(("p99.9".to_string(), 9.989)));
        assert_eq!(s.percentile_us(1.0), Some(f64::from(u32::MAX) / 1e3));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&v[..3]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
