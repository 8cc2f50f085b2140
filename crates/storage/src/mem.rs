//! Atomic memory accounting for record storage.
//!
//! Figure 6 of the paper plots "memory used for record storage" over time
//! for each checkpointing scheme (Naive/Fuzzy ≈ 1×, Zig-Zag 2×, IPP 4×,
//! CALC 1×–1.2× with a bump only during the checkpoint window). Each store
//! maintains a [`MemCounter`] per copy class so the harness can sample the
//! exact number of record copies and bytes held at any instant, without
//! stopping the world.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A pair of atomic counters: live byte total and value-copy count.
#[derive(Debug, Default)]
pub struct MemCounter {
    bytes: AtomicUsize,
    count: AtomicUsize,
}

impl MemCounter {
    /// New zeroed counter.
    pub const fn new() -> Self {
        MemCounter {
            bytes: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
        }
    }

    /// Records an allocation of `n` bytes.
    #[inline]
    pub fn add(&self, n: usize) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `count` allocations totalling `bytes` — one pair of
    /// read-modify-writes for a whole batch instead of one per value.
    #[inline]
    pub fn add_many(&self, count: usize, bytes: usize) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.count.fetch_add(count, Ordering::Relaxed);
    }

    /// Records that one value of `old` bytes was replaced by one of
    /// `new` bytes: the count is unchanged, and a same-size overwrite
    /// writes nothing.
    #[inline]
    pub fn replace(&self, old: usize, new: usize) {
        if new > old {
            self.bytes.fetch_add(new - old, Ordering::Relaxed);
        } else if old > new {
            self.bytes.fetch_sub(old - new, Ordering::Relaxed);
        }
    }

    /// Records a release of `n` bytes.
    #[inline]
    pub fn sub(&self, n: usize) {
        self.bytes.fetch_sub(n, Ordering::Relaxed);
        self.count.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current byte total.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Current copy count.
    #[inline]
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

/// A point-in-time memory report from a store.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemoryStats {
    /// Bytes held by primary (live / application-state) record values.
    pub live_bytes: usize,
    /// Number of primary record values.
    pub live_count: usize,
    /// Bytes held by *extra* record copies (stable versions, ping-pong
    /// arrays, zig-zag second copies, in-memory snapshots).
    pub extra_bytes: usize,
    /// Number of extra record copies.
    pub extra_count: usize,
    /// Bytes of fixed metadata overhead (bit vectors, dirty trackers).
    pub overhead_bytes: usize,
}

impl MemoryStats {
    /// Total record copies (live + extra) — the y-axis of Figure 6.
    pub fn total_copies(&self) -> usize {
        self.live_count + self.extra_count
    }

    /// Total record bytes.
    pub fn total_bytes(&self) -> usize {
        self.live_bytes + self.extra_bytes
    }

    /// Extra copies expressed as a multiple of live copies (e.g. IPP→3.0
    /// on top of state, CALC at rest→0.0).
    pub fn copy_ratio(&self) -> f64 {
        if self.live_count == 0 {
            0.0
        } else {
            self.total_copies() as f64 / self.live_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_add_sub() {
        let c = MemCounter::new();
        c.add(100);
        c.add(50);
        assert_eq!(c.bytes(), 150);
        assert_eq!(c.count(), 2);
        c.sub(100);
        assert_eq!(c.bytes(), 50);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn stats_ratios() {
        let s = MemoryStats {
            live_bytes: 1000,
            live_count: 10,
            extra_bytes: 3000,
            extra_count: 30,
            overhead_bytes: 8,
        };
        assert_eq!(s.total_copies(), 40);
        assert_eq!(s.total_bytes(), 4000);
        assert!((s.copy_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_store_ratio_is_zero() {
        assert_eq!(MemoryStats::default().copy_ratio(), 0.0);
    }
}
