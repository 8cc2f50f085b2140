//! Pre-allocated buffer pool for stable record versions.
//!
//! §5.1.6 of the paper: *"in order to avoid frequently allocating and
//! erasing stable records, our implementation pre-allocates a pool of space
//! for stable records, so that when a transaction needs to insert a stable
//! record, it simply allocates memory for the stable record from the pool
//! ... When transactions need to erase the stable record, they simply
//! release the space back into the pool."*
//!
//! Buffers have a fixed capacity (sized for the workload's common record
//! size); values that exceed it fall back to an exact heap allocation. The
//! pool tracks outstanding bytes/copies so Figure 6's CALC curve reflects
//! actual stable-version pressure, and it caps its retained free list so a
//! burst does not pin memory forever.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::mem::MemCounter;

/// A fixed-capacity, freelist-backed buffer pool.
///
/// The free list is a FIFO under one mutex, held for a single push or
/// pop: during a CALC checkpoint window every worker's first write of a
/// record acquires a stable buffer and the capture thread releases them,
/// all concurrently, so the copy into the buffer happens outside the lock.
pub struct BufferPool {
    buf_capacity: usize,
    max_retained: usize,
    free: Mutex<VecDeque<Box<[u8]>>>,
    /// Outstanding (acquired, not yet released) values.
    outstanding: MemCounter,
}

/// A value held in a pool buffer: the buffer may be larger than the value,
/// so the logical length is tracked separately.
pub struct PoolValue {
    buf: Box<[u8]>,
    len: usize,
    pooled: bool,
}

impl PoolValue {
    /// The value bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Logical length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the value is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for PoolValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolValue(len={}, pooled={})", self.len, self.pooled)
    }
}

impl BufferPool {
    /// Creates a pool of buffers of `buf_capacity` bytes each, with
    /// `prealloc` buffers allocated eagerly and at most
    /// `max(prealloc, 1024)` retained on the free list.
    pub fn new(buf_capacity: usize, prealloc: usize) -> Self {
        let free = (0..prealloc)
            .map(|_| vec![0u8; buf_capacity].into_boxed_slice())
            .collect();
        BufferPool {
            buf_capacity,
            max_retained: prealloc.max(1024),
            free: Mutex::new(free),
            outstanding: MemCounter::new(),
        }
    }

    /// Copies `data` into a pooled buffer (or an exact allocation if it
    /// does not fit) and returns the handle.
    pub fn acquire(&self, data: &[u8]) -> PoolValue {
        self.outstanding.add(data.len());
        if data.len() <= self.buf_capacity {
            let idle = self.free.lock().pop_front();
            let mut buf = idle.unwrap_or_else(|| vec![0u8; self.buf_capacity].into_boxed_slice());
            buf[..data.len()].copy_from_slice(data);
            PoolValue {
                buf,
                len: data.len(),
                pooled: true,
            }
        } else {
            PoolValue {
                buf: data.to_vec().into_boxed_slice(),
                len: data.len(),
                pooled: false,
            }
        }
    }

    /// Returns a value's buffer to the pool.
    pub fn release(&self, v: PoolValue) {
        self.outstanding.sub(v.len);
        if v.pooled {
            let mut free = self.free.lock();
            if free.len() < self.max_retained {
                free.push_back(v.buf);
            }
        }
    }

    /// Bytes currently held in acquired (outstanding) values.
    pub fn outstanding_bytes(&self) -> usize {
        self.outstanding.bytes()
    }

    /// Number of currently acquired values.
    pub fn outstanding_count(&self) -> usize {
        self.outstanding.count()
    }

    /// Number of buffers idle on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.lock().len()
    }

    /// Per-buffer capacity.
    pub fn buf_capacity(&self) -> usize {
        self.buf_capacity
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BufferPool(cap={}, outstanding={}, free={})",
            self.buf_capacity,
            self.outstanding.count(),
            self.free_buffers()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip() {
        let pool = BufferPool::new(128, 4);
        assert_eq!(pool.free_buffers(), 4);
        let v = pool.acquire(b"hello");
        assert_eq!(v.as_slice(), b"hello");
        assert_eq!(v.len(), 5);
        assert_eq!(pool.outstanding_count(), 1);
        assert_eq!(pool.outstanding_bytes(), 5);
        assert_eq!(pool.free_buffers(), 3);
        pool.release(v);
        assert_eq!(pool.outstanding_count(), 0);
        assert_eq!(pool.free_buffers(), 4, "buffer returned to pool");
    }

    #[test]
    fn oversized_values_fall_back_to_exact_alloc() {
        let pool = BufferPool::new(8, 2);
        let big = vec![7u8; 100];
        let v = pool.acquire(&big);
        assert_eq!(v.as_slice(), &big[..]);
        assert!(!v.pooled);
        assert_eq!(pool.free_buffers(), 2, "pool untouched");
        pool.release(v);
        assert_eq!(pool.free_buffers(), 2, "oversized buffer not retained");
        assert_eq!(pool.outstanding_bytes(), 0);
    }

    #[test]
    fn pool_grows_on_demand() {
        let pool = BufferPool::new(16, 0);
        let a = pool.acquire(b"a");
        let b = pool.acquire(b"b");
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.free_buffers(), 2);
    }

    #[test]
    fn reuse_does_not_leak_previous_contents() {
        let pool = BufferPool::new(16, 1);
        let v = pool.acquire(b"secret-data!");
        pool.release(v);
        let v2 = pool.acquire(b"x");
        assert_eq!(v2.as_slice(), b"x");
    }

    #[test]
    fn empty_value() {
        let pool = BufferPool::new(16, 0);
        let v = pool.acquire(b"");
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), b"");
        pool.release(v);
    }

    #[test]
    fn concurrent_acquire_release() {
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::new(64, 8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        let data = (t as u64 * 1000 + i).to_le_bytes();
                        let v = pool.acquire(&data);
                        assert_eq!(v.as_slice(), &data);
                        pool.release(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding_count(), 0);
        assert_eq!(pool.outstanding_bytes(), 0);
    }
}
