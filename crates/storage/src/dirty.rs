//! Dirty-key tracking for partial checkpoints (§2.3).
//!
//! pCALC (and the partial variants of every baseline) must know which
//! records *may* have changed since the most recent checkpoint. The paper
//! evaluates three data structures — a hash table, a bit vector, and a
//! bloom filter — and settles on the bit vector ("the additional work
//! required by the other approaches was slightly more costly than the
//! performance savings from improved cache locality"); [`BitVecTracker`]
//! is that design and the only one kept here.
//!
//! The tracker keeps **two buffers** so the retired one can be cleared
//! during the checkpoint period, off the critical path, with no blocking
//! synchronization (§2.3: "atomically cleared ... by keeping two copies of
//! the structure, and flipping a bit specifying which is active"). Rather
//! than an *active-side flag* — which would race against the flip at the
//! resolve transition — buffers are addressed by **checkpoint interval
//! number** (`interval & 1`): the commit hook derives the interval from the
//! transaction's atomically-recorded commit stamp (`PhaseStamp::
//! checkpoint_interval`), so a commit that lands just before the virtual
//! point of consistency always marks the checkpoint being captured, and one
//! just after always marks the next, regardless of scheduling.

use calc_common::bitvec::AtomicBitVec;

use crate::SlotId;

/// One bit per record slot, two copies: a double-buffered tracker of
/// possibly-modified slots, addressed by checkpoint interval. Intervals
/// `i` and `i + 2` share a buffer, so buffer `i & 1` must be cleared (via
/// [`BitVecTracker::clear`]) after checkpoint `i` is captured and before
/// interval `i + 2` begins — pCALC does this during the following
/// checkpoint period.
pub struct BitVecTracker {
    bufs: [AtomicBitVec; 2],
}

impl BitVecTracker {
    /// Creates a tracker covering `capacity` slots.
    pub fn new(capacity: usize) -> Self {
        BitVecTracker {
            bufs: [AtomicBitVec::new(capacity), AtomicBitVec::new(capacity)],
        }
    }

    /// Marks `slot` as modified within `interval`.
    pub fn mark(&self, slot: SlotId, interval: u64) {
        self.bufs[(interval & 1) as usize].set(slot as usize, true);
    }

    /// Whether `slot` is marked in `interval`.
    pub fn is_dirty(&self, slot: SlotId, interval: u64) -> bool {
        self.bufs[(interval & 1) as usize].get(slot as usize)
    }

    /// Snapshot of `interval`'s dirty slot ids below `slot_limit` (the
    /// store's high-water mark), sorted ascending.
    pub fn dirty_slots(&self, interval: u64, slot_limit: usize) -> Vec<SlotId> {
        self.bufs[(interval & 1) as usize]
            .iter_ones()
            .take_while(|&s| s < slot_limit)
            .map(|s| s as SlotId)
            .collect()
    }

    /// Clears `interval`'s buffer for reuse by `interval + 2`.
    pub fn clear(&self, interval: u64) {
        self.bufs[(interval & 1) as usize].clear_all();
    }

    /// Heap footprint in bytes (part of every strategy's `memory()`).
    pub fn heap_bytes(&self) -> usize {
        self.bufs[0].heap_bytes() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(t: &BitVecTracker) {
        // Pre-point commits mark interval 0; post-point commits interval 1.
        t.mark(3, 0);
        t.mark(7, 0);
        t.mark(9, 1);
        assert!(t.is_dirty(3, 0));
        assert!(t.is_dirty(7, 0));
        assert!(!t.is_dirty(9, 0));
        assert!(t.is_dirty(9, 1));
        assert_eq!(t.dirty_slots(0, 100), vec![3, 7]);
        assert_eq!(t.dirty_slots(1, 100), vec![9]);

        // After capturing checkpoint 0, its buffer is cleared for
        // interval 2.
        t.clear(0);
        assert!(!t.is_dirty(3, 0));
        assert!(t.dirty_slots(2, 100).is_empty());
        t.mark(11, 2);
        assert!(t.is_dirty(11, 2));
        // Interval 1's buffer was untouched by the clear.
        assert!(t.is_dirty(9, 1));
    }

    #[test]
    fn bitvec_tracker_lifecycle() {
        exercise(&BitVecTracker::new(128));
    }

    #[test]
    fn intervals_two_apart_share_a_buffer() {
        let t = BitVecTracker::new(16);
        t.mark(5, 0);
        assert!(t.is_dirty(5, 2), "interval 0 and 2 share buffer 0");
        assert!(!t.is_dirty(5, 1));
    }

    #[test]
    fn dirty_slots_respects_limit() {
        let t = BitVecTracker::new(128);
        t.mark(5, 0);
        t.mark(90, 0);
        assert_eq!(t.dirty_slots(0, 50), vec![5]);
    }

    #[test]
    fn concurrent_marks_from_many_threads() {
        use std::sync::Arc;
        let t = Arc::new(BitVecTracker::new(100_000));
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for s in (i * 10_000)..(i * 10_000 + 10_000) {
                        t.mark(s, (i % 2) as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            t.dirty_slots(0, 100_000).len() + t.dirty_slots(1, 100_000).len(),
            80_000
        );
    }
}
