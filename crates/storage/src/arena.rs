//! The slot arena every store keeps its per-slot contents in: sized for
//! the store's capacity, paid for by the slots it has handed out.
//!
//! A [`SlotArena`] has a fixed capacity and is cut into chunks of a fixed
//! number of slots. Each chunk is backed — allocated, every element
//! `T::default()` — the first time a slot in it is filled, so building a
//! store costs one small cell per chunk rather than one element per
//! slot, and a store holding `n` records has about `n` elements backed
//! whatever its configured capacity. The arena implements
//! `Index<usize>`, so a store reads `slots[slot]` as it would a slice.
//!
//! The rules:
//! * **A read never backs a chunk.** Indexing a slot whose chunk is not
//!   backed yields the arena's one vacant element, `T::default()` — which
//!   is what that slot holds until its fill anyway.
//! * **Only allocation past the high-water mark backs.** A store's fill
//!   step — the first write into a slot its [`crate::SlotTable`] just
//!   reserved — calls [`SlotArena::back`]; a slot from the free list sits
//!   in a chunk backed when the slot was first handed out. A shadow array
//!   indexed by the same slots (a snapshot copy) backs on its first write
//!   to a slot the table handed out. Every scan stops at
//!   `slot_high_water()`, so the only slot a scan can find unbacked is one
//!   reserved and not yet filled: vacant either way. Such a read is not
//!   serialized with that fill by the slot's mutex; it reads as if it ran
//!   just before it, which a scan already allows for. The vacant element
//!   is never written — every write path is a fill or first finds its
//!   slot in use.
//! * **Capacity is unchanged.** The table refuses an allocation at the
//!   same count as before (`StoreError::CapacityExceeded`); the arena
//!   only decides when memory for an accepted slot is taken.
//! * **No knob.** [`crate::StoreConfig`] keeps its fields; the chunk size
//!   is a private constant that no config field, flag or environment
//!   variable sets.
//!
//! Safe code only: one `OnceLock` per chunk. A slot access costs one more
//! load (the chunk's pointer) than a slice index; the chunk table is a
//! few KiB and stays in cache.

use std::ops::Index;
use std::sync::OnceLock;

const CHUNK_SHIFT: u32 = 13;
/// Slots per chunk: 8 192, ≈ 0.6 MB of dual-version slots.
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// The slots per chunk, for tests that put a store's high water on a
/// chunk boundary. Fixed: nothing sets it.
pub fn chunk_slots() -> usize {
    CHUNK
}

/// A fixed-capacity arena whose chunks are backed on first fill. See
/// module docs.
pub struct SlotArena<T> {
    chunks: Box<[OnceLock<Box<[T]>>]>,
    capacity: usize,
    vacant: T,
}

impl<T: Default> SlotArena<T> {
    /// An arena of `capacity` slots with no chunk backed.
    pub fn new(capacity: usize) -> Self {
        SlotArena {
            chunks: (0..capacity.div_ceil(CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
            vacant: T::default(),
        }
    }

    /// Slot `i`, backing its chunk first if no slot in it was filled yet.
    /// For the fill of a slot the table handed out (see module docs);
    /// reads index the arena instead.
    pub fn back(&self, i: usize) -> &T {
        assert!(
            i < self.capacity,
            "slot {i} outside an arena of {}",
            self.capacity
        );
        let first = i & !(CHUNK - 1);
        let len = CHUNK.min(self.capacity - first);
        let chunk =
            self.chunks[i >> CHUNK_SHIFT].get_or_init(|| (0..len).map(|_| T::default()).collect());
        &chunk[i - first]
    }
}

impl<T> SlotArena<T> {
    /// The vacant element, for slot `i` of a chunk not backed. Out of
    /// line, so that an index stays small enough to inline into a store's
    /// slot access (measured: ≈ 10 % of a random point read otherwise).
    #[cold]
    #[inline(never)]
    fn vacant(&self, i: usize) -> &T {
        assert!(
            i < self.capacity,
            "slot {i} outside an arena of {}",
            self.capacity
        );
        &self.vacant
    }

    /// The slot count the arena was sized for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many chunks are backed.
    #[cfg(test)]
    pub(crate) fn backed_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }
}

impl<T> Index<usize> for SlotArena<T> {
    type Output = T;

    /// Slot `i` — the vacant element if its chunk is not backed. Never
    /// backs (see module docs).
    #[inline]
    fn index(&self, i: usize) -> &T {
        match self.chunks[i >> CHUNK_SHIFT].get() {
            Some(chunk) => &chunk[i & (CHUNK - 1)],
            None => self.vacant(i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn indexing_a_never_allocated_slot_backs_nothing() {
        let arena = SlotArena::<AtomicU64>::new(3 * CHUNK + 5);
        assert_eq!(arena.capacity(), 3 * CHUNK + 5);
        for i in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 1, 3 * CHUNK + 4] {
            assert_eq!(arena[i].load(Ordering::Relaxed), 0);
        }
        assert_eq!(arena.backed_chunks(), 0);

        arena.back(CHUNK + 3).store(7, Ordering::Relaxed);
        assert_eq!(arena.backed_chunks(), 1);
        assert_eq!(arena[CHUNK + 3].load(Ordering::Relaxed), 7);
        assert_eq!(arena[3 * CHUNK + 4].load(Ordering::Relaxed), 0);
        assert_eq!(arena.backed_chunks(), 1, "a read backed a chunk");
    }

    #[test]
    fn backing_fills_each_chunk_once() {
        let arena = SlotArena::<AtomicU64>::new(2 * CHUNK + 3);
        for i in 0..2 * CHUNK + 3 {
            arena.back(i).fetch_add(i as u64, Ordering::Relaxed);
            assert_eq!(arena.backed_chunks(), (i + 1).div_ceil(CHUNK));
        }
        for i in 0..2 * CHUNK + 3 {
            assert_eq!(arena[i].load(Ordering::Relaxed), i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "outside an arena")]
    fn a_slot_past_capacity_panics_in_the_last_chunk() {
        let arena = SlotArena::<AtomicU64>::new(CHUNK + 1);
        let _ = &arena[CHUNK + 1];
    }

    #[test]
    #[should_panic(expected = "outside an arena")]
    fn backing_past_capacity_panics() {
        SlotArena::<AtomicU64>::new(5).back(5);
    }
}
