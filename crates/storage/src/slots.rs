//! The slot table every store sits on: key → slot index, slot allocator,
//! record count, and the one insert-publication protocol.
//!
//! The paper's per-record bit vectors need dense record indices; its
//! evaluation store is a hash table. [`SlotTable`] is the bridge: a
//! sharded `key → SlotId` map over a fixed arena of `capacity` slots,
//! handed out from a high-water mark and a free list. The stores
//! ([`crate::dual`], [`crate::triple`], [`crate::zigzag`]) own the slot
//! *contents* — their record layouts are what distinguishes them — and
//! embed this table by value for everything else, so the comparison
//! between schemes is over one index, one allocator and one
//! publication protocol.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Mutex, RwLock};

use calc_common::types::Key;

use crate::dual::StoreError;
use crate::SlotId;

/// Shard index of `key` among `mask + 1` (a power of two) shards: a
/// splitmix-style mix so sequential keys spread across shards.
#[inline]
pub fn shard_index(key: Key, mask: usize) -> usize {
    (key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize & mask
}

/// Key index + slot allocator shared by the stores. See module docs.
pub struct SlotTable {
    shards: Box<[RwLock<HashMap<u64, SlotId>>]>,
    shard_mask: usize,
    capacity: usize,
    alloc: Allocator,
}

/// What every insert and delete writes, on cache lines of its own: the
/// fields above are read by every lookup, and sharing a line with these
/// measurably slows the parallel part loader (`recovery.part_load_ms`).
#[repr(align(64))]
struct Allocator {
    high_water: AtomicUsize,
    free_slots: Mutex<Vec<SlotId>>,
    record_count: AtomicUsize,
}

impl SlotTable {
    /// A table over `capacity` slots, indexed by `shards` hash shards
    /// (rounded up to a power of two).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n_shards = shards.max(1).next_power_of_two();
        SlotTable {
            shards: (0..n_shards).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_mask: n_shards - 1,
            capacity,
            alloc: Allocator {
                high_water: AtomicUsize::new(0),
                free_slots: Mutex::new(Vec::new()),
                record_count: AtomicUsize::new(0),
            },
        }
    }

    #[inline]
    fn shard_of(&self, key: Key) -> &RwLock<HashMap<u64, SlotId>> {
        &self.shards[shard_index(key, self.shard_mask)]
    }

    /// Current record count (linked keys).
    pub fn len(&self) -> usize {
        self.alloc.record_count.load(Ordering::Relaxed)
    }

    /// Whether no key is linked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the highest slot index ever allocated; scans cover
    /// `0..high_water()`. (Clamped: an insert refused for capacity
    /// overshoots the counter for an instant.)
    pub fn high_water(&self) -> usize {
        self.alloc
            .high_water
            .load(Ordering::Acquire)
            .min(self.capacity)
    }

    /// Resolves a key to its slot, if linked.
    #[inline]
    pub fn slot_of(&self, key: Key) -> Option<SlotId> {
        self.shard_of(key).read().get(&key.0).copied()
    }

    fn allocate(&self, fresh_only: bool) -> Result<SlotId, StoreError> {
        if !fresh_only {
            if let Some(slot) = self.alloc.free_slots.lock().pop() {
                return Ok(slot);
            }
        }
        let idx = self.alloc.high_water.fetch_add(1, Ordering::AcqRel);
        if idx >= self.capacity {
            self.alloc.high_water.fetch_sub(1, Ordering::AcqRel);
            return Err(StoreError::CapacityExceeded);
        }
        Ok(idx as SlotId)
    }

    /// Inserts `key`: duplicate check → allocate a slot → `fill(slot)`
    /// (the store writes the record under the slot's mutex) → publish the
    /// mapping. Concurrent inserts of one key are normally excluded by
    /// transaction locks, but the table stays safe without them: the
    /// loser of the race to publish puts the winner's mapping back, has
    /// the store empty its slot again with `vacate(slot)`, returns the
    /// slot to the free list and reports [`StoreError::DuplicateKey`].
    ///
    /// `fresh_only` skips the free list, forcing a slot at the high-water
    /// mark — for a store whose running scan is bounded by the mark it
    /// sealed (Zig-Zag).
    pub fn insert(
        &self,
        key: Key,
        fresh_only: bool,
        fill: impl FnOnce(SlotId),
        vacate: impl FnOnce(SlotId),
    ) -> Result<SlotId, StoreError> {
        if self.shard_of(key).read().contains_key(&key.0) {
            return Err(StoreError::DuplicateKey(key));
        }
        let slot = self.allocate(fresh_only)?;
        fill(slot);
        let mut shard = self.shard_of(key).write();
        if let Some(theirs) = shard.insert(key.0, slot) {
            shard.insert(key.0, theirs);
            drop(shard);
            vacate(slot);
            self.free(slot);
            return Err(StoreError::DuplicateKey(key));
        }
        drop(shard);
        self.alloc.record_count.fetch_add(1, Ordering::Relaxed);
        Ok(slot)
    }

    /// Removes the key → slot mapping so no new transaction can reach the
    /// slot. The slot itself stays allocated until the store
    /// [`SlotTable::free`]s it (a checkpointer may still need its
    /// contents).
    pub fn unlink(&self, key: Key) -> Result<SlotId, StoreError> {
        let slot = self
            .shard_of(key)
            .write()
            .remove(&key.0)
            .ok_or(StoreError::KeyNotFound(key))?;
        self.alloc.record_count.fetch_sub(1, Ordering::Relaxed);
        Ok(slot)
    }

    /// Restores a mapping removed by [`SlotTable::unlink`] (rollback of an
    /// aborted delete). The caller must hold the record's logical lock and
    /// the slot must still carry the key.
    pub fn relink(&self, key: Key, slot: SlotId) {
        let prev = self.shard_of(key).write().insert(key.0, slot);
        debug_assert!(prev.is_none(), "relink over an existing mapping");
        self.alloc.record_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns an emptied, unlinked slot to the free list. Call it while
    /// still holding the slot's mutex (or with the slot otherwise
    /// unreachable): an allocator that pops it then blocks on the mutex
    /// until the release is complete.
    pub fn free(&self, slot: SlotId) {
        self.alloc.free_slots.lock().push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::{DualVersionStore, StoreConfig};
    use crate::mem::MemoryStats;
    use crate::triple::TripleStore;
    use crate::zigzag::ZigzagStore;
    use calc_common::types::Value;

    /// What the protocol tests need of a store: its table, the two steps
    /// it hands to [`SlotTable::insert`], and its public surface.
    trait Store {
        fn with_capacity(capacity: usize) -> Self;
        fn table(&self) -> &SlotTable;
        fn fill(&self, slot: SlotId, key: Key, value: &[u8]);
        fn vacate(&self, slot: SlotId);
        fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError>;
        fn get(&self, key: Key) -> Option<Value>;
        /// Deletes `key` at rest, so its slot goes back on the free list.
        fn delete(&self, key: Key);
        fn memory(&self) -> MemoryStats;
    }

    fn config(capacity: usize) -> StoreConfig {
        StoreConfig {
            capacity,
            shards: 4,
            pool_buf_capacity: 16,
            pool_prealloc: 0,
        }
    }

    impl Store for DualVersionStore {
        fn with_capacity(capacity: usize) -> Self {
            DualVersionStore::new(config(capacity))
        }
        fn table(&self) -> &SlotTable {
            &self.table
        }
        fn fill(&self, slot: SlotId, key: Key, value: &[u8]) {
            DualVersionStore::fill(self, slot, key, value, false)
        }
        fn vacate(&self, slot: SlotId) {
            DualVersionStore::vacate(self, slot)
        }
        fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError> {
            DualVersionStore::insert(self, key, value)
        }
        fn get(&self, key: Key) -> Option<Value> {
            DualVersionStore::get(self, key)
        }
        fn delete(&self, key: Key) {
            let mut g = self.locked_slot_of(key).unwrap();
            g.clear_live();
            self.unlink(key).unwrap();
            assert!(g.release_if_vacant());
        }
        fn memory(&self) -> MemoryStats {
            DualVersionStore::memory(self)
        }
    }

    impl Store for TripleStore {
        fn with_capacity(capacity: usize) -> Self {
            TripleStore::new(config(capacity), false)
        }
        fn table(&self) -> &SlotTable {
            &self.table
        }
        fn fill(&self, slot: SlotId, key: Key, value: &[u8]) {
            TripleStore::fill(self, slot, key, value)
        }
        fn vacate(&self, slot: SlotId) {
            TripleStore::vacate(self, slot)
        }
        fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError> {
            TripleStore::insert(self, key, value)
        }
        fn get(&self, key: Key) -> Option<Value> {
            TripleStore::get(self, key)
        }
        fn delete(&self, key: Key) {
            // IPP reclaims a deleted record's slot when the next
            // checkpoint consumes its dirty bit.
            let slot = self.slot_of(key).unwrap();
            TripleStore::delete(self, key).unwrap();
            let retired = self.flip_current();
            assert_eq!(self.consume_retired(slot, retired), Some((key, None)));
        }
        fn memory(&self) -> MemoryStats {
            TripleStore::memory(self)
        }
    }

    impl Store for ZigzagStore {
        fn with_capacity(capacity: usize) -> Self {
            ZigzagStore::new(config(capacity))
        }
        fn table(&self) -> &SlotTable {
            &self.table
        }
        fn fill(&self, slot: SlotId, key: Key, value: &[u8]) {
            ZigzagStore::fill(self, slot, key, value)
        }
        fn vacate(&self, slot: SlotId) {
            ZigzagStore::vacate(self, slot)
        }
        fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError> {
            ZigzagStore::insert(self, key, value)
        }
        fn get(&self, key: Key) -> Option<Value> {
            ZigzagStore::get(self, key)
        }
        fn delete(&self, key: Key) {
            ZigzagStore::delete(self, key, false).unwrap();
        }
        fn memory(&self) -> MemoryStats {
            ZigzagStore::memory(self)
        }
    }

    /// A same-key insert issued from inside another insert's fill step
    /// publishes first, so the outer insert loses at publish.
    fn loser_of_a_same_key_race_hands_its_slot_back<S: Store>() {
        let key = Key(7);
        let s = S::with_capacity(8);
        let outer = s.table().insert(
            key,
            false,
            |slot| {
                s.fill(slot, key, b"loser");
                assert_eq!(s.insert(key, b"the winner"), Ok(1));
            },
            |slot| s.vacate(slot),
        );
        assert_eq!(outer, Err(StoreError::DuplicateKey(key)));
        assert_eq!(s.table().len(), 1, "exactly one winner");
        assert_eq!(s.table().slot_of(key), Some(1));
        assert_eq!(s.get(key).as_deref(), Some(&b"the winner"[..]));
        // The loser's slot is on the free list, and the next one out.
        assert_eq!(s.insert(Key(8), b"next"), Ok(0));
        assert_eq!(s.table().high_water(), 2);

        let only_winner = S::with_capacity(8);
        only_winner.insert(key, b"the winner").unwrap();
        only_winner.insert(Key(8), b"next").unwrap();
        assert_eq!(s.memory(), only_winner.memory());
    }

    fn a_full_arena_refuses_inserts_until_a_delete<S: Store>() {
        let s = S::with_capacity(2);
        s.insert(Key(1), b"a").unwrap();
        s.insert(Key(2), b"b").unwrap();
        assert_eq!(s.insert(Key(3), b"c"), Err(StoreError::CapacityExceeded));
        assert_eq!(
            s.table().high_water(),
            2,
            "a refused insert leaves the mark"
        );
        assert_eq!(s.table().len(), 2);
        s.delete(Key(1));
        assert_eq!(s.insert(Key(3), b"c"), Ok(0));
        assert_eq!(s.get(Key(3)).as_deref(), Some(&b"c"[..]));
        assert_eq!(s.table().high_water(), 2);
    }

    #[test]
    fn one_publication_protocol_under_all_three_stores() {
        loser_of_a_same_key_race_hands_its_slot_back::<DualVersionStore>();
        loser_of_a_same_key_race_hands_its_slot_back::<TripleStore>();
        loser_of_a_same_key_race_hands_its_slot_back::<ZigzagStore>();
    }

    #[test]
    fn capacity_exhaustion_under_all_three_stores() {
        a_full_arena_refuses_inserts_until_a_delete::<DualVersionStore>();
        a_full_arena_refuses_inserts_until_a_delete::<TripleStore>();
        a_full_arena_refuses_inserts_until_a_delete::<ZigzagStore>();
    }

    #[test]
    fn fresh_only_never_reuses_a_freed_slot() {
        let s = ZigzagStore::new(config(3));
        assert_eq!(s.insert(Key(1), b"a"), Ok(0));
        s.delete(Key(1), false).unwrap();
        assert_eq!(
            s.insert_opts(Key(2), b"b", true),
            Ok(1),
            "free list skipped"
        );
        assert_eq!(s.insert_opts(Key(3), b"c", true), Ok(2));
        assert_eq!(
            s.insert_opts(Key(4), b"d", true),
            Err(StoreError::CapacityExceeded),
            "slot 0 is free, but not fresh"
        );
        assert_eq!(s.insert(Key(4), b"d"), Ok(0));
    }
}
