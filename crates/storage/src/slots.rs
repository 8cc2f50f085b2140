//! The slot table every store sits on: key → slot index, slot allocator,
//! record count, and the one insert-publication protocol.
//!
//! The paper's per-record bit vectors need dense record indices; its
//! evaluation store is a hash table. [`SlotTable`] is the bridge: a
//! sharded `key → SlotId` map over a fixed range of `capacity` slots,
//! handed out from a high-water mark and a free list. The one store,
//! [`crate::Store`], owns the slot *contents* — its payloads' record
//! layouts are what distinguishes the schemes — in a
//! [`crate::SlotArena`], backed as the mark rises, and embeds this table
//! by value for everything else, so the comparison between schemes is
//! over one index, one allocator and one publication protocol.
//!
//! Restart installs through [`SlotTable::install_batch`], not record by
//! record, so a loader touches the allocator's shared words once per
//! batch.
//!
//! The table also carries the transaction lock words
//! ([`SlotTable::locks`]): one [`LockWords`] word per slot, which the
//! executor's ordered 2PL locks a transaction's declared keys in. The
//! rules that make them sound are in [`calc_common::lockword`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Mutex, RwLock};

use calc_common::lockword::LockWords;
use calc_common::types::Key;

use crate::dual::StoreError;
use crate::SlotId;

/// Shard index of `key` among `mask + 1` (a power of two) shards: a
/// splitmix-style mix so sequential keys spread across shards.
#[inline]
pub fn shard_index(key: Key, mask: usize) -> usize {
    (key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize & mask
}

/// A value on cache lines of its own (two, for the adjacent-line
/// prefetcher): words written by different threads must not share one.
#[repr(align(128))]
struct Line<T>(T);

impl<T> std::ops::Deref for Line<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// One shard of the key index.
type Shard = RwLock<HashMap<u64, SlotId>>;

/// Key index + slot allocator shared by the stores. See module docs.
pub struct SlotTable {
    shards: Box<[Line<Shard>]>,
    shard_mask: usize,
    capacity: usize,
    alloc: Allocator,
    locks: LockWords,
}

/// The words every insert and delete writes, each on a line of its own.
/// `high_water` is written by every fresh allocation, `record_count` by
/// every publish and unlink, and the free list only by deletes and the
/// allocations that reuse their slots. Its `len` mirrors the list's
/// length (a hint; the list is read under the mutex) so an allocation
/// finds it empty without taking the mutex. A
/// shared line would be bounced between the loader threads on every
/// record (and between the workers on every insert). None of them shares
/// a line with the shard locks above, which every lookup touches.
struct Allocator {
    high_water: Line<AtomicUsize>,
    free: Line<FreeList>,
    record_count: Line<AtomicUsize>,
}

struct FreeList {
    slots: Mutex<Vec<SlotId>>,
    len: AtomicUsize,
}

impl SlotTable {
    /// A table over `capacity` slots, indexed by `shards` hash shards
    /// (rounded up to a power of two).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n_shards = shards.max(1).next_power_of_two();
        SlotTable {
            shards: (0..n_shards)
                .map(|_| Line(RwLock::new(HashMap::new())))
                .collect(),
            shard_mask: n_shards - 1,
            capacity,
            alloc: Allocator {
                high_water: Line(AtomicUsize::new(0)),
                free: Line(FreeList {
                    slots: Mutex::new(Vec::new()),
                    len: AtomicUsize::new(0),
                }),
                record_count: Line(AtomicUsize::new(0)),
            },
            locks: LockWords::new(capacity),
        }
    }

    /// The transaction lock words, one per slot; a key's word is
    /// `locks().word_of(key.0)`.
    pub fn locks(&self) -> &LockWords {
        &self.locks
    }

    #[inline]
    fn shard_of(&self, key: Key) -> &Shard {
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

    /// Resolves a key to its slot, if linked. Out of line, so the key's
    /// hashing is compiled, and inlined, here once: the store's generic
    /// methods are compiled in their callers' crates, where the hasher
    /// otherwise stays two out-of-line calls (measured: ≈ 20 ns a lookup).
    #[inline(never)]
    pub fn slot_of(&self, key: Key) -> Option<SlotId> {
        self.shard_of(key).read().get(&key.0).copied()
    }

    fn allocate(&self, fresh_only: bool) -> Result<SlotId, StoreError> {
        let free = &self.alloc.free;
        if !fresh_only && free.len.load(Ordering::Relaxed) > 0 {
            let mut slots = free.slots.lock();
            if let Some(slot) = slots.pop() {
                free.len.store(slots.len(), Ordering::Relaxed);
                return Ok(slot);
            }
        }
        self.reserve(1).map(|(first, _)| first as SlotId)
    }

    /// Takes up to `n` fresh slots at the high-water mark in one add:
    /// the range `first..first + got`, `got < n` only when the arena ran
    /// out (`got == 0` is [`StoreError::CapacityExceeded`]).
    fn reserve(&self, n: usize) -> Result<(usize, usize), StoreError> {
        let high_water = &self.alloc.high_water;
        let first = high_water.fetch_add(n, Ordering::AcqRel);
        let got = n.min(self.capacity.saturating_sub(first));
        if got < n {
            high_water.fetch_sub(n - got, Ordering::AcqRel);
        }
        if got == 0 {
            return Err(StoreError::CapacityExceeded);
        }
        Ok((first, got))
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

    /// Installs a batch of records into fresh slots: the restart loader's
    /// path, where a key already resident was decided by a newer cycle.
    ///
    /// 1. Under one read lock per shard touched, drop the keys already
    ///    linked — they never take a slot.
    /// 2. Reserve the survivors' slots as one contiguous run at the
    ///    high-water mark (one add; the free list is not consulted).
    /// 3. `fill(slot, key, value)` each one, then report them to the store
    ///    once, `filled(records, bytes)`, for its counters.
    /// 4. Publish under one write lock per shard touched. A key that lost
    ///    the race to another installer keeps the winner's mapping and
    ///    goes the way of [`SlotTable::insert`]'s loser: `vacate(slot)`,
    ///    then the free list.
    /// 5. Count the winners into the record count once.
    ///
    /// Returns how many records were linked. An arena that runs out
    /// mid-batch installs the survivors that fit and reports
    /// [`StoreError::CapacityExceeded`].
    pub fn install_batch(
        &self,
        records: &[(Key, &[u8])],
        fill: impl Fn(SlotId, Key, &[u8]),
        filled: impl FnOnce(usize, usize),
        vacate: impl Fn(SlotId),
    ) -> Result<usize, StoreError> {
        // (shard, index into `records`), grouped by shard; the keys already
        // linked are dropped in place.
        let mut fresh: Vec<(usize, usize)> = records
            .iter()
            .enumerate()
            .map(|(i, (key, _))| (shard_index(*key, self.shard_mask), i))
            .collect();
        fresh.sort_unstable();
        let (mut kept, mut at) = (0, 0);
        while at < fresh.len() {
            let s = fresh[at].0;
            let shard = self.shards[s].read();
            while at < fresh.len() && fresh[at].0 == s {
                let Key(key) = records[fresh[at].1].0;
                if !shard.contains_key(&key) {
                    fresh[kept] = fresh[at];
                    kept += 1;
                }
                at += 1;
            }
        }
        fresh.truncate(kept);
        if fresh.is_empty() {
            return Ok(0);
        }
        let (first, got) = self.reserve(fresh.len())?;
        let slot = |n: usize| (first + n) as SlotId;
        let mut bytes = 0;
        for (n, &(_, i)) in fresh[..got].iter().enumerate() {
            let (key, value) = records[i];
            fill(slot(n), key, value);
            bytes += value.len();
        }
        filled(got, bytes);

        let (mut lost, mut n) = (Vec::new(), 0);
        while n < got {
            let s = fresh[n].0;
            let mut shard = self.shards[s].write();
            while n < got && fresh[n].0 == s {
                let Key(key) = records[fresh[n].1].0;
                if let Some(theirs) = shard.insert(key, slot(n)) {
                    shard.insert(key, theirs);
                    lost.push(slot(n));
                }
                n += 1;
            }
        }
        for &slot in &lost {
            vacate(slot);
            self.free(slot);
        }
        let linked = got - lost.len();
        self.alloc.record_count.fetch_add(linked, Ordering::Relaxed);
        if got < fresh.len() {
            return Err(StoreError::CapacityExceeded);
        }
        Ok(linked)
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

    /// Empties the table for a restart whose load must begin again:
    /// unlinks every key, has the store empty its slot with
    /// `vacate(slot)`, and rewinds the allocator (high-water mark, free
    /// list, record count), so the next install fills the arena from slot
    /// 0 as a fresh table would. Nothing else may use the table meanwhile.
    pub fn clear(&self, vacate: impl Fn(SlotId)) {
        for shard in self.shards.iter() {
            shard.write().drain().for_each(|(_, slot)| vacate(slot));
        }
        let free = &self.alloc.free;
        free.slots.lock().clear();
        free.len.store(0, Ordering::Relaxed);
        self.alloc.high_water.store(0, Ordering::Release);
        self.alloc.record_count.store(0, Ordering::Relaxed);
    }

    /// Returns an emptied, unlinked slot to the free list. Call it while
    /// still holding the slot's mutex (or with the slot otherwise
    /// unreachable): an allocator that pops it then blocks on the mutex
    /// until the release is complete.
    pub fn free(&self, slot: SlotId) {
        let free = &self.alloc.free;
        let mut slots = free.slots.lock();
        slots.push(slot);
        free.len.store(slots.len(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::{Dual, StoreConfig};
    use crate::store::{Payload, Store};
    use crate::triple::Triple;
    use crate::zigzag::Zigzag;

    /// What the protocol tests need beyond the store's own surface: a
    /// store of a capacity, and a delete at rest that puts the slot back
    /// on the free list.
    trait TestPayload: Payload + Sync
    where
        Self::Side: Sync,
    {
        fn with_capacity(capacity: usize) -> Store<Self>;
        fn delete_at_rest(s: &Store<Self>, key: Key);
    }

    fn config(capacity: usize) -> StoreConfig {
        StoreConfig {
            capacity,
            shards: 4,
            pool_buf_capacity: 16,
            pool_prealloc: 0,
        }
    }

    impl TestPayload for Dual {
        fn with_capacity(capacity: usize) -> Store<Self> {
            Store::<Dual>::new(config(capacity))
        }
        fn delete_at_rest(s: &Store<Self>, key: Key) {
            let g = s.delete(key, None, &mut Vec::new()).unwrap();
            assert!(g.release_if_vacant());
        }
    }

    impl TestPayload for Triple {
        fn with_capacity(capacity: usize) -> Store<Self> {
            Store::<Triple>::new(config(capacity), false)
        }
        fn delete_at_rest(s: &Store<Self>, key: Key) {
            // IPP reclaims a deleted record's slot when the next
            // checkpoint consumes its dirty bit.
            let slot = s.delete(key, None, &mut Vec::new()).unwrap().slot();
            let retired = s.flip_current();
            assert_eq!(s.consume_retired(slot, retired), Some((key, None)));
        }
    }

    impl TestPayload for Zigzag {
        fn with_capacity(capacity: usize) -> Store<Self> {
            Store::<Zigzag>::new(config(capacity))
        }
        fn delete_at_rest(s: &Store<Self>, key: Key) {
            s.delete(key, None, &mut Vec::new()).unwrap().free();
        }
    }

    /// The fill step [`SlotTable::insert`] is handed, counted as an
    /// insert counts it.
    fn fill<P: Payload>(s: &Store<P>, slot: SlotId, key: Key, value: &[u8]) {
        s.fill(slot, key, value, P::Fill::default());
        s.count_filled(1, value.len());
    }

    /// A same-key insert issued from inside another insert's fill step
    /// publishes first, so the outer insert loses at publish.
    fn loser_of_a_same_key_race_hands_its_slot_back<P: TestPayload>() {
        let key = Key(7);
        let s = P::with_capacity(8);
        let outer = s.table.insert(
            key,
            false,
            |slot| {
                fill(&s, slot, key, b"loser");
                assert_eq!(s.insert(key, b"the winner"), Ok(1));
            },
            |slot| s.vacate(slot),
        );
        assert_eq!(outer, Err(StoreError::DuplicateKey(key)));
        assert_eq!(s.table.len(), 1, "exactly one winner");
        assert_eq!(s.table.slot_of(key), Some(1));
        assert_eq!(s.get(key).as_deref(), Some(&b"the winner"[..]));
        // The loser's slot is on the free list, and the next one out.
        assert_eq!(s.insert(Key(8), b"next"), Ok(0));
        assert_eq!(s.table.high_water(), 2);

        let only_winner = P::with_capacity(8);
        only_winner.insert(key, b"the winner").unwrap();
        only_winner.insert(Key(8), b"next").unwrap();
        assert_eq!(s.memory(), only_winner.memory());
    }

    fn a_full_arena_refuses_inserts_until_a_delete<P: TestPayload>() {
        let s = P::with_capacity(2);
        s.insert(Key(1), b"a").unwrap();
        s.insert(Key(2), b"b").unwrap();
        assert_eq!(s.insert(Key(3), b"c"), Err(StoreError::CapacityExceeded));
        assert_eq!(s.table.high_water(), 2, "a refused insert leaves the mark");
        assert_eq!(s.table.len(), 2);
        P::delete_at_rest(&s, Key(1));
        assert_eq!(s.insert(Key(3), b"c"), Ok(0));
        assert_eq!(s.get(Key(3)).as_deref(), Some(&b"c"[..]));
        assert_eq!(s.table.high_water(), 2);
    }

    /// A key already linked is dropped before the reservation: it takes
    /// no slot and keeps its value.
    fn a_resident_key_in_a_batch_takes_no_slot<P: TestPayload>() {
        let s = P::with_capacity(8);
        s.insert(Key(1), b"resident").unwrap();
        let batch: [(Key, &[u8]); 3] = [(Key(2), b"b"), (Key(1), b"older"), (Key(3), b"c")];
        assert_eq!(s.install_batch(&batch), Ok(2));
        assert_eq!(s.table.high_water(), 3, "the resident key took no slot");
        assert_eq!(s.table.len(), 3);
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"resident"[..]));
        assert_eq!(s.get(Key(3)).as_deref(), Some(&b"c"[..]));
        assert_eq!(s.install_batch(&batch), Ok(0), "all resident now");
        assert_eq!(s.table.high_water(), 3);

        let inserted = P::with_capacity(8);
        for (key, value) in [(Key(1), &b"resident"[..]), (Key(2), b"b"), (Key(3), b"c")] {
            inserted.insert(key, value).unwrap();
        }
        assert_eq!(s.memory(), inserted.memory());
    }

    /// A cleared store is a fresh one: no key, nothing counted, and the
    /// allocator rewound — the next install fills from slot 0, up to the
    /// whole capacity, whatever the free list held.
    fn a_cleared_store_is_a_fresh_one<P: TestPayload>() {
        let s = P::with_capacity(8);
        s.insert(Key(1), b"one").unwrap();
        let batch: [(Key, &[u8]); 3] = [(Key(2), b"two"), (Key(3), b"three"), (Key(4), b"4")];
        assert_eq!(s.install_batch(&batch), Ok(3));
        P::delete_at_rest(&s, Key(2));
        s.clear();
        assert_eq!(s.table.len(), 0);
        assert_eq!(s.table.high_water(), 0);
        assert!((1..=4).all(|k| s.get(Key(k)).is_none()));
        assert_eq!(s.memory(), P::with_capacity(8).memory());
        let values: Vec<[u8; 1]> = (0..8u8).map(|v| [v]).collect();
        let refill: Vec<(Key, &[u8])> = (0..8u64)
            .map(|k| (Key(k + 3), &values[k as usize][..]))
            .collect();
        assert_eq!(s.install_batch(&refill), Ok(8));
        assert_eq!(s.table.high_water(), 8);
        assert_eq!(
            s.get(Key(3)).as_deref(),
            Some(&[0u8][..]),
            "no stale value survives"
        );
    }

    /// Two installers racing over overlapping key ranges: every key ends
    /// up linked once, with one of the two values, and every slot either
    /// holds a linked record or is back on the free list.
    fn overlapping_batches_leave_one_winner_per_key<P: TestPayload>() {
        const KEYS: u64 = 600;
        for round in 0..8 {
            let s = P::with_capacity(2 * KEYS as usize);
            let values: Vec<[u8; 8]> = (0..2u64).map(|t| (round * 2 + t).to_le_bytes()).collect();
            let start = std::sync::Barrier::new(2);
            let installed: Vec<usize> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2u64)
                    .map(|t| {
                        let (s, start, value) = (&s, &start, &values[t as usize]);
                        scope.spawn(move || {
                            // Thread 0 takes 0..400, thread 1 200..600.
                            let keys = t * KEYS / 3..(t + 2) * KEYS / 3;
                            let batch: Vec<(Key, &[u8])> =
                                keys.map(|k| (Key(k), &value[..])).collect();
                            start.wait();
                            s.install_batch(&batch).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(
                installed.iter().sum::<usize>(),
                KEYS as usize,
                "round {round}"
            );
            assert_eq!(s.table.len(), KEYS as usize);
            let winners = P::with_capacity(2 * KEYS as usize);
            for k in 0..KEYS {
                let got = s.get(Key(k)).unwrap_or_else(|| panic!("key {k} lost"));
                assert!(values.iter().any(|v| v[..] == got[..]), "key {k}: {got:?}");
                winners.insert(Key(k), &got).unwrap();
            }
            let free = s.table.alloc.free.slots.lock().len();
            assert_eq!(s.table.high_water(), s.table.len() + free, "a slot leaked");
            assert_eq!(
                s.memory(),
                winners.memory(),
                "a loser's copy was left counted"
            );
        }
    }

    /// An arena that runs out mid-batch installs what fits; the count,
    /// the mark and the memory counters all describe exactly that.
    fn a_batch_that_runs_out_of_capacity_stays_consistent<P: TestPayload>() {
        let s = P::with_capacity(5);
        s.insert(Key(100), b"first").unwrap();
        let values: Vec<[u8; 8]> = (0..6u64).map(|k| k.to_le_bytes()).collect();
        let batch: Vec<(Key, &[u8])> = (0..6u64)
            .map(|k| (Key(k), &values[k as usize][..]))
            .collect();
        assert_eq!(s.install_batch(&batch), Err(StoreError::CapacityExceeded));
        assert_eq!(s.table.len(), 5);
        assert_eq!(s.table.high_water(), 5);
        let landed: Vec<u64> = (0..6).filter(|&k| s.get(Key(k)).is_some()).collect();
        assert_eq!(landed.len(), 4, "what fits is installed");

        let expected = P::with_capacity(5);
        expected.insert(Key(100), b"first").unwrap();
        for &k in &landed {
            expected.insert(Key(k), &values[k as usize]).unwrap();
        }
        assert_eq!(s.memory(), expected.memory());
        let left_out = (0..6).find(|k| !landed.contains(k)).unwrap() as usize;
        assert_eq!(
            s.install_batch(&batch[left_out..=left_out]),
            Err(StoreError::CapacityExceeded)
        );
        assert_eq!((s.table.len(), s.table.high_water()), (5, 5));
        assert_eq!(s.memory(), expected.memory());
    }

    /// Inserts one at a time and a batch each cross chunk boundaries;
    /// after each, exactly the chunks under the high water are backed.
    fn backed_chunks_follow_the_high_water<P: TestPayload>() {
        let chunk = crate::arena::chunk_slots();
        let s = P::with_capacity(4 * chunk);
        let backed = |s: &Store<P>| s.table.high_water().div_ceil(chunk);
        for k in 0..chunk as u64 + 1 {
            s.insert(Key(k), &k.to_le_bytes()).unwrap();
            if k as usize + 2 >= chunk {
                assert_eq!(
                    s.slots.backed_chunks(),
                    backed(&s),
                    "after {} inserts",
                    k + 1
                );
            }
        }
        assert_eq!(s.slots.backed_chunks(), 2);
        let values: Vec<[u8; 8]> = (0..2 * chunk as u64).map(|k| k.to_le_bytes()).collect();
        let batch: Vec<(Key, &[u8])> = values
            .iter()
            .enumerate()
            .skip(chunk + 1)
            .map(|(k, v)| (Key(k as u64), &v[..]))
            .collect();
        assert_eq!(s.install_batch(&batch), Ok(chunk - 1));
        assert_eq!(s.table.high_water(), 2 * chunk);
        assert_eq!(s.slots.backed_chunks(), 2);
        assert_eq!(s.install_batch(&[(Key(u64::MAX), b"x")]), Ok(1));
        assert_eq!(s.slots.backed_chunks(), 3);
        for (k, v) in values.iter().enumerate() {
            assert_eq!(s.get(Key(k as u64)).as_deref(), Some(&v[..]), "key {k}");
        }
    }

    /// Threads racing to allocate the slots on either side of a chunk
    /// boundary each get a distinct slot that holds their record.
    fn racing_allocations_across_a_boundary_each_get_a_slot<P: TestPayload>() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 4;
        let chunk = crate::arena::chunk_slots();
        let s = P::with_capacity(2 * chunk);
        let below: Vec<(Key, &[u8])> = (0..chunk as u64 - 6)
            .map(|k| (Key(k), &b"below"[..]))
            .collect();
        s.install_batch(&below).unwrap();
        let start = std::sync::Barrier::new(THREADS as usize);
        let mut slots: Vec<SlotId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (s, start) = (&s, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..PER_THREAD)
                            .map(|i| {
                                let key = Key(1 << 32 | t << 8 | i);
                                s.insert(key, &key.0.to_le_bytes()).unwrap()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let key = Key(1 << 32 | t << 8 | i);
                assert_eq!(s.get(key).as_deref(), Some(&key.0.to_le_bytes()[..]));
            }
        }
        slots.sort_unstable();
        let fresh: Vec<SlotId> = (chunk as SlotId - 6..chunk as SlotId + 10).collect();
        assert_eq!(slots, fresh, "each thread took distinct fresh slots");
        assert_eq!(s.slots.backed_chunks(), 2);
    }

    #[test]
    fn slot_arena_backing_under_all_three_stores() {
        backed_chunks_follow_the_high_water::<Dual>();
        backed_chunks_follow_the_high_water::<Triple>();
        backed_chunks_follow_the_high_water::<Zigzag>();
        racing_allocations_across_a_boundary_each_get_a_slot::<Dual>();
        racing_allocations_across_a_boundary_each_get_a_slot::<Triple>();
        racing_allocations_across_a_boundary_each_get_a_slot::<Zigzag>();
    }

    #[test]
    fn a_store_at_capacity_1_shl_24_backs_no_chunk() {
        fn check<P: TestPayload>() {
            let s = P::with_capacity(1 << 24);
            assert!(s.get(Key(3)).is_none());
            assert_eq!(s.slots.backed_chunks(), 0);
        }
        check::<Dual>();
        check::<Triple>();
        check::<Zigzag>();
    }

    #[test]
    fn batch_install_under_all_three_stores() {
        a_resident_key_in_a_batch_takes_no_slot::<Dual>();
        a_resident_key_in_a_batch_takes_no_slot::<Triple>();
        a_resident_key_in_a_batch_takes_no_slot::<Zigzag>();
        overlapping_batches_leave_one_winner_per_key::<Dual>();
        overlapping_batches_leave_one_winner_per_key::<Triple>();
        overlapping_batches_leave_one_winner_per_key::<Zigzag>();
        a_batch_that_runs_out_of_capacity_stays_consistent::<Dual>();
        a_batch_that_runs_out_of_capacity_stays_consistent::<Triple>();
        a_batch_that_runs_out_of_capacity_stays_consistent::<Zigzag>();
        a_cleared_store_is_a_fresh_one::<Dual>();
        a_cleared_store_is_a_fresh_one::<Triple>();
        a_cleared_store_is_a_fresh_one::<Zigzag>();
    }

    #[test]
    fn one_publication_protocol_under_all_three_stores() {
        loser_of_a_same_key_race_hands_its_slot_back::<Dual>();
        loser_of_a_same_key_race_hands_its_slot_back::<Triple>();
        loser_of_a_same_key_race_hands_its_slot_back::<Zigzag>();
    }

    #[test]
    fn capacity_exhaustion_under_all_three_stores() {
        a_full_arena_refuses_inserts_until_a_delete::<Dual>();
        a_full_arena_refuses_inserts_until_a_delete::<Triple>();
        a_full_arena_refuses_inserts_until_a_delete::<Zigzag>();
    }

    #[test]
    fn fresh_only_never_reuses_a_freed_slot() {
        let s = Zigzag::with_capacity(3);
        assert_eq!(s.insert(Key(1), b"a"), Ok(0));
        Zigzag::delete_at_rest(&s, Key(1));
        assert_eq!(
            s.insert_with(Key(2), b"b", true, ()),
            Ok(1),
            "free list skipped"
        );
        assert_eq!(s.insert_with(Key(3), b"c", true, ()), Ok(2));
        assert_eq!(
            s.insert_with(Key(4), b"d", true, ()),
            Err(StoreError::CapacityExceeded),
            "slot 0 is free, but not fresh"
        );
        assert_eq!(s.insert(Key(4), b"d"), Ok(0));
    }
}
