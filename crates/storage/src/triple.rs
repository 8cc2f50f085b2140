//! The triple-copy store used by the Interleaved Ping-Pong baseline
//! (§4.1.3).
//!
//! IPP maintains the application state plus two additional arrays, `odd`
//! and `even`, each with one dirty bit per element. Every update writes
//! **both** the application state and the array designated *current*
//! (setting its dirty bit) — the double write is IPP's ~25% standing
//! overhead on write-intensive workloads (§5.1.1). At each physical point
//! of consistency the current array flips; a background thread then merges
//! the *retired* array's dirty values into the last consistent snapshot —
//! an in-memory full copy of the database, the 4th copy of Figure 6 — and
//! writes the checkpoint.
//!
//! Per §4.1.3, the original IPP stores all three copies of a record
//! contiguously for cache locality; we keep that optimization by placing
//! all three copies in the same slot of the arena (same mutex, same cache
//! lines), while using the same hash-table engine as CALC for an
//! apples-to-apples comparison.
//!
//! **Deletion caveat** (inherent to the algorithm — the original IPP has
//! no deletes at all): a deleted record's slot is retained until the next
//! checkpoint consumes its dirty bit, so workloads with insert/delete
//! churn need `O(deletes per checkpoint interval)` spare slot capacity.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

use calc_common::bitvec::AtomicBitVec;
use calc_common::types::{Key, Value};

use crate::arena::SlotArena;
use crate::dual::{StoreConfig, StoreError};
use crate::mem::{MemCounter, MemoryStats};
use crate::slots::SlotTable;
use crate::SlotId;

#[derive(Default)]
pub(crate) struct IppSlot {
    key: u64,
    in_use: bool,
    /// Application state — what transactions read.
    state: Option<Value>,
    /// The `even` (0) and `odd` (1) ping-pong copies.
    pingpong: [Option<Value>; 2],
}

/// Per-slot snapshot entries: `(raw key, value)` under a slot mutex.
type SnapshotArray = SlotArena<Mutex<Option<(u64, Value)>>>;

/// The IPP store. See module docs.
pub struct TripleStore {
    pub(crate) table: SlotTable,
    pub(crate) slots: SlotArena<Mutex<IppSlot>>,
    dirty: [AtomicBitVec; 2],
    /// Index (0=even, 1=odd) of the array currently receiving writes.
    current: AtomicBool,
    /// Last consistent snapshot (full-IPP only): the in-memory checkpoint
    /// that retired dirty values merge into.
    snapshot: Option<SnapshotArray>,
    state_mem: MemCounter,
    pingpong_mem: MemCounter,
    snapshot_mem: MemCounter,
}

impl TripleStore {
    /// Creates an empty store. `with_snapshot` enables the in-memory last
    /// consistent snapshot required by full-IPP; pIPP runs without it.
    pub fn new(config: StoreConfig, with_snapshot: bool) -> Self {
        TripleStore {
            table: SlotTable::new(config.capacity, config.shards),
            slots: SlotArena::new(config.capacity),
            dirty: [
                AtomicBitVec::new(config.capacity),
                AtomicBitVec::new(config.capacity),
            ],
            // The paper starts with `odd` as current.
            current: AtomicBool::new(true),
            snapshot: with_snapshot.then(|| SlotArena::new(config.capacity)),
            state_mem: MemCounter::new(),
            pingpong_mem: MemCounter::new(),
            snapshot_mem: MemCounter::new(),
        }
    }

    /// Index of the array currently receiving writes.
    #[inline]
    pub fn current_array(&self) -> usize {
        self.current.load(Ordering::Acquire) as usize
    }

    /// Current record count.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum record count.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Highest allocated slot index.
    pub fn slot_high_water(&self) -> usize {
        self.table.high_water()
    }

    /// Resolves a key to its slot.
    pub fn slot_of(&self, key: Key) -> Option<SlotId> {
        self.table.slot_of(key)
    }

    /// The slot table's transaction lock words.
    pub fn locks(&self) -> &calc_common::lockword::LockWords {
        self.table.locks()
    }

    /// Reads the application state by slot (bulk scans; returns the key
    /// alongside).
    pub fn get_by_slot(&self, slot: SlotId) -> Option<(Key, Value)> {
        let g = self.slots[slot as usize].lock();
        if g.in_use {
            g.state.as_ref().map(|v| (Key(g.key), v.clone()))
        } else {
            None
        }
    }

    /// Reads the application state.
    pub fn get(&self, key: Key) -> Option<Value> {
        loop {
            let slot = self.slot_of(key)?;
            let g = self.slots[slot as usize].lock();
            if g.in_use && g.key == key.0 {
                return g.state.clone();
            }
        }
    }

    /// Inserts a record: application state + current-array copy, with the
    /// dirty bit set (the record must appear in the next checkpoint).
    pub fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError> {
        self.table.insert(
            key,
            false,
            |slot| {
                self.fill(slot, key, value);
                self.count_filled(1, value.len());
            },
            |slot| self.vacate(slot),
        )
    }

    /// Installs a batch of records into a store at rest (initial load,
    /// restart) through [`SlotTable::install_batch`]: resident keys are
    /// skipped, the rest are inserted as [`TripleStore::insert`] would,
    /// with the memory counters touched once. Returns how many were
    /// installed.
    pub fn install_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError> {
        self.table.install_batch(
            records,
            |slot, key, value| self.fill(slot, key, value),
            |count, bytes| self.count_filled(count, bytes),
            |slot| self.vacate(slot),
        )
    }

    /// The fill step of [`SlotTable::insert`] and
    /// [`SlotTable::install_batch`]; the caller counts the value's bytes
    /// with [`TripleStore::count_filled`].
    pub(crate) fn fill(&self, slot: SlotId, key: Key, value: &[u8]) {
        let cur = self.current_array();
        let mut g = self.slots.back(slot as usize).lock();
        g.key = key.0;
        g.in_use = true;
        g.state = Some(value.to_vec().into_boxed_slice());
        g.pingpong = [None, None];
        g.pingpong[cur] = Some(value.to_vec().into_boxed_slice());
        self.dirty[cur].set(slot as usize, true);
        self.dirty[1 - cur].set(slot as usize, false);
    }

    /// Counts `count` filled records of `bytes` in total: a state copy
    /// and a current-array copy each.
    pub(crate) fn count_filled(&self, count: usize, bytes: usize) {
        self.state_mem.add_many(count, bytes);
        self.pingpong_mem.add_many(count, bytes);
    }

    /// Undoes [`TripleStore::fill`] for an insert that lost the race to
    /// publish.
    pub(crate) fn vacate(&self, slot: SlotId) {
        let mut g = self.slots[slot as usize].lock();
        if let Some(old) = g.state.take() {
            self.state_mem.sub(old.len());
        }
        for v in g.pingpong.iter_mut() {
            if let Some(old) = v.take() {
                self.pingpong_mem.sub(old.len());
            }
        }
        g.in_use = false;
        g.key = 0;
    }

    /// Updates a record: writes application state **and** the current
    /// array, setting the dirty bit — IPP's double-write. Returns the old
    /// state for undo.
    pub fn write(&self, key: Key, value: &[u8]) -> Result<Option<Value>, StoreError> {
        let mut old = Vec::new();
        let (_, had) = self.overwrite(key, value, &mut old)?;
        Ok(had.then(|| old.into_boxed_slice()))
    }

    /// [`TripleStore::write`] with one lookup and no undo allocation:
    /// appends the old state to `old` (the caller's undo space) and
    /// returns the slot written and whether there was an old state. A
    /// value of a copy's length is written over it in place.
    pub fn overwrite(
        &self,
        key: Key,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> Result<(SlotId, bool), StoreError> {
        let slot = self.slot_of(key).ok_or(StoreError::KeyNotFound(key))?;
        let cur = self.current_array();
        let mut g = self.slots[slot as usize].lock();
        if !g.in_use || g.key != key.0 {
            return Err(StoreError::KeyNotFound(key));
        }
        if let Some(prev) = &g.state {
            old.extend_from_slice(prev);
        }
        let had = g.state.is_some();
        self.state_mem.overwrite(&mut g.state, value);
        self.pingpong_mem.overwrite(&mut g.pingpong[cur], value);
        self.dirty[cur].set(slot as usize, true);
        Ok((slot, had))
    }

    /// Deletes a record: clears the application state and marks the
    /// current array with a `None` copy + dirty bit, so the deletion is
    /// propagated to the next checkpoint as a tombstone.
    pub fn delete(&self, key: Key) -> Result<Option<Value>, StoreError> {
        let slot = self.table.unlink(key)?;
        let cur = self.current_array();
        let mut g = self.slots[slot as usize].lock();
        let undo = g.state.clone();
        if let Some(old) = g.state.take() {
            self.state_mem.sub(old.len());
        }
        if let Some(old) = g.pingpong[cur].take() {
            self.pingpong_mem.sub(old.len());
        }
        self.dirty[cur].set(slot as usize, true);
        Ok(undo)
    }

    /// Flips the current array at a physical point of consistency (the
    /// caller must have quiesced). Returns the index of the **retired**
    /// array, whose dirty entries the background thread should process.
    pub fn flip_current(&self) -> usize {
        let old = self.current.fetch_xor(true, Ordering::AcqRel);
        old as usize
    }

    /// Consumes one retired dirty entry: returns `(key, Some(value))` for
    /// an update or `(key, None)` for a deletion as of the point of
    /// consistency, clears the dirty bit, merges into the snapshot (if
    /// enabled), and reclaims fully-dead slots. Returns `None` if the slot
    /// is not dirty in `retired` or is vacant.
    pub fn consume_retired(&self, slot: SlotId, retired: usize) -> Option<(Key, Option<Value>)> {
        if !self.dirty[retired].get(slot as usize) {
            return None;
        }
        let mut g = self.slots[slot as usize].lock();
        self.dirty[retired].set(slot as usize, false);
        if !g.in_use {
            return None;
        }
        let key = Key(g.key);
        let value = g.pingpong[retired].clone();
        // The retired copy has been consumed; release it (the paper keeps
        // the arrays pre-allocated, but releasing keeps byte accounting
        // honest for variable-length values — the *slot* stays).
        if let Some(old) = g.pingpong[retired].take() {
            self.pingpong_mem.sub(old.len());
        }
        if let Some(snapshot) = &self.snapshot {
            let mut snap = snapshot.back(slot as usize).lock();
            match &value {
                Some(v) => {
                    let entry = (key.0, v.clone());
                    self.snapshot_mem.add(v.len());
                    if let Some((_, old)) = snap.replace(entry) {
                        self.snapshot_mem.sub(old.len());
                    }
                }
                None => {
                    if let Some((_, old)) = snap.take() {
                        self.snapshot_mem.sub(old.len());
                    }
                }
            }
        }
        // Record deleted and both ping-pong copies drained → reclaim.
        if g.state.is_none() && g.pingpong.iter().all(|p| p.is_none()) {
            let other_dirty = self.dirty[1 - retired].get(slot as usize);
            if !other_dirty {
                g.in_use = false;
                g.key = 0;
                self.table.free(slot);
            }
        }
        Some((key, value))
    }

    /// Re-injects a point-of-consistency value consumed by a *failed*
    /// checkpoint capture into the **current** array, so the next capture
    /// covers it. Skipped when the slot was reclaimed/reused or when the
    /// current copy is already dirty — a post-flip write supersedes the
    /// failed capture's older value.
    pub fn restore_to_current(&self, slot: SlotId, key: Key, value: &Value) {
        let cur = self.current_array();
        let mut g = self.slots[slot as usize].lock();
        if !g.in_use || g.key != key.0 {
            return;
        }
        if self.dirty[cur].get(slot as usize) {
            return;
        }
        let copy = value.clone();
        self.pingpong_mem.add(copy.len());
        if let Some(old) = g.pingpong[cur].replace(copy) {
            self.pingpong_mem.sub(old.len());
        }
        self.dirty[cur].set(slot as usize, true);
    }

    /// Iterates the in-memory last consistent snapshot (full-IPP): every
    /// `(key, value)` in slot order. Panics if the store was built without
    /// a snapshot.
    pub fn snapshot_entries(&self) -> Vec<(Key, Value)> {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("snapshot_entries on a store built without snapshot");
        let mut out = Vec::new();
        for slot in 0..self.slot_high_water() {
            let g = snapshot[slot].lock();
            if let Some((k, v)) = g.as_ref() {
                out.push((Key(*k), v.clone()));
            }
        }
        out
    }

    /// Seeds the snapshot with the current application state — done once
    /// after initial load so the first checkpoint merge has a base.
    pub fn seed_snapshot(&self) {
        let snapshot = self
            .snapshot
            .as_ref()
            .expect("seed_snapshot on a store built without snapshot");
        for slot in 0..self.slot_high_water() {
            let g = self.slots[slot].lock();
            if g.in_use {
                if let Some(v) = &g.state {
                    let mut snap = snapshot.back(slot).lock();
                    self.snapshot_mem.add(v.len());
                    if let Some((_, old)) = snap.replace((g.key, v.clone())) {
                        self.snapshot_mem.sub(old.len());
                    }
                }
            }
        }
    }

    /// Memory report: state counts as live; ping-pong copies + snapshot as
    /// extra — the up-to-4× line of Figure 6.
    pub fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_bytes: self.state_mem.bytes(),
            live_count: self.state_mem.count(),
            extra_bytes: self.pingpong_mem.bytes() + self.snapshot_mem.bytes(),
            extra_count: self.pingpong_mem.count() + self.snapshot_mem.count(),
            overhead_bytes: self.dirty[0].heap_bytes() * 2,
        }
    }
}

impl std::fmt::Debug for TripleStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TripleStore(len={}, capacity={})", self.len(), self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(with_snapshot: bool) -> TripleStore {
        TripleStore::new(StoreConfig::for_records(256, 32), with_snapshot)
    }

    #[test]
    fn insert_get_write() {
        let s = store(false);
        s.insert(Key(1), b"v0").unwrap();
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"v0"[..]));
        let undo = s.write(Key(1), b"v1").unwrap();
        assert_eq!(undo.as_deref(), Some(&b"v0"[..]));
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"v1"[..]));
    }

    #[test]
    fn retired_array_holds_point_of_consistency_values() {
        let s = store(false);
        let slot = s.insert(Key(1), b"a").unwrap();
        s.write(Key(1), b"b").unwrap();
        // Physical point of consistency: flip. Writes so far are in the
        // retired array.
        let retired = s.flip_current();
        // Post-point writes land in the *new* current array.
        s.write(Key(1), b"c").unwrap();
        let (k, v) = s.consume_retired(slot, retired).unwrap();
        assert_eq!(k, Key(1));
        assert_eq!(v.as_deref(), Some(&b"b"[..]));
        // Reads still see the newest value.
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"c"[..]));
    }

    #[test]
    fn clean_records_are_not_in_retired_set() {
        let s = store(false);
        let slot = s.insert(Key(1), b"a").unwrap();
        let retired = s.flip_current();
        assert!(s.consume_retired(slot, retired).is_some(), "insert marked dirty");
        // Second cycle with no writes: nothing dirty.
        let retired = s.flip_current();
        assert!(s.consume_retired(slot, retired).is_none());
    }

    #[test]
    fn delete_propagates_tombstone() {
        let s = store(false);
        let slot = s.insert(Key(1), b"a").unwrap();
        let retired = s.flip_current();
        s.consume_retired(slot, retired);
        s.delete(Key(1)).unwrap();
        assert!(s.get(Key(1)).is_none());
        let retired = s.flip_current();
        let (k, v) = s.consume_retired(slot, retired).unwrap();
        assert_eq!(k, Key(1));
        assert!(v.is_none(), "tombstone");
    }

    #[test]
    fn snapshot_merge_produces_consistent_full_state() {
        let s = store(true);
        for k in 0..5u64 {
            s.insert(Key(k), format!("init-{k}").as_bytes()).unwrap();
        }
        s.seed_snapshot();
        // Period 0: update keys 1 and 3.
        s.write(Key(1), b"p0-1").unwrap();
        s.write(Key(3), b"p0-3").unwrap();
        let retired = s.flip_current();
        // Post-point write must not leak into this checkpoint.
        s.write(Key(1), b"p1-1").unwrap();
        for slot in 0..s.slot_high_water() {
            s.consume_retired(slot as SlotId, retired);
        }
        let snap: Vec<(u64, String)> = s
            .snapshot_entries()
            .into_iter()
            .map(|(k, v)| (k.0, String::from_utf8(v.to_vec()).unwrap()))
            .collect();
        assert_eq!(
            snap,
            vec![
                (0, "init-0".into()),
                (1, "p0-1".into()),
                (2, "init-2".into()),
                (3, "p0-3".into()),
                (4, "init-4".into()),
            ]
        );
    }

    #[test]
    fn memory_counts_all_copies() {
        let s = store(true);
        for k in 0..10u64 {
            s.insert(Key(k), &[0u8; 50]).unwrap();
        }
        s.seed_snapshot();
        let m = s.memory();
        assert_eq!(m.live_count, 10, "state copies");
        // 10 current-array copies + 10 snapshot copies.
        assert_eq!(m.extra_count, 20);
        // After a full cycle both ping-pong arrays have been populated once
        // and the retired one drained.
        let retired = s.flip_current();
        for k in 0..10u64 {
            s.write(Key(k), &[1u8; 50]).unwrap();
        }
        for slot in 0..s.slot_high_water() {
            s.consume_retired(slot as SlotId, retired);
        }
        let m = s.memory();
        assert_eq!(m.live_count, 10);
        // 10 new current copies + 10 snapshot copies (retired drained).
        assert_eq!(m.extra_count, 20);
    }
}
