//! The dual-copy store used by the Zig-Zag baseline (§4.1.4).
//!
//! Zig-Zag keeps two versions of every record, `AS[k]₀` and `AS[k]₁`, plus
//! two bit vectors: `MR[k]` selects the version to *read*, `MW[k]` the
//! version to *overwrite*. Every update writes `AS[k][MW[k]]` and then sets
//! `MR[k] = MW[k]`. A checkpoint begins at a physical point of consistency
//! by setting `MW[k] = ¬MR[k]` for all `k`; from then on the first update
//! of a record is redirected away from the copy the asynchronous
//! checkpointer reads (`AS[k][¬MW[k]]`).
//!
//! Per the paper's §4.1.4 we keep the algorithm's semantics but back it
//! with the same hash-table/slot-arena engine as CALC rather than the
//! original fixed-width array storage, so the comparison is
//! apples-to-apples. Both copies are materialized at insert time — the 2×
//! standing memory cost of Figure 6 and the bit-vector bookkeeping on every
//! write (the ~4% rest overhead of §5.1.1) follow from that.

use parking_lot::{Mutex, MutexGuard};

use calc_common::bitvec::AtomicBitVec;
use calc_common::types::{Key, Value};

use crate::dual::{StoreConfig, StoreError};
use crate::mem::{MemCounter, MemoryStats};
use crate::slots::SlotTable;
use crate::SlotId;

struct ZzSlot {
    key: u64,
    in_use: bool,
    versions: [Option<Value>; 2],
}

const EMPTY: ZzSlot = ZzSlot {
    key: 0,
    in_use: false,
    versions: [None, None],
};

/// The Zig-Zag store. See module docs.
pub struct ZigzagStore {
    pub(crate) table: SlotTable,
    slots: Box<[Mutex<ZzSlot>]>,
    mr: AtomicBitVec,
    mw: AtomicBitVec,
    /// Bytes and count of copy 0 (reported as live) and copy 1 (extra).
    mem: [MemCounter; 2],
}

impl ZigzagStore {
    /// Creates an empty store. `MR` is initialized to zeros and `MW` to
    /// ones, as in the paper.
    pub fn new(config: StoreConfig) -> Self {
        let mw = AtomicBitVec::new(config.capacity);
        mw.set_all();
        ZigzagStore {
            table: SlotTable::new(config.capacity, config.shards),
            slots: (0..config.capacity).map(|_| Mutex::new(EMPTY)).collect(),
            mr: AtomicBitVec::new(config.capacity),
            mw,
            mem: [MemCounter::new(), MemCounter::new()],
        }
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
        self.slots.len()
    }

    /// Highest allocated slot index (scan bound).
    pub fn slot_high_water(&self) -> usize {
        self.table.high_water()
    }

    /// Resolves a key to its slot.
    pub fn slot_of(&self, key: Key) -> Option<SlotId> {
        self.table.slot_of(key)
    }

    /// Reads `AS[key][MR[key]]` — the latest committed version.
    pub fn get(&self, key: Key) -> Option<Value> {
        loop {
            let slot = self.slot_of(key)?;
            let g = self.slots[slot as usize].lock();
            if g.in_use && g.key == key.0 {
                let r = self.mr.get(slot as usize) as usize;
                return g.versions[r].clone();
            }
        }
    }

    /// Inserts a record, materializing **both** copies (the 2× standing
    /// cost of Zig-Zag).
    pub fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError> {
        self.insert_opts(key, value, false)
    }

    /// Insert with slot-allocation control: `fresh_only` skips the free
    /// list, forcing a slot above the current high-water mark. Used while
    /// an asynchronous capture scan is in flight — a reused slot below the
    /// sealed scan bound would leak a post-point insert into the
    /// checkpoint.
    pub fn insert_opts(
        &self,
        key: Key,
        value: &[u8],
        fresh_only: bool,
    ) -> Result<SlotId, StoreError> {
        self.table.insert(
            key,
            fresh_only,
            |slot| {
                self.fill(slot, key, value);
                self.count_filled(1, value.len());
            },
            |slot| self.vacate(slot),
        )
    }

    /// Installs a batch of records into a store at rest (initial load,
    /// restart) through [`SlotTable::install_batch`]: resident keys are
    /// skipped, the rest get both copies in fresh slots, with the memory
    /// counters touched once. Returns how many were installed.
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
    /// with [`ZigzagStore::count_filled`].
    pub(crate) fn fill(&self, slot: SlotId, key: Key, value: &[u8]) {
        let mut g = self.slots[slot as usize].lock();
        g.key = key.0;
        g.in_use = true;
        for version in g.versions.iter_mut() {
            *version = Some(value.to_vec().into_boxed_slice());
        }
        // Reset the bits for a reused slot: read copy 0, write copy 1.
        self.mr.set(slot as usize, false);
        self.mw.set(slot as usize, true);
    }

    /// Counts `count` filled records of `bytes` in total, once per copy.
    pub(crate) fn count_filled(&self, count: usize, bytes: usize) {
        for mem in &self.mem {
            mem.add_many(count, bytes);
        }
    }

    /// Undoes [`ZigzagStore::fill`] for an insert that lost the race to
    /// publish.
    pub(crate) fn vacate(&self, slot: SlotId) {
        self.clear(&mut self.slots[slot as usize].lock());
    }

    /// Empties a slot: drops whichever copies it still holds, each from
    /// its own counter, and marks it vacant. Handing the slot back to the
    /// table is the caller's job.
    fn clear(&self, g: &mut ZzSlot) {
        for (version, mem) in g.versions.iter_mut().zip(&self.mem) {
            if let Some(old) = version.take() {
                mem.sub(old.len());
            }
        }
        g.in_use = false;
        g.key = 0;
    }

    /// Updates a record: writes `AS[key][MW[key]]`, then sets
    /// `MR[key] = MW[key]`. Returns the previous read-version for undo.
    pub fn write(&self, key: Key, value: &[u8]) -> Result<Option<Value>, StoreError> {
        let slot = self.slot_of(key).ok_or(StoreError::KeyNotFound(key))?;
        let mut g = self.slots[slot as usize].lock();
        if !g.in_use || g.key != key.0 {
            return Err(StoreError::KeyNotFound(key));
        }
        let r = self.mr.get(slot as usize) as usize;
        let w = self.mw.get(slot as usize) as usize;
        let undo = g.versions[r].clone();
        let new = value.to_vec().into_boxed_slice();
        self.mem[w].add(new.len());
        if let Some(old) = g.versions[w].replace(new) {
            self.mem[w].sub(old.len());
        }
        self.mr.set(slot as usize, w == 1);
        Ok(undo)
    }

    /// Deletes a record. `checkpoint_active` preserves the checkpointer's
    /// copy (`AS[¬MW]`): only the writable copy is cleared, and the slot is
    /// left for [`ZigzagStore::reclaim_after_capture`]. At rest both copies
    /// are cleared and the slot is reclaimed immediately.
    pub fn delete(&self, key: Key, checkpoint_active: bool) -> Result<Option<Value>, StoreError> {
        let slot = self.table.unlink(key)?;
        let mut g = self.slots[slot as usize].lock();
        let r = self.mr.get(slot as usize) as usize;
        let w = self.mw.get(slot as usize) as usize;
        let undo = g.versions[r].clone();
        self.mr.set(slot as usize, w == 1);
        if checkpoint_active {
            if let Some(old) = g.versions[w].take() {
                self.mem[w].sub(old.len());
            }
        } else {
            self.clear(&mut g);
            self.table.free(slot);
        }
        Ok(undo)
    }

    /// Begins a checkpoint at a physical point of consistency (the caller
    /// must have quiesced the system): sets `MW[k] = ¬MR[k]` for all keys.
    pub fn begin_checkpoint(&self) {
        self.mw.store_inverted_from(&self.mr);
    }

    /// Reads the checkpointer's copy of a slot: `(key, AS[¬MW])`, or `None`
    /// if the slot is vacant or the record did not exist at the point of
    /// consistency.
    pub fn checkpoint_copy(&self, slot: SlotId) -> Option<(Key, Value)> {
        let g = self.slots[slot as usize].lock();
        if !g.in_use {
            return None;
        }
        let w = self.mw.get(slot as usize) as usize;
        g.versions[1 - w].clone().map(|v| (Key(g.key), v))
    }

    /// Reclaims a slot whose record was deleted during the checkpoint
    /// window, once the checkpointer has consumed its copy. No-op if the
    /// slot has a live read copy.
    pub fn reclaim_after_capture(&self, slot: SlotId) {
        let mut g = self.slots[slot as usize].lock();
        if !g.in_use {
            return;
        }
        let r = self.mr.get(slot as usize) as usize;
        if g.versions[r].is_none() {
            self.clear(&mut g);
            self.table.free(slot);
        }
    }

    /// Locks a slot (tests and diagnostics).
    pub fn lock_slot(&self, slot: SlotId) -> MutexGuard<'_, impl Sized> {
        self.slots[slot as usize].lock()
    }

    /// Memory report: one copy counts as live, the other as extra — the 2×
    /// line of Figure 6.
    pub fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_bytes: self.mem[0].bytes(),
            live_count: self.mem[0].count(),
            extra_bytes: self.mem[1].bytes(),
            extra_count: self.mem[1].count(),
            overhead_bytes: self.mr.heap_bytes() + self.mw.heap_bytes(),
        }
    }
}

impl std::fmt::Debug for ZigzagStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ZigzagStore(len={}, capacity={})", self.len(), self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ZigzagStore {
        ZigzagStore::new(StoreConfig::for_records(256, 32))
    }

    #[test]
    fn insert_read_write_read() {
        let s = store();
        s.insert(Key(1), b"v0").unwrap();
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"v0"[..]));
        let undo = s.write(Key(1), b"v1").unwrap();
        assert_eq!(undo.as_deref(), Some(&b"v0"[..]));
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"v1"[..]));
        // Repeated writes keep reading back the latest value.
        s.write(Key(1), b"v2").unwrap();
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn checkpoint_copy_is_isolated_from_writes() {
        let s = store();
        let slot = s.insert(Key(1), b"before").unwrap();
        s.write(Key(1), b"at-point").unwrap();
        // Physical point of consistency.
        s.begin_checkpoint();
        // Post-point writes go to the other copy…
        s.write(Key(1), b"after-1").unwrap();
        s.write(Key(1), b"after-2").unwrap();
        // …so the checkpointer still sees the point-of-consistency value.
        let (k, v) = s.checkpoint_copy(slot).unwrap();
        assert_eq!(k, Key(1));
        assert_eq!(&v[..], b"at-point");
        // And reads see the latest.
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"after-2"[..]));
    }

    #[test]
    fn unwritten_record_checkpoint_copy_is_current_value() {
        let s = store();
        let slot = s.insert(Key(2), b"stable").unwrap();
        s.begin_checkpoint();
        let (_, v) = s.checkpoint_copy(slot).unwrap();
        assert_eq!(&v[..], b"stable");
    }

    #[test]
    fn consecutive_checkpoints_alternate_copies() {
        let s = store();
        let slot = s.insert(Key(3), b"a").unwrap();
        for round in 0..4 {
            s.begin_checkpoint();
            let val = format!("round-{round}");
            s.write(Key(3), val.as_bytes()).unwrap();
            // Checkpoint copy = value at this round's start.
            let (_, v) = s.checkpoint_copy(slot).unwrap();
            let expected = if round == 0 {
                "a".to_string()
            } else {
                format!("round-{}", round - 1)
            };
            assert_eq!(std::str::from_utf8(&v).unwrap(), expected);
        }
    }

    #[test]
    fn delete_at_rest_reclaims_slot() {
        let s = store();
        let slot = s.insert(Key(4), b"x").unwrap();
        s.delete(Key(4), false).unwrap();
        assert!(s.get(Key(4)).is_none());
        assert_eq!(s.len(), 0);
        let slot2 = s.insert(Key(5), b"y").unwrap();
        assert_eq!(slot2, slot, "slot reused");
        let m = s.memory();
        assert_eq!(m.live_count + m.extra_count, 2);
    }

    #[test]
    fn delete_during_checkpoint_preserves_checkpoint_copy() {
        let s = store();
        let slot = s.insert(Key(6), b"keep-me").unwrap();
        s.begin_checkpoint();
        s.delete(Key(6), true).unwrap();
        assert!(s.get(Key(6)).is_none());
        let (_, v) = s.checkpoint_copy(slot).unwrap();
        assert_eq!(&v[..], b"keep-me");
        s.reclaim_after_capture(slot);
        assert!(s.checkpoint_copy(slot).is_none());
        let m = s.memory();
        assert_eq!(m.live_count + m.extra_count, 0);
    }

    #[test]
    fn insert_after_point_excluded_from_checkpoint() {
        let s = store();
        s.insert(Key(1), b"old").unwrap();
        s.begin_checkpoint();
        let new_slot = s.insert(Key(2), b"new").unwrap();
        // The new record's checkpoint copy exists (both copies materialized
        // at insert) — Zig-Zag handles inserts-after-point at the strategy
        // level by bounding the scan, but the store-level copy is the
        // inserted value.
        assert!(s.checkpoint_copy(new_slot).is_some());
    }

    #[test]
    fn memory_is_two_copies() {
        let s = store();
        for k in 0..10u64 {
            s.insert(Key(k), &[0u8; 50]).unwrap();
        }
        let m = s.memory();
        assert_eq!(m.live_count, 10);
        assert_eq!(m.extra_count, 10);
        assert_eq!(m.total_bytes(), 1000);
        assert!((m.copy_ratio() - 2.0).abs() < 1e-9);
    }
}
