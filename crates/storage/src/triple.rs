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
use crate::dual::StoreConfig;
use crate::mem::MemoryStats;
use crate::store::{Payload, Store};
use crate::SlotId;

/// The triple layout's slot: application state plus the `even` (0) and
/// `odd` (1) ping-pong copies.
#[derive(Default)]
pub struct Triple {
    /// Application state — what transactions read.
    state: Option<Value>,
    pingpong: [Option<Value>; 2],
}

/// Per-slot snapshot entries: `(raw key, value)` under a slot mutex.
type SnapshotArray = SlotArena<Mutex<Option<(u64, Value)>>>;

/// The triple layout's store-wide state.
pub struct TripleSide {
    dirty: [AtomicBitVec; 2],
    /// Index (0=even, 1=odd) of the array currently receiving writes.
    current: AtomicBool,
    /// Last consistent snapshot (full-IPP only): the in-memory checkpoint
    /// that retired dirty values merge into. Its copies count as extra.
    snapshot: Option<SnapshotArray>,
}

/// The IPP store. See module docs.
pub type TripleStore = Store<Triple>;

impl Payload for Triple {
    type Side = TripleSide;
    type Fill = ();
    const EXTRA_COPY: bool = true;

    /// Application state + current-array copy, with the dirty bit set
    /// (the record must appear in the next checkpoint).
    fn fill(s: &TripleStore, slot: SlotId, p: &mut Self, value: &[u8], (): ()) {
        let cur = s.current_array();
        p.state = Some(value.into());
        p.pingpong = [None, None];
        p.pingpong[cur] = Some(value.into());
        s.side.dirty[cur].set(slot as usize, true);
        s.side.dirty[1 - cur].set(slot as usize, false);
    }

    fn vacate(s: &TripleStore, p: &mut Self) {
        if let Some(old) = p.state.take() {
            s.mem[0].sub(old.len());
        }
        for v in p.pingpong.iter_mut() {
            if let Some(old) = v.take() {
                s.mem[1].sub(old.len());
            }
        }
    }

    fn read<'p>(_: &TripleStore, _: SlotId, p: &'p Self) -> Option<&'p [u8]> {
        p.state.as_deref()
    }

    /// IPP's double write: application state **and** the current array,
    /// setting the dirty bit.
    fn overwrite(
        s: &TripleStore,
        slot: SlotId,
        p: &mut Self,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> bool {
        let cur = s.current_array();
        if let Some(prev) = &p.state {
            old.extend_from_slice(prev);
        }
        let had = p.state.is_some();
        s.mem[0].overwrite(&mut p.state, value);
        s.mem[1].overwrite(&mut p.pingpong[cur], value);
        s.side.dirty[cur].set(slot as usize, true);
        had
    }

    /// Clears the application state and marks the current array with a
    /// `None` copy + dirty bit, so the deletion reaches the next
    /// checkpoint as a tombstone; the slot waits for that capture.
    fn delete(s: &TripleStore, slot: SlotId, p: &mut Self, old: &mut Vec<u8>) -> bool {
        let Some(state) = p.state.take() else {
            return false;
        };
        let cur = s.current_array();
        s.mem[0].sub(state.len());
        old.extend_from_slice(&state);
        if let Some(copy) = p.pingpong[cur].take() {
            s.mem[1].sub(copy.len());
        }
        s.side.dirty[cur].set(slot as usize, true);
        true
    }

    /// Ping-pong copies and snapshot entries both count as extra — the
    /// up-to-4× line of Figure 6; the counters already hold them.
    fn side_memory(side: &TripleSide) -> MemoryStats {
        MemoryStats {
            overhead_bytes: side.dirty[0].heap_bytes() * 2,
            ..MemoryStats::default()
        }
    }
}

impl TripleStore {
    /// Creates an empty store. `with_snapshot` enables the in-memory last
    /// consistent snapshot required by full-IPP; pIPP runs without it.
    pub fn new(config: StoreConfig, with_snapshot: bool) -> Self {
        let side = TripleSide {
            dirty: [
                AtomicBitVec::new(config.capacity),
                AtomicBitVec::new(config.capacity),
            ],
            // The paper starts with `odd` as current.
            current: AtomicBool::new(true),
            snapshot: with_snapshot.then(|| SlotArena::new(config.capacity)),
        };
        Store::with_side(&config, side)
    }

    /// Index of the array currently receiving writes.
    #[inline]
    pub fn current_array(&self) -> usize {
        self.side.current.load(Ordering::Acquire) as usize
    }

    /// Flips the current array at a physical point of consistency (the
    /// caller must have quiesced). Returns the index of the **retired**
    /// array, whose dirty entries the background thread should process.
    pub fn flip_current(&self) -> usize {
        let old = self.side.current.fetch_xor(true, Ordering::AcqRel);
        old as usize
    }

    /// Consumes one retired dirty entry: returns `(key, Some(value))` for
    /// an update or `(key, None)` for a deletion as of the point of
    /// consistency, clears the dirty bit, merges into the snapshot (if
    /// enabled), and reclaims fully-dead slots. Returns `None` if the slot
    /// is not dirty in `retired` or is vacant.
    pub fn consume_retired(&self, slot: SlotId, retired: usize) -> Option<(Key, Option<Value>)> {
        let dirty = &self.side.dirty;
        if !dirty[retired].get(slot as usize) {
            return None;
        }
        let mut g = self.lock_slot(slot);
        dirty[retired].set(slot as usize, false);
        if !g.in_use() {
            return None;
        }
        let key = g.key();
        // The retired copy has been consumed; release it (the paper keeps
        // the arrays pre-allocated, but releasing keeps byte accounting
        // honest for variable-length values — the *slot* stays).
        let value = g.data_mut().pingpong[retired].take();
        if let Some(v) = &value {
            self.mem[1].sub(v.len());
        }
        if let Some(snapshot) = &self.side.snapshot {
            let entry = value.as_ref().map(|v| (key.0, v.clone()));
            self.set_snapshot(&mut snapshot.back(slot as usize).lock(), entry);
        }
        // Record deleted and both ping-pong copies drained → reclaim.
        let p = g.data();
        if p.state.is_none()
            && p.pingpong.iter().all(|c| c.is_none())
            && !dirty[1 - retired].get(slot as usize)
        {
            g.free();
        }
        Some((key, value))
    }

    /// Replaces a snapshot entry, keeping the extra-copy counter exact.
    fn set_snapshot(&self, snap: &mut Option<(u64, Value)>, entry: Option<(u64, Value)>) {
        if let Some((_, v)) = &entry {
            self.mem[1].add(v.len());
        }
        if let Some((_, old)) = std::mem::replace(snap, entry) {
            self.mem[1].sub(old.len());
        }
    }

    /// Re-injects a point-of-consistency value consumed by a *failed*
    /// checkpoint capture into the **current** array, so the next capture
    /// covers it. Skipped when the slot was reclaimed/reused or when the
    /// current copy is already dirty — a post-flip write supersedes the
    /// failed capture's older value.
    pub fn restore_to_current(&self, slot: SlotId, key: Key, value: &Value) {
        let cur = self.current_array();
        let mut g = self.lock_slot(slot);
        if !g.in_use() || g.key() != key || self.side.dirty[cur].get(slot as usize) {
            return;
        }
        self.mem[1].overwrite(&mut g.data_mut().pingpong[cur], value);
        self.side.dirty[cur].set(slot as usize, true);
    }

    /// Iterates the in-memory last consistent snapshot (full-IPP): every
    /// `(key, value)` in slot order. Panics if the store was built without
    /// a snapshot.
    pub fn snapshot_entries(&self) -> Vec<(Key, Value)> {
        let snapshot = self
            .side
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
            .side
            .snapshot
            .as_ref()
            .expect("seed_snapshot on a store built without snapshot");
        for slot in self.slot_ids() {
            let g = self.lock_slot(slot);
            if let (true, Some(v)) = (g.in_use(), g.read()) {
                let entry = Some((g.key().0, v.into()));
                self.set_snapshot(&mut snapshot.back(slot as usize).lock(), entry);
            }
        }
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
        drop(s.delete(Key(1), None, &mut Vec::new()).unwrap());
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
