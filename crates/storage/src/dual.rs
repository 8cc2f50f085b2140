//! The dual-version record store used by CALC and pCALC (§2.2).
//!
//! Each record key is associated with **two record versions — one live and
//! one stable** — plus one bit in the `stable_status` vector. Initially the
//! stable version is empty; the first post-point-of-consistency write
//! copies live→stable so the background capture thread can still read the
//! value as of the virtual point of consistency.
//!
//! Physical layout: [`Dual`] is the payload of the one
//! [`Store`]: its slot table resolves keys to dense *slot* indices, and
//! each slot (live + stable versions) sits under its own mutex in the
//! store's slot arena. Dense slot indices are what make the paper's
//! per-record bit vectors (`stable_status`, dirty vectors, add/delete
//! status) meaningful on top of a hash-table keyspace. The paper's
//! add/delete bit vectors are represented structurally here: a slot with
//! `live=None, stable=Some` is a record deleted after the point of
//! consistency; `live=Some, stable=None` with an *available* status bit is
//! a record inserted after it.
//!
//! The Naive and Fuzzy baselines reuse this store, touching only the live
//! version.

use calc_common::bitvec::PolarityBitVec;
use calc_common::types::{Key, Value};

use crate::mem::MemoryStats;
use crate::pool::{BufferPool, PoolValue};
use crate::store::{Payload, SlotGuard, Store};
use crate::SlotId;

/// Sizing parameters for a store.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Maximum number of records (slot arena size; bit vectors are sized to
    /// this). The arena's memory is taken as slots are handed out.
    pub capacity: usize,
    /// Number of hash shards (rounded up to a power of two).
    pub shards: usize,
    /// Buffer size of the stable-version pool (≥ common record size).
    pub pool_buf_capacity: usize,
    /// Buffers pre-allocated in the stable-version pool.
    pub pool_prealloc: usize,
}

impl StoreConfig {
    /// A config sized for `capacity` records of roughly `record_size`
    /// bytes.
    pub fn for_records(capacity: usize, record_size: usize) -> Self {
        StoreConfig {
            capacity,
            shards: 64,
            pool_buf_capacity: record_size.max(16),
            pool_prealloc: (capacity / 64).clamp(16, 65_536),
        }
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig::for_records(1 << 16, 128)
    }
}

/// Errors from store mutation.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The slot arena is full; the store was created too small.
    CapacityExceeded,
    /// `insert` on a key that already exists.
    DuplicateKey(Key),
    /// Mutation of a key that does not exist.
    KeyNotFound(Key),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::CapacityExceeded => write!(f, "store capacity exceeded"),
            StoreError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            StoreError::KeyNotFound(k) => write!(f, "key not found: {k}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The dual layout's slot: one live version and, during a checkpoint
/// window, one stable version.
#[derive(Default)]
pub struct Dual {
    live: Option<Value>,
    stable: Option<PoolValue>,
}

/// The dual layout's store-wide state.
pub struct DualSide {
    stable_status: PolarityBitVec,
    pool: BufferPool,
}

/// The dual-version store. See module docs.
pub type DualVersionStore = Store<Dual>;

/// Exclusive access to one slot's live/stable versions.
pub type DualSlotGuard<'a> = SlotGuard<'a, Dual>;

impl Payload for Dual {
    type Side = DualSide;
    /// The slot's `stable_status` bit.
    type Fill = bool;
    const EXTRA_COPY: bool = false;

    fn fill(s: &DualVersionStore, slot: SlotId, p: &mut Self, value: &[u8], marked: bool) {
        debug_assert!(p.stable.is_none());
        p.live = Some(value.into());
        if marked {
            s.side.stable_status.mark(slot as usize);
        } else {
            s.side.stable_status.unmark(slot as usize);
        }
    }

    fn vacate(s: &DualVersionStore, p: &mut Self) {
        if let Some(old) = p.live.take() {
            s.mem[0].sub(old.len());
        }
    }

    #[inline]
    fn read<'p>(_: &DualVersionStore, _: SlotId, p: &'p Self) -> Option<&'p [u8]> {
        #[cfg(feature = "mutation-hooks")]
        if calc_common::mutation::armed(calc_common::mutation::Mutation::StaleStableRead) {
            // Seeded bug: prefer the stable (checkpoint pre-image)
            // version when one exists — readers see stale values for
            // the duration of a checkpoint window.
            if let Some(stable) = &p.stable {
                return Some(stable.as_slice());
            }
        }
        p.live.as_deref()
    }

    #[inline]
    fn overwrite(
        s: &DualVersionStore,
        _: SlotId,
        p: &mut Self,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> bool {
        if let Some(live) = &p.live {
            old.extend_from_slice(live);
        }
        let had = p.live.is_some();
        s.mem[0].overwrite(&mut p.live, value);
        had
    }

    fn delete(s: &DualVersionStore, _: SlotId, p: &mut Self, old: &mut Vec<u8>) -> bool {
        let Some(live) = p.live.take() else {
            return false;
        };
        s.mem[0].sub(live.len());
        old.extend_from_slice(&live);
        true
    }

    fn side_memory(side: &DualSide) -> MemoryStats {
        MemoryStats {
            extra_bytes: side.pool.outstanding_bytes(),
            extra_count: side.pool.outstanding_count(),
            overhead_bytes: side.stable_status.heap_bytes(),
            ..MemoryStats::default()
        }
    }
}

impl DualVersionStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Self {
        let side = DualSide {
            stable_status: PolarityBitVec::new(config.capacity),
            pool: BufferPool::new(config.pool_buf_capacity, config.pool_prealloc),
        };
        Store::with_side(&config, side)
    }

    /// The `stable_status` polarity bit vector (§2.2 / §2.2.5).
    pub fn stable_status(&self) -> &PolarityBitVec {
        &self.side.stable_status
    }

    /// The stable-version buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.side.pool
    }

    /// Inserts a new record, initializing its `stable_status` bit to
    /// `marked` **while holding the slot mutex**. Explicit initialization
    /// at insert is what keeps bit hygiene across slot reuse: a freed
    /// slot's stale bit (left over from a previous record's checkpoint
    /// cycle) must never leak into the new record's protocol state.
    /// Records inserted after the virtual point of consistency pass
    /// `marked = true` so the capture scan skips them (§2.2's add-status
    /// handling). [`Store::insert`] leaves the bit unmarked.
    pub fn insert_with_status(
        &self,
        key: Key,
        value: &[u8],
        marked: bool,
    ) -> Result<SlotId, StoreError> {
        self.insert_with(key, value, false, marked)
    }
}

impl DualSlotGuard<'_> {
    /// The live version.
    pub fn live(&self) -> Option<&[u8]> {
        self.data().live.as_deref()
    }

    /// The stable version.
    pub fn stable(&self) -> Option<&[u8]> {
        self.data().stable.as_ref().map(|p| p.as_slice())
    }

    /// Whether a stable version exists.
    pub fn has_stable(&self) -> bool {
        self.data().stable.is_some()
    }

    /// Overwrites the live version, returning the previous one (for
    /// transaction undo).
    pub fn set_live(&mut self, value: &[u8]) -> Option<Value> {
        let mut old = Vec::new();
        self.overwrite_live(value, &mut old)
            .then(|| old.into_boxed_slice())
    }

    /// Overwrites the live version, appending the previous one to `old`
    /// (the caller's undo space); returns whether there was one. A value
    /// of the old one's length is written over it in place: nothing is
    /// allocated or freed.
    #[inline]
    pub fn overwrite_live(&mut self, value: &[u8], old: &mut Vec<u8>) -> bool {
        let (store, slot) = (self.store, self.slot());
        Dual::overwrite(store, slot, self.data_mut(), value, old)
    }

    /// Removes the live version (logical delete), returning it.
    pub fn clear_live(&mut self) -> Option<Value> {
        let old = self.data_mut().live.take();
        if let Some(ref o) = old {
            self.store.mem[0].sub(o.len());
        }
        old
    }

    /// Copies the live version into the stable version (pool-allocated).
    /// No-op if there is no live version or a stable version already
    /// exists — ApplyWrite only ever creates the *first* stable copy.
    pub fn copy_live_to_stable(&mut self) {
        if self.has_stable() {
            return;
        }
        calc_common::perturb::point(calc_common::perturb::Site::StableInstall);
        let pool = &self.store.side.pool;
        let p = self.data_mut();
        if let Some(ref live) = p.live {
            p.stable = Some(pool.acquire(live));
        }
    }

    /// Erases the stable version, returning its buffer to the pool.
    pub fn erase_stable(&mut self) {
        if let Some(s) = self.data_mut().stable.take() {
            self.store.side.pool.release(s);
        }
    }

    /// If the slot holds neither a live nor a stable version, frees it
    /// ([`SlotGuard::free`]; the key must already be unlinked) and
    /// returns `true`.
    pub fn release_if_vacant(self) -> bool {
        let vacant = self.in_use() && self.live().is_none() && !self.has_stable();
        if vacant {
            self.free();
        }
        vacant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DualVersionStore {
        DualVersionStore::new(StoreConfig::for_records(1024, 64))
    }

    #[test]
    fn insert_get_roundtrip() {
        let s = store();
        let slot = s.insert(Key(1), b"alpha").unwrap();
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(s.slot_of(Key(1)), Some(slot));
        assert_eq!(s.len(), 1);
        assert!(s.get(Key(2)).is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let s = store();
        s.insert(Key(1), b"a").unwrap();
        assert_eq!(s.insert(Key(1), b"b"), Err(StoreError::DuplicateKey(Key(1))));
    }

    #[test]
    fn reading_a_never_allocated_slot_backs_nothing() {
        let s = DualVersionStore::new(StoreConfig::for_records(1 << 24, 64));
        assert_eq!(s.capacity(), 1 << 24);
        let g = s.lock_slot(1 << 23);
        assert!(!g.in_use() && g.live().is_none() && !g.has_stable());
        drop(g);
        s.prefetch(&[0, 1 << 20, (1 << 24) - 1]);
        assert!(s.dump_live().is_empty());
        assert_eq!(s.slots.backed_chunks(), 0);
        s.insert(Key(1), b"one").unwrap();
        assert_eq!(s.slots.backed_chunks(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let s = DualVersionStore::new(StoreConfig {
            capacity: 2,
            shards: 1,
            pool_buf_capacity: 16,
            pool_prealloc: 0,
        });
        s.insert(Key(1), b"a").unwrap();
        s.insert(Key(2), b"b").unwrap();
        assert_eq!(s.insert(Key(3), b"c"), Err(StoreError::CapacityExceeded));
    }

    #[test]
    fn set_live_returns_old_value_for_undo() {
        let s = store();
        let slot = s.insert(Key(5), b"v1").unwrap();
        let mut g = s.lock_slot(slot);
        let old = g.set_live(b"v2");
        assert_eq!(old.as_deref(), Some(&b"v1"[..]));
        assert_eq!(g.live(), Some(&b"v2"[..]));
    }

    #[test]
    fn stable_version_lifecycle() {
        let s = store();
        let slot = s.insert(Key(9), b"point-value").unwrap();
        {
            let mut g = s.lock_slot(slot);
            assert!(!g.has_stable());
            g.copy_live_to_stable();
            assert_eq!(g.stable(), Some(&b"point-value"[..]));
            // Subsequent writes must not clobber the first stable copy.
            g.set_live(b"newer");
            g.copy_live_to_stable();
            assert_eq!(g.stable(), Some(&b"point-value"[..]));
            g.erase_stable();
            assert!(!g.has_stable());
        }
        assert_eq!(s.pool().outstanding_count(), 0);
    }

    #[test]
    fn delete_then_reclaim_slot() {
        let s = store();
        let slot = s.insert(Key(7), b"x").unwrap();
        s.unlink(Key(7)).unwrap();
        assert!(s.get(Key(7)).is_none());
        assert_eq!(s.len(), 0);
        {
            let mut g = s.lock_slot(slot);
            g.clear_live();
            assert!(g.release_if_vacant());
        }
        // The freed slot is reused before the arena grows.
        let slot2 = s.insert(Key(8), b"y").unwrap();
        assert_eq!(slot2, slot);
        assert_eq!(s.slot_high_water(), 1);
    }

    #[test]
    fn slot_with_stable_version_is_not_reclaimed() {
        let s = store();
        let slot = s.insert(Key(7), b"x").unwrap();
        {
            let mut g = s.lock_slot(slot);
            g.copy_live_to_stable();
            g.clear_live();
            assert!(!g.release_if_vacant());
        }
        // Still holds the stable version for the capture thread.
        let g = s.lock_slot(slot);
        assert_eq!(g.stable(), Some(&b"x"[..]));
    }

    #[test]
    fn memory_accounting_tracks_live_and_stable() {
        let s = store();
        s.insert(Key(1), b"aaaa").unwrap();
        s.insert(Key(2), b"bbbbbb").unwrap();
        let m = s.memory();
        assert_eq!(m.live_count, 2);
        assert_eq!(m.live_bytes, 10);
        assert_eq!(m.extra_count, 0);

        let slot = s.slot_of(Key(1)).unwrap();
        {
            let mut g = s.lock_slot(slot);
            g.copy_live_to_stable();
        }
        let m = s.memory();
        assert_eq!(m.extra_count, 1);
        assert_eq!(m.extra_bytes, 4);

        {
            let mut g = s.lock_slot(slot);
            g.erase_stable();
        }
        assert_eq!(s.memory().extra_count, 0);
    }

    #[test]
    fn dump_live_sorted() {
        let s = store();
        for k in [3u64, 1, 2] {
            s.insert(Key(k), &k.to_le_bytes()).unwrap();
        }
        let dump = s.dump_live();
        let keys: Vec<u64> = dump.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![1, 2, 3]);
    }

    #[test]
    fn insert_with_status_initializes_bit_under_slot_mutex() {
        let s = store();
        let marked = s.insert_with_status(Key(1), b"post-point", true).unwrap();
        assert!(s.stable_status().is_marked(marked as usize));
        let unmarked = s.insert_with_status(Key(2), b"normal", false).unwrap();
        assert!(!s.stable_status().is_marked(unmarked as usize));

        // Bit hygiene across slot reuse: free slot 1 with its bit marked,
        // reuse it for a rest-phase insert — the stale bit must be reset.
        s.unlink(Key(1)).unwrap();
        {
            let mut g = s.lock_slot(marked);
            g.clear_live();
            assert!(g.release_if_vacant());
        }
        let reused = s.insert(Key(3), b"fresh").unwrap();
        assert_eq!(reused, marked, "slot reused");
        assert!(
            !s.stable_status().is_marked(reused as usize),
            "stale available bit leaked across reuse"
        );
    }

    #[test]
    fn relink_restores_mapping_after_aborted_delete() {
        let s = store();
        let slot = s.insert(Key(9), b"keep").unwrap();
        s.unlink(Key(9)).unwrap();
        assert!(s.get(Key(9)).is_none());
        assert_eq!(s.len(), 0);
        s.relink(Key(9), slot);
        assert_eq!(s.get(Key(9)).as_deref(), Some(&b"keep"[..]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.slot_of(Key(9)), Some(slot));
    }

    #[test]
    fn locked_slot_of_verifies_key_identity() {
        let s = store();
        s.insert(Key(5), b"five").unwrap();
        let g = s.locked_slot_of(Key(5)).unwrap();
        assert_eq!(g.key(), Key(5));
        assert_eq!(g.live(), Some(&b"five"[..]));
        drop(g);
        assert!(s.locked_slot_of(Key(6)).is_none());
    }

    #[test]
    fn concurrent_disjoint_inserts_and_reads() {
        use std::sync::Arc;
        let s = Arc::new(DualVersionStore::new(StoreConfig::for_records(8192, 64)));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = Key(t * 1000 + i);
                        s.insert(k, &k.0.to_le_bytes()).unwrap();
                        assert_eq!(s.get(k).as_deref(), Some(&k.0.to_le_bytes()[..]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 4000);
        let m = s.memory();
        assert_eq!(m.live_count, 4000);
        assert_eq!(m.live_bytes, 4000 * 8);
    }

    /// Everything a caller can observe about `s` for `keys`.
    fn observed(s: &DualVersionStore, keys: &[Key]) -> (Vec<Option<Value>>, usize, MemoryStats) {
        (
            keys.iter().map(|&k| s.get(k)).collect(),
            s.len(),
            s.memory(),
        )
    }

    #[test]
    fn prefetch_is_only_a_hint() {
        let s = store();
        for k in 0..40u64 {
            s.insert(Key(k), &[k as u8; 150]).unwrap();
        }
        s.unlink(Key(7)).unwrap();
        {
            let mut g = s.lock_slot(s.slot_of(Key(8)).unwrap());
            g.copy_live_to_stable();
        }
        let keys: Vec<Key> = (0..60u64).map(Key).collect();
        let before = observed(&s, &keys);
        s.prefetch(&[]);
        s.prefetch(&[7]); // the deleted key's slot
        s.prefetch(&(0..40).collect::<Vec<SlotId>>());
        assert_eq!(observed(&s, &keys), before);
    }

    #[test]
    fn prefetch_skips_a_slot_another_thread_holds() {
        let s = std::sync::Arc::new(store());
        s.insert(Key(1), b"held").unwrap();
        s.insert(Key(2), b"free").unwrap();
        let before = observed(&s, &[Key(1), Key(2)]);
        let guard = s.lock_slot(s.slot_of(Key(1)).unwrap());
        let (tx, rx) = std::sync::mpsc::channel();
        let prefetching = s.clone();
        let handle = std::thread::spawn(move || {
            prefetching.prefetch(&[1, 0]);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("prefetch waited on a held slot");
        drop(guard);
        handle.join().unwrap();
        assert_eq!(observed(&s, &[Key(1), Key(2)]), before);
    }
}
