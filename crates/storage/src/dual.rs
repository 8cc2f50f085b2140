//! The dual-version record store used by CALC and pCALC (§2.2).
//!
//! Each record key is associated with **two record versions — one live and
//! one stable** — plus one bit in the `stable_status` vector. Initially the
//! stable version is empty; the first post-point-of-consistency write
//! copies live→stable so the background capture thread can still read the
//! value as of the virtual point of consistency.
//!
//! Physical layout: a sharded hash map resolves keys to dense *slot*
//! indices; slot data (live + stable versions) lives in a [`SlotArena`]
//! with one `parking_lot::Mutex` per slot, backed chunk by chunk as slots
//! are handed out. Dense slot indices are what make the paper's
//! per-record bit vectors (`stable_status`, dirty vectors, add/delete
//! status) meaningful on top of a hash-table keyspace. The paper's
//! add/delete bit vectors are represented structurally here: a slot with
//! `live=None, stable=Some` is a record deleted after the point of
//! consistency; `live=Some, stable=None` with an *available* status bit is
//! a record inserted after it.
//!
//! The Naive and Fuzzy baselines reuse this store, touching only the live
//! version.

use parking_lot::{Mutex, MutexGuard};

use calc_common::bitvec::PolarityBitVec;
use calc_common::lockword::LockWords;
use calc_common::types::{Key, Value};

use crate::arena::SlotArena;
use crate::mem::{MemCounter, MemoryStats};
use crate::pool::{BufferPool, PoolValue};
use crate::slots::SlotTable;
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

#[derive(Default)]
pub(crate) struct SlotInner {
    key: u64,
    in_use: bool,
    live: Option<Value>,
    stable: Option<PoolValue>,
}

/// The dual-version store. See module docs.
pub struct DualVersionStore {
    pub(crate) table: SlotTable,
    pub(crate) slots: SlotArena<Mutex<SlotInner>>,
    stable_status: PolarityBitVec,
    pool: BufferPool,
    live_mem: MemCounter,
}

impl DualVersionStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Self {
        DualVersionStore {
            table: SlotTable::new(config.capacity, config.shards),
            slots: SlotArena::new(config.capacity),
            stable_status: PolarityBitVec::new(config.capacity),
            pool: BufferPool::new(config.pool_buf_capacity, config.pool_prealloc),
            live_mem: MemCounter::new(),
        }
    }

    /// Maximum record count.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Current record count (linked keys).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest slot index ever allocated; scans cover `0..slot_high_water()`.
    pub fn slot_high_water(&self) -> usize {
        self.table.high_water()
    }

    /// The `stable_status` polarity bit vector (§2.2 / §2.2.5).
    pub fn stable_status(&self) -> &PolarityBitVec {
        &self.stable_status
    }

    /// Resolves a key to its slot, if linked.
    pub fn slot_of(&self, key: Key) -> Option<SlotId> {
        self.table.slot_of(key)
    }

    /// The slot table's transaction lock words.
    pub fn locks(&self) -> &LockWords {
        self.table.locks()
    }

    /// Reads the live version of `key` (a copy; see
    /// [`DualVersionStore::get_with`]).
    pub fn get(&self, key: Key) -> Option<Value> {
        let mut out = None;
        self.get_with(key, None, &mut |live| out = Some(live.into()));
        out
    }

    /// Reads the live version of `key` in place: calls `read` with it,
    /// under the slot's mutex, and returns whether the key was present.
    /// `at` is the slot the key was resolved to, if known (see
    /// [`DualVersionStore::locked_slot_at`]).
    pub fn get_with(&self, key: Key, at: Option<SlotId>, read: &mut dyn FnMut(&[u8])) -> bool {
        let Some(g) = self.locked_slot_at(key, at) else {
            return false;
        };
        #[cfg(feature = "mutation-hooks")]
        if calc_common::mutation::armed(calc_common::mutation::Mutation::StaleStableRead) {
            // Seeded bug: prefer the stable (checkpoint pre-image)
            // version when one exists — readers see stale values for
            // the duration of a checkpoint window.
            if let Some(stable) = g.stable() {
                read(stable);
                return true;
            }
        }
        g.live().map(read).is_some()
    }

    /// Starts loading the records in `slots` into cache, so a transaction
    /// about to touch them pays its misses together rather than one
    /// after another: each slot's line, then — through `try_lock`, never
    /// waiting on a slot another thread holds — the lines of its live
    /// value. A hint only: nothing the store holds changes.
    pub fn prefetch(&self, slots: &[SlotId]) {
        for &slot in slots {
            calc_common::prefetch::line(&self.slots[slot as usize]);
        }
        for &slot in slots {
            if let Some(g) = self.slots[slot as usize].try_lock() {
                if let Some(live) = &g.live {
                    calc_common::prefetch::lines(live);
                }
            }
        }
    }

    /// Inserts a new record, returning its slot. Fails on duplicates.
    /// The slot's `stable_status` bit is left **unmarked** — appropriate
    /// outside a checkpoint window; use
    /// [`DualVersionStore::insert_with_status`] during one.
    pub fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError> {
        self.insert_with_status(key, value, false)
    }

    /// Inserts a new record, initializing its `stable_status` bit to
    /// `marked` **while holding the slot mutex**. Explicit initialization
    /// at insert is what keeps bit hygiene across slot reuse: a freed
    /// slot's stale bit (left over from a previous record's checkpoint
    /// cycle) must never leak into the new record's protocol state.
    /// Records inserted after the virtual point of consistency pass
    /// `marked = true` so the capture scan skips them (§2.2's add-status
    /// handling).
    pub fn insert_with_status(
        &self,
        key: Key,
        value: &[u8],
        marked: bool,
    ) -> Result<SlotId, StoreError> {
        self.table.insert(
            key,
            false,
            |slot| {
                self.fill(slot, key, value, marked);
                self.count_filled(1, value.len());
            },
            |slot| self.vacate(slot),
        )
    }

    /// Installs a batch of records into a store at rest (initial load,
    /// restart) through [`SlotTable::install_batch`]: resident keys are
    /// skipped, and the memory counter is touched once. Returns how many
    /// were installed.
    pub fn install_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError> {
        self.table.install_batch(
            records,
            |slot, key, value| self.fill(slot, key, value, false),
            |count, bytes| self.count_filled(count, bytes),
            |slot| self.vacate(slot),
        )
    }

    /// The fill step of [`SlotTable::insert`] and
    /// [`SlotTable::install_batch`]; the caller counts the value's bytes
    /// with [`DualVersionStore::count_filled`].
    pub(crate) fn fill(&self, slot: SlotId, key: Key, value: &[u8], marked: bool) {
        let mut g = self.slots.back(slot as usize).lock();
        debug_assert!(!g.in_use, "allocated slot still in use");
        debug_assert!(g.stable.is_none());
        g.key = key.0;
        g.in_use = true;
        g.live = Some(value.to_vec().into_boxed_slice());
        if marked {
            self.stable_status.mark(slot as usize);
        } else {
            self.stable_status.unmark(slot as usize);
        }
    }

    /// Counts `count` filled records of `bytes` in total.
    pub(crate) fn count_filled(&self, count: usize, bytes: usize) {
        self.live_mem.add_many(count, bytes);
    }

    /// Undoes [`DualVersionStore::fill`] for an insert that lost the race
    /// to publish.
    pub(crate) fn vacate(&self, slot: SlotId) {
        let mut g = self.lock_slot(slot);
        g.clear_live();
        g.inner.in_use = false;
        g.inner.key = 0;
    }

    /// Removes the key→slot mapping so no new transaction can reach the
    /// slot. The slot itself lives on until [`DualSlotGuard::release_if_vacant`]
    /// reclaims it (a post-point-of-consistency delete must keep its stable
    /// version around for the capture thread).
    pub fn unlink(&self, key: Key) -> Result<SlotId, StoreError> {
        self.table.unlink(key)
    }

    /// Restores a key→slot mapping removed by [`DualVersionStore::unlink`]
    /// — used when rolling back an aborted delete. The caller must hold
    /// the record's logical lock and the slot must still carry the key.
    pub fn relink(&self, key: Key, slot: SlotId) {
        self.table.relink(key, slot)
    }

    /// Locks the slot of `key`: `at`, the slot the key was resolved to
    /// under its transaction lock, if it still holds the key — else
    /// through [`DualVersionStore::locked_slot_of`]. `None` if the key is
    /// not linked.
    pub fn locked_slot_at(&self, key: Key, at: Option<SlotId>) -> Option<DualSlotGuard<'_>> {
        if let Some(slot) = at {
            let g = self.lock_slot(slot);
            if g.in_use() && g.key() == key {
                return Some(g);
            }
        }
        self.locked_slot_of(key)
    }

    /// Resolves `key` and locks its slot, retrying if the slot is freed
    /// and reused between lookup and lock. Returns `None` if the key is
    /// not linked.
    pub fn locked_slot_of(&self, key: Key) -> Option<DualSlotGuard<'_>> {
        loop {
            let slot = self.slot_of(key)?;
            let g = self.lock_slot(slot);
            if g.in_use() && g.key() == key {
                return Some(g);
            }
        }
    }

    /// Locks a slot for version manipulation.
    pub fn lock_slot(&self, slot: SlotId) -> DualSlotGuard<'_> {
        DualSlotGuard {
            store: self,
            slot,
            inner: self.slots[slot as usize].lock(),
        }
    }

    /// Iterates every allocated slot index (including currently-vacant
    /// ones — callers check [`DualSlotGuard::in_use`]).
    pub fn slot_ids(&self) -> impl Iterator<Item = SlotId> {
        0..self.slot_high_water() as SlotId
    }

    /// Collects all `(key, live)` pairs — test/diagnostic helper; not used
    /// on hot paths.
    pub fn dump_live(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(self.len());
        for slot in self.slot_ids() {
            let g = self.lock_slot(slot);
            if g.in_use() {
                if let Some(v) = g.live() {
                    out.push((g.key(), v.to_vec().into_boxed_slice()));
                }
            }
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Memory report for Figure 6.
    pub fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_bytes: self.live_mem.bytes(),
            live_count: self.live_mem.count(),
            extra_bytes: self.pool.outstanding_bytes(),
            extra_count: self.pool.outstanding_count(),
            overhead_bytes: self.stable_status.heap_bytes(),
        }
    }

    /// The stable-version buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }
}

impl std::fmt::Debug for DualVersionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DualVersionStore(len={}, capacity={}, stables={})",
            self.len(),
            self.capacity(),
            self.pool.outstanding_count()
        )
    }
}

/// Exclusive access to one slot's live/stable versions. All mutation keeps
/// the store's memory counters exact.
pub struct DualSlotGuard<'a> {
    store: &'a DualVersionStore,
    slot: SlotId,
    inner: MutexGuard<'a, SlotInner>,
}

impl<'a> DualSlotGuard<'a> {
    /// Slot index.
    pub fn slot(&self) -> SlotId {
        self.slot
    }

    /// Whether the slot currently holds a record.
    pub fn in_use(&self) -> bool {
        self.inner.in_use
    }

    /// The record's key. Meaningless if `!in_use()`.
    pub fn key(&self) -> Key {
        Key(self.inner.key)
    }

    /// The live version.
    pub fn live(&self) -> Option<&[u8]> {
        self.inner.live.as_deref()
    }

    /// The stable version.
    pub fn stable(&self) -> Option<&[u8]> {
        self.inner.stable.as_ref().map(|p| p.as_slice())
    }

    /// Whether a stable version exists.
    pub fn has_stable(&self) -> bool {
        self.inner.stable.is_some()
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
    pub fn overwrite_live(&mut self, value: &[u8], old: &mut Vec<u8>) -> bool {
        if let Some(live) = &self.inner.live {
            old.extend_from_slice(live);
        }
        let had = self.inner.live.is_some();
        self.store.live_mem.overwrite(&mut self.inner.live, value);
        had
    }

    /// Removes the live version (logical delete), returning it.
    pub fn clear_live(&mut self) -> Option<Value> {
        let old = self.inner.live.take();
        if let Some(ref o) = old {
            self.store.live_mem.sub(o.len());
        }
        old
    }

    /// Copies the live version into the stable version (pool-allocated).
    /// No-op if there is no live version or a stable version already
    /// exists — ApplyWrite only ever creates the *first* stable copy.
    pub fn copy_live_to_stable(&mut self) {
        if self.inner.stable.is_some() {
            return;
        }
        calc_common::perturb::point(calc_common::perturb::Site::StableInstall);
        if let Some(ref live) = self.inner.live {
            self.inner.stable = Some(self.store.pool.acquire(live));
        }
    }

    /// Erases the stable version, returning its buffer to the pool.
    pub fn erase_stable(&mut self) {
        if let Some(s) = self.inner.stable.take() {
            self.store.pool.release(s);
        }
    }

    /// If the slot holds neither a live nor a stable version, unlinks it
    /// from the arena (the caller must already have removed the key→slot
    /// mapping via [`DualVersionStore::unlink`]) and returns it to the free
    /// list. Returns whether the slot was reclaimed.
    pub fn release_if_vacant(mut self) -> bool {
        if self.inner.live.is_none() && self.inner.stable.is_none() && self.inner.in_use {
            self.inner.in_use = false;
            self.inner.key = 0;
            self.store.table.free(self.slot);
            true
        } else {
            false
        }
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
