//! The one store every scheme runs on: a [`SlotTable`], a [`SlotArena`] of
//! mutex-guarded slots, two memory counters, and every key-level operation
//! written once over a [`Payload`] — what the scheme keeps per slot.
//!
//! The paper puts all of its schemes on one hash-table engine "for an
//! apples-to-apples comparison" (§4.1.3–4.1.4). [`Store`] is that engine:
//! resolve a key once (or take the slot the executor resolved under the
//! key's lock word), lock its slot, and hand the payload the copy work.
//! Three payloads exist, one per record layout:
//!
//! * [`crate::dual::Dual`] — live + stable version and the polarity
//!   status bit (CALC, pCALC; Naive and Fuzzy touch only live);
//! * [`crate::triple::Triple`] — application state + two ping-pong
//!   copies with dirty bits (IPP);
//! * [`crate::zigzag::Zigzag`] — two copies + `MR`/`MW` (Zig-Zag).
//!
//! Operations only one scheme has (CALC's stable versions, IPP's flip and
//! drain, Zig-Zag's checkpoint copy) live on `Store<Dual>`,
//! `Store<Triple>` and `Store<Zigzag>`.
//!
//! Memory: counter 0 holds the primary copy of each record (live, state,
//! `AS[k]₀`), counter 1 the extra copies the store makes itself (ping-pong
//! and snapshot copies, `AS[k]₁`); a payload reports what it keeps beside
//! them ([`Payload::side_memory`]: pooled stable versions, bit vectors).

use parking_lot::{Mutex, MutexGuard};

use calc_common::lockword::LockWords;
use calc_common::types::{Key, Value};

use crate::arena::SlotArena;
use crate::dual::{StoreConfig, StoreError};
use crate::mem::{MemCounter, MemoryStats};
use crate::slots::SlotTable;
use crate::SlotId;

/// What one scheme keeps per slot, and the scheme-wide state beside it.
/// The operations take the store so they can reach that state and the
/// memory counters; the slot's mutex is held throughout.
pub trait Payload: Default + Send + Sized + 'static {
    /// Scheme-wide state: bit vectors, pool, current array, snapshot.
    type Side: Send + Sync;
    /// What an insert passes to the fill step beyond key and value (the
    /// dual layout's status bit; `()` elsewhere).
    type Fill: Copy + Default;
    /// Whether a fill makes an extra copy beside the primary one.
    const EXTRA_COPY: bool;

    /// Writes the copies of a new record into an empty slot (the store
    /// counts them).
    fn fill(s: &Store<Self>, slot: SlotId, p: &mut Self, value: &[u8], arg: Self::Fill);
    /// Drops every copy the slot holds, uncounting each.
    fn vacate(s: &Store<Self>, p: &mut Self);
    /// The value a transaction reads, if the record has one.
    fn read<'p>(s: &Store<Self>, slot: SlotId, p: &'p Self) -> Option<&'p [u8]>;
    /// Writes `value` as the record's new value, appending the one a
    /// reader saw before to `old`; returns whether there was one. A value
    /// of a copy's length is written over it in place.
    fn overwrite(
        s: &Store<Self>,
        slot: SlotId,
        p: &mut Self,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> bool;
    /// Removes the value a transaction reads, appending it to `old`, and
    /// keeps whatever the scheme's checkpoint still needs. Returns
    /// `false`, changing nothing, if there was no value.
    fn delete(s: &Store<Self>, slot: SlotId, p: &mut Self, old: &mut Vec<u8>) -> bool;
    /// Copies kept outside the two counters, and the bytes of the
    /// scheme's fixed metadata.
    fn side_memory(side: &Self::Side) -> MemoryStats;
}

/// One slot: the key it holds, whether it holds one, and the payload.
#[derive(Default)]
pub(crate) struct Slot<P> {
    key: u64,
    in_use: bool,
    data: P,
}

/// The store. See module docs.
pub struct Store<P: Payload> {
    pub(crate) table: SlotTable,
    pub(crate) slots: SlotArena<Mutex<Slot<P>>>,
    pub(crate) mem: [MemCounter; 2],
    pub(crate) side: P::Side,
}

impl<P: Payload> Store<P> {
    /// An empty store with the scheme's state `side`.
    pub(crate) fn with_side(config: &StoreConfig, side: P::Side) -> Self {
        Store {
            table: SlotTable::new(config.capacity, config.shards),
            slots: SlotArena::new(config.capacity),
            mem: [MemCounter::new(), MemCounter::new()],
            side,
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

    /// One past the highest slot index ever allocated; scans cover
    /// `0..slot_high_water()`.
    pub fn slot_high_water(&self) -> usize {
        self.table.high_water()
    }

    /// Every allocated slot index, vacant ones included (callers check
    /// [`SlotGuard::in_use`]).
    pub fn slot_ids(&self) -> impl Iterator<Item = SlotId> {
        0..self.slot_high_water() as SlotId
    }

    /// Resolves a key to its slot, if linked.
    #[inline]
    pub fn slot_of(&self, key: Key) -> Option<SlotId> {
        self.table.slot_of(key)
    }

    /// The slot table's transaction lock words.
    pub fn locks(&self) -> &LockWords {
        self.table.locks()
    }

    /// Reads `key`'s value (a copy; see [`Store::get_with`]).
    pub fn get(&self, key: Key) -> Option<Value> {
        let mut out = None;
        self.get_with(key, None, &mut |v| out = Some(v.into()));
        out
    }

    /// Reads `key`'s value in place: calls `read` with it, under the
    /// slot's mutex, and returns whether the key was present. `at` is as
    /// for [`Store::locked_slot_at`].
    pub fn get_with(&self, key: Key, at: Option<SlotId>, read: &mut dyn FnMut(&[u8])) -> bool {
        let Some(g) = self.locked_slot_at(key, at) else {
            return false;
        };
        g.read().map(read).is_some()
    }

    /// Starts loading the records in `slots` into cache, so a transaction
    /// about to touch them pays its misses together rather than one
    /// after another: each slot's line, then — through `try_lock`, never
    /// waiting on a slot another thread holds — the lines of its value.
    /// A hint only: nothing the store holds changes.
    pub fn prefetch(&self, slots: &[SlotId]) {
        for &slot in slots {
            calc_common::prefetch::line(&self.slots[slot as usize]);
        }
        for &slot in slots {
            if let Some(g) = self.slots[slot as usize].try_lock() {
                if let Some(value) = P::read(self, slot, &g.data) {
                    calc_common::prefetch::lines(value);
                }
            }
        }
    }

    /// Inserts a new record, returning its slot; fails on duplicates.
    pub fn insert(&self, key: Key, value: &[u8]) -> Result<SlotId, StoreError> {
        self.insert_with(key, value, false, P::Fill::default())
    }

    /// [`Store::insert`] through [`SlotTable::insert`], with `arg` for
    /// the payload's fill step (written under the slot's mutex) and
    /// `fresh_only` to skip the free list.
    pub fn insert_with(
        &self,
        key: Key,
        value: &[u8],
        fresh_only: bool,
        arg: P::Fill,
    ) -> Result<SlotId, StoreError> {
        self.table.insert(
            key,
            fresh_only,
            |slot| {
                self.fill(slot, key, value, arg);
                self.count_filled(1, value.len());
            },
            |slot| self.vacate(slot),
        )
    }

    /// Installs a batch of records into a store at rest (initial load,
    /// restart) through [`SlotTable::install_batch`]: resident keys are
    /// skipped, and the memory counters are touched once. Returns how
    /// many were installed.
    pub fn install_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError> {
        self.table.install_batch(
            records,
            |slot, key, value| self.fill(slot, key, value, P::Fill::default()),
            |count, bytes| self.count_filled(count, bytes),
            |slot| self.vacate(slot),
        )
    }

    /// Empties a store at rest ([`SlotTable::clear`]), each linked slot
    /// through `vacate`: a restart whose load failed part-way starts
    /// again on an empty store.
    pub fn clear(&self) {
        self.table.clear(|slot| self.vacate(slot));
    }

    /// The fill step of [`SlotTable::insert`] and
    /// [`SlotTable::install_batch`]; the caller counts the value's bytes
    /// with [`Store::count_filled`].
    pub(crate) fn fill(&self, slot: SlotId, key: Key, value: &[u8], arg: P::Fill) {
        let mut g = self.slots.back(slot as usize).lock();
        debug_assert!(!g.in_use, "allocated slot still in use");
        g.key = key.0;
        g.in_use = true;
        P::fill(self, slot, &mut g.data, value, arg);
    }

    /// Counts `count` filled records of `bytes` in total, once per copy.
    pub(crate) fn count_filled(&self, count: usize, bytes: usize) {
        self.mem[0].add_many(count, bytes);
        if P::EXTRA_COPY {
            self.mem[1].add_many(count, bytes);
        }
    }

    /// Undoes [`Store::fill`] for an insert that lost the race to publish.
    pub(crate) fn vacate(&self, slot: SlotId) {
        self.lock_slot(slot).vacate();
    }

    /// Locks a slot.
    #[inline]
    pub fn lock_slot(&self, slot: SlotId) -> SlotGuard<'_, P> {
        SlotGuard {
            store: self,
            slot,
            inner: self.slots[slot as usize].lock(),
        }
    }

    /// Locks the slot of `key`: `at`, the slot the key was resolved to
    /// under its transaction lock, if it still holds the key — else
    /// through [`Store::locked_slot_of`]. `None` if the key is not
    /// linked. Inlined, with the lookup out of line: the executor's
    /// accesses come with `at`, and a CALC transaction takes ≈ 10 % more
    /// CPU with the lookup loop inlined here (measured).
    #[inline]
    pub fn locked_slot_at(&self, key: Key, at: Option<SlotId>) -> Option<SlotGuard<'_, P>> {
        if let Some(slot) = at {
            let g = self.lock_slot(slot);
            if g.holds(key) {
                return Some(g);
            }
        }
        self.locked_slot_of(key)
    }

    /// Resolves `key` and locks its slot, retrying if the slot is freed
    /// and reused between lookup and lock. `None` if the key is not
    /// linked.
    #[inline(never)]
    pub fn locked_slot_of(&self, key: Key) -> Option<SlotGuard<'_, P>> {
        loop {
            let g = self.lock_slot(self.slot_of(key)?);
            if g.holds(key) {
                return Some(g);
            }
        }
    }

    /// Overwrites `key` (resolved once; `at` as for
    /// [`Store::locked_slot_at`]), appending the value a reader saw to
    /// `old`. Returns the slot written and whether there was a value.
    pub fn overwrite(
        &self,
        key: Key,
        at: Option<SlotId>,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> Result<(SlotId, bool), StoreError> {
        let mut g = self
            .locked_slot_at(key, at)
            .ok_or(StoreError::KeyNotFound(key))?;
        let had = P::overwrite(self, g.slot, &mut g.inner.data, value, old);
        Ok((g.slot, had))
    }

    /// [`Store::overwrite`], returning the previous value.
    pub fn write(&self, key: Key, value: &[u8]) -> Result<Option<Value>, StoreError> {
        let mut old = Vec::new();
        let (_, had) = self.overwrite(key, None, value, &mut old)?;
        Ok(had.then(|| old.into_boxed_slice()))
    }

    /// Deletes `key` (resolved once; `at` as for
    /// [`Store::locked_slot_at`]): drops the value a reader saw, appending
    /// it to `old`, and unlinks the key, all under the slot's mutex. The
    /// slot comes back still locked, because when it is freed is the
    /// scheme's: at commit (dual), when a capture consumes its dirty bit
    /// (IPP), at once or after the running capture (Zig-Zag).
    pub fn delete(
        &self,
        key: Key,
        at: Option<SlotId>,
        old: &mut Vec<u8>,
    ) -> Result<SlotGuard<'_, P>, StoreError> {
        let mut g = self
            .locked_slot_at(key, at)
            .ok_or(StoreError::KeyNotFound(key))?;
        if !P::delete(self, g.slot, &mut g.inner.data, old) {
            return Err(StoreError::KeyNotFound(key));
        }
        self.table.unlink(key)?;
        Ok(g)
    }

    /// Removes the key → slot mapping so no new transaction can reach the
    /// slot; the slot itself stays until it is freed.
    pub fn unlink(&self, key: Key) -> Result<SlotId, StoreError> {
        self.table.unlink(key)
    }

    /// Restores a mapping removed by [`Store::unlink`] (rollback of an
    /// aborted delete). The caller must hold the record's logical lock and
    /// the slot must still carry the key.
    pub fn relink(&self, key: Key, slot: SlotId) {
        self.table.relink(key, slot)
    }

    /// Every `(key, value)` a reader would see, sorted by key — a
    /// test/diagnostic helper, not used on hot paths.
    pub fn dump_live(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::with_capacity(self.len());
        for slot in self.slot_ids() {
            let g = self.lock_slot(slot);
            if let (true, Some(v)) = (g.in_use(), g.read()) {
                out.push((g.key(), v.into()));
            }
        }
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Memory report for Figure 6.
    pub fn memory(&self) -> MemoryStats {
        let side = P::side_memory(&self.side);
        let [primary, extra] = &self.mem;
        MemoryStats {
            live_bytes: primary.bytes(),
            live_count: primary.count(),
            extra_bytes: extra.bytes() + side.extra_bytes,
            extra_count: extra.count() + side.extra_count,
            overhead_bytes: side.overhead_bytes,
        }
    }
}

/// Exclusive access to one slot. Every mutation keeps the store's memory
/// counters exact.
pub struct SlotGuard<'a, P: Payload> {
    pub(crate) store: &'a Store<P>,
    slot: SlotId,
    inner: MutexGuard<'a, Slot<P>>,
}

impl<P: Payload> SlotGuard<'_, P> {
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

    fn holds(&self, key: Key) -> bool {
        self.inner.in_use && self.inner.key == key.0
    }

    /// The value a transaction reads, if the record has one.
    pub fn read(&self) -> Option<&[u8]> {
        P::read(self.store, self.slot, &self.inner.data)
    }

    /// The payload.
    pub(crate) fn data(&self) -> &P {
        &self.inner.data
    }

    /// The payload, for a scheme's own operations.
    pub(crate) fn data_mut(&mut self) -> &mut P {
        &mut self.inner.data
    }

    /// Drops every copy and marks the slot vacant.
    fn vacate(&mut self) {
        P::vacate(self.store, &mut self.inner.data);
        self.inner.in_use = false;
        self.inner.key = 0;
    }

    /// Drops every copy, marks the slot vacant and returns it to the free
    /// list (still under its mutex, so an allocator that pops it waits
    /// until this is done). The key must already be unlinked.
    pub fn free(mut self) {
        self.vacate();
        self.store.table.free(self.slot);
    }
}
