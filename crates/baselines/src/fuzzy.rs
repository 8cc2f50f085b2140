//! Fuzzy checkpointing (§4.1.2).
//!
//! The classic algorithm: (1) stop accepting update/commit/abort
//! operations; (2) persist a "checkpoint record" containing the dirty
//! table; (3) resume normal operation; (4) flush the dirty records to disk
//! asynchronously. Per the paper's adaptation to main memory, the dirty
//! table is record-granularity (the same bit vector pCALC uses), which
//! makes the persisted checkpoint record proportionally larger than in
//! disk-based systems — hence the visible quiesce spike in Figure 2.
//!
//! **Not transaction-consistent**: the asynchronous flush reads records
//! while they continue to be updated, so the checkpoint mixes states from
//! different serialization points. Without a database log it cannot be
//! repaired into a consistent state — this is exactly the paper's argument
//! for why log-less systems need a different algorithm. Recovery refuses
//! fuzzy checkpoints (`transaction_consistent() == false`).
//!
//! The default/traditional variant is partial (`pFuzzy`). The full variant
//! additionally maintains an in-memory copy of the database — "the latest
//! consistent snapshot" — and produces full checkpoints by merging dirty
//! records into it (2× memory).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use calc_common::types::{CommitSeq, Key, Value};
use calc_storage::dirty::BitVecTracker;
use calc_storage::dual::{DualVersionStore, StoreConfig, StoreError};
use calc_storage::mem::{MemCounter, MemoryStats};
use calc_storage::SlotId;
use calc_txn::commitlog::{CommitLog, PhaseStamp};

use calc_core::cycle::{
    base_checkpoint, capture_live, capture_slots, undo_live, Slots, Tombstones,
};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoRec, WriteKind,
};

use crate::live;

fn dirty_table_path(dir: &CheckpointDir, id: u64) -> std::path::PathBuf {
    dir.path().join(format!(".dirtytab-{id:010}"))
}

/// Per-slot snapshot entries: `(raw key, value)` under a slot mutex.
type SnapshotArray = Box<[Mutex<Option<(u64, Value)>>]>;

/// Fuzzy checkpointing. See module docs.
pub struct FuzzyStrategy {
    store: DualVersionStore,
    log: Arc<CommitLog>,
    partial: bool,
    tracker: BitVecTracker,
    tombstones: Tombstones,
    upcoming: AtomicU64,
    /// Full variant only: the in-memory "latest snapshot" copy, indexed by
    /// slot.
    snapshot: Option<SnapshotArray>,
    snapshot_mem: MemCounter,
    /// Cycles that failed and were rolled back harmlessly.
    aborted: AtomicU64,
}

impl FuzzyStrategy {
    /// Full-checkpoint variant (keeps the in-memory snapshot copy).
    pub fn full(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, false)
    }

    /// Partial variant — the traditional fuzzy checkpoint (pFuzzy).
    pub fn partial(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, true)
    }

    fn new(config: StoreConfig, log: Arc<CommitLog>, partial: bool) -> Self {
        let capacity = config.capacity;
        FuzzyStrategy {
            store: DualVersionStore::new(config),
            log,
            partial,
            tracker: BitVecTracker::new(capacity),
            tombstones: Tombstones::default(),
            upcoming: AtomicU64::new(0),
            snapshot: (!partial).then(|| (0..capacity).map(|_| Mutex::new(None)).collect()),
            snapshot_mem: MemCounter::new(),
            aborted: AtomicU64::new(0),
        }
    }

    /// The underlying store (tests / diagnostics).
    pub fn store(&self) -> &DualVersionStore {
        &self.store
    }

    fn snapshot_set(&self, slot: SlotId, entry: Option<(u64, Value)>) {
        let Some(snapshot) = &self.snapshot else { return };
        let mut s = snapshot[slot as usize].lock();
        if let Some((_, v)) = &entry {
            self.snapshot_mem.add(v.len());
        }
        if let Some((_, old)) = std::mem::replace(&mut *s, entry) {
            self.snapshot_mem.sub(old.len());
        }
    }

    /// Persists the dirty-record table — the quiesced write whose size
    /// drives fuzzy's interruption (§4.1.2). Goes through the same disk
    /// throttle as checkpoints.
    fn persist_dirty_table(
        &self,
        dir: &CheckpointDir,
        id: u64,
        dirty: &[SlotId],
    ) -> io::Result<()> {
        let mut out = dir.vfs().create(&dirty_table_path(dir, id))?;
        let mut bytes = 0usize;
        for slot in dirty {
            out.write_all(&slot.to_le_bytes())?;
            bytes += 4;
        }
        out.sync()?;
        dir.throttle().consume(bytes);
        Ok(())
    }
}

impl CheckpointStrategy for FuzzyStrategy {
    fn name(&self) -> &'static str {
        if self.partial {
            "pFuzzy"
        } else {
            "Fuzzy"
        }
    }

    fn transaction_consistent(&self) -> bool {
        false
    }

    fn partial(&self) -> bool {
        self.partial
    }

    /// Record by record: each installed record also seeds its slot's
    /// snapshot entry, and a fuzzy chain is never restarted from (it is
    /// not transaction-consistent), so only the initial load comes here.
    fn load_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError> {
        let mut installed = 0;
        for &(key, value) in records {
            match self.store.insert(key, value) {
                Ok(slot) => {
                    self.snapshot_set(slot, Some((key.0, value.into())));
                    installed += 1;
                }
                Err(StoreError::DuplicateKey(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(installed)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.store.get(key)
    }

    fn record_count(&self) -> usize {
        self.store.len()
    }

    fn txn_begin(&self) -> TxnToken {
        TxnToken {
            stamp: self.log.current_stamp(),
            writes: Vec::new(),
        }
    }

    fn txn_end(&self, _token: TxnToken) {}

    fn apply_write(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<Option<Value>, StoreError> {
        live::write(&self.store, token, key, value)
    }

    fn apply_insert(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<bool, StoreError> {
        live::insert(&self.store, token, key, value)
    }

    fn apply_delete(&self, token: &mut TxnToken, key: Key) -> Result<Option<Value>, StoreError> {
        live::delete(&self.store, token, key)
    }

    fn on_commit(&self, token: &mut TxnToken, _seq: CommitSeq, _commit: PhaseStamp) {
        let interval = self.upcoming.load(Ordering::Acquire);
        for w in &token.writes {
            self.tracker.mark(w.slot, interval);
            if w.kind == WriteKind::Delete {
                self.tombstones.push(interval, w.key);
                // The full variant's snapshot must drop the record too
                // (the flush only visits dirty *live* slots).
                self.snapshot_set(w.slot, None);
                let g = self.store.lock_slot(w.slot);
                g.release_if_vacant();
            }
        }
    }

    fn on_abort(&self, token: &mut TxnToken, undo: &[UndoRec]) {
        undo_live(&self.store, token, undo);
        let interval = self.upcoming.load(Ordering::Acquire);
        for w in &token.writes {
            self.tracker.mark(w.slot, interval);
            self.tracker.mark(w.slot, interval + 1);
        }
    }

    fn checkpoint(&self, env: &dyn EngineEnv, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let start = Instant::now();
        let id = self.upcoming.load(Ordering::Acquire);
        let mut watermark = CommitSeq::ZERO;
        let mut dirty: Vec<SlotId> = Vec::new();
        let mut tombs: Vec<Key> = Vec::new();
        // Quiesce only to persist the dirty-record table and flip the
        // interval.
        let quiesce = env.quiesced(&mut || {
            watermark = self.log.last_seq();
            dirty = self.tracker.dirty_slots(id, self.store.slot_high_water());
            tombs = self.tombstones.take(id);
            if let Err(e) = self.persist_dirty_table(dir, id, &dirty) {
                // Harmless failure before the interval flipped: re-queue
                // the drained tombstones (no commit can race this — we are
                // quiesced) and drop the half-written dirty table; the
                // retry of interval `id` is then identical to this attempt.
                self.tombstones.requeue(id, std::mem::take(&mut tombs));
                let _ = dir.vfs().remove_file(&dirty_table_path(dir, id));
                self.aborted.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
            self.upcoming.fetch_add(1, Ordering::Release);
            Ok(())
        })?;

        // Asynchronous flush: reads CURRENT live values — the fuzziness.
        let kind = CheckpointKind::of(self.partial);
        let result = if let Some(snapshot) = &self.snapshot {
            // Merge dirty records into the in-memory snapshot (serial —
            // it is pure memory work), then stripe the snapshot write
            // over the capture threads.
            for &slot in &dirty {
                let current = {
                    let g = self.store.lock_slot(slot);
                    if g.in_use() {
                        g.live().map(|l| (g.key().0, l.to_vec().into_boxed_slice()))
                    } else {
                        None
                    }
                };
                self.snapshot_set(slot, current);
            }
            let slots = Slots::Range(self.store.slot_high_water());
            capture_slots(dir, kind, id, watermark, &[], slots, |slot| {
                let e = snapshot[slot as usize].lock();
                e.as_ref().map(|(k, v)| (Key(*k), v.clone()))
            })
        } else {
            capture_live(
                dir,
                &self.store,
                kind,
                id,
                watermark,
                &tombs,
                Slots::List(&dirty),
            )
        };
        if result.is_err() {
            // The interval already flipped (commits now mark id + 1),
            // so roll the failed cycle's consumed state *forward*:
            // re-mark its dirty set and tombstones into id + 1 — the
            // next flush reads then-current live values, which cover
            // everything this one would have (snapshot merges, where
            // already done, are idempotent) — and drop the now-orphaned
            // dirty table.
            for &slot in &dirty {
                self.tracker.mark(slot, id + 1);
            }
            self.tombstones.requeue(id + 1, tombs);
            let _ = dir.vfs().remove_file(&dirty_table_path(dir, id));
            self.aborted.fetch_add(1, Ordering::Relaxed);
        }
        self.tracker.clear(id);
        Ok(CheckpointStats::new(
            id, kind, watermark, result?, start, quiesce,
        ))
    }

    fn write_base_checkpoint(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let id = self.upcoming.fetch_add(1, Ordering::AcqRel);
        base_checkpoint(dir, &self.store, id, self.log.last_seq())
    }

    fn resume_checkpoint_ids(&self, next_id: u64) {
        self.upcoming.fetch_max(next_id, Ordering::AcqRel);
    }

    fn aborted_cycles(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    fn memory(&self) -> MemoryStats {
        let mut m = self.store.memory();
        m.extra_bytes += self.snapshot_mem.bytes();
        m.extra_count += self.snapshot_mem.count();
        m.overhead_bytes += self.tracker.heap_bytes();
        m
    }
}

impl std::fmt::Debug for FuzzyStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(records={})", self.name(), self.store.len())
    }
}
