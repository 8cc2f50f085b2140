//! Naive Snapshot (§4.1.1): quiesce the database, scan everything, write.
//!
//! "A naively taken snapshot involves acquiring an exclusive lock on the
//! entire database, iterating through every existing key, and writing its
//! corresponding value to disk." Throughput is zero for the whole
//! checkpoint; in exchange the checkpoint completes quickly and there is
//! no steady-state overhead at all. `pNaive` writes only records modified
//! since the previous checkpoint (still under full quiesce).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use calc_common::types::{CommitSeq, Key, Value};
use calc_storage::dirty::BitVecTracker;
use calc_storage::dual::{DualVersionStore, StoreConfig, StoreError};
use calc_storage::mem::MemoryStats;
use calc_txn::commitlog::{CommitLog, PhaseStamp};

use calc_core::cycle::{base_checkpoint, capture_live, undo_live, Slots, Tombstones};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoRec, WriteKind,
};

use crate::live;

/// Naive Snapshot. The store is the same dual-version engine CALC uses,
/// but only live versions are ever touched.
pub struct NaiveStrategy {
    store: DualVersionStore,
    log: Arc<CommitLog>,
    partial: bool,
    tracker: Option<BitVecTracker>,
    tombstones: Tombstones,
    /// Id of the upcoming checkpoint; commits mark this interval.
    /// Incremented inside the quiesced section, so no commit can straddle
    /// it.
    upcoming: AtomicU64,
    /// Cycles that failed and were rolled back harmlessly.
    aborted: AtomicU64,
}

impl NaiveStrategy {
    /// Full-snapshot variant.
    pub fn full(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, false)
    }

    /// Partial-snapshot variant (pNaive).
    pub fn partial(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, true)
    }

    fn new(config: StoreConfig, log: Arc<CommitLog>, partial: bool) -> Self {
        let capacity = config.capacity;
        NaiveStrategy {
            store: DualVersionStore::new(config),
            log,
            partial,
            tracker: partial.then(|| BitVecTracker::new(capacity)),
            tombstones: Tombstones::default(),
            upcoming: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
        }
    }

    /// The underlying store (tests / diagnostics).
    pub fn store(&self) -> &DualVersionStore {
        &self.store
    }
}

impl CheckpointStrategy for NaiveStrategy {
    fn name(&self) -> &'static str {
        if self.partial {
            "pNaive"
        } else {
            "Naive"
        }
    }

    fn transaction_consistent(&self) -> bool {
        true // the whole checkpoint happens under quiesce
    }

    fn partial(&self) -> bool {
        self.partial
    }

    fn load_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError> {
        self.store.install_batch(records)
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
            if let Some(t) = &self.tracker {
                t.mark(w.slot, interval);
            }
            if w.kind == WriteKind::Delete {
                if self.partial {
                    self.tombstones.push(interval, w.key);
                }
                let g = self.store.lock_slot(w.slot);
                g.release_if_vacant();
            }
        }
    }

    fn on_abort(&self, token: &mut TxnToken, undo: &[UndoRec]) {
        undo_live(&self.store, token, undo);
        if let Some(t) = &self.tracker {
            let interval = self.upcoming.load(Ordering::Acquire);
            for w in &token.writes {
                t.mark(w.slot, interval);
                t.mark(w.slot, interval + 1);
            }
        }
    }

    fn checkpoint(&self, env: &dyn EngineEnv, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let start = Instant::now();
        let id = self.upcoming.load(Ordering::Acquire);
        let kind = CheckpointKind::of(self.partial);
        let mut captured = None;
        // The entire checkpoint runs with the database exclusively locked.
        let quiesce = env.quiesced(&mut || {
            let watermark = self.log.last_seq();
            let high_water = self.store.slot_high_water();
            let result = if let Some(tracker) = &self.tracker {
                // Drained up front so the failure path can restore them
                // (under quiesce no commit can race the push-back).
                let tombs = self.tombstones.take(id);
                let dirty = tracker.dirty_slots(id, high_water);
                let slots = Slots::List(&dirty);
                let result = capture_live(dir, &self.store, kind, id, watermark, &tombs, slots);
                match result {
                    Ok(_) => tracker.clear(id),
                    // The dirty tracker was read non-destructively and
                    // `upcoming` never moved, so re-queuing the tombstones
                    // makes the retry of interval `id` identical to this
                    // attempt.
                    Err(_) => self.tombstones.requeue(id, tombs),
                }
                result
            } else {
                // Nothing is consumed; a retry is a fresh scan.
                let slots = Slots::Range(high_water);
                capture_live(dir, &self.store, kind, id, watermark, &[], slots)
            };
            let summary = result.inspect_err(|_| {
                self.aborted.fetch_add(1, Ordering::Relaxed);
            })?;
            captured = Some((watermark, summary));
            self.upcoming.fetch_add(1, Ordering::Release);
            Ok(())
        })?;
        let (watermark, summary) = captured.expect("the quiesced section ran");
        Ok(CheckpointStats::new(
            id, kind, watermark, summary, start, quiesce,
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
        if let Some(t) = &self.tracker {
            m.overhead_bytes += t.heap_bytes();
        }
        m
    }
}

impl std::fmt::Debug for NaiveStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(records={})", self.name(), self.store.len())
    }
}
