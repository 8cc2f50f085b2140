//! Interleaved Ping-Pong checkpointing (§4.1.3), over the triple-copy
//! [`calc_storage::triple::TripleStore`].
//!
//! Every update writes the application state **and** the current ping-pong
//! array — the double write behind IPP's ~25% lower baseline throughput on
//! write-intensive workloads (§5.1.1). At a physical point of consistency
//! (engine quiesce) the current array flips; a background pass then merges
//! the retired array's dirty values into the in-memory last-consistent
//! snapshot (full IPP — up to 4 copies of the database, Figure 6) and
//! writes the checkpoint. pIPP skips the snapshot and writes only the
//! retired dirty values plus tombstones.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use calc_common::lockword::LockWords;
use calc_common::types::{CommitSeq, Key, Value};
use calc_storage::dual::{StoreConfig, StoreError};
use calc_storage::mem::MemoryStats;
use calc_storage::triple::TripleStore;
use calc_storage::SlotId;
use calc_txn::commitlog::{CommitLog, PhaseStamp};

use calc_core::cycle::{capture_slots, Slots, Tombstones};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::partition::ShardPartition;
use calc_core::strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoImage, UndoRec, WriteKind,
};

/// Interleaved Ping-Pong. See module docs.
pub struct IppStrategy {
    store: TripleStore,
    log: Arc<CommitLog>,
    partial: bool,
    tombstones: Tombstones,
    upcoming: AtomicU64,
    /// High-water mark sealed at each flip (scan bound).
    sealed_high_water: AtomicU64,
    /// Cycles that failed and were rolled back harmlessly.
    aborted: AtomicU64,
}

impl IppStrategy {
    /// Full-checkpoint IPP (keeps the in-memory consistent snapshot).
    pub fn full(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, false)
    }

    /// Partial variant (pIPP).
    pub fn partial(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, true)
    }

    fn new(config: StoreConfig, log: Arc<CommitLog>, partial: bool) -> Self {
        IppStrategy {
            store: TripleStore::new(config, !partial),
            log,
            partial,
            tombstones: Tombstones::default(),
            upcoming: AtomicU64::new(0),
            sealed_high_water: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
        }
    }

    /// The underlying store (tests / diagnostics).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }
}

impl CheckpointStrategy for IppStrategy {
    fn name(&self) -> &'static str {
        if self.partial {
            "pIPP"
        } else {
            "IPP"
        }
    }

    fn transaction_consistent(&self) -> bool {
        true
    }

    fn partial(&self) -> bool {
        self.partial
    }

    fn load_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError> {
        self.store.install_batch(records)
    }

    fn clear(&self) {
        self.store.clear();
    }

    fn locks(&self) -> &LockWords {
        self.store.locks()
    }

    fn get_with(&self, key: Key, _at: Option<SlotId>, read: &mut dyn FnMut(&[u8])) -> bool {
        self.store.get(key).map(|v| read(&v)).is_some()
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

    fn apply_write_at(
        &self,
        token: &mut TxnToken,
        key: Key,
        _at: Option<SlotId>,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> Result<bool, StoreError> {
        let (slot, had) = self.store.overwrite(key, value, old)?;
        token.record(key, slot, WriteKind::Update);
        Ok(had)
    }

    fn apply_insert(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<bool, StoreError> {
        match self.store.insert(key, value) {
            Ok(slot) => {
                token.record(key, slot, WriteKind::Insert);
                Ok(true)
            }
            Err(StoreError::DuplicateKey(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn apply_delete_at(
        &self,
        token: &mut TxnToken,
        key: Key,
        _at: Option<SlotId>,
        old: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let slot = self.store.slot_of(key).ok_or(StoreError::KeyNotFound(key))?;
        let prev = self.store.delete(key)?;
        token.record(key, slot, WriteKind::Delete);
        old.extend_from_slice(prev.as_deref().unwrap_or_default());
        Ok(())
    }

    fn on_commit(&self, token: &mut TxnToken, _seq: CommitSeq, _commit: PhaseStamp) {
        // Dirty tracking lives in the store's per-copy bit vectors; only
        // tombstones need commit-time bookkeeping.
        if self.partial {
            let interval = self.upcoming.load(Ordering::Acquire);
            for w in &token.writes {
                if w.kind == WriteKind::Delete {
                    self.tombstones.push(interval, w.key);
                }
            }
        }
    }

    fn on_abort(&self, token: &mut TxnToken, undo: &[UndoRec]) {
        debug_assert_eq!(undo.len(), token.writes.len());
        for u in undo {
            match &u.img {
                UndoImage::Restore(v) => {
                    // Normal write path: re-dirties the record with its old
                    // value, which the next checkpoint will simply rewrite.
                    self.store.write(u.key, v).expect("undo target exists");
                }
                UndoImage::Remove => {
                    let _ = self.store.delete(u.key);
                }
                UndoImage::Reinsert(v) => {
                    self.store.insert(u.key, v).expect("undo reinsert");
                }
            }
        }
    }

    fn checkpoint(&self, env: &dyn EngineEnv, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let start = Instant::now();
        let id = self.upcoming.load(Ordering::Acquire);
        let mut watermark = CommitSeq::ZERO;
        let mut retired = 0usize;
        let mut tombs: Vec<Key> = Vec::new();
        // Physical point of consistency: flip the current array.
        let quiesce = env.quiesced(&mut || {
            watermark = self.log.last_seq();
            retired = self.store.flip_current();
            self.sealed_high_water
                .store(self.store.slot_high_water() as u64, Ordering::Release);
            if self.partial {
                tombs = self.tombstones.take(id);
            }
            self.upcoming.fetch_add(1, Ordering::Release);
            Ok(())
        })?;

        let kind = CheckpointKind::of(self.partial);
        let hw = self.sealed_high_water.load(Ordering::Acquire) as usize;
        let threads = dir.checkpoint_threads();
        // pIPP only: values drained from the retired array so far. The
        // drain is destructive, so a failed cycle must re-inject them into
        // the current array (the in-progress files are thrown away).
        // Shared across the capture threads; every consumed value is
        // registered here *before* the fallible write, so the abort path
        // below restores it even if the write that followed failed.
        let consumed: Mutex<Vec<(SlotId, Key, Value)>> = Mutex::new(Vec::new());
        let result = if self.partial {
            capture_slots(dir, kind, id, watermark, &tombs, Slots::Range(hw), |slot| {
                // (A `None` value is a deletion observed via the retired
                // copy itself: covered by the tombstone buffer, nothing
                // to write.)
                let (key, v) = self.store.consume_retired(slot, retired)?;
                let v = v?;
                consumed.lock().push((slot, key, v.clone()));
                Some((key, v))
            })
        } else {
            // Merge the retired dirty values into the snapshot — striped
            // over the capture threads (disjoint slot ranges, per-slot
            // locks) — then write the full consistent snapshot.
            let split = ShardPartition::over(hw, threads);
            if threads == 1 {
                for slot in 0..hw as SlotId {
                    self.store.consume_retired(slot, retired);
                }
            } else {
                std::thread::scope(|s| {
                    for part in 0..threads {
                        let range = split.range(part);
                        s.spawn(move || {
                            for slot in range {
                                self.store.consume_retired(slot as SlotId, retired);
                            }
                        });
                    }
                });
            }
            let entries = self.store.snapshot_entries();
            // The snapshot's entries, addressed by index rather than slot.
            let items = Slots::Range(entries.len());
            capture_slots(dir, kind, id, watermark, &[], items, |i| {
                let (key, v) = &entries[i as usize];
                Some((*key, v))
            })
        };
        let summary = match result {
            Ok(s) => s,
            Err(e) => {
                // Harmless failure: the array already flipped, so finish
                // draining the retired array, then put the failed cycle's
                // state where the *next* cycle captures it.
                let mut consumed = consumed.into_inner();
                if self.partial {
                    for slot in 0..hw as SlotId {
                        if let Some((key, Some(v))) = self.store.consume_retired(slot, retired) {
                            consumed.push((slot, key, v));
                        }
                    }
                    for (slot, key, v) in &consumed {
                        self.store.restore_to_current(*slot, *key, v);
                    }
                    self.tombstones.requeue(id + 1, tombs);
                } else {
                    // Full IPP: completing the snapshot merge is the whole
                    // restore — the next full checkpoint rewrites the
                    // now-consistent snapshot.
                    for slot in 0..hw as SlotId {
                        self.store.consume_retired(slot, retired);
                    }
                }
                self.aborted.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        Ok(CheckpointStats::new(&summary, start, quiesce))
    }

    fn write_base_checkpoint(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let start = Instant::now();
        let id = self.upcoming.fetch_add(1, Ordering::AcqRel);
        let watermark = self.log.last_seq();
        if !self.partial {
            self.store.seed_snapshot();
        }
        let slots = Slots::Range(self.store.slot_high_water());
        let kind = CheckpointKind::Full;
        let summary = capture_slots(dir, kind, id, watermark, &[], slots, |slot| {
            self.store.get_by_slot(slot)
        })?;
        Ok(CheckpointStats::new(&summary, start, Duration::ZERO))
    }

    fn resume_checkpoint_ids(&self, next_id: u64) {
        self.upcoming.fetch_max(next_id, Ordering::AcqRel);
    }

    fn aborted_cycles(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    fn memory(&self) -> MemoryStats {
        self.store.memory()
    }
}

impl std::fmt::Debug for IppStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(records={})", self.name(), self.store.len())
    }
}
