//! Zig-Zag checkpointing (§4.1.4), over the dual-copy
//! [`calc_storage::zigzag::ZigzagStore`].
//!
//! Every write maintains the `MR`/`MW` bit vectors and the second record
//! copy — the ~4% rest-state overhead of §5.1.1, and the reason Zig-Zag
//! falls further behind CALC on TPC-C's write-heavy NewOrder transactions
//! (§5.2). A checkpoint needs a **physical point of consistency**: the
//! engine quiesces (the workload-dependent stall of Figure 2(b)), the
//! store flips `MW := ¬MR`, and an asynchronous scan then writes
//! `AS[k][¬MW[k]]` — the copy no writer will touch until the next flip.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use calc_common::types::{CommitSeq, Key, Value};
use calc_storage::dirty::BitVecTracker;
use calc_storage::dual::{StoreConfig, StoreError};
use calc_storage::mem::MemoryStats;
use calc_storage::zigzag::ZigzagStore;
use calc_storage::SlotId;
use calc_txn::commitlog::{CommitLog, PhaseStamp};

use calc_core::cycle::{capture_slots, Slots, Tombstones};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoImage, UndoRec, WriteKind,
};

/// Zig-Zag. See module docs.
pub struct ZigzagStrategy {
    store: ZigzagStore,
    log: Arc<CommitLog>,
    partial: bool,
    tracker: Option<BitVecTracker>,
    tombstones: Tombstones,
    upcoming: AtomicU64,
    /// True while an asynchronous capture scan is in flight: deletes must
    /// preserve the checkpointer's copy.
    capture_active: AtomicBool,
    /// Slots deleted during the capture window, reclaimed when it ends.
    deferred_reclaim: Mutex<Vec<SlotId>>,
    /// Slot high-water mark sealed at the physical point of consistency:
    /// records inserted after the point live in later slots and are
    /// excluded from the scan.
    sealed_high_water: AtomicUsize,
    /// Cycles that failed and were rolled back harmlessly.
    aborted: AtomicU64,
}

impl ZigzagStrategy {
    /// Full-checkpoint Zig-Zag.
    pub fn full(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, false)
    }

    /// Partial variant (pZigzag).
    pub fn partial(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, true)
    }

    fn new(config: StoreConfig, log: Arc<CommitLog>, partial: bool) -> Self {
        let capacity = config.capacity;
        ZigzagStrategy {
            store: ZigzagStore::new(config),
            log,
            partial,
            tracker: partial.then(|| BitVecTracker::new(capacity)),
            tombstones: Tombstones::default(),
            upcoming: AtomicU64::new(0),
            capture_active: AtomicBool::new(false),
            deferred_reclaim: Mutex::new(Vec::new()),
            sealed_high_water: AtomicUsize::new(0),
            aborted: AtomicU64::new(0),
        }
    }

    /// The underlying store (tests / diagnostics).
    pub fn store(&self) -> &ZigzagStore {
        &self.store
    }
}

impl CheckpointStrategy for ZigzagStrategy {
    fn name(&self) -> &'static str {
        if self.partial {
            "pZigzag"
        } else {
            "Zigzag"
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
        let old = self.store.write(key, value)?;
        let slot = self.store.slot_of(key).expect("written key is linked");
        token.record(key, slot, WriteKind::Update);
        Ok(old)
    }

    fn apply_insert(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<bool, StoreError> {
        let fresh_only = self.capture_active.load(Ordering::Acquire);
        match self.store.insert_opts(key, value, fresh_only) {
            Ok(slot) => {
                token.record(key, slot, WriteKind::Insert);
                Ok(true)
            }
            Err(StoreError::DuplicateKey(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn apply_delete(&self, token: &mut TxnToken, key: Key) -> Result<Option<Value>, StoreError> {
        let slot = self.store.slot_of(key).ok_or(StoreError::KeyNotFound(key))?;
        let active = self.capture_active.load(Ordering::Acquire);
        let old = self.store.delete(key, active)?;
        if active {
            self.deferred_reclaim.lock().push(slot);
        }
        token.record(key, slot, WriteKind::Delete);
        Ok(old)
    }

    fn on_commit(&self, token: &mut TxnToken, _seq: CommitSeq, _commit: PhaseStamp) {
        let interval = self.upcoming.load(Ordering::Acquire);
        for w in &token.writes {
            if let Some(t) = &self.tracker {
                t.mark(w.slot, interval);
            }
            if w.kind == WriteKind::Delete && self.partial {
                self.tombstones.push(interval, w.key);
            }
        }
    }

    fn on_abort(&self, token: &mut TxnToken, undo: &[UndoRec]) {
        debug_assert_eq!(undo.len(), token.writes.len());
        for (u, w) in undo.iter().zip(token.writes.iter().rev()) {
            match &u.img {
                UndoImage::Restore(v) => {
                    // Rolling back through the normal write path is safe:
                    // it targets AS[MW], never the checkpointer's copy.
                    self.store.write(u.key, v).expect("undo target exists");
                }
                UndoImage::Remove => {
                    let active = self.capture_active.load(Ordering::Acquire);
                    let _ = self.store.delete(u.key, active);
                    if active {
                        self.deferred_reclaim.lock().push(w.slot);
                    }
                }
                UndoImage::Reinsert(v) => {
                    let fresh_only = self.capture_active.load(Ordering::Acquire);
                    self.store
                        .insert_opts(u.key, v, fresh_only)
                        .expect("undo reinsert");
                }
            }
        }
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
        let mut watermark = CommitSeq::ZERO;
        let mut tombs: Vec<Key> = Vec::new();
        // Physical point of consistency: quiesce, flip MW := ¬MR.
        let quiesce = env.quiesced(&mut || {
            watermark = self.log.last_seq();
            self.store.begin_checkpoint();
            self.sealed_high_water
                .store(self.store.slot_high_water(), Ordering::Release);
            if self.partial {
                tombs = self.tombstones.take(id);
            }
            self.capture_active.store(true, Ordering::Release);
            self.upcoming.fetch_add(1, Ordering::Release);
            Ok(())
        })?;

        // Asynchronous scan of the copies no writer touches.
        let kind = CheckpointKind::of(self.partial);
        let hw = self.sealed_high_water.load(Ordering::Acquire);
        // The scan reads the dirty set non-destructively and clears it
        // only after a successful publish, so a failed cycle can roll its
        // coverage forward into interval id + 1.
        let dirty: Vec<SlotId> = match &self.tracker {
            Some(tracker) => tracker.dirty_slots(id, hw),
            None => Vec::new(),
        };
        let slots = if self.partial {
            Slots::List(&dirty)
        } else {
            Slots::Range(hw)
        };
        let result = capture_slots(dir, kind, id, watermark, &tombs, slots, |slot| {
            self.store.checkpoint_copy(slot)
        });
        if let Some(tracker) = &self.tracker {
            if result.is_err() {
                // Harmless failure: checkpoint_copy never mutates, so the
                // committed values still live in the store — re-marking
                // the dirty set (and re-queuing tombstones) into interval
                // id + 1 makes the next cycle's capture cover everything
                // this one would have, at its own later flip point.
                for &slot in &dirty {
                    tracker.mark(slot, id + 1);
                }
                self.tombstones.requeue(id + 1, tombs);
            }
            tracker.clear(id);
        }
        self.capture_active.store(false, Ordering::Release);
        for slot in std::mem::take(&mut *self.deferred_reclaim.lock()) {
            self.store.reclaim_after_capture(slot);
        }
        let summary = result.inspect_err(|_| {
            self.aborted.fetch_add(1, Ordering::Relaxed);
        })?;
        Ok(CheckpointStats::new(
            id, kind, watermark, summary, start, quiesce,
        ))
    }

    fn write_base_checkpoint(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let start = Instant::now();
        let id = self.upcoming.fetch_add(1, Ordering::AcqRel);
        let watermark = self.log.last_seq();
        let slots = Slots::Range(self.store.slot_high_water());
        let kind = CheckpointKind::Full;
        // At load time both copies hold the loaded value and there is no
        // concurrent writer, so the checkpointer's copy is the record.
        let summary = capture_slots(dir, kind, id, watermark, &[], slots, |slot| {
            self.store.checkpoint_copy(slot)
        })?;
        Ok(CheckpointStats::new(
            id,
            kind,
            watermark,
            summary,
            start,
            Duration::ZERO,
        ))
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

impl std::fmt::Debug for ZigzagStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(records={})", self.name(), self.store.len())
    }
}
