//! The CALC algorithm (§2.2) and its partial-checkpoint variant pCALC
//! (§2.3).
//!
//! CALC captures a transaction-consistent checkpoint at a **virtual point
//! of consistency** — a position in the commit log, not a moment when the
//! system is idle. The implementation follows Figure 1 of the paper:
//!
//! * **ApplyWrite** ([`CalcStrategy::apply_write`]): a transaction whose
//!   `start-phase` is PREPARE provisionally copies live→stable before its
//!   first update of a record; one that started in RESOLVE/CAPTURE copies
//!   and marks `stable_status` *available*; one that started in
//!   COMPLETE/REST erases any leftover stable version.
//! * **Commit hook** ([`CalcStrategy::on_commit`]): a PREPARE-started
//!   transaction that committed during PREPARE erases the provisional
//!   copies it made (its writes are *inside* the checkpoint); one that
//!   committed during RESOLVE marks them available (its writes are
//!   *outside*, so the pre-images must be captured).
//! * **RunCheckpointer** ([`CalcStrategy::checkpoint`]): drives REST →
//!   PREPARE → (drain) → RESOLVE → (drain) → CAPTURE → scan → COMPLETE →
//!   (drain) → `SwapAvailableAndNotAvailable` → REST.
//!
//! Deviations from the paper's pseudocode, both deliberate:
//!
//! 1. Figure 1's PREPARE branch copies live→stable whenever the status bit
//!    is *not available*, even if a stable version already exists (it
//!    cannot in the single-write case the paper discusses, but a
//!    transaction writing the same record twice would clobber its own
//!    pre-image). We copy only when no stable version exists.
//! 2. The capture scan in Figure 1 reads `db[key].live` optimistically and
//!    re-checks the stable version to tolerate a racing writer. Our
//!    per-slot mutex makes the scan/writer interaction atomic, so the
//!    re-check collapses away.
//!
//! **pCALC** adds: interval-indexed dirty bit vectors (marked by the
//! commit hook, double-buffered per §2.3), tombstone buffers for deletions
//! (so partial checkpoints can be merged), a capture that visits only
//! dirty slots, and — since pCALC never performs the polarity swap (that
//! would require driving *every* bit to available, i.e. a full scan) — an
//! end-of-cycle cleanup pass over the *next* interval's dirty slots that
//! erases post-point stable versions and resets their status bits.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use calc_common::phase::Phase;
use calc_common::types::{CommitSeq, Key};
use calc_storage::dirty::BitVecTracker;
use calc_storage::dual::{DualSlotGuard, DualVersionStore, StoreConfig, StoreError};
use calc_storage::mem::MemoryStats;
use calc_storage::SlotId;
use calc_txn::commitlog::{CommitLog, PhaseStamp};

use crate::cycle::{base_checkpoint, capture_slots, undo_live, Slots, Tombstones};
use crate::file::CheckpointKind;
use crate::manifest::{CheckpointDir, CheckpointMeta};
use crate::phase::PhaseController;
use crate::strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoRec, WriteKind, WriteRec,
};

/// CALC / pCALC. Construct with [`CalcStrategy::full`] or
/// [`CalcStrategy::partial`].
pub struct CalcStrategy {
    store: DualVersionStore,
    phases: PhaseController,
    partial: bool,
    tracker: Option<BitVecTracker>,
    /// Deletions awaiting the partial checkpoint of their interval.
    tombstones: Tombstones,
    /// `stable_status` polarity generation at the start of the current
    /// full-checkpoint cycle; with [`PolarityBitVec::generation`] it lets
    /// [`CalcStrategy::settle_insert_bit`] decide on which side of
    /// `SwapAvailableAndNotAvailable` an insert's status-bit write lands
    /// (unused in partial mode, which never swaps).
    ///
    /// [`PolarityBitVec::generation`]: calc_common::bitvec::PolarityBitVec::generation
    cycle_start_gen: AtomicU64,
    /// Slots of committed deletes that still held a stable version at
    /// commit: the capture needs that version, and only the end of the
    /// cycle may free them ([`CalcStrategy::release_orphans`]).
    orphans: Mutex<Vec<SlotId>>,
    /// Cycles that failed and were rolled back harmlessly (see
    /// [`CheckpointStrategy::aborted_cycles`]).
    aborted: AtomicU64,
}

impl CalcStrategy {
    /// Full-checkpoint CALC.
    pub fn full(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, false)
    }

    /// Partial-checkpoint pCALC.
    pub fn partial(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        Self::new(config, log, true)
    }

    fn new(config: StoreConfig, log: Arc<CommitLog>, partial: bool) -> Self {
        let capacity = config.capacity;
        CalcStrategy {
            store: DualVersionStore::new(config),
            phases: PhaseController::new(log),
            partial,
            tracker: partial.then(|| BitVecTracker::new(capacity)),
            tombstones: Tombstones::default(),
            cycle_start_gen: AtomicU64::new(0),
            orphans: Mutex::new(Vec::new()),
            aborted: AtomicU64::new(0),
        }
    }

    /// The underlying store (tests / diagnostics).
    pub fn store(&self) -> &DualVersionStore {
        &self.store
    }

    /// Whether `token` itself inserted the record occupying `slot` —
    /// i.e. the slot's live value is this transaction's own uncommitted
    /// write, so it must never be copied as a checkpoint pre-image.
    /// (Slots are not reused within a transaction: deletes release them
    /// only at commit, so a slot id is unambiguous here.)
    fn self_inserted(token: &TxnToken, slot: SlotId) -> bool {
        token
            .writes
            .iter()
            .any(|w| w.slot == slot && w.kind == WriteKind::Insert)
    }

    /// Settles a freshly inserted slot's status bit against the *current*
    /// phase and polarity generation (full mode only).
    ///
    /// The bit written by `insert_with_status` is derived from the
    /// transaction's start phase, but a transaction that starts during
    /// COMPLETE is never drained before `SwapAvailableAndNotAvailable`:
    /// its "not available" bit, written under the old polarity, reads
    /// "available with no stable version" after the swap, and the next
    /// capture scan would wrongly exclude the record from a checkpoint
    /// whose watermark covers its commit. The correct bit depends on which
    /// side of the swap the write lands:
    ///
    /// * phase ≥ RESOLVE in the cycle that started at `cycle_start_gen`
    ///   (swap still pending) → marked, so the pending swap flips it to
    ///   unmarked;
    /// * otherwise (REST/PREPARE, or the swap already happened) →
    ///   unmarked as-is.
    ///
    /// A seqlock-style generation bracket redoes the write if the swap
    /// races it. Read order matters: the phase is read *before*
    /// `cycle_start_gen`, so observing phase ≥ RESOLVE happens-after the
    /// checkpointer's generation store (release-ordered via the
    /// transition) and the `g1 == start` comparison cannot use a stale
    /// previous-cycle value while `g1` is current.
    fn settle_insert_bit(&self, slot: usize) {
        let status = self.store.stable_status();
        loop {
            let g1 = status.generation();
            let phase = self.phases.log().current_stamp().phase;
            let start = self.cycle_start_gen.load(Ordering::SeqCst);
            let after_point = g1 == start
                && matches!(phase, Phase::Resolve | Phase::Capture | Phase::Complete);
            if after_point {
                status.mark(slot);
            } else {
                status.unmark(slot);
            }
            if status.generation() == g1 {
                return;
            }
        }
    }

    /// The phase controller (shared with the engine's transaction path).
    pub fn phases(&self) -> &PhaseController {
        &self.phases
    }

    /// The fallible disk portion of a full cycle: begin N parts → striped
    /// scan from `checkpoint_threads` capture threads → publish the
    /// manifest. On `Err` every part file has been removed and nothing
    /// became visible; store/phase restore is the caller's job
    /// ([`CalcStrategy::abort_cycle_full`]). The slot-space stripes are
    /// disjoint, so the capture threads never contend on a slot guard —
    /// only on the shared status bit vector, which is per-slot atomic.
    fn capture_full(
        &self,
        dir: &CheckpointDir,
        id: u64,
        watermark: CommitSeq,
    ) -> io::Result<CheckpointMeta> {
        let status = self.store.stable_status();
        let slots = Slots::Range(self.store.slot_high_water());
        capture_slots(
            dir,
            CheckpointKind::Full,
            id,
            watermark,
            &[],
            slots,
            |slot| {
                let g = self.store.lock_slot(slot);
                if !g.in_use() {
                    // Normalize vacant slots so the polarity swap leaves
                    // every bit reading not-available.
                    status.mark(slot as usize);
                    None
                } else if status.is_marked(slot as usize) {
                    // Post-point writers (or the resolve-commit hook)
                    // preserved an explicit stable version; an available
                    // bit without one is a record inserted after the point
                    // of consistency — excluded.
                    self.take_stable(g)
                } else {
                    status.mark(slot as usize);
                    if g.has_stable() {
                        self.take_stable(g)
                    } else if let Some(live) = g.live() {
                        Some((g.key(), live.to_vec()))
                    } else {
                        // Unreachable in the protocol (a record with no
                        // versions is released at delete-commit), but stay
                        // defensive.
                        g.release_if_vacant();
                        None
                    }
                }
            },
        )
    }

    /// Moves a slot's stable version (if it has one) into the checkpoint:
    /// copies it out, erases it, and resets the status bit where no
    /// polarity swap will (pCALC). A slot left with no version at all is
    /// a record deleted after the point of consistency; it is not freed
    /// here, because the delete may still abort and put the record back
    /// in this very slot. Its commit frees it, or the end of the cycle
    /// if the commit came first.
    fn take_stable(&self, mut g: DualSlotGuard<'_>) -> Option<(Key, Vec<u8>)> {
        let v = g.stable()?.to_vec();
        let key = g.key();
        g.erase_stable();
        if self.partial {
            self.store.stable_status().unmark(g.slot() as usize);
        }
        Some((key, v))
    }

    /// Frees the slots of committed deletes whose stable version this
    /// cycle has erased (captured, or dropped by pCALC's cleanup); one
    /// that still holds a stable version waits for the next cycle.
    fn release_orphans(&self) {
        let orphans = std::mem::take(&mut *self.orphans.lock());
        let kept: Vec<SlotId> = orphans
            .into_iter()
            .filter(|&slot| !self.store.lock_slot(slot).release_if_vacant())
            .collect();
        self.orphans.lock().extend(kept);
    }

    /// Harmless-failure restore for a full cycle that died during capture
    /// (phase is CAPTURE; the scan may have processed any prefix of the
    /// slots). Finishes the marking scan *without* disk I/O — erasing
    /// remaining stable versions and driving every status bit to marked —
    /// then completes the cycle exactly as a successful one would, so the
    /// polarity swap leaves every bit not-available and the next full
    /// checkpoint captures the entire database.
    fn abort_cycle_full(&self) {
        let status = self.store.stable_status();
        for slot in self.store.slot_ids() {
            let mut g = self.store.lock_slot(slot);
            if g.in_use() {
                g.erase_stable();
            }
            status.mark(slot as usize);
        }
        self.finish_full();
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// CAPTURE → COMPLETE → REST of a full cycle. All bits now read
    /// available and no stable versions remain:
    /// `SwapAvailableAndNotAvailable` makes every bit read not-available
    /// in O(1) (§2.2.5).
    fn finish_full(&self) {
        self.phases.transition(Phase::Complete);
        self.phases.drain_others(Phase::Complete);
        self.store.stable_status().swap_polarity();
        self.release_orphans();
        self.phases.transition(Phase::Rest);
    }

    /// REST → PREPARE → RESOLVE → CAPTURE, draining the transactions of
    /// each phase left behind. Returns the RESOLVE transition's sequence:
    /// the virtual point of consistency.
    fn advance_to_capture(&self) -> CommitSeq {
        self.phases.transition(Phase::Prepare);
        self.phases.drain_others(Phase::Prepare);
        let watermark = self.phases.transition(Phase::Resolve);
        self.phases.drain_others(Phase::Resolve);
        self.phases.transition(Phase::Capture);
        watermark
    }

    fn checkpoint_full(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let start = Instant::now();
        let id = self.phases.log().current_stamp().cycle;

        // Record the polarity generation for this cycle *before* PREPARE
        // becomes visible: any transaction that later observes a phase ≥
        // RESOLVE is guaranteed (via the transition's release ordering) to
        // read this value or a newer one in `settle_insert_bit`.
        self.cycle_start_gen
            .store(self.store.stable_status().generation(), Ordering::SeqCst);
        let watermark = self.advance_to_capture();
        let summary = self.capture_full(dir, id, watermark).inspect_err(|_| {
            self.abort_cycle_full();
        })?;
        self.finish_full();
        Ok(CheckpointStats::new(&summary, start, Duration::ZERO))
    }

    /// The fallible disk portion of a partial cycle: begin N parts →
    /// tombstones into part 0 → dirty list striped over the capture
    /// threads → publish the manifest. On `Err` every part file has been
    /// removed; side-state restore is
    /// [`CalcStrategy::abort_cycle_partial`].
    fn capture_partial(
        &self,
        dir: &CheckpointDir,
        id: u64,
        watermark: CommitSeq,
        tombs: &[Key],
        high_water: usize,
    ) -> io::Result<CheckpointMeta> {
        let tracker = self.tracker.as_ref().expect("partial mode has a tracker");
        let status = self.store.stable_status();
        let dirty = tracker.dirty_slots(id, high_water);
        // Tombstones land in part 0 ahead of every value (capture_parts'
        // contract): within one partial checkpoint a tombstone must
        // precede any same-key re-insertion so merge replay, which walks
        // parts in index order, stays last-event-wins.
        let slots = Slots::List(&dirty);
        capture_slots(
            dir,
            CheckpointKind::Partial,
            id,
            watermark,
            tombs,
            slots,
            |slot| {
                let g = self.store.lock_slot(slot);
                if !g.in_use() {
                    // Freed by a pre-point delete; its tombstone is already
                    // in the file.
                    None
                } else if status.is_marked(slot as usize) {
                    // Without a stable version this is an insert after the
                    // point (possibly on a reused slot): it belongs to the
                    // next checkpoint, and its bit stays.
                    self.take_stable(g)
                } else {
                    // Dirty but never written after the point: live IS the
                    // point-of-consistency value.
                    g.live().map(|l| (g.key(), l.to_vec()))
                }
            },
        )
    }

    /// Harmless-failure restore for a partial cycle that died during
    /// capture. The failed cycle consumed side-state the next cycle needs:
    /// the interval-`id` tombstone buffer was drained, and the dirty bits
    /// for interval `id` cover keys whose values exist *only* here (the
    /// scan may even have erased some of their captured stable versions
    /// already). Everything is rolled **forward** into interval `id + 1`:
    /// dirty bits re-marked, tombstones re-queued, then the cycle is
    /// completed file-lessly ([`CalcStrategy::finish_partial`]) so the
    /// next partial checkpoint covers the union of both intervals.
    fn abort_cycle_partial(&self, id: u64, tombs: Vec<Key>, high_water: usize) {
        let tracker = self.tracker.as_ref().expect("partial mode has a tracker");
        // Re-mark before the cleanup pass reads interval id + 1, so one
        // pass normalizes the union of both intervals' slots.
        for slot in tracker.dirty_slots(id, high_water) {
            tracker.mark(slot, id + 1);
        }
        self.tombstones.requeue(id + 1, tombs);
        self.finish_partial(id);
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// CAPTURE → COMPLETE → REST of a partial cycle, published or failed.
    /// Post-point writers left provisional stable versions + available
    /// bits on slots belonging to the *next* checkpoint interval. They
    /// hold values as of THIS cycle's point, which the next checkpoint
    /// must not reuse — its capture reads live values (or the pre-images
    /// its own post-point writers create) — so erase them and reset the
    /// bits. O(dirty), preserving pCALC's no-full-scan property. Safe
    /// here: capture-started transactions have drained, and
    /// complete/rest-started writers never create stable versions.
    fn finish_partial(&self, id: u64) {
        let tracker = self.tracker.as_ref().expect("partial mode has a tracker");
        let status = self.store.stable_status();
        self.phases.transition(Phase::Complete);
        self.phases.drain_others(Phase::Complete);
        for slot in tracker.dirty_slots(id + 1, self.store.slot_high_water()) {
            let mut g = self.store.lock_slot(slot);
            if g.in_use() {
                g.erase_stable();
            }
            status.unmark(slot as usize);
            drop(g);
        }
        tracker.clear(id);
        self.release_orphans();
        self.phases.transition(Phase::Rest);
    }

    fn checkpoint_partial(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let start = Instant::now();
        let id = self.phases.log().current_stamp().cycle;
        let watermark = self.advance_to_capture();
        // Tombstones are drained *before* the fallible disk work so the
        // failure path below can re-queue them wherever the cycle dies
        // (even in `begin`).
        let tombs = self.tombstones.take(id);
        let high_water = self.store.slot_high_water();
        let summary = match self.capture_partial(dir, id, watermark, &tombs, high_water) {
            Ok(s) => s,
            Err(e) => {
                self.abort_cycle_partial(id, tombs, high_water);
                return Err(e);
            }
        };
        self.finish_partial(id);
        Ok(CheckpointStats::new(&summary, start, Duration::ZERO))
    }
}

impl CheckpointStrategy for CalcStrategy {
    fn name(&self) -> &'static str {
        if self.partial {
            "pCALC"
        } else {
            "CALC"
        }
    }

    fn transaction_consistent(&self) -> bool {
        true
    }

    fn partial(&self) -> bool {
        self.partial
    }

    crate::store_methods!(load);

    fn txn_begin(&self) -> TxnToken {
        TxnToken {
            stamp: self.phases.begin(),
            writes: Vec::new(),
        }
    }

    fn txn_end(&self, token: TxnToken) {
        self.phases.end(token.stamp);
    }

    fn apply_write_at(
        &self,
        token: &mut TxnToken,
        key: Key,
        at: Option<SlotId>,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> Result<bool, StoreError> {
        let status = self.store.stable_status();
        let mut g = self
            .store
            .locked_slot_at(key, at)
            .ok_or(StoreError::KeyNotFound(key))?;
        let slot = g.slot();
        let mut created = false;
        match token.stamp.phase {
            Phase::Prepare => {
                // Provisional pre-image: kept or discarded by the commit
                // hook depending on the commit phase. Never copy a record
                // this same transaction inserted — its live value is our
                // own uncommitted write, not a committed point value, and
                // a RESOLVE commit would wrongly promote it to the
                // checkpoint (resurrecting a key deleted before the
                // point). The insert slot stays stable-less; the commit
                // hook's mark makes the scan exclude it, which is correct
                // on both sides of the point.
                if !status.is_marked(slot as usize)
                    && !g.has_stable()
                    && !Self::self_inserted(token, slot)
                {
                    g.copy_live_to_stable();
                    created = true;
                }
            }
            Phase::Resolve | Phase::Capture => {
                // Definitely after the point of consistency: preserve the
                // point value and mark it available. (A slot this txn
                // inserted was already marked by `apply_insert`, so the
                // guard below never copies our own uncommitted value.)
                if !status.is_marked(slot as usize) {
                    if !g.has_stable() {
                        g.copy_live_to_stable();
                        created = true;
                    }
                    status.mark(slot as usize);
                }
            }
            Phase::Complete | Phase::Rest => {
                g.erase_stable();
            }
        }
        let had = g.overwrite_live(value, old);
        drop(g);
        token.writes.push(WriteRec {
            key,
            slot,
            kind: WriteKind::Update,
            created_stable: created,
        });
        Ok(had)
    }

    fn apply_insert(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<bool, StoreError> {
        // A record created after the point of consistency must be skipped
        // by the capture scan: available bit with no stable version (the
        // paper's add-status bit vector, represented structurally).
        let marked = matches!(token.stamp.phase, Phase::Resolve | Phase::Capture);
        match self.store.insert_with_status(key, value, marked) {
            Ok(slot) => {
                if !self.partial {
                    self.settle_insert_bit(slot as usize);
                }
                token.writes.push(WriteRec {
                    key,
                    slot,
                    kind: WriteKind::Insert,
                    created_stable: false,
                });
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
        at: Option<SlotId>,
        old: &mut Vec<u8>,
    ) -> Result<(), StoreError> {
        let status = self.store.stable_status();
        let mut g = self
            .store
            .locked_slot_at(key, at)
            .ok_or(StoreError::KeyNotFound(key))?;
        if g.live().is_none() {
            return Err(StoreError::KeyNotFound(key));
        }
        let slot = g.slot();
        let mut created = false;
        match token.stamp.phase {
            Phase::Prepare => {
                // Same self-insert guard as `apply_write`: deleting a
                // record this transaction created must not preserve our
                // own uncommitted value as a "pre-image".
                if !status.is_marked(slot as usize)
                    && !g.has_stable()
                    && !Self::self_inserted(token, slot)
                {
                    g.copy_live_to_stable();
                    created = true;
                }
            }
            Phase::Resolve | Phase::Capture => {
                if !status.is_marked(slot as usize) {
                    if !g.has_stable() {
                        g.copy_live_to_stable();
                        created = true;
                    }
                    status.mark(slot as usize);
                }
            }
            Phase::Complete | Phase::Rest => {
                g.erase_stable();
            }
        }
        old.extend_from_slice(&g.clear_live().expect("checked above"));
        // Unlink while holding the slot guard: no new transaction can
        // reach the slot, but its stable version (if any) stays for the
        // capture thread. Slot reclamation happens at commit.
        self.store.unlink(key)?;
        drop(g);
        token.writes.push(WriteRec {
            key,
            slot,
            kind: WriteKind::Delete,
            created_stable: created,
        });
        Ok(())
    }

    fn on_commit(&self, token: &mut TxnToken, _seq: CommitSeq, commit: PhaseStamp) {
        let interval = commit.checkpoint_interval();
        let prepare_started = token.stamp.phase == Phase::Prepare;
        let status = self.store.stable_status();
        for w in &token.writes {
            if let Some(tracker) = &self.tracker {
                tracker.mark(w.slot, interval);
            }
            if prepare_started {
                match commit.phase {
                    Phase::Prepare => {
                        // Committed before the point: its writes are in the
                        // checkpoint via live versions; discard the
                        // provisional pre-images it made.
                        if w.created_stable {
                            let mut g = self.store.lock_slot(w.slot);
                            g.erase_stable();
                        }
                    }
                    Phase::Resolve => {
                        // Committed after the point: pre-images become the
                        // capture thread's stable reads.
                        let g = self.store.lock_slot(w.slot);
                        status.mark(w.slot as usize);
                        drop(g);
                    }
                    other => {
                        debug_assert!(
                            false,
                            "prepare-started txn committed in {other} — \
                             the resolve drain forbids this"
                        );
                    }
                }
            }
            if w.kind == WriteKind::Delete {
                if self.partial {
                    self.tombstones.push(interval, w.key);
                }
                // Pre-point deletes (and post-point deletes whose slot was
                // already captured) leave no versions behind: reclaim.
                // One whose stable version the capture still needs is
                // freed at the end of the cycle.
                if !self.store.lock_slot(w.slot).release_if_vacant() {
                    self.orphans.lock().push(w.slot);
                }
            }
        }
    }

    fn on_abort(&self, token: &mut TxnToken, undo: &[UndoRec]) {
        undo_live(&self.store, token, undo);
        // A prepare-started abort discards the provisional pre-images it
        // created (live has been restored to the same value, so nothing is
        // lost). Resolve/capture-started aborts KEEP their stable versions
        // and status bits: those hold correct point-of-consistency values.
        if token.stamp.phase == Phase::Prepare {
            for w in &token.writes {
                if w.created_stable {
                    let mut g = self.store.lock_slot(w.slot);
                    g.erase_stable();
                }
            }
        }
        // Conservative dirty marks (false positives are harmless; missing
        // marks would leak stable versions past the pCALC cleanup pass).
        if let Some(tracker) = &self.tracker {
            for w in &token.writes {
                tracker.mark(w.slot, token.stamp.cycle);
                tracker.mark(w.slot, token.stamp.cycle + 1);
            }
        }
    }

    fn checkpoint(&self, _env: &dyn EngineEnv, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        // CALC is the one algorithm here that never quiesces: `_env` is
        // deliberately unused.
        if self.partial {
            self.checkpoint_partial(dir)
        } else {
            self.checkpoint_full(dir)
        }
    }

    fn write_base_checkpoint(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        let log = self.phases.log();
        let stats = base_checkpoint(dir, &self.store, log.current_stamp().cycle, log.last_seq())?;
        // Rest→Rest transition: no phase change, cycle += 1, so the first
        // runtime checkpoint gets a distinct id.
        self.phases.transition(Phase::Rest);
        Ok(stats)
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

impl std::fmt::Debug for CalcStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}(records={}, {:?})",
            self.name(),
            self.store.len(),
            self.phases
        )
    }
}
