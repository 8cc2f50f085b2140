//! The [`CheckpointStrategy`] trait: the contract between the execution
//! engine and a checkpointing algorithm.
//!
//! Every algorithm the paper evaluates — CALC, pCALC, Naive Snapshot,
//! Fuzzy, Interleaved Ping-Pong, Zig-Zag, and their partial variants —
//! imposes its own physical record layout and its own write-path hooks, so
//! the engine routes *all* data access through the active strategy:
//! `ApplyWrite` (§2.2, Figure 1) becomes [`CheckpointStrategy::apply_write`],
//! the commit-time check "immediately after committing, but before
//! releasing any locks" becomes [`CheckpointStrategy::on_commit`], and the
//! checkpoint cycle itself is [`CheckpointStrategy::checkpoint`].

use std::io;
use std::time::{Duration, Instant};

use calc_common::types::{CommitSeq, Key, Value};
use calc_storage::dual::StoreError;
use calc_storage::mem::MemoryStats;
use calc_storage::SlotId;
use calc_txn::commitlog::PhaseStamp;
use calc_txn::proc::LockRequest;

use crate::file::CheckpointKind;
use crate::manifest::{CheckpointDir, CheckpointMeta};

/// What a transaction did to one key (recorded by the strategy during
/// apply, consumed by the commit/abort hooks).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteKind {
    /// Overwrote an existing record.
    Update,
    /// Created a record.
    Insert,
    /// Removed a record.
    Delete,
}

/// One entry in a transaction's write footprint.
#[derive(Clone, Debug)]
pub struct WriteRec {
    /// The key written.
    pub key: Key,
    /// Its storage slot at apply time.
    pub slot: SlotId,
    /// Operation kind.
    pub kind: WriteKind,
    /// Whether this transaction created the slot's stable version (CALC:
    /// the commit/abort hooks must know whether the provisional copy is
    /// theirs to erase).
    pub created_stable: bool,
}

/// Per-transaction state carried through the strategy hooks.
#[derive(Debug)]
pub struct TxnToken {
    /// The (cycle, phase) the transaction started under — `txn.start-phase`
    /// in the paper's pseudocode.
    pub stamp: PhaseStamp,
    /// Write footprint, appended by the `apply_*` calls.
    pub writes: Vec<WriteRec>,
}

impl TxnToken {
    /// Appends a write that created no stable version (every strategy but
    /// CALC, which builds its [`WriteRec`]s itself) to the footprint.
    pub fn record(&mut self, key: Key, slot: SlotId, kind: WriteKind) {
        self.writes.push(WriteRec {
            key,
            slot,
            kind,
            created_stable: false,
        });
    }
}

/// The inverse image of one write, kept by the executor for rollback.
#[derive(Clone, Debug)]
pub enum UndoImage {
    /// Restore the previous value of an updated record.
    Restore(Value),
    /// Remove an inserted record.
    Remove,
    /// Re-create a deleted record with its previous value.
    Reinsert(Value),
}

/// An undo entry: the key plus its inverse image.
#[derive(Clone, Debug)]
pub struct UndoRec {
    /// Key to roll back.
    pub key: Key,
    /// Inverse operation.
    pub img: UndoImage,
}

/// Services the engine exposes to a running checkpoint: quiescing (for
/// algorithms that need a physical point of consistency) — CALC never
/// calls it.
pub trait EngineEnv: Send + Sync {
    /// Runs `f` with the system quiesced: no transaction is active and
    /// none may start until `f` returns. Returns how long the quiesce
    /// lasted **including** the wait for active transactions to drain —
    /// the workload-dependent stall the paper measures for IPP/Zig-Zag
    /// with long transactions (§5.1.1).
    fn quiesced(&self, f: &mut dyn FnMut() -> io::Result<()>) -> io::Result<Duration>;
}

/// A no-op environment for strategies under unit test (quiesce succeeds
/// trivially — valid when the caller guarantees no concurrent activity).
pub struct NoopEnv;

impl EngineEnv for NoopEnv {
    fn quiesced(&self, f: &mut dyn FnMut() -> io::Result<()>) -> io::Result<Duration> {
        let start = Instant::now();
        f()?;
        Ok(start.elapsed())
    }
}

/// Outcome of one checkpoint cycle.
#[derive(Clone, Debug)]
pub struct CheckpointStats {
    /// Checkpoint interval id.
    pub id: u64,
    /// Full or partial.
    pub kind: CheckpointKind,
    /// Virtual (or physical) point-of-consistency watermark.
    pub watermark: CommitSeq,
    /// Records + tombstones written.
    pub records: u64,
    /// Bytes written to disk (post-compression).
    pub bytes: u64,
    /// Uncompressed record-stream bytes; equals `bytes` under codec
    /// `none`, so `raw_bytes / bytes` is the cycle's compression ratio.
    pub raw_bytes: u64,
    /// Wall-clock duration of the whole cycle.
    pub duration: Duration,
    /// Time the system was quiesced (zero for CALC).
    pub quiesce: Duration,
    /// Part files written.
    pub parts: usize,
}

impl CheckpointStats {
    /// The stats of a cycle that began at `start`, held the system
    /// quiesced for `quiesce` and published `cycle`.
    pub fn new(cycle: &CheckpointMeta, start: Instant, quiesce: Duration) -> Self {
        CheckpointStats {
            id: cycle.id,
            kind: cycle.kind,
            watermark: cycle.watermark,
            records: cycle.records,
            bytes: cycle.bytes,
            raw_bytes: cycle.raw_bytes,
            duration: start.elapsed(),
            quiesce,
            parts: cycle.parts.len(),
        }
    }
}

/// Hands a transaction's declared footprint to
/// [`CheckpointStrategy::prefetch`] before it runs — the executor before
/// it takes the locks, replay before it applies a command. A one-key
/// footprint is skipped: its one miss has nothing to overlap with.
pub fn prefetch_footprint(strategy: &dyn CheckpointStrategy, footprint: &LockRequest) {
    if footprint.writes.len() + footprint.reads.len() > 1 {
        strategy.prefetch(&footprint.writes);
        strategy.prefetch(&footprint.reads);
    }
}

/// A checkpointing algorithm integrated with the execution engine. See
/// module docs.
pub trait CheckpointStrategy: Send + Sync {
    /// Display name ("CALC", "pIPP", …).
    fn name(&self) -> &'static str;

    /// Whether checkpoints produced are transaction-consistent (every
    /// algorithm in the paper except Fuzzy).
    fn transaction_consistent(&self) -> bool;

    /// Whether checkpoints are partial (deltas) rather than full
    /// snapshots.
    fn partial(&self) -> bool;

    /// Bulk-loads a batch of records outside any transaction (initial
    /// population / recovery) and returns how many it installed. Not
    /// thread-safe with concurrent transactions; concurrent calls are
    /// allowed (recovery installs the parts of one checkpoint cycle on
    /// separate threads). A key that is already resident is skipped and
    /// the resident record left as it is: recovery walks the chain newest
    /// first and relies on that to keep the newest value. An arena that
    /// runs out installs what fits and reports
    /// [`StoreError::CapacityExceeded`].
    fn load_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError>;

    /// Reads the latest committed value (the caller holds the logical
    /// lock).
    fn get(&self, key: Key) -> Option<Value>;

    /// A hint that a transaction is about to touch `keys`: the strategy
    /// may start loading their records into cache, so the misses overlap.
    /// It must not block, and it changes nothing observable. The default
    /// does nothing.
    fn prefetch(&self, _keys: &[Key]) {}

    /// Number of live records.
    fn record_count(&self) -> usize;

    /// Registers a transaction (CALC notes `txn.start-phase` here).
    fn txn_begin(&self) -> TxnToken;

    /// Deregisters a transaction after its locks are released.
    fn txn_end(&self, token: TxnToken);

    /// `ApplyWrite`: overwrites `key`, performing the strategy's version
    /// bookkeeping. Returns the previous value for undo.
    fn apply_write(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<Option<Value>, StoreError>;

    /// Inserts a record. Returns `false` without changing anything if the
    /// key already exists.
    fn apply_insert(&self, token: &mut TxnToken, key: Key, value: &[u8])
        -> Result<bool, StoreError>;

    /// Deletes a record, returning the previous value for undo.
    fn apply_delete(&self, token: &mut TxnToken, key: Key) -> Result<Option<Value>, StoreError>;

    /// Commit hook, invoked **after** the commit token is appended and
    /// **before** any lock is released, with the commit stamp returned by
    /// the append.
    fn on_commit(&self, token: &mut TxnToken, seq: CommitSeq, commit: PhaseStamp);

    /// Abort hook: rolls the transaction's writes back using the
    /// executor-recorded undo images (supplied newest-first) and restores
    /// the strategy's version bookkeeping. Invoked before lock release.
    fn on_abort(&self, token: &mut TxnToken, undo: &[UndoRec]);

    /// Runs one full checkpoint cycle, writing into `dir`.
    ///
    /// **Harmless-failure contract**: on `Err`, the strategy must leave
    /// itself in a state where the *next* successful cycle captures every
    /// committed write the failed cycle would have — the in-progress file
    /// is abandoned (never published), any consumed side-state is
    /// restored (dirty bits re-marked, drained tombstones re-queued,
    /// retired/flipped copies re-injected), and phase/interval
    /// bookkeeping advances past the dead cycle so a retry starts clean.
    /// Failures tracked by [`CheckpointStrategy::aborted_cycles`].
    fn checkpoint(&self, env: &dyn EngineEnv, dir: &CheckpointDir) -> io::Result<CheckpointStats>;

    /// Number of checkpoint cycles that failed and were rolled back via
    /// the harmless-failure path (see [`CheckpointStrategy::checkpoint`]).
    /// Strategies that have no fallible side-state may keep the default.
    fn aborted_cycles(&self) -> u64 {
        0
    }

    /// Writes a full checkpoint of the current state with no transactions
    /// running (right after initial load), giving partial checkpoints a
    /// full ancestor to merge onto. Advances the strategy's checkpoint id
    /// counter.
    fn write_base_checkpoint(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats>;

    /// Point-in-time memory report (Figure 6).
    fn memory(&self) -> MemoryStats;

    /// Resumes the strategy's checkpoint-id space after recovery so new
    /// checkpoints never collide with pre-crash files. Strategies whose
    /// ids derive from the commit log's cycle counter (CALC) need no
    /// action — the engine advances the log — hence the default no-op.
    fn resume_checkpoint_ids(&self, _next_id: u64) {}
}
