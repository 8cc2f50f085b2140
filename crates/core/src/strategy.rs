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

use calc_common::lockword::LockWords;
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

/// Per-transaction state carried through the strategy hooks. The default
/// token is an empty one no strategy began, a placeholder only.
#[derive(Debug, Default)]
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
    /// Bytes written to disk.
    pub bytes: u64,
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
            duration: start.elapsed(),
            quiesce,
            parts: cycle.parts.len(),
        }
    }
}

/// Where a transaction found one of its declared keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resolved {
    /// Linked to this slot.
    At(SlotId),
    /// Not linked.
    Absent,
    /// Not resolved — undeclared, or inserted by this transaction: an
    /// access looks it up.
    Lookup,
}

impl Resolved {
    /// A key-index lookup's answer.
    pub fn from_slot(slot: Option<SlotId>) -> Self {
        slot.map_or(Resolved::Absent, Resolved::At)
    }

    /// The slot, as the `at` hint of an access.
    pub fn slot(self) -> Option<SlotId> {
        match self {
            Resolved::At(slot) => Some(slot),
            Resolved::Absent | Resolved::Lookup => None,
        }
    }
}

/// A transaction's declared keys, each resolved to its slot once — by the
/// executor under the keys' lock words, by replay in the lane that orders
/// them — and the data operations at those slots, which the executor's
/// and replay's `TxnOps` share. A key touched without being declared (one
/// a coarser declared lock covers, like TPC-C's order rows under their
/// district) is looked up at each access.
pub struct Footprint<'a> {
    strategy: &'a dyn CheckpointStrategy,
    /// Sorted by key, one entry per key.
    keys: Vec<(Key, Resolved)>,
    /// Scratch for the prefetch hint.
    slots: Vec<SlotId>,
}

/// A [`Footprint`]'s buffers apart from the strategy it borrows: what a
/// thread keeps from one transaction to the next when each borrows the
/// strategy anew.
#[derive(Default)]
pub struct FootprintBuffers {
    keys: Vec<(Key, Resolved)>,
    slots: Vec<SlotId>,
}

impl FootprintBuffers {
    /// Heap bytes held, counted by capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<(Key, Resolved)>()
            + self.slots.capacity() * std::mem::size_of::<SlotId>()
    }
}

impl<'a> Footprint<'a> {
    /// An empty footprint over `strategy`: every access looks its key up.
    pub fn new(strategy: &'a dyn CheckpointStrategy) -> Self {
        Self::with_buffers(strategy, FootprintBuffers::default())
    }

    /// [`Footprint::new`], resolving into `buffers`' capacity.
    pub fn with_buffers(strategy: &'a dyn CheckpointStrategy, buffers: FootprintBuffers) -> Self {
        let FootprintBuffers { mut keys, mut slots } = buffers;
        keys.clear();
        slots.clear();
        Footprint {
            strategy,
            keys,
            slots,
        }
    }

    /// The buffers, for the next [`Footprint::with_buffers`].
    pub fn into_buffers(self) -> FootprintBuffers {
        FootprintBuffers {
            keys: self.keys,
            slots: self.slots,
        }
    }

    /// Resolves every key of `req` once and hands the slots found to
    /// [`CheckpointStrategy::prefetch`] (not for one key: its one miss
    /// has nothing to overlap with).
    pub fn resolve(&mut self, req: &LockRequest) {
        self.keys.clear();
        self.slots.clear();
        for &key in req.writes.iter().chain(&req.reads) {
            let at = self.strategy.resolve(key);
            self.slots.extend(at.slot());
            self.keys.push((key, at));
        }
        self.keys.sort_unstable_by_key(|&(key, _)| key);
        self.keys.dedup_by_key(|&mut (key, _)| key);
        if self.slots.len() > 1 {
            self.strategy.prefetch(&self.slots);
        }
    }

    /// Where `key` was resolved.
    pub fn at(&self, key: Key) -> Resolved {
        let i = self.keys.binary_search_by_key(&key, |&(k, _)| k);
        i.map_or(Resolved::Lookup, |i| self.keys[i].1)
    }

    /// Records that this transaction's own insert or delete moved `key`.
    fn moved(&mut self, key: Key, to: Resolved) {
        if let Ok(i) = self.keys.binary_search_by_key(&key, |&(k, _)| k) {
            self.keys[i].1 = to;
        }
    }

    /// [`CheckpointStrategy::get_with`]; a key resolved absent is not
    /// looked up again.
    pub fn get_with(&self, key: Key, read: &mut dyn FnMut(&[u8])) -> bool {
        let at = self.at(key);
        at != Resolved::Absent && self.strategy.get_with(key, at.slot(), read)
    }

    /// [`CheckpointStrategy::apply_write_at`].
    pub fn write(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> Result<bool, StoreError> {
        (self.strategy).apply_write_at(token, key, self.at(key).slot(), value, old)
    }

    /// [`CheckpointStrategy::apply_insert`]; the key is looked up from
    /// then on.
    pub fn insert(&mut self, t: &mut TxnToken, key: Key, v: &[u8]) -> Result<bool, StoreError> {
        let inserted = self.strategy.apply_insert(t, key, v)?;
        if inserted {
            self.moved(key, Resolved::Lookup);
        }
        Ok(inserted)
    }

    /// [`CheckpointStrategy::apply_delete_at`]; the key reads absent from
    /// then on.
    pub fn delete(&mut self, t: &mut TxnToken, key: Key, old: &mut Vec<u8>) -> Result<(), StoreError> {
        let at = self.at(key);
        if at == Resolved::Absent {
            return Err(StoreError::KeyNotFound(key));
        }
        self.strategy.apply_delete_at(t, key, at.slot(), old)?;
        self.moved(key, Resolved::Absent);
        Ok(())
    }
}

/// Expands, inside an `impl CheckpointStrategy` whose `self.store` is a
/// [`calc_storage::Store`], to the methods a strategy answers from its
/// store as they are: `locks`, `resolve`, `get_with`, `prefetch` and
/// `record_count`; `store_methods!(load)` adds `load_batch` and `clear`.
/// Every call stays a static one into the store's payload.
#[macro_export]
macro_rules! store_methods {
    (load) => {
        fn load_batch(
            &self,
            records: &[(::calc_common::types::Key, &[u8])],
        ) -> Result<usize, ::calc_storage::dual::StoreError> {
            self.store.install_batch(records)
        }

        fn clear(&self) {
            self.store.clear();
        }

        $crate::store_methods!();
    };
    () => {
        fn locks(&self) -> &::calc_common::lockword::LockWords {
            self.store.locks()
        }

        fn resolve(&self, key: ::calc_common::types::Key) -> $crate::strategy::Resolved {
            $crate::strategy::Resolved::from_slot(self.store.slot_of(key))
        }

        fn get_with(
            &self,
            key: ::calc_common::types::Key,
            at: Option<::calc_storage::SlotId>,
            read: &mut dyn FnMut(&[u8]),
        ) -> bool {
            self.store.get_with(key, at, read)
        }

        fn prefetch(&self, slots: &[::calc_storage::SlotId]) {
            self.store.prefetch(slots);
        }

        fn record_count(&self) -> usize {
            self.store.len()
        }
    };
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

    /// Drops every record [`CheckpointStrategy::load_batch`] installed,
    /// leaving the strategy as empty as a fresh one. Restart-only: when a
    /// part of the chain being loaded fails to read, its cycle is
    /// quarantined and the next chain is loaded from scratch. Nothing else
    /// may run meanwhile.
    fn clear(&self);

    /// The transaction lock words: the slot table's, one per slot (see
    /// [`calc_common::lockword`]).
    fn locks(&self) -> &LockWords;

    /// Resolves `key` to its slot for a transaction's [`Footprint`].
    fn resolve(&self, key: Key) -> Resolved;

    /// Reads the latest committed value in place: calls `read` with it
    /// and returns whether the key is present. `at` is the slot the key
    /// was resolved to under its lock, or `None` to look it up; a
    /// strategy may ignore it. (The caller holds the logical lock.)
    fn get_with(&self, key: Key, at: Option<SlotId>, read: &mut dyn FnMut(&[u8])) -> bool;

    /// [`CheckpointStrategy::get_with`], copied out.
    fn get(&self, key: Key) -> Option<Value> {
        let mut out = None;
        self.get_with(key, None, &mut |v| out = Some(v.into()));
        out
    }

    /// A hint that a transaction is about to touch the records in
    /// `slots`: the strategy may start loading them into cache, so the
    /// misses overlap. It must not block, and it changes nothing
    /// observable. The default does nothing.
    fn prefetch(&self, _slots: &[SlotId]) {}

    /// Number of live records.
    fn record_count(&self) -> usize;

    /// Registers a transaction (CALC notes `txn.start-phase` here).
    fn txn_begin(&self) -> TxnToken;

    /// Deregisters a transaction after its locks are released.
    fn txn_end(&self, token: TxnToken);

    /// `ApplyWrite`: overwrites `key`, performing the strategy's version
    /// bookkeeping, and appends the previous value to `old` (the caller's
    /// undo space); returns whether there was one. `at` is as for
    /// [`CheckpointStrategy::get_with`].
    fn apply_write_at(
        &self,
        token: &mut TxnToken,
        key: Key,
        at: Option<SlotId>,
        value: &[u8],
        old: &mut Vec<u8>,
    ) -> Result<bool, StoreError>;

    /// [`CheckpointStrategy::apply_write_at`], returning the previous
    /// value.
    fn apply_write(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<Option<Value>, StoreError> {
        let mut old = Vec::new();
        let had = self.apply_write_at(token, key, None, value, &mut old)?;
        Ok(had.then(|| old.into_boxed_slice()))
    }

    /// Inserts a record. Returns `false` without changing anything if the
    /// key already exists.
    fn apply_insert(&self, token: &mut TxnToken, key: Key, value: &[u8])
        -> Result<bool, StoreError>;

    /// Deletes a record, appending its previous value to `old` (undo).
    /// `at` is as for [`CheckpointStrategy::get_with`].
    fn apply_delete_at(
        &self,
        token: &mut TxnToken,
        key: Key,
        at: Option<SlotId>,
        old: &mut Vec<u8>,
    ) -> Result<(), StoreError>;

    /// [`CheckpointStrategy::apply_delete_at`], returning the previous
    /// value.
    fn apply_delete(&self, token: &mut TxnToken, key: Key) -> Result<Option<Value>, StoreError> {
        let mut old = Vec::new();
        self.apply_delete_at(token, key, None, &mut old)?;
        Ok(Some(old.into_boxed_slice()))
    }

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

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use calc_common::lockword::LockMode;
    use calc_storage::dual::StoreConfig;
    use calc_txn::commitlog::CommitLog;

    use super::*;
    use crate::calc::CalcStrategy;

    /// Runs `f` as one committed transaction on `s`.
    fn commit(s: &CalcStrategy, log: &CommitLog, f: impl FnOnce(&mut TxnToken)) {
        let mut token = s.txn_begin();
        f(&mut token);
        let (seq, stamp) = log.append_commit();
        s.on_commit(&mut token, seq, stamp);
        s.txn_end(token);
    }

    /// A transaction waits on a key's word while the key is deleted and
    /// its slot handed to another key. Granted, it resolves the key under
    /// the lock and finds it absent — never the new tenant's record.
    #[test]
    fn a_waiter_resolves_a_deleted_key_after_its_slot_is_reused() {
        let log = Arc::new(CommitLog::default());
        let s = Arc::new(CalcStrategy::full(StoreConfig::for_records(64, 16), log.clone()));
        let (a, c) = (Key(1), Key(2));
        s.load_batch(&[(a, b"a's record")]).unwrap();
        let slot = s.store().slot_of(a).unwrap();
        let word = |key: Key| (s.locks().word_of(key.0), LockMode::Exclusive);
        assert_ne!(word(a).0, word(c).0, "the test needs two words");

        let mut deleter_set = vec![word(a)];
        let deleter = s.locks().lock_all(&mut deleter_set);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || {
                let declared = LockRequest {
                    reads: vec![a],
                    writes: vec![],
                };
                let mut set = vec![(s.locks().word_of(a.0), LockMode::Shared)];
                let _held = s.locks().lock_all(&mut set);
                let mut footprint = Footprint::new(s.as_ref());
                footprint.resolve(&declared);
                let mut seen = None;
                let found = footprint.get_with(a, &mut |v| seen = Some(v.to_vec()));
                tx.send((footprint.at(a), found, seen)).unwrap();
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(rx.try_recv().is_err(), "the waiter ran under the deleter's lock");

        // Under a's word: delete a (its slot goes back on the free list at
        // commit), then insert c under c's word, which takes that slot.
        commit(&s, &log, |t| {
            s.apply_delete(t, a).unwrap();
        });
        let mut inserter_set = vec![word(c)];
        let inserter = s.locks().lock_all(&mut inserter_set);
        commit(&s, &log, |t| {
            assert!(s.apply_insert(t, c, b"c's record").unwrap());
        });
        drop(inserter);
        assert_eq!(s.store().slot_of(c), Some(slot), "c reused a's slot");
        assert!(rx.try_recv().is_err(), "the waiter ran under the deleter's lock");

        drop(deleter);
        let (at, found, seen) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        waiter.join().unwrap();
        assert_eq!((at, found, seen), (Resolved::Absent, false, None));
        assert!(s.locks().all_idle());
    }

    /// A transaction's own insert and delete move a declared key's
    /// resolution, so its later accesses see its own writes.
    #[test]
    fn a_transactions_own_insert_and_delete_move_its_resolution() {
        let log = Arc::new(CommitLog::default());
        let s = CalcStrategy::full(StoreConfig::for_records(64, 16), log.clone());
        s.load_batch(&[(Key(1), b"one")]).unwrap();
        let declared = LockRequest {
            reads: vec![Key(1)],
            writes: vec![Key(2), Key(1)],
        };
        let mut f = Footprint::new(&s);
        f.resolve(&declared);
        assert_eq!(f.at(Key(1)), Resolved::At(0));
        assert_eq!(f.at(Key(2)), Resolved::Absent);
        assert_eq!(f.at(Key(3)), Resolved::Lookup, "undeclared");
        let mut old = Vec::new();
        commit(&s, &log, |t| {
            assert!(f.insert(t, Key(2), b"two").unwrap());
            assert_eq!(f.at(Key(2)), Resolved::Lookup);
            assert!(f.get_with(Key(2), &mut |v| assert_eq!(v, b"two")));
            assert!(f.write(t, Key(1), b"ONE", &mut old).unwrap());
            assert_eq!(old, b"one", "the write's undo image");
            f.delete(t, Key(1), &mut old).unwrap();
            assert_eq!(f.at(Key(1)), Resolved::Absent);
            assert!(!f.get_with(Key(1), &mut |_| panic!("deleted")));
            assert_eq!(f.delete(t, Key(1), &mut old), Err(StoreError::KeyNotFound(Key(1))));
        });
        assert_eq!(s.get(Key(1)), None);
        assert_eq!(s.get(Key(2)).as_deref(), Some(&b"two"[..]));
    }
}
