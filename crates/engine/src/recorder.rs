//! History recorder for concurrency conformance checking (feature
//! `conform`).
//!
//! When attached via [`crate::EngineConfig`]`::recorder`, every *committed*
//! transaction is recorded with its commit sequence, start/commit phase
//! stamps, and the full ordered list of operations it performed — reads
//! with the value each one observed, and writes with the value installed.
//! Initial bulk loads are recorded too, so the offline checker
//! (`calc-conform`) can rebuild the exact serial model: strict 2PL makes
//! the commit-sequence order a valid serial order, so replaying the
//! recorded operations in that order must reproduce every observed read,
//! and a checkpoint file must equal the replayed state at its watermark.
//!
//! Cost model: this module only exists under the `conform` cargo feature,
//! and even then the per-operation work is a single `Option` check unless
//! a recorder is actually attached (the default is `None`). Default
//! release builds carry nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;

use calc_common::types::{CommitSeq, Key, TxnId, Value};
use calc_txn::commitlog::PhaseStamp;
use calc_txn::proc::ProcId;

/// One operation a transaction performed, in intra-transaction order.
#[derive(Clone, Debug)]
pub enum RecordedOp {
    /// A read, with the value it observed (`None` = key absent).
    Get {
        /// Key read.
        key: Key,
        /// Observed value at read time.
        observed: Option<Value>,
    },
    /// A blind or read-modify write.
    Put {
        /// Key written.
        key: Key,
        /// Value installed.
        value: Value,
    },
    /// An insert attempt.
    Insert {
        /// Key inserted.
        key: Key,
        /// Value supplied.
        value: Value,
        /// Whether the insert succeeded (`false` = key already present).
        inserted: bool,
    },
    /// A delete attempt.
    Delete {
        /// Key deleted.
        key: Key,
        /// Whether a record existed and was removed.
        deleted: bool,
    },
}

/// A committed transaction's recorded history.
#[derive(Clone, Debug)]
pub struct RecordedTxn {
    /// Commit sequence — position in the serial order.
    pub seq: CommitSeq,
    /// Transaction id.
    pub txn: TxnId,
    /// Stored procedure that ran.
    pub proc: ProcId,
    /// Phase stamp at transaction start.
    pub start: PhaseStamp,
    /// Phase stamp at commit (from the commit-log token).
    pub commit: PhaseStamp,
    /// Operations in execution order.
    pub ops: Vec<RecordedOp>,
}

/// Everything the checker needs from one run: the bulk-loaded initial
/// state and every committed transaction.
#[derive(Debug, Default)]
pub struct RecordedHistory {
    /// Initial state installed by `load_initial`, keyed by raw key.
    pub initial: BTreeMap<u64, Value>,
    /// Committed transactions, sorted by commit sequence.
    pub txns: Vec<RecordedTxn>,
}

/// Collects per-transaction histories from every thread that runs a
/// transaction (pool workers and synchronous callers). Push cost is
/// one short mutex-protected `Vec::push` per commit; the contention is
/// negligible next to lock acquisition and commit-log appends, but it is
/// not zero — which is why the recorder only exists behind the `conform`
/// feature and is detached by default.
#[derive(Default)]
pub struct HistoryRecorder {
    initial: Mutex<BTreeMap<u64, Value>>,
    txns: Mutex<Vec<RecordedTxn>>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one bulk-loaded record.
    pub fn record_initial(&self, key: Key, value: &[u8]) {
        self.initial.lock().unwrap().insert(key.0, value.into());
    }

    /// Records one committed transaction.
    pub fn record(&self, txn: RecordedTxn) {
        self.txns.lock().unwrap().push(txn);
    }

    /// Number of transactions recorded so far.
    pub fn len(&self) -> usize {
        self.txns.lock().unwrap().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the recorder, returning the history with transactions
    /// sorted by commit sequence. Call after the database has shut down
    /// (or otherwise quiesced) so no commit is mid-record.
    pub fn take_history(&self) -> RecordedHistory {
        let initial = std::mem::take(&mut *self.initial.lock().unwrap());
        let mut txns = std::mem::take(&mut *self.txns.lock().unwrap());
        txns.sort_by_key(|t| t.seq);
        RecordedHistory { initial, txns }
    }
}

impl std::fmt::Debug for HistoryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HistoryRecorder(txns={})", self.len())
    }
}
