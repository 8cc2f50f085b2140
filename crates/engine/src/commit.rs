//! The commit section: the one transaction body every worker runs
//! ([`run_transaction`]) and the [`ExecOps`] bridge that turns procedure
//! operations into strategy apply hooks with undo images.

use std::sync::atomic::Ordering;

use calc_common::types::{Key, TxnId, Value};
use calc_core::strategy::{CheckpointStrategy, TxnToken, UndoImage, UndoRec};
use calc_storage::dual::StoreError;
use calc_txn::commitlog::CommitRecord;
use calc_txn::locks::LockSetGuard;
use calc_txn::proc::{AbortReason, Procedure, TxnOps};

use crate::db::{Inner, TxnOutcome};
use crate::executor::{Reply, Request};

/// The transaction body: strategy hooks, commit-token append, and
/// metrics, run while the request's declared lock set (`guard`) is held
/// and released only after commit processing. For a durable request that
/// commits, the second element is the commit's
/// [`calc_recovery::DurabilityTicket`] — the worker never waits on it (a
/// worker parked on an fsync would stall every request behind one
/// batch); the submitting thread does.
pub(crate) fn run_transaction(
    inner: &Inner,
    req: &Request,
    proc: &dyn Procedure,
    guard: LockSetGuard<'_>,
) -> Reply {
    let mut token = inner.strategy.txn_begin();
    #[cfg(feature = "conform")]
    let start_stamp = token.stamp;
    let mut ops = ExecOps {
        strategy: inner.strategy.as_ref(),
        token: &mut token,
        undo: Vec::new(),
        failed: None,
        #[cfg(feature = "conform")]
        trace: inner.recorder.as_ref().map(|_| Vec::new()),
    };
    let result = proc.run(&req.params, &mut ops);
    #[cfg(feature = "conform")]
    let trace = ops.trace.take();
    let ExecOps {
        mut undo, failed, ..
    } = ops;

    let (outcome, ticket) = match (result, failed) {
        (Ok(()), None) => {
            let txn_id = TxnId(inner.txn_counter.fetch_add(1, Ordering::Relaxed));
            // Sequence assignment, the stamp read and the durable-log
            // enqueue are one atomic step — the commit log's section, the
            // only lock on this path: otherwise two workers can hand the
            // sync thread records out of seq order, and deterministic
            // replay (which consumes the log front to back) would reorder
            // commits. The enqueue never blocks on the disk, so the section
            // costs a push onto the committer's staging queue (and a
            // wake-up of its sync thread only for cause), not an fsync.
            let (seq, stamp, ticket) = inner.log.append_commit_with(|seq, _| {
                let gc = inner.cmdlog.as_ref()?;
                let rec = CommitRecord {
                    seq,
                    txn: txn_id,
                    proc: req.proc,
                    params: req.params.clone(),
                };
                if req.durable {
                    Some(gc.submit_durable(rec))
                } else {
                    gc.submit(rec);
                    None
                }
            });
            inner.strategy.on_commit(&mut token, seq, stamp);
            #[cfg(feature = "conform")]
            if let Some(rec) = inner.recorder.as_ref() {
                rec.record(crate::recorder::RecordedTxn {
                    seq,
                    txn: txn_id,
                    proc: req.proc,
                    start: start_stamp,
                    commit: stamp,
                    ops: trace.unwrap_or_default(),
                });
            }
            (TxnOutcome::Committed(seq), ticket)
        }
        (Err(e), _) | (Ok(()), Some(e)) => {
            undo.reverse();
            inner.strategy.on_abort(&mut token, &undo);
            (TxnOutcome::Aborted(e), None)
        }
    };
    // Record metrics before releasing locks: a later transaction on the
    // same keys must observe this one's commit as counted (tests and the
    // benchmark harness use a synchronous same-key marker as a drain
    // barrier, which is only sound with this ordering).
    match &outcome {
        TxnOutcome::Committed(_) => {
            let latency = req.submitted.elapsed();
            inner.metrics.record_commit(latency);
            inner.load.observe_commit(latency);
        }
        TxnOutcome::Aborted(_) => inner.metrics.record_abort(),
    }
    drop(guard);
    inner.strategy.txn_end(token);
    (outcome, ticket)
}

/// Bridges procedure logic to the strategy's apply hooks, recording undo
/// images for rollback.
struct ExecOps<'a> {
    strategy: &'a dyn CheckpointStrategy,
    token: &'a mut TxnToken,
    undo: Vec<UndoRec>,
    failed: Option<AbortReason>,
    /// Operation trace for the conformance recorder; `Some` only when a
    /// recorder is attached to the engine.
    #[cfg(feature = "conform")]
    trace: Option<Vec<crate::recorder::RecordedOp>>,
}

impl TxnOps for ExecOps<'_> {
    fn get(&mut self, key: Key) -> Option<Value> {
        let observed = self.strategy.get(key);
        #[cfg(feature = "conform")]
        if let Some(trace) = self.trace.as_mut() {
            trace.push(crate::recorder::RecordedOp::Get {
                key,
                observed: observed.clone(),
            });
        }
        observed
    }

    fn put(&mut self, key: Key, value: &[u8]) {
        #[cfg(feature = "conform")]
        if let Some(trace) = self.trace.as_mut() {
            trace.push(crate::recorder::RecordedOp::Put {
                key,
                value: value.into(),
            });
        }
        match self.strategy.apply_write(self.token, key, value) {
            Ok(Some(old)) => self.undo.push(UndoRec {
                key,
                img: UndoImage::Restore(old),
            }),
            Ok(None) => self.undo.push(UndoRec {
                key,
                img: UndoImage::Remove,
            }),
            Err(e) => {
                self.failed
                    .get_or_insert_with(|| AbortReason::Logic(format!("put failed: {e}")));
            }
        }
    }

    fn insert(&mut self, key: Key, value: &[u8]) -> bool {
        let inserted = match self.strategy.apply_insert(self.token, key, value) {
            Ok(true) => {
                self.undo.push(UndoRec {
                    key,
                    img: UndoImage::Remove,
                });
                true
            }
            Ok(false) => false,
            Err(e) => {
                self.failed
                    .get_or_insert_with(|| AbortReason::Logic(format!("insert failed: {e}")));
                false
            }
        };
        #[cfg(feature = "conform")]
        if let Some(trace) = self.trace.as_mut() {
            trace.push(crate::recorder::RecordedOp::Insert {
                key,
                value: value.into(),
                inserted,
            });
        }
        inserted
    }

    fn delete(&mut self, key: Key) -> bool {
        let deleted = match self.strategy.apply_delete(self.token, key) {
            Ok(Some(old)) => {
                self.undo.push(UndoRec {
                    key,
                    img: UndoImage::Reinsert(old),
                });
                true
            }
            Ok(None) | Err(StoreError::KeyNotFound(_)) => false,
            Err(e) => {
                self.failed
                    .get_or_insert_with(|| AbortReason::Logic(format!("delete failed: {e}")));
                false
            }
        };
        #[cfg(feature = "conform")]
        if let Some(trace) = self.trace.as_mut() {
            trace.push(crate::recorder::RecordedOp::Delete { key, deleted });
        }
        deleted
    }
}
