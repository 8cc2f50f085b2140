//! The commit section: the one transaction body every request runs
//! ([`run_transaction`]), on a pool worker or on the caller's thread, and
//! the [`ExecOps`] bridge that turns procedure operations into strategy
//! apply hooks with undo images.

use std::sync::atomic::Ordering;

use calc_common::lockword::Locked;
use calc_common::types::{Key, TxnId};
use calc_core::strategy::{
    CheckpointStrategy, Footprint, FootprintBuffers, TxnToken, UndoImage, UndoRec,
};
use calc_recovery::DurabilityTicket;
use calc_storage::dual::StoreError;
use calc_txn::commitlog::CommitRecord;
use calc_txn::proc::{AbortReason, Procedure, TxnOps};

use crate::db::{Inner, TxnOutcome};
use crate::executor::Request;

/// What a thread reuses from one transaction to the next: the declared
/// keys' resolution and the undo space, so a transaction that overwrites
/// records with values of their own length allocates nothing for them.
pub(crate) struct Scratch<'a> {
    /// The running transaction's declared keys, resolved once.
    pub(crate) footprint: Footprint<'a>,
    undo: Vec<Undo>,
    /// The previous values of the transaction's writes, back to back.
    old: Vec<u8>,
}

/// One write's inverse: the previous value is `old[from..]` up to the
/// next entry's `from` (empty for [`UndoImage::Remove`]).
struct Undo {
    key: Key,
    kind: fn(calc_common::types::Value) -> UndoImage,
    from: usize,
}

/// A [`Scratch`]'s buffers apart from the strategy it borrows, so a
/// caller's thread can keep them between its synchronous transactions.
#[derive(Default)]
pub(crate) struct ScratchBuffers {
    footprint: FootprintBuffers,
    undo: Vec<Undo>,
    old: Vec<u8>,
}

impl ScratchBuffers {
    /// Heap bytes held, counted by capacity.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.footprint.capacity_bytes()
            + self.undo.capacity() * std::mem::size_of::<Undo>()
            + self.old.capacity()
    }
}

impl<'a> Scratch<'a> {
    pub(crate) fn new(strategy: &'a dyn CheckpointStrategy, buffers: ScratchBuffers) -> Self {
        Scratch {
            footprint: Footprint::with_buffers(strategy, buffers.footprint),
            undo: buffers.undo,
            old: buffers.old,
        }
    }

    pub(crate) fn into_buffers(self) -> ScratchBuffers {
        ScratchBuffers {
            footprint: self.footprint.into_buffers(),
            undo: self.undo,
            old: self.old,
        }
    }

    /// The undo images newest-first, as [`CheckpointStrategy::on_abort`]
    /// takes them — copied out: only an abort pays for them.
    fn undo_images(&self) -> Vec<UndoRec> {
        let ends = self.undo.iter().skip(1).map(|u| u.from).chain([self.old.len()]);
        let mut recs: Vec<UndoRec> = self
            .undo
            .iter()
            .zip(ends)
            .map(|(u, end)| UndoRec {
                key: u.key,
                img: (u.kind)(self.old[u.from..end].into()),
            })
            .collect();
        recs.reverse();
        recs
    }
}

/// The transaction body: strategy hooks, commit-token append, and
/// metrics, run while the request's declared lock set (`held`) is held
/// and released only after commit processing. It runs on whichever thread
/// took the request — a pool worker for `submit`, the caller for
/// `execute` and `execute_durable` — and nothing in it depends on which.
/// For a durable request that commits, the second element is the
/// commit's [`DurabilityTicket`]; it is waited on only after the locks
/// and the admission guard are released, by `execute_durable`.
pub(crate) fn run_transaction(
    inner: &Inner,
    req: &Request,
    proc: &dyn Procedure,
    held: Locked<'_>,
    scratch: &mut Scratch<'_>,
) -> (TxnOutcome, Option<DurabilityTicket>) {
    let mut token = inner.strategy.txn_begin();
    #[cfg(feature = "conform")]
    let start_stamp = token.stamp;
    scratch.undo.clear();
    scratch.old.clear();
    let mut ops = ExecOps {
        token: &mut token,
        scratch: &mut *scratch,
        failed: None,
        #[cfg(feature = "conform")]
        trace: inner.recorder.as_ref().map(|_| Vec::new()),
    };
    let result = proc.run(&req.params, &mut ops);
    #[cfg(feature = "conform")]
    let trace = ops.trace.take();
    let failed = ops.failed;

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
            inner.strategy.on_abort(&mut token, &scratch.undo_images());
            (TxnOutcome::Aborted(e), None)
        }
    };
    // Record metrics before releasing locks: a later transaction on the
    // same keys must observe this one's commit as counted (tests and the
    // benchmark harness use a synchronous same-key marker as a drain
    // barrier, which is only sound with this ordering).
    match &outcome {
        TxnOutcome::Committed(_) => {
            inner.metrics.record_commit(req.submitted.elapsed());
        }
        TxnOutcome::Aborted(_) => inner.metrics.record_abort(),
    }
    drop(held);
    inner.strategy.txn_end(token);
    (outcome, ticket)
}

/// Bridges procedure logic to the strategy's apply hooks at the
/// footprint's resolved slots, recording undo images for rollback.
struct ExecOps<'a, 's> {
    token: &'a mut TxnToken,
    scratch: &'a mut Scratch<'s>,
    failed: Option<AbortReason>,
    /// Operation trace for the conformance recorder; `Some` only when a
    /// recorder is attached to the engine.
    #[cfg(feature = "conform")]
    trace: Option<Vec<crate::recorder::RecordedOp>>,
}

impl ExecOps<'_, '_> {
    fn push_undo(&mut self, key: Key, kind: fn(calc_common::types::Value) -> UndoImage, from: usize) {
        self.scratch.undo.push(Undo { key, kind, from });
    }

    /// Records the first failed operation; whatever it left in the undo
    /// space from `from` on is dropped.
    fn fail(&mut self, what: &str, e: StoreError, from: usize) {
        self.scratch.old.truncate(from);
        self.failed
            .get_or_insert_with(|| AbortReason::Logic(format!("{what} failed: {e}")));
    }
}

impl TxnOps for ExecOps<'_, '_> {
    fn get_with(&mut self, key: Key, read: &mut dyn FnMut(&[u8])) -> bool {
        let footprint = &self.scratch.footprint;
        #[cfg(feature = "conform")]
        if let Some(trace) = self.trace.as_mut() {
            let mut observed = None;
            let found = footprint.get_with(key, &mut |v| {
                observed = Some(v.into());
                read(v)
            });
            trace.push(crate::recorder::RecordedOp::Get { key, observed });
            return found;
        }
        footprint.get_with(key, read)
    }

    fn put(&mut self, key: Key, value: &[u8]) {
        #[cfg(feature = "conform")]
        if let Some(trace) = self.trace.as_mut() {
            trace.push(crate::recorder::RecordedOp::Put {
                key,
                value: value.into(),
            });
        }
        let from = self.scratch.old.len();
        let Scratch { footprint, old, .. } = &mut *self.scratch;
        match footprint.write(self.token, key, value, old) {
            Ok(true) => self.push_undo(key, UndoImage::Restore, from),
            Ok(false) => self.push_undo(key, |_| UndoImage::Remove, from),
            Err(e) => self.fail("put", e, from),
        }
    }

    fn insert(&mut self, key: Key, value: &[u8]) -> bool {
        let from = self.scratch.old.len();
        let inserted = match self.scratch.footprint.insert(self.token, key, value) {
            Ok(true) => {
                self.push_undo(key, |_| UndoImage::Remove, from);
                true
            }
            Ok(false) => false,
            Err(e) => {
                self.fail("insert", e, from);
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
        let from = self.scratch.old.len();
        let Scratch { footprint, old, .. } = &mut *self.scratch;
        let deleted = match footprint.delete(self.token, key, old) {
            Ok(()) => {
                self.push_undo(key, UndoImage::Reinsert, from);
                true
            }
            Err(StoreError::KeyNotFound(_)) => {
                self.scratch.old.truncate(from);
                false
            }
            Err(e) => {
                self.fail("delete", e, from);
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
