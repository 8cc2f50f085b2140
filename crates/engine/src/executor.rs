//! Where transactions run. A synchronous call — `Database::execute` or
//! `execute_durable` — runs its transaction on the caller's thread, start
//! to finish, as the paper's §4 runs each stored procedure on one thread.
//! `Database::submit` hands its request to the pool: one submission
//! queue (bounded by `EngineConfig::queue_capacity`, or unbounded) that
//! any worker drains. An engine opened with `EngineConfig::workers = 0`
//! has no pool, and its `submit` panics. Both run the same body,
//! [`run_request`]:
//! 1. it takes the admission gate's read side for the whole transaction,
//!    so a quiesce (its write side) observes no in-flight commit work,
//!    whichever thread runs it;
//! 2. resolves the procedure and its pre-declared footprint;
//! 3. locks the footprint's keys in the strategy's lock words (one per
//!    slot of its slot table, `calc_common::lockword`): each key hashed
//!    to its word, the words prefetched, then locked in word order with
//!    the strongest mode per word — ordered 2PL, which cannot deadlock;
//! 4. resolves each declared key to its slot once, under those locks, and
//!    prefetches the slots found (`calc_core::strategy::Footprint`);
//! 5. runs the procedure against those slots ([`run_transaction`]), so an
//!    access to a declared key neither looks it up again nor waits on a
//!    lock.
//!
//! A submitter pays neither a registry lookup nor a `locks()` call. A
//! request that never resolves (unknown procedure, undeclarable params)
//! is counted aborted, like one whose procedure ran and rolled back, so
//! every request ends in exactly one of the two counters. A
//! `submit` and a later synchronous call are not ordered: the second can
//! commit first, as two submits can on a pool of more than one worker.
//!
//! The one critical section is the commit log's
//! (`calc_txn::commitlog::CommitLog::append_commit_with`): the sequence
//! is assigned, the phase stamp read and the record enqueued on the
//! durable log under that single lock, owned by the sequencer, whatever
//! thread holds it. Log order therefore equals seq order, which
//! deterministic replay, the conformance checker, group commit and
//! standby replay all rely on.
//!
//! Shutdown drops the executor's one sender. Each worker drains what is
//! already queued (the channel hands out buffered requests before it
//! reports a disconnect), exits, and is joined with [`join_bounded`].
//! Shutdown consumes the `Database`, so no caller is inside a synchronous
//! call when it runs.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use calc_common::lockword::{LockMode, LockWords, Locked};
use calc_recovery::DurabilityTicket;
use calc_txn::proc::{AbortReason, LockRequest, ProcId, Procedure};

use crate::commit::{run_transaction, Scratch, ScratchBuffers};
use crate::config::EngineConfig;
use crate::db::{Inner, TxnOutcome};

pub(crate) struct Request {
    pub(crate) proc: ProcId,
    pub(crate) params: Arc<[u8]>,
    pub(crate) submitted: Instant,
    /// Ack-after-fsync: request a [`DurabilityTicket`] for the commit,
    /// which the caller waits on once the transaction has released its
    /// locks and the admission gate.
    pub(crate) durable: bool,
}

/// How long shutdown waits for a background thread before declaring the
/// engine hung. Generous: a loaded drain of a deep queue is legitimate;
/// a thread that makes no exit progress for this long is not.
pub(crate) const SHUTDOWN_JOIN_TIMEOUT: Duration = Duration::from_secs(120);

/// Joins `handle`, polling with a deadline instead of blocking forever,
/// so a wedged background thread turns into a diagnosable panic rather
/// than a silent test-suite hang. The polls back off from 20 µs to 2 ms:
/// a thread that exits at once (a worker whose queue just closed) is
/// joined in microseconds, not after a fixed 2 ms nap. During an unwind
/// (drop while panicking) it degrades to a warning so the original panic
/// surfaces.
pub(crate) fn join_bounded(handle: std::thread::JoinHandle<()>, what: &str) {
    let deadline = Instant::now() + SHUTDOWN_JOIN_TIMEOUT;
    let mut nap = Duration::from_micros(20);
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            let msg = format!(
                "Database shutdown hung: {what} thread made no exit progress for \
                 {SHUTDOWN_JOIN_TIMEOUT:?} after shutdown began — likely a \
                 transaction stuck on a lock queue or a checkpoint wedged \
                 draining a phase"
            );
            if std::thread::panicking() {
                eprintln!("{msg} (suppressed: already panicking)");
                return;
            }
            panic!("{msg}");
        }
        std::thread::sleep(nap);
        nap = (nap * 2).min(Duration::from_millis(2));
    }
    let _ = handle.join();
}

/// The submission queue and the worker threads that drain it: the pool
/// that runs `submit`'s fire-and-forget requests.
pub(crate) struct Executor {
    /// The queue's only sender; `None` without workers, and once
    /// [`Executor::stop`] has run.
    queue: Option<Sender<Request>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns `config.workers` workers over one shared queue; none, and
    /// no queue, for `workers = 0`.
    pub(crate) fn start(inner: &Arc<Inner>, config: &EngineConfig) -> Self {
        let (queue, rx) = match config.queue_capacity {
            Some(n) => bounded(n),
            None => unbounded(),
        };
        let workers = (0..config.workers)
            .map(|i| {
                let inner = inner.clone();
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("calc-worker-{i}"))
                    .spawn(move || run_worker(&inner, &rx))
                    .expect("spawn worker")
            })
            .collect();
        Executor {
            queue: (config.workers > 0).then_some(queue),
            workers,
        }
    }

    /// Enqueues one request; blocks while a bounded queue is full.
    pub(crate) fn dispatch(&self, req: Request) {
        self.queue
            .as_ref()
            .expect("Database::submit needs EngineConfig::workers >= 1")
            .send(req)
            .expect("workers alive");
    }

    /// Drains the queue and joins every worker. Idempotent.
    pub(crate) fn stop(&mut self) {
        drop(self.queue.take());
        for w in std::mem::take(&mut self.workers) {
            join_bounded(w, "worker");
        }
    }
}

/// The worker loop: pops requests until the queue is drained and
/// disconnected, and runs each.
fn run_worker(inner: &Inner, rx: &Receiver<Request>) {
    while let Ok(req) = rx.recv() {
        run_request(inner, &req);
    }
}

thread_local! {
    /// The lock-word set and scratch a thread reuses from one transaction
    /// to the next, so a transaction allocates nothing of its own once
    /// its thread has run one as large — up to [`REUSED_CAP_BYTES`].
    static REUSED: Cell<(Vec<(u32, LockMode)>, ScratchBuffers)> = Cell::default();
}

/// The most buffer capacity a thread keeps in [`REUSED`]; more is freed
/// on return, so one frame-sized MPUT does not pin megabytes to its
/// connection's thread. A transaction of tens of keys stays far under it.
const REUSED_CAP_BYTES: usize = 64 << 10;

/// Heap bytes the buffers hold, counted by capacity.
fn reused_bytes(words: &Vec<(u32, LockMode)>, buffers: &ScratchBuffers) -> usize {
    words.capacity() * std::mem::size_of::<(u32, LockMode)>() + buffers.capacity_bytes()
}

/// One transaction start to finish, on the thread that calls it — a pool
/// worker for `submit`, the caller for `execute` and `execute_durable`:
/// the admission gate's read side, the procedure and its footprint,
/// ordered 2PL over the footprint, then [`run_transaction`]. Locks are
/// released after commit processing, the gate on return.
pub(crate) fn run_request(inner: &Inner, req: &Request) -> (TxnOutcome, Option<DurabilityTicket>) {
    REUSED.with(|reused| {
        let (mut words, buffers) = reused.take();
        let mut scratch = Scratch::new(inner.strategy.as_ref(), buffers);
        let out = {
            // Admission: held for the entire transaction, including the
            // commit hook, so a quiesce observes no in-flight commit work.
            let _admission = inner.gate.read();
            match resolve(inner, req) {
                Err(e) => {
                    inner.metrics.record_abort();
                    (TxnOutcome::Aborted(e), None)
                }
                Ok((proc, declared)) => {
                    let held = lock_footprint(inner.strategy.locks(), &declared, &mut words);
                    scratch.footprint.resolve(&declared);
                    run_transaction(inner, req, proc.as_ref(), held, &mut scratch)
                }
            }
        };
        let buffers = scratch.into_buffers();
        if reused_bytes(&words, &buffers) <= REUSED_CAP_BYTES {
            reused.set((words, buffers));
        }
        out
    })
}

/// Locks `declared`'s keys: each hashed to its word, the words' lines
/// prefetched so their misses overlap, then [`LockWords::lock_all`] over
/// `set`, the running thread's reused buffer.
fn lock_footprint<'a>(
    locks: &'a LockWords,
    declared: &LockRequest,
    set: &'a mut Vec<(u32, LockMode)>,
) -> Locked<'a> {
    set.clear();
    let word = |key: &calc_common::types::Key| locks.word_of(key.0);
    set.extend(declared.writes.iter().map(|k| (word(k), LockMode::Exclusive)));
    set.extend(declared.reads.iter().map(|k| (word(k), LockMode::Shared)));
    for &(w, _) in set.iter() {
        locks.prefetch(w);
    }
    locks.lock_all(set)
}

/// Resolves a request to its procedure and pre-declared footprint.
fn resolve<'a>(
    inner: &'a Inner,
    req: &Request,
) -> Result<(&'a Arc<dyn Procedure>, LockRequest), AbortReason> {
    let p = inner
        .registry
        .get(req.proc)
        .ok_or_else(|| AbortReason::BadParams(format!("unknown procedure {:?}", req.proc)))?;
    Ok((p, p.locks(&req.params)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, StrategyKind};
    use calc_testkit::{mset, registry, set_u64, MSET, SET};

    /// Bytes this thread keeps in [`REUSED`].
    fn retained() -> usize {
        REUSED.with(|reused| {
            let (words, buffers) = reused.take();
            let bytes = reused_bytes(&words, &buffers);
            reused.set((words, buffers));
            bytes
        })
    }

    #[test]
    fn a_large_transaction_leaves_its_thread_no_more_than_the_cap() {
        const PAIRS: u64 = 8_192;
        let mut config = EngineConfig::new(
            StrategyKind::Calc,
            PAIRS as usize,
            64,
            calc_testkit::temp_dir("reused-cap"),
        );
        config.workers = 0;
        let db = Database::open(config, registry()).unwrap();
        let committed = |outcome| assert!(matches!(outcome, TxnOutcome::Committed(_)));

        committed(db.execute(SET, set_u64(0, 1)));
        assert!(retained() > 0, "a small transaction's buffers are kept");

        // The second MSET overwrites every key, so its undo images hold
        // 512 KiB of old values on top of 8 Ki resolved keys.
        let value = [7u8; 64];
        let pairs: Vec<(u64, &[u8])> = (0..PAIRS).map(|k| (k, &value[..])).collect();
        for _ in 0..2 {
            committed(db.execute(MSET, mset(&pairs)));
            let kept = retained();
            assert!(
                kept <= REUSED_CAP_BYTES,
                "{kept} bytes kept after an MSET of {PAIRS} pairs (cap {REUSED_CAP_BYTES})"
            );
        }

        committed(db.execute(SET, set_u64(1, 1)));
        let kept = retained();
        assert!(
            kept > 0 && kept <= REUSED_CAP_BYTES,
            "the next small transaction keeps its buffers again: {kept} bytes"
        );
    }
}
