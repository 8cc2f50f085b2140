//! The transaction executor: the paper's §4 pool. Every request goes on
//! one submission queue (bounded by `EngineConfig::queue_capacity`, or
//! unbounded), and any worker takes any request. The worker that pops it
//! resolves the procedure and its pre-declared footprint, then:
//! 1. locks the footprint's keys in the strategy's lock words (one per
//!    slot of its slot table, `calc_common::lockword`): each key hashed
//!    to its word, the words prefetched, then locked in word order with
//!    the strongest mode per word — ordered 2PL, which cannot deadlock;
//! 2. resolves each declared key to its slot once, under those locks, and
//!    prefetches the slots found (`calc_core::strategy::Footprint`);
//! 3. runs the procedure against those slots, so an access to a declared
//!    key neither looks it up again nor waits on a lock.
//!
//! The submitting thread pays neither a registry lookup nor a `locks()`
//! call.
//!
//! A worker holds the admission gate's read side for the whole
//! transaction, so a quiesce (its write side) observes no in-flight
//! commit work. Every request ends in [`run_transaction`], whose one
//! critical section is the commit log's
//! (`calc_txn::commitlog::CommitLog::append_commit_with`): the sequence
//! is assigned, the phase stamp read and the record enqueued on the
//! durable log under that single lock, owned by the sequencer. Log order
//! therefore equals seq order, which deterministic replay, the
//! conformance checker, group commit and standby replay all rely on.
//!
//! Shutdown drops the executor's one sender. Each worker drains what is
//! already queued (the channel hands out buffered requests before it
//! reports a disconnect), exits, and is joined with [`join_bounded`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use calc_common::lockword::{LockMode, LockWords, Locked};
use calc_recovery::DurabilityTicket;
use calc_txn::proc::{AbortReason, LockRequest, ProcId, Procedure};

use crate::commit::{run_transaction, Scratch};
use crate::config::EngineConfig;
use crate::db::{Inner, TxnOutcome};

/// What a worker hands back to a synchronous caller: the outcome and,
/// for a durable request that committed, the ticket the *caller* waits on.
pub(crate) type Reply = (TxnOutcome, Option<DurabilityTicket>);

pub(crate) struct Request {
    pub(crate) proc: ProcId,
    pub(crate) params: Arc<[u8]>,
    pub(crate) submitted: Instant,
    /// Ack-after-fsync: the worker requests a [`DurabilityTicket`] for
    /// the commit and hands it back with the outcome, so the *caller*
    /// thread (not a worker) blocks on the batch fsync.
    pub(crate) durable: bool,
    pub(crate) reply: Option<Sender<Reply>>,
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

/// The submission queue and the worker threads that drain it.
pub(crate) struct Executor {
    /// The queue's only sender; `None` once [`Executor::stop`] has run.
    queue: Option<Sender<Request>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns `config.workers` workers over one shared queue.
    pub(crate) fn start(inner: &Arc<Inner>, config: &EngineConfig) -> Self {
        let (queue, rx) = match config.queue_capacity {
            Some(n) => bounded(n),
            None => unbounded(),
        };
        let workers = (0..config.workers.max(1))
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
            queue: Some(queue),
            workers,
        }
    }

    /// Enqueues one request; blocks while a bounded queue is full.
    pub(crate) fn dispatch(&self, req: Request) {
        self.queue
            .as_ref()
            .expect("executor running")
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
/// disconnected, and runs each under its declared lock set.
fn run_worker(inner: &Inner, rx: &Receiver<Request>) {
    // Reused by every transaction this worker runs.
    let mut words = Vec::new();
    let mut scratch = Scratch::new(inner.strategy.as_ref());
    while let Ok(req) = rx.recv() {
        let reply = {
            // Admission: held for the entire transaction, including the
            // commit hook, so a quiesce observes no in-flight commit work.
            let _admission = inner.gate.read();
            match resolve(inner, &req) {
                Err(e) => (TxnOutcome::Aborted(e), None),
                Ok((proc, declared)) => {
                    // Ordered 2PL: lock the declared keys, resolve them
                    // under the locks, run, release after commit
                    // processing.
                    let held = lock_footprint(inner.strategy.locks(), &declared, &mut words);
                    scratch.footprint.resolve(&declared);
                    run_transaction(inner, &req, proc.as_ref(), held, &mut scratch)
                }
            }
        };
        if let Some(tx) = &req.reply {
            let _ = tx.send(reply);
        }
    }
}

/// Locks `declared`'s keys: each hashed to its word, the words' lines
/// prefetched so their misses overlap, then [`LockWords::lock_all`] over
/// `set`, the worker's reused buffer.
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
