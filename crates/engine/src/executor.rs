//! The transaction executor: one spawn path, one dispatch, one worker
//! loop. [`ExecutorMode`] is data the loop reads, not a second
//! implementation — it decides how many queues exist and which
//! [`Isolation`] a request carries, nothing else.
//!
//! * [`ExecutorMode::Pool`] (the paper's §4 design) is the one-queue,
//!   locks-on case: every worker receives from the same queue, a request
//!   carries [`Isolation::Locked`], and the worker that pops it resolves
//!   the procedure and takes its pre-declared lock set in the shared
//!   ordered-2PL lock manager. The submitting thread pays neither a
//!   registry lookup nor a `locks()` call.
//! * [`ExecutorMode::ShardOwned`] is the N-queue case: worker `i` owns a
//!   contiguous stripe of shards ([`ShardRouter`], aligned with the
//!   checkpoint pipeline's `ShardPartition` striping) and is the only
//!   receiver of queue `i`. The
//!   submitting thread classifies the request's footprint: a single-owner
//!   footprint ([`Isolation::Single`]) runs lock-free on its owner —
//!   owner serialism replaces per-key latching; a footprint spanning
//!   owners ([`Isolation::Cross`]) goes to the lowest involved owner,
//!   which fences the others for the duration of the commit.
//!
//! Every arm ends in [`run_transaction`], whose one critical section is
//! the commit log's (`calc_txn::commitlog::CommitLog::append_commit_with`):
//! the sequence is assigned, the phase stamp read and the record enqueued
//! on the durable log under that single lock, owned by the sequencer — the
//! engine wraps no lock of its own around the group committer. Channel
//! order therefore equals seq order, and deterministic replay, the
//! conformance checker, group commit and standby replay see
//! byte-identical commit-token streams whatever the mode.
//!
//! Fences cannot deadlock: they only ever target workers with a *higher*
//! index than the coordinator, so every fence-wait edge points up the
//! worker order. The coordinator takes the admission gate only after
//! every co-owner has parked — a parked worker holds no gate access, so a
//! pending quiesce writer (which blocks new readers under parking_lot's
//! writer preference) serializes against the fence without wedging it.
//!
//! Shutdown is by drain marker in both modes, because workers hold the
//! queue senders (fences need them) and a queue therefore never closes.
//! Only the ordering differs — see [`Executor::stop`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};

use calc_common::perturb::{point as perturb_point, Site};
use calc_recovery::DurabilityTicket;
use calc_txn::proc::{AbortReason, LockRequest, ProcId, Procedure};
use calc_txn::route::{Route, ShardRouter};

use crate::commit::run_transaction;
use crate::config::{EngineConfig, ExecutorMode};
use crate::db::{Inner, TxnOutcome};
use crate::metrics::Metric;

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

/// How the receiving worker must isolate a request.
enum Isolation {
    /// Take the declared lock set: the worker resolves the procedure and
    /// acquires its footprint in the lock manager. Every pool request.
    Locked,
    /// The whole footprint is owned by the receiving worker: execute
    /// serially, no locks. Carries the procedure the router already
    /// resolved, so the owner does zero registry lookups.
    Single(Arc<dyn Procedure>),
    /// The footprint spans the receiving worker (the coordinator, lowest
    /// involved owner) plus these higher-indexed co-owners: fence them,
    /// execute, release.
    Cross(Arc<dyn Procedure>, Vec<usize>),
    /// Routing already failed (unknown procedure, undeclarable
    /// footprint): the worker reports the abort without running anything,
    /// so outcome accounting is the same as for a `Locked` request that
    /// fails to resolve.
    Abort(AbortReason),
}

enum WorkerMsg {
    Req(Request, Isolation),
    /// A cross-shard fence: rendezvous with the sending coordinator (and
    /// the other co-owners) twice — once to report this worker parked,
    /// once more when the coordinator's commit has completed.
    Fence(Arc<Barrier>),
    /// Drain-and-exit marker: sent after every request, one per worker.
    Shutdown,
}

/// Resolves a request to its procedure and pre-declared footprint — on
/// the submitting thread when routing, on the worker when locking.
fn resolve<'a>(
    inner: &'a Inner,
    proc: ProcId,
    params: &[u8],
) -> Result<(&'a Arc<dyn Procedure>, LockRequest), AbortReason> {
    let p = inner
        .registry
        .get(proc)
        .ok_or_else(|| AbortReason::BadParams(format!("unknown procedure {proc:?}")))?;
    Ok((p, p.locks(params)?))
}

/// Shard ownership: the router plus one queue-depth gauge per owner
/// (surfaced through `Database::metric_values`).
struct Routing {
    router: ShardRouter,
    depths: Arc<[AtomicU64]>,
}

impl Routing {
    /// Classifies a request's footprint and picks its owner. The counters
    /// make routing quality observable.
    fn route(&self, inner: &Inner, proc: ProcId, params: &[u8]) -> (usize, Isolation) {
        let (p, footprint) = match resolve(inner, proc, params) {
            Ok(resolved) => resolved,
            Err(e) => {
                inner.health.add(Metric::routing_fallbacks, 1);
                return (0, Isolation::Abort(e));
            }
        };
        match self.router.classify(&footprint) {
            Route::Single(owner) => {
                inner.health.add(Metric::single_shard_txns, 1);
                (owner, Isolation::Single(p.clone()))
            }
            Route::Cross(owners) => {
                inner.health.add(Metric::cross_shard_txns, 1);
                (owners[0], Isolation::Cross(p.clone(), owners[1..].to_vec()))
            }
            // An empty footprint touches nothing (the determinism
            // contract), so serial execution anywhere is safe; pin it to
            // worker 0 and count the fallback.
            Route::Unrouted => {
                inner.health.add(Metric::routing_fallbacks, 1);
                (0, Isolation::Single(p.clone()))
            }
        }
    }
}

/// How long shutdown waits for a background thread before declaring the
/// engine hung. Generous: a loaded drain of a deep queue is legitimate;
/// a thread that makes no exit progress for this long is not.
pub(crate) const SHUTDOWN_JOIN_TIMEOUT: Duration = Duration::from_secs(120);

/// Joins `handle`, polling with a deadline instead of blocking forever,
/// so a wedged background thread turns into a diagnosable panic rather
/// than a silent test-suite hang. During an unwind (drop while
/// panicking) it degrades to a warning so the original panic surfaces.
pub(crate) fn join_bounded(handle: std::thread::JoinHandle<()>, what: &str) {
    let deadline = Instant::now() + SHUTDOWN_JOIN_TIMEOUT;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            let msg = format!(
                "Database shutdown hung: {what} thread made no exit progress for \
                 {SHUTDOWN_JOIN_TIMEOUT:?} after its drain marker was queued — \
                 likely a transaction stuck on a lock queue or a checkpoint \
                 wedged draining a phase"
            );
            if std::thread::panicking() {
                eprintln!("{msg} (suppressed: already panicking)");
                return;
            }
            panic!("{msg}");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = handle.join();
}

/// Routing shards per worker under shard ownership (total = workers ×
/// this): enough that hot shards spread over the owners.
const SHARDS_PER_WORKER: usize = 8;

/// The queues, the optional shard routing, and the worker threads.
pub(crate) struct Executor {
    /// One queue under the pool, one per worker under shard ownership.
    queues: Arc<[Sender<WorkerMsg>]>,
    routing: Option<Routing>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns `config.workers` workers over the queues the mode calls for.
    pub(crate) fn start(inner: &Arc<Inner>, config: &EngineConfig) -> Self {
        let worker_count = config.workers.max(1);
        let routing = match config.executor_mode {
            ExecutorMode::Pool => None,
            ExecutorMode::ShardOwned => Some(Routing {
                router: ShardRouter::new(worker_count, SHARDS_PER_WORKER),
                depths: (0..worker_count).map(|_| AtomicU64::new(0)).collect(),
            }),
        };
        let queue_count = routing.as_ref().map_or(1, |_| worker_count);
        let (queues, receivers): (Vec<_>, Vec<Receiver<WorkerMsg>>) = (0..queue_count)
            .map(|_| match config.queue_capacity {
                Some(n) => bounded(n),
                None => unbounded(),
            })
            .unzip();
        let queues: Arc<[Sender<WorkerMsg>]> = queues.into();
        let workers = (0..worker_count)
            .map(|i| {
                let inner = inner.clone();
                let rx = receivers[i % queue_count].clone();
                let queues = queues.clone();
                let depths = routing.as_ref().map(|r| r.depths.clone());
                std::thread::Builder::new()
                    .name(format!("calc-worker-{i}"))
                    .spawn(move || {
                        run_worker(&inner, &rx, &queues, depths.as_deref().map(|d| &d[i]))
                    })
                    .expect("spawn worker")
            })
            .collect();
        Executor {
            queues,
            routing,
            workers,
        }
    }

    /// Enqueues one request: on the shared queue with the lock-set
    /// isolation, or on its owner's queue with the isolation the
    /// footprint classification chose.
    pub(crate) fn dispatch(&self, inner: &Inner, req: Request) {
        let (queue, isolation) = match &self.routing {
            None => (0, Isolation::Locked),
            Some(routing) => {
                let (owner, isolation) = routing.route(inner, req.proc, &req.params);
                routing.depths[owner].fetch_add(1, Ordering::Relaxed);
                perturb_point(Site::OwnerHandoff);
                (owner, isolation)
            }
        };
        self.queues[queue]
            .send(WorkerMsg::Req(req, isolation))
            .expect("workers alive");
    }

    pub(crate) fn mode(&self) -> ExecutorMode {
        self.routing
            .as_ref()
            .map_or(ExecutorMode::Pool, |_| ExecutorMode::ShardOwned)
    }

    pub(crate) fn router(&self) -> Option<ShardRouter> {
        self.routing.as_ref().map(|r| r.router)
    }

    /// Requests enqueued per owner and not yet popped (empty under the
    /// pool, whose one queue has no owner).
    pub(crate) fn queue_depths(&self) -> Vec<u64> {
        self.routing.as_ref().map_or_else(Vec::new, |r| {
            r.depths.iter().map(|d| d.load(Ordering::Relaxed)).collect()
        })
    }

    /// Drains every queue and joins every worker. Idempotent.
    ///
    /// Markers sit behind every request already queued, so nothing is
    /// dropped. The shared queue gets all its markers *before* any join:
    /// whichever worker pops a marker exits, so joining worker `i` right
    /// after sending one marker could wait forever on a marker another
    /// worker consumed. Owned queues are marked and joined one by one in
    /// ascending index order instead: fences only target higher indices,
    /// so by the time worker `i` sees its marker every coordinator that
    /// could still fence it (index < `i`) has exited, and every co-owner
    /// it may itself still fence (index > `i`) is alive.
    pub(crate) fn stop(&mut self) {
        let workers = std::mem::take(&mut self.workers);
        match self.routing {
            None => {
                for _ in &workers {
                    let _ = self.queues[0].send(WorkerMsg::Shutdown);
                }
                for w in workers {
                    join_bounded(w, "worker");
                }
            }
            Some(_) => {
                for (i, w) in workers.into_iter().enumerate() {
                    let _ = self.queues[i].send(WorkerMsg::Shutdown);
                    join_bounded(w, "worker");
                }
            }
        }
    }
}

/// The worker loop: pops messages off its queue (shared or owned) and
/// runs each request under the isolation it carries. `depth` is this
/// worker's queue gauge under shard ownership.
fn run_worker(
    inner: &Inner,
    rx: &Receiver<WorkerMsg>,
    queues: &[Sender<WorkerMsg>],
    depth: Option<&AtomicU64>,
) {
    while let Ok(msg) = rx.recv() {
        let (req, isolation) = match msg {
            WorkerMsg::Req(req, isolation) => (req, isolation),
            WorkerMsg::Fence(fence) => {
                perturb_point(Site::OwnerHandoff);
                fence.wait();
                fence.wait();
                continue;
            }
            WorkerMsg::Shutdown => break,
        };
        if let Some(depth) = depth {
            depth.fetch_sub(1, Ordering::Relaxed);
        }
        let reply = match isolation {
            // A request that never resolved reports its abort without
            // touching the strategy or the outcome metrics.
            Isolation::Abort(e) => (TxnOutcome::Aborted(e), None),
            Isolation::Locked => {
                // Admission: held for the entire transaction, including
                // the commit hook, so a quiesce observes no in-flight
                // commit work.
                let _admission = inner.gate.read();
                match resolve(inner, req.proc, &req.params) {
                    Err(e) => (TxnOutcome::Aborted(e), None),
                    Ok((proc, footprint)) => {
                        // Ordered 2PL: acquire the pre-declared lock set,
                        // run, release after commit processing.
                        let guard = inner.locks.acquire(&footprint.to_lock_set());
                        run_transaction(inner, &req, proc.as_ref(), Some(guard))
                    }
                }
            }
            Isolation::Single(proc) => {
                let _admission = inner.gate.read();
                perturb_point(Site::OwnerHandoff);
                run_transaction(inner, &req, proc.as_ref(), None)
            }
            Isolation::Cross(proc, co_owners) => {
                let fence = Arc::new(Barrier::new(co_owners.len() + 1));
                for &w in &co_owners {
                    queues[w]
                        .send(WorkerMsg::Fence(fence.clone()))
                        .expect("co-owner alive");
                }
                fence.wait();
                // Take the admission gate only now: every involved owner
                // is parked holding no gate access, so a pending quiesce
                // writer serializes cleanly before or after this commit
                // instead of deadlocking between coordinator and
                // co-owners.
                let result = {
                    let _admission = inner.gate.read();
                    run_transaction(inner, &req, proc.as_ref(), None)
                };
                perturb_point(Site::OwnerHandoff);
                fence.wait();
                result
            }
        };
        if let Some(tx) = &req.reply {
            let _ = tx.send(reply);
        }
    }
}
