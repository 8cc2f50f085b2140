//! The `Database` facade: transaction executor (shared pool or
//! thread-per-core shard ownership), admission gate, checkpoint
//! triggering, and background merging.
//!
//! Two executor modes share every invariant below the dispatch layer:
//!
//! * [`ExecutorMode::Pool`] — the paper's §4 design: one submission
//!   queue, any worker takes any transaction, isolation via the shared
//!   ordered-2PL lock manager.
//! * [`ExecutorMode::ShardOwned`] — thread-per-core shard ownership:
//!   each worker owns a contiguous stripe of shards
//!   ([`calc_txn::route::ShardRouter`], aligned with the checkpoint
//!   pipeline's `ShardPartition` striping and recovery's `key % shards`
//!   bucketing), transactions route to their pre-declared footprint's
//!   owner, and single-owner transactions execute **lock-free** — owner
//!   serialism replaces per-key latching. A footprint spanning several
//!   owners takes a brief multi-shard *fence*: the lowest involved owner
//!   coordinates, the others park until the commit completes. Fences
//!   only ever target higher-indexed workers, so fence-wait edges form a
//!   DAG and cannot deadlock.
//!
//! Both modes assign commit sequences and enqueue on the durable log
//! under the single `cmdlog` mutex, so channel order equals seq order
//! and deterministic replay, the conformance checker, group commit, and
//! standby replay see byte-identical commit-token streams.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use calc_common::load::LoadSignal;
use calc_common::types::{CommitSeq, Key, TxnId, Value};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::merge::{collapse, MergeStats};
use calc_core::strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoImage, UndoRec,
};
use calc_core::throttle::Throttle;
use calc_storage::dual::StoreError;
use calc_recovery::logfile::list_segments;
use calc_recovery::{
    truncate_segments_below, DurabilityTicket, GroupCommitConfig,
    GroupCommitter, SegmentedLogWriter, TruncateStats,
};
use calc_common::perturb::{point as perturb_point, Site};
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_txn::locks::LockManager;
use calc_txn::proc::{AbortReason, ProcId, ProcRegistry, TxnOps};
use calc_txn::route::{Route, ShardRouter};

use crate::config::{EngineConfig, ExecutorMode, StrategyKind};
use crate::metrics::{Health, Metric, MetricList, MetricValue, Metrics};
use crate::service::{classify, CheckpointService};

/// Result of a synchronously executed transaction.
#[derive(Clone, Debug)]
pub enum TxnOutcome {
    /// Committed at the given sequence.
    Committed(CommitSeq),
    /// Rolled back.
    Aborted(AbortReason),
}

/// Re-exported so existing engine callers keep their `SyncError` paths;
/// the type now lives with the group-commit machinery it describes.
pub use calc_recovery::SyncError;

/// Slot for the ENOSPC emergency-retention trigger. The group-commit
/// read-only observer captures it before `Inner` exists; boot fills it
/// in once the engine is constructed.
type RetentionTrigger = Arc<Mutex<Option<Box<dyn Fn() + Send + Sync>>>>;

struct Request {
    proc: ProcId,
    params: Arc<[u8]>,
    submitted: Instant,
    /// Ack-after-fsync: the worker requests a [`DurabilityTicket`] for
    /// the commit and hands it back with the outcome, so the *caller*
    /// thread (not a worker) blocks on the batch fsync.
    durable: bool,
    reply: Option<Sender<(TxnOutcome, Option<DurabilityTicket>)>>,
}

/// How a shard-owned worker must isolate a routed request, decided on the
/// submitting thread from the procedure's pre-declared lock footprint.
enum OwnedMode {
    /// The whole footprint is owned by the receiving worker: execute
    /// serially, no locks. Carries the procedure the router already
    /// resolved, so the owner does zero registry lookups — the routed
    /// fast path does strictly less per-transaction work than the pool.
    Single(Arc<dyn calc_txn::proc::Procedure>),
    /// The footprint spans the receiving worker (the coordinator, lowest
    /// involved owner) plus these higher-indexed co-owners: fence them,
    /// execute, release.
    Cross(Arc<dyn calc_txn::proc::Procedure>, Vec<usize>),
    /// Routing already failed (unknown procedure, undeclarable
    /// footprint): the worker reports the abort without running anything,
    /// so outcome accounting matches the pool executor exactly.
    Abort(AbortReason),
}

/// A message on a shard-owned worker's queue.
enum WorkerMsg {
    Req(Request, OwnedMode),
    /// Park until the sending coordinator's cross-shard commit completes.
    Fence(Arc<FenceState>),
    /// Drain-and-exit marker; [`Database::stop_threads`] sends exactly one
    /// per worker, after all requests, and joins each worker in ascending
    /// index order so no dead worker is ever a fence target.
    Shutdown,
}

/// Rendezvous for a cross-shard fence: co-owners park, the coordinator
/// waits for all of them, commits, and releases.
///
/// Deadlock freedom: fences only target workers with a *higher* index
/// than the coordinator (the coordinator is the lowest involved owner),
/// so every fence-wait edge points up the worker order and no cycle can
/// form. The coordinator takes the admission gate only *after* every
/// co-owner has parked — a parked worker holds no gate access, so a
/// pending quiesce writer (which blocks new readers under parking_lot's
/// writer preference) can serialize against the fence without wedging it.
struct FenceState {
    /// (parked co-owners, released flag).
    state: Mutex<(usize, bool)>,
    cv: Condvar,
    expected: usize,
}

impl FenceState {
    fn new(expected: usize) -> Self {
        FenceState {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
            expected,
        }
    }

    /// Co-owner side: register as parked, block until released.
    fn park(&self) {
        perturb_point(Site::OwnerHandoff);
        let mut s = self.state.lock();
        s.0 += 1;
        self.cv.notify_all();
        while !s.1 {
            self.cv.wait(&mut s);
        }
    }

    /// Coordinator side: wait until every co-owner is parked.
    fn wait_parked(&self) {
        let mut s = self.state.lock();
        while s.0 < self.expected {
            self.cv.wait(&mut s);
        }
    }

    /// Coordinator side: the commit is done, release the co-owners.
    fn release(&self) {
        perturb_point(Site::OwnerHandoff);
        let mut s = self.state.lock();
        s.1 = true;
        self.cv.notify_all();
    }
}

/// The shard-owned executor's dispatch state: one queue per worker plus
/// the router and per-worker depth gauges (shared with [`Health`]).
struct ShardExec {
    senders: Vec<Sender<WorkerMsg>>,
    router: ShardRouter,
    depths: Arc<[AtomicU64]>,
}

impl ShardExec {
    /// Classifies a request's footprint and picks its worker. Counters
    /// feed [`Health`] so routing quality is observable from day one.
    fn route(&self, inner: &Inner, proc: ProcId, params: &[u8]) -> (usize, OwnedMode) {
        let Some(p) = inner.registry.get(proc) else {
            inner.health.add(Metric::routing_fallbacks, 1);
            return (
                0,
                OwnedMode::Abort(AbortReason::BadParams(format!(
                    "unknown procedure {proc:?}"
                ))),
            );
        };
        match p.locks(params) {
            Err(e) => {
                inner.health.add(Metric::routing_fallbacks, 1);
                (0, OwnedMode::Abort(e))
            }
            Ok(request) => match self.router.classify(&request) {
                Route::Single(w) => {
                    inner.health.add(Metric::single_shard_txns, 1);
                    (w, OwnedMode::Single(p.clone()))
                }
                Route::Cross(owners) => {
                    inner.health.add(Metric::cross_shard_txns, 1);
                    let coordinator = owners[0];
                    (
                        coordinator,
                        OwnedMode::Cross(p.clone(), owners[1..].to_vec()),
                    )
                }
                // An empty footprint touches nothing (the determinism
                // contract), so serial execution anywhere is safe; pin it
                // to worker 0 and count the fallback.
                Route::Unrouted => {
                    inner.health.add(Metric::routing_fallbacks, 1);
                    (0, OwnedMode::Single(p.clone()))
                }
            },
        }
    }

    /// Routes and enqueues one request on its owner's queue.
    fn dispatch(&self, inner: &Inner, req: Request) {
        let (worker, mode) = self.route(inner, req.proc, &req.params);
        self.depths[worker].fetch_add(1, Ordering::Relaxed);
        perturb_point(Site::OwnerHandoff);
        self.senders[worker]
            .send(WorkerMsg::Req(req, mode))
            .expect("workers alive");
    }
}

/// The dispatch half of the executor, by mode. The `Option`s are taken at
/// shutdown so workers observe closed queues (pool) or drain-and-exit
/// markers (shard-owned).
enum Executor {
    Pool(Option<Sender<Request>>),
    ShardOwned(Option<ShardExec>),
}

/// How long shutdown waits for a background thread before declaring the
/// engine hung. Generous: a loaded drain of a deep queue is legitimate;
/// a thread that makes no exit progress for this long is not.
const SHUTDOWN_JOIN_TIMEOUT: Duration = Duration::from_secs(120);

/// Joins `handle`, polling with a deadline instead of blocking forever,
/// so a wedged background thread turns into a diagnosable panic rather
/// than a silent test-suite hang. During an unwind (drop while
/// panicking) it degrades to a warning so the original panic surfaces.
fn join_bounded(handle: std::thread::JoinHandle<()>, what: &str) {
    let deadline = Instant::now() + SHUTDOWN_JOIN_TIMEOUT;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            let msg = format!(
                "Database shutdown hung: {what} thread made no exit progress for \
                 {SHUTDOWN_JOIN_TIMEOUT:?} after the submission queue closed — \
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

struct Inner {
    strategy: Arc<dyn CheckpointStrategy>,
    log: Arc<CommitLog>,
    locks: LockManager,
    registry: ProcRegistry,
    /// Admission gate: every transaction holds read access for its whole
    /// lifetime (locks, logic, commit hook). `quiesced` takes write
    /// access — parking_lot's writer preference blocks new readers, so
    /// this waits out active transactions and then excludes new ones: a
    /// physical point of consistency.
    gate: RwLock<()>,
    dir: CheckpointDir,
    metrics: Arc<Metrics>,
    /// Commit-path load signal: every commit feeds its latency and the
    /// tps window here; the checkpoint capture path and a server
    /// front-end's admission gate read it back. Shared (not owned) so
    /// the server can hang its [`calc_common::Gate`] off the same signal.
    load: Arc<LoadSignal>,
    txn_counter: AtomicU64,
    checkpoint_serial: Mutex<()>,
    merge_serial: Arc<Mutex<()>>,
    /// In-flight background merger threads, joined before the database is
    /// dropped so no merge races a post-run inspection of the checkpoint
    /// directory.
    mergers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Durable command log behind a group-commit sync thread (None when
    /// command logging is off). Taken (dropped) at shutdown so the sync
    /// thread drains the queue and performs the final fsync.
    cmdlog: Mutex<Option<GroupCommitter>>,
    partials_since_merge: AtomicU64,
    merge_batch: Option<usize>,
    /// Checkpointer health, shared with the service daemon and observers.
    health: Arc<Health>,
    /// Set when a background merge failed; the next checkpoint cycle
    /// retries the merge even off the batch boundary.
    merge_retry_pending: AtomicBool,
    /// Segmented command-log directory, when segmentation is on; the
    /// retention step truncates covered segments here after each cycle.
    command_log_dir: Option<std::path::PathBuf>,
    /// Retention depth: prune published chains down to this many fulls
    /// after each successful cycle (`None` keeps everything).
    keep_checkpoints: Option<usize>,
    kind: StrategyKind,
    #[cfg(feature = "conform")]
    recorder: Option<Arc<crate::recorder::HistoryRecorder>>,
}

impl EngineEnv for Inner {
    fn quiesced(&self, f: &mut dyn FnMut() -> io::Result<()>) -> io::Result<Duration> {
        let start = Instant::now();
        let _w = self.gate.write();
        f()?;
        Ok(start.elapsed())
    }
}

impl Inner {
    /// One checkpoint cycle: run the strategy's capture, and on success
    /// trigger (or retry) the background merge. Health accounting lives
    /// in the callers ([`Database::checkpoint_now`] and the service
    /// daemon) so a cycle is recorded exactly once.
    fn checkpoint_cycle_raw(self: &Arc<Self>) -> io::Result<CheckpointStats> {
        let _serial = self.checkpoint_serial.lock();
        let stats = self.strategy.checkpoint(self.as_ref(), &self.dir)?;
        self.health.set(Metric::last_checkpoint_parts, stats.parts as u64);
        self.health.set(Metric::last_checkpoint_bytes, stats.bytes);
        self.health.set(Metric::last_checkpoint_raw_bytes, stats.raw_bytes);
        self.run_retention();
        if self.strategy.partial() {
            let n = self.partials_since_merge.fetch_add(1, Ordering::AcqRel) + 1;
            // A previously failed merge is retried at the next trigger —
            // the swap clears the flag; the merger re-sets it if it fails
            // again.
            let retry = self.merge_retry_pending.swap(false, Ordering::AcqRel);
            if let Some(batch) = self.merge_batch {
                if n.is_multiple_of(batch as u64) || retry {
                    // §2.3.1: "a low-priority thread to take advantage of
                    // moments of sub-peak load".
                    let inner = self.clone();
                    let handle = std::thread::Builder::new()
                        .name("calc-merger".into())
                        .spawn(move || {
                            let _g = inner.merge_serial.lock();
                            if let Err(e) = collapse(&inner.dir) {
                                // A failed collapse leaves the existing
                                // chain fully intact — recovery is just
                                // longer. Surface it and queue a retry
                                // instead of swallowing the error.
                                inner.health.record_merge_failure(&e);
                                inner.merge_retry_pending.store(true, Ordering::Release);
                            }
                        })
                        .expect("spawn merger");
                    self.mergers.lock().push(handle);
                }
            }
        }
        Ok(stats)
    }

    /// Post-cycle retention: prune superseded checkpoint chains down to
    /// `keep_checkpoints` fulls, then truncate command-log segments (and
    /// the in-memory log) below the *oldest surviving full's* watermark.
    ///
    /// That floor — not the just-published cycle's watermark — is what
    /// makes truncation safe against corruption discovered later: if the
    /// newest cycle turns out torn at recovery and is quarantined,
    /// recovery falls back to an older chain, and every chain still on
    /// disk roots at a full whose watermark is at or above the floor, so
    /// the replay window it needs is fully covered by surviving segments.
    ///
    /// Runs only after the cycle durably published; a retention failure
    /// is therefore recorded in [`Health`] but never fails the cycle —
    /// disk just stays larger until the next pass succeeds.
    fn run_retention(&self) {
        if self.keep_checkpoints.is_none() && self.command_log_dir.is_none() {
            return;
        }
        let result: io::Result<(u64, TruncateStats)> = (|| {
            let pruned = match self.keep_checkpoints {
                Some(k) => self.dir.prune_chains(k)? as u64,
                None => 0,
            };
            let mut truncated = TruncateStats::default();
            let floor = self
                .dir
                .scan()?
                .iter()
                .filter(|m| m.kind == CheckpointKind::Full)
                .map(|m| m.watermark)
                .min();
            if let Some(floor) = floor {
                if let Some(log_dir) = &self.command_log_dir {
                    truncated =
                        truncate_segments_below(self.dir.vfs().as_ref(), log_dir, floor)?;
                }
                // The in-memory log mirrors the durable floor: entries a
                // surviving checkpoint covers are never replayed again.
                self.log.truncate_through(floor);
            }
            Ok((pruned, truncated))
        })();
        match result {
            Ok((pruned, t)) => {
                self.health.add(Metric::checkpoints_pruned, pruned);
                self.health.add(Metric::log_segments_truncated, t.removed);
                self.health.add(Metric::log_bytes_truncated, t.bytes);
            }
            Err(_) => self.health.add(Metric::retention_failures, 1),
        }
    }
}

/// An embeddable, checkpointable, main-memory transactional key-value
/// store — the paper's evaluation system, with the checkpointing strategy
/// chosen by [`EngineConfig::strategy`].
pub struct Database {
    inner: Arc<Inner>,
    executor: Executor,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The supervised checkpoint daemon, when
    /// [`EngineConfig::checkpoint_interval`] is set.
    service: Option<CheckpointService>,
}

impl Database {
    /// Opens a database: builds the strategy, spawns the worker pool.
    /// Populate with [`Database::load_initial`] then call
    /// [`Database::finalize_load`] before submitting transactions.
    pub fn open(config: EngineConfig, registry: ProcRegistry) -> io::Result<Self> {
        let log = Arc::new(CommitLog::new(config.retain_command_log));
        let strategy = config.strategy.build(config.store.clone(), log.clone());
        Self::boot(config, registry, strategy, log, false)
    }

    /// Opens a serving database around an *already populated* strategy —
    /// the promotion path of a warm standby. The caller (normally
    /// `calc_replica::Promoted::into_database`) has already loaded the
    /// checkpoint chain, applied the log tail, and resumed the commit-seq
    /// and checkpoint-id spaces on `strategy` and `log`; this spawns the
    /// worker pool and, when [`EngineConfig::command_log_dir`] is set,
    /// seals the applied prefix by opening a fresh log segment above the
    /// highest survivor (rotation invariant: a restarted writer never
    /// appends into an existing segment).
    pub fn resume(
        config: EngineConfig,
        registry: ProcRegistry,
        strategy: Arc<dyn CheckpointStrategy>,
        log: Arc<CommitLog>,
    ) -> io::Result<Self> {
        Self::boot(config, registry, strategy, log, true)
    }

    fn boot(
        config: EngineConfig,
        registry: ProcRegistry,
        strategy: Arc<dyn CheckpointStrategy>,
        log: Arc<CommitLog>,
        resumed: bool,
    ) -> io::Result<Self> {
        let throttle = if config.disk_bytes_per_sec == 0 {
            Throttle::unlimited()
        } else {
            Throttle::new(config.disk_bytes_per_sec)
        };
        let dir =
            CheckpointDir::open_with_vfs(&config.checkpoint_dir, Arc::new(throttle), config.vfs.clone())?;
        dir.set_checkpoint_threads(config.checkpoint_threads);
        dir.set_codec(config.codec);
        if resumed {
            // The caller loaded the chain through its own handle; a restart
            // gets the parent link from `recover`'s validating scan instead.
            dir.adopt_published_manifests()?;
        }
        // The commit path feeds this signal; capture workers (pool sizing
        // + per-record pacing) and the server's admission gate read it.
        let load = Arc::new(LoadSignal::new());
        load.set_capacity_tps(config.load_capacity_tps);
        if config.adaptive_pacing {
            dir.set_load_signal(load.clone());
        }
        // Durable command logging: a dedicated sync thread group-commits
        // concurrent appends (append many, fsync once per batch) — the paper's §1 "logging of transactional input is
        // generally far lighter weight than full ARIES logging".
        let segment_bytes = config.log_segment_bytes.unwrap_or(64 << 20);
        let backend = match &config.command_log_dir {
            Some(dir) => Some(SegmentedLogWriter::create(config.vfs.clone(), dir, segment_bytes)?),
            None => None,
        };
        // Health is created before the committer so every fsynced batch
        // feeds the batch-size and flush-latency counters.
        let health = Arc::new(Health::new(
            config.checkpoint_tuning.degraded_after,
            config.checkpoint_tuning.watchdog,
        ));
        // The read-only observer fires from the sync thread before `Inner`
        // exists, so the emergency-retention trigger goes through a slot
        // filled in after construction.
        let retention_trigger: RetentionTrigger = Arc::new(Mutex::new(None));
        let cmdlog = backend.map(|b| {
            let observer_health = health.clone();
            let ro_health = health.clone();
            let ro_trigger = retention_trigger.clone();
            GroupCommitter::start_with(
                Box::new(b),
                GroupCommitConfig {
                    window: config.group_commit_window,
                    max_batch: config.group_commit_max_batch.max(1),
                    ..GroupCommitConfig::default()
                },
                Some(Box::new(move |records, dwell, fsync| {
                    observer_health.record_commit_batch(records as u64, dwell, fsync);
                })),
                Some(Box::new(move |entering| {
                    ro_health.set_log_read_only(entering);
                    if entering {
                        if let Some(trigger) = ro_trigger.lock().as_ref() {
                            trigger();
                        }
                    }
                })),
            )
        });
        let inner = Arc::new(Inner {
            strategy,
            log,
            locks: LockManager::new(1024),
            registry,
            gate: RwLock::new(()),
            dir,
            metrics: Arc::new(Metrics::new()),
            load,
            txn_counter: AtomicU64::new(1),
            checkpoint_serial: Mutex::new(()),
            merge_serial: Arc::new(Mutex::new(())),
            mergers: Mutex::new(Vec::new()),
            cmdlog: Mutex::new(cmdlog),
            partials_since_merge: AtomicU64::new(0),
            merge_batch: config.merge_batch,
            health,
            merge_retry_pending: AtomicBool::new(false),
            command_log_dir: config.command_log_dir.clone(),
            keep_checkpoints: config.keep_checkpoints,
            kind: config.strategy,
            #[cfg(feature = "conform")]
            recorder: config.recorder.clone(),
        });

        // Arm the emergency-retention trigger: ENOSPC on the command log
        // kicks a detached retention pass (prune superseded chains,
        // truncate covered segments) to free space inside the committer's
        // heal window. Holds only a Weak ref so shutdown is never pinned.
        {
            let weak = Arc::downgrade(&inner);
            *retention_trigger.lock() = Some(Box::new(move || {
                if let Some(inner) = weak.upgrade() {
                    let _ = std::thread::Builder::new()
                        .name("calc-emergency-retention".into())
                        .spawn(move || {
                            // Serialize against checkpoint-cycle retention.
                            let _serial = inner.checkpoint_serial.lock();
                            inner.health.add(Metric::emergency_retention_passes, 1);
                            inner.run_retention();
                        });
                }
            }));
        }

        let service = config.checkpoint_interval.map(|interval| {
            let cycle_inner = inner.clone();
            CheckpointService::start(
                interval,
                config.checkpoint_tuning.clone(),
                inner.health.clone(),
                move || cycle_inner.checkpoint_cycle_raw().map(|_| ()),
            )
        });

        let worker_count = config.workers.max(1);
        let (executor, workers) = match config.executor_mode {
            ExecutorMode::Pool => {
                let (tx, rx) = match config.queue_capacity {
                    Some(n) => bounded::<Request>(n),
                    None => unbounded::<Request>(),
                };
                let workers = (0..worker_count)
                    .map(|i| {
                        let inner = inner.clone();
                        let rx: Receiver<Request> = rx.clone();
                        std::thread::Builder::new()
                            .name(format!("calc-worker-{i}"))
                            .spawn(move || worker_loop(&inner, &rx))
                            .expect("spawn worker")
                    })
                    .collect();
                (Executor::Pool(Some(tx)), workers)
            }
            ExecutorMode::ShardOwned => {
                let router = ShardRouter::new(worker_count, config.shards_per_worker);
                let depths: Arc<[AtomicU64]> = (0..worker_count)
                    .map(|_| AtomicU64::new(0))
                    .collect::<Vec<_>>()
                    .into();
                let mut senders = Vec::with_capacity(worker_count);
                let mut receivers = Vec::with_capacity(worker_count);
                for _ in 0..worker_count {
                    let (tx, rx) = match config.queue_capacity {
                        Some(n) => bounded::<WorkerMsg>(n),
                        None => unbounded::<WorkerMsg>(),
                    };
                    senders.push(tx);
                    receivers.push(rx);
                }
                let workers = receivers
                    .into_iter()
                    .enumerate()
                    .map(|(i, rx)| {
                        let inner = inner.clone();
                        let senders = senders.clone();
                        let depths = depths.clone();
                        std::thread::Builder::new()
                            .name(format!("calc-owner-{i}"))
                            .spawn(move || {
                                owned_worker_loop(&inner, &rx, &senders, &depths[i])
                            })
                            .expect("spawn worker")
                    })
                    .collect();
                (
                    Executor::ShardOwned(Some(ShardExec {
                        senders,
                        router,
                        depths,
                    })),
                    workers,
                )
            }
        };

        Ok(Database {
            inner,
            executor,
            workers,
            service,
        })
    }

    /// Bulk-loads a record (before any transactions run).
    pub fn load_initial(&self, key: Key, value: &[u8]) -> Result<(), StoreError> {
        #[cfg(feature = "conform")]
        if let Some(rec) = self.inner.recorder.as_ref() {
            rec.record_initial(key, value);
        }
        self.inner.strategy.load_initial(key, value)
    }

    /// Finishes initial load: writes the base full checkpoint when the
    /// configuration asks for one.
    pub fn finalize_load(&self, base_checkpoint: bool) -> io::Result<Option<CheckpointStats>> {
        if base_checkpoint {
            Ok(Some(self.inner.strategy.write_base_checkpoint(&self.inner.dir)?))
        } else {
            Ok(None)
        }
    }

    /// Routes one request to the executor: the shared queue (pool) or the
    /// owner's queue chosen by footprint classification (shard-owned).
    fn dispatch(&self, req: Request) {
        match &self.executor {
            Executor::Pool(tx) => tx
                .as_ref()
                .expect("database not shut down")
                .send(req)
                .expect("workers alive"),
            Executor::ShardOwned(ex) => ex
                .as_ref()
                .expect("database not shut down")
                .dispatch(&self.inner, req),
        }
    }

    /// Submits a transaction fire-and-forget. Blocks when the bounded
    /// queue is full (closed-loop backpressure).
    pub fn submit(&self, proc: ProcId, params: Arc<[u8]>) {
        self.dispatch(Request {
            proc,
            params,
            submitted: Instant::now(),
            durable: false,
            reply: None,
        });
    }

    /// Executes a transaction synchronously, returning its outcome. The
    /// acknowledgement is ack-before-fsync (the paper's low-latency
    /// choice): the commit is in memory and enqueued on the durable log,
    /// but its batch fsync may still be in flight — a crash can lose it,
    /// bounded by [`EngineConfig::group_commit_window`]. Use
    /// [`Database::execute_durable`] for ack-after-fsync.
    pub fn execute(&self, proc: ProcId, params: Arc<[u8]>) -> TxnOutcome {
        let (tx, rx) = bounded(1);
        self.dispatch(Request {
            proc,
            params,
            submitted: Instant::now(),
            durable: false,
            reply: Some(tx),
        });
        rx.recv().expect("worker replies").0
    }

    /// Executes a transaction and, if it commits, waits until its
    /// group-commit batch has been fsynced before returning — an
    /// acknowledged commit survives any later crash (ack-after-fsync,
    /// the promise a network server must make).
    ///
    /// The fsync wait happens on *this* thread via a [`DurabilityTicket`],
    /// never on a worker: under group commit many callers park here
    /// concurrently while one batch fsync retires all of them. Without a
    /// configured command log the outcome is returned immediately.
    ///
    /// `Err` means the transaction committed in memory but its durability
    /// could not be confirmed (sync thread dead or wedged) — degraded
    /// durability, not a rollback.
    pub fn execute_durable(
        &self,
        proc: ProcId,
        params: Arc<[u8]>,
    ) -> Result<TxnOutcome, SyncError> {
        let (tx, rx) = bounded(1);
        self.dispatch(Request {
            proc,
            params,
            submitted: Instant::now(),
            durable: true,
            reply: Some(tx),
        });
        let (outcome, ticket) = rx.recv().expect("worker replies");
        match (&outcome, ticket) {
            (TxnOutcome::Committed(_), Some(ticket)) => {
                ticket.wait(SHUTDOWN_JOIN_TIMEOUT)?;
                Ok(outcome)
            }
            // Aborts carry no durability obligation; no command log means
            // nothing to wait for.
            _ => Ok(outcome),
        }
    }

    /// Direct (non-transactional) point read.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.inner.strategy.get(key)
    }

    /// Live record count.
    pub fn record_count(&self) -> usize {
        self.inner.strategy.record_count()
    }

    /// Runs one checkpoint cycle now (blocking until capture completes).
    /// With `merge_batch` configured, every Nth partial checkpoint also
    /// kicks off a background collapse. The outcome is recorded in
    /// [`Database::health`] exactly like a daemon-driven cycle, so manual
    /// successes also heal degraded mode.
    pub fn checkpoint_now(&self) -> io::Result<CheckpointStats> {
        self.inner.health.cycle_started();
        match self.inner.checkpoint_cycle_raw() {
            Ok(stats) => {
                self.inner.health.cycle_succeeded();
                Ok(stats)
            }
            Err(e) => {
                self.inner.health.cycle_failed(classify(&e), &e);
                Err(e)
            }
        }
    }

    /// Synchronously collapses partial checkpoints (blocks until done).
    pub fn collapse_partials(&self) -> io::Result<Option<MergeStats>> {
        let _g = self.inner.merge_serial.lock();
        collapse(&self.inner.dir)
    }

    /// Engine metrics.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Checkpointer health: degraded mode, failure streaks, last error,
    /// time since the last published checkpoint, merge failures, and the
    /// stalled-cycle watchdog.
    pub fn health(&self) -> &Arc<Health> {
        &self.inner.health
    }

    /// Every number the engine exposes, as ordered `(name, value)` pairs:
    /// the commit counters, the store and executor, the load signal, then
    /// [`Health::values`] and one `worker_queue_depth_<i>` per owned
    /// worker. The `HEALTH` and `STATS` verbs print exactly
    /// this list, so a value cannot exist on one surface and not another.
    pub fn metric_values(&self) -> MetricList {
        use MetricValue::{Int, Text};
        let (m, load) = (&self.inner.metrics, &self.inner.load);
        let mut out: MetricList = vec![
            ("committed".into(), Int(m.committed())),
            ("aborted".into(), Int(m.aborted())),
            ("records".into(), Int(self.record_count() as u64)),
            ("executor_mode".into(), Text(self.executor_mode().name())),
            ("load_level".into(), Text(load.level().as_str())),
            ("inflight".into(), Int(load.inflight())),
            ("shed_requests".into(), Int(load.shed_requests())),
            ("shed_connections".into(), Int(load.shed_connections())),
            ("capture_yields".into(), Int(load.capture_yields())),
            ("quarantined_files".into(), Int(self.inner.dir.quarantined_count())),
        ];
        out.extend(self.inner.health.values());
        for (i, d) in self.worker_queue_depths().into_iter().enumerate() {
            out.push((format!("worker_queue_depth_{i}").into(), Int(d)));
        }
        out
    }

    /// Current submission-queue depth per owned worker (empty under the
    /// pool executor, which shares one queue).
    pub fn worker_queue_depths(&self) -> Vec<u64> {
        match &self.executor {
            Executor::ShardOwned(Some(ex)) => {
                ex.depths.iter().map(|d| d.load(Ordering::Relaxed)).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The engine's commit-path load signal. Every commit feeds it; the
    /// checkpoint capture path paces against it, and a server front-end
    /// hangs its admission gate off it so shed/inflight counters and
    /// [`calc_common::LoadLevel`] grading share one source of truth.
    pub fn load(&self) -> &Arc<LoadSignal> {
        &self.inner.load
    }

    /// Whether the command log is in read-only degraded mode: it hit
    /// ENOSPC and the group committer is retrying inside its heal window
    /// while an emergency retention pass tries to free space. Callers
    /// should reject writes (reads stay fine) until this clears.
    pub fn log_read_only(&self) -> bool {
        // Mirrored into `Health` by the committer's read-only observer:
        // no trip through the commit path's `cmdlog` mutex.
        self.inner.health.get(Metric::log_read_only) != 0
    }

    /// The active checkpointing strategy.
    pub fn strategy(&self) -> &Arc<dyn CheckpointStrategy> {
        &self.inner.strategy
    }

    /// The commit/command log.
    pub fn commit_log(&self) -> &Arc<CommitLog> {
        &self.inner.log
    }

    /// The checkpoint directory.
    pub fn checkpoint_dir(&self) -> &CheckpointDir {
        &self.inner.dir
    }

    /// The configured strategy kind.
    pub fn strategy_kind(&self) -> StrategyKind {
        self.inner.kind
    }

    /// The active executor mode.
    pub fn executor_mode(&self) -> ExecutorMode {
        match &self.executor {
            Executor::Pool(_) => ExecutorMode::Pool,
            Executor::ShardOwned(_) => ExecutorMode::ShardOwned,
        }
    }

    /// The shard-owned executor's router (`None` under the legacy pool).
    pub fn shard_router(&self) -> Option<ShardRouter> {
        match &self.executor {
            Executor::Pool(_) => None,
            Executor::ShardOwned(ex) => ex.as_ref().map(|e| e.router),
        }
    }

    /// Recovers this (freshly opened, unused) database from its checkpoint
    /// directory plus a command log: loads the newest recovery chain,
    /// deterministically replays `commands` past the watermark, then
    /// resumes the commit-sequence and checkpoint-id spaces so nothing
    /// post-recovery collides with pre-crash artifacts. The procedures in
    /// the registry must match the pre-crash ones (determinism contract).
    pub fn recover(
        &self,
        commands: &[CommitRecord],
    ) -> Result<calc_recovery::RecoveryOutcome, calc_recovery::RecoveryError> {
        // Resume the id/seq spaces BEFORE replaying: replay stamps each
        // commit with the strategy's current phase stamp, and partial
        // strategies dirty-mark that stamp's checkpoint interval. The next
        // partial checkpoint (id max_id+1) advances its watermark past the
        // replayed commits, so their marks must land in ITS interval — if
        // the log still read cycle 0 here, the replayed writes would be
        // invisible to it and lost on the next crash.
        //
        // Claims, not a deep scan: seal above every cycle with a durable
        // trace, valid or not (the standby-promotion rule); `recover` below
        // stays the one CRC pass.
        let claims = self.inner.dir.claims()?;
        let max_id = claims.iter().map(|c| c.id).max().unwrap_or(0);
        let chain_watermark = claims
            .iter()
            .map(|c| c.watermark)
            .max()
            .unwrap_or(CommitSeq::ZERO);
        let max_seq = commands
            .iter()
            .map(|c| c.seq)
            .max()
            .unwrap_or(chain_watermark)
            .max(chain_watermark);
        self.inner.log.advance_to(max_seq, max_id + 1);
        self.inner.strategy.resume_checkpoint_ids(max_id + 1);
        let outcome = calc_recovery::recover(
            &self.inner.dir,
            self.inner.strategy.as_ref(),
            &self.inner.registry,
            commands,
        )?;
        // A log-only recovery is the whole history only if the log still
        // has its beginning. The writer starts at segment 0, retention
        // removes lowest-first and a restarted writer opens above the
        // highest survivor, so a lowest index above 0 means truncation
        // ran — which it only does below a durable full checkpoint that
        // this recovery failed to load.
        if outcome.checkpoint_files == 0 {
            if let Some(log_dir) = &self.inner.command_log_dir {
                let segments = list_segments(self.inner.dir.vfs().as_ref(), log_dir)?;
                if let Some(&(lowest_segment, _)) = segments.first().filter(|s| s.0 != 0) {
                    return Err(calc_recovery::RecoveryError::LogTruncated {
                        lowest_segment,
                        quarantined: self.inner.dir.quarantined_count(),
                    });
                }
            }
        }
        Ok(outcome)
    }

    /// Waits for any in-flight background merges to finish. Call before
    /// inspecting the checkpoint directory externally.
    pub fn join_mergers(&self) {
        for h in self.inner.mergers.lock().drain(..) {
            let _ = h.join();
        }
    }

    /// Waits for the submission queue to drain and workers to go idle,
    /// then stops them. Consumes the database.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        // Stop the checkpoint daemon first so no new cycle starts while
        // the worker pool drains.
        if let Some(svc) = self.service.take() {
            svc.stop();
        }
        match &mut self.executor {
            Executor::Pool(tx) => {
                drop(tx.take());
                for w in self.workers.drain(..) {
                    join_bounded(w, "worker");
                }
            }
            Executor::ShardOwned(ex) => {
                if let Some(ex) = ex.take() {
                    // Shut down in ascending index order, joining each
                    // worker before signalling the next: fences only
                    // target higher indices, so by the time worker i sees
                    // its Shutdown marker every coordinator that could
                    // still fence it (index < i) has already exited, and
                    // every co-owner worker i itself may still need to
                    // fence (index > i) is still alive.
                    for (i, w) in self.workers.drain(..).enumerate() {
                        let _ = ex.senders[i].send(WorkerMsg::Shutdown);
                        join_bounded(w, "worker");
                    }
                }
            }
        }
        for h in self.inner.mergers.lock().drain(..) {
            join_bounded(h, "merger");
        }
        // Drop the group committer last: its Drop closes the channel, the
        // sync thread drains the remaining queue and performs the final
        // batch fsync, so the on-disk log is complete when drop returns.
        drop(self.inner.cmdlog.lock().take());
    }

    /// Forces an fsync of the durable command log: sends a flush request
    /// to the logger thread and waits for its acknowledgement, so every
    /// record enqueued before this call is durable on return. No-op
    /// without command logging.
    ///
    /// A logger that exited on an earlier append I/O error, died
    /// mid-flush, or is wedged past the timeout is reported as a typed
    /// [`SyncError`] — durability is degraded, but the in-memory engine
    /// is intact, so the caller (not this method) decides whether that
    /// is fatal.
    pub fn sync_command_log(&self) -> Result<(), SyncError> {
        // Enqueue the flush under the lock (ordered against in-flight
        // commit enqueues), wait on the ticket outside it.
        let ticket = {
            let guard = self.inner.cmdlog.lock();
            match guard.as_ref() {
                Some(gc) => gc.flush(),
                None => return Ok(()),
            }
        };
        ticket.wait(SHUTDOWN_JOIN_TIMEOUT)
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Database({}, records={}, committed={})",
            self.inner.strategy.name(),
            self.record_count(),
            self.inner.metrics.committed()
        )
    }
}

fn worker_loop(inner: &Inner, rx: &Receiver<Request>) {
    while let Ok(req) = rx.recv() {
        // Admission: held for the entire transaction, including the commit
        // hook, so a quiesce observes no in-flight commit work.
        let _admission = inner.gate.read();
        let (outcome, ticket) = execute_one(inner, &req);
        if let Some(reply) = &req.reply {
            let _ = reply.send((outcome, ticket));
        }
    }
}

/// A shard-owned worker: pops routed requests off its own queue and runs
/// them serially over the shards it owns. Single-owner requests execute
/// lock-free; cross-shard requests fence the involved co-owners; `Fence`
/// messages park this worker for a lower-indexed coordinator's commit.
fn owned_worker_loop(
    inner: &Inner,
    rx: &Receiver<WorkerMsg>,
    senders: &[Sender<WorkerMsg>],
    depth: &AtomicU64,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Req(req, mode) => {
                depth.fetch_sub(1, Ordering::Relaxed);
                let (outcome, ticket) = match mode {
                    // Match the pool executor's accounting: routing-time
                    // failures produce the abort outcome without touching
                    // the strategy or metrics.
                    OwnedMode::Abort(e) => (TxnOutcome::Aborted(e), None),
                    OwnedMode::Single(proc) => {
                        // Admission: held for the whole transaction, as in
                        // the pool loop, so a quiesce observes no
                        // in-flight commit work.
                        let _admission = inner.gate.read();
                        perturb_point(Site::OwnerHandoff);
                        run_transaction(inner, &req, proc.as_ref(), None)
                    }
                    OwnedMode::Cross(proc, co_owners) => {
                        let fence = Arc::new(FenceState::new(co_owners.len()));
                        for &w in &co_owners {
                            senders[w]
                                .send(WorkerMsg::Fence(fence.clone()))
                                .expect("co-owner alive");
                        }
                        fence.wait_parked();
                        // Take the admission gate only now: every involved
                        // owner is parked holding no gate access, so a
                        // pending quiesce writer serializes cleanly before
                        // or after this commit instead of deadlocking
                        // between coordinator and co-owners.
                        let result = {
                            let _admission = inner.gate.read();
                            run_transaction(inner, &req, proc.as_ref(), None)
                        };
                        fence.release();
                        result
                    }
                };
                if let Some(reply) = &req.reply {
                    let _ = reply.send((outcome, ticket));
                }
            }
            WorkerMsg::Fence(fence) => fence.park(),
            WorkerMsg::Shutdown => break,
        }
    }
}

/// Runs one transaction under ordered 2PL (the pool executor's isolation
/// model): acquire the pre-declared lock set, run, release after commit
/// processing. (The shard-owned executor needs no counterpart: its router
/// resolves the procedure and proves exclusivity up front, so workers
/// call [`run_transaction`] directly with no lock guard.)
fn execute_one(inner: &Inner, req: &Request) -> (TxnOutcome, Option<DurabilityTicket>) {
    let Some(proc) = inner.registry.get(req.proc) else {
        return (
            TxnOutcome::Aborted(AbortReason::BadParams(format!(
                "unknown procedure {:?}",
                req.proc
            ))),
            None,
        );
    };
    let lock_request = match proc.locks(&req.params) {
        Ok(r) => r,
        Err(e) => return (TxnOutcome::Aborted(e), None),
    };
    let lockset = lock_request.to_lock_set();
    let guard = inner.locks.acquire(&lockset);
    run_transaction(inner, req, proc.as_ref(), Some(guard))
}

/// The shared transaction body: strategy hooks, commit-token append, and
/// metrics — identical for both executors, so the commit-token stream
/// (and everything downstream of it: deterministic replay, conformance,
/// group commit, standby tailing) is byte-compatible across modes. For a
/// durable request that commits, the second element is the commit's
/// [`DurabilityTicket`] — the worker never waits on it (a worker parked
/// on an fsync would stall the whole pool behind one batch); the
/// submitting thread does.
fn run_transaction(
    inner: &Inner,
    req: &Request,
    proc: &dyn calc_txn::proc::Procedure,
    guard: Option<calc_txn::locks::LockSetGuard<'_>>,
) -> (TxnOutcome, Option<DurabilityTicket>) {
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
            // Sequence assignment and the durable-log enqueue must be one
            // atomic step: otherwise two workers can hand the sync thread
            // records out of seq order, and deterministic replay (which
            // consumes the log front to back) would reorder commits. The
            // enqueue never blocks on the disk, so holding the lock across
            // it costs a channel send, not an fsync.
            let (seq, stamp, ticket) = {
                let cmdlog = inner.cmdlog.lock();
                let (seq, stamp) = inner
                    .log
                    .append_commit(txn_id, req.proc, req.params.clone());
                let ticket = cmdlog.as_ref().map(|gc| {
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
                (seq, stamp, ticket.flatten())
            };
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

#[cfg(test)]
mod tests {
    use super::*;
    use calc_txn::proc::{params, LockRequest, Procedure};

    /// Adds `delta` to a u64 counter record; aborts if the result would
    /// exceed `limit`.
    struct AddProc;
    impl Procedure for AddProc {
        fn id(&self) -> ProcId {
            ProcId(1)
        }
        fn name(&self) -> &'static str {
            "add"
        }
        fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
            let mut r = params::Reader::new(p);
            Ok(LockRequest {
                reads: vec![],
                writes: vec![Key(r.u64()?)],
            })
        }
        fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
            let mut r = params::Reader::new(p);
            let key = Key(r.u64()?);
            let delta = r.u64()?;
            let limit = r.u64()?;
            let current = ops
                .get(key)
                .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0);
            let next = current + delta;
            // First write, THEN abort-check: exercises rollback.
            if ops.get(key).is_some() {
                ops.put(key, &next.to_le_bytes());
            } else {
                ops.insert(key, &next.to_le_bytes());
            }
            if next > limit {
                return Err(AbortReason::Logic(format!("{next} > {limit}")));
            }
            Ok(())
        }
    }

    /// Moves `delta` from one counter to another — a two-key footprint
    /// that spans owners whenever the keys hash to different workers, so
    /// it exercises the cross-shard fence path under `shard_owned`.
    struct TransferProc;
    impl Procedure for TransferProc {
        fn id(&self) -> ProcId {
            ProcId(2)
        }
        fn name(&self) -> &'static str {
            "transfer"
        }
        fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
            let mut r = params::Reader::new(p);
            Ok(LockRequest {
                reads: vec![],
                writes: vec![Key(r.u64()?), Key(r.u64()?)],
            })
        }
        fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
            let mut r = params::Reader::new(p);
            let from = Key(r.u64()?);
            let to = Key(r.u64()?);
            let delta = r.u64()?;
            let read = |ops: &mut dyn TxnOps, k: Key| {
                ops.get(k)
                    .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                    .unwrap_or(0)
            };
            let src = read(ops, from);
            if src < delta {
                return Err(AbortReason::Logic(format!("insufficient: {src} < {delta}")));
            }
            let dst = read(ops, to);
            ops.put(from, &(src - delta).to_le_bytes());
            ops.put(to, &(dst + delta).to_le_bytes());
            Ok(())
        }
    }

    fn db_with_mode(kind: StrategyKind, name: &str, mode: ExecutorMode) -> Database {
        let dir = std::env::temp_dir().join(format!(
            "calc-engine-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(AddProc));
        registry.register(Arc::new(TransferProc));
        let mut config = EngineConfig::new(kind, 1024, 16, dir);
        config.workers = 4;
        config.retain_command_log = true;
        config.executor_mode = mode;
        Database::open(config, registry).unwrap()
    }

    /// Default-mode database: inherits `EXEC_MODE` via `EngineConfig::new`,
    /// so the whole module reruns under either executor from the
    /// environment (scripts/verify.sh does exactly that).
    fn db(kind: StrategyKind, name: &str) -> Database {
        db_with_mode(kind, name, ExecutorMode::from_env())
    }

    fn add_params(key: u64, delta: u64, limit: u64) -> Arc<[u8]> {
        params::Writer::new().u64(key).u64(delta).u64(limit).finish()
    }

    #[test]
    fn execute_commits_and_reads_back() {
        let db = db(StrategyKind::Calc, "exec");
        let out = db.execute(ProcId(1), add_params(7, 5, 100));
        assert!(matches!(out, TxnOutcome::Committed(_)));
        assert_eq!(db.get(Key(7)).unwrap(), 5u64.to_le_bytes().into());
        let out = db.execute(ProcId(1), add_params(7, 10, 100));
        assert!(matches!(out, TxnOutcome::Committed(_)));
        assert_eq!(db.get(Key(7)).unwrap(), 15u64.to_le_bytes().into());
        assert_eq!(db.metrics().committed(), 2);
    }

    #[test]
    fn aborted_transaction_rolls_back() {
        let db = db(StrategyKind::Calc, "abort");
        db.execute(ProcId(1), add_params(1, 50, 100));
        // 50 + 60 = 110 > 100 → abort; value must stay 50.
        let out = db.execute(ProcId(1), add_params(1, 60, 100));
        assert!(matches!(out, TxnOutcome::Aborted(AbortReason::Logic(_))));
        assert_eq!(db.get(Key(1)).unwrap(), 50u64.to_le_bytes().into());
        assert_eq!(db.metrics().aborted(), 1);
        // Aborted insert leaves no record.
        let out = db.execute(ProcId(1), add_params(2, 999, 100));
        assert!(matches!(out, TxnOutcome::Aborted(_)));
        assert!(db.get(Key(2)).is_none());
    }

    #[test]
    fn unknown_procedure_aborts() {
        let db = db(StrategyKind::Calc, "unknown");
        let out = db.execute(ProcId(99), add_params(1, 1, 10));
        assert!(matches!(out, TxnOutcome::Aborted(AbortReason::BadParams(_))));
    }

    #[test]
    fn concurrent_submissions_all_commit() {
        let db = db(StrategyKind::Calc, "concurrent");
        for i in 0..1000u64 {
            db.submit(ProcId(1), add_params(i % 10, 1, u64::MAX));
        }
        for k in 0..10u64 {
            db.execute(ProcId(1), add_params(k, 0, u64::MAX));
        }
        // Drain barrier: shutdown joins the worker pool, so every
        // submitted transaction has completed and been counted. (A
        // synchronous same-key marker is NOT enough — a worker can pop an
        // earlier request and stall before acquiring its lock while the
        // marker overtakes it.)
        let metrics = db.metrics().clone();
        let strategy = db.strategy().clone();
        db.shutdown();
        assert_eq!(metrics.committed(), 1010);
        let total: u64 = (0..10u64)
            .map(|k| {
                u64::from_le_bytes(strategy.get(Key(k)).unwrap()[..8].try_into().unwrap())
            })
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn checkpoint_under_load_every_strategy() {
        for kind in StrategyKind::ALL_CHECKPOINTING {
            let db = Arc::new(db(kind, &format!("underload-{}", kind.name())));
            for k in 0..100u64 {
                db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
            }
            db.finalize_load(kind.is_partial()).unwrap();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let feeder = {
                let db = db.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        db.submit(ProcId(1), add_params(i % 100, 1, u64::MAX));
                        i += 1;
                    }
                })
            };
            std::thread::sleep(Duration::from_millis(20));
            let stats = db.checkpoint_now().unwrap_or_else(|e| {
                panic!("checkpoint failed for {}: {e}", kind.name())
            });
            assert!(stats.records > 0 || kind.is_partial());
            stop.store(true, Ordering::Relaxed);
            feeder.join().unwrap();
            // Checkpoint file exists and validates.
            let metas = db.checkpoint_dir().scan().unwrap();
            assert!(!metas.is_empty(), "{}: no checkpoint published", kind.name());
        }
    }

    #[test]
    fn shutdown_under_load_drains_and_completes() {
        // Shutdown with a deep backlog must drain every submitted
        // transaction and return promptly — regression test for the
        // bounded join: a wedged worker now panics with a diagnosis
        // instead of hanging the suite forever.
        let db = db(StrategyKind::Calc, "shutdown-load");
        for i in 0..5000u64 {
            db.submit(ProcId(1), add_params(i % 64, 1, u64::MAX));
        }
        let metrics = db.metrics().clone();
        let start = Instant::now();
        db.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "shutdown took {:?} under load",
            start.elapsed()
        );
        assert_eq!(metrics.committed(), 5000, "shutdown dropped queued txns");
    }

    #[test]
    fn merge_batch_triggers_background_collapse() {
        let dir = std::env::temp_dir().join(format!(
            "calc-engine-{}-mergebatch",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(AddProc));
        let mut config = EngineConfig::new(StrategyKind::PCalc, 1024, 16, dir);
        config.workers = 2;
        config.merge_batch = Some(2);
        let db = Database::open(config, registry).unwrap();
        for k in 0..50u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();
        for round in 0..4 {
            db.execute(ProcId(1), add_params(round, 1, u64::MAX));
            db.checkpoint_now().unwrap();
        }
        // Give the background merger a moment, then verify the chain got
        // shorter than 4 partials.
        std::thread::sleep(Duration::from_millis(300));
        let (full, partials) = db.checkpoint_dir().recovery_chain().unwrap().unwrap();
        assert!(
            full.id > 0,
            "expected a merged full checkpoint, got base full only"
        );
        assert!(partials.len() < 4, "partials not collapsed: {partials:?}");
    }

    #[test]
    fn service_enters_and_exits_degraded_mode_under_io_failure() {
        use calc_common::simfs::{SimVfs, TransientKind, TransientSpec};
        let vfs = SimVfs::new(0x0DE6_0DE6);
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(AddProc));
        let mut config = EngineConfig::new(
            StrategyKind::PCalc,
            1024,
            16,
            std::path::PathBuf::from("/sim/ckpts"),
        );
        config.vfs = Arc::new(vfs.clone());
        config.workers = 2;
        config.checkpoint_interval = Some(Duration::from_millis(2));
        config.checkpoint_tuning.backoff_base = Duration::from_millis(1);
        config.checkpoint_tuning.backoff_cap = Duration::from_millis(5);
        config.checkpoint_tuning.degraded_after = 2;
        let db = Database::open(config, registry).unwrap();
        for k in 0..16u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();

        // Break the disk: every checkpoint write fails until healed.
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::WriteError,
            from: vfs.counts().data_ops(),
            count: u64::MAX,
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while !db.health().degraded() {
            assert!(Instant::now() < deadline, "daemon never entered degraded mode");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Degraded, not dead: transactions keep committing.
        let out = db.execute(ProcId(1), add_params(3, 7, u64::MAX));
        assert!(matches!(out, TxnOutcome::Committed(_)));
        assert!(db.health().last_error().is_some());
        assert!(db.strategy().aborted_cycles() > 0, "failed cycles not rolled back");

        // Heal the disk; the daemon self-heals on its next success.
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::WriteError,
            from: 0,
            count: 0,
        });
        while db.health().degraded() || db.health().degraded_exits() == 0 {
            assert!(Instant::now() < deadline, "daemon never self-healed");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(db.health().consecutive_failures(), 0);
        assert!(db.health().time_since_last_success().is_some());
        db.shutdown();
    }

    #[test]
    fn failed_background_merge_is_reported_and_retried() {
        use calc_common::simfs::{SimVfs, TransientKind, TransientSpec};
        let vfs = SimVfs::new(0x4E26_0001);
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(AddProc));
        let mut config = EngineConfig::new(
            StrategyKind::PCalc,
            1024,
            16,
            std::path::PathBuf::from("/sim/ckpts"),
        );
        config.vfs = Arc::new(vfs.clone());
        config.workers = 2;
        config.merge_batch = Some(2);
        let db = Database::open(config, registry).unwrap();
        for k in 0..32u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();

        // Park the merger behind its serial lock so the ENOSPC window can
        // be armed after the triggering checkpoints' own writes, making
        // the failure deterministic.
        let parked = db.inner.merge_serial.lock();
        for round in 0..2u64 {
            db.execute(ProcId(1), add_params(round, 1, u64::MAX));
            db.checkpoint_now().unwrap();
        }
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::Enospc,
            from: vfs.counts().data_ops(),
            count: u64::MAX,
        });
        drop(parked);
        db.join_mergers();
        assert_eq!(db.health().merge_failures(), 1, "collapse error swallowed");
        let msg = db.health().last_merge_error().expect("merge error recorded");
        assert!(!msg.is_empty());

        // Disk recovers; the next successful checkpoint retries the merge
        // even though it is off the batch boundary.
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::Enospc,
            from: 0,
            count: 0,
        });
        db.execute(ProcId(1), add_params(9, 1, u64::MAX));
        db.checkpoint_now().unwrap();
        db.join_mergers();
        assert_eq!(db.health().merge_failures(), 1, "retry failed again");
        let (full, _) = db.checkpoint_dir().recovery_chain().unwrap().unwrap();
        assert!(full.id > 0, "retried merge did not produce a collapsed full");
    }

    #[test]
    fn shard_owned_single_key_txns_run_lock_free_and_count() {
        let db = db_with_mode(StrategyKind::Calc, "so-single", ExecutorMode::ShardOwned);
        assert_eq!(db.executor_mode(), ExecutorMode::ShardOwned);
        for i in 0..200u64 {
            let out = db.execute(ProcId(1), add_params(i % 16, 1, u64::MAX));
            assert!(matches!(out, TxnOutcome::Committed(_)));
        }
        for k in 0..16u64 {
            let got =
                u64::from_le_bytes(db.get(Key(k)).unwrap()[..8].try_into().unwrap());
            assert_eq!(got, 200 / 16 + u64::from(k < 200 % 16));
        }
        let health = db.health();
        assert_eq!(health.single_shard_txns(), 200);
        assert_eq!(health.cross_shard_txns(), 0);
        assert_eq!(health.routing_fallbacks(), 0);
        assert_eq!(db.metrics().committed(), 200);
    }

    #[test]
    fn shard_owned_cross_shard_transfers_conserve_total() {
        let db = db_with_mode(StrategyKind::Calc, "so-cross", ExecutorMode::ShardOwned);
        let router = db.shard_router().expect("shard-owned router");
        const KEYS: u64 = 16;
        for k in 0..KEYS {
            db.execute(ProcId(1), add_params(k, 1000, u64::MAX));
        }
        // Mix of genuinely cross-owner pairs and same-owner pairs, fired
        // from several submitter threads so fences interleave with
        // single-owner traffic.
        let mut cross = 0u64;
        let mut handles = Vec::new();
        let db = Arc::new(db);
        for t in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..150u64 {
                    let from = (t * 37 + i) % KEYS;
                    let to = (t * 37 + i * 11 + 1) % KEYS;
                    if from != to {
                        let p =
                            params::Writer::new().u64(from).u64(to).u64(1).finish();
                        db.execute(ProcId(2), p);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..KEYS {
            for j in 0..KEYS {
                if i != j && router.owner_of_key(Key(i)) != router.owner_of_key(Key(j)) {
                    cross += 1;
                }
            }
        }
        assert!(cross > 0, "workload never crossed owners; widen KEYS");
        assert!(db.health().cross_shard_txns() > 0, "no fence path exercised");
        let total: u64 = (0..KEYS)
            .map(|k| u64::from_le_bytes(db.get(Key(k)).unwrap()[..8].try_into().unwrap()))
            .sum();
        assert_eq!(total, KEYS * 1000, "transfers must conserve the total");
    }

    #[test]
    fn shard_owned_concurrent_submissions_all_commit() {
        let db = db_with_mode(StrategyKind::Calc, "so-concurrent", ExecutorMode::ShardOwned);
        for i in 0..1000u64 {
            db.submit(ProcId(1), add_params(i % 10, 1, u64::MAX));
        }
        let metrics = db.metrics().clone();
        let strategy = db.strategy().clone();
        db.shutdown();
        assert_eq!(metrics.committed(), 1000);
        let total: u64 = (0..10u64)
            .map(|k| {
                u64::from_le_bytes(strategy.get(Key(k)).unwrap()[..8].try_into().unwrap())
            })
            .sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn shard_owned_commit_log_stays_in_seq_order() {
        // The commit-token invariant across the refactor: the retained
        // command log must be strictly seq-ordered even when commits come
        // from different owner threads and fenced cross-shard commits.
        let db = db_with_mode(StrategyKind::Calc, "so-order", ExecutorMode::ShardOwned);
        for k in 0..8u64 {
            db.execute(ProcId(1), add_params(k, 100, u64::MAX));
        }
        for i in 0..200u64 {
            let p = params::Writer::new()
                .u64(i % 8)
                .u64((i + 3) % 8)
                .u64(0)
                .finish();
            db.submit(ProcId(2), p);
            db.submit(ProcId(1), add_params(i % 8, 1, u64::MAX));
        }
        let metrics = db.metrics().clone();
        let log = db.commit_log().clone();
        db.shutdown();
        let records = log.commits_after(CommitSeq::ZERO);
        assert_eq!(records.len() as u64, metrics.committed());
        for pair in records.windows(2) {
            assert!(
                pair[0].seq < pair[1].seq,
                "commit log out of order: {:?} then {:?}",
                pair[0].seq,
                pair[1].seq
            );
        }
    }

    #[test]
    fn shard_owned_unknown_procedure_aborts_and_counts_fallback() {
        let db = db_with_mode(StrategyKind::Calc, "so-unknown", ExecutorMode::ShardOwned);
        let out = db.execute(ProcId(99), add_params(1, 1, 10));
        assert!(matches!(out, TxnOutcome::Aborted(AbortReason::BadParams(_))));
        assert_eq!(db.health().routing_fallbacks(), 1);
        // Parity with the pool executor: routing-time aborts do not reach
        // the outcome metrics (the pool's early returns never did).
        assert_eq!(db.metrics().aborted(), 0);
    }

    #[test]
    fn shard_owned_checkpoint_quiesces_across_fences() {
        // A checkpoint's quiesce (gate.write) must interleave safely with
        // cross-shard fences: coordinators take gate.read only once every
        // co-owner is parked, so the writer can never wedge between them.
        let db = Arc::new(db_with_mode(
            StrategyKind::Calc,
            "so-quiesce",
            ExecutorMode::ShardOwned,
        ));
        for k in 0..12u64 {
            db.execute(ProcId(1), add_params(k, 1000, u64::MAX));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let feeder = {
            let db = db.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let p = params::Writer::new()
                        .u64(i % 12)
                        .u64((i * 7 + 1) % 12)
                        .u64(1)
                        .finish();
                    db.execute(ProcId(2), p);
                    i += 1;
                }
            })
        };
        for _ in 0..5 {
            db.checkpoint_now().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        feeder.join().unwrap();
        let total: u64 = (0..12u64)
            .map(|k| u64::from_le_bytes(db.get(Key(k)).unwrap()[..8].try_into().unwrap()))
            .sum();
        assert_eq!(total, 12 * 1000);
        assert!(!db.checkpoint_dir().scan().unwrap().is_empty());
    }

    #[test]
    fn shard_owned_worker_queue_depths_are_exposed() {
        let db = db_with_mode(StrategyKind::Calc, "so-depths", ExecutorMode::ShardOwned);
        let depths = db.worker_queue_depths();
        assert_eq!(depths.len(), 4, "one gauge per worker");
        // After a synchronous round-trip, nothing is left enqueued.
        db.execute(ProcId(1), add_params(1, 1, u64::MAX));
        assert!(db.worker_queue_depths().iter().all(|&d| d == 0));
        // Pool mode exposes no per-worker gauges.
        let pool = db_with_mode(StrategyKind::Calc, "so-depths-pool", ExecutorMode::Pool);
        assert!(pool.worker_queue_depths().is_empty());
        assert!(pool.shard_router().is_none());
    }

    #[test]
    fn end_to_end_recovery_via_engine() {
        let db = db(StrategyKind::Calc, "e2e-recovery");
        for k in 0..20u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(false).unwrap();
        for k in 0..20u64 {
            db.execute(ProcId(1), add_params(k, k, u64::MAX));
        }
        db.checkpoint_now().unwrap();
        for k in 0..5u64 {
            db.execute(ProcId(1), add_params(k, 100, u64::MAX));
        }

        // "Crash": recover into a fresh strategy.
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(AddProc));
        let recovered = calc_core::calc::CalcStrategy::full(
            calc_storage::dual::StoreConfig::for_records(1024, 16),
            Arc::new(CommitLog::new(false)),
        );
        let commands = db.commit_log().commits_after(CommitSeq::ZERO);
        let outcome =
            calc_recovery::recover(db.checkpoint_dir(), &recovered, &registry, &commands)
                .unwrap();
        assert_eq!(outcome.replayed, 5);
        for k in 0..20u64 {
            assert_eq!(
                recovered.get(Key(k)),
                db.get(Key(k)),
                "key {k} diverged after recovery"
            );
        }
    }
}

#[cfg(test)]
mod cmdlog_tests {
    use super::*;
    use crate::config::{EngineConfig, StrategyKind};
    use calc_common::vfs::OsVfs;
    use calc_txn::proc::{params, AbortReason, LockRequest, Procedure, TxnOps};

    struct SetProc;
    impl Procedure for SetProc {
        fn id(&self) -> ProcId {
            ProcId(1)
        }
        fn name(&self) -> &'static str {
            "set"
        }
        fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
            let mut r = params::Reader::new(p);
            Ok(LockRequest {
                reads: vec![],
                writes: vec![Key(r.u64()?)],
            })
        }
        fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
            let mut r = params::Reader::new(p);
            let key = Key(r.u64()?);
            let v = r.u64()?.to_le_bytes();
            if ops.get(key).is_some() {
                ops.put(key, &v);
            } else {
                ops.insert(key, &v);
            }
            Ok(())
        }
    }

    #[test]
    fn dead_command_logger_degrades_to_sync_error() {
        use calc_common::simfs::{SimVfs, TransientKind, TransientSpec};
        // Regression: a logger thread killed by an append I/O error used
        // to abort the whole process via a panic in sync_command_log.
        let vfs = SimVfs::new(0xDEAD_1066);
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(SetProc));
        let mut config = EngineConfig::new(
            StrategyKind::Calc,
            256,
            16,
            std::path::PathBuf::from("/sim/ckpts"),
        );
        config.command_log_dir = Some(std::path::PathBuf::from("/sim/cmdlog"));
        config.vfs = Arc::new(vfs.clone());
        config.workers = 2;
        let db = Database::open(config, registry).unwrap();
        // Fail every write from here on: the logger's next append dies
        // and the thread exits.
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::WriteError,
            from: vfs.counts().data_ops(),
            count: u64::MAX,
        });
        let out = db.execute(ProcId(1), params::Writer::new().u64(1).u64(1).finish());
        assert!(
            matches!(out, TxnOutcome::Committed(_)),
            "commit must survive a dead logger"
        );
        let r = db.sync_command_log();
        assert!(
            matches!(r, Err(SyncError::LoggerExited) | Err(SyncError::LoggerDied)),
            "expected a typed sync error, got {r:?}"
        );
        // The engine is still alive: more commits, clean shutdown.
        let out = db.execute(ProcId(1), params::Writer::new().u64(2).u64(2).finish());
        assert!(matches!(out, TxnOutcome::Committed(_)));
        db.shutdown();
    }

    #[test]
    fn durable_command_log_collects_all_commits_group_committed() {
        let base = std::env::temp_dir().join(format!(
            "calc-cmdlog-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&base).unwrap();
        let log_dir = base.join("cmdlog");
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(SetProc));
        let mut config = EngineConfig::new(StrategyKind::Calc, 1024, 16, base.join("ckpts"));
        config.command_log_dir = Some(log_dir.clone());
        config.workers = 2;
        let db = Database::open(config, registry).unwrap();
        for i in 0..300u64 {
            db.submit(ProcId(1), params::Writer::new().u64(i % 50).u64(i).finish());
        }
        // Aborted transactions must NOT reach the durable log.
        let out = db.execute(ProcId(99), Arc::from(&b""[..]));
        assert!(matches!(out, TxnOutcome::Aborted(_)));
        db.shutdown(); // closes the channel, drains, final fsync

        let records = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
        assert_eq!(records.len(), 300, "every commit durably logged");
        // Records are in commit order.
        for pair in records.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn sync_command_log_flush_handshake_is_deterministic() {
        // sync_command_log must make every previously-enqueued record
        // durable before returning — a real flush handshake, not a sleep
        // hoping the idle-timeout sync has happened.
        let base = std::env::temp_dir().join(format!(
            "calc-cmdlog-sync-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&base).unwrap();
        let log_dir = base.join("cmdlog");
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(SetProc));
        let mut config = EngineConfig::new(StrategyKind::Calc, 1024, 16, base.join("ckpts"));
        config.command_log_dir = Some(log_dir.clone());
        config.workers = 2;
        let db = Database::open(config, registry).unwrap();
        for round in 1..=3u64 {
            for i in 0..40u64 {
                db.execute(ProcId(1), params::Writer::new().u64(i).u64(round).finish());
            }
            db.sync_command_log().expect("flush handshake");
            // The database is still live; the synced prefix must already
            // be on disk.
            let records = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
            assert_eq!(
                records.len() as u64,
                40 * round,
                "round {round}: flush acknowledged but records not durable"
            );
        }
        db.shutdown();
    }

    /// `log_read_only()` is the `Health` mirror of the committer's flag
    /// (no `cmdlog` mutex on the read): true while the log's fsync hits
    /// ENOSPC with a durable ticket pending, false once space returns —
    /// and the ticket resolves `Ok`, nothing acknowledged is lost.
    #[test]
    fn log_read_only_tracks_an_enospc_window_on_the_command_log() {
        use calc_common::simfs::SimVfs;
        let vfs = SimVfs::new(0xE05_10C);
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(SetProc));
        let mut config = EngineConfig::new(
            StrategyKind::Calc,
            1024,
            16,
            std::path::PathBuf::from("/sim/ckpts"),
        );
        config.vfs = Arc::new(vfs.clone());
        config.command_log_dir = Some(std::path::PathBuf::from("/sim/cmdlog"));
        config.workers = 2;
        let db = Database::open(config, registry).unwrap();
        let put = |v: u64| params::Writer::new().u64(7).u64(v).finish();
        db.execute_durable(ProcId(1), put(1)).expect("healthy log");
        assert!(!db.log_read_only());

        vfs.set_sync_enospc(true);
        std::thread::scope(|s| {
            let writer = s.spawn(|| db.execute_durable(ProcId(1), put(2)));
            let deadline = Instant::now() + Duration::from_secs(30);
            while !db.log_read_only() {
                assert!(Instant::now() < deadline, "read-only mode never published");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(!writer.is_finished(), "no acknowledgement while the disk is full");

            vfs.set_sync_enospc(false);
            let outcome = writer.join().unwrap().expect("ticket resolves Ok after the heal");
            assert!(matches!(outcome, TxnOutcome::Committed(_)));
        });
        // The heal is published before the acknowledgement is sent.
        assert!(!db.log_read_only());
        assert_eq!(db.health().get(Metric::log_enospc_entries), 1);
        db.shutdown();
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use crate::config::{EngineConfig, StrategyKind};
    use calc_recovery::logfile::list_segments;
    use calc_txn::proc::{params, AbortReason, LockRequest, Procedure, TxnOps};

    struct SetProc;
    impl Procedure for SetProc {
        fn id(&self) -> ProcId {
            ProcId(1)
        }
        fn name(&self) -> &'static str {
            "set"
        }
        fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
            let mut r = params::Reader::new(p);
            Ok(LockRequest {
                reads: vec![],
                writes: vec![Key(r.u64()?)],
            })
        }
        fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
            let mut r = params::Reader::new(p);
            let key = Key(r.u64()?);
            // Zero-padded payload: representative of fixed-width tuples and
            // gives the RLE codec real redundancy to squeeze.
            let mut v = [0u8; 64];
            v[..8].copy_from_slice(&r.u64()?.to_le_bytes());
            if ops.get(key).is_some() {
                ops.put(key, &v);
            } else {
                ops.insert(key, &v);
            }
            Ok(())
        }
    }

    fn base_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "calc-retention-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The end-to-end retention loop: compressed checkpoints, segmented
    /// log, pruning and truncation after every cycle — disk use stays
    /// bounded and recovery still reproduces the exact live state.
    #[test]
    fn retention_bounds_disk_and_preserves_recovery() {
        let base = base_dir("bound");
        let log_dir = base.join("cmdlog");
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(SetProc));
        let mut config = EngineConfig::new(StrategyKind::Calc, 4096, 16, base.join("ckpts"));
        config.workers = 2;
        config.retain_command_log = true;
        config.codec = calc_core::Codec::Rle;
        config.command_log_dir = Some(log_dir.clone());
        config.log_segment_bytes = Some(4 << 10);
        config.keep_checkpoints = Some(2);
        let db = Database::open(config, registry).unwrap();

        for cycle in 0..6u64 {
            for i in 0..120u64 {
                db.execute(
                    ProcId(1),
                    params::Writer::new().u64(i % 64).u64(cycle * 1000 + i).finish(),
                );
            }
            db.sync_command_log().unwrap();
            db.checkpoint_now().unwrap();
        }
        let health = db.health();
        assert!(health.checkpoints_pruned() >= 3, "6 fulls, keep 2");
        assert!(
            health.log_segments_truncated() > 0,
            "covered segments must be truncated"
        );
        assert!(health.log_bytes_truncated() > 0);
        assert_eq!(health.retention_failures(), 0);
        // Compression is live end to end.
        assert!(health.last_checkpoint_bytes() > 0);
        assert!(
            health.last_checkpoint_raw_bytes() > health.last_checkpoint_bytes(),
            "RLE on 8-byte LE values must shrink the stream"
        );

        // Disk is bounded: at most `keep` fulls survive.
        let fulls = db
            .checkpoint_dir()
            .scan()
            .unwrap()
            .iter()
            .filter(|m| m.kind == CheckpointKind::Full)
            .count();
        assert!(fulls <= 2, "{fulls} fulls survived keep_checkpoints=2");

        // Zero lost writes: surviving chain + surviving segments rebuild
        // the exact live state.
        let expected: Vec<(Key, Option<Value>)> =
            (0..64u64).map(|k| (Key(k), db.get(Key(k)))).collect();
        let commands =
            calc_recovery::read_dir_logs(db.checkpoint_dir().vfs().as_ref(), &log_dir).unwrap();
        db.shutdown();

        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(SetProc));
        let recovered = calc_core::calc::CalcStrategy::full(
            calc_storage::dual::StoreConfig::for_records(4096, 16),
            Arc::new(CommitLog::new(false)),
        );
        let dir = CheckpointDir::open(
            &base.join("ckpts"),
            Arc::new(calc_core::throttle::Throttle::unlimited()),
        )
        .unwrap();
        calc_recovery::recover(&dir, &recovered, &registry, &commands).unwrap();
        for (k, v) in expected {
            assert_eq!(recovered.get(k), v, "key {} diverged", k.0);
        }
    }

    /// Truncation's floor is the oldest *surviving* full's watermark, so
    /// the log never develops a gap against any chain recovery might fall
    /// back to: the first surviving record follows the floor directly.
    #[test]
    fn truncation_leaves_no_replay_gap_for_fallback_chains() {
        let base = base_dir("gap");
        let log_dir = base.join("cmdlog");
        let mut registry = ProcRegistry::new();
        registry.register(Arc::new(SetProc));
        let mut config = EngineConfig::new(StrategyKind::Calc, 4096, 16, base.join("ckpts"));
        config.workers = 2;
        config.command_log_dir = Some(log_dir.clone());
        config.log_segment_bytes = Some(4 << 10);
        config.keep_checkpoints = Some(2);
        let db = Database::open(config, registry).unwrap();
        for cycle in 0..5u64 {
            for i in 0..150u64 {
                db.execute(
                    ProcId(1),
                    params::Writer::new().u64(i % 32).u64(cycle).finish(),
                );
            }
            db.sync_command_log().unwrap();
            db.checkpoint_now().unwrap();
        }
        let metas = db.checkpoint_dir().scan().unwrap();
        let floor = metas
            .iter()
            .filter(|m| m.kind == CheckpointKind::Full)
            .map(|m| m.watermark)
            .min()
            .unwrap();
        let vfs = db.checkpoint_dir().vfs().clone();
        assert!(
            !list_segments(vfs.as_ref(), &log_dir).unwrap().is_empty(),
            "active segment always survives"
        );
        let records = calc_recovery::read_dir_logs(vfs.as_ref(), &log_dir).unwrap();
        if let Some(first) = records.first() {
            assert!(
                first.seq.0 <= floor.0 + 1,
                "gap between oldest surviving full (wm {}) and first log record ({})",
                floor.0,
                first.seq.0
            );
        }
        db.shutdown();
    }
}

#[cfg(test)]
mod recover_tests {
    use super::*;
    use crate::config::{EngineConfig, StrategyKind};
    use calc_common::vfs::OsVfs;
    use calc_txn::proc::{params, AbortReason, LockRequest, Procedure, TxnOps};

    struct SetProc;
    impl Procedure for SetProc {
        fn id(&self) -> ProcId {
            ProcId(1)
        }
        fn name(&self) -> &'static str {
            "set"
        }
        fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
            let mut r = params::Reader::new(p);
            Ok(LockRequest {
                reads: vec![],
                writes: vec![Key(r.u64()?)],
            })
        }
        fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
            let mut r = params::Reader::new(p);
            let key = Key(r.u64()?);
            let v = r.u64()?.to_le_bytes();
            if ops.get(key).is_some() {
                ops.put(key, &v);
            } else {
                ops.insert(key, &v);
            }
            Ok(())
        }
    }

    fn set(k: u64, v: u64) -> Arc<[u8]> {
        params::Writer::new().u64(k).u64(v).finish()
    }

    fn registry() -> ProcRegistry {
        let mut r = ProcRegistry::new();
        r.register(Arc::new(SetProc));
        r
    }

    #[test]
    fn database_recover_resumes_ids_and_sequences() {
        for kind in [StrategyKind::PCalc, StrategyKind::PNaive] {
            let dir = std::env::temp_dir().join(format!(
                "calc-recover-resume-{}-{}",
                std::process::id(),
                kind.name()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            // Pre-crash lifetime: base + two partial checkpoints + tail.
            let mut config = EngineConfig::new(kind, 2048, 16, dir.clone());
            config.retain_command_log = true;
            let db = Database::open(config, registry()).unwrap();
            for k in 0..50u64 {
                db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
            }
            db.finalize_load(true).unwrap();
            for round in 1..=2u64 {
                for k in 0..20u64 {
                    db.execute(ProcId(1), set(k, round));
                }
                db.checkpoint_now().unwrap();
            }
            for k in 0..5u64 {
                db.execute(ProcId(1), set(k, 99));
            }
            let commands = db.commit_log().commits_after(CommitSeq::ZERO);
            let expected: Vec<_> = (0..50u64).map(|k| db.get(Key(k))).collect();
            let old_ids: std::collections::BTreeSet<u64> =
                db.checkpoint_dir().scan().unwrap().iter().map(|m| m.id).collect();
            drop(db);

            // Crash + recover into a fresh engine over the same directory.
            let mut config = EngineConfig::new(kind, 2048, 16, dir);
            config.retain_command_log = true;
            let db = Database::open(config, registry()).unwrap();
            let outcome = db.recover(&commands).unwrap();
            assert_eq!(outcome.replayed, 5, "{}", kind.name());
            for (k, exp) in expected.iter().enumerate() {
                assert_eq!(db.get(Key(k as u64)), *exp, "{}: key {k}", kind.name());
            }

            // Post-recovery activity and a new checkpoint: its id must not
            // collide with (overwrite) any pre-crash file, and new commit
            // sequences continue past the old ones.
            let max_old_seq = commands.iter().map(|c| c.seq).max().unwrap();
            let TxnOutcome::Committed(new_seq) = db.execute(ProcId(1), set(1, 123)) else {
                panic!("commit failed");
            };
            assert!(new_seq > max_old_seq, "{}: sequence went backwards", kind.name());
            let stats = db.checkpoint_now().unwrap();
            assert!(
                !old_ids.contains(&stats.id),
                "{}: checkpoint id {} collides with pre-crash files",
                kind.name(),
                stats.id
            );
            // And the new chain recovers to the latest state.
            let metas = db.checkpoint_dir().scan().unwrap();
            assert!(metas.iter().any(|m| m.id == stats.id));
        }
    }

    /// Real filesystem, counting `open_read` calls per path.
    #[derive(Debug, Default)]
    struct CountingVfs {
        opens: Mutex<std::collections::BTreeMap<std::path::PathBuf, usize>>,
    }

    impl calc_common::vfs::Vfs for CountingVfs {
        fn create(&self, path: &std::path::Path) -> io::Result<Box<dyn calc_common::vfs::VfsFile>> {
            OsVfs.create(path)
        }
        fn open_read(
            &self,
            path: &std::path::Path,
        ) -> io::Result<Box<dyn calc_common::vfs::VfsRead>> {
            *self.opens.lock().entry(path.to_path_buf()).or_default() += 1;
            OsVfs.open_read(path)
        }
        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> io::Result<()> {
            OsVfs.rename(from, to)
        }
        fn remove_file(&self, path: &std::path::Path) -> io::Result<()> {
            OsVfs.remove_file(path)
        }
        fn read_dir(&self, dir: &std::path::Path) -> io::Result<Vec<std::path::PathBuf>> {
            OsVfs.read_dir(dir)
        }
        fn create_dir_all(&self, dir: &std::path::Path) -> io::Result<()> {
            OsVfs.create_dir_all(dir)
        }
        fn sync_dir(&self, dir: &std::path::Path) -> io::Result<()> {
            OsVfs.sync_dir(dir)
        }
        fn len(&self, path: &std::path::Path) -> io::Result<u64> {
            OsVfs.len(path)
        }
    }

    /// One validation pass per restart: `recover` seals the id/seq spaces
    /// from claims (manifest documents and names), so the recovery chain's
    /// scan is the only CRC pass over the part files.
    #[test]
    fn restart_opens_each_part_once_to_validate_and_once_to_load() {
        let dir = std::env::temp_dir().join(format!("calc-recover-opens-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = EngineConfig::new(StrategyKind::PCalc, 2048, 16, dir.clone());
        config.retain_command_log = true;
        config.checkpoint_threads = 2;
        let db = Database::open(config.clone(), registry()).unwrap();
        for k in 0..50u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();
        for round in 1..=2u64 {
            for k in 0..20u64 {
                db.execute(ProcId(1), set(k, round));
            }
            db.checkpoint_now().unwrap();
        }
        db.execute(ProcId(1), set(7, 99));
        let commands = db.commit_log().commits_after(CommitSeq::ZERO);
        drop(db);

        let vfs = Arc::new(CountingVfs::default());
        config.vfs = vfs.clone();
        let db = Database::open(config, registry()).unwrap();
        let outcome = db.recover(&commands).unwrap();
        assert_eq!(outcome.checkpoint_files, 3);
        assert_eq!(db.get(Key(7)), Some(99u64.to_le_bytes().into()));
        let opens = vfs.opens.lock();
        let parts: Vec<_> = opens
            .iter()
            .filter(|(p, _)| p.to_string_lossy().contains(".part-"))
            .collect();
        assert_eq!(parts.len(), 6, "3 cycles x 2 parts: {parts:?}");
        for (path, n) in parts {
            assert_eq!(*n, 2, "{} opened {n} times", path.display());
        }
    }

    #[test]
    fn partial_checkpoint_after_recovery_covers_replayed_writes() {
        // A partial checkpoint taken after recovery advances the watermark
        // past the replayed commits, so it MUST also contain their writes:
        // if replay's dirty marks land in a stale interval, the next crash
        // loses those commits even with a complete command log.
        for kind in [StrategyKind::PCalc, StrategyKind::PNaive] {
            let dir = std::env::temp_dir().join(format!(
                "calc-recover-replay-dirty-{}-{}",
                std::process::id(),
                kind.name()
            ));
            let _ = std::fs::remove_dir_all(&dir);

            // Lifetime 1: base checkpoint + one commit that exists only in
            // the command log.
            let mut config = EngineConfig::new(kind, 2048, 16, dir.clone());
            config.retain_command_log = true;
            let db = Database::open(config, registry()).unwrap();
            for k in 0..10u64 {
                db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
            }
            db.finalize_load(true).unwrap();
            db.execute(ProcId(1), set(3, 77));
            let log1 = db.commit_log().commits_after(CommitSeq::ZERO);
            let max_seq = log1.iter().map(|c| c.seq).max().unwrap();
            drop(db);

            // Lifetime 2: recover (replays set(3, 77)), take a partial
            // checkpoint with no new commits, crash again.
            let mut config = EngineConfig::new(kind, 2048, 16, dir.clone());
            config.retain_command_log = true;
            let db = Database::open(config, registry()).unwrap();
            db.recover(&log1).unwrap();
            assert_eq!(db.get(Key(3)), Some(77u64.to_le_bytes().into()));
            let stats = db.checkpoint_now().unwrap();
            assert!(
                stats.watermark >= max_seq,
                "{}: post-recovery checkpoint watermark {} does not cover \
                 the replayed commit {max_seq}",
                kind.name(),
                stats.watermark
            );
            drop(db);

            // Lifetime 3: recover from the new chain plus the complete
            // command log. The replayed commit is at seq <= watermark, so
            // replay skips it — the checkpoint itself must carry it.
            let mut config = EngineConfig::new(kind, 2048, 16, dir);
            config.retain_command_log = true;
            let db = Database::open(config, registry()).unwrap();
            db.recover(&log1).unwrap();
            assert_eq!(
                db.get(Key(3)),
                Some(77u64.to_le_bytes().into()),
                "{}: replayed write lost by the post-recovery partial checkpoint",
                kind.name()
            );
        }
    }
}
