//! The `Database` facade: boot and resume, the submission API, the
//! admission gate, checkpoint triggering, restart recovery and shutdown.
//! A synchronous transaction runs on its caller's thread, a submitted one
//! on the pool (`executor.rs`); their commit section is `commit.rs`; checkpoint cycles, merges and retention run on the
//! checkpoint worker (`service.rs`).

use std::io;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use calc_common::load::LoadSignal;
use calc_common::types::{CommitSeq, Key, Value};
use calc_core::manifest::CheckpointDir;
use calc_core::merge::MergeStats;
use calc_core::strategy::{CheckpointStats, CheckpointStrategy, EngineEnv};
use calc_core::throttle::Throttle;
use calc_recovery::{DurabilityTicket, GroupCommitConfig, GroupCommitter, SegmentedLogWriter};
use calc_storage::dual::StoreError;
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_txn::proc::{AbortReason, ProcId, ProcRegistry};

use crate::config::EngineConfig;
use crate::executor::{run_request, Executor, Request, SHUTDOWN_JOIN_TIMEOUT};
use crate::metrics::{Health, Metric, MetricList, MetricValue, Metrics};
use crate::service::{Job, Worker};
use crate::standby::{check_log_complete, seal};

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

pub(crate) struct Inner {
    pub(crate) strategy: Arc<dyn CheckpointStrategy>,
    pub(crate) log: Arc<CommitLog>,
    pub(crate) registry: ProcRegistry,
    /// Admission gate: every transaction holds read access for its whole
    /// lifetime (locks, logic, commit hook). `quiesced` takes write
    /// access — parking_lot's writer preference blocks new readers, so
    /// this waits out active transactions and then excludes new ones: a
    /// physical point of consistency.
    pub(crate) gate: RwLock<()>,
    pub(crate) dir: CheckpointDir,
    pub(crate) metrics: Arc<Metrics>,
    /// Load signal: a server front-end's admission gate feeds it, the
    /// checkpoint capture path reads it back. Shared (not owned) so the
    /// server can hang its [`calc_common::Gate`] off the same signal.
    pub(crate) load: Arc<LoadSignal>,
    pub(crate) txn_counter: AtomicU64,
    /// Durable command log behind a group-commit sync thread (None when
    /// command logging is off). Fixed at boot and closed at shutdown (the
    /// sync thread drains the queue and performs the final fsync); commits
    /// enqueue on it from inside the commit log's section, so it needs no
    /// lock of its own.
    pub(crate) cmdlog: Option<GroupCommitter>,
    /// Checkpointer health, shared with the checkpoint worker and observers.
    pub(crate) health: Arc<Health>,
    /// Segmented command-log directory, when segmentation is on; the
    /// retention step truncates covered segments here after each cycle.
    pub(crate) command_log_dir: Option<std::path::PathBuf>,
    /// Retention depth: prune published chains down to this many fulls
    /// after each successful cycle (`None` keeps everything).
    pub(crate) keep_checkpoints: Option<usize>,
    #[cfg(feature = "conform")]
    pub(crate) recorder: Option<Arc<crate::recorder::HistoryRecorder>>,
}

impl EngineEnv for Inner {
    fn quiesced(&self, f: &mut dyn FnMut() -> io::Result<()>) -> io::Result<Duration> {
        let start = Instant::now();
        let _w = self.gate.write();
        f()?;
        Ok(start.elapsed())
    }
}

/// An embeddable, checkpointable, main-memory transactional key-value
/// store — the paper's evaluation system, with the checkpointing strategy
/// chosen by [`EngineConfig::strategy`].
pub struct Database {
    inner: Arc<Inner>,
    executor: Executor,
    /// The one thread that runs checkpoint cycles, merges and retention.
    worker: Arc<Worker>,
}

impl Database {
    /// Opens a database: builds the strategy, spawns the worker pool.
    /// Populate with [`Database::load_initial`] then call
    /// [`Database::finalize_load`] before submitting transactions.
    pub fn open(config: EngineConfig, registry: ProcRegistry) -> io::Result<Self> {
        let log = Arc::new(CommitLog::default());
        let strategy = config.strategy.build(config.store.clone(), log.clone());
        let dir = CheckpointDir::open_with_vfs(
            &config.checkpoint_dir,
            disk_throttle(&config),
            config.vfs.clone(),
        )?;
        Self::boot(config, registry, strategy, log, dir)
    }

    /// Opens a serving database around an *already populated* strategy —
    /// the promotion path of a standby, which is also a restart's. The
    /// caller (normally [`crate::standby::Promoted::into_database`]) has
    /// already loaded the checkpoint chain through `dir`, applied the log
    /// tail, and resumed the commit-seq and checkpoint-id spaces on
    /// `strategy` and `log`; this takes `dir` over
    /// ([`CheckpointDir::reopen`]: what its load quarantined stays
    /// counted), spawns the worker pool and, when
    /// [`EngineConfig::command_log_dir`] is set, seals the applied prefix
    /// by opening a fresh log segment above the highest survivor (rotation
    /// invariant: a restarted writer never appends into an existing
    /// segment).
    pub fn resume(
        config: EngineConfig,
        registry: ProcRegistry,
        strategy: Arc<dyn CheckpointStrategy>,
        log: Arc<CommitLog>,
        dir: CheckpointDir,
    ) -> io::Result<Self> {
        let dir = dir.reopen(disk_throttle(&config))?;
        Self::boot(config, registry, strategy, log, dir)
    }

    fn boot(
        config: EngineConfig,
        registry: ProcRegistry,
        strategy: Arc<dyn CheckpointStrategy>,
        log: Arc<CommitLog>,
        dir: CheckpointDir,
    ) -> io::Result<Self> {
        dir.set_checkpoint_threads(config.checkpoint_threads);
        // The server's admission gate feeds this signal; capture workers
        // (pool sizing + per-record pacing) read it.
        let load = Arc::new(LoadSignal::new());
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
        // The committer's observers run on its sync thread: the batch
        // observer feeds `Health`, the read-only observer also queues an
        // emergency retention pass on the checkpoint worker.
        let worker = Arc::new(Worker::default());
        let cmdlog = backend.map(|b| {
            let observer_health = health.clone();
            let ro_health = health.clone();
            let ro_worker = worker.clone();
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
                        ro_worker.emergency();
                    }
                })),
            )
        });
        let inner = Arc::new(Inner {
            strategy,
            log,
            registry,
            gate: RwLock::new(()),
            dir,
            metrics: Arc::new(Metrics::new()),
            load,
            txn_counter: AtomicU64::new(1),
            cmdlog,
            health,
            command_log_dir: config.command_log_dir.clone(),
            keep_checkpoints: config.keep_checkpoints,
            #[cfg(feature = "conform")]
            recorder: config.recorder.clone(),
        });
        worker.start(inner.clone(), inner.health.clone(), &config);
        let executor = Executor::start(&inner, &config);
        Ok(Database {
            inner,
            executor,
            worker,
        })
    }

    /// Bulk-loads a record (before any transactions run): a one-record
    /// [`CheckpointStrategy::load_batch`]. A key already loaded is
    /// [`StoreError::DuplicateKey`].
    pub fn load_initial(&self, key: Key, value: &[u8]) -> Result<(), StoreError> {
        #[cfg(feature = "conform")]
        if let Some(rec) = self.inner.recorder.as_ref() {
            rec.record_initial(key, value);
        }
        match self.inner.strategy.load_batch(&[(key, value)])? {
            0 => Err(StoreError::DuplicateKey(key)),
            _ => Ok(()),
        }
    }

    /// Finishes initial load: writes the base full checkpoint when asked
    /// to (partial strategies need one, so the recovery chain has a full
    /// ancestor).
    pub fn finalize_load(&self, base_checkpoint: bool) -> io::Result<Option<CheckpointStats>> {
        if base_checkpoint {
            Ok(Some(self.inner.strategy.write_base_checkpoint(&self.inner.dir)?))
        } else {
            Ok(None)
        }
    }

    /// Runs one transaction on this thread, stamped with its start time.
    fn run(
        &self,
        proc: ProcId,
        params: Arc<[u8]>,
        durable: bool,
    ) -> (TxnOutcome, Option<DurabilityTicket>) {
        let req = Request {
            proc,
            params,
            submitted: Instant::now(),
            durable,
        };
        run_request(&self.inner, &req)
    }

    /// Submits a transaction fire-and-forget to the worker pool, stamped
    /// with its submission time (its commit latency includes queueing).
    /// Blocks when the bounded queue is full (closed-loop backpressure).
    /// It is not ordered against a later [`Database::execute`] from the
    /// same thread: that call can commit first.
    ///
    /// # Panics
    ///
    /// If the engine was opened with [`EngineConfig::workers`] `= 0`: it
    /// has no pool to run the request.
    pub fn submit(&self, proc: ProcId, params: Arc<[u8]>) {
        self.executor.dispatch(Request {
            proc,
            params,
            submitted: Instant::now(),
            durable: false,
        });
    }

    /// Executes a transaction synchronously on this thread, returning its
    /// outcome: the caller takes the admission gate's read side, the
    /// transaction's locks and the commit section itself, as a pool
    /// worker does for [`Database::submit`], and queues behind no
    /// submitted request. The acknowledgement is ack-before-fsync (the
    /// paper's low-latency choice): the commit is in memory and enqueued
    /// on the durable log, but its batch fsync may still be in flight — a
    /// crash can lose it, bounded by [`EngineConfig::group_commit_window`].
    /// Use [`Database::execute_durable`] for ack-after-fsync.
    pub fn execute(&self, proc: ProcId, params: Arc<[u8]>) -> TxnOutcome {
        self.run(proc, params, false).0
    }

    /// Executes a transaction and, if it commits, waits until its
    /// group-commit batch has been fsynced before returning — an
    /// acknowledged commit survives any later crash (ack-after-fsync,
    /// the promise a network server must make).
    ///
    /// The transaction runs on this thread, as [`Database::execute`]'s
    /// does; the fsync wait follows on it via a [`DurabilityTicket`],
    /// after the locks and the admission gate are released: under group
    /// commit many callers park here concurrently while one batch fsync
    /// retires all of them. Without a configured command log the outcome
    /// is returned immediately.
    ///
    /// `Err` means the transaction committed in memory but its durability
    /// could not be confirmed (sync thread dead or wedged) — degraded
    /// durability, not a rollback.
    pub fn execute_durable(
        &self,
        proc: ProcId,
        params: Arc<[u8]>,
    ) -> Result<TxnOutcome, SyncError> {
        let (outcome, ticket) = self.run(proc, params, true);
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

    /// Direct (non-transactional) point read in place: `read`'s result
    /// on the value's bytes, or `None` if the key is absent. `read` runs
    /// under the record's slot mutex, so keep it short.
    pub fn get_with<R>(&self, key: Key, read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let (mut read, mut out) = (Some(read), None);
        self.inner
            .strategy
            .get_with(key, None, &mut |v| out = read.take().map(|f| f(v)));
        out
    }

    /// Live record count.
    pub fn record_count(&self) -> usize {
        self.inner.strategy.record_count()
    }

    /// Runs one checkpoint cycle on the checkpoint worker, behind any job
    /// already queued there, and waits for its outcome. With `merge_batch`
    /// configured, every Nth partial checkpoint also queues a merge. The
    /// outcome is recorded in [`Database::health`] like a scheduled
    /// cycle's, so manual successes also heal degraded mode.
    pub fn checkpoint_now(&self) -> io::Result<CheckpointStats> {
        self.worker.ask(Job::Cycle)
    }

    /// Collapses partial checkpoints on the checkpoint worker and waits
    /// for it.
    pub fn collapse_partials(&self) -> io::Result<Option<MergeStats>> {
        self.worker.ask(Job::Merge)
    }

    /// Waits until the checkpoint worker's queue is empty and it is idle —
    /// no cycle, merge or retention pass in flight. Call before inspecting
    /// the checkpoint directory externally.
    pub fn wait_checkpoint_idle(&self) {
        self.worker.wait_idle();
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
    /// the commit counters, the store, the load signal, then
    /// [`Health::values`]. The `HEALTH` and `STATS` verbs print exactly
    /// this list, so a value cannot exist on one surface and not another.
    pub fn metric_values(&self) -> MetricList {
        use MetricValue::{Int, Text};
        let (m, load) = (&self.inner.metrics, &self.inner.load);
        let mut out: MetricList = vec![
            ("committed".into(), Int(m.committed())),
            ("aborted".into(), Int(m.aborted())),
            ("records".into(), Int(self.record_count() as u64)),
            ("load_level".into(), Text(load.level().as_str())),
            ("inflight".into(), Int(load.inflight())),
            ("shed_requests".into(), Int(load.shed_requests())),
            ("shed_connections".into(), Int(load.shed_connections())),
            ("capture_yields".into(), Int(load.capture_yields())),
            ("quarantined_files".into(), Int(self.inner.dir.quarantined_count())),
        ];
        // The committer counts its own wake-ups; the table cell mirrors
        // that count, brought up to date whenever the list is read.
        if let Some(gc) = &self.inner.cmdlog {
            self.inner.health.set(Metric::commit_wakeups, gc.wakeups());
        }
        out.extend(self.inner.health.values());
        out
    }

    /// The engine's load signal. A server front-end hangs its admission
    /// gate off it, so shed/inflight counters and
    /// [`calc_common::LoadLevel`] grading share one source of truth; the
    /// checkpoint capture path paces against it. With no gate attached
    /// it reads [`calc_common::LoadLevel::Idle`] unless something calls
    /// [`LoadSignal::note_pressure`].
    pub fn load(&self) -> &Arc<LoadSignal> {
        &self.inner.load
    }

    /// Whether the command log is in read-only degraded mode: it hit
    /// ENOSPC and the group committer is retrying inside its heal window
    /// while an emergency retention pass tries to free space. Callers
    /// should reject writes (reads stay fine) until this clears.
    pub fn log_read_only(&self) -> bool {
        // Mirrored into `Health` by the committer's read-only observer.
        self.inner.health.get(Metric::log_read_only) != 0
    }

    /// The active checkpointing strategy.
    pub fn strategy(&self) -> &Arc<dyn CheckpointStrategy> {
        &self.inner.strategy
    }

    /// The checkpoint directory.
    pub fn checkpoint_dir(&self) -> &CheckpointDir {
        &self.inner.dir
    }

    /// Recovers this (freshly opened, unused) database from its checkpoint
    /// directory plus `commands`, a log already read into memory: loads
    /// the newest recovery chain and replays `commands` past its watermark
    /// ([`calc_recovery::recover`]), then applies a restart's
    /// truncated-log rule and its seal (see [`crate::standby`]). A
    /// restart from disk is [`crate::standby::Standby`]'s, which streams
    /// the log instead. The procedures in the registry must match the
    /// pre-crash ones (determinism contract).
    pub fn recover(
        &self,
        commands: &[CommitRecord],
    ) -> Result<calc_recovery::RecoveryOutcome, calc_recovery::RecoveryError> {
        let inner = &self.inner;
        let strategy = inner.strategy.as_ref();
        let outcome = calc_recovery::recover(&inner.dir, strategy, &inner.registry, commands)?;
        if let (0, Some(log_dir)) = (outcome.checkpoint_files, &inner.command_log_dir) {
            check_log_complete(&inner.dir, log_dir)?;
        }
        let replayed = commands.iter().map(|c| c.seq).max().unwrap_or(CommitSeq::ZERO);
        let applied = outcome.watermark.max(replayed).0;
        seal(&inner.dir.claims()?, &inner.log, strategy, applied, true);
        Ok(outcome)
    }

    /// Waits for the submission queue to drain and workers to go idle,
    /// then stops them. Consumes the database, so no caller can be inside
    /// a synchronous [`Database::execute`] or `execute_durable` when it
    /// runs: those need nothing stopped.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        // Stop the checkpoint worker first so no new job starts while the
        // workers drain.
        self.worker.stop();
        self.executor.stop();
        // Close the group committer last: the sync thread drains the
        // remaining queue and performs the final batch fsync, so the
        // on-disk log is complete when this returns.
        if let Some(gc) = &self.inner.cmdlog {
            gc.close();
        }
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
        let Some(gc) = &self.inner.cmdlog else {
            return Ok(());
        };
        // The committer's queue is FIFO and a commit is enqueued before its
        // `execute` returns, so a plain flush is behind every commit the
        // caller can know about — it needs no turn in the commit section.
        gc.flush().wait(SHUTDOWN_JOIN_TIMEOUT)
    }
}

/// The disk-bandwidth throttle new checkpoint cycles are charged to.
fn disk_throttle(config: &EngineConfig) -> Arc<Throttle> {
    Arc::new(match config.disk_bytes_per_sec {
        0 => Throttle::unlimited(),
        rate => Throttle::new(rate),
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use crate::service::CheckpointWork;
    use calc_testkit::{registry, set_u64, SET};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The engine's own jobs with a test's hand on them: a merge waits
    /// for `merges`, and a cycle panics while `panic_cycles` is set.
    struct Rigged {
        inner: Arc<Inner>,
        merges: Mutex<()>,
        panic_cycles: AtomicBool,
    }

    impl CheckpointWork for Rigged {
        fn cycle(&self) -> io::Result<CheckpointStats> {
            assert!(!self.panic_cycles.load(Ordering::Acquire), "scripted cycle panic");
            self.inner.cycle()
        }
        fn merge(&self) -> io::Result<Option<MergeStats>> {
            let _held = self.merges.lock();
            self.inner.merge()
        }
        fn retention(&self) {
            self.inner.retention()
        }
    }

    /// Swaps `db`'s checkpoint worker for one running [`Rigged`] jobs.
    fn rig(db: &mut Database, config: &EngineConfig) -> Arc<Rigged> {
        db.worker.stop();
        let rigged = Arc::new(Rigged {
            inner: db.inner.clone(),
            merges: Mutex::new(()),
            panic_cycles: AtomicBool::new(false),
        });
        db.worker = Arc::default();
        db.worker.start(rigged.clone(), db.inner.health.clone(), config);
        rigged
    }

    #[test]
    fn failed_background_merge_is_reported_and_retried() {
        use calc_common::simfs::{SimVfs, TransientKind, TransientSpec};
        let vfs = SimVfs::new(0x4E26_0001);
        let mut config = EngineConfig::new(
            StrategyKind::PCalc,
            1024,
            16,
            std::path::PathBuf::from("/sim/ckpts"),
        );
        config.vfs = Arc::new(vfs.clone());
        config.workers = 2;
        config.merge_batch = Some(2);
        let mut db = Database::open(config.clone(), registry()).unwrap();
        let rigged = rig(&mut db, &config);
        for k in 0..32u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();

        // Hold the merge the second partial queues so the ENOSPC window
        // can be armed after the triggering checkpoints' own writes,
        // making the failure deterministic.
        let parked = rigged.merges.lock();
        for round in 0..2u64 {
            db.execute(SET, set_u64(round, 1));
            db.checkpoint_now().unwrap();
        }
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::Enospc,
            from: vfs.counts().data_ops(),
            count: u64::MAX,
        });
        drop(parked);
        db.wait_checkpoint_idle();
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
        db.execute(SET, set_u64(9, 1));
        db.checkpoint_now().unwrap();
        db.wait_checkpoint_idle();
        assert_eq!(db.health().merge_failures(), 1, "retry failed again");
        let (full, _) = db.checkpoint_dir().chain().unwrap();
        assert!(full.id > 0, "retried merge did not produce a collapsed full");
    }

    #[test]
    fn a_panicking_job_is_fail_stop_for_the_worker_not_a_hang() {
        let mut config = EngineConfig::new(
            StrategyKind::PCalc,
            256,
            16,
            calc_testkit::temp_dir("worker-panic"),
        );
        config.merge_batch = Some(1);
        let mut db = Database::open(config.clone(), registry()).unwrap();
        let rigged = rig(&mut db, &config);
        db.load_initial(Key(0), &0u64.to_le_bytes()).unwrap();
        db.finalize_load(true).unwrap();
        db.checkpoint_now().expect("healthy cycle");

        rigged.panic_cycles.store(true, Ordering::Release);
        let err = db.checkpoint_now().expect_err("the panicking cycle's waiter");
        assert!(err.to_string().contains("scripted cycle panic"), "{err}");

        // Fail fast, not block: the worker is gone.
        let start = Instant::now();
        assert!(db.checkpoint_now().is_err());
        assert!(db.collapse_partials().is_err());
        db.wait_checkpoint_idle();
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(db.health().degraded(), "a dead worker must read degraded");
        let (class, msg) = db.health().last_error().expect("the panic is recorded");
        assert_eq!(class, crate::ErrorClass::Fatal);
        assert!(msg.contains("panicked") && msg.contains("scripted cycle panic"), "{msg}");

        // Transactions still commit, and shutdown still completes.
        assert!(matches!(db.execute(SET, set_u64(0, 1)), TxnOutcome::Committed(_)));
        db.shutdown();
    }
}
