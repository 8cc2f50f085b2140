//! The `Database` facade: boot and resume, the submission API, the
//! admission gate, checkpoint triggering, restart recovery and shutdown.
//! Transactions run on the executor (`executor.rs`); their commit section
//! is `commit.rs`; what surrounds a checkpoint cycle (background merge,
//! retention) is `cycle.rs`.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::{Mutex, RwLock};

use calc_common::load::LoadSignal;
use calc_common::types::{CommitSeq, Key, Value};
use calc_core::manifest::CheckpointDir;
use calc_core::merge::{collapse, MergeStats};
use calc_core::strategy::{CheckpointStats, CheckpointStrategy, EngineEnv};
use calc_core::throttle::Throttle;
use calc_recovery::{GroupCommitConfig, GroupCommitter, SegmentedLogWriter};
use calc_storage::dual::StoreError;
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_txn::locks::LockManager;
use calc_txn::proc::{AbortReason, ProcId, ProcRegistry};

use crate::config::EngineConfig;
use crate::executor::{join_bounded, Executor, Reply, Request, SHUTDOWN_JOIN_TIMEOUT};
use crate::metrics::{Health, Metric, MetricList, MetricValue, Metrics};
use crate::service::{classify, CheckpointService};
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
    pub(crate) locks: LockManager,
    pub(crate) registry: ProcRegistry,
    /// Admission gate: every transaction holds read access for its whole
    /// lifetime (locks, logic, commit hook). `quiesced` takes write
    /// access — parking_lot's writer preference blocks new readers, so
    /// this waits out active transactions and then excludes new ones: a
    /// physical point of consistency.
    pub(crate) gate: RwLock<()>,
    pub(crate) dir: CheckpointDir,
    pub(crate) metrics: Arc<Metrics>,
    /// Commit-path load signal: every commit feeds its latency and the
    /// tps window here; the checkpoint capture path and a server
    /// front-end's admission gate read it back. Shared (not owned) so
    /// the server can hang its [`calc_common::Gate`] off the same signal.
    pub(crate) load: Arc<LoadSignal>,
    pub(crate) txn_counter: AtomicU64,
    pub(crate) checkpoint_serial: Mutex<()>,
    pub(crate) merge_serial: Arc<Mutex<()>>,
    /// In-flight background merger threads (finished ones are reaped at
    /// the next spawn), joined before the database is dropped so no merge
    /// races a post-run inspection of the checkpoint directory.
    pub(crate) mergers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Durable command log behind a group-commit sync thread (None when
    /// command logging is off). Fixed at boot and closed at shutdown (the
    /// sync thread drains the queue and performs the final fsync); commits
    /// enqueue on it from inside the commit log's section, so it needs no
    /// lock of its own.
    pub(crate) cmdlog: Option<GroupCommitter>,
    pub(crate) partials_since_merge: AtomicU64,
    pub(crate) merge_batch: Option<usize>,
    /// Checkpointer health, shared with the service daemon and observers.
    pub(crate) health: Arc<Health>,
    /// Set when a background merge failed; the next checkpoint cycle
    /// retries the merge even off the batch boundary.
    pub(crate) merge_retry_pending: AtomicBool,
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
    /// The supervised checkpoint daemon, when
    /// [`EngineConfig::checkpoint_interval`] is set.
    service: Option<CheckpointService>,
}

impl Database {
    /// Opens a database: builds the strategy, spawns the worker pool.
    /// Populate with [`Database::load_initial`] then call
    /// [`Database::finalize_load`] before submitting transactions.
    pub fn open(config: EngineConfig, registry: ProcRegistry) -> io::Result<Self> {
        let log = Arc::new(CommitLog::default());
        let strategy = config.strategy.build(config.store.clone(), log.clone());
        Self::boot(config, registry, strategy, log, false)
    }

    /// Opens a serving database around an *already populated* strategy —
    /// the promotion path of a standby, which is also a restart's. The
    /// caller (normally [`crate::standby::Promoted::into_database`]) has
    /// already loaded the
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
            // The caller loaded the chain through its own handle, whose
            // scan has already quarantined what failed validation;
            // `Database::recover` gets the parent link from its own scan.
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
        // The committer's observers run on its sync thread: the batch
        // observer feeds `Health`, the read-only observer also kicks the
        // emergency retention pass — through a `Weak`, so the sync thread
        // never pins the engine it belongs to.
        let inner = Arc::new_cyclic(|weak: &Weak<Inner>| {
            let cmdlog = backend.map(|b| {
                let observer_health = health.clone();
                let ro_health = health.clone();
                let ro_inner = weak.clone();
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
                            if let Some(inner) = ro_inner.upgrade() {
                                inner.spawn_emergency_retention();
                            }
                        }
                    })),
                )
            });
            Inner {
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
                cmdlog,
                partials_since_merge: AtomicU64::new(0),
                merge_batch: config.merge_batch,
                health,
                merge_retry_pending: AtomicBool::new(false),
                command_log_dir: config.command_log_dir.clone(),
                keep_checkpoints: config.keep_checkpoints,
                #[cfg(feature = "conform")]
                recorder: config.recorder.clone(),
            }
        });

        let service = config.checkpoint_interval.map(|interval| {
            let cycle_inner = inner.clone();
            CheckpointService::start(
                interval,
                config.checkpoint_tuning.clone(),
                inner.health.clone(),
                move || cycle_inner.checkpoint_cycle_raw().map(|_| ()),
            )
        });

        let executor = Executor::start(&inner, &config);
        Ok(Database {
            inner,
            executor,
            service,
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

    /// Hands one request to the executor, stamped with its submission
    /// time (commit latency includes queueing).
    fn dispatch(
        &self,
        proc: ProcId,
        params: Arc<[u8]>,
        durable: bool,
        reply: Option<Sender<Reply>>,
    ) {
        self.executor.dispatch(Request {
            proc,
            params,
            submitted: Instant::now(),
            durable,
            reply,
        });
    }

    /// Submits a transaction fire-and-forget. Blocks when the bounded
    /// queue is full (closed-loop backpressure).
    pub fn submit(&self, proc: ProcId, params: Arc<[u8]>) {
        self.dispatch(proc, params, false, None);
    }

    /// Executes a transaction synchronously, returning its outcome. The
    /// acknowledgement is ack-before-fsync (the paper's low-latency
    /// choice): the commit is in memory and enqueued on the durable log,
    /// but its batch fsync may still be in flight — a crash can lose it,
    /// bounded by [`EngineConfig::group_commit_window`]. Use
    /// [`Database::execute_durable`] for ack-after-fsync.
    pub fn execute(&self, proc: ProcId, params: Arc<[u8]>) -> TxnOutcome {
        let (tx, rx) = bounded(1);
        self.dispatch(proc, params, false, Some(tx));
        rx.recv().expect("worker replies").0
    }

    /// Executes a transaction and, if it commits, waits until its
    /// group-commit batch has been fsynced before returning — an
    /// acknowledged commit survives any later crash (ack-after-fsync,
    /// the promise a network server must make).
    ///
    /// The fsync wait happens on *this* thread via a
    /// [`calc_recovery::DurabilityTicket`], never on a worker: under group
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
        let (tx, rx) = bounded(1);
        self.dispatch(proc, params, true, Some(tx));
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
        // the workers drain.
        if let Some(svc) = self.service.take() {
            svc.stop();
        }
        self.executor.stop();
        for h in self.inner.mergers.lock().drain(..) {
            join_bounded(h, "merger");
        }
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
    use calc_testkit::{registry, set_u64, SET};

    #[test]
    fn finished_mergers_are_reaped_not_accumulated() {
        let mut config = EngineConfig::new(
            StrategyKind::PCalc,
            256,
            16,
            calc_testkit::temp_dir("merger-reap"),
        );
        config.workers = 1;
        config.merge_batch = Some(1);
        let db = Database::open(config, registry()).unwrap();
        db.load_initial(Key(0), &0u64.to_le_bytes()).unwrap();
        db.finalize_load(true).unwrap();
        for round in 0..8u64 {
            db.execute(SET, set_u64(0, round));
            db.checkpoint_now().unwrap();
            // Every cycle spawned a merger; let it finish before the next.
            let deadline = Instant::now() + Duration::from_secs(30);
            while !db.inner.mergers.lock().iter().all(|h| h.is_finished()) {
                assert!(Instant::now() < deadline, "merger {round} never finished");
                std::thread::yield_now();
            }
            assert_eq!(db.inner.mergers.lock().len(), 1, "handles pile up (round {round})");
        }
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
        let db = Database::open(config, registry()).unwrap();
        for k in 0..32u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();

        // Park the merger behind its serial lock so the ENOSPC window can
        // be armed after the triggering checkpoints' own writes, making
        // the failure deterministic.
        let parked = db.inner.merge_serial.lock();
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
        db.execute(SET, set_u64(9, 1));
        db.checkpoint_now().unwrap();
        db.join_mergers();
        assert_eq!(db.health().merge_failures(), 1, "retry failed again");
        let (full, _) = db.checkpoint_dir().recovery_chain().unwrap().unwrap();
        assert!(full.id > 0, "retried merge did not produce a collapsed full");
    }
}
