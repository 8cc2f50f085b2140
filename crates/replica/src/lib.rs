//! Warm standby replication: near-instant failover instead of cold
//! recovery.
//!
//! Cold recovery of a 500k-record store costs seconds (checkpoint part
//! load + full log replay) — the availability floor on every crash. A
//! [`Standby`] removes that floor by doing the same work *continuously*,
//! ahead of the failure: it bootstraps from the primary's newest durable
//! checkpoint chain, then tails the segmented command log through a
//! [`LogTailer`], applying each commit deterministically with the exact
//! replay semantics of [`calc_recovery::replay::recover_streamed`]
//! (via [`calc_recovery::apply_commit`]). At failover, [`Standby::promote`]
//! drains whatever trusted bytes remain — typically a handful — seals the
//! applied prefix, and hands back state ready to serve.
//!
//! Everything flows through the [`Vfs`] trait, so the two-node
//! crash-simulation driver (`calc-sim`) runs a primary and a standby over
//! one shared fault-injecting filesystem and proves the consistent-prefix
//! guarantee for the *promotion* path, not just the restart path.
//!
//! ## What the standby tolerates
//!
//! * **In-flight checkpoints.** Parts are fully written and fsynced
//!   before the manifest rename publishes a cycle, and
//!   `CheckpointDir::scan` ignores part files with no manifest — so
//!   scanning a live primary's directory never trips over (or damages)
//!   in-flight captures.
//! * **Torn log tails.** An append in flight looks like a torn record at
//!   the end of the newest segment; the tailer holds its cursor and
//!   re-polls rather than failing (see [`TailStatus::CaughtUp`] with
//!   pending bytes).
//! * **Retention truncation.** When the primary deletes sealed segments
//!   below a checkpoint watermark the standby had not reached, the tailer
//!   reports [`TailStatus::LostPrefix`] and the standby re-bootstraps
//!   from the covering checkpoint — truncation only ever removes commits
//!   a durable *full* checkpoint covers, so nothing is skipped. If the
//!   standby had already applied past the truncation point, it keeps its
//!   (newer) in-memory state and simply re-anchors.
//!
//! Standby lag is surfaced through the engine's [`Health`]: applied
//! watermark, commits/bytes behind, re-bootstrap count, and a classified
//! last tail error backed by a heartbeat watchdog (a dead or wedged tail
//! thread must never look like a healthy, silently frozen standby).

#![warn(missing_docs)]

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::{CommitSeq, Key, Value};
use calc_common::vfs::{OsVfs, Vfs};
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::CheckpointStrategy;
use calc_core::throttle::Throttle;
use calc_engine::{classify, Database, EngineConfig, ErrorClass, Health, Metric, StrategyKind};
use calc_recovery::replay::recover_checkpoint_only;
use calc_recovery::{apply_commit, LogTailer, RecoveryError, TailStatus};
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;
use calc_txn::proc::ProcRegistry;

/// Configuration for a warm standby.
#[derive(Clone)]
pub struct StandbyConfig {
    /// Checkpointing strategy the primary runs (the standby rebuilds the
    /// same strategy so its state survives promotion). Must be
    /// transaction-consistent — fuzzy checkpoints cannot seed
    /// deterministic replay.
    pub kind: StrategyKind,
    /// Store sizing, matching the primary's.
    pub store: StoreConfig,
    /// The primary's checkpoint directory.
    pub checkpoint_dir: PathBuf,
    /// The primary's segmented command-log directory.
    pub log_dir: PathBuf,
    /// Filesystem both nodes share (the real one, or a `SimVfs`).
    pub vfs: Arc<dyn Vfs>,
    /// Parallelism for checkpoint part loading at (re-)bootstrap.
    pub checkpoint_threads: usize,
    /// Poll cadence of the background runner ([`StandbyRunner`]).
    pub poll_interval: Duration,
    /// Consecutive-failure threshold for [`Health`] accounting.
    pub degraded_after: u32,
    /// Tail-heartbeat watchdog budget for [`Health::tail_stalled`].
    pub watchdog: Duration,
}

impl StandbyConfig {
    /// A standby of the primary whose durable state lives at
    /// `checkpoint_dir` + `log_dir`, on the real filesystem.
    pub fn new(
        kind: StrategyKind,
        store: StoreConfig,
        checkpoint_dir: PathBuf,
        log_dir: PathBuf,
    ) -> Self {
        StandbyConfig {
            kind,
            store,
            checkpoint_dir,
            log_dir,
            vfs: Arc::new(OsVfs),
            checkpoint_threads: 1,
            poll_interval: Duration::from_millis(10),
            degraded_after: 3,
            watchdog: Duration::from_secs(30),
        }
    }
}

/// Outcome of one [`Standby::poll`].
#[derive(Debug, Clone, Copy)]
pub struct StandbyPoll {
    /// Commits applied by this poll (across any internal re-bootstrap).
    pub applied: u64,
    /// The applied commit-seq watermark after the poll.
    pub applied_seq: u64,
    /// Log bytes beyond the trusted tail (an in-flight append the next
    /// poll will re-read).
    pub pending_bytes: u64,
    /// This poll rebuilt state from the covering checkpoint because
    /// retention truncated below the cursor.
    pub rebootstrapped: bool,
    /// The tail hit a torn record in a *sealed* segment — permanent
    /// trust boundary; the watermark will never advance again.
    pub wedged: bool,
}

/// A warm standby: live, continuously-replaying state tailing a
/// primary's durable checkpoint + command-log directories.
pub struct Standby {
    cfg: StandbyConfig,
    registry: ProcRegistry,
    dir: CheckpointDir,
    strategy: Arc<dyn CheckpointStrategy>,
    log: Arc<CommitLog>,
    tailer: LogTailer,
    health: Arc<Health>,
    /// Highest commit seq applied (checkpoint watermark ∪ replayed tail).
    applied: u64,
    /// Commit watermark of the bootstrap/re-bootstrap checkpoint chain.
    bootstrap_watermark: u64,
    /// Times `LostPrefix` forced a full state rebuild.
    rebootstraps: u64,
    /// Times the tailer reported `LostPrefix` at all (including the
    /// applied-past-truncation case that keeps state).
    lost_prefix_events: u64,
    commits_applied: u64,
    wedged: bool,
}

impl Standby {
    /// Opens a standby: bootstraps state from the newest durable
    /// checkpoint chain (an empty directory is legal — the standby starts
    /// empty and applies the log from the beginning) and positions the
    /// tailer. Refuses non-transaction-consistent strategies, whose
    /// checkpoints cannot seed deterministic replay.
    pub fn open(cfg: StandbyConfig, registry: ProcRegistry) -> io::Result<Self> {
        let dir = CheckpointDir::open_with_vfs(
            &cfg.checkpoint_dir,
            Arc::new(Throttle::unlimited()),
            cfg.vfs.clone(),
        )?;
        dir.set_checkpoint_threads(cfg.checkpoint_threads.max(1));
        let (strategy, log, watermark) = match rebuild_from_chain(&cfg, &dir)? {
            Some(rebuilt) => rebuilt,
            None => {
                let log = Arc::new(CommitLog::default());
                (cfg.kind.build(cfg.store.clone(), log.clone()), log, 0)
            }
        };
        if !strategy.transaction_consistent() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} checkpoints are not transaction-consistent and cannot \
                     seed a replaying standby",
                    strategy.name()
                ),
            ));
        }
        let health = Arc::new(Health::new(cfg.degraded_after, cfg.watchdog));
        health.record_standby_lag(watermark, 0, 0);
        let tailer = LogTailer::new(cfg.vfs.clone(), &cfg.log_dir);
        Ok(Standby {
            registry,
            dir,
            strategy,
            log,
            tailer,
            health,
            applied: watermark,
            bootstrap_watermark: watermark,
            rebootstraps: 0,
            lost_prefix_events: 0,
            commits_applied: 0,
            wedged: false,
            cfg,
        })
    }

    /// Applies every trusted log byte currently on disk, re-bootstrapping
    /// internally if retention truncated below the cursor. Returns when
    /// caught up (possibly with pending torn-tail bytes) or wedged.
    ///
    /// Errors are recorded in [`Health`] before being returned; a
    /// transient error leaves the cursor wherever the last fully-applied
    /// record put it, so the next poll resumes exactly there.
    pub fn poll(&mut self) -> io::Result<StandbyPoll> {
        let mut total_applied = 0u64;
        let mut rebootstrapped = false;
        loop {
            self.health.tail_heartbeat();
            if self.wedged {
                return Ok(StandbyPoll {
                    applied: total_applied,
                    applied_seq: self.applied,
                    pending_bytes: self.tailer.lag_bytes().unwrap_or(0),
                    rebootstrapped,
                    wedged: true,
                });
            }
            let tailer = &mut self.tailer;
            let strategy = self.strategy.clone();
            let registry = &self.registry;
            let mut applied_seq = self.applied;
            let mut applied_now = 0u64;
            let result = tailer.poll(&mut |rec| {
                if rec.seq.0 <= applied_seq {
                    // Already covered by the bootstrap checkpoint (or by a
                    // pre-LostPrefix apply after a re-anchor).
                    return Ok(());
                }
                apply_commit(strategy.as_ref(), registry, rec)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                applied_seq = rec.seq.0;
                applied_now += 1;
                Ok(())
            });
            self.applied = applied_seq;
            self.commits_applied += applied_now;
            total_applied += applied_now;
            let poll = match result {
                Ok(p) => p,
                Err(e) => {
                    self.health.record_tail_error(classify(&e), &e);
                    return Err(e);
                }
            };
            // `commits_behind` is the lag this poll observed and drained:
            // commits that were waiting in the durable log beyond the
            // applied watermark when the poll started.
            self.health
                .record_standby_lag(self.applied, applied_now, poll.pending_bytes);
            match poll.status {
                TailStatus::CaughtUp => {
                    return Ok(StandbyPoll {
                        applied: total_applied,
                        applied_seq: self.applied,
                        pending_bytes: poll.pending_bytes,
                        rebootstrapped,
                        wedged: false,
                    });
                }
                TailStatus::Wedged => {
                    self.wedged = true;
                    let err = io::Error::new(
                        io::ErrorKind::InvalidData,
                        "torn record in a sealed log segment: tail wedged at the \
                         permanent trust boundary",
                    );
                    self.health.record_tail_exit(ErrorClass::Fatal, &err);
                    return Ok(StandbyPoll {
                        applied: total_applied,
                        applied_seq: self.applied,
                        pending_bytes: poll.pending_bytes,
                        rebootstrapped,
                        wedged: true,
                    });
                }
                TailStatus::LostPrefix => {
                    self.lost_prefix_events += 1;
                    rebootstrapped |= self.handle_lost_prefix()?;
                    // The tailer re-anchors to the smallest surviving
                    // segment on the next loop iteration.
                }
            }
        }
    }

    /// Retention deleted the cursor's segment. Two legal shapes:
    ///
    /// * The covering checkpoint chain is *ahead* of the applied
    ///   watermark — the truncated segments held commits the standby
    ///   never applied, all of them (by the truncation invariant) covered
    ///   by that chain. Rebuild state from the chain.
    /// * The applied watermark is at or past the chain watermark —
    ///   truncation only removed commits the standby already applied
    ///   (segments are deleted strictly below a durable full
    ///   checkpoint's watermark). Keep the newer in-memory state.
    ///
    /// Either way no commit is skipped and no error surfaces.
    fn handle_lost_prefix(&mut self) -> io::Result<bool> {
        let rebuilt = self.adopt_chain_if_ahead()?;
        if rebuilt {
            self.bootstrap_watermark = self.applied;
            self.rebootstraps += 1;
            self.health.record_standby_lag(self.applied, 0, 0);
        }
        Ok(rebuilt)
    }

    /// Rebuilds state from the checkpoint chain and adopts it if — and
    /// only if — it materializes past the applied watermark.
    fn adopt_chain_if_ahead(&mut self) -> io::Result<bool> {
        match rebuild_from_chain(&self.cfg, &self.dir)? {
            Some((strategy, log, watermark)) if watermark > self.applied => {
                self.strategy = strategy;
                self.log = log;
                self.applied = watermark;
                self.health.add(Metric::standby_rebootstraps, 1);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Point-reads the standby's live state (for lag probes and tests).
    pub fn get(&self, key: Key) -> Option<Value> {
        self.strategy.get(key)
    }

    /// Records currently in the standby's store.
    pub fn record_count(&self) -> usize {
        self.strategy.record_count()
    }

    /// Health handle: applied watermark, commits/bytes behind,
    /// re-bootstraps, classified tail errors, heartbeat watchdog.
    pub fn health(&self) -> Arc<Health> {
        self.health.clone()
    }

    /// Highest commit seq applied so far.
    pub fn applied_seq(&self) -> u64 {
        self.applied
    }

    /// Times `LostPrefix` forced a full rebuild from the covering
    /// checkpoint.
    pub fn rebootstraps(&self) -> u64 {
        self.rebootstraps
    }

    /// Times the tailer lost its cursor segment to retention at all
    /// (including the keep-state case where the standby had already
    /// applied past the truncation point).
    pub fn lost_prefix_events(&self) -> u64 {
        self.lost_prefix_events
    }

    /// Promotes the standby into primary-ready state: drains every
    /// remaining trusted log byte, then seals the applied prefix by
    /// resuming the commit-seq and checkpoint-id spaces above everything
    /// the old primary published. Returns a [`Promoted`] holding the
    /// serving-ready strategy; turn it into an engine with
    /// [`Promoted::into_database`] (which opens a fresh log segment — the
    /// durable seal) or serve it in-process.
    pub fn promote(mut self) -> io::Result<Promoted> {
        let start = Instant::now();
        // Final drain: loop until a poll applies nothing. (A poll that
        // re-bootstrapped may legitimately apply zero records and still
        // leave trusted bytes behind a re-anchor, so require one clean
        // zero-progress pass.)
        loop {
            let poll = self.poll()?;
            if poll.wedged || (poll.applied == 0 && !poll.rebootstrapped) {
                break;
            }
        }
        // Claims, not a deep scan: promotion needs the id/watermark every
        // cycle *claims* (to seal above them — valid or not), and a full
        // `scan()` would CRC every part payload, putting an O(data) cost
        // on the failover path it exists to avoid.
        let claims = self.dir.claims()?;
        let max_id = claims.iter().map(|c| c.id).max().unwrap_or(0);
        let chain_claim = claims.iter().map(|c| c.watermark.0).max().unwrap_or(0);
        // A published watermark ahead of the applied watermark is
        // ambiguous: usually it is only the phase-marker seqs a
        // checkpoint consumes beyond the last commit, but it can also
        // mean the old primary checkpointed commits whose log bytes died
        // unsynced in the crash before this standby ever polled them —
        // commits that now exist ONLY in the chain. Serving without them
        // would lose durable writes, so attempt a rebuild from the chain.
        // Adopt it ONLY if it materializes past the applied watermark: a
        // claimed watermark can exceed what the chain actually delivers
        // (a lying fsync damaged an ancestor — materialization
        // quarantines it and falls back to an older prefix), and
        // replacing live-applied state with that fallback would itself
        // lose commits.
        let promote_rebuilt = chain_claim > self.applied && self.adopt_chain_if_ahead()?;
        // Resume the id space above every id the old primary consumed,
        // preserving the parity of the standby's current stamp cycle:
        // partial strategies queue tombstones into a parity-indexed
        // buffer keyed by the commit stamp's cycle, so the first
        // post-promotion partial capture must land on the same parity or
        // deletes applied while standing by would wait one extra cycle —
        // and a crash in that window would resurrect them. Skipping an
        // id is explicitly legal (failed cycles consume ids too).
        // Seal the commit-seq space above both the applied state AND every
        // *claimed* watermark: even an unmaterializable cycle consumed
        // those seqs, and the promoted engine must never reissue them.
        // The state watermark stays `applied` — that is what the store
        // actually covers.
        let sealed_seq = self.applied.max(chain_claim);
        let parity = self.log.current_stamp().cycle & 1;
        let mut next_id = max_id + 1;
        if next_id & 1 != parity {
            next_id += 1;
        }
        self.log.advance_to(CommitSeq(sealed_seq), next_id);
        self.strategy.resume_checkpoint_ids(next_id);
        self.health.standby_promoted();
        self.health.record_standby_lag(self.applied, 0, 0);
        Ok(Promoted {
            kind: self.cfg.kind,
            strategy: self.strategy,
            log: self.log,
            registry: self.registry,
            health: self.health,
            vfs: self.cfg.vfs,
            checkpoint_dir: self.cfg.checkpoint_dir,
            log_dir: self.cfg.log_dir,
            watermark: self.applied,
            sealed_seq,
            promote_rebuilt,
            rebootstraps: self.rebootstraps,
            lost_prefix_events: self.lost_prefix_events,
            commits_applied: self.commits_applied,
            promote_duration: start.elapsed(),
        })
    }
}

/// A promoted standby: state sealed at [`Promoted::watermark`], commit
/// and checkpoint id spaces resumed, ready to serve.
pub struct Promoted {
    kind: StrategyKind,
    strategy: Arc<dyn CheckpointStrategy>,
    log: Arc<CommitLog>,
    registry: ProcRegistry,
    health: Arc<Health>,
    vfs: Arc<dyn Vfs>,
    checkpoint_dir: PathBuf,
    log_dir: PathBuf,
    watermark: u64,
    sealed_seq: u64,
    promote_rebuilt: bool,
    rebootstraps: u64,
    lost_prefix_events: u64,
    commits_applied: u64,
    promote_duration: Duration,
}

impl Promoted {
    /// The state watermark: every commit at or below it is applied to
    /// the promoted store.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The sealed commit-seq: at least [`Promoted::watermark`], raised
    /// above every watermark the old primary ever published so the
    /// engine's next commit can never reissue a consumed seq.
    pub fn sealed_seq(&self) -> u64 {
        self.sealed_seq
    }

    /// Whether promotion rebuilt state from a checkpoint chain that had
    /// run ahead of the tailed log (commits existing only in the chain).
    pub fn promote_rebuilt(&self) -> bool {
        self.promote_rebuilt
    }

    /// Strategy holding the promoted state.
    pub fn strategy(&self) -> &Arc<dyn CheckpointStrategy> {
        &self.strategy
    }

    /// Point-read of the promoted state.
    pub fn get(&self, key: Key) -> Option<Value> {
        self.strategy.get(key)
    }

    /// Records in the promoted store.
    pub fn record_count(&self) -> usize {
        self.strategy.record_count()
    }

    /// Checkpoint re-bootstraps over the standby's lifetime.
    pub fn rebootstraps(&self) -> u64 {
        self.rebootstraps
    }

    /// Times the tailer lost its cursor segment to retention.
    pub fn lost_prefix_events(&self) -> u64 {
        self.lost_prefix_events
    }

    /// Commits replayed from the log over the standby's lifetime.
    pub fn commits_applied(&self) -> u64 {
        self.commits_applied
    }

    /// Wall-clock cost of [`Standby::promote`] (final drain + seal).
    pub fn promote_duration(&self) -> Duration {
        self.promote_duration
    }

    /// The standby's health handle, carried across promotion.
    pub fn health(&self) -> Arc<Health> {
        self.health.clone()
    }

    /// Opens a fresh command-log segment above the highest survivor —
    /// the durable seal of the applied prefix — for callers serving the
    /// promoted state without a full engine. `segment_bytes` as in
    /// [`EngineConfig::log_segment_bytes`].
    pub fn open_log(
        &self,
        segment_bytes: u64,
    ) -> io::Result<calc_recovery::SegmentedLogWriter> {
        calc_recovery::SegmentedLogWriter::create(self.vfs.clone(), &self.log_dir, segment_bytes)
    }

    /// Builds a fully serving [`Database`] around the promoted state via
    /// [`Database::resume`]: worker pool, command logger (a fresh segment
    /// above the highest survivor — the durable seal), checkpoint daemon
    /// if configured. `config` supplies the serving-side knobs (workers,
    /// queue, checkpoint cadence…); its strategy/store/paths/vfs are
    /// overridden to the promoted node's own.
    pub fn into_database(self, mut config: EngineConfig) -> io::Result<Database> {
        config.strategy = self.kind;
        config.checkpoint_dir = self.checkpoint_dir;
        config.command_log_dir = Some(self.log_dir);
        config.vfs = self.vfs;
        Database::resume(config, self.registry, self.strategy, self.log)
    }
}

/// Background tail loop: polls a [`Standby`] at its configured interval
/// on a dedicated thread, stamping the [`Health`] heartbeat, until
/// stopped. If a poll fails fatally the loop exits and records it via
/// [`Health::record_tail_exit`] — the watermark freezes loudly, never
/// silently.
pub struct StandbyRunner {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<io::Result<Standby>>>,
    health: Arc<Health>,
}

impl StandbyRunner {
    /// Spawns the tail loop.
    pub fn spawn(standby: Standby) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let health = standby.health();
        let handle = std::thread::Builder::new()
            .name("calc-standby-tail".into())
            .spawn(move || {
                let mut standby = standby;
                let interval = standby.cfg.poll_interval;
                while !stop2.load(Ordering::Relaxed) {
                    match standby.poll() {
                        Ok(p) if p.wedged => {
                            // Health already holds the classified exit;
                            // park until stopped (nothing can advance).
                            while !stop2.load(Ordering::Relaxed) {
                                std::thread::sleep(interval);
                            }
                            break;
                        }
                        Ok(_) => {}
                        Err(e) => {
                            if classify(&e) == ErrorClass::Fatal {
                                let health = standby.health();
                                health.record_tail_exit(ErrorClass::Fatal, &e);
                                return Err(e);
                            }
                            // Transient (e.g. a blip reading a segment):
                            // already recorded by poll; back off one
                            // interval and retry from the held cursor.
                        }
                    }
                    std::thread::sleep(interval);
                }
                Ok(standby)
            })
            .expect("spawn standby tail loop");
        StandbyRunner {
            stop,
            handle: Some(handle),
            health,
        }
    }

    /// The standby's health, observable while the loop runs.
    pub fn health(&self) -> Arc<Health> {
        self.health.clone()
    }

    /// Stops the loop and returns the standby (for promotion), or the
    /// fatal error that killed the loop.
    pub fn stop(mut self) -> io::Result<Standby> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("stop called once")
            .join()
            .map_err(|_| io::Error::other("standby tail thread panicked"))?
    }
}

impl Drop for StandbyRunner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A strategy, its commit log, and the watermark of the chain loaded into it.
type Rebuilt = (Arc<dyn CheckpointStrategy>, Arc<CommitLog>, u64);

/// Loads the newest durable chain into a fresh strategy; `None` if the
/// directory holds no full checkpoint.
fn rebuild_from_chain(cfg: &StandbyConfig, dir: &CheckpointDir) -> io::Result<Option<Rebuilt>> {
    let log = Arc::new(CommitLog::default());
    let strategy = cfg.kind.build(cfg.store.clone(), log.clone());
    match recover_checkpoint_only(dir, strategy.as_ref()) {
        Ok(outcome) => Ok(Some((strategy, log, outcome.watermark.0))),
        Err(RecoveryError::NoFullCheckpoint) => Ok(None),
        Err(RecoveryError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
    }
}
