//! Warm standby replication, and restart: a restart is the node's own
//! standby, opened on its own directories, drained and promoted
//! (`calc_server::open_or_recover`), so its log streams through the tailer
//! and is never held in memory whole.
//!
//! A [`Standby`] bootstraps from the newest durable checkpoint chain and
//! tails the segmented command log through a [`LogTailer`], replaying it
//! in `checkpoint_threads` per-key lanes ([`calc_recovery::replay_feed`]).
//! [`Standby::promote`] drains what trusted bytes remain, seals the applied
//! prefix and hands back state ready to serve. One rule each:
//!
//! * **Poll.** [`Standby::poll`] returns only once every lane has drained,
//!   `Ok` or `Err`, so a transient read error leaves the cursor just past
//!   the last record applied. A failure to apply is permanent: every later
//!   poll returns it.
//! * **Truncated log.** With no loadable chain, the log is the whole
//!   history only if it still starts at segment 0; otherwise
//!   [`Standby::open`] refuses with `RecoveryError::LogTruncated`.
//! * **Seal.** The commit-seq and checkpoint-id spaces resume above every
//!   cycle the directory claims: at bootstrap, so replay runs in the
//!   interval after them, and at promotion, keeping that interval's
//!   parity. `Database::recover` (a log already in memory) shares the
//!   truncated-log rule and the seal.
//!
//! The standby tolerates in-flight checkpoints (a part with no manifest is
//! ignored), torn log tails (an append in flight: the tailer holds its
//! cursor, [`TailStatus::CaughtUp`] with pending bytes) and retention
//! truncation ([`TailStatus::LostPrefix`]: it re-bootstraps from the
//! covering checkpoint, or keeps its newer state and re-anchors). Its lag
//! is surfaced through [`Health`]: applied watermark, commits and bytes
//! behind, re-bootstraps, and a classified last tail error backed by a
//! heartbeat watchdog. Everything goes through [`Vfs`], so `calc-sim` runs
//! restarts and failovers over a fault-injecting filesystem.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::{CommitSeq, Key, Value};
use calc_common::vfs::{OsVfs, Vfs};
use calc_core::manifest::{CheckpointClaim, CheckpointDir};
use calc_core::strategy::CheckpointStrategy;
use calc_core::throttle::Throttle;
use calc_recovery::logfile::list_segments;
use calc_recovery::replay::recover_checkpoint_only;
use calc_recovery::{replay_feed, LogTailer, RecoveryError, TailStatus};
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;
use calc_txn::proc::ProcRegistry;

use crate::{classify, Database, EngineConfig, ErrorClass, Health, Metric, StrategyKind};

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
    /// Lanes for checkpoint part loading at (re-)bootstrap and for log
    /// replay in every poll.
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
    /// Times `LostPrefix` forced a full state rebuild.
    rebootstraps: u64,
    /// Times the tailer reported `LostPrefix` at all (including the
    /// applied-past-truncation case that keeps state).
    lost_prefix_events: u64,
    commits_applied: u64,
    wedged: bool,
    /// A record failed to apply: permanent, returned by every later poll
    /// (the cursor may already be past it).
    diverged: Option<String>,
}

impl Standby {
    /// Opens a standby: bootstraps state from the newest durable
    /// checkpoint chain and positions the tailer. With no loadable chain
    /// it starts empty and applies the log from the beginning — if the log
    /// still has one ([`RecoveryError::LogTruncated`] otherwise). Refuses
    /// non-transaction-consistent strategies, whose checkpoints cannot
    /// seed deterministic replay. A typed refusal is reachable through the
    /// error's `get_ref()`.
    pub fn open(cfg: StandbyConfig, registry: ProcRegistry) -> io::Result<Self> {
        let dir = CheckpointDir::open_with_vfs(
            &cfg.checkpoint_dir,
            Arc::new(Throttle::unlimited()),
            cfg.vfs.clone(),
        )?;
        dir.set_checkpoint_threads(cfg.checkpoint_threads.max(1));
        let (strategy, log, watermark) = load_chain(&cfg, &dir)?;
        if watermark.is_none() {
            check_log_complete(&dir, &cfg.log_dir).map_err(into_io)?;
        }
        let watermark = watermark.unwrap_or(0);
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
            rebootstraps: 0,
            lost_prefix_events: 0,
            commits_applied: 0,
            wedged: false,
            diverged: None,
            cfg,
        })
    }

    /// Applies every trusted log byte currently on disk in
    /// `checkpoint_threads` lanes, re-bootstrapping internally if
    /// retention truncated below the cursor. Returns when caught up
    /// (possibly with pending torn-tail bytes) or wedged, and only once
    /// every lane has drained.
    ///
    /// Errors are recorded in [`Health`] before being returned; a
    /// transient error leaves the cursor just past the last record handed
    /// to the lanes — all of them applied — so the next poll resumes
    /// exactly there. A record that fails to apply fails this poll and
    /// every later one.
    pub fn poll(&mut self) -> io::Result<StandbyPoll> {
        let mut total_applied = 0u64;
        let mut rebootstrapped = false;
        loop {
            self.health.tail_heartbeat();
            if let Some(diverged) = &self.diverged {
                return Err(io::Error::new(io::ErrorKind::InvalidData, diverged.clone()));
            }
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
            let mut applied_seq = self.applied;
            let mut applied_now = 0u64;
            let lanes = self.dir.checkpoint_threads();
            let fed = replay_feed(self.strategy.as_ref(), &self.registry, lanes, |sink| {
                tailer.poll(&mut |rec| {
                    if rec.seq.0 <= applied_seq {
                        // Already covered by the bootstrap checkpoint (or
                        // by a pre-LostPrefix apply after a re-anchor).
                        return Ok(());
                    }
                    if !sink(rec.clone()) {
                        // A record failed to apply; its error is the one
                        // the poll returns.
                        return Err(io::Error::other("replay stopped"));
                    }
                    applied_seq = rec.seq.0;
                    applied_now += 1;
                    Ok(())
                })
            });
            self.applied = applied_seq;
            self.commits_applied += applied_now;
            total_applied += applied_now;
            let poll = match fed {
                Ok(Ok(p)) => p,
                Ok(Err(e)) => {
                    self.health.record_tail_error(classify(&e), &e);
                    return Err(e);
                }
                Err(e) => {
                    let e = io::Error::new(io::ErrorKind::InvalidData, e.to_string());
                    self.diverged = Some(e.to_string());
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
                // The next iteration returns the wedged poll.
                TailStatus::Wedged => {
                    self.wedged = true;
                    let err = io::Error::new(
                        io::ErrorKind::InvalidData,
                        "torn record in a sealed log segment: tail wedged at the \
                         permanent trust boundary",
                    );
                    self.health.record_tail_exit(ErrorClass::Fatal, &err);
                }
                // Retention deleted the cursor's segment. If the covering
                // chain is ahead of the applied watermark, the truncated
                // segments held commits never applied, all of them (by the
                // truncation invariant) covered by that chain: rebuild from
                // it. Otherwise truncation only removed commits already
                // applied (segments go strictly below a durable full
                // checkpoint's watermark): keep the newer state. Either way
                // no commit is skipped, and the tailer re-anchors to the
                // lowest surviving segment on the next iteration.
                TailStatus::LostPrefix => {
                    self.lost_prefix_events += 1;
                    if self.adopt_chain_if_ahead()? {
                        self.rebootstraps += 1;
                        rebootstrapped = true;
                        self.health.record_standby_lag(self.applied, 0, 0);
                    }
                }
            }
        }
    }

    /// Rebuilds state from the checkpoint chain and adopts it if — and
    /// only if — it materializes past the applied watermark.
    fn adopt_chain_if_ahead(&mut self) -> io::Result<bool> {
        match load_chain(&self.cfg, &self.dir)? {
            (strategy, log, Some(watermark)) if watermark > self.applied => {
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
        // Claims, not a deep scan: the seal needs every cycle's claimed id
        // and watermark, valid or not, and `scan()` would CRC every part.
        let claims = self.dir.claims()?;
        let chain_claim = claims.iter().map(|c| c.watermark.0).max().unwrap_or(0);
        // A claimed watermark ahead of the applied one is usually just the
        // phase-marker seqs a checkpoint consumes, but it may be commits
        // whose log bytes died unsynced and that now live only in the
        // chain. Rebuild, and adopt the chain only if it materializes past
        // the applied watermark: a damaged ancestor makes it fall back to
        // an older prefix, and adopting that would lose commits.
        let promote_rebuilt = chain_claim > self.applied && self.adopt_chain_if_ahead()?;
        let strategy = self.strategy.as_ref();
        seal(&claims, &self.log, strategy, self.applied, true);
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

/// A strategy, its commit log, and the watermark of the chain loaded into
/// it (`None`: the directory holds no loadable full checkpoint).
type Rebuilt = (Arc<dyn CheckpointStrategy>, Arc<CommitLog>, Option<u64>);

/// Loads the newest durable chain into a fresh strategy, then seals it
/// with nothing replayed yet: replay then runs in the checkpoint interval
/// after every claimed cycle, as the primary's commits after its newest
/// checkpoint did. A non-transaction-consistent strategy is refused
/// before anything is read.
fn load_chain(cfg: &StandbyConfig, dir: &CheckpointDir) -> io::Result<Rebuilt> {
    let log = Arc::new(CommitLog::default());
    let strategy = cfg.kind.build(cfg.store.clone(), log.clone());
    if !strategy.transaction_consistent() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            RecoveryError::NotTransactionConsistent(strategy.name()),
        ));
    }
    let watermark = match recover_checkpoint_only(dir, strategy.as_ref()) {
        Ok(outcome) => Some(outcome.watermark.0),
        Err(RecoveryError::NoFullCheckpoint) => None,
        Err(e) => return Err(into_io(e)),
    };
    let (claims, applied) = (dir.claims()?, watermark.unwrap_or(0));
    seal(&claims, &log, strategy.as_ref(), applied, false);
    Ok((strategy, log, watermark))
}

/// A recovery failure as an I/O error: an I/O cause as itself, anything
/// else as `InvalidData`, typed behind `get_ref()`.
fn into_io(e: RecoveryError) -> io::Error {
    match e {
        RecoveryError::Io(e) => e,
        e => io::Error::new(io::ErrorKind::InvalidData, e),
    }
}

/// The one truncated-log rule, for a restart that loaded no checkpoint:
/// the log is the whole history only if it still has its beginning. The
/// writer starts at segment 0, retention removes lowest-first and a
/// restarted writer opens above the highest survivor, so a lowest index
/// above 0 means truncation ran — which it only does below a durable full
/// checkpoint, one that could not be loaded. Replaying the surviving tail
/// onto an empty store would drop acknowledged writes.
pub(crate) fn check_log_complete(dir: &CheckpointDir, log_dir: &Path) -> Result<(), RecoveryError> {
    match list_segments(dir.vfs().as_ref(), log_dir)?.first() {
        Some(&(lowest_segment, _)) if lowest_segment != 0 => Err(RecoveryError::LogTruncated {
            lowest_segment,
            quarantined: dir.quarantined_count(),
        }),
        _ => Ok(()),
    }
}

/// The one seal rule, applied once the store holds everything up to
/// `applied`: resumes the commit-seq and checkpoint-id spaces above every
/// cycle `claims` lists.
///
/// The seq space is sealed above both the applied state and every
/// *claimed* watermark: even a cycle that cannot be loaded consumed those
/// seqs, and the engine must never reissue them. The ids resume above
/// every claimed id. If `replayed` — the store holds commits stamped in
/// the log's current interval — the next id keeps that interval's parity:
/// partial strategies queue dirty marks and tombstones into buffers
/// indexed by interval parity, so the first partial capture must land on
/// the same parity, or what was replayed before it would wait one extra
/// cycle — and a crash in that window would lose it. Skipping an id is
/// legal (failed cycles consume ids too).
pub(crate) fn seal(
    claims: &[CheckpointClaim],
    log: &CommitLog,
    strategy: &dyn CheckpointStrategy,
    applied: u64,
    replayed: bool,
) {
    let sealed_seq = claims.iter().map(|c| c.watermark.0).fold(applied, u64::max);
    let mut next_id = claims.iter().map(|c| c.id + 1).max().unwrap_or(0);
    if replayed && next_id & 1 != log.current_stamp().cycle & 1 {
        next_id += 1;
    }
    log.advance_to(CommitSeq(sealed_seq), next_id);
    strategy.resume_checkpoint_ids(next_id);
}
