//! Checkpoint loading and command-log replay, both in per-key lanes on
//! `dir.checkpoint_threads()` threads (see the `lanes` module: a key's lane
//! is the index's shard mix, so lanes never share a shard).
//!
//! **Loading** installs the recovery chain straight from the part readers,
//! reading each part once: the chain comes from the manifests alone
//! ([`CheckpointDir::restart_chain`]) and is walked **newest first** —
//! last partial … first partial, full. A cycle's parts are read in
//! parallel, each checked against its manifest entry as it streams
//! ([`CheckpointMeta::open_part`], then every frame's CRC and the footer's),
//! and each value goes to its key's lane, which installs it with
//! [`CheckpointStrategy::load_batch`]. A key the store already holds was
//! decided by a newer cycle and is skipped before it takes a slot; a
//! cycle's tombstones join the set of dead keys once all of its parts are
//! in, and a value whose key is dead is skipped. No intermediate map or
//! entry list is built: the store is the only copy. A part that fails to
//! read condemns its whole cycle, as a snapshot with a hole would: the
//! cycle is quarantined, the store emptied ([`CheckpointStrategy::clear`];
//! a restarting node serves nothing yet) and the chain the catalog now
//! yields loaded in its place, until one loads or none is left. No cycle
//! outside the chain is opened.
//!
//! **Replay** has one driver, [`replay_feed`], which takes its commands
//! from a feed: [`recover_streamed`] feeds it an iterator, a standby's poll
//! feeds it what `LogTailer::poll` reads. It follows each command's
//! declared lock footprint
//! ([`Procedure::locks`]): if every key maps to one lane, the command joins
//! that lane's FIFO; if its keys span lanes, or `locks` fails, it is a
//! barrier — every lane drains, the command is applied alone, and replay
//! continues. The argument is the executor's ordered 2PL: two transactions
//! that conflict are serialized through a lock key they share, and the log
//! holds them in that order. So two commands that share a lock key share a
//! lane (whose FIFO keeps their log order) or are split by a barrier, and
//! two that share none touched no common record — a procedure touches only
//! what it locks or what a lock it holds guards (TPC-C's order keys,
//! derived under the district lock) — so their relative order cannot
//! change the result. The driver thread routes the commands, applies lane
//! 0's batches and the barriers, so a log in which every command is a
//! barrier wakes no lane thread; with one thread it applies everything
//! itself, in log order. A failure to apply is permanent: the feed is told
//! to stop, and the first failure in log order is returned. Every lane has
//! drained before the driver returns, `Ok` or `Err`, so a poll never
//! returns with a record it read still unapplied. Each footprint is
//! computed once, when the command is routed; the apply hands it to
//! [`CheckpointStrategy::prefetch`] first, as the executor does, so a
//! command's records are fetched together.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use calc_common::types::{CommitSeq, Key};
use calc_core::file::RecordRef;
use calc_core::manifest::{CheckpointDir, CheckpointMeta, RestartChain};
use calc_core::strategy::{CheckpointStrategy, Footprint, TxnToken};
use calc_txn::commitlog::CommitRecord;
#[cfg(doc)]
use calc_txn::proc::Procedure;
use calc_txn::proc::{LockRequest, ProcRegistry, TxnOps};

use crate::lanes::{key_lane, Driver, LanePool, LANE_BATCH};

/// Why recovery failed.
#[derive(Debug)]
pub enum RecoveryError {
    /// No valid full checkpoint exists in the directory.
    NoFullCheckpoint,
    /// No checkpoint could be loaded and the command log no longer has its
    /// beginning: retention truncated the segments a checkpoint covered,
    /// and that checkpoint is now unreadable. Replaying the surviving tail
    /// onto an empty store would silently drop acknowledged writes.
    LogTruncated {
        /// Lowest command-log segment index still on disk (the log starts
        /// at segment 0).
        lowest_segment: u64,
        /// Checkpoint files this recovery attempt quarantined as corrupt.
        quarantined: u64,
    },
    /// The strategy's checkpoints are not transaction-consistent (Fuzzy):
    /// without a physical redo log they cannot be recovered into a
    /// consistent state — the paper's core argument (§2.1).
    NotTransactionConsistent(&'static str),
    /// A replayed procedure id is not registered.
    UnknownProcedure(u16),
    /// A replayed procedure aborted — impossible under determinism unless
    /// the log or registry is wrong.
    ReplayDiverged(String),
    /// I/O error reading checkpoints.
    Io(std::io::Error),
    /// Store error while loading.
    Store(calc_storage::dual::StoreError),
    /// The strategy handed to the loader already holds records. The
    /// loader keeps the first value it installs for a key (the newest
    /// cycle's), which is only right into an empty store: a resident
    /// record would silently win over the whole chain.
    StrategyNotEmpty {
        /// Records the strategy held.
        records: usize,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::NoFullCheckpoint => write!(f, "no valid full checkpoint found"),
            RecoveryError::LogTruncated { lowest_segment, quarantined } => write!(
                f,
                "no loadable checkpoint ({quarantined} checkpoint files quarantined) and the \
                 command log starts at segment {lowest_segment}, not 0: the truncated prefix \
                 existed only in the lost checkpoint"
            ),
            RecoveryError::NotTransactionConsistent(name) => write!(
                f,
                "{name} checkpoints are not transaction-consistent and cannot be \
                 recovered without a database log"
            ),
            RecoveryError::UnknownProcedure(id) => write!(f, "unknown procedure id {id}"),
            RecoveryError::ReplayDiverged(m) => write!(f, "replay diverged: {m}"),
            RecoveryError::Io(e) => write!(f, "io error: {e}"),
            RecoveryError::Store(e) => write!(f, "store error: {e}"),
            RecoveryError::StrategyNotEmpty { records } => write!(
                f,
                "checkpoints load into an empty strategy only; this one holds {records} records"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<calc_storage::dual::StoreError> for RecoveryError {
    fn from(e: calc_storage::dual::StoreError) -> Self {
        RecoveryError::Store(e)
    }
}

/// Per-phase progress breakdown of a recovery run (perfbench's traced
/// `recovery_layers` probe reports it).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// The one pass over the loaded chain: every part read, CRC-checked
    /// and streamed into the store, summed over cycles (a chain that
    /// failed part-way before it is in `load_duration` only).
    pub part_load: Duration,
    /// The residue between cycles — folding each cycle's tombstones into
    /// the dead-key set (≈ 0; nothing is merged).
    pub merge: Duration,
    /// Command-log replay, wall time across all lanes.
    pub replay: Duration,
    /// Part files read.
    pub parts_loaded: usize,
    /// `dir.checkpoint_threads()` at restart: the cap on the workers that
    /// loaded a cycle's parts, and the number of replay lanes.
    pub threads: usize,
}

/// What recovery accomplished.
#[derive(Clone, Debug)]
pub struct RecoveryOutcome {
    /// Records loaded from checkpoints.
    pub loaded_records: u64,
    /// Checkpoints read (1 full + N partials).
    pub checkpoint_files: usize,
    /// The watermark recovery resumed from.
    pub watermark: CommitSeq,
    /// Transactions replayed from the command log.
    pub replayed: u64,
    /// Time spent loading checkpoints, any chain that failed to read and
    /// was quarantined included — the "recovery time" annotated on
    /// Figure 4(b).
    pub load_duration: Duration,
    /// Time spent replaying (wall time).
    pub replay_duration: Duration,
    /// Per-phase breakdown.
    pub stats: RecoveryStats,
}

/// Lock-free execution bridge: routes a procedure's data operations
/// straight to the strategy (no locks — the caller orders transactions
/// that touch a common key: replay by its lanes, the serial primaries of
/// the simulation and replication harnesses by running one at a time),
/// through the same resolved [`Footprint`] the executor's bridge uses.
pub struct ReplayOps<'a> {
    /// The running transaction's token, from `strategy.txn_begin()`.
    pub token: TxnToken,
    /// The first storage error an operation hit, if any.
    pub failed: Option<String>,
    /// The strategy and the declared keys' slots; empty (every key
    /// looked up) unless the caller resolves them.
    pub footprint: Footprint<'a>,
    /// Where writes put the previous values replay never rolls back to.
    old: Vec<u8>,
}

impl<'a> ReplayOps<'a> {
    /// A bridge over a transaction just begun on `strategy`.
    pub fn new(strategy: &'a dyn CheckpointStrategy) -> Self {
        ReplayOps {
            token: strategy.txn_begin(),
            ..Self::idle(strategy)
        }
    }

    /// A bridge with no transaction begun: a replay lane's, which each
    /// command it applies runs on in turn, reusing its buffers (the
    /// footprint's keys and slots, the previous values), as an executor
    /// worker reuses its scratch.
    fn idle(strategy: &'a dyn CheckpointStrategy) -> Self {
        ReplayOps {
            token: TxnToken::default(),
            failed: None,
            footprint: Footprint::new(strategy),
            old: Vec::new(),
        }
    }
}

impl TxnOps for ReplayOps<'_> {
    fn get_with(&mut self, key: Key, read: &mut dyn FnMut(&[u8])) -> bool {
        self.footprint.get_with(key, read)
    }

    fn put(&mut self, key: Key, value: &[u8]) {
        self.old.clear();
        if let Err(e) = self.footprint.write(&mut self.token, key, value, &mut self.old) {
            self.failed = Some(format!("put {key}: {e}"));
        }
    }

    fn insert(&mut self, key: Key, value: &[u8]) -> bool {
        match self.footprint.insert(&mut self.token, key, value) {
            Ok(ok) => ok,
            Err(e) => {
                self.failed = Some(format!("insert {key}: {e}"));
                false
            }
        }
    }

    fn delete(&mut self, key: Key) -> bool {
        self.old.clear();
        self.footprint.delete(&mut self.token, key, &mut self.old).is_ok()
    }
}

/// Loads the newest recovery chain into a **fresh** strategy instance
/// (checkpoint-only mode, paper use cases 1–2 of §1); a strategy that
/// already holds records is refused. Each part is read once, checked as it
/// streams into the store (see the module docs); a cycle that fails to
/// read is quarantined and the next chain loaded into the emptied store.
/// No full checkpoint left to load is [`RecoveryError::NoFullCheckpoint`].
pub fn recover_checkpoint_only(
    dir: &CheckpointDir,
    strategy: &dyn CheckpointStrategy,
) -> Result<RecoveryOutcome, RecoveryError> {
    load_newest_chain(dir, strategy)?.ok_or(RecoveryError::NoFullCheckpoint)
}

/// The one chain load behind every restart, standby bootstrap included:
/// installs the chain [`CheckpointDir::restart_chain`] picks, and while a
/// part of it fails to read, quarantines that part's cycle, empties the
/// store ([`CheckpointStrategy::clear`]) and installs the chain the catalog
/// yields without it. `None`: the directory holds no cycle at all (or
/// none survived), a log-only cold start. The directory's parent link is
/// adopted from the cycles that survived the load.
fn load_newest_chain(
    dir: &CheckpointDir,
    strategy: &dyn CheckpointStrategy,
) -> Result<Option<RecoveryOutcome>, RecoveryError> {
    let start = Instant::now();
    let mut chain = dir.restart_chain()?;
    // First-installed-wins is only right into an empty store: a resident
    // record would silently win over the whole chain.
    let records = strategy.record_count();
    if records != 0 && matches!(chain, RestartChain::Chain(..)) {
        return Err(RecoveryError::StrategyNotEmpty { records });
    }
    let loaded = loop {
        let (full, partials) = match chain {
            RestartChain::Chain(full, partials) => (full, partials),
            RestartChain::Empty => break Ok(None),
            RestartChain::NoFull => break Err(RecoveryError::NoFullCheckpoint),
        };
        match install_chain(dir, strategy, &full, &partials, start) {
            Ok(outcome) => break Ok(Some(outcome)),
            Err(ChainFault::Unreadable(cycle)) => chain = dir.quarantine_cycle(cycle),
            Err(ChainFault::Refused(e)) => break Err(e),
        }
        // Seeded bug for the fallback oracle's self-test: the next chain
        // loads over what the failed one installed.
        #[cfg(feature = "mutation-hooks")]
        if calc_common::mutation::armed(calc_common::mutation::Mutation::SkipClearOnFallback) {
            continue;
        }
        strategy.clear();
    };
    dir.adopt_published_manifests();
    loaded
}

/// Why a chain did not install.
enum ChainFault<'c> {
    /// A part of this cycle failed to open or read: the cycle is condemned.
    Unreadable(&'c CheckpointMeta),
    /// The store refused the load; no other chain would fare better.
    Refused(RecoveryError),
}

/// Installs a chain into an empty store, newest cycle first; `start` is
/// when the restart began, so the outcome's `load_duration` covers any
/// chain that failed before this one.
fn install_chain<'c>(
    dir: &CheckpointDir,
    strategy: &dyn CheckpointStrategy,
    full: &'c CheckpointMeta,
    partials: &'c [CheckpointMeta],
    start: Instant,
) -> Result<RecoveryOutcome, ChainFault<'c>> {
    let threads = dir.checkpoint_threads();
    let mut newest_first: Vec<&CheckpointMeta> = partials.iter().rev().collect();
    newest_first.push(full);
    // Seeded bug for the restart oracles' self-test: first-installed-wins
    // over the chain walked oldest first, so a stale value beats its
    // successor.
    #[cfg(feature = "mutation-hooks")]
    if calc_common::mutation::armed(calc_common::mutation::Mutation::OldestWinsOnLoad) {
        newest_first.reverse();
    }

    let mut stats = RecoveryStats {
        threads,
        ..RecoveryStats::default()
    };
    let installed = AtomicU64::new(0);
    let refused = Mutex::new(None);
    let unreadable = AtomicBool::new(false);
    // Keys a newer cycle deleted (and did not re-create), and the current
    // cycle's tombstones, folded in only once all of its parts are in:
    // within a cycle a tombstone precedes the key's re-insertion, so the
    // cycle's own values are not to be shadowed.
    let dead = RwLock::new(HashSet::new());
    let tombstones = Mutex::new(Vec::new());
    let next_part = AtomicUsize::new(0);
    let load = |lanes: &LanePool<Load>, lane: usize, job: Load| match job {
        // Claims the cycle's parts one at a time until none is left or
        // one has failed to read.
        Load::Parts(cycle) => {
            while !unreadable.load(Ordering::Relaxed) {
                let k = next_part.fetch_add(1, Ordering::Relaxed);
                if k >= cycle.parts.len() {
                    break;
                }
                match read_part(dir, cycle, k, &dead.read(), lanes, lane) {
                    Ok(keys) => tombstones.lock().extend(keys),
                    Err(_) => unreadable.store(true, Ordering::Relaxed),
                }
            }
        }
        Load::Batch(batch) => match batch.install(strategy) {
            Ok(n) => {
                installed.fetch_add(n, Ordering::Relaxed);
            }
            Err(e) => {
                refused.lock().get_or_insert(e);
            }
        },
    };
    LanePool::run(threads, &load, |lanes| {
        for cycle in newest_first {
            let load_start = Instant::now();
            next_part.store(0, Ordering::Relaxed);
            // Every lane reads; the driver (lane 0) starts last.
            for lane in (0..lanes.lanes()).rev() {
                lanes.send(lane, Load::Parts(cycle));
            }
            lanes.drain();
            stats.part_load += load_start.elapsed();
            stats.parts_loaded += cycle.parts.len();
            if let Some(e) = refused.lock().take() {
                return Err(ChainFault::Refused(e));
            }
            if unreadable.load(Ordering::Relaxed) {
                return Err(ChainFault::Unreadable(cycle));
            }
            let fold_start = Instant::now();
            dead.write().extend(tombstones.lock().drain(..));
            stats.merge += fold_start.elapsed();
        }
        Ok(())
    })?;
    Ok(RecoveryOutcome {
        loaded_records: installed.into_inner(),
        checkpoint_files: 1 + partials.len(),
        watermark: partials.last().map_or(full.watermark, |p| p.watermark),
        replayed: 0,
        load_duration: start.elapsed(),
        replay_duration: Duration::ZERO,
        stats,
    })
}

/// A job of the chain install: read the cycle's parts, claimed one at a
/// time, until none is left; or install a batch of one lane's values.
enum Load<'c> {
    Parts(&'c CheckpointMeta),
    Batch(LoadBuffer),
}

/// Reads part `k` of `cycle` on `lane`'s thread, checked against its
/// manifest entry as it streams ([`CheckpointMeta::open_part`]: digest and
/// header at open, each frame's CRC where it lies, the footer's at the
/// last record): every value whose key is not dead goes, [`LANE_BATCH`]
/// at a time, to its key's lane — installed here if that is `lane`, while
/// what other lanes hand this one is installed in between. The tombstones
/// are handed back. An error leaves what was handed off installed; the
/// caller empties the store.
fn read_part(
    dir: &CheckpointDir,
    cycle: &CheckpointMeta,
    k: usize,
    dead: &HashSet<Key>,
    lanes: &LanePool<Load>,
    lane: usize,
) -> std::io::Result<Vec<Key>> {
    let mut reader = cycle.open_part(dir.vfs().as_ref(), k)?;
    let mut batches: Vec<LoadBuffer> = (0..lanes.lanes()).map(|_| LoadBuffer::default()).collect();
    let mut tombstones = Vec::new();
    while let Some(record) = reader.next_borrowed()? {
        match record {
            RecordRef::Tombstone(key) => tombstones.push(key),
            RecordRef::Value(key, _) if dead.contains(&key) => {}
            RecordRef::Value(key, value) => {
                let to = key_lane(key, batches.len());
                batches[to].push(key, value);
                if batches[to].ends.len() == LANE_BATCH {
                    lanes.send(lane, to, Load::Batch(std::mem::take(&mut batches[to])));
                    lanes.help(lane);
                }
            }
        }
    }
    for (to, batch) in batches.into_iter().enumerate() {
        if !batch.ends.is_empty() {
            lanes.send(lane, to, Load::Batch(batch));
        }
    }
    Ok(tombstones)
}

/// Values copied out of the reader's buffer (valid for one record only)
/// until a batch is full: every key with the end of its value in `bytes`.
#[derive(Default)]
struct LoadBuffer {
    ends: Vec<(Key, usize)>,
    bytes: Vec<u8>,
}

impl LoadBuffer {
    fn push(&mut self, key: Key, value: &[u8]) {
        self.bytes.extend_from_slice(value);
        self.ends.push((key, self.bytes.len()));
    }

    /// Hands the buffered records to the store.
    fn install(&self, strategy: &dyn CheckpointStrategy) -> Result<u64, RecoveryError> {
        let mut start = 0;
        let records: Vec<(Key, &[u8])> = self
            .ends
            .iter()
            .map(|&(key, end)| (key, &self.bytes[std::mem::replace(&mut start, end)..end]))
            .collect();
        Ok(strategy.load_batch(&records)? as u64)
    }
}

/// Deterministically re-applies one committed record through the
/// registry, stamping the commit with the strategy's *current* phase
/// stamp. This is the single-record unit [`replay_feed`]'s lanes apply,
/// exposed so a harness can drive a serial primary with the same
/// semantics.
pub fn apply_commit(
    strategy: &dyn CheckpointStrategy,
    registry: &ProcRegistry,
    rec: &CommitRecord,
) -> Result<(), RecoveryError> {
    let footprint = footprint(registry, rec);
    apply_footprint(strategy, registry, rec, footprint.as_ref(), &mut ReplayOps::idle(strategy))
}

/// `rec`'s declared lock footprint, or `None` if its procedure is unknown
/// or `locks` fails.
fn footprint(registry: &ProcRegistry, rec: &CommitRecord) -> Option<LockRequest> {
    registry.get(rec.proc)?.locks(&rec.params).ok()
}

/// [`apply_commit`] with `rec`'s footprint already computed, run on the
/// idle bridge `ops`: its keys are resolved to their slots once and
/// prefetched before the procedure runs (executor and replay reach a
/// transaction's records the same way).
fn apply_footprint<'a>(
    strategy: &'a dyn CheckpointStrategy,
    registry: &ProcRegistry,
    rec: &CommitRecord,
    footprint: Option<&LockRequest>,
    ops: &mut ReplayOps<'a>,
) -> Result<(), RecoveryError> {
    let proc = registry
        .get(rec.proc)
        .ok_or(RecoveryError::UnknownProcedure(rec.proc.0))?;
    ops.token = strategy.txn_begin();
    // No declared footprint: every access looks its key up.
    ops.footprint.resolve(footprint.unwrap_or(&LockRequest::default()));
    let result = proc.run(&rec.params, ops);
    let (mut token, failed) = (std::mem::take(&mut ops.token), ops.failed.take());
    match (result, failed) {
        (Ok(()), None) => {
            // Replay does not re-append to a commit log, but the commit
            // stamp must be the strategy's CURRENT stamp (not a
            // hardcoded cycle 0): partial strategies dirty-mark the
            // stamp's checkpoint interval, and if the caller has already
            // resumed the id space past the pre-crash files, marks in a
            // stale interval would leave the next partial checkpoint
            // missing every replayed write while its watermark claims
            // to cover them — silent data loss on the next crash.
            let stamp = token.stamp;
            strategy.on_commit(&mut token, rec.seq, stamp);
            strategy.txn_end(token);
            Ok(())
        }
        (Err(e), _) => {
            // A deterministic abort also happened (identically) before
            // the crash, so the original never committed… except it IS
            // in the commit log. Divergence.
            strategy.txn_end(token);
            Err(RecoveryError::ReplayDiverged(format!("{}: {e}", rec.txn)))
        }
        (Ok(()), Some(msg)) => {
            strategy.txn_end(token);
            Err(RecoveryError::ReplayDiverged(format!("{}: {msg}", rec.txn)))
        }
    }
}

/// Full recovery: load the newest chain, then deterministically replay
/// `commands` (commit records with `seq > watermark`, in order) through
/// the registry. Refuses non-transaction-consistent strategies.
///
/// A directory with NO checkpoints at all is a valid cold start (a crash
/// before the first checkpoint completed): recovery proceeds log-only,
/// replaying every command from the empty state. Checkpoints present but
/// no full one is still [`RecoveryError::NoFullCheckpoint`] — that chain
/// is broken, not merely young.
pub fn recover(
    dir: &CheckpointDir,
    strategy: &dyn CheckpointStrategy,
    registry: &ProcRegistry,
    commands: &[CommitRecord],
) -> Result<RecoveryOutcome, RecoveryError> {
    recover_streamed(dir, strategy, registry, commands.iter().cloned().map(Ok))
}

/// [`recover`] over a fallible command iterator, fed to [`replay_feed`]:
/// an `Err` item (a log read failure) aborts recovery with
/// [`RecoveryError::Io`].
pub fn recover_streamed(
    dir: &CheckpointDir,
    strategy: &dyn CheckpointStrategy,
    registry: &ProcRegistry,
    commands: impl IntoIterator<Item = std::io::Result<CommitRecord>>,
) -> Result<RecoveryOutcome, RecoveryError> {
    if !strategy.transaction_consistent() {
        return Err(RecoveryError::NotTransactionConsistent(strategy.name()));
    }
    // Log-only cold start: no checkpoint ever completed, so the log alone
    // carries the whole history and replay starts from empty.
    let mut outcome = load_newest_chain(dir, strategy)?.unwrap_or(RecoveryOutcome {
        loaded_records: 0,
        checkpoint_files: 0,
        watermark: CommitSeq::ZERO,
        replayed: 0,
        load_duration: Duration::ZERO,
        replay_duration: Duration::ZERO,
        stats: RecoveryStats::default(),
    });
    let threads = dir.checkpoint_threads();
    let replay_start = Instant::now();
    let watermark = outcome.watermark;
    let mut replayed = 0;
    replay_feed(strategy, registry, threads, |sink| {
        for rec in commands {
            let rec = rec?;
            if rec.seq <= watermark {
                continue; // already reflected in the checkpoint
            }
            if !sink(rec) {
                break;
            }
            replayed += 1;
        }
        Ok::<_, std::io::Error>(())
    })??;
    outcome.replayed = replayed;
    outcome.replay_duration = replay_start.elapsed();
    outcome.stats.replay = outcome.replay_duration;
    outcome.stats.threads = threads;
    Ok(outcome)
}

/// The one lane driver (see module docs), behind [`recover_streamed`] and
/// the standby's poll: replays every command `feed` hands its sink, in
/// order, on `threads` lanes, and returns what `feed` returned. The sink
/// answers `false` once a command has failed to apply, and the feed should
/// stop. Every lane has drained when this returns, and the first apply
/// failure in feed order, if any, is returned instead of the feed's value.
pub fn replay_feed<T>(
    strategy: &dyn CheckpointStrategy,
    registry: &ProcRegistry,
    threads: usize,
    feed: impl FnOnce(&mut dyn FnMut(CommitRecord) -> bool) -> T,
) -> Result<T, RecoveryError> {
    let replay = Replay {
        strategy,
        registry,
        stop_at: AtomicU64::new(u64::MAX),
        failed: Mutex::new(None),
    };
    let apply = |_: &LanePool<Vec<Entry>>, _: usize, batch: Vec<Entry>| replay.apply(&batch);
    let fed = LanePool::run(threads, &apply, |lanes| replay.drive(lanes, feed));
    match replay.failed.into_inner() {
        Some((_, e)) => Err(e),
        None => Ok(fed),
    }
}

/// A command, its position in the feed (which orders failures) and its
/// declared footprint, computed once when it is routed.
type Entry = (u64, CommitRecord, Option<LockRequest>);

/// What the replay driver and the lanes share (see module docs).
struct Replay<'a> {
    strategy: &'a dyn CheckpointStrategy,
    registry: &'a ProcRegistry,
    /// Feed position of the earliest failure so far: no lane applies a
    /// command past it.
    stop_at: AtomicU64,
    failed: Mutex<Option<(u64, RecoveryError)>>,
}

impl Replay<'_> {
    /// The driver: routes each command the feed hands it to its lane's
    /// pending batch, hands full batches off, and turns every barrier into
    /// drain + apply; drains once more when the feed returns.
    fn drive<T>(
        &self,
        lanes: &Driver<'_, '_, '_, Vec<Entry>>,
        feed: impl FnOnce(&mut dyn FnMut(CommitRecord) -> bool) -> T,
    ) -> T {
        let mut pending: Vec<Vec<Entry>> = (0..lanes.lanes()).map(|_| Vec::new()).collect();
        let mut pos = 0u64;
        let fed = feed(&mut |rec: CommitRecord| {
            if self.stop_at.load(Ordering::Relaxed) != u64::MAX {
                return false;
            }
            let footprint = footprint(self.registry, &rec);
            match Self::lane_of(footprint.as_ref(), lanes.lanes()) {
                Some(lane) => {
                    pending[lane].push((pos, rec, footprint));
                    if pending[lane].len() == LANE_BATCH {
                        lanes.send(lane, std::mem::take(&mut pending[lane]));
                    }
                }
                None => {
                    self.barrier(lanes, &mut pending);
                    self.apply(&[(pos, rec, footprint)]);
                }
            }
            pos += 1;
            true
        });
        self.barrier(lanes, &mut pending);
        fed
    }

    /// The lanes apply what they were handed, then the driver applies what
    /// it still holds (lanes share no keys, so their order does not
    /// matter).
    fn barrier(&self, lanes: &Driver<'_, '_, '_, Vec<Entry>>, pending: &mut [Vec<Entry>]) {
        lanes.drain();
        pending
            .iter_mut()
            .for_each(|batch| self.apply(&std::mem::take(batch)));
    }

    /// The lane every lock key of a command's `footprint` maps to, or
    /// `None` for a barrier (as is a command whose footprint is unknown).
    fn lane_of(footprint: Option<&LockRequest>, lanes: usize) -> Option<usize> {
        if lanes == 1 {
            return Some(0);
        }
        let locks = footprint?;
        let mut keys = locks.writes.iter().chain(&locks.reads);
        let first = key_lane(*keys.next()?, lanes);
        if keys.all(|&key| key_lane(key, lanes) == first) {
            return Some(first);
        }
        // Seeded bug for the replay oracle's self-test: a command that
        // spans lanes runs in its first key's lane, unordered against
        // the other lanes' commands on its keys.
        #[cfg(feature = "mutation-hooks")]
        if calc_common::mutation::armed(calc_common::mutation::Mutation::SkipLaneBarrier) {
            return Some(first);
        }
        None
    }

    /// Applies `batch` in order, up to the first failure (or the earliest
    /// one another lane has recorded), on one bridge.
    fn apply(&self, batch: &[Entry]) {
        let mut ops = ReplayOps::idle(self.strategy);
        for (pos, rec, footprint) in batch {
            if *pos > self.stop_at.load(Ordering::Relaxed) {
                return;
            }
            let footprint = footprint.as_ref();
            if let Err(e) = apply_footprint(self.strategy, self.registry, rec, footprint, &mut ops) {
                let mut failed = self.failed.lock();
                if !matches!(&*failed, Some((first, _)) if first < pos) {
                    *failed = Some((*pos, e));
                }
                self.stop_at.fetch_min(*pos, Ordering::Relaxed);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_core::calc::CalcStrategy;
    use calc_core::manifest::CheckpointDir;
    use calc_core::strategy::NoopEnv;
    use calc_core::throttle::Throttle;
    use calc_storage::dual::StoreConfig;
    use calc_txn::commitlog::CommitLog;
    use calc_testkit::{registry, set_u64, SetProc, SET};
    use calc_txn::proc::Procedure;
    use calc_common::types::TxnId;
    use std::sync::Arc;

    fn dir(name: &str) -> CheckpointDir {
        let d = calc_testkit::temp_dir(name);
        CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
    }

    /// Runs one `SET` on the primary and returns its command-log record.
    fn run_set(strategy: &CalcStrategy, log: &CommitLog, key: u64, val: u64) -> CommitRecord {
        let proc = SetProc;
        let p = set_u64(key, val);
        let mut ops = ReplayOps::new(strategy);
        proc.run(&p, &mut ops).unwrap();
        assert!(ops.failed.is_none());
        let mut token = ops.token;
        let (seq, stamp) = log.append_commit();
        strategy.on_commit(&mut token, seq, stamp);
        strategy.txn_end(token);
        CommitRecord {
            seq,
            txn: TxnId(key * 100 + val),
            proc: SET,
            params: p,
        }
    }

    #[test]
    fn checkpoint_then_replay_reconstructs_state() {
        let log = Arc::new(CommitLog::default());
        let mut commands = Vec::new();
        let primary = CalcStrategy::full(StoreConfig::for_records(256, 16), log.clone());
        let d = dir("replay");

        // 10 pre-checkpoint transactions.
        for k in 0..10 {
            commands.push(run_set(&primary, &log, k, k * 2));
        }
        let stats = primary.checkpoint(&NoopEnv, &d).unwrap();
        // 5 post-checkpoint transactions (3 new keys, 2 overwrites).
        for k in 8..13 {
            commands.push(run_set(&primary, &log, k, 1000 + k));
        }

        // Crash. Fresh strategy + recovery.
        let registry = registry();
        let recovered = CalcStrategy::full(
            StoreConfig::for_records(256, 16),
            Arc::new(CommitLog::default()),
        );
        let outcome = recover(&d, &recovered, &registry, &commands).unwrap();
        assert_eq!(outcome.loaded_records, 10);
        assert_eq!(outcome.replayed, 5);
        assert_eq!(outcome.watermark, stats.watermark);

        // Recovered state must equal primary state.
        for k in 0..13u64 {
            assert_eq!(
                recovered.get(Key(k)),
                primary.get(Key(k)),
                "key {k} diverged"
            );
        }
        assert_eq!(recovered.record_count(), primary.record_count());
    }

    /// ISSUE satellite: a torn write on ONE part of the newest full
    /// checkpoint must quarantine the WHOLE cycle (every part plus its
    /// manifest — a partially-valid part set is not a checkpoint) and
    /// fall back to the previous full, paying with a longer command-log
    /// replay — and lose nothing.
    #[test]
    fn torn_part_quarantines_cycle_and_falls_back_to_previous_full() {
        let log = Arc::new(CommitLog::default());
        let mut commands = Vec::new();
        let primary = CalcStrategy::full(StoreConfig::for_records(256, 16), log.clone());
        let d = dir("tornpart");
        d.set_checkpoint_threads(4);

        for k in 0..10 {
            commands.push(run_set(&primary, &log, k, k * 2));
        }
        let first = primary.checkpoint(&NoopEnv, &d).unwrap();
        for k in 10..15 {
            commands.push(run_set(&primary, &log, k, 1000 + k));
        }
        let second = primary.checkpoint(&NoopEnv, &d).unwrap();
        assert_eq!(second.parts, 4);
        for k in 15..18 {
            commands.push(run_set(&primary, &log, k, 2000 + k));
        }

        // Tear one part of the newest full: drop its tail (footer and
        // some records gone) — as if the disk lost the unsynced end.
        let torn = d.path().join("ckpt-0000000001-full.part-2");
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

        let registry = registry();
        let recovered = CalcStrategy::full(
            StoreConfig::for_records(256, 16),
            Arc::new(CommitLog::default()),
        );
        let outcome = recover(&d, &recovered, &registry, &commands).unwrap();

        // Fell back to full #0: 10 loaded records, the older watermark,
        // and the 8 post-#0 transactions recovered via replay instead.
        assert_eq!(outcome.loaded_records, 10);
        assert_eq!(outcome.watermark, first.watermark);
        assert_eq!(outcome.replayed, 8);
        // The whole cycle is set aside: 4 parts + the manifest, including
        // the three parts whose own checksums were fine.
        assert_eq!(d.quarantined_count(), 5);
        for name in [
            "ckpt-0000000001-full.manifest.quarantine",
            "ckpt-0000000001-full.part-0.quarantine",
            "ckpt-0000000001-full.part-1.quarantine",
            "ckpt-0000000001-full.part-2.quarantine",
            "ckpt-0000000001-full.part-3.quarantine",
        ] {
            assert!(d.path().join(name).exists(), "{name} not set aside");
        }
        for k in 0..18u64 {
            assert_eq!(
                recovered.get(Key(k)),
                primary.get(Key(k)),
                "key {k} diverged after fallback"
            );
        }
        assert_eq!(recovered.record_count(), primary.record_count());
    }

    /// A single-part chain loads through the same sharded loader as a
    /// multi-part one: more load threads than parts, tombstone applied
    /// ahead of the values.
    #[test]
    fn single_part_chain_recovers_on_more_threads_than_parts() {
        use calc_core::file::CheckpointKind;
        use calc_core::partition::capture_parts;
        let d = dir("onepart");
        d.set_checkpoint_threads(4);
        capture_parts(&d, CheckpointKind::Full, 0, CommitSeq(10), &[], 1, |_, w, _| {
            (0..50u64).try_for_each(|k| w.write_record(Key(k), &k.to_le_bytes()))
        })
        .unwrap();
        capture_parts(&d, CheckpointKind::Partial, 1, CommitSeq(20), &[Key(7)], 1, |_, w, _| {
            w.write_record(Key(3), b"patched")
        })
        .unwrap();

        let recovered = CalcStrategy::full(
            StoreConfig::for_records(256, 16),
            Arc::new(CommitLog::default()),
        );
        let outcome = recover_checkpoint_only(&d, &recovered).unwrap();
        assert_eq!(outcome.loaded_records, 49);
        assert_eq!(outcome.stats.parts_loaded, 2);
        assert_eq!(outcome.stats.threads, 4);
        assert_eq!(outcome.watermark, CommitSeq(20));
        assert!(recovered.get(Key(7)).is_none());
        assert_eq!(recovered.get(Key(3)).as_deref(), Some(&b"patched"[..]));
        assert_eq!(recovered.get(Key(42)), Some(42u64.to_le_bytes().into()));
    }

    #[test]
    fn checkpoint_only_loses_post_checkpoint_txns() {
        let log = Arc::new(CommitLog::default());
        let primary = CalcStrategy::full(StoreConfig::for_records(64, 16), log.clone());
        let d = dir("ckptonly");
        for k in 0..5 {
            run_set(&primary, &log, k, k);
        }
        primary.checkpoint(&NoopEnv, &d).unwrap();
        run_set(&primary, &log, 99, 99);

        let recovered = CalcStrategy::full(
            StoreConfig::for_records(64, 16),
            Arc::new(CommitLog::default()),
        );
        let outcome = recover_checkpoint_only(&d, &recovered).unwrap();
        assert_eq!(outcome.loaded_records, 5);
        assert!(recovered.get(Key(99)).is_none(), "post-checkpoint txn lost");
        assert_eq!(recovered.get(Key(3)).unwrap(), 3u64.to_le_bytes().into());
    }

    /// A crash before the FIRST checkpoint ever completes leaves a bare
    /// directory plus a command log — full recovery must cold-start from
    /// empty state and replay the whole log, not refuse. (The kill-9
    /// smoke hits exactly this window on a freshly started server.)
    #[test]
    fn log_only_cold_start_replays_everything_from_empty() {
        let log = Arc::new(CommitLog::default());
        let mut commands = Vec::new();
        let primary = CalcStrategy::full(StoreConfig::for_records(64, 16), log.clone());
        let d = dir("coldstart");
        for k in 0..7 {
            commands.push(run_set(&primary, &log, k, 10 + k));
        }
        // No checkpoint was ever taken: the directory holds zero cycles.

        let registry = registry();
        let recovered = CalcStrategy::full(
            StoreConfig::for_records(64, 16),
            Arc::new(CommitLog::default()),
        );
        let outcome = recover(&d, &recovered, &registry, &commands).unwrap();
        assert_eq!(outcome.loaded_records, 0);
        assert_eq!(outcome.checkpoint_files, 0);
        assert_eq!(outcome.watermark, CommitSeq::ZERO);
        assert_eq!(outcome.replayed, 7);
        for k in 0..7u64 {
            assert_eq!(
                recovered.get(Key(k)).unwrap(),
                (10 + k).to_le_bytes().into(),
                "key {k} lost in cold start"
            );
        }
    }

    #[test]
    fn recovery_without_full_checkpoint_fails() {
        let recovered = CalcStrategy::full(
            StoreConfig::for_records(16, 16),
            Arc::new(CommitLog::default()),
        );
        let d = dir("nofull");
        let err = recover_checkpoint_only(&d, &recovered).unwrap_err();
        assert!(matches!(err, RecoveryError::NoFullCheckpoint));
    }

    #[test]
    fn unknown_procedure_fails_replay() {
        let log = Arc::new(CommitLog::default());
        let mut commands = Vec::new();
        let primary = CalcStrategy::full(StoreConfig::for_records(64, 16), log.clone());
        let d = dir("unknownproc");
        commands.push(run_set(&primary, &log, 1, 1));
        primary.checkpoint(&NoopEnv, &d).unwrap();
        commands.push(run_set(&primary, &log, 2, 2));

        let registry = ProcRegistry::new(); // empty!
        let recovered = CalcStrategy::full(
            StoreConfig::for_records(64, 16),
            Arc::new(CommitLog::default()),
        );
        let err = recover(&d, &recovered, &registry, &commands).unwrap_err();
        assert!(matches!(err, RecoveryError::UnknownProcedure(1)));
    }

    #[test]
    fn fuzzy_recovery_refused() {
        use calc_txn::proc::ProcRegistry;
        let log = Arc::new(CommitLog::default());
        let fuzzy = calc_baselines_stub::fuzzy_stub(log);
        let d = dir("fuzzyrefuse");
        let err = recover(&d, fuzzy.as_ref(), &ProcRegistry::new(), &[]).unwrap_err();
        assert!(matches!(err, RecoveryError::NotTransactionConsistent(_)));
    }

    /// Tiny local stand-in so this crate need not depend on
    /// calc-baselines: any strategy reporting non-TC is refused. We wrap
    /// CalcStrategy and override the flag.
    mod calc_baselines_stub {
        use super::*;
        use calc_core::manifest::CheckpointDir;
        use calc_core::strategy::*;
        use calc_storage::mem::MemoryStats;
        use calc_txn::commitlog::PhaseStamp;

        struct NonTc(CalcStrategy);
        impl CheckpointStrategy for NonTc {
            fn name(&self) -> &'static str {
                "NonTC"
            }
            fn transaction_consistent(&self) -> bool {
                false
            }
            fn partial(&self) -> bool {
                false
            }
            fn load_batch(
                &self,
                records: &[(Key, &[u8])],
            ) -> Result<usize, calc_storage::dual::StoreError> {
                self.0.load_batch(records)
            }
            fn clear(&self) {
                self.0.clear()
            }
            fn locks(&self) -> &calc_common::lockword::LockWords {
                self.0.locks()
            }
            fn resolve(&self, k: Key) -> Resolved {
                self.0.resolve(k)
            }
            fn get_with(&self, k: Key, at: Option<u32>, read: &mut dyn FnMut(&[u8])) -> bool {
                self.0.get_with(k, at, read)
            }
            fn record_count(&self) -> usize {
                self.0.record_count()
            }
            fn txn_begin(&self) -> TxnToken {
                self.0.txn_begin()
            }
            fn txn_end(&self, t: TxnToken) {
                self.0.txn_end(t)
            }
            fn apply_write_at(
                &self,
                t: &mut TxnToken,
                k: Key,
                at: Option<u32>,
                v: &[u8],
                old: &mut Vec<u8>,
            ) -> Result<bool, calc_storage::dual::StoreError> {
                self.0.apply_write_at(t, k, at, v, old)
            }
            fn apply_insert(
                &self,
                t: &mut TxnToken,
                k: Key,
                v: &[u8],
            ) -> Result<bool, calc_storage::dual::StoreError> {
                self.0.apply_insert(t, k, v)
            }
            fn apply_delete_at(
                &self,
                t: &mut TxnToken,
                k: Key,
                at: Option<u32>,
                old: &mut Vec<u8>,
            ) -> Result<(), calc_storage::dual::StoreError> {
                self.0.apply_delete_at(t, k, at, old)
            }
            fn on_commit(&self, t: &mut TxnToken, s: CommitSeq, c: PhaseStamp) {
                self.0.on_commit(t, s, c)
            }
            fn on_abort(&self, t: &mut TxnToken, u: &[UndoRec]) {
                self.0.on_abort(t, u)
            }
            fn checkpoint(
                &self,
                e: &dyn EngineEnv,
                d: &CheckpointDir,
            ) -> std::io::Result<CheckpointStats> {
                self.0.checkpoint(e, d)
            }
            fn write_base_checkpoint(
                &self,
                d: &CheckpointDir,
            ) -> std::io::Result<CheckpointStats> {
                CheckpointStrategy::write_base_checkpoint(&self.0, d)
            }
            fn memory(&self) -> MemoryStats {
                self.0.memory()
            }
        }

        pub fn fuzzy_stub(log: Arc<CommitLog>) -> Arc<dyn CheckpointStrategy> {
            Arc::new(NonTc(CalcStrategy::full(
                StoreConfig::for_records(16, 16),
                log,
            )))
        }
    }
}
