//! The crash-simulation driver and recovery oracle.
//!
//! One [`run_sim`] call is one complete crash experiment:
//!
//! 1. Build a [`SimVfs`] from the seed, optionally arming one fault.
//! 2. Run a seeded workload serially against the chosen strategy,
//!    appending every commit to a durable command log and checkpointing
//!    on a fixed cadence. Serial execution makes the commit order equal
//!    the submission order, so the reference model is exact.
//! 3. Crash — either because the armed fault fired mid-run, or by
//!    cutting power at the end of the workload.
//! 4. Reboot the simulated disk ([`SimVfs::recover_view`]), restart the
//!    way the server does — the node's own standby, opened, drained and
//!    promoted (`calc_engine::standby`) — and check the oracle: the
//!    recovered store must equal the reference model at some
//!    commit-consistent prefix `S`, and `S` must be at least the durable
//!    floor — the highest commit the system honestly promised durable
//!    (via an un-dropped fsync chain) before the crash.
//! 5. A second lifetime: the promoted state serves as a full engine,
//!    commits a few transactions durably and shuts down cleanly; one more
//!    restart must then hold exactly the model at a prefix covering
//!    everything acknowledged in both lifetimes — so what the crash left
//!    behind (a torn log tail, say) is judged by the restart after next,
//!    too.
//!
//! Everything is a pure function of `(spec.seed, spec)` — a failing case
//! reprints its spec so it can be replayed exactly.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use calc_common::rng::SplitMix;
use calc_common::simfs::{DirCrashMode, FaultSpec, OpCounts, SimVfs, TransientKind, TransientSpec};
use calc_common::types::{Key, TxnId};
use calc_common::vfs::Vfs;
use calc_common::Backoff;
use calc_core::manifest::{CheckpointDir, CheckpointMeta};
use calc_core::strategy::NoopEnv;
use calc_core::throttle::Throttle;
use calc_engine::standby::{Promoted, Standby, StandbyConfig};
use calc_engine::{classify, EngineConfig, ErrorClass, StrategyKind, TxnOutcome};
use calc_recovery::replay::{RecoveryError, ReplayOps};
use calc_recovery::{read_dir_logs, truncate_segments_below, SegmentedLogWriter};
use calc_storage::dual::StoreConfig;
use calc_testkit::registry;
use calc_txn::commitlog::{CommitLog, CommitRecord};

use crate::model::{gen_op, model_at, Op};

const WORKLOAD_SALT: u64 = 0x5e11_ab1e_0b5e_55ed;
const BACKOFF_SALT: u64 = 0xb0ff_b0ff_b0ff_b0ff;
const SECOND_LIFETIME_SALT: u64 = 0x2d11_1fe7_13e5_eed5;

/// Where transient I/O errors are injected during the live run.
#[derive(Clone, Copy, Debug)]
pub enum TransientPlan {
    /// One absolute window over the VFS's data-op indices (writes +
    /// creates): hits whatever the run is doing at those indices —
    /// checkpoint captures, command-log appends, or both.
    Window(TransientSpec),
    /// Re-arm a fresh window of `count` data ops at the start of *every*
    /// checkpoint cycle, so each capture fails at least once and must be
    /// retried. This is the harmless-failure regression driver: without
    /// the strategies' failure hooks (dirty-bit restore, tombstone
    /// re-queue), the retried cycle would silently skip everything the
    /// failed attempt consumed.
    EveryCheckpoint {
        /// What kind of transient error the window injects.
        kind: TransientKind,
        /// Data ops to let through before the window opens. `0` hits the
        /// first part file's create/header; past `begin_parts` (a create
        /// and a header write per part) the window reaches the capture's
        /// frame and footer writes — two writes per ~64 KiB frame, one
        /// footer per part — so with multi-part cycles the error lands on
        /// one part `k` while the others are written or still open.
        skip: u64,
        /// Window length in data ops. With `WriteError` and `skip: 0`,
        /// `2` makes each cycle fail exactly once: the capture's
        /// `create` passes (but consumes an index), its first write
        /// fails, and the retry starts past the window.
        count: u64,
    },
}

/// Specification of one crash experiment.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Seed driving workload generation and every crash-time draw.
    pub seed: u64,
    /// Strategy under test.
    pub kind: StrategyKind,
    /// Fault to arm, if any. `None` = clean run ending in a power cut.
    pub fault: Option<FaultSpec>,
    /// Transactions to attempt.
    pub txns: u64,
    /// Checkpoint after every N transactions.
    pub checkpoint_every: u64,
    /// Group-commit the command log after every N transactions.
    pub sync_every: u64,
    /// How pending directory entries behave at crash time.
    pub dir_crash_mode: DirCrashMode,
    /// Transient I/O error injection, if any.
    pub transient: Option<TransientPlan>,
    /// Part files (and capture/load threads) per checkpoint. `None`
    /// reads `CKPT_THREADS` from the environment (default 1), so one
    /// sweep binary covers both the single-part and multi-part pipelines.
    pub ckpt_threads: Option<usize>,
    /// Retries per checkpoint cycle before giving up on that cycle
    /// (degraded: the run continues on the command log alone).
    pub ckpt_retries: u32,
    /// Command-log segmentation: rotate `cmdlog-<i>.log` segments at this
    /// size.
    pub log_segment_bytes: u64,
    /// After each checkpoint that completed on an honest fsync chain,
    /// truncate sealed log segments below the oldest surviving full's
    /// watermark — the engine's retention path, under crash faults.
    pub truncate_log: bool,
}

impl SimSpec {
    /// The standard small experiment: 40 transactions, checkpoint every
    /// 10, group-commit every 8.
    pub fn smoke(kind: StrategyKind, seed: u64) -> Self {
        SimSpec {
            seed,
            kind,
            fault: None,
            txns: 40,
            checkpoint_every: 10,
            sync_every: 8,
            dir_crash_mode: DirCrashMode::Seeded,
            transient: None,
            ckpt_threads: None,
            ckpt_retries: 3,
            // Far above what the workload writes: a smoke run never rotates.
            log_segment_bytes: 64 << 20,
            truncate_log: false,
        }
    }

    /// The same experiment with one armed fault.
    pub fn with_fault(kind: StrategyKind, seed: u64, fault: FaultSpec) -> Self {
        SimSpec {
            fault: Some(fault),
            ..Self::smoke(kind, seed)
        }
    }
}

/// An oracle violation: the recovered (or promoted) state is inconsistent
/// with every admissible commit prefix, or a durability promise broke.
/// Carries the full spec so the case can be replayed.
#[derive(Debug)]
pub struct Violation<S> {
    /// The spec that produced the violation.
    pub spec: S,
    /// What went wrong.
    pub detail: String,
}

/// A [`run_sim`] violation.
pub type OracleViolation = Violation<SimSpec>;

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oracle violation [seed={:#x} kind={} fault={:?} mode={:?}]: {}",
            self.spec.seed, self.spec.kind, self.spec.fault, self.spec.dir_crash_mode, self.detail
        )
    }
}

impl<S: std::fmt::Debug> std::error::Error for Violation<S> where Violation<S>: std::fmt::Display {}

pub(crate) fn violation<S: Clone>(spec: &S, detail: impl Into<String>) -> Violation<S> {
    Violation {
        spec: spec.clone(),
        detail: detail.into(),
    }
}

/// What one experiment did — useful for asserting a sweep actually
/// exercised the scenarios it claims to.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Transactions that committed before the crash.
    pub committed: u64,
    /// Whether the armed fault fired mid-run (vs. the end-of-run power cut).
    pub crashed_mid_run: bool,
    /// The commit-consistent prefix recovery reached.
    pub recovered_prefix: u64,
    /// The durability floor the run established (highest honestly-synced
    /// commit / checkpoint watermark).
    pub durable_floor: u64,
    /// IO operation counts at crash time — the sweep domain.
    pub counts: OpCounts,
    /// True when the strategy was refused by recovery as
    /// not-transaction-consistent (expected for Fuzzy).
    pub refused_not_tc: bool,
    /// Checkpoint attempts that failed during the live run (retried
    /// attempts count individually).
    pub ckpt_failures: u64,
    /// The strategy's own count of harmlessly rolled-back cycles at
    /// crash time.
    pub aborted_cycles: u64,
    /// Transient errors the armed window actually injected.
    pub transient_hits: u64,
}

pub(crate) fn store_config() -> StoreConfig {
    StoreConfig::for_records(1024, 64)
}

pub(crate) fn ckpt_dir() -> PathBuf {
    PathBuf::from("/sim/ckpts")
}

pub(crate) fn log_dir() -> PathBuf {
    PathBuf::from("/sim/cmdlog")
}

impl SimSpec {
    /// The simulated disk this experiment runs on, fault armed.
    pub(crate) fn vfs(&self) -> SimVfs {
        let vfs = match self.fault {
            Some(f) => SimVfs::with_fault(self.seed, f),
            None => SimVfs::new(self.seed),
        };
        vfs.set_dir_crash_mode(self.dir_crash_mode);
        vfs
    }

    /// Part files per checkpoint: the spec's, else `CKPT_THREADS=n` (which
    /// sweeps the multi-part pipeline through a whole fault matrix without
    /// a second sweep binary), else 1.
    pub(crate) fn resolved_ckpt_threads(&self) -> usize {
        self.ckpt_threads.unwrap_or_else(|| {
            std::env::var("CKPT_THREADS")
                .ok()
                .and_then(|s| s.trim().parse().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1)
        })
    }

    /// Opens the checkpoint directory the way this run writes and reads it.
    fn open_dir(&self, vfs: Arc<dyn Vfs>) -> io::Result<CheckpointDir> {
        let dir = CheckpointDir::open_with_vfs(&ckpt_dir(), Arc::new(Throttle::unlimited()), vfs)?;
        dir.set_checkpoint_threads(self.resolved_ckpt_threads());
        Ok(dir)
    }

    /// A standby of this run's node, over `vfs`: what a restart opens, and
    /// what the failover experiment tails the primary with.
    pub(crate) fn standby_config(&self, vfs: Arc<dyn Vfs>) -> StandbyConfig {
        let mut cfg = StandbyConfig::new(self.kind, store_config(), ckpt_dir(), log_dir());
        cfg.vfs = vfs;
        cfg.checkpoint_threads = self.resolved_ckpt_threads();
        cfg
    }
}

/// Where the failover experiment hooks its standby into [`run_live`];
/// the single-node experiment runs [`NoHooks`].
pub(crate) trait LiveHooks {
    /// The primary's durable footprint exists (directory, log, base
    /// checkpoint); no transaction has run. `false` abandons the run.
    fn primary_up(&mut self) -> bool {
        true
    }
    /// Transaction `i` committed and any group-commit due after it ran;
    /// a checkpoint due after it has not started.
    fn after_txn(&mut self, _i: u64) {}
}

struct NoHooks;
impl LiveHooks for NoHooks {}

/// What the simulated primary did before it crashed.
#[derive(Default)]
pub(crate) struct LiveRun {
    /// `(seq, op)` of every transaction executed, in commit order.
    pub(crate) committed: Vec<(u64, Op)>,
    /// Highest commit the run honestly promised durable.
    pub(crate) durable_floor: u64,
    pub(crate) ckpt_failures: u64,
    pub(crate) aborted_cycles: u64,
}

/// The simulated primary: runs the seeded workload serially against the
/// strategy — every commit appended to a segmented command log,
/// group-committed every `sync_every`, checkpointed (with the engine
/// daemon's retry policy) and optionally truncated every
/// `checkpoint_every` — until the work runs out or the armed fault makes
/// an I/O call fail, with the spec's transient I/O errors injected along
/// the way. Serial execution makes commit order equal submission order,
/// so the reference model is exact.
pub(crate) fn run_live(vfs: &SimVfs, spec: &SimSpec, hooks: &mut dyn LiveHooks) -> LiveRun {
    let mut run = LiveRun::default();
    live_until_crash(vfs, spec, hooks, &mut run);
    run
}

/// [`run_live`]'s body; every early `return` is the crash taking effect.
fn live_until_crash(vfs: &SimVfs, spec: &SimSpec, hooks: &mut dyn LiveHooks, run: &mut LiveRun) {
    if let Some(TransientPlan::Window(w)) = spec.transient {
        vfs.arm_transient(w);
    }
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let Ok(dir) = spec.open_dir(vfs_dyn.clone()) else {
        return;
    };
    let Ok(mut cmdlog) =
        SegmentedLogWriter::create(vfs_dyn.clone(), &log_dir(), spec.log_segment_bytes)
    else {
        return;
    };
    let log = Arc::new(CommitLog::default());
    let strategy = spec.kind.build(store_config(), log.clone());
    // Partial strategies need a full ancestor in the recovery chain,
    // exactly as the engine writes one after initial load.
    if spec.kind.is_partial() && strategy.write_base_checkpoint(&dir).is_err() {
        return;
    }
    if !hooks.primary_up() {
        return;
    }
    let reg = registry();
    let mut rng = SplitMix::new(spec.seed ^ WORKLOAD_SALT);
    let mut backoff = Backoff::new(
        Duration::from_millis(1),
        Duration::from_millis(64),
        spec.seed ^ BACKOFF_SALT,
    );

    for i in 0..spec.txns {
        let op = gen_op(&mut rng);
        let (proc_id, params) = op.encode();
        let procedure = reg.get(proc_id).expect("sim procs registered");
        let mut bridge = ReplayOps::new(strategy.as_ref());
        procedure
            .run(&params, &mut bridge)
            .expect("sim procs never abort");
        assert!(bridge.failed.is_none(), "sim op failed: {:?}", bridge.failed);
        let mut token = bridge.token;
        // The engine's commit section: the log append runs inside the
        // sequencer's append. The op is recorded as committed *before*
        // the append: it already executed against the primary's state,
        // and whether it turns durable is decided by how many of its log
        // bytes survive the crash — prefix semantics cover both outcomes.
        // Pushing after a successful append would make a
        // torn-but-fully-surviving final record (executed, written, never
        // acked) read as a resurrected write at the oracle.
        let (seq, stamp, appended) = log.append_commit_with(|seq, _| {
            run.committed.push((seq.0, op));
            cmdlog.append(&CommitRecord {
                seq,
                txn: TxnId(i),
                proc: proc_id,
                params,
            })
        });
        if appended.is_err() {
            strategy.txn_end(token);
            return;
        }
        strategy.on_commit(&mut token, seq, stamp);
        strategy.txn_end(token);

        if (i + 1) % spec.sync_every == 0 {
            match cmdlog.sync() {
                // A durability promise only counts while no fsync has
                // ever been dropped: one lying fsync voids the chain
                // (the post-fsync-failure world cannot be trusted).
                Ok(()) if vfs.fsyncs_dropped() == 0 => run.durable_floor = seq.0,
                Ok(()) => {}
                Err(_) => return,
            }
        }
        hooks.after_txn(i);
        if (i + 1) % spec.checkpoint_every == 0 {
            if let Some(TransientPlan::EveryCheckpoint { kind, skip, count }) = spec.transient {
                vfs.arm_transient(TransientSpec {
                    kind,
                    from: vfs.counts().data_ops() + skip,
                    count,
                });
            }
            // Mirror the engine's supervised daemon: a failed cycle is
            // harmless (the strategy rolled its coverage forward), so
            // transient and disk-full errors retry under the same
            // seeded backoff policy. Delays are recorded by the
            // backoff's jitter stream but not slept — simulated time.
            backoff.reset();
            let mut attempts = 0u32;
            loop {
                match strategy.checkpoint(&NoopEnv, &dir) {
                    Ok(stats) => {
                        if vfs.fsyncs_dropped() == 0 {
                            run.durable_floor = run.durable_floor.max(stats.watermark.0);
                        }
                        // Retention, under the same honesty gate as the
                        // durability floor: one lying fsync voids the
                        // publish chain the truncation floor rests on.
                        if spec.truncate_log && vfs.fsyncs_dropped() == 0 {
                            if let Some(floor) = dir.truncation_floor() {
                                let _ =
                                    truncate_segments_below(vfs_dyn.as_ref(), &log_dir(), floor);
                            }
                        }
                        break;
                    }
                    Err(e) => {
                        run.ckpt_failures += 1;
                        run.aborted_cycles = strategy.aborted_cycles();
                        match classify(&e) {
                            ErrorClass::Fatal => return,
                            _ if attempts < spec.ckpt_retries => {
                                attempts += 1;
                                let _delay = backoff.next_delay();
                            }
                            // Degraded: give up on this cycle and run
                            // on — the command log alone keeps every
                            // commit recoverable.
                            _ => break,
                        }
                    }
                }
            }
        }
    }
    // Clean end of workload: one final honest group-commit, then the
    // caller cuts the power.
    if cmdlog.sync().is_ok() && vfs.fsyncs_dropped() == 0 {
        if let Some((seq, _)) = run.committed.last() {
            run.durable_floor = run.durable_floor.max(*seq);
        }
    }
}

/// Runs one crash experiment end to end. `Ok` means the oracle held.
#[allow(clippy::result_large_err)] // violations are terminal and rare; no point boxing
pub fn run_sim(spec: &SimSpec) -> Result<SimReport, OracleViolation> {
    let vfs = spec.vfs();
    let vfs_dyn: Arc<dyn Vfs> = Arc::new(vfs.clone());

    // ---- Phase 1: live run, ended by the fault or by running out of work.
    let run = run_live(&vfs, spec, &mut NoHooks);
    let (committed, durable_floor) = (run.committed, run.durable_floor);

    let crashed_mid_run = vfs.crashed();
    if !crashed_mid_run {
        vfs.force_crash();
    }
    let counts = vfs.counts();
    let finish = |recovered_prefix, refused_not_tc| SimReport {
        committed: committed.len() as u64,
        crashed_mid_run,
        recovered_prefix,
        durable_floor,
        counts,
        refused_not_tc,
        ckpt_failures: run.ckpt_failures,
        aborted_cycles: run.aborted_cycles,
        transient_hits: vfs.transient_hits(),
    };

    // ---- Phase 2: reboot the disk and restart: the node's own standby,
    // drained and promoted.
    vfs.recover_view();
    let commands = read_dir_logs(vfs_dyn.as_ref(), &log_dir())
        .map_err(|e| violation(spec, format!("reading durable log segments: {e}")))?;
    // Serial-driver invariant: the durable log is a prefix of commit order.
    for pair in commands.windows(2) {
        if pair[0].seq >= pair[1].seq {
            return Err(violation(spec, "durable command log out of order"));
        }
    }
    let promoted = match restart(spec, vfs_dyn.clone()) {
        Ok(promoted) => promoted,
        // For fuzzy checkpointing the refusal IS the oracle: a
        // non-transaction-consistent image must not be recovered without a
        // physical redo log (§2.1 of the paper). Any other refusal fails.
        Err(e)
            if refused_not_tc(&e)
                && matches!(spec.kind, StrategyKind::Fuzzy | StrategyKind::PFuzzy) =>
        {
            return Ok(finish(0, true))
        }
        Err(e) => return Err(violation(spec, format!("restart failed on a legal crash state: {e}"))),
    };

    // ---- Phase 3: the oracle.
    // Every readable cycle has the shape restart's parallel loader relies
    // on (one value per key, tombstones first). The restart quarantined
    // every cycle of a chain it failed to load, so a handle opened now
    // catalogues the survivors, and the chain it picks is the one loaded:
    // each of its cycles must read. A cycle outside that chain was never
    // opened, and rot there waits for a merge or the next restart.
    let survivors = spec
        .open_dir(vfs_dyn.clone())
        .map_err(|e| violation(spec, format!("opening checkpoints after recovery: {e}")))?;
    let loaded: Vec<CheckpointMeta> =
        survivors.chain().map_or_else(Vec::new, |(full, partials)| {
            std::iter::once(full).chain(partials).collect()
        });
    for meta in &survivors.manifests() {
        match meta.shape_violation(vfs_dyn.as_ref()) {
            Ok(None) => {}
            Ok(Some(breach)) => return Err(violation(spec, breach)),
            Err(_) if !loaded.contains(meta) => {}
            Err(e) => return Err(violation(spec, format!("cycle {} unreadable: {e}", meta.id))),
        }
    }
    // A restart applies the whole surviving log (`read_dir_logs` stops at
    // the first torn record, as the tailer does): a prefix below its last
    // record dropped records that the seal would then reissue.
    let floor = durable_floor.max(commands.last().map_or(0, |c| c.seq.0));
    let recovered_prefix = check_promoted(spec, "recovered", &promoted, &committed, floor)?;

    // ---- Phase 4: a second lifetime on the promoted engine, then a
    // restart over both.
    let mut history: Vec<(u64, Op)> =
        committed.iter().take_while(|(seq, _)| *seq <= recovered_prefix).cloned().collect();
    second_lifetime(spec, promoted, &mut history)?;
    let promoted = restart(spec, vfs_dyn)
        .map_err(|e| violation(spec, format!("second restart failed: {e}")))?;
    let acked = history.last().map_or(0, |(seq, _)| *seq);
    check_promoted(spec, "restarted again", &promoted, &history, acked)?;
    Ok(finish(recovered_prefix, false))
}

/// Transactions the promoted engine commits in the second lifetime.
const SECOND_LIFETIME_TXNS: u64 = 4;

/// Serves the promoted state as a full engine — whose log writer opens a
/// segment above the crash's survivors, as a restarted server's does —
/// commits a few seeded transactions durably, appending each to `history`
/// at its seq, and shuts down cleanly. Whatever the crash tore must not
/// cost the next restart these acknowledged writes.
#[allow(clippy::result_large_err)]
fn second_lifetime(
    spec: &SimSpec,
    promoted: Promoted,
    history: &mut Vec<(u64, Op)>,
) -> Result<(), OracleViolation> {
    let mut config = EngineConfig::new(spec.kind, 0, 0, ckpt_dir());
    config.workers = 1;
    config.log_segment_bytes = Some(spec.log_segment_bytes);
    // Back-to-back durable commits are paced an eighth of the window
    // apart; the oracle does not depend on that cadence, the sweeps' run
    // time does.
    config.group_commit_window = Duration::from_micros(200);
    let db = promoted
        .into_database(config)
        .map_err(|e| violation(spec, format!("serving the promoted state: {e}")))?;
    let mut rng = SplitMix::new(spec.seed ^ SECOND_LIFETIME_SALT);
    for _ in 0..SECOND_LIFETIME_TXNS {
        let op = gen_op(&mut rng);
        let (proc_id, params) = op.encode();
        match db.execute_durable(proc_id, params) {
            Ok(TxnOutcome::Committed(seq)) => history.push((seq.0, op)),
            other => {
                return Err(violation(spec, format!("second-lifetime commit failed: {other:?}")))
            }
        }
    }
    db.shutdown();
    Ok(())
}

/// A restart over the rebooted disk: the node's own standby, opened,
/// drained and promoted.
pub(crate) fn restart(spec: &SimSpec, vfs: Arc<dyn Vfs>) -> io::Result<Promoted> {
    Standby::open(spec.standby_config(vfs), registry())?.promote()
}

/// Whether `e` is the standby's typed refusal of a strategy whose
/// checkpoints are not transaction-consistent.
pub(crate) fn refused_not_tc(e: &io::Error) -> bool {
    e.get_ref()
        .and_then(|e| e.downcast_ref::<RecoveryError>())
        .is_some_and(|e| matches!(e, RecoveryError::NotTransactionConsistent(_)))
}

/// The one exact-state oracle both experiments end in: the `what` —
/// "recovered" or "promoted" — store's prefix is at least `floor`, and the
/// store holds exactly the model's records at that prefix. Catches lost
/// writes and resurrected deletes alike. Returns the prefix.
#[allow(clippy::result_large_err)]
pub(crate) fn check_promoted<S: Clone>(
    spec: &S,
    what: &str,
    promoted: &Promoted,
    committed: &[(u64, Op)],
    floor: u64,
) -> Result<u64, Violation<S>> {
    let prefix = promoted.watermark();
    if prefix < floor {
        return Err(violation(
            spec,
            format!(
                "durability broken: {what} prefix {prefix} < durable floor {floor} \
                 (a commit promised durable, or still in the log, was lost)"
            ),
        ));
    }
    let expected = model_at(committed, prefix);
    let strategy = promoted.strategy();
    let differs = |detail| Err(violation(spec, format!("{what} state ≠ model: {detail}")));
    if strategy.record_count() != expected.len() {
        return differs(format!(
            "{} records, model {} at prefix {prefix}",
            strategy.record_count(),
            expected.len()
        ));
    }
    for (k, v) in &expected {
        match strategy.get(Key(*k)) {
            Some(got) if got[..] == v[..] => {}
            Some(got) => {
                return differs(format!(
                    "key {k} diverged at prefix {prefix}: {} bytes, model {} bytes",
                    got.len(),
                    v.len()
                ))
            }
            None => return differs(format!("key {k} missing at prefix {prefix}")),
        }
    }
    Ok(prefix)
}

/// Base seed for test sweeps; override with `SIM_SEED=<u64>` (decimal or
/// 0x-hex) to replay a specific failure locally.
pub fn base_seed() -> u64 {
    match std::env::var("SIM_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("SIM_SEED not a u64: {s:?}"))
        }
        Err(_) => 0xCA1C_51B7_0000_0000,
    }
}
