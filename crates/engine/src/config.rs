//! Engine configuration and strategy selection.

use std::path::PathBuf;
use std::sync::Arc;

use calc_baselines::{FuzzyStrategy, IppStrategy, NaiveStrategy, ZigzagStrategy};
use calc_common::vfs::{OsVfs, Vfs};
use calc_core::calc::CalcStrategy;
use calc_core::strategy::CheckpointStrategy;
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;

use crate::service::ServiceTuning;

/// Which checkpointing algorithm the engine runs — the six schemes of the
/// paper's evaluation, full or partial, plus `NoCheckpoint` (the "None"
/// baseline line in every throughput figure).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum StrategyKind {
    NoCheckpoint,
    Calc,
    PCalc,
    Naive,
    PNaive,
    Fuzzy,
    PFuzzy,
    Ipp,
    PIpp,
    Zigzag,
    PZigzag,
}

impl StrategyKind {
    /// All kinds that actually checkpoint.
    pub const ALL_CHECKPOINTING: [StrategyKind; 10] = [
        StrategyKind::Calc,
        StrategyKind::PCalc,
        StrategyKind::Naive,
        StrategyKind::PNaive,
        StrategyKind::Fuzzy,
        StrategyKind::PFuzzy,
        StrategyKind::Ipp,
        StrategyKind::PIpp,
        StrategyKind::Zigzag,
        StrategyKind::PZigzag,
    ];

    /// The five full-checkpoint schemes compared in Figure 2.
    pub const FULL_SET: [StrategyKind; 5] = [
        StrategyKind::Calc,
        StrategyKind::Ipp,
        StrategyKind::Fuzzy,
        StrategyKind::Naive,
        StrategyKind::Zigzag,
    ];

    /// The five partial-checkpoint schemes compared in Figure 3.
    pub const PARTIAL_SET: [StrategyKind; 5] = [
        StrategyKind::PCalc,
        StrategyKind::PIpp,
        StrategyKind::PFuzzy,
        StrategyKind::PNaive,
        StrategyKind::PZigzag,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::NoCheckpoint => "None",
            StrategyKind::Calc => "CALC",
            StrategyKind::PCalc => "pCALC",
            StrategyKind::Naive => "Naive",
            StrategyKind::PNaive => "pNaive",
            StrategyKind::Fuzzy => "Fuzzy",
            StrategyKind::PFuzzy => "pFuzzy",
            StrategyKind::Ipp => "IPP",
            StrategyKind::PIpp => "pIPP",
            StrategyKind::Zigzag => "Zigzag",
            StrategyKind::PZigzag => "pZigzag",
        }
    }

    /// Whether this kind takes partial checkpoints.
    pub fn is_partial(self) -> bool {
        matches!(
            self,
            StrategyKind::PCalc
                | StrategyKind::PNaive
                | StrategyKind::PFuzzy
                | StrategyKind::PIpp
                | StrategyKind::PZigzag
        )
    }

    /// Parses a name as printed by [`StrategyKind::name`]
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<StrategyKind> {
        let all = [
            StrategyKind::NoCheckpoint,
            StrategyKind::Calc,
            StrategyKind::PCalc,
            StrategyKind::Naive,
            StrategyKind::PNaive,
            StrategyKind::Fuzzy,
            StrategyKind::PFuzzy,
            StrategyKind::Ipp,
            StrategyKind::PIpp,
            StrategyKind::Zigzag,
            StrategyKind::PZigzag,
        ];
        all.into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Builds the strategy. `NoCheckpoint` runs CALC's storage with its
    /// checkpointer never invoked (zero overhead at rest, the "None"
    /// baseline).
    pub fn build(self, store: StoreConfig, log: Arc<CommitLog>) -> Arc<dyn CheckpointStrategy> {
        match self {
            StrategyKind::NoCheckpoint | StrategyKind::Calc => {
                Arc::new(CalcStrategy::full(store, log))
            }
            StrategyKind::PCalc => Arc::new(CalcStrategy::partial(store, log)),
            StrategyKind::Naive => Arc::new(NaiveStrategy::full(store, log)),
            StrategyKind::PNaive => Arc::new(NaiveStrategy::partial(store, log)),
            StrategyKind::Fuzzy => Arc::new(FuzzyStrategy::full(store, log)),
            StrategyKind::PFuzzy => Arc::new(FuzzyStrategy::partial(store, log)),
            StrategyKind::Ipp => Arc::new(IppStrategy::full(store, log)),
            StrategyKind::PIpp => Arc::new(IppStrategy::partial(store, log)),
            StrategyKind::Zigzag => Arc::new(ZigzagStrategy::full(store, log)),
            StrategyKind::PZigzag => Arc::new(ZigzagStrategy::partial(store, log)),
        }
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A one-variant remnant: the engine has one executor, the paper's §4
/// pool. It survives only because `perfbench` records
/// `cfg.executor_mode.name()` in its result JSON and is frozen; it goes
/// at the next perfbench unfreeze, with [`EngineConfig::executor_mode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecutorMode {
    /// The paper's §4 pool: one submission queue, any worker takes any
    /// transaction, isolation via ordered 2PL in the store's lock words.
    Pool,
}

impl ExecutorMode {
    /// The name `perfbench` records.
    pub fn name(self) -> &'static str {
        "pool"
    }
}

/// A one-variant remnant: checkpoint parts have one encoding, raw
/// CRC'd frames. It survives only because `perfbench` records
/// `format!("{:?}", cfg.codec)` in its run metadata and is frozen; it goes
/// at the next perfbench unfreeze, with [`EngineConfig::codec`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Codec {
    /// Each frame holds the raw records.
    None,
}

/// Engine configuration. The defaults match a laptop-scale rendition of
/// the paper's setup (15 worker threads on the paper's 16-core box scale
/// down to the host's parallelism).
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Checkpointing algorithm.
    pub strategy: StrategyKind,
    /// Store sizing.
    pub store: StoreConfig,
    /// Pool threads running [`crate::Database::submit`]'s transactions.
    /// Synchronous calls (`execute`, `execute_durable`) run on their
    /// caller's thread and take no worker. `0` starts no pool, for an
    /// engine that never submits (the server's); its `submit` panics.
    pub workers: usize,
    /// Always [`ExecutorMode::Pool`]; the engine reads nothing from it.
    /// A remnant kept only for `perfbench`, which records its name; it
    /// goes at the next perfbench unfreeze.
    pub executor_mode: ExecutorMode,
    /// The pool's submission queue capacity, which only
    /// [`crate::Database::submit`] fills: `Some(n)` gives a bounded queue
    /// whose backpressure produces closed-loop (peak-throughput)
    /// behaviour; `None` is unbounded, for open-loop latency experiments
    /// where the backlog must be allowed to grow during quiesce periods
    /// (§5.1.4).
    pub queue_capacity: Option<usize>,
    /// Directory for checkpoint files.
    pub checkpoint_dir: PathBuf,
    /// Simulated disk bandwidth in bytes/sec (0 = unlimited). The paper's
    /// disk: ~150 MB/s.
    pub disk_bytes_per_sec: u64,
    /// Worker threads per checkpoint capture (and recovery load): each
    /// cycle writes this many part files, striped over the slot space.
    /// Defaults to `min(store shards, available cores)`; 1 reproduces the
    /// pre-parts single-writer pipeline (files still go through the
    /// manifest format, just with one part).
    pub checkpoint_threads: usize,
    /// Collapse partial checkpoints on the checkpoint worker after every N
    /// partials (`None` disables; Figure 4 sweeps 4/8/16).
    pub merge_batch: Option<usize>,
    /// Cadence of the checkpoint worker's own cycles (see
    /// [`crate::service`]): `Some(d)` runs a cycle every `d`, retrying
    /// failures under backoff and reporting via [`crate::Database::health`].
    /// `None` (the default) leaves checkpointing to explicit
    /// [`crate::Database::checkpoint_now`] calls, as the benchmark
    /// schedules require.
    pub checkpoint_interval: Option<std::time::Duration>,
    /// Retry backoff, degraded-mode threshold, and stalled-cycle watchdog
    /// for the checkpoint worker's cycles, scheduled and manual alike.
    pub checkpoint_tuning: ServiceTuning,
    /// Durable command log (VoltDB-style, §1 of the paper): when set, a
    /// group-commit sync thread appends every commit's `(seq, proc,
    /// params)` into rotating `cmdlog-{i:06}.log` segments under this
    /// directory, one fsync per batch. Plain
    /// [`crate::Database::execute`]/`submit` acknowledge before the flush
    /// (the paper's low-latency choice — a crash can lose the unflushed
    /// tail, bounded by [`EngineConfig::group_commit_window`]);
    /// [`crate::Database::execute_durable`] acknowledges only after the
    /// batch fsync. Recovery replays the log on top of the newest
    /// checkpoint. Sealed segments fully covered by a durable checkpoint
    /// are deleted after each successful cycle, bounding log disk use.
    pub command_log_dir: Option<PathBuf>,
    /// Rotation threshold for command-log segments, in bytes (clamped
    /// to at least 512 B). `None` uses a 64 MiB default.
    pub log_segment_bytes: Option<u64>,
    /// Group-commit window: an upper bound on how long a commit may wait
    /// for company before the log fsync fires, reached only by batches
    /// nobody is waiting on — it bounds the unflushed tail of
    /// fire-and-forget commits. A batch holding a durable waiter is
    /// fsynced as soon as the queue is drained and the company it can
    /// expect has arrived (see `calc_recovery::group_commit`): a durable
    /// commit into an idle log costs one fsync, back-to-back ones follow
    /// the disk's fsync latency.
    pub group_commit_window: std::time::Duration,
    /// Group-commit batch-size cap: the fsync fires immediately once this
    /// many records are batched, whoever is or is not waiting. `1` degenerates
    /// to per-commit fsync (the benchmark's baseline).
    pub group_commit_max_batch: usize,
    /// Load-aware checkpoint pacing: when on (the default), capture
    /// workers consult the engine's [`calc_common::LoadSignal`], which
    /// grades the occupancy of the admission gate a server front-end
    /// attaches — under [`calc_common::LoadLevel::High`] (half the
    /// permits held) the effective capture pool is halved and writers
    /// yield between records; under `Overload` (every permit held, or a
    /// shed or blocked waiter within the last second) the pool clamps to
    /// one thread and writers sleep briefly per stride, ceding the
    /// machine to transaction workers. An embedded engine with no gate
    /// never paces. Off reproduces the fixed-pool pre-pacing behaviour
    /// exactly.
    pub adaptive_pacing: bool,
    /// Always [`Codec::None`]; the engine reads nothing from it. A
    /// remnant kept only for `perfbench`, which records it; it goes at the
    /// next perfbench unfreeze.
    pub codec: Codec,
    /// Retention: after each successful cycle, prune published checkpoint
    /// chains down to the newest N fulls (plus their partials), and
    /// truncate command-log segments wholly below the oldest survivor's
    /// watermark. The default, 2, bounds disk and log: one full to
    /// restart from, and an older one to fall back to — with its whole
    /// replay window — if the newest turns out unreadable. `None` keeps
    /// every checkpoint and never truncates the log.
    pub keep_checkpoints: Option<usize>,
    /// The filesystem all durable state is written through. Defaults to
    /// the real one ([`OsVfs`]); crash-simulation tests substitute a
    /// fault-injecting [`calc_common::simfs::SimVfs`].
    pub vfs: Arc<dyn Vfs>,
    /// History recorder for the conformance harness (`calc-conform`).
    /// `None` (the default) records nothing and costs one pointer check
    /// per operation; the field only exists under the `conform` feature.
    #[cfg(feature = "conform")]
    pub recorder: Option<Arc<crate::recorder::HistoryRecorder>>,
}

impl EngineConfig {
    /// A config for `strategy` with stores sized for `records` of
    /// `record_size` bytes, checkpointing into `dir`.
    pub fn new(strategy: StrategyKind, records: usize, record_size: usize, dir: PathBuf) -> Self {
        let store = StoreConfig::for_records(records + records / 4 + 1024, record_size);
        let checkpoint_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(store.shards.max(1));
        EngineConfig {
            strategy,
            store,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).max(1))
                .unwrap_or(4),
            executor_mode: ExecutorMode::Pool,
            queue_capacity: Some(4096),
            checkpoint_dir: dir,
            disk_bytes_per_sec: 0,
            checkpoint_threads,
            merge_batch: None,
            checkpoint_interval: None,
            checkpoint_tuning: ServiceTuning::default(),
            command_log_dir: None,
            log_segment_bytes: None,
            group_commit_window: std::time::Duration::from_millis(2),
            group_commit_max_batch: 4096,
            adaptive_pacing: true,
            codec: Codec::None,
            keep_checkpoints: Some(2),
            vfs: Arc::new(OsVfs),
            #[cfg(feature = "conform")]
            recorder: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for k in StrategyKind::ALL_CHECKPOINTING {
            assert_eq!(StrategyKind::parse(k.name()), Some(k));
        }
        assert_eq!(StrategyKind::parse("pcalc"), Some(StrategyKind::PCalc));
        assert_eq!(StrategyKind::parse("none"), Some(StrategyKind::NoCheckpoint));
        assert_eq!(StrategyKind::parse("bogus"), None);
    }

    #[test]
    fn partial_flags() {
        assert!(StrategyKind::PCalc.is_partial());
        assert!(!StrategyKind::Calc.is_partial());
        for k in StrategyKind::PARTIAL_SET {
            assert!(k.is_partial());
        }
        for k in StrategyKind::FULL_SET {
            assert!(!k.is_partial());
        }
    }

    #[test]
    fn build_produces_matching_names() {
        let log = Arc::new(CommitLog::default());
        for k in StrategyKind::ALL_CHECKPOINTING {
            let s = k.build(StoreConfig::for_records(16, 16), log.clone());
            assert_eq!(s.name(), k.name(), "strategy name mismatch for {k:?}");
            assert_eq!(s.partial(), k.is_partial());
        }
    }

    #[test]
    fn shipped_retention_keeps_two_fulls() {
        let config = EngineConfig::new(StrategyKind::Calc, 16, 16, PathBuf::from("unused"));
        assert_eq!(config.keep_checkpoints, Some(2));
    }
}
