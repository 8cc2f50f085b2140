//! Seeded multi-threaded stress scenarios feeding the conformance
//! checker.
//!
//! A run opens a real [`Database`] with the history recorder attached,
//! enables [`calc_common::perturb`] schedule jitter with the spec's seed,
//! hammers it from several feeder threads while the driver thread takes
//! checkpoints, then shuts down and hands the recorded history plus every
//! published checkpoint file to [`check`].
//!
//! Runs are serialized process-wide (perturbation and mutation state are
//! process-global), so stress tests in one binary queue behind each
//! other; separate integration-test binaries are separate processes and
//! parallelize freely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use calc_common::mutation::{self, Mutation};
use calc_common::perturb;
use calc_common::rng::SplitMix;
use calc_common::types::Key;
use calc_engine::recorder::HistoryRecorder;
use calc_engine::{Database, EngineConfig, StrategyKind};
use calc_txn::proc::{ProcId, ProcRegistry};
use calc_workload::tpcc::procs::STOCK_LEVEL_PROC;
use calc_workload::tpcc::{TpccConfig, TpccWorkload};

use crate::checker::{check, ConformInput, ConformReport, Violation};
use crate::procs::{blind_params, register_all, rmw_add_params, transfer_params, BLIND, RMW_ADD, TRANSFER};

/// A stress scenario shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// Read-modify-write chains concentrated on 8 hot keys (70%), plus
    /// hot-key transfers and a thin spread over 64 keys. Maximum lock
    /// contention; the canonical lost-update detector.
    HotKeyRmw,
    /// Blind puts/inserts/deletes over 256 keys, no reads — exercises
    /// insert/delete outcome validation and tombstones in partial
    /// checkpoints.
    BlindWrites,
    /// Mixed RMW/transfer/blind traffic with the driver thread taking
    /// back-to-back checkpoints the whole time — maximizes commits landing
    /// inside PREPARE/RESOLVE/CAPTURE windows and stable-version reads.
    CheckpointContention,
    /// The full five-transaction TPC-C mix on `TpccConfig::small()`, one
    /// workload generator per feeder (history-partitioned). StockLevel
    /// reads run at TPC-C's permitted relaxed isolation and are exempted
    /// from read checking.
    TpccMix,
}

impl Scenario {
    fn tag(self) -> &'static str {
        match self {
            Scenario::HotKeyRmw => "hotkey",
            Scenario::BlindWrites => "blind",
            Scenario::CheckpointContention => "ckcontend",
            Scenario::TpccMix => "tpcc",
        }
    }

    /// Delay between driver-thread checkpoints while feeders run.
    fn checkpoint_pace(self) -> Duration {
        match self {
            Scenario::CheckpointContention => Duration::from_millis(1),
            Scenario::TpccMix => Duration::from_millis(5),
            _ => Duration::from_millis(10),
        }
    }
}

/// Parameters of one stress run.
#[derive(Clone, Copy, Debug)]
pub struct StressSpec {
    /// Checkpointing strategy under test.
    pub kind: StrategyKind,
    /// Traffic shape.
    pub scenario: Scenario,
    /// Seed for schedule perturbation and all request generators.
    pub seed: u64,
    /// Concurrent feeder threads submitting transactions.
    pub feeders: usize,
    /// Transactions each feeder executes (synchronously, back-to-back).
    pub txns_per_feeder: usize,
}

impl StressSpec {
    /// A spec with the default scale — 4 feeders × 250 transactions.
    pub fn new(kind: StrategyKind, scenario: Scenario, seed: u64) -> Self {
        StressSpec {
            kind,
            scenario,
            seed,
            feeders: 4,
            txns_per_feeder: 250,
        }
    }
}

/// Serializes stress runs: perturbation seeds and mutation flags are
/// process-global, so two concurrent runs would contaminate each other.
static RUN_LOCK: Mutex<()> = Mutex::new(());
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Holds the run lock and guarantees global perturb/mutation state is
/// reset even when a run panics.
struct RunGuard<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        perturb::disable();
        mutation::disarm_all();
    }
}

/// Runs the scenario and checks the history; panics (with the seed in
/// the message for `CONFORM_SEED` replay) on any violation.
pub fn run_stress(spec: &StressSpec) -> ConformReport {
    match run_inner(spec, None) {
        Ok(report) => report,
        Err(v) => panic!(
            "conformance violation on a clean run of {} / {:?} — replay with \
             CONFORM_SEED={:#x} cargo test -p calc-conform: {v}",
            spec.kind, spec.scenario, spec.seed,
        ),
    }
}

/// Runs the scenario with `mutation` armed (a seeded bug switched on) and
/// returns the checker's verdict instead of panicking — the mutation
/// smoke test asserts `Err`.
pub fn run_stress_mutated(spec: &StressSpec, mutation: Mutation) -> Result<ConformReport, Violation> {
    run_inner(spec, Some(mutation))
}

fn run_inner(spec: &StressSpec, armed: Option<Mutation>) -> Result<ConformReport, Violation> {
    let _guard = RunGuard(RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner()));
    perturb::enable(spec.seed);
    if let Some(m) = armed {
        mutation::arm(m);
    }

    let dir = std::env::temp_dir().join(format!(
        "calc-conform-{}-{}-{}-{}-{:x}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed),
        spec.kind.name(),
        spec.scenario.tag(),
        spec.seed,
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let recorder = Arc::new(HistoryRecorder::new());
    let mut registry = ProcRegistry::new();
    let tpcc_config = TpccConfig::small();
    let mut config = match spec.scenario {
        Scenario::TpccMix => {
            TpccWorkload::register_full_mix(&mut registry);
            EngineConfig::new(
                spec.kind,
                tpcc_config.capacity_hint(4 * spec.feeders * spec.txns_per_feeder),
                140,
                dir.clone(),
            )
        }
        _ => {
            register_all(&mut registry);
            EngineConfig::new(spec.kind, 512, 16, dir.clone())
        }
    };
    config.workers = 4;
    let base_checkpoint = config.strategy.is_partial();
    config.recorder = Some(recorder.clone());
    let db = Database::open(config, registry).expect("open database");

    match spec.scenario {
        Scenario::TpccMix => {
            TpccWorkload::new(tpcc_config.clone(), spec.seed).populate(&db);
        }
        Scenario::HotKeyRmw => {
            for k in 0..64u64 {
                db.load_initial(Key(k), &k.to_le_bytes()).expect("capacity");
            }
        }
        Scenario::BlindWrites => {
            // Half the keyspace present, so deletes and inserts both hit
            // present and absent keys.
            for k in (0..256u64).step_by(2) {
                db.load_initial(Key(k), &k.to_le_bytes()).expect("capacity");
            }
        }
        Scenario::CheckpointContention => {
            for k in 0..128u64 {
                db.load_initial(Key(k), &k.to_le_bytes()).expect("capacity");
            }
        }
    }
    db.finalize_load(base_checkpoint).expect("base checkpoint");

    std::thread::scope(|s| {
        let mut feeders = Vec::with_capacity(spec.feeders);
        for f in 0..spec.feeders {
            let db = &db;
            let spec = *spec;
            feeders.push(s.spawn(move || match spec.scenario {
                Scenario::TpccMix => {
                    let mut wl =
                        TpccWorkload::new(TpccConfig::small(), spec.seed ^ (f as u64 + 1));
                    wl.set_history_partition(f as u64);
                    for _ in 0..spec.txns_per_feeder {
                        let (proc, params) = wl.next_request_full_mix(db);
                        db.execute(proc, params);
                    }
                }
                _ => {
                    let mut rng = SplitMix::new(
                        spec.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(f as u64 + 1),
                    );
                    for _ in 0..spec.txns_per_feeder {
                        let (proc, params) = next_op(spec.scenario, &mut rng);
                        db.execute(proc, params);
                    }
                }
            }));
        }
        // Driver doubles as the checkpointer while feeders run.
        while !feeders.iter().all(|h| h.is_finished()) {
            db.checkpoint_now().expect("checkpoint under load");
            std::thread::sleep(spec.scenario.checkpoint_pace());
        }
    });

    db.checkpoint_now().expect("final checkpoint");
    db.join_mergers();
    let checkpoints = db.checkpoint_dir().scan().expect("scan checkpoint dir");
    let consistent = db.strategy().transaction_consistent();
    let committed = db.metrics().committed();
    db.shutdown();

    let history = recorder.take_history();
    assert_eq!(
        history.txns.len() as u64,
        committed,
        "recorder lost commits ({} recorded vs {} counted)",
        history.txns.len(),
        committed,
    );
    assert!(committed > 0, "stress run committed nothing");
    assert!(!checkpoints.is_empty(), "stress run published no checkpoints");

    let relaxed_procs: Vec<ProcId> = match spec.scenario {
        Scenario::TpccMix => vec![STOCK_LEVEL_PROC],
        _ => vec![],
    };
    // `CONFORM_DUMP_KEY=<u64>`: on a violation, dump every recorded
    // transaction touching that key (with start/commit phase stamps) and
    // the checkpoint metadata — the fastest way to reconstruct the
    // interleaving behind a checkpoint divergence.
    let dump_key = std::env::var("CONFORM_DUMP_KEY")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok());
    let debug_txns = dump_key.map(|k| {
        history
            .txns
            .iter()
            .filter(|t| {
                t.ops.iter().any(|op| {
                    let key = match op {
                        calc_engine::recorder::RecordedOp::Get { key, .. }
                        | calc_engine::recorder::RecordedOp::Put { key, .. }
                        | calc_engine::recorder::RecordedOp::Insert { key, .. }
                        | calc_engine::recorder::RecordedOp::Delete { key, .. } => *key,
                    };
                    key.0 == k
                })
            })
            .cloned()
            .collect::<Vec<_>>()
    });
    let debug_cks = dump_key.map(|_| checkpoints.clone());
    let result = check(ConformInput {
        history,
        checkpoints,
        check_checkpoint_state: consistent,
        relaxed_procs,
    });
    if result.is_err() {
        if let (Some(k), Some(txns), Some(cks)) = (dump_key, debug_txns, debug_cks) {
            eprintln!("== CONFORM_DUMP_KEY={k}: checkpoints ==");
            for c in &cks {
                eprintln!("  id={} kind={:?} watermark={:?}", c.id, c.kind, c.watermark);
            }
            eprintln!("== CONFORM_DUMP_KEY={k}: {} touching txns ==", txns.len());
            for t in &txns {
                eprintln!(
                    "  seq={:?} proc={:?} start={:?} commit={:?} ops={:?}",
                    t.seq, t.proc, t.start, t.commit, t.ops
                );
            }
        }
    }
    if result.is_ok() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn next_op(scenario: Scenario, rng: &mut SplitMix) -> (ProcId, std::sync::Arc<[u8]>) {
    match scenario {
        Scenario::HotKeyRmw => {
            let roll = rng.next_below(10);
            if roll < 7 {
                (RMW_ADD, rmw_add_params(rng.next_below(8), 1 + rng.next_below(100)))
            } else if roll < 9 {
                (
                    TRANSFER,
                    transfer_params(rng.next_below(8), rng.next_below(8), rng.next_below(50)),
                )
            } else {
                (RMW_ADD, rmw_add_params(8 + rng.next_below(56), 1))
            }
        }
        Scenario::BlindWrites => {
            let roll = rng.next_below(10);
            let op = if roll < 4 {
                0 // put
            } else if roll < 7 {
                1 // insert
            } else {
                2 // delete
            };
            (BLIND, blind_params(op, rng.next_below(256), rng.next_u64()))
        }
        Scenario::CheckpointContention => {
            let roll = rng.next_below(10);
            if roll < 4 {
                (RMW_ADD, rmw_add_params(rng.next_below(8), 1 + rng.next_below(100)))
            } else if roll < 6 {
                (
                    TRANSFER,
                    transfer_params(rng.next_below(128), rng.next_below(128), rng.next_below(50)),
                )
            } else if roll < 8 {
                (BLIND, blind_params(0, rng.next_below(128), rng.next_u64()))
            } else if roll < 9 {
                (BLIND, blind_params(1, rng.next_below(128), rng.next_u64()))
            } else {
                (BLIND, blind_params(2, rng.next_below(128), 0))
            }
        }
        Scenario::TpccMix => unreachable!("TPC-C feeders use the workload generator"),
    }
}
