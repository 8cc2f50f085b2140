//! The executor through the public API: commit, abort and rollback,
//! concurrent submission, checkpoints and shutdown under load — under
//! both [`ExecutorMode`]s — plus what only shard ownership has (routing
//! counters, cross-shard fences, queue-depth gauges) and the contract
//! that ties the modes together: the same requests produce the same
//! commit-token stream, counters and store image.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::Key;
use calc_common::vfs::OsVfs;
use calc_engine::{Database, EngineConfig, ExecutorMode, StrategyKind, TxnOutcome};
use calc_txn::proc::{params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps};

use common::{logged_commands, logged_config};

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

fn registry() -> ProcRegistry {
    let mut registry = ProcRegistry::new();
    registry.register(Arc::new(AddProc));
    registry.register(Arc::new(TransferProc));
    registry
}

fn db_with_mode(kind: StrategyKind, name: &str, mode: ExecutorMode) -> Database {
    let mut config = EngineConfig::new(kind, 1024, 16, calc_testkit::temp_dir(name));
    config.workers = 4;
    config.executor_mode = mode;
    Database::open(config, registry()).unwrap()
}

/// A four-worker engine with a durable command log, and the log's directory.
fn logged_db(name: &str, mode: ExecutorMode) -> (Database, std::path::PathBuf) {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 1024, name);
    config.workers = 4;
    config.executor_mode = mode;
    (Database::open(config, registry()).unwrap(), log_dir)
}

fn add_params(key: u64, delta: u64, limit: u64) -> Arc<[u8]> {
    params::Writer::new()
        .u64(key)
        .u64(delta)
        .u64(limit)
        .finish()
}

fn transfer_params(from: u64, to: u64, delta: u64) -> Arc<[u8]> {
    params::Writer::new().u64(from).u64(to).u64(delta).finish()
}

fn counter(v: Option<calc_common::types::Value>) -> u64 {
    u64::from_le_bytes(v.expect("counter present")[..8].try_into().unwrap())
}

#[test]
fn execute_commits_and_reads_back() {
    for mode in ExecutorMode::ALL {
        let db = db_with_mode(StrategyKind::Calc, "exec", mode);
        let out = db.execute(ProcId(1), add_params(7, 5, 100));
        assert!(matches!(out, TxnOutcome::Committed(_)));
        assert_eq!(counter(db.get(Key(7))), 5);
        let out = db.execute(ProcId(1), add_params(7, 10, 100));
        assert!(matches!(out, TxnOutcome::Committed(_)));
        assert_eq!(counter(db.get(Key(7))), 15);
        assert_eq!(db.metrics().committed(), 2);
    }
}

#[test]
fn aborted_transaction_rolls_back() {
    for mode in ExecutorMode::ALL {
        let db = db_with_mode(StrategyKind::Calc, "abort", mode);
        db.execute(ProcId(1), add_params(1, 50, 100));
        // 50 + 60 = 110 > 100 → abort; value must stay 50.
        let out = db.execute(ProcId(1), add_params(1, 60, 100));
        assert!(matches!(out, TxnOutcome::Aborted(AbortReason::Logic(_))));
        assert_eq!(counter(db.get(Key(1))), 50);
        assert_eq!(db.metrics().aborted(), 1);
        // Aborted insert leaves no record.
        let out = db.execute(ProcId(1), add_params(2, 999, 100));
        assert!(matches!(out, TxnOutcome::Aborted(_)));
        assert!(db.get(Key(2)).is_none());
    }
}

#[test]
fn unknown_procedure_aborts() {
    let db = db_with_mode(StrategyKind::Calc, "unknown", ExecutorMode::Pool);
    let out = db.execute(ProcId(99), add_params(1, 1, 10));
    assert!(matches!(
        out,
        TxnOutcome::Aborted(AbortReason::BadParams(_))
    ));
}

#[test]
fn concurrent_submissions_all_commit() {
    let db = db_with_mode(StrategyKind::Calc, "concurrent", ExecutorMode::Pool);
    for i in 0..1000u64 {
        db.submit(ProcId(1), add_params(i % 10, 1, u64::MAX));
    }
    for k in 0..10u64 {
        db.execute(ProcId(1), add_params(k, 0, u64::MAX));
    }
    // Drain barrier: shutdown joins the workers, so every submitted
    // transaction has completed and been counted. (A synchronous same-key
    // marker is NOT enough — a worker can pop an earlier request and
    // stall before acquiring its lock while the marker overtakes it.)
    let metrics = db.metrics().clone();
    let strategy = db.strategy().clone();
    db.shutdown();
    assert_eq!(metrics.committed(), 1010);
    let total: u64 = (0..10u64).map(|k| counter(strategy.get(Key(k)))).sum();
    assert_eq!(total, 1000);
}

#[test]
fn checkpoint_under_load_every_strategy() {
    for mode in ExecutorMode::ALL {
        for kind in StrategyKind::ALL_CHECKPOINTING {
            let db = Arc::new(db_with_mode(
                kind,
                &format!("underload-{}", kind.name()),
                mode,
            ));
            for k in 0..100u64 {
                db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
            }
            db.finalize_load(kind.is_partial()).unwrap();
            let stop = Arc::new(AtomicBool::new(false));
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
            let stats = db
                .checkpoint_now()
                .unwrap_or_else(|e| panic!("checkpoint failed for {} / {mode}: {e}", kind.name()));
            assert!(stats.records > 0 || kind.is_partial());
            stop.store(true, Ordering::Relaxed);
            feeder.join().unwrap();
            // Checkpoint file exists and validates.
            let metas = db.checkpoint_dir().scan().unwrap();
            assert!(
                !metas.is_empty(),
                "{} / {mode}: no checkpoint published",
                kind.name()
            );
        }
    }
}

#[test]
fn shutdown_under_load_drains_and_completes() {
    // Shutdown with a deep backlog must drain every submitted
    // transaction and return promptly — regression test for the
    // bounded join: a wedged worker now panics with a diagnosis
    // instead of hanging the suite forever.
    for mode in ExecutorMode::ALL {
        let db = db_with_mode(StrategyKind::Calc, "shutdown-load", mode);
        for i in 0..5000u64 {
            db.submit(ProcId(1), add_params(i % 64, 1, u64::MAX));
        }
        let metrics = db.metrics().clone();
        let start = Instant::now();
        db.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "{mode}: shutdown took {:?} under load",
            start.elapsed()
        );
        assert_eq!(
            metrics.committed(),
            5000,
            "{mode}: shutdown dropped queued txns"
        );
    }
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
        assert_eq!(counter(db.get(Key(k))), 200 / 16 + u64::from(k < 200 % 16));
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
                    db.execute(ProcId(2), transfer_params(from, to, 1));
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
    assert!(
        db.health().cross_shard_txns() > 0,
        "no fence path exercised"
    );
    let total: u64 = (0..KEYS).map(|k| counter(db.get(Key(k)))).sum();
    assert_eq!(total, KEYS * 1000, "transfers must conserve the total");
}

#[test]
fn shard_owned_concurrent_submissions_all_commit() {
    let db = db_with_mode(
        StrategyKind::Calc,
        "so-concurrent",
        ExecutorMode::ShardOwned,
    );
    for i in 0..1000u64 {
        db.submit(ProcId(1), add_params(i % 10, 1, u64::MAX));
    }
    let metrics = db.metrics().clone();
    let strategy = db.strategy().clone();
    db.shutdown();
    assert_eq!(metrics.committed(), 1000);
    let total: u64 = (0..10u64).map(|k| counter(strategy.get(Key(k)))).sum();
    assert_eq!(total, 1000);
}

#[test]
fn commit_log_stays_in_seq_order() {
    // The commit-token invariant: the durable command log is strictly
    // seq-ordered whichever threads the commits come from — pool workers,
    // different owners, fenced cross-shard commits — and across the phase
    // tokens of a checkpoint running at the same time.
    for mode in ExecutorMode::ALL {
        let (db, log_dir) = logged_db(&format!("seq-order-{}", mode.name()), mode);
        let db = Arc::new(db);
        for k in 0..8u64 {
            db.execute(ProcId(1), add_params(k, 100, u64::MAX));
        }
        let checkpointer = {
            let db = db.clone();
            std::thread::spawn(move || db.checkpoint_now().unwrap())
        };
        let mut i = 0u64;
        while i < 200 || !checkpointer.is_finished() {
            db.submit(ProcId(2), transfer_params(i % 8, (i + 3) % 8, 0));
            db.submit(ProcId(1), add_params(i % 8, 1, u64::MAX));
            i += 1;
        }
        checkpointer.join().unwrap();
        // One commit certainly behind the cycle's last phase token.
        db.execute(ProcId(1), add_params(0, 1, u64::MAX));
        let metrics = db.metrics().clone();
        Arc::try_unwrap(db).unwrap().shutdown(); // drains the queues, final fsync
        let records = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
        assert_eq!(records.len() as u64, metrics.committed(), "{mode:?}");
        for pair in records.windows(2) {
            assert!(
                pair[0].seq < pair[1].seq,
                "{mode:?}: commit log out of order: {:?} then {:?}",
                pair[0].seq,
                pair[1].seq
            );
        }
        // The cycle's phase tokens took seqs between the commits.
        let span = records.last().unwrap().seq.0 - records[0].seq.0 + 1;
        assert!(span > records.len() as u64, "{mode:?}: phase tokens missing from the seq space");
    }
}

#[test]
fn shard_owned_unknown_procedure_aborts_and_counts_fallback() {
    let db = db_with_mode(StrategyKind::Calc, "so-unknown", ExecutorMode::ShardOwned);
    let out = db.execute(ProcId(99), add_params(1, 1, 10));
    assert!(matches!(
        out,
        TxnOutcome::Aborted(AbortReason::BadParams(_))
    ));
    assert_eq!(db.health().routing_fallbacks(), 1);
    // Parity with the pool: a request that never resolved does not reach
    // the outcome metrics in either mode.
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
                db.execute(ProcId(2), transfer_params(i % 12, (i * 7 + 1) % 12, 1));
                i += 1;
            }
        })
    };
    for _ in 0..5 {
        db.checkpoint_now().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    feeder.join().unwrap();
    let total: u64 = (0..12u64).map(|k| counter(db.get(Key(k)))).sum();
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

/// What one mode made of [`mixed_sequence`]: the durable commit-token
/// stream, the outcome counters and the store image.
#[derive(Debug, PartialEq)]
struct RunImage {
    log: Vec<(u64, ProcId, Vec<u8>)>,
    committed: u64,
    aborted: u64,
    records: usize,
    store: Vec<Option<u64>>,
}

/// One fixed single-threaded request sequence covering every way a
/// request can end: single-shard commits (insert and update), cross-shard
/// commits, logic aborts after a write (rollback), aborts before any
/// write, an unknown procedure and an undeclarable footprint.
fn mixed_sequence() -> Vec<(ProcId, Arc<[u8]>)> {
    const KEYS: u64 = 24;
    let mut seq = Vec::new();
    for k in 0..KEYS / 2 {
        seq.push((ProcId(1), add_params(k, 100, u64::MAX)));
    }
    for i in 0..240u64 {
        let (a, b) = (i % KEYS, (i * 7 + 3) % KEYS);
        seq.push(match i % 6 {
            0 => (ProcId(1), add_params(a, 5, u64::MAX)),
            // Writes first, then trips its limit: exercises undo.
            1 => (ProcId(1), add_params(a, 50, 120)),
            2 | 3 if a != b => (ProcId(2), transfer_params(a, b, 10)),
            // More than any account ever holds: aborts before writing.
            4 if a != b => (ProcId(2), transfer_params(a, b, 1_000_000)),
            5 if i % 12 == 5 => (ProcId(99), add_params(a, 1, 1)),
            5 => (ProcId(1), Arc::from(&b"short"[..])),
            _ => (ProcId(1), add_params(b, 1, u64::MAX)),
        });
    }
    seq
}

fn run_mixed_sequence(mode: ExecutorMode) -> RunImage {
    let (db, log_dir) = logged_db(&format!("equiv-{mode}"), mode);
    let mut outcomes = (0u64, 0u64);
    for (proc, params) in mixed_sequence() {
        match db.execute(proc, params) {
            TxnOutcome::Committed(_) => outcomes.0 += 1,
            TxnOutcome::Aborted(_) => outcomes.1 += 1,
        }
    }
    assert!(
        outcomes.0 > 50 && outcomes.1 > 50,
        "sequence is not mixed: {outcomes:?}"
    );
    if mode == ExecutorMode::ShardOwned {
        assert!(db.health().cross_shard_txns() > 0, "no fence exercised");
        assert!(
            db.health().routing_fallbacks() > 0,
            "no routing-time abort exercised"
        );
    }
    let log = logged_commands(&db, &log_dir)
        .into_iter()
        .map(|r| (r.seq.0, r.proc, r.params.to_vec()))
        .collect::<Vec<_>>();
    assert_eq!(log.len() as u64, outcomes.0, "{mode}: one token per commit");
    RunImage {
        log,
        committed: db.metrics().committed(),
        aborted: db.metrics().aborted(),
        records: db.record_count(),
        store: (0..32u64)
            .map(|k| db.get(Key(k)).map(|v| counter(Some(v))))
            .collect(),
    }
}

#[test]
fn both_modes_produce_the_same_log_counters_and_store() {
    let pool = run_mixed_sequence(ExecutorMode::Pool);
    let owned = run_mixed_sequence(ExecutorMode::ShardOwned);
    assert_eq!(pool, owned);
}

#[test]
fn shard_owned_shutdown_drains_a_backlog_of_cross_shard_transfers() {
    let db = db_with_mode(StrategyKind::Calc, "so-shutdown", ExecutorMode::ShardOwned);
    const KEYS: u64 = 16;
    for k in 0..KEYS {
        db.execute(ProcId(1), add_params(k, 1_000_000, u64::MAX));
    }
    // Four submitters leave every owner's queue deep in fenced transfers
    // (and fences from lower owners) at the moment shutdown starts.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let db = &db;
            s.spawn(move || {
                for i in 0..750u64 {
                    let from = (t * 5 + i) % KEYS;
                    db.submit(
                        ProcId(2),
                        transfer_params(from, (from + 1 + i % 7) % KEYS, 1),
                    );
                }
            });
        }
    });
    assert!(
        db.health().cross_shard_txns() > 0,
        "no fence path exercised"
    );
    let (metrics, strategy) = (db.metrics().clone(), db.strategy().clone());
    let start = Instant::now();
    db.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "shutdown took {:?}",
        start.elapsed()
    );
    assert_eq!(
        metrics.committed(),
        KEYS + 3000,
        "shutdown dropped a queued transfer"
    );
    let total: u64 = (0..KEYS).map(|k| counter(strategy.get(Key(k)))).sum();
    assert_eq!(total, KEYS * 1_000_000);
}

#[test]
fn pool_shutdown_drains_a_full_bounded_queue() {
    // Every worker shares the queue, so any of them may pop any drain
    // marker: shutdown must queue all markers before joining anyone, and
    // the markers must wait their turn behind a queue that is full.
    let mut config = EngineConfig::new(
        StrategyKind::Calc,
        1024,
        16,
        calc_testkit::temp_dir("pool-shutdown"),
    );
    config.workers = 4;
    config.queue_capacity = Some(8);
    config.executor_mode = ExecutorMode::Pool;
    let db = Database::open(config, registry()).unwrap();
    for i in 0..3000u64 {
        db.submit(ProcId(1), add_params(i % 64, 1, u64::MAX));
    }
    let metrics = db.metrics().clone();
    let start = Instant::now();
    db.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "shutdown took {:?}",
        start.elapsed()
    );
    assert_eq!(
        metrics.committed(),
        3000,
        "shutdown dropped a queued transaction"
    );
}
