//! The executor through the public API: commit, abort and rollback,
//! concurrent submission, checkpoints and shutdown under load, and a
//! fixed request sequence checked against a serial model of the same
//! procedures: store image, outcome counters and commit-token stream.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::Key;
use calc_common::vfs::OsVfs;
use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
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

/// Moves `delta` from one counter to another; aborts before writing if
/// the source holds less than `delta`.
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

fn open_db(kind: StrategyKind, name: &str) -> Database {
    let mut config = EngineConfig::new(kind, 1024, 16, calc_testkit::temp_dir(name));
    config.workers = 4;
    Database::open(config, registry()).unwrap()
}

/// A four-worker engine with a durable command log, and the log's directory.
fn logged_db(name: &str) -> (Database, std::path::PathBuf) {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 1024, name);
    config.workers = 4;
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
    let db = open_db(StrategyKind::Calc, "exec");
    let out = db.execute(ProcId(1), add_params(7, 5, 100));
    assert!(matches!(out, TxnOutcome::Committed(_)));
    assert_eq!(counter(db.get(Key(7))), 5);
    let out = db.execute(ProcId(1), add_params(7, 10, 100));
    assert!(matches!(out, TxnOutcome::Committed(_)));
    assert_eq!(counter(db.get(Key(7))), 15);
    assert_eq!(db.metrics().committed(), 2);
}

#[test]
fn aborted_transaction_rolls_back() {
    let db = open_db(StrategyKind::Calc, "abort");
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

#[test]
fn unknown_procedure_aborts() {
    let db = open_db(StrategyKind::Calc, "unknown");
    let out = db.execute(ProcId(99), add_params(1, 1, 10));
    assert!(matches!(
        out,
        TxnOutcome::Aborted(AbortReason::BadParams(_))
    ));
}

#[test]
fn concurrent_submissions_all_commit() {
    let db = open_db(StrategyKind::Calc, "concurrent");
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

/// Two upserts of one absent key, submitted together: the lock word of
/// the key serializes them though the key has no slot yet, so one
/// inserts and the other overwrites (the counter reads 2). Without the
/// lock both would read it absent, and the second insert would find the
/// first's record and change nothing.
#[test]
fn concurrent_upserts_of_an_absent_key_insert_once_and_overwrite_once() {
    for kind in [StrategyKind::Calc, StrategyKind::Ipp, StrategyKind::Zigzag] {
        let db = Arc::new(open_db(kind, &format!("upsert-race-{}", kind.name())));
        const ROUNDS: u64 = 200;
        let start = Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let (db, start) = (db.clone(), start.clone());
                std::thread::spawn(move || {
                    for key in 0..ROUNDS {
                        start.wait();
                        let out = db.execute(ProcId(1), add_params(key, 1, u64::MAX));
                        assert!(matches!(out, TxnOutcome::Committed(_)), "{out:?}");
                    }
                })
            })
            .collect();
        for r in racers {
            r.join().unwrap();
        }
        assert_eq!(db.record_count(), ROUNDS as usize, "{kind}");
        for key in 0..ROUNDS {
            assert_eq!(counter(db.get(Key(key))), 2, "{kind}: key {key}");
        }
    }
}

#[test]
fn checkpoint_under_load_every_strategy() {
    for kind in StrategyKind::ALL_CHECKPOINTING {
        let db = Arc::new(open_db(kind, &format!("underload-{}", kind.name())));
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
            .unwrap_or_else(|e| panic!("checkpoint failed for {}: {e}", kind.name()));
        assert!(stats.records > 0 || kind.is_partial());
        stop.store(true, Ordering::Relaxed);
        feeder.join().unwrap();
        // Checkpoint file exists and validates: every catalogued cycle
        // reads back whole (each frame, footer and manifest digest checked).
        let metas = db.checkpoint_dir().manifests();
        assert!(
            !metas.is_empty(),
            "{}: no checkpoint published",
            kind.name()
        );
        for meta in &metas {
            let entries = meta
                .read_all()
                .unwrap_or_else(|e| panic!("{}: cycle {} unreadable: {e}", kind.name(), meta.id));
            assert_eq!(entries.len() as u64, meta.records, "{}", kind.name());
        }
    }
}

#[test]
fn shutdown_under_load_drains_and_completes() {
    // Shutdown with a deep backlog must drain every submitted
    // transaction and return promptly — regression test for the
    // bounded join: a wedged worker now panics with a diagnosis
    // instead of hanging the suite forever.
    let db = open_db(StrategyKind::Calc, "shutdown-load");
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
fn commit_log_stays_in_seq_order() {
    // The commit-token invariant: the durable command log is strictly
    // seq-ordered whichever workers the commits come from, and across the
    // phase tokens of a checkpoint running at the same time.
    let (db, log_dir) = logged_db("seq-order");
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
    Arc::try_unwrap(db).unwrap().shutdown(); // drains the queue, final fsync
    let records = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    assert_eq!(records.len() as u64, metrics.committed());
    for pair in records.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq,
            "commit log out of order: {:?} then {:?}",
            pair[0].seq,
            pair[1].seq
        );
    }
    // The cycle's phase tokens took seqs between the commits.
    let span = records.last().unwrap().seq.0 - records[0].seq.0 + 1;
    assert!(
        span > records.len() as u64,
        "phase tokens missing from the seq space"
    );
}

/// One fixed single-threaded request sequence covering every way a
/// request can end: commits that insert and that update, two-key
/// transfers, logic aborts after a write (rollback), aborts before any
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

/// [`AddProc`] and [`TransferProc`] executed one request at a time over a
/// map: what the engine must be left with after the same requests.
#[derive(Default)]
struct SerialModel {
    store: BTreeMap<u64, u64>,
    committed: u64,
    /// The procedure ran and rolled back.
    aborted: u64,
    /// Never resolved to a procedure and a footprint (unknown procedure,
    /// undeclarable params): the caller sees an abort, the abort counter
    /// does not.
    rejected: u64,
}

impl SerialModel {
    fn get(&self, key: u64) -> u64 {
        self.store.get(&key).copied().unwrap_or(0)
    }

    fn apply(&mut self, proc: ProcId, p: &[u8]) {
        let mut r = params::Reader::new(p);
        let mut arg = || r.u64().ok();
        // `None`: rejected; `Some(None)`: aborted; else the writes.
        let writes = match proc {
            ProcId(1) => arg().map(|key| {
                let (delta, limit) = (arg().unwrap(), arg().unwrap());
                let next = self.get(key) + delta;
                (next <= limit).then(|| vec![(key, next)])
            }),
            // `put` updates and never inserts, so a transfer into an
            // absent key aborts too.
            ProcId(2) => arg().map(|from| {
                let (to, delta) = (arg().unwrap(), arg().unwrap());
                let src = self.get(from);
                (src >= delta && self.store.contains_key(&to))
                    .then(|| vec![(from, src - delta), (to, self.get(to) + delta)])
            }),
            _ => None,
        };
        match writes {
            None => self.rejected += 1,
            Some(None) => self.aborted += 1,
            Some(Some(writes)) => {
                self.store.extend(writes);
                self.committed += 1;
            }
        }
    }
}

#[test]
fn mixed_sequence_matches_the_serial_model() {
    let (db, log_dir) = logged_db("serial-model");
    let mut model = SerialModel::default();
    let mut outcomes = (0u64, 0u64);
    for (proc, params) in mixed_sequence() {
        model.apply(proc, &params);
        match db.execute(proc, params) {
            TxnOutcome::Committed(_) => outcomes.0 += 1,
            TxnOutcome::Aborted(_) => outcomes.1 += 1,
        }
    }
    assert!(
        model.committed > 50 && model.aborted > 50 && model.rejected > 0,
        "sequence is not mixed: {} committed, {} aborted, {} rejected",
        model.committed,
        model.aborted,
        model.rejected
    );
    assert_eq!(outcomes, (model.committed, model.aborted + model.rejected));
    assert_eq!(db.metrics().committed(), model.committed);
    assert_eq!(db.metrics().aborted(), model.aborted);

    let store: BTreeMap<u64, u64> = (0..32u64)
        .filter_map(|k| db.get(Key(k)).map(|v| (k, counter(Some(v)))))
        .collect();
    assert_eq!(
        store, model.store,
        "store image differs from the serial model"
    );
    assert_eq!(db.record_count(), model.store.len());

    let log = logged_commands(&db, &log_dir);
    assert_eq!(
        log.len() as u64,
        model.committed,
        "one log record per commit"
    );
    for pair in log.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq,
            "commit log out of order: {:?} then {:?}",
            pair[0].seq,
            pair[1].seq
        );
    }
}

#[test]
fn pool_shutdown_drains_a_full_bounded_queue() {
    // Shutdown drops the queue's sender while the queue is full: every
    // worker must drain what is buffered before it sees the disconnect.
    let mut config = EngineConfig::new(
        StrategyKind::Calc,
        1024,
        16,
        calc_testkit::temp_dir("pool-shutdown"),
    );
    config.workers = 4;
    config.queue_capacity = Some(8);
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
