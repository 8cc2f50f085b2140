//! Cross-crate integration tests: the full stack (engine → strategy →
//! storage → checkpoint files → recovery) exercised through the public
//! `calc_db` facade.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use calc_db::common::vfs::OsVfs;
use calc_db::core::calc::CalcStrategy;
use calc_db::core::manifest::{CheckpointDir, RestartChain};
use calc_db::core::partition::capture_parts;
use calc_db::core::strategy::CheckpointStrategy;
use calc_db::core::throttle::Throttle;
use calc_db::engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_db::recovery;
use calc_db::storage::dual::StoreConfig;
use calc_db::txn::commitlog::CommitLog;
use calc_db::txn::proc::{
    params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps,
};
use calc_db::workload::tpcc::{keys, tables, TpccConfig, TpccWorkload};
use calc_db::{CommitSeq, Key};

/// `counter[key] += delta`, insert-on-absent.
struct Bump;
const BUMP: ProcId = ProcId(1);

impl Procedure for Bump {
    fn id(&self) -> ProcId {
        BUMP
    }
    fn name(&self) -> &'static str {
        "bump"
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
        let cur = ops
            .get(key)
            .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
            .unwrap_or(0);
        let next = (cur + delta).to_le_bytes();
        if ops.get(key).is_some() {
            ops.put(key, &next);
        } else {
            ops.insert(key, &next);
        }
        Ok(())
    }
}

fn bump(key: u64, delta: u64) -> Arc<[u8]> {
    params::Writer::new().u64(key).u64(delta).finish()
}

fn registry() -> ProcRegistry {
    let mut r = ProcRegistry::new();
    r.register(Arc::new(Bump));
    r
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "calc-e2e-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn full_stack_checkpoint_and_recovery_for_every_tc_strategy() {
    for kind in StrategyKind::ALL_CHECKPOINTING {
        if matches!(kind, StrategyKind::Fuzzy | StrategyKind::PFuzzy) {
            continue; // not transaction-consistent; covered below
        }
        let dir = tmp_dir(&format!("fullstack-{}", kind.name()));
        let log_dir = dir.join("cmdlog");
        let mut config = EngineConfig::new(kind, 8192, 16, dir.join("ckpts"));
        config.command_log_dir = Some(log_dir.clone());
        config.workers = 4;
        let db = Database::open(config, registry()).unwrap();
        for k in 0..500u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(kind.is_partial()).unwrap();

        // Concurrent load while checkpointing.
        let stop = Arc::new(AtomicBool::new(false));
        let dbc = Arc::new(db);
        let feeder = {
            let db = dbc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    db.submit(BUMP, bump(i % 500, 1));
                    i += 1;
                }
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        dbc.checkpoint_now()
            .unwrap_or_else(|e| panic!("{}: checkpoint failed: {e}", kind.name()));
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Relaxed);
        feeder.join().unwrap();
        // Let queued work drain via a sync marker per key region.
        dbc.execute(BUMP, bump(0, 0));
        while dbc.metrics().committed() < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Wait for full drain: submit count unknown, so wait until the
        // commit counter stabilizes.
        let mut last = 0;
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = dbc.metrics().committed();
            if now == last {
                break;
            }
            last = now;
        }

        // Recover into a fresh CALC store (checkpoint files are
        // strategy-agnostic) and replay the command log.
        let fresh = CalcStrategy::full(
            StoreConfig::for_records(8192, 16),
            Arc::new(CommitLog::default()),
        );
        dbc.sync_command_log().unwrap();
        let commands = recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
        let outcome = recovery::recover(dbc.checkpoint_dir(), &fresh, &registry(), &commands)
            .unwrap_or_else(|e| panic!("{}: recovery failed: {e}", kind.name()));
        assert!(outcome.loaded_records > 0, "{}", kind.name());
        for k in 0..500u64 {
            assert_eq!(
                fresh.get(Key(k)),
                dbc.get(Key(k)),
                "{}: key {k} diverged after recovery",
                kind.name()
            );
        }
    }
}

#[test]
fn fuzzy_checkpoints_are_refused_by_recovery() {
    let dir = tmp_dir("fuzzy-refused");
    let db = Database::open(
        EngineConfig::new(StrategyKind::PFuzzy, 1024, 16, dir),
        registry(),
    )
    .unwrap();
    for k in 0..10u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();
    db.execute(BUMP, bump(1, 5));
    db.checkpoint_now().unwrap();

    let fresh = calc_db::baselines::FuzzyStrategy::partial(
        StoreConfig::for_records(1024, 16),
        Arc::new(CommitLog::default()),
    );
    let err = recovery::recover(db.checkpoint_dir(), &fresh, &registry(), &[]).unwrap_err();
    assert!(matches!(
        err,
        recovery::RecoveryError::NotTransactionConsistent(_)
    ));
}

#[test]
fn durable_command_log_survives_crash_and_replays() {
    let dir = tmp_dir("durable-log");
    let log_dir = dir.join("cmdlog");

    let mut config = EngineConfig::new(StrategyKind::Calc, 1024, 16, dir.join("ckpts"));
    config.command_log_dir = Some(log_dir.clone());
    let db = Database::open(config, registry()).unwrap();
    for k in 0..50u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    let ckpt = {
        for k in 0..50u64 {
            db.execute(BUMP, bump(k, k + 1));
        }
        let stats = db.checkpoint_now().unwrap();
        for k in 0..10u64 {
            db.execute(BUMP, bump(k, 100));
        }
        stats
    };
    // Group-commit the command log to disk, then "crash".
    db.sync_command_log().unwrap();
    let expected: Vec<_> = (0..50u64).map(|k| db.get(Key(k))).collect();
    let ckpt_dir_path = db.checkpoint_dir().path().to_path_buf();
    drop(db);

    // Recover purely from disk artifacts: checkpoint files + log segments.
    let commands = recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    assert_eq!(commands.len(), 60);
    let ckpt_dir = CheckpointDir::open(&ckpt_dir_path, Arc::new(Throttle::unlimited())).unwrap();
    let fresh = CalcStrategy::full(
        StoreConfig::for_records(1024, 16),
        Arc::new(CommitLog::default()),
    );
    let outcome = recovery::recover(&ckpt_dir, &fresh, &registry(), &commands).unwrap();
    assert_eq!(outcome.watermark, ckpt.watermark);
    assert_eq!(outcome.replayed, 10);
    for (k, exp) in expected.iter().enumerate() {
        assert_eq!(fresh.get(Key(k as u64)), *exp, "key {k}");
    }
}

/// The engine-level metric list is the declared table: every [`Metric`]
/// exactly once, no key twice, and a recorded value reads the same through
/// the list and through its typed getter.
#[test]
fn metric_list_is_the_declared_table() {
    use calc_db::engine::{Metric, MetricValue};

    let dir = tmp_dir("metric-list");
    let mut config = EngineConfig::new(StrategyKind::Calc, 1024, 16, dir.join("ckpts"));
    config.command_log_dir = Some(dir.join("cmdlog"));
    let db = Database::open(config, registry()).unwrap();
    for k in 0..20u64 {
        let outcome = db.execute_durable(BUMP, bump(k, 1)).unwrap();
        assert!(matches!(outcome, TxnOutcome::Committed(_)));
    }
    let ckpt = db.checkpoint_now().unwrap();
    db.health().add(Metric::retention_failures, 3);

    let list = db.metric_values();
    let count = |name: &str| list.iter().filter(|(n, _)| n == name).count();
    for (name, _) in &list {
        assert_eq!(count(name), 1, "{name} listed twice");
    }
    for m in Metric::ALL {
        assert_eq!(count(m.desc().name), 1, "{} not listed", m.desc().name);
    }
    let listed = |name: &str| list.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(listed("committed"), MetricValue::Int(20));
    assert_eq!(listed("records"), MetricValue::Int(20));
    assert_eq!(listed("commit_batch_records"), MetricValue::Int(20));
    assert_eq!(db.health().commit_batch_records(), 20);
    assert_eq!(listed("retention_failures"), MetricValue::Int(3));
    assert_eq!(db.health().retention_failures(), 3);
    assert_eq!(listed("last_checkpoint_parts"), MetricValue::Int(ckpt.parts as u64));
    assert_eq!(listed("last_checkpoint_bytes"), MetricValue::Int(ckpt.bytes));
    assert_eq!(listed("degraded"), MetricValue::Flag(false));
    assert_eq!(listed("avg_batch_size").to_string(), format!("{:.2}", db.health().avg_batch_size()));
}

/// Fire-and-forget commits wake the group committer's sync thread per
/// batch, not per commit (the tier-1 cut of the engine suite's
/// `fire_and_forget_commits_wake_the_sync_thread_per_batch_not_per_commit`),
/// and the log they leave is complete and in seq order.
#[test]
fn fire_and_forget_commits_wake_the_sync_thread_per_batch() {
    use calc_db::engine::MetricValue;
    const N: u64 = 1_000;

    let dir = tmp_dir("commit-wakeups");
    let mut config = EngineConfig::new(StrategyKind::Calc, 1024, 16, dir.join("ckpts"));
    config.command_log_dir = Some(dir.join("cmdlog"));
    config.workers = 2;
    let db = Database::open(config, registry()).unwrap();
    for i in 0..N {
        db.submit(BUMP, bump(i % 64, 1));
    }
    // A commit is counted after it is staged, so this is the drain.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while db.metrics().committed() < N {
        assert!(std::time::Instant::now() < deadline, "the submissions never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    db.sync_command_log().unwrap();

    let list = db.metric_values();
    let listed = |name: &str| match list.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Int(v))) => *v,
        other => panic!("{name}: {other:?}"),
    };
    let (wakeups, batches) = (listed("commit_wakeups"), listed("commit_batches"));
    assert_eq!(listed("commit_batch_records"), N);
    assert!(batches * 2 <= N, "{batches} batches for {N} commits: nothing was batched");
    assert!(wakeups <= batches + 2, "{wakeups} wake-ups for {batches} batches");

    let commands = recovery::read_dir_logs(&OsVfs, &dir.join("cmdlog")).unwrap();
    assert_eq!(commands.len() as u64, N);
    assert!(commands.windows(2).all(|w| w[0].seq < w[1].seq), "log out of seq order");
}

/// The production boot path over the production formats: a log-only cold
/// start, then a checkpoint chain plus an un-checkpointed tail, then a
/// restart after a post-recovery checkpoint. Every synced write survives
/// each restart.
#[test]
fn server_boot_path_recovers_across_three_restarts() {
    use calc_server::procs;
    let dir = tmp_dir("server-restarts");
    let put = |db: &Database, key: u64, value: u64| {
        let p = params::Writer::new().u64(key).bytes(&value.to_le_bytes()).finish();
        assert!(matches!(db.execute(procs::PUT, p), TxnOutcome::Committed(_)));
    };
    let check = |db: &Database, expected: &[(u64, u64)]| {
        assert_eq!(db.record_count(), expected.len());
        for (k, v) in expected {
            assert_eq!(db.get(Key(*k)).as_deref(), Some(&v.to_le_bytes()[..]), "key {k}");
        }
    };
    let mut model: Vec<(u64, u64)> = Vec::new();

    // Lifetime 1: writes only, no checkpoint.
    let db = calc_server::open_or_recover(&dir, |c| c.workers = 2).unwrap();
    for k in 0..30u64 {
        put(&db, k, k + 1);
        model.push((k, k + 1));
    }
    db.sync_command_log().unwrap();
    drop(db);

    // Lifetime 2: log-only cold start; then a checkpoint and a tail.
    let db = calc_server::open_or_recover(&dir, |c| c.workers = 2).unwrap();
    check(&db, &model);
    db.checkpoint_now().unwrap();
    for k in 30..45u64 {
        put(&db, k, k + 1);
        model.push((k, k + 1));
    }
    db.sync_command_log().unwrap();
    drop(db);

    // Lifetime 3: chain + tail; the post-recovery checkpoint must cover
    // the replayed tail, and one more tail rides on top of it.
    let db = calc_server::open_or_recover(&dir, |c| c.workers = 2).unwrap();
    check(&db, &model);
    db.checkpoint_now().unwrap();
    put(&db, 7, 7000);
    model[7].1 = 7000;
    db.sync_command_log().unwrap();
    drop(db);

    let db = calc_server::open_or_recover(&dir, |c| c.workers = 2).unwrap();
    check(&db, &model);
    assert_eq!(db.checkpoint_dir().quarantined_count(), 0);
    drop(db);

    // One format per artifact on disk.
    for entry in std::fs::read_dir(dir.join("ckpts")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(name.ends_with(".manifest") || name.contains(".part-"), "{name}");
    }
    for entry in std::fs::read_dir(dir.join("cmdlog")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(name.starts_with("cmdlog-") && name.ends_with(".log"), "{name}");
    }
}

/// A crash tears the tail of the newest log segment. The first restart
/// recovers around the tear and its writer opens a segment above it; the
/// writes that lifetime acknowledges must survive the *next* restart too,
/// which they do only if the tear was cut off before it was sealed under
/// the new segment.
#[test]
fn writes_acknowledged_after_a_torn_tail_survive_the_next_restart() {
    use calc_server::procs;
    let dir = tmp_dir("torn-tail-two-restarts");
    let boot = || calc_server::open_or_recover(&dir, |c| c.workers = 2).unwrap();
    let put = |db: &Database, key: u64| {
        let p = params::Writer::new().u64(key).bytes(&key.to_le_bytes()).finish();
        assert!(matches!(db.execute_durable(procs::PUT, p), Ok(TxnOutcome::Committed(_))));
    };
    let db = boot();
    (0..50).for_each(|k| put(&db, k));
    db.shutdown();

    // The crash: the first 7 bytes of a 40-byte record's head and body.
    let segments = recovery::logfile::list_segments(&OsVfs, &dir.join("cmdlog")).unwrap();
    let (_, newest) = segments.last().unwrap();
    let whole = std::fs::metadata(newest).unwrap().len();
    let mut torn = std::fs::read(newest).unwrap();
    torn.extend_from_slice(&[40, 0, 0, 0, 1, 2, 3]);
    std::fs::write(newest, torn).unwrap();

    let db = boot();
    assert_eq!(db.record_count(), 50);
    (50..60).for_each(|k| put(&db, k));
    db.shutdown();

    let db = boot();
    let lost: Vec<u64> = (0..60).filter(|&k| db.get(Key(k)).is_none()).collect();
    assert!(lost.is_empty(), "acknowledged keys lost across the second restart: {lost:?}");
    db.shutdown();
    assert_eq!(std::fs::metadata(newest).unwrap().len(), whole, "the tear was cut off");
}

/// Corruption in a sealed log segment stops every restart's tail there for
/// good. A restart that promotes at it then acknowledges writes, which
/// must survive the next restart, stopped at the same tear. They do only
/// if the segments past the tear — never applied, their seqs reissued —
/// were set aside before the promoted node's writer opened above them.
#[test]
fn writes_acknowledged_after_a_sealed_tear_survive_the_next_restart() {
    use calc_server::procs;
    let dir = tmp_dir("sealed-tear-two-restarts");
    let log_dir = dir.join("cmdlog");
    let boot = || {
        calc_server::open_or_recover(&dir, |c| {
            c.workers = 2;
            c.log_segment_bytes = Some(512);
        })
        .unwrap()
    };
    let put = |db: &Database, key: u64| {
        let p = params::Writer::new().u64(key).bytes(&key.to_le_bytes()).finish();
        assert!(matches!(db.execute_durable(procs::PUT, p), Ok(TxnOutcome::Committed(_))));
    };
    let present = |db: &Database| -> Vec<u64> {
        (0..200).filter(|&k| db.get(Key(k)).is_some()).collect()
    };
    let db = boot();
    (0..50).for_each(|k| put(&db, k));
    db.shutdown();

    // Segment 0's last record fails its CRC; segments above it hold the rest.
    let segments = recovery::logfile::list_segments(&OsVfs, &log_dir).unwrap();
    assert!(segments.len() > 2, "{} segments", segments.len());
    let mut bytes = std::fs::read(&segments[0].1).unwrap();
    *bytes.last_mut().unwrap() ^= 0xFF;
    std::fs::write(&segments[0].1, bytes).unwrap();

    let db = boot();
    let kept = present(&db);
    assert!(kept.len() < 50 && kept == (0..kept.len() as u64).collect::<Vec<_>>(), "{kept:?}");
    (100..110).for_each(|k| put(&db, k));
    db.shutdown();

    let db = boot();
    assert_eq!(present(&db), kept.iter().copied().chain(100..110).collect::<Vec<_>>());
    db.shutdown();
    let set_aside = std::fs::read_dir(&log_dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".log.quarantine"))
        .count();
    assert_eq!(set_aside, segments.len() - 1, "set aside, not deleted");
}

/// The commit point end to end: ack-before-fsync
/// and ack-after-fsync commits race a checkpoint, the process dies, and
/// the command log on disk is strictly seq-ordered (phase tokens leave
/// gaps, never reorder) and restarts to exactly what was committed.
#[test]
fn concurrent_commits_and_a_checkpoint_log_in_seq_order_and_restart_to_the_model() {
    use calc_server::procs;
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 150;
    let dir = tmp_dir("commit-point");
    let boot = || calc_server::open_or_recover(&dir, |c| c.workers = 2).unwrap();
    let db = boot();
    std::thread::scope(|s| {
        // Each thread owns its keys and overwrites them in rounds, so the
        // model is every key's last round; odd threads wait for the
        // fsync, even ones do not.
        for t in 0..THREADS {
            let db = &db;
            s.spawn(move || {
                for i in 0..ROUNDS {
                    let p = params::Writer::new()
                        .u64(t * 100 + i % 10)
                        .bytes(&i.to_le_bytes())
                        .finish();
                    let outcome = if t % 2 == 1 {
                        db.execute_durable(procs::PUT, p).unwrap()
                    } else {
                        db.execute(procs::PUT, p)
                    };
                    assert!(matches!(outcome, TxnOutcome::Committed(_)));
                }
            });
        }
        s.spawn(|| db.checkpoint_now().unwrap());
    });
    // Die without a sync: dropping the engine is the only flush.
    drop(db);

    let commands = recovery::read_dir_logs(&OsVfs, &dir.join("cmdlog")).unwrap();
    assert_eq!(commands.len() as u64, THREADS * ROUNDS);
    assert!(
        commands.windows(2).all(|w| w[0].seq < w[1].seq),
        "command log out of seq order"
    );
    let db = boot();
    assert_eq!(db.record_count() as u64, THREADS * 10);
    for t in 0..THREADS {
        for k in 0..10u64 {
            let last = ROUNDS - 10 + k;
            assert_eq!(
                db.get(Key(t * 100 + k)).as_deref(),
                Some(&last.to_le_bytes()[..]),
                "key {}",
                t * 100 + k
            );
        }
    }
}

/// A restart is the node's own standby, drained and promoted: over a
/// two-part pCALC chain it opens each part exactly twice, once to
/// validate and once to load — the promotion's seal reads claims only.
#[test]
fn server_restart_opens_each_part_once_to_validate_and_once_to_load() {
    use calc_server::procs;
    use calc_testkit::CountingVfs;
    let dir = tmp_dir("restart-opens");
    let tune = |c: &mut EngineConfig| {
        c.workers = 2;
        c.strategy = StrategyKind::PCalc;
        c.checkpoint_threads = 2;
    };
    let put = |db: &Database, key: u64, value: u64| {
        let p = params::Writer::new().u64(key).bytes(&value.to_le_bytes()).finish();
        assert!(matches!(db.execute(procs::PUT, p), TxnOutcome::Committed(_)));
    };
    let db = calc_server::open_or_recover(&dir, tune).unwrap();
    for k in 0..50u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();
    for round in 1..=2u64 {
        for k in 0..20u64 {
            put(&db, k, round);
        }
        db.checkpoint_now().unwrap();
    }
    put(&db, 7, 99);
    drop(db);

    let vfs = Arc::new(CountingVfs::default());
    let counting = vfs.clone();
    let db = calc_server::open_or_recover(&dir, move |c| {
        tune(c);
        c.vfs = counting.clone();
    })
    .unwrap();
    assert_eq!(db.record_count(), 50);
    assert_eq!(db.get(Key(7)).as_deref(), Some(&99u64.to_le_bytes()[..]));
    assert_eq!(db.get(Key(8)).as_deref(), Some(&2u64.to_le_bytes()[..]));
    let opens = vfs.opens();
    let parts: Vec<_> = opens
        .iter()
        .filter(|(p, _)| p.to_string_lossy().contains(".part-"))
        .collect();
    assert_eq!(parts.len(), 6, "3 cycles x 2 parts: {parts:?}");
    for (path, n) in parts {
        assert_eq!(*n, 2, "{} opened {n} times", path.display());
    }
}

/// Retention truncated the log below the sole full checkpoint, and that
/// checkpoint is corrupt: the surviving log tail is not the whole history,
/// so a standby over the directory must refuse to promote it, exactly as a
/// restart does.
#[test]
fn a_standby_refuses_a_log_tail_whose_beginning_is_gone() {
    use calc_db::engine::standby::{Standby, StandbyConfig};
    use calc_server::procs;
    let dir = tmp_dir("standby-truncated");
    let lifetime = |work: &dyn Fn(&Database)| {
        let db = calc_server::open_or_recover(&dir, |c| {
            c.workers = 2;
            c.keep_checkpoints = Some(1);
        })
        .unwrap();
        work(&db);
        db.shutdown();
    };
    let put = |db: &Database, key: u64| {
        let p = params::Writer::new().u64(key).bytes(b"acked").finish();
        assert!(matches!(db.execute_durable(procs::PUT, p).unwrap(), TxnOutcome::Committed(_)));
    };
    lifetime(&|db| {
        (0..50).for_each(|k| put(db, k));
        db.checkpoint_now().unwrap();
    });
    // Cycle 1 supersedes cycle 0, and retention deletes the sealed
    // segment 0 that it covers.
    lifetime(&|db| {
        db.checkpoint_now().unwrap();
        (50..55).for_each(|k| put(db, k));
    });
    let log_dir = dir.join("cmdlog");
    assert!(!log_dir.join("cmdlog-000000.log").exists());
    let mut flipped = 0;
    for entry in std::fs::read_dir(dir.join("ckpts")).unwrap() {
        let path = entry.unwrap().path();
        if path.to_string_lossy().contains("ckpt-0000000001-full.part-") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped > 0, "cycle 1 is the sole full checkpoint");

    // The server's store, strategy and directories.
    let c = EngineConfig::new(StrategyKind::Calc, 1 << 20, 64, dir.join("ckpts"));
    let cfg = StandbyConfig::new(c.strategy, c.store, c.checkpoint_dir, log_dir);
    let err = match Standby::open(cfg, procs::registry()).and_then(Standby::promote) {
        Ok(promoted) => panic!("promoted a {}-record tail", promoted.record_count()),
        Err(e) => e,
    };
    match err.get_ref().and_then(|e| e.downcast_ref::<recovery::RecoveryError>()) {
        Some(recovery::RecoveryError::LogTruncated { lowest_segment, quarantined }) => {
            assert!(*lowest_segment > 0);
            assert_eq!(*quarantined, flipped + 1, "the parts and their manifest");
        }
        other => panic!("expected LogTruncated, got {other:?} ({err})"),
    }
}

/// Files named like the retired single-file formats are inert: never
/// parsed, claimed, quarantined or deleted, whatever bytes they hold.
#[test]
fn stray_single_file_artifacts_are_inert() {
    use calc_db::core::file::CheckpointKind;
    let dir = tmp_dir("stray");
    let ckpts = CheckpointDir::open(&dir.join("ckpts"), Arc::new(Throttle::unlimited())).unwrap();
    for id in [0u64, 2] {
        capture_parts(&ckpts, CheckpointKind::Full, id, CommitSeq(id * 10), &[], 1, |_, w, _| {
            w.write_record(Key(id), b"v")
        })
        .unwrap();
    }
    // A well-formed record file under the old single-file name, claiming
    // the newest id in the directory.
    let stray_ckpt = ckpts.path().join("ckpt-0000000009-full.calc");
    std::fs::copy(
        ckpts.path().join(CheckpointDir::part_file_name(2, CheckpointKind::Full, 0)),
        &stray_ckpt,
    )
    .unwrap();
    let stray_bytes = std::fs::read(&stray_ckpt).unwrap();

    let ids = |metas: Vec<calc_db::core::CheckpointMeta>| -> Vec<u64> {
        metas.iter().map(|m| m.id).collect()
    };
    assert!(matches!(ckpts.restart_chain().unwrap(), RestartChain::Chain(..)));
    assert_eq!(ids(ckpts.manifests().unwrap()), vec![0, 2]);
    let claimed: Vec<u64> = ckpts.claims().unwrap().iter().map(|c| c.id).collect();
    assert_eq!(claimed, vec![0, 2]);
    assert_eq!(ckpts.chain().unwrap().0.id, 2);
    assert_eq!(ckpts.prune_chains(1).unwrap(), 1);
    let keep = ckpts
        .path()
        .join(CheckpointDir::manifest_file_name(2, CheckpointKind::Full));
    assert_eq!(ckpts.gc_through(u64::MAX, &keep).unwrap(), 0);
    assert_eq!(ids(ckpts.manifests().unwrap()), vec![2]);
    assert!(matches!(ckpts.restart_chain().unwrap(), RestartChain::Chain(..)));
    assert_eq!(ckpts.quarantined_count(), 0);
    assert_eq!(std::fs::read(&stray_ckpt).unwrap(), stray_bytes);

    // A well-formed record stream under the old single-file log name.
    let log_dir = dir.join("cmdlog");
    let mut w = recovery::SegmentedLogWriter::create(Arc::new(OsVfs), &log_dir, 512).unwrap();
    for seq in 1..=20u64 {
        w.append(&calc_db::txn::commitlog::CommitRecord {
            seq: CommitSeq(seq),
            txn: calc_db::TxnId(seq),
            proc: BUMP,
            params: bump(seq, 1),
        })
        .unwrap();
    }
    w.sync().unwrap();
    assert!(w.rotations() > 0);
    let segments = recovery::logfile::list_segments(&OsVfs, &log_dir).unwrap();
    let stray_log = log_dir.join("cmd.log");
    std::fs::copy(&segments[0].1, &stray_log).unwrap();
    let stray_bytes = std::fs::read(&stray_log).unwrap();

    assert_eq!(recovery::logfile::list_segments(&OsVfs, &log_dir).unwrap(), segments);
    assert_eq!(recovery::read_dir_logs(&OsVfs, &log_dir).unwrap().len(), 20);
    let truncated =
        recovery::truncate_segments_below(&OsVfs, &log_dir, CommitSeq(u64::MAX)).unwrap();
    assert_eq!(truncated.removed, segments.len() as u64 - 1, "all but the active segment");
    assert_eq!(std::fs::read(&stray_log).unwrap(), stray_bytes);
}

#[test]
fn tpcc_money_conserved_across_checkpoint_and_recovery() {
    let config = TpccConfig::small();
    let dir = tmp_dir("tpcc-recover");
    let mut registry = ProcRegistry::new();
    TpccWorkload::register(&mut registry);
    let log_dir = dir.join("cmdlog");
    let mut ec =
        EngineConfig::new(StrategyKind::PCalc, config.capacity_hint(5000), 140, dir.join("ckpts"));
    ec.command_log_dir = Some(log_dir.clone());
    ec.workers = 4;
    let db = Database::open(ec, registry).unwrap();
    let mut wl = TpccWorkload::new(config.clone(), 9);
    wl.populate(&db);
    db.finalize_load(true).unwrap();

    let mut committed = 0;
    for i in 0..300 {
        let (proc, p) = wl.next_request();
        if matches!(db.execute(proc, p), TxnOutcome::Committed(_)) {
            committed += 1;
        }
        if i == 150 {
            db.checkpoint_now().unwrap();
        }
    }
    assert!(committed > 250);
    db.checkpoint_now().unwrap();

    // Recover and verify warehouse YTD totals match exactly.
    let mut registry2 = ProcRegistry::new();
    TpccWorkload::register(&mut registry2);
    let fresh = CalcStrategy::partial(
        StoreConfig::for_records(config.capacity_hint(5000), 140),
        Arc::new(CommitLog::default()),
    );
    db.sync_command_log().unwrap();
    let commands = recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    recovery::recover(db.checkpoint_dir(), &fresh, &registry2, &commands).unwrap();
    for w in 0..config.warehouses {
        let live = tables::Warehouse::decode(&db.get(keys::warehouse(w)).unwrap()).unwrap();
        let rec = tables::Warehouse::decode(&fresh.get(keys::warehouse(w)).unwrap()).unwrap();
        assert_eq!(live.ytd_cents, rec.ytd_cents, "warehouse {w} YTD diverged");
    }
    assert_eq!(db.record_count(), fresh.record_count());
}

#[test]
fn checkpoint_files_are_portable_across_strategies() {
    // A checkpoint taken under Zig-Zag restores into a CALC store and
    // vice versa — the file format is strategy-agnostic.
    let dir = tmp_dir("portable");
    let db = Database::open(
        EngineConfig::new(StrategyKind::Zigzag, 1024, 16, dir),
        registry(),
    )
    .unwrap();
    for k in 0..100u64 {
        db.load_initial(Key(k), &k.to_le_bytes()).unwrap();
    }
    db.execute(BUMP, bump(5, 37));
    db.checkpoint_now().unwrap();

    let calc = CalcStrategy::full(
        StoreConfig::for_records(1024, 16),
        Arc::new(CommitLog::default()),
    );
    let outcome = recovery::recover_checkpoint_only(db.checkpoint_dir(), &calc).unwrap();
    assert_eq!(outcome.loaded_records, 100);
    assert_eq!(
        calc.get(Key(5)).unwrap(),
        (5u64 + 37).to_le_bytes().into()
    );
}

/// Tier-1's view of restart's direct checkpoint loader: a pCALC chain
/// with deletes (a key only the full holds, delete-then-reinsert inside
/// one interval, reinsertion an interval later) and a logged tail, built
/// through `Database`, restarted, and compared key by key with the serial
/// reference — `materialize_chain` over the same chain, then the tail
/// replayed in commit order.
#[test]
fn pcalc_chain_with_deletes_restarts_to_the_serial_reference() {
    use calc_db::core::merge::materialize_chain;
    use calc_testkit::{delete, registry, set_u64, DELETE, SET};

    const KEYS: u64 = 400;
    let base = tmp_dir("direct-load");
    let log_dir = base.join("cmdlog");
    let mut config = EngineConfig::new(StrategyKind::PCalc, 2048, 16, base.join("ckpts"));
    config.command_log_dir = Some(log_dir.clone());
    config.checkpoint_threads = 3;
    config.workers = 2;

    let db = Database::open(config.clone(), registry()).unwrap();
    for k in 0..KEYS {
        db.load_initial(Key(k), &k.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();
    let run = |proc, params| assert!(matches!(db.execute(proc, params), TxnOutcome::Committed(_)));
    for round in 1..=3u64 {
        for k in (round..KEYS).step_by(7) {
            run(SET, set_u64(k, round * 1000 + k));
        }
        for k in (round * 3..KEYS).step_by(31) {
            run(DELETE, delete(k));
        }
        if round == 1 {
            run(DELETE, delete(5)); // deleted and re-created in one interval
            run(SET, set_u64(5, 55));
            run(DELETE, delete(6)); // re-created an interval later
        } else if round == 2 {
            run(SET, set_u64(6, 66));
        }
        db.checkpoint_now().unwrap();
    }
    // The tail only the command log holds.
    for k in (0..KEYS).step_by(11) {
        run(SET, set_u64(k, 9000 + k));
    }
    run(DELETE, delete(22));
    db.sync_command_log().unwrap();
    let live: Vec<_> = (0..KEYS).map(|k| db.get(Key(k))).collect();
    drop(db);

    // The serial reference.
    let dir = CheckpointDir::open(&base.join("ckpts"), Arc::new(Throttle::unlimited())).unwrap();
    let (full, partials) = dir.chain().unwrap();
    assert_eq!(partials.len(), 3);
    let watermark = partials.last().unwrap().watermark;
    let mut reference = materialize_chain(&full, &partials).unwrap();
    let commands = recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    for rec in commands.iter().filter(|c| c.seq > watermark) {
        let mut r = params::Reader::new(&rec.params);
        let key = Key(r.u64().unwrap());
        if rec.proc == SET {
            reference.insert(key, r.bytes().unwrap().to_vec().into_boxed_slice());
        } else {
            reference.remove(&key);
        }
    }

    let db = Database::open(config, registry()).unwrap();
    let outcome = db.recover(&commands).unwrap();
    assert_eq!(outcome.checkpoint_files, 4);
    assert_eq!(outcome.stats.threads, 3);
    assert!(outcome.replayed > 0);
    assert_eq!(db.record_count(), reference.len());
    for k in 0..KEYS {
        let got = db.get(Key(k));
        assert_eq!(got.as_ref(), reference.get(&Key(k)), "key {k} vs the serial reference");
        assert_eq!(got, live[k as usize], "key {k} vs the pre-crash engine");
    }
}
