//! Restart recovery through the public API: `Database::recover` resumes
//! the id and sequence spaces, validates each part exactly once, and a
//! partial checkpoint taken after recovery covers the replayed writes.
//! Every test replays the log production recovers from — the durable
//! segments under `command_log_dir`.

mod common;

use std::sync::Arc;

use calc_common::types::Key;
use calc_core::strategy::CheckpointStrategy;
use calc_engine::{Database, StrategyKind, TxnOutcome};
use calc_testkit::{registry, set_u64, CountingVfs, SET};
use calc_txn::commitlog::CommitLog;

use common::{logged_commands, logged_config};

#[test]
fn end_to_end_recovery_via_engine() {
    let (config, log_dir) = logged_config(StrategyKind::Calc, 1024, "e2e-recovery");
    let db = Database::open(config, registry()).unwrap();
    for k in 0..20u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(false).unwrap();
    for k in 0..20u64 {
        db.execute(SET, set_u64(k, k));
    }
    db.checkpoint_now().unwrap();
    for k in 0..5u64 {
        db.execute(SET, set_u64(k, 100 + k));
    }

    // "Crash": recover into a fresh strategy.
    let recovered = calc_core::calc::CalcStrategy::full(
        calc_storage::dual::StoreConfig::for_records(1024, 16),
        Arc::new(CommitLog::default()),
    );
    let commands = logged_commands(&db, &log_dir);
    let outcome =
        calc_recovery::recover(db.checkpoint_dir(), &recovered, &registry(), &commands).unwrap();
    assert_eq!(outcome.replayed, 5);
    for k in 0..20u64 {
        assert_eq!(
            recovered.get(Key(k)),
            db.get(Key(k)),
            "key {k} diverged after recovery"
        );
    }
}

#[test]
fn database_recover_resumes_ids_and_sequences() {
    for kind in [StrategyKind::PCalc, StrategyKind::PNaive] {
        // Pre-crash lifetime: base + two partial checkpoints + tail.
        let (config, log_dir) = logged_config(kind, 2048, "recover-resume");
        let db = Database::open(config.clone(), registry()).unwrap();
        for k in 0..50u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();
        for round in 1..=2u64 {
            for k in 0..20u64 {
                db.execute(SET, set_u64(k, round));
            }
            db.checkpoint_now().unwrap();
        }
        for k in 0..5u64 {
            db.execute(SET, set_u64(k, 99));
        }
        let commands = logged_commands(&db, &log_dir);
        let expected: Vec<_> = (0..50u64).map(|k| db.get(Key(k))).collect();
        let old_ids: std::collections::BTreeSet<u64> = db
            .checkpoint_dir()
            .manifests()
            .unwrap()
            .iter()
            .map(|m| m.id)
            .collect();
        drop(db);

        // Crash + recover into a fresh engine over the same directories.
        let db = Database::open(config, registry()).unwrap();
        let outcome = db.recover(&commands).unwrap();
        assert_eq!(outcome.replayed, 5, "{}", kind.name());
        for (k, exp) in expected.iter().enumerate() {
            assert_eq!(db.get(Key(k as u64)), *exp, "{}: key {k}", kind.name());
        }

        // Post-recovery activity and a new checkpoint: its id must not
        // collide with (overwrite) any pre-crash file, and new commit
        // sequences continue past the old ones.
        let max_old_seq = commands.iter().map(|c| c.seq).max().unwrap();
        let TxnOutcome::Committed(new_seq) = db.execute(SET, set_u64(1, 123)) else {
            panic!("commit failed");
        };
        assert!(
            new_seq > max_old_seq,
            "{}: sequence went backwards",
            kind.name()
        );
        let stats = db.checkpoint_now().unwrap();
        assert!(
            !old_ids.contains(&stats.id),
            "{}: checkpoint id {} collides with pre-crash files",
            kind.name(),
            stats.id
        );
        // And the new checkpoint is catalogued and reads back whole.
        let metas = db.checkpoint_dir().manifests().unwrap();
        let meta = metas.iter().find(|m| m.id == stats.id).expect("new cycle catalogued");
        assert_eq!(meta.read_all().unwrap().len() as u64, meta.records, "{}", kind.name());
    }
}

/// One validation pass per restart: `recover` seals the id/seq spaces
/// from claims (manifest documents and names), so the recovery chain's
/// scan is the only CRC pass over the part files.
#[test]
fn restart_opens_each_part_once_to_validate_and_once_to_load() {
    let (mut config, log_dir) = logged_config(StrategyKind::PCalc, 2048, "recover-opens");
    config.checkpoint_threads = 2;
    let db = Database::open(config.clone(), registry()).unwrap();
    for k in 0..50u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();
    for round in 1..=2u64 {
        for k in 0..20u64 {
            db.execute(SET, set_u64(k, round));
        }
        db.checkpoint_now().unwrap();
    }
    db.execute(SET, set_u64(7, 99));
    let commands = logged_commands(&db, &log_dir);
    drop(db);

    let vfs = Arc::new(CountingVfs::default());
    config.vfs = vfs.clone();
    let db = Database::open(config, registry()).unwrap();
    let outcome = db.recover(&commands).unwrap();
    assert_eq!(outcome.checkpoint_files, 3);
    assert_eq!(db.get(Key(7)), Some(99u64.to_le_bytes().into()));
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

#[test]
fn partial_checkpoint_after_recovery_covers_replayed_writes() {
    // A partial checkpoint taken after recovery advances the watermark
    // past the replayed commits, so it MUST also contain their writes:
    // if replay's dirty marks land in a stale interval, the next crash
    // loses those commits even with a complete command log.
    for kind in [StrategyKind::PCalc, StrategyKind::PNaive] {
        // Lifetime 1: base checkpoint + one commit that exists only in
        // the command log.
        let (config, log_dir) = logged_config(kind, 2048, "recover-replay-dirty");
        let db = Database::open(config.clone(), registry()).unwrap();
        for k in 0..10u64 {
            db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
        }
        db.finalize_load(true).unwrap();
        db.execute(SET, set_u64(3, 77));
        let log1 = logged_commands(&db, &log_dir);
        let max_seq = log1.iter().map(|c| c.seq).max().unwrap();
        drop(db);

        // Lifetime 2: recover (replays set(3, 77)), take a partial
        // checkpoint with no new commits, crash again.
        let db = Database::open(config.clone(), registry()).unwrap();
        db.recover(&log1).unwrap();
        assert_eq!(db.get(Key(3)), Some(77u64.to_le_bytes().into()));
        let stats = db.checkpoint_now().unwrap();
        assert!(
            stats.watermark >= max_seq,
            "{}: post-recovery checkpoint watermark {} does not cover \
             the replayed commit {max_seq}",
            kind.name(),
            stats.watermark
        );
        drop(db);

        // Lifetime 3: recover from the new chain plus the complete
        // command log. The replayed commit is at seq <= watermark, so
        // replay skips it — the checkpoint itself must carry it.
        let db = Database::open(config, registry()).unwrap();
        db.recover(&log1).unwrap();
        assert_eq!(
            db.get(Key(3)),
            Some(77u64.to_le_bytes().into()),
            "{}: replayed write lost by the post-recovery partial checkpoint",
            kind.name()
        );
    }
}
