//! Failure-injection tests: corrupting and tearing on-disk artifacts at
//! adversarial points, then verifying recovery degrades exactly as the
//! paper's durability argument says it should (fall back to the previous
//! checkpoint + replay; never load torn data).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use calc_db::common::vfs::OsVfs;
use calc_db::core::calc::CalcStrategy;
use calc_db::core::manifest::RestartChain;
use calc_db::core::strategy::CheckpointStrategy;
use calc_db::engine::{Database, EngineConfig, StrategyKind};
use calc_db::recovery;
use calc_db::storage::dual::StoreConfig;
use calc_db::txn::commitlog::{CommitLog, CommitRecord};
use calc_db::Key;
use calc_testkit::{registry, set_u64 as set, SET};

/// An engine over a fresh scratch directory with a durable command log,
/// and the log's directory.
fn open_logged(name: &str, records: usize) -> (Database, PathBuf) {
    let base = calc_testkit::temp_dir(name);
    let log_dir = base.join("cmdlog");
    let mut config = EngineConfig::new(StrategyKind::Calc, records, 16, base.join("ckpts"));
    config.command_log_dir = Some(log_dir.clone());
    (Database::open(config, registry()).unwrap(), log_dir)
}

/// The durable command log as recovery would read it after a crash now.
fn logged_commands(db: &Database, log_dir: &Path) -> Vec<CommitRecord> {
    db.sync_command_log().unwrap();
    recovery::read_dir_logs(&OsVfs, log_dir).unwrap()
}

fn fresh_calc() -> CalcStrategy {
    CalcStrategy::full(
        StoreConfig::for_records(2048, 16),
        Arc::new(CommitLog::default()),
    )
}

/// Corrupting the newest checkpoint makes recovery fall back to the
/// previous one — and command-log replay from the OLDER watermark still
/// reconstructs the exact final state.
#[test]
fn corrupted_newest_checkpoint_falls_back_and_replays() {
    let (db, log_dir) = open_logged("fallback", 2048);
    for k in 0..100u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    for k in 0..100u64 {
        db.execute(SET, set(k, 1));
    }
    let first = db.checkpoint_now().unwrap();
    for k in 0..50u64 {
        db.execute(SET, set(k, 2));
    }
    let second = db.checkpoint_now().unwrap();
    for k in 0..10u64 {
        db.execute(SET, set(k, 3));
    }

    // Corrupt the newest checkpoint file (bit flip mid-body).
    let metas = db.checkpoint_dir().manifests();
    assert_eq!(metas.len(), 2);
    let newest = metas.iter().find(|m| m.id == second.id).unwrap();
    let mut bytes = std::fs::read(&newest.path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest.path, &bytes).unwrap();

    // The corrupted file is invisible to the verified recovery chain…
    let RestartChain::Chain(full, _) = db.checkpoint_dir().restart_chain().unwrap() else {
        panic!("no chain");
    };
    assert_eq!(full.id, first.id, "fell back to the older checkpoint");

    // …and replay from the older watermark reproduces the exact state.
    let recovered = fresh_calc();
    let commands = logged_commands(&db, &log_dir);
    let outcome =
        recovery::recover(db.checkpoint_dir(), &recovered, &registry(), &commands).unwrap();
    assert_eq!(outcome.watermark, first.watermark);
    assert_eq!(outcome.replayed, 60, "everything after the first checkpoint");
    for k in 0..100u64 {
        assert_eq!(recovered.get(Key(k)), db.get(Key(k)), "key {k}");
    }
}

/// Debris of a capture that died before its manifest rename is invisible.
#[test]
fn crash_mid_capture_leaves_only_previous_checkpoint() {
    let dir = calc_testkit::temp_dir("midcapture");
    let db = Database::open(EngineConfig::new(StrategyKind::Calc, 1024, 16, dir), registry())
        .unwrap();
    for k in 0..20u64 {
        db.load_initial(Key(k), &7u64.to_le_bytes()).unwrap();
    }
    db.checkpoint_now().unwrap();
    // Simulate a capture that died mid-publish: a half-written temp
    // manifest with a plausible name.
    std::fs::write(
        db.checkpoint_dir().path().join(".tmp-ckpt-0000000009-full.manifest"),
        b"CALCMFST-half-written-garbage",
    )
    .unwrap();
    // And one that died after creating a final-named part file but before
    // its footer was durable, let alone its manifest.
    std::fs::write(
        db.checkpoint_dir().path().join("ckpt-0000000008-full.part-0"),
        b"CALCCKPT-no-footer",
    )
    .unwrap();

    let RestartChain::Chain(full, _) = db.checkpoint_dir().restart_chain().unwrap() else {
        panic!("no chain");
    };
    let live = db.checkpoint_dir().manifests();
    assert_eq!(live, vec![full], "only the valid checkpoint is live");
    assert_eq!(db.checkpoint_dir().quarantined_count(), 0, "debris is not corruption");
    let recovered = fresh_calc();
    let outcome = recovery::recover_checkpoint_only(db.checkpoint_dir(), &recovered).unwrap();
    assert_eq!(outcome.loaded_records, 20);
}

/// A torn command-log tail loses only the unflushed suffix: recovery
/// replays the surviving prefix and lands at that prefix's state.
#[test]
fn torn_command_log_replays_surviving_prefix() {
    let (db, log_dir) = open_logged("tornlog", 1024);
    for k in 0..10u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    let ckpt = db.checkpoint_now().unwrap();
    for i in 0..20u64 {
        db.execute(SET, set(i % 10, 100 + i));
    }
    // Flush the command log, then tear the tail.
    db.sync_command_log().unwrap();
    let log_path = log_dir.join(recovery::logfile::segment_file_name(0));
    let bytes = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &bytes[..bytes.len() - 13]).unwrap();

    let commands = recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    assert_eq!(commands.len(), 19, "exactly the torn record lost");

    let recovered = fresh_calc();
    let outcome =
        recovery::recover(db.checkpoint_dir(), &recovered, &registry(), &commands).unwrap();
    assert_eq!(outcome.watermark, ckpt.watermark);
    assert_eq!(outcome.replayed, 19);
    // The recovered state equals a prefix-replay: every key except the
    // last-written one matches the live db; that one holds its
    // second-to-last value.
    let mut diffs = 0;
    for k in 0..10u64 {
        if recovered.get(Key(k)) != db.get(Key(k)) {
            diffs += 1;
        }
    }
    assert_eq!(diffs, 1, "exactly the torn commit's effect is missing");
}

/// Double failure: corrupt newest checkpoint AND torn log — recovery
/// still produces a consistent prefix state (no torn data ever loaded).
#[test]
fn double_failure_still_yields_consistent_prefix() {
    let (db, log_dir) = open_logged("double", 1024);
    for k in 0..30u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    for k in 0..30u64 {
        db.execute(SET, set(k, 1));
    }
    let first = db.checkpoint_now().unwrap();
    for k in 0..30u64 {
        db.execute(SET, set(k, 2));
    }
    let second = db.checkpoint_now().unwrap();

    // Corrupt the second checkpoint.
    let metas = db.checkpoint_dir().manifests();
    let newest = metas.iter().find(|m| m.id == second.id).unwrap();
    let mut bytes = std::fs::read(&newest.path).unwrap();
    let n = bytes.len();
    bytes[n - 30] ^= 0x01;
    std::fs::write(&newest.path, &bytes).unwrap();

    // Drop the last 10 commits from the log.
    let mut commands = logged_commands(&db, &log_dir);
    commands.truncate(commands.len() - 10);

    let recovered = fresh_calc();
    let outcome =
        recovery::recover(db.checkpoint_dir(), &recovered, &registry(), &commands).unwrap();
    assert_eq!(outcome.watermark, first.watermark);
    // Keys 0..20 got their second write replayed; 20..30 retain the
    // first-checkpoint value. Everything is from a consistent prefix.
    for k in 0..20u64 {
        assert_eq!(recovered.get(Key(k)).unwrap(), 2u64.to_le_bytes().into());
    }
    for k in 20..30u64 {
        assert_eq!(recovered.get(Key(k)).unwrap(), 1u64.to_le_bytes().into());
    }
}
