//! Retention through the public API: compressed checkpoints, a segmented
//! command log, pruning and truncation after every cycle.

mod common;

use std::sync::Arc;

use calc_common::types::{Key, Value};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::CheckpointStrategy;
use calc_core::throttle::Throttle;
use calc_engine::{Database, StrategyKind};
use calc_recovery::logfile::list_segments;
use calc_testkit::{registry, set, SET};
use calc_txn::commitlog::CommitLog;

use common::{logged_commands, logged_config};

/// Zero-padded 64-byte payload: representative of fixed-width tuples and
/// gives the RLE codec real redundancy to squeeze.
fn padded(v: u64) -> [u8; 64] {
    let mut bytes = [0u8; 64];
    bytes[..8].copy_from_slice(&v.to_le_bytes());
    bytes
}

/// The end-to-end retention loop: compressed checkpoints, segmented
/// log, pruning and truncation after every cycle — disk use stays
/// bounded and recovery still reproduces the exact live state.
#[test]
fn retention_bounds_disk_and_preserves_recovery() {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 4096, "retention-bound");
    let ckpt_dir = config.checkpoint_dir.clone();
    config.workers = 2;
    config.codec = calc_core::Codec::Rle;
    config.log_segment_bytes = Some(4 << 10);
    config.keep_checkpoints = Some(2);
    let db = Database::open(config, registry()).unwrap();

    for cycle in 0..6u64 {
        for i in 0..120u64 {
            db.execute(SET, set(i % 64, &padded(cycle * 1000 + i)));
        }
        db.sync_command_log().unwrap();
        db.checkpoint_now().unwrap();
    }
    let health = db.health();
    assert!(health.checkpoints_pruned() >= 3, "6 fulls, keep 2");
    assert!(
        health.log_segments_truncated() > 0,
        "covered segments must be truncated"
    );
    assert!(health.log_bytes_truncated() > 0);
    assert_eq!(health.retention_failures(), 0);
    // Compression is live end to end.
    assert!(health.last_checkpoint_bytes() > 0);
    assert!(
        health.last_checkpoint_raw_bytes() > health.last_checkpoint_bytes(),
        "RLE on 8-byte LE values must shrink the stream"
    );

    // Disk is bounded: at most `keep` fulls survive.
    let fulls = db
        .checkpoint_dir()
        .scan()
        .unwrap()
        .iter()
        .filter(|m| m.kind == CheckpointKind::Full)
        .count();
    assert!(fulls <= 2, "{fulls} fulls survived keep_checkpoints=2");

    // Zero lost writes: surviving chain + surviving segments rebuild
    // the exact live state.
    let expected: Vec<(Key, Option<Value>)> =
        (0..64u64).map(|k| (Key(k), db.get(Key(k)))).collect();
    let commands = logged_commands(&db, &log_dir);
    db.shutdown();

    let recovered = calc_core::calc::CalcStrategy::full(
        calc_storage::dual::StoreConfig::for_records(4096, 16),
        Arc::new(CommitLog::default()),
    );
    let dir = CheckpointDir::open(&ckpt_dir, Arc::new(Throttle::unlimited())).unwrap();
    calc_recovery::recover(&dir, &recovered, &registry(), &commands).unwrap();
    for (k, v) in expected {
        assert_eq!(recovered.get(k), v, "key {} diverged", k.0);
    }
}

/// Truncation's floor is the oldest *surviving* full's watermark, so
/// the log never develops a gap against any chain recovery might fall
/// back to: the first surviving record follows the floor directly.
#[test]
fn truncation_leaves_no_replay_gap_for_fallback_chains() {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 4096, "retention-gap");
    config.workers = 2;
    config.log_segment_bytes = Some(4 << 10);
    config.keep_checkpoints = Some(2);
    let db = Database::open(config, registry()).unwrap();
    for cycle in 0..5u64 {
        for i in 0..150u64 {
            db.execute(SET, set(i % 32, &padded(cycle)));
        }
        db.sync_command_log().unwrap();
        db.checkpoint_now().unwrap();
    }
    let metas = db.checkpoint_dir().scan().unwrap();
    let floor = metas
        .iter()
        .filter(|m| m.kind == CheckpointKind::Full)
        .map(|m| m.watermark)
        .min()
        .unwrap();
    let vfs = db.checkpoint_dir().vfs().clone();
    assert!(
        !list_segments(vfs.as_ref(), &log_dir).unwrap().is_empty(),
        "active segment always survives"
    );
    let records = calc_recovery::read_dir_logs(vfs.as_ref(), &log_dir).unwrap();
    if let Some(first) = records.first() {
        assert!(
            first.seq.0 <= floor.0 + 1,
            "gap between oldest surviving full (wm {}) and first log record ({})",
            floor.0,
            first.seq.0
        );
    }
    db.shutdown();
}
