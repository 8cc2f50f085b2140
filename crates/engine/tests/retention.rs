//! Retention through the public API: compressed checkpoints, a segmented
//! command log, pruning and truncation after every cycle.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use calc_common::types::{Key, Value};
use calc_common::vfs::OsVfs;
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::CheckpointStrategy;
use calc_core::throttle::Throttle;
use calc_engine::standby::{Standby, StandbyConfig};
use calc_engine::{Database, StrategyKind};
use calc_recovery::logfile::{list_segments, segment_file_name};
use calc_testkit::{registry, set, set_u64, CountingVfs, SET};
use calc_txn::commitlog::CommitLog;

use common::{logged_commands, logged_config};

/// Zero-padded 64-byte payload: representative of fixed-width tuples.
fn padded(v: u64) -> [u8; 64] {
    let mut bytes = [0u8; 64];
    bytes[..8].copy_from_slice(&v.to_le_bytes());
    bytes
}

/// The end-to-end retention loop: checkpoints, segmented log, pruning
/// and truncation after every cycle — disk use stays bounded and
/// recovery still reproduces the exact live state.
#[test]
fn retention_bounds_disk_and_preserves_recovery() {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 4096, "retention-bound");
    let ckpt_dir = config.checkpoint_dir.clone();
    config.workers = 2;
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
    assert!(health.last_checkpoint_bytes() > 0);

    // Disk is bounded: at most `keep` fulls survive.
    let fulls = db
        .checkpoint_dir()
        .manifests()
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
    let metas = db.checkpoint_dir().manifests();
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

/// Retention on shipped defaults (`keep_checkpoints` left as it ships)
/// over 512-byte log segments: after five cycles two fulls survive and no
/// sealed segment lies wholly below the older one's watermark; with the
/// newest full's first part torn, a restart falls back to the older full
/// and still reads every acknowledged write.
#[test]
fn shipped_retention_truncates_the_log_and_keeps_a_fallback() {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 256, "retention-shipped");
    config.log_segment_bytes = Some(512);
    config.workers = 2;
    let (ckpt_dir, store) = (config.checkpoint_dir.clone(), config.store.clone());
    let db = Database::open(config, registry()).unwrap();
    let mut model = BTreeMap::new();
    let mut writes = |cycle: u64| {
        for i in 0..40u64 {
            let (key, value) = ((cycle * 7 + i) % 64, cycle * 1000 + i);
            db.execute_durable(SET, set_u64(key, value)).unwrap();
            model.insert(key, value);
        }
    };
    for cycle in 0..5 {
        writes(cycle);
        db.checkpoint_now().unwrap();
    }
    writes(5);
    assert!(db.health().log_segments_truncated() > 0);
    assert_eq!(db.health().retention_failures(), 0);

    let mut fulls: Vec<_> = db.checkpoint_dir().manifests();
    fulls.retain(|m| m.kind == CheckpointKind::Full);
    fulls.sort_by_key(|m| m.id);
    assert_eq!(fulls.len(), 2, "the shipped default keeps two fulls");
    let floor = fulls[0].watermark;
    let segments = list_segments(&OsVfs, &log_dir).unwrap();
    for (i, path) in &segments[..segments.len() - 1] {
        // One sealed segment read on its own: its newest commit.
        let alone = calc_testkit::temp_dir("retention-segment");
        std::fs::copy(path, alone.join(segment_file_name(0))).unwrap();
        let newest = calc_recovery::read_dir_logs(&OsVfs, &alone)
            .unwrap()
            .last()
            .map(|r| r.seq);
        assert!(
            newest.is_some_and(|seq| seq > floor),
            "sealed segment {i} (newest commit {newest:?}) lies wholly below the floor {}",
            floor.0
        );
    }
    db.shutdown();

    let part = fulls[1].path.with_extension("part-0");
    let torn = std::fs::metadata(&part).unwrap().len() / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&part)
        .unwrap()
        .set_len(torn)
        .unwrap();
    let cfg = StandbyConfig::new(StrategyKind::Calc, store, ckpt_dir, log_dir);
    let promoted = Standby::open(cfg, registry())
        .and_then(Standby::promote)
        .unwrap();
    for (key, value) in model {
        assert_eq!(
            promoted.get(Key(key)).as_deref(),
            Some(&value.to_le_bytes()[..]),
            "key {key} lost its acknowledged value after the fallback restart"
        );
    }
}

/// `open_read` calls on checkpoint files (parts and manifests), per path.
fn checkpoint_opens(vfs: &CountingVfs) -> Vec<(PathBuf, usize)> {
    vfs.opens()
        .into_iter()
        .filter(|(p, _)| {
            let name = p.to_string_lossy();
            name.contains(".part-") || name.contains(".manifest")
        })
        .collect()
}

/// A cycle plus retention reads no checkpoint byte back: pruning and the
/// truncation floor answer from the directory's catalog.
#[test]
fn cycles_and_retention_open_no_checkpoint_file() {
    let (mut config, _log_dir) = logged_config(StrategyKind::Calc, 1024, "retention-no-reads");
    let vfs = Arc::new(CountingVfs::default());
    config.vfs = vfs.clone();
    config.keep_checkpoints = Some(2);
    config.checkpoint_threads = 2;
    config.log_segment_bytes = Some(4 << 10);
    let db = Database::open(config, registry()).unwrap();
    for cycle in 0..5u64 {
        for i in 0..100u64 {
            db.execute(SET, set_u64(i % 64, cycle * 1000 + i));
        }
        db.sync_command_log().unwrap();
        db.checkpoint_now().unwrap();
    }
    assert_eq!(db.health().checkpoints_pruned(), 3, "5 fulls, keep 2");
    assert!(db.health().log_segments_truncated() > 0);
    assert_eq!(db.health().retention_failures(), 0);
    assert_eq!(checkpoint_opens(&vfs), vec![], "a running node read a checkpoint file");
    db.shutdown();
}

/// A merge reads its input chain exactly once — each input part opened
/// once, checked as it streams — and never reads back the full it wrote.
#[test]
fn a_merge_opens_each_input_part_once() {
    let (mut config, _log_dir) = logged_config(StrategyKind::PCalc, 1024, "retention-merge-reads");
    let vfs = Arc::new(CountingVfs::default());
    config.vfs = vfs.clone();
    config.checkpoint_threads = 2;
    let db = Database::open(config, registry()).unwrap();
    for k in 0..64u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();
    for round in 1..=3u64 {
        for k in (0..64u64).step_by(round as usize + 1) {
            db.execute(SET, set_u64(k, round));
        }
        db.checkpoint_now().unwrap();
    }
    let (full, partials) = db.checkpoint_dir().chain().unwrap();
    assert_eq!(partials.len(), 3);
    let inputs: BTreeSet<PathBuf> = std::iter::once(&full)
        .chain(&partials)
        .flat_map(|m| m.parts.iter().map(|p| p.path.clone()))
        .collect();
    assert_eq!(checkpoint_opens(&vfs), vec![], "cycles read nothing back");

    let stats = db.collapse_partials().unwrap().expect("a chain to collapse");
    assert_eq!(stats.inputs, 4);
    let opens = checkpoint_opens(&vfs);
    let opened: BTreeSet<PathBuf> = opens.iter().map(|(p, _)| p.clone()).collect();
    assert_eq!(opened, inputs, "the merge read exactly its input parts");
    for (path, n) in &opens {
        assert_eq!(*n, 1, "{} opened {n} times", path.display());
    }
    let (merged, rest) = db.checkpoint_dir().chain().unwrap();
    assert_eq!((merged.id, rest.len()), (stats.new_full_id, 0));
    for part in &merged.parts {
        assert_eq!(vfs.opens_of(&part.path), 0, "the new full was read back");
    }
    db.shutdown();
}

/// The property the catalog gives up, pinned: a part that rots under a
/// running engine goes unnoticed by retention, which deletes the oldest
/// full by the catalog and quarantines nothing. The newest cycle is
/// intact, so a restart still serves every acknowledged write.
#[test]
fn retention_does_not_notice_a_part_rotting_under_a_running_engine() {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 256, "retention-rot");
    config.keep_checkpoints = Some(2);
    config.log_segment_bytes = Some(512);
    config.workers = 2;
    let (ckpt_dir, store) = (config.checkpoint_dir.clone(), config.store.clone());
    let db = Database::open(config, registry()).unwrap();
    let mut model = BTreeMap::new();
    let mut writes = |cycle: u64| {
        for i in 0..40u64 {
            let (key, value) = ((cycle * 7 + i) % 64, cycle * 1000 + i);
            db.execute_durable(SET, set_u64(key, value)).unwrap();
            model.insert(key, value);
        }
    };
    writes(0);
    let oldest = db.checkpoint_now().unwrap();
    writes(1);
    let rotten = db.checkpoint_now().unwrap();
    let part = db.checkpoint_dir().manifests()[1].parts[0].path.clone();
    let mut bytes = std::fs::read(&part).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&part, &bytes).unwrap();

    writes(2);
    let newest = db.checkpoint_now().unwrap();
    writes(3);
    let ids: Vec<u64> = db.checkpoint_dir().manifests().iter().map(|m| m.id).collect();
    assert_eq!(ids, vec![rotten.id, newest.id], "full {} not pruned", oldest.id);
    assert_eq!(db.health().checkpoints_pruned(), 1);
    assert_eq!(db.health().retention_failures(), 0);
    assert_eq!(db.checkpoint_dir().quarantined_count(), 0, "retention read a part");
    db.shutdown();

    let cfg = StandbyConfig::new(StrategyKind::Calc, store, ckpt_dir, log_dir);
    let promoted = Standby::open(cfg, registry())
        .and_then(Standby::promote)
        .unwrap();
    for (key, value) in model {
        assert_eq!(
            promoted.get(Key(key)).as_deref(),
            Some(&value.to_le_bytes()[..]),
            "key {key} lost its acknowledged value after the restart"
        );
    }
}
