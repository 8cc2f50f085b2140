//! Crash coverage for the segmented command log and retention-driven
//! truncation, under the recovery oracle.
//!
//! Two layers:
//!
//! * **Sweeps** — the standard seeded workload with a tiny segment
//!   threshold (so rotation happens constantly) and truncation after
//!   every durable checkpoint; faults injected at every swept operation
//!   index. This drives crashes *during* segment rotation (a rotation is
//!   a seal-fsync + create) and *between* a checkpoint publish and the
//!   log truncation that follows it. The oracle is zero lost writes:
//!   recovery must reach at least the durable floor.
//! * **A directed regression** — a torn/corrupt block in one part of the newest cycle must quarantine that whole cycle and fall
//!   recovery back to the parent chain, never surface wrong data.

use std::sync::Arc;

use calc_common::simfs::{DirCrashMode, FaultKind, FaultSpec, OpCounts};
use calc_common::types::{CommitSeq, Key};
use calc_core::calc::CalcStrategy;
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::CheckpointStrategy;
use calc_core::throttle::Throttle;
use calc_engine::StrategyKind;
use calc_recovery::replay::recover_checkpoint_only;
use calc_sim::{base_seed, run_sim, SimSpec};
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;

/// The standard smoke experiment with retention on: 512-byte log segments (a rotation every ~10 commits), and
/// truncation after each durable checkpoint.
fn retention_spec(kind: StrategyKind, seed: u64) -> SimSpec {
    let mut spec = SimSpec::smoke(kind, seed);
    spec.log_segment_bytes = 512;
    spec.truncate_log = true;
    spec
}

/// All ten strategy × full/partial combos survive clean runs (power cut
/// at end of workload) with truncation on, across fixed
/// seeds.
#[test]
fn retention_all_strategies_clean_runs() {
    for kind in StrategyKind::ALL_CHECKPOINTING {
        for k in 0..3u64 {
            let spec = retention_spec(kind, base_seed() ^ 0xA000 ^ k);
            run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
        }
    }
}

fn clean_counts(spec: &SimSpec) -> OpCounts {
    run_sim(spec)
        .unwrap_or_else(|v| panic!("clean reference run failed: {v}"))
        .counts
}

/// Sweeps every fault kind over its op-class range with stride `step`.
/// Rotation seals/creates land in the write+fsync domain and truncation's
/// removes shift every later op index, so the sweep crosses both new
/// windows at every alignment.
fn sweep(kind: StrategyKind, seed: u64, step: u64) -> u64 {
    let spec0 = retention_spec(kind, seed);
    let counts = clean_counts(&spec0);
    let classes: [(FaultKind, u64); 4] = [
        (FaultKind::TornWrite, counts.writes),
        (FaultKind::DropFsync, counts.sync_events()),
        (FaultKind::CrashBeforeRename, counts.renames),
        (FaultKind::CrashAfterRename, counts.renames),
    ];
    let mut fired = 0;
    for (fault_kind, total) in classes {
        let mut at = 0;
        while at < total {
            for mode in [DirCrashMode::Seeded, DirCrashMode::RemovesOnly] {
                let mut spec = retention_spec(kind, seed);
                spec.fault = Some(FaultSpec {
                    kind: fault_kind,
                    at,
                });
                spec.dir_crash_mode = mode;
                let report = run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
                if report.crashed_mid_run {
                    fired += 1;
                }
            }
            at += step;
        }
    }
    fired
}

#[test]
fn calc_retention_crash_point_sweep() {
    let fired = sweep(StrategyKind::Calc, base_seed() ^ 0xB000, 2);
    assert!(fired > 0, "no fault ever fired — sweep domain is wrong");
}

#[test]
fn partial_calc_retention_crash_point_sweep() {
    let fired = sweep(StrategyKind::PCalc, base_seed() ^ 0xC000, 3);
    assert!(fired > 0, "no fault ever fired — sweep domain is wrong");
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "calc-retention-crash-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// A corrupt block in ONE part of the newest cycle quarantines
/// that entire cycle: recovery falls back to the parent chain and reports
/// the parent's watermark, never a torn mixture of the two.
#[test]
fn torn_block_quarantines_cycle_and_falls_back() {
    let root = tmp("fallback");
    let dir = CheckpointDir::open(&root, Arc::new(Throttle::unlimited())).unwrap();

    // Cycle 1 (the parent): key 1 -> "one", key 3 -> "three".
    let (p, mut ws) = dir
        .begin_parts(CheckpointKind::Full, 1, CommitSeq(10), 2)
        .unwrap();
    ws[0].write_record(Key(1), b"one-one-one-one-one-one").unwrap();
    ws[1].write_record(Key(3), b"three-three-three-three").unwrap();
    p.publish(ws).unwrap();

    // Cycle 2 (the victim): rewrites key 1, adds key 2.
    let (p, mut ws) = dir
        .begin_parts(CheckpointKind::Full, 2, CommitSeq(20), 2)
        .unwrap();
    ws[0].write_record(Key(1), b"two-two-two-two-two-two").unwrap();
    ws[1].write_record(Key(2), b"second-second-second-se").unwrap();
    p.publish(ws).unwrap();

    // Corrupt one byte in the middle of cycle 2, part 0 — inside a
    // frame's payload, so the per-frame CRC must catch it.
    let victim = root.join(CheckpointDir::part_file_name(2, CheckpointKind::Full, 0));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let fresh = CalcStrategy::full(
        StoreConfig::for_records(1024, 16),
        Arc::new(CommitLog::default()),
    );
    let outcome = recover_checkpoint_only(&dir, &fresh).unwrap();
    assert_eq!(
        outcome.watermark,
        CommitSeq(10),
        "recovery must fall back to the parent cycle's watermark"
    );
    assert!(
        dir.quarantined_count() >= 1,
        "the corrupt cycle was not quarantined"
    );
    assert_eq!(fresh.get(Key(1)).as_deref(), Some(&b"one-one-one-one-one-one"[..]));
    assert_eq!(fresh.get(Key(3)).as_deref(), Some(&b"three-three-three-three"[..]));
    assert!(
        fresh.get(Key(2)).is_none(),
        "no record from the quarantined cycle may survive"
    );
    std::fs::remove_dir_all(&root).ok();
}
