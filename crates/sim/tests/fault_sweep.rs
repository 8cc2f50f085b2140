//! Transient-fault sweep (tier 4 of `scripts/verify.sh`): inject
//! recoverable I/O errors — transient write failures, ENOSPC windows,
//! dropped fsyncs — *during* checkpoint cycles across all ten
//! strategy × full/partial combinations, then crash and run real
//! recovery. The oracle (zero lost committed writes at or above the
//! durable floor) must hold on every run.
//!
//! This is the regression net for the harmless-failure contract: a
//! strategy that forgets to roll its dirty-bit coverage forward after an
//! aborted cycle produces a later checkpoint that silently *misses*
//! those keys, and the oracle catches the divergence.
//!
//! Reproduce any reported failure with `FAULT_SEED=<seed>` (decimal or
//! 0x-hex).

use std::path::Path;
use std::sync::Arc;

use calc_common::simfs::{FaultKind, FaultSpec, SimVfs, TransientKind};
use calc_common::types::CommitSeq;
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::throttle::Throttle;
use calc_engine::StrategyKind;
use calc_sim::{run_sim, SimSpec, TransientPlan};

/// Base seed for the fault sweep; override with `FAULT_SEED=<u64>`
/// (decimal or 0x-hex) to replay a specific run.
fn fault_seed() -> u64 {
    match std::env::var("FAULT_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("FAULT_SEED not a u64: {s:?}"))
        }
        Err(_) => 0xFA17_5EED_0000_0000,
    }
}

/// The pinned deterministic regression from the ISSUE acceptance
/// criteria: every pCALC capture fails exactly once with a transient
/// write error mid-scan, is retried under backoff, then the run crashes.
/// Recovery must lose zero committed writes.
///
/// The smoke workload runs 40 transactions checkpointing every 10, so a
/// correct run retries through exactly 4 failed attempts (one per
/// cycle) and the strategy reports at least 4 harmlessly aborted cycles
/// (the base checkpoint is exempt: it is written before the plan's
/// first window is armed).
#[test]
fn pcalc_every_capture_fails_once_then_crash_loses_nothing() {
    let mut spec = SimSpec::smoke(StrategyKind::PCalc, fault_seed());
    spec.transient = Some(TransientPlan::EveryCheckpoint {
        kind: TransientKind::WriteError,
        skip: 0,
        count: 2,
    });
    let report = run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(
        report.ckpt_failures, 4,
        "expected exactly one failed attempt per checkpoint cycle: {report:?}"
    );
    assert!(
        report.aborted_cycles >= 4,
        "strategy did not roll back the failed cycles: {report:?}"
    );
    assert!(
        report.transient_hits >= 4,
        "armed windows never fired: {report:?}"
    );
    assert_eq!(report.committed, spec.txns, "failed cycles must be harmless");
}

/// Full CALC under the same every-capture-fails-once plan, for the
/// non-partial restore path (dirty bits re-marked into the next
/// interval, no tombstone queue).
#[test]
fn calc_every_capture_fails_once_then_crash_loses_nothing() {
    let mut spec = SimSpec::smoke(StrategyKind::Calc, fault_seed() ^ 0x10);
    spec.transient = Some(TransientPlan::EveryCheckpoint {
        kind: TransientKind::WriteError,
        skip: 0,
        count: 2,
    });
    let report = run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
    assert!(report.ckpt_failures >= 4, "windows never fired: {report:?}");
    assert_eq!(report.committed, spec.txns);
}

/// The multi-part regression pinned by the ISSUE acceptance criteria: a
/// transient write error landing on one part `k` *mid-capture* (the
/// other capture workers are already writing their own stripes) must
/// abort the whole cycle and roll the dirty bits of **every** shard
/// forward — not just the failing part's stripe. A strategy that only
/// restored the failing stripe would pass at `threads=1` and silently
/// lose the other stripes' keys at `threads=4`; the oracle catches that
/// as a divergence after the crash. The failure accounting must be
/// identical at every thread count.
#[test]
fn pcalc_part_failure_mid_capture_rolls_every_shard_forward() {
    // The window opens on the second of the capture's own writes — its
    // frames and footers — after `begin_parts` has created every part and
    // written its header, so the error hits an in-flight part rather than
    // a create. `begin_parts`' share is measured, not assumed.
    for threads in [1usize, 4] {
        let mut spec = SimSpec::smoke(StrategyKind::PCalc, fault_seed() ^ 0x9A);
        spec.ckpt_threads = Some(threads);
        spec.transient = Some(TransientPlan::EveryCheckpoint {
            kind: TransientKind::WriteError,
            skip: begin_parts_data_ops(threads) + 1,
            count: 2,
        });
        let report = run_sim(&spec).unwrap_or_else(|v| panic!("threads={threads}: {v}"));
        assert_eq!(
            report.ckpt_failures, 4,
            "threads={threads}: expected exactly one failed attempt per cycle: {report:?}"
        );
        assert!(
            report.aborted_cycles >= 4,
            "threads={threads}: strategy did not roll back the failed cycles: {report:?}"
        );
        assert_eq!(
            report.committed, spec.txns,
            "threads={threads}: failed cycles must be harmless"
        );
    }
}

/// Data ops (creates + writes) `begin_parts` spends opening a cycle of
/// `parts` part files, counted on a scratch simulated filesystem.
fn begin_parts_data_ops(parts: usize) -> u64 {
    let vfs = SimVfs::new(0);
    let dir = CheckpointDir::open_with_vfs(
        Path::new("/calibrate"),
        Arc::new(Throttle::unlimited()),
        Arc::new(vfs.clone()),
    )
    .unwrap();
    let before = vfs.counts().data_ops();
    let (pending, writers) = dir
        .begin_parts(CheckpointKind::Partial, 1, CommitSeq(1), parts)
        .unwrap();
    let spent = vfs.counts().data_ops() - before;
    drop(writers);
    pending.abandon();
    spent
}

/// Sweeps transient windows (write errors and ENOSPC) over several
/// offsets for every strategy × full/partial. Windows are indexed over
/// *all* data ops, so some hit checkpoint captures, some hit command-log
/// appends (a legitimate crash), and some hit both — the oracle must
/// hold regardless.
#[test]
fn transient_window_sweep_all_strategies() {
    let seed = fault_seed() ^ 0xA11;
    let mut failures_seen = 0u64;
    let mut hits_seen = 0u64;
    for (i, kind) in StrategyKind::ALL_CHECKPOINTING.into_iter().enumerate() {
        // Measure the clean run's data-op total, then slide the window
        // across the whole domain so some placements land inside
        // checkpoint captures and others inside command-log appends.
        let clean = run_sim(&SimSpec::smoke(kind, seed ^ ((i as u64) << 8)))
            .unwrap_or_else(|v| panic!("clean reference run failed: {v}"));
        let total = clean.counts.data_ops();
        for t_kind in [TransientKind::WriteError, TransientKind::Enospc] {
            let mut from = 1u64;
            while from < total {
                let mut spec = SimSpec::smoke(kind, seed ^ ((i as u64) << 8));
                spec.transient = Some(TransientPlan::Window(
                    calc_common::simfs::TransientSpec {
                        kind: t_kind,
                        from,
                        count: 6,
                    },
                ));
                let report = run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
                failures_seen += report.ckpt_failures;
                hits_seen += report.transient_hits;
                from += 5;
            }
        }
    }
    assert!(
        hits_seen > 0,
        "no transient window ever fired — sweep domain is wrong"
    );
    assert!(
        failures_seen > 0,
        "no checkpoint cycle ever failed — windows miss every capture"
    );
}

/// Per-cycle transient failures for every strategy: each capture fails
/// at least once and retries. Exercises all ten failure hooks.
#[test]
fn every_checkpoint_fails_once_all_strategies() {
    let seed = fault_seed() ^ 0xEC;
    for (i, kind) in StrategyKind::ALL_CHECKPOINTING.into_iter().enumerate() {
        let mut spec = SimSpec::smoke(kind, seed ^ ((i as u64) << 4));
        spec.transient = Some(TransientPlan::EveryCheckpoint {
            kind: TransientKind::WriteError,
            skip: 0,
            count: 2,
        });
        let report = run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
        assert!(
            report.ckpt_failures > 0,
            "{kind}: armed per-cycle windows never failed a capture: {report:?}"
        );
        assert_eq!(report.committed, spec.txns, "{kind}: commits must continue");
    }
}

/// Dropped-fsync sweep during checkpoint cycles: the lying fsync voids
/// the durability chain, so the driver stops advancing the durable
/// floor, and whatever recovery finds must still be a consistent
/// prefix.
#[test]
fn dropped_fsync_sweep_all_strategies() {
    let seed = fault_seed() ^ 0xD0F;
    for (i, kind) in StrategyKind::ALL_CHECKPOINTING.into_iter().enumerate() {
        for at in [1u64, 3, 6] {
            let spec = SimSpec::with_fault(
                kind,
                seed ^ ((i as u64) << 4),
                FaultSpec {
                    kind: FaultKind::DropFsync,
                    at,
                },
            );
            run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
        }
    }
}

/// ENOSPC exhausting every retry: the cycle is abandoned (degraded —
/// the run continues on the command log alone) and recovery still
/// loses nothing.
#[test]
fn enospc_exhausts_retries_then_degrades() {
    for kind in [StrategyKind::Calc, StrategyKind::PCalc] {
        let mut spec = SimSpec::smoke(kind, fault_seed() ^ 0xE05);
        // A huge per-cycle window: the first checkpoint and every one of
        // its retries hit ENOSPC, so the cycle is abandoned; the window
        // then kills a later command-log append, which is the crash.
        spec.transient = Some(TransientPlan::EveryCheckpoint {
            kind: TransientKind::Enospc,
            skip: 0,
            count: 1 << 20,
        });
        let report = run_sim(&spec).unwrap_or_else(|v| panic!("{v}"));
        assert!(
            report.ckpt_failures > spec.ckpt_retries as u64,
            "{kind}: ENOSPC cycle did not exhaust its retries: {report:?}"
        );
    }
}
