//! ISSUE 7 crash coverage: warm standby + crash-sim-verified failover.
//!
//! Three layers:
//!
//! * **Clean runs** — every strategy runs the two-node topology to a
//!   power cut and promotes; transaction-consistent kinds must satisfy
//!   the promotion oracle, fuzzy kinds must be refused as standby seeds.
//! * **Sweeps** — the primary crashes at every swept operation index
//!   (torn log-tail writes, dropped fsyncs — including the manifest's,
//!   crashes on either side of a rename — including mid-rotation seal →
//!   create), under both directory crash modes, with retention
//!   truncating segments under the tailing standby throughout. The
//!   oracle is zero lost committed writes and no resurrected deletes:
//!   the promoted state must equal the serial model at a prefix ≥ the
//!   durable floor.
//! * **Directed regressions** — the tailer×retention race pinned from
//!   both sides: a laggy standby whose cursor segment is truncated away
//!   must re-bootstrap from the covering checkpoint (never error, never
//!   skip), and a hot standby must ride through retention undisturbed.
//!
//! Replay any failure with `SIM_SEED=<seed> cargo test -p calc-sim
//! --test failover_sweep`.

use calc_common::simfs::{DirCrashMode, FaultKind, FaultSpec, OpCounts};
use calc_engine::StrategyKind;
use calc_sim::{base_seed, run_failover, FailoverSpec};

/// Seed base for this suite; `SIM_SEED` overrides for replay.
fn seed(salt: u64) -> u64 {
    base_seed() ^ salt
}

#[test]
fn all_strategies_clean_failover_or_refusal() {
    for kind in StrategyKind::ALL_CHECKPOINTING {
        for k in 0..3u64 {
            let spec = FailoverSpec::smoke(kind, seed(0x1F00 ^ k));
            let report = run_failover(&spec).unwrap_or_else(|v| panic!("{v}"));
            if matches!(kind, StrategyKind::Fuzzy | StrategyKind::PFuzzy) {
                assert!(
                    report.refused_not_tc,
                    "{kind}: fuzzy checkpoints must be refused as standby seeds"
                );
                continue;
            }
            assert!(!report.refused_not_tc, "{kind} wrongly refused");
            assert_eq!(report.committed, spec.primary.txns, "{kind}: clean run lost txns");
            assert!(
                report.promoted_prefix >= report.durable_floor,
                "{kind}: {report:?}"
            );
            assert!(
                report.commits_applied > 0,
                "{kind}: standby never applied anything — the tail is dead: {report:?}"
            );
        }
    }
}

fn clean_counts(spec: &FailoverSpec) -> OpCounts {
    run_failover(spec)
        .unwrap_or_else(|v| panic!("clean reference run failed: {v}"))
        .counts
}

/// Crashes the primary at every swept op index across all four fault
/// classes and both directory crash modes, promoting the standby each
/// time. Returns how many faults actually fired.
fn sweep(kind: StrategyKind, seed: u64, step: u64, poll_every: u64) -> u64 {
    let mut spec0 = FailoverSpec::smoke(kind, seed);
    spec0.poll_every = poll_every;
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
                let mut spec = spec0.clone();
                spec.primary.fault = Some(FaultSpec {
                    kind: fault_kind,
                    at,
                });
                spec.primary.dir_crash_mode = mode;
                let report = run_failover(&spec).unwrap_or_else(|v| panic!("{v}"));
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
fn calc_failover_crash_point_sweep() {
    let fired = sweep(StrategyKind::Calc, seed(0x2F00), 2, 4);
    assert!(fired > 0, "no fault ever fired — sweep domain is wrong");
}

#[test]
fn partial_calc_failover_crash_point_sweep() {
    let fired = sweep(StrategyKind::PCalc, seed(0x3F00), 3, 4);
    assert!(fired > 0, "no fault ever fired — sweep domain is wrong");
}

/// A laggy standby under the same crash sweep: retention truncates the
/// log out from under its anchored cursor mid-run, so promotions cross
/// the re-bootstrap path at arbitrary crash points.
#[test]
fn laggy_standby_failover_crash_point_sweep() {
    let fired = sweep(StrategyKind::Calc, seed(0x4F00), 4, 1 << 20);
    assert!(fired > 0, "no fault ever fired — sweep domain is wrong");
}

/// The tailer×retention race, laggy side: the standby anchors at segment
/// 0 and never polls again; the primary's retention deletes that segment.
/// The standby must re-bootstrap from the covering checkpoint — never
/// error out, never skip a commit.
#[test]
fn retention_outruns_cursor_forces_rebootstrap() {
    let mut spec = FailoverSpec::smoke(StrategyKind::Calc, seed(0x5F00));
    spec.poll_every = 1 << 20; // anchor poll only
    let report = run_failover(&spec).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(report.committed, spec.primary.txns);
    assert!(
        report.rebootstraps >= 1,
        "retention never outran the cursor — race not exercised: {report:?}"
    );
    assert!(
        report.promoted_prefix >= report.durable_floor,
        "{report:?}"
    );
}

/// The race's hot side: a standby polling every transaction stays ahead
/// of retention, so truncation only ever removes segments behind its
/// cursor — it must ride through without a single lost-prefix event.
#[test]
fn hot_standby_rides_through_retention_undisturbed() {
    let mut spec = FailoverSpec::smoke(StrategyKind::Calc, seed(0x6F00));
    spec.poll_every = 1;
    let report = run_failover(&spec).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(report.committed, spec.primary.txns);
    assert_eq!(
        report.lost_prefix_events, 0,
        "a hot standby must never lose its prefix to retention: {report:?}"
    );
    assert_eq!(report.rebootstraps, 0, "{report:?}");
    assert!(
        report.commits_applied >= spec.primary.txns,
        "hot standby should have tailed every commit live: {report:?}"
    );
}

/// Fuzzy checkpoints cannot seed deterministic replay: the standby must
/// refuse them at open, loudly, before any state is served.
#[test]
fn fuzzy_standby_refused() {
    for kind in [StrategyKind::Fuzzy, StrategyKind::PFuzzy] {
        let spec = FailoverSpec::smoke(kind, seed(0x7F00));
        let report = run_failover(&spec).unwrap_or_else(|v| panic!("{v}"));
        assert!(report.refused_not_tc, "{kind} must be refused: {report:?}");
    }
}
