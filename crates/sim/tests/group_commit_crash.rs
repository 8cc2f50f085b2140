//! Tier-2 crash coverage for group commit (ISSUE satellite): the durable
//! floor after a crash must contain every commit whose ticket resolved
//! `Ok` — acknowledgement happens strictly after the batch's fsync, so a
//! power cut at ANY instant loses only unacknowledged work. Every way a
//! batch can close — a drained queue, the evidence linger, the pacing
//! point, the no-waiter window dwell, a waiter joining an open batch, the
//! batch cap — is crashed through, and so is the inside of a dwell, where
//! submissions are staged in the committer and not yet appended.
//!
//! The experiment itself (concurrent committers over [`SimVfs`], the
//! crash, the `acked ⊆ recovered` oracle) lives in `support/mod.rs`,
//! shared with the oracle's self-test `group_commit_mutant.rs`.

mod support;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use calc_common::simfs::SimVfs;
use calc_recovery::{read_dir_logs, GroupCommitConfig, GroupCommitter, SegmentedLogWriter};

use support::{check_oracle, rec, run_crash, run_crash_into_next, CrashSpec};

fn crash_and_check(label: &str, spec: CrashSpec) {
    let (acked, recovered) = run_crash(spec);
    assert!(
        !acked.is_empty(),
        "{label}: no commit was ever acknowledged"
    );
    if let Err(violation) = check_oracle(&acked, &recovered) {
        panic!("{label}: {violation}");
    }
}

/// The headline sweep: group-commit batching (four committers, deep
/// batches) crashed at several batch counts across seeds. Every
/// acknowledged commit must be on disk after recovery.
#[test]
fn crash_mid_stream_durable_floor_covers_every_ack() {
    for (i, crash_after) in [1u64, 2, 4].into_iter().enumerate() {
        crash_and_check(
            &format!("crash_after={crash_after}"),
            CrashSpec {
                seed: 0x6C0DEAD ^ ((i as u64) << 40),
                config: GroupCommitConfig {
                    window: Duration::from_micros(200),
                    max_batch: 64,
                    ..Default::default()
                },
                committers: 4,
                forgetters: 0,
                sync_delay: Duration::ZERO,
                crash_after,
            },
        );
    }
}

/// The degenerate per-commit-fsync mode (`max_batch = 1`, the benchmark
/// baseline) honors the same contract through the same code path.
#[test]
fn crash_under_per_commit_fsync_honors_same_contract() {
    crash_and_check(
        "per-commit",
        CrashSpec {
            seed: 0x6C0_BEEF,
            config: GroupCommitConfig {
                window: Duration::from_micros(50),
                max_batch: 1,
                ..Default::default()
            },
            committers: 2,
            forgetters: 0,
            sync_delay: Duration::ZERO,
            crash_after: 3,
        },
    );
}

/// A lone committer never has company: every batch closes on a drained
/// queue once its pacing point (half a window after the previous fsync
/// started) has passed, the first with no wait at all.
#[test]
fn crash_under_a_lone_committer_closing_on_drain() {
    crash_and_check(
        "lone",
        CrashSpec {
            seed: 0x6C0_10FE,
            config: GroupCommitConfig {
                window: Duration::from_millis(20),
                max_batch: 64,
                ..Default::default()
            },
            committers: 1,
            forgetters: 0,
            sync_delay: Duration::ZERO,
            crash_after: 3,
        },
    );
}

/// Durable and fire-and-forget committers on one log, over an fsync slow
/// enough to give the linger a cap: batches close by waiter evidence, by
/// the window (no waiter), by a waiter joining an open batch and by the
/// cap — and whichever the crash interrupts, no acknowledged commit is
/// lost and the survivors stay gap-free.
#[test]
fn crash_under_mixed_durable_and_fire_and_forget_load() {
    for (i, crash_after) in [2u64, 5].into_iter().enumerate() {
        crash_and_check(
            &format!("mixed crash_after={crash_after}"),
            CrashSpec {
                seed: 0x6C0_D1CE ^ ((i as u64) << 40),
                config: GroupCommitConfig {
                    window: Duration::from_micros(500),
                    max_batch: 16,
                    ..Default::default()
                },
                committers: 2,
                forgetters: 1,
                sync_delay: Duration::from_micros(200),
                crash_after,
            },
        );
    }
}

/// Staged, not yet appended: fire-and-forget committers only, under a
/// window long enough that the crash lands mid-dwell — the sync thread
/// asleep on an open batch, a few dozen records staged behind its opener.
/// Nothing was promised, so nothing acknowledged can be missing; what
/// survives must still be a gap-free prefix of the seq order.
#[test]
fn crash_mid_dwell_of_a_fire_and_forget_batch_leaves_a_gap_free_prefix() {
    for (i, crash_after) in [1u64, 3].into_iter().enumerate() {
        let (acked, recovered) = run_crash_into_next(
            CrashSpec {
                seed: 0x6C0_57A6 ^ ((i as u64) << 40),
                config: GroupCommitConfig {
                    window: Duration::from_millis(20),
                    max_batch: 1 << 20,
                    ..Default::default()
                },
                committers: 0,
                forgetters: 2,
                sync_delay: Duration::ZERO,
                crash_after,
            },
            Duration::from_millis(5),
        );
        assert!(acked.is_empty(), "nobody waited, nobody was acknowledged");
        assert!(
            recovered.len() as u64 >= crash_after,
            "crash_after={crash_after}: {} records survived {crash_after} fsynced batches",
            recovered.len()
        );
        if let Err(violation) = check_oracle(&acked, &recovered) {
            panic!("mid-dwell crash_after={crash_after}: {violation}");
        }
    }
}

/// The mixed load again, with the crash inside a dwell: the sync thread
/// is asleep to its pacing point or linger cap with the forgetter's
/// records staged behind it. No acknowledged commit is lost and the
/// survivors stay gap-free.
#[test]
fn crash_mid_dwell_under_mixed_durable_and_fire_and_forget_load() {
    for (i, crash_after) in [2u64, 5].into_iter().enumerate() {
        let window = Duration::from_micros(500);
        let (acked, recovered) = run_crash_into_next(
            CrashSpec {
                seed: 0x6C0_D3E1 ^ ((i as u64) << 40),
                config: GroupCommitConfig {
                    window,
                    max_batch: 16,
                    ..Default::default()
                },
                committers: 2,
                forgetters: 1,
                sync_delay: Duration::from_micros(200),
                crash_after,
            },
            window / 4,
        );
        assert!(!acked.is_empty(), "mixed mid-dwell: no commit was ever acknowledged");
        if let Err(violation) = check_oracle(&acked, &recovered) {
            panic!("mixed mid-dwell crash_after={crash_after}: {violation}");
        }
    }
}

/// Fire-and-forget submissions (ack-before-fsync) may lose their
/// unflushed tail — but never anything a durable waiter was told about.
/// Mixing both disciplines on one committer is exactly the engine's
/// `execute` vs `execute_durable` split.
#[test]
fn mixed_disciplines_lose_only_unacknowledged_tail() {
    let dir = PathBuf::from("/gc-mixed/cmdlog");
    let vfs = SimVfs::new(0x6C0_5EED);
    let writer = SegmentedLogWriter::create(Arc::new(vfs.clone()), &dir, 512).unwrap();
    let gc = GroupCommitter::start(
        Box::new(writer),
        GroupCommitConfig {
            window: Duration::from_secs(60), // an unwaited batch stays open
            max_batch: 1 << 20,
            ..Default::default()
        },
        None,
    );

    // Two fire-and-forget, one durable waiter: the waiter closes the
    // batch, and the fsync that resolves its ticket covers all three.
    gc.submit(rec(1));
    gc.submit(rec(2));
    let ticket = gc.submit_durable(rec(3));
    gc.flush().wait(Duration::from_secs(30)).unwrap();
    ticket.wait(Duration::from_secs(30)).unwrap();
    // Batch 2: fire-and-forget only, never flushed — the crash eats it.
    gc.submit(rec(4));
    gc.submit(rec(5));

    vfs.force_crash();
    drop(gc); // the final drain's sync fails against the crashed disk
    vfs.recover_view();
    let recovered: Vec<u64> = read_dir_logs(&vfs, &dir)
        .unwrap()
        .into_iter()
        .map(|r| r.seq.0)
        .collect();
    // The fsynced batch survives whole; of the unflushed tail, a prefix
    // may survive (the sync thread races the crash: an append that
    // triggered a segment rotation gets fsynced with the rotated-out
    // segment) but nothing may be reordered or invented.
    assert!(
        recovered.len() >= 3 && recovered == [1, 2, 3, 4, 5][..recovered.len()],
        "acked batch [1,2,3] must survive whole and recovery must be a \
         submission-order prefix; got {recovered:?}"
    );
}
