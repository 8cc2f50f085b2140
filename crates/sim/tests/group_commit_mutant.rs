//! Self-test of the group-commit durability oracle (ROADMAP 5b): an
//! oracle that has never failed proves nothing. With the seeded
//! `AckBeforeFsync` bug armed — the sync thread acknowledges a batch's
//! waiters *before* the fsync that covers them — the `acked ⊆ recovered`
//! check of `group_commit_crash.rs` must report a violation within its
//! seed budget; disarmed, the identical sweep must stay silent.
//!
//! The mutation flags are process-global, which is why this is its own
//! test binary with a single test: nothing else may run while one is
//! armed.

mod support;

use std::time::Duration;

use calc_common::mutation::{self, Mutation};
use calc_recovery::GroupCommitConfig;

use support::{check_oracle, run_crash, CrashSpec};

const SEED_BUDGET: u64 = 16;

/// Crashes one committer pair per seed; the first violation, if any.
fn sweep() -> Option<(u64, String)> {
    (0..SEED_BUDGET).find_map(|i| {
        let seed = 0xACCB_EF05 ^ (i << 40);
        let (acked, recovered) = run_crash(CrashSpec {
            seed,
            config: GroupCommitConfig {
                window: Duration::from_micros(200),
                max_batch: 64,
                ..Default::default()
            },
            committers: 2,
            forgetters: 0,
            // The armed bug is only visible to a crash between the early
            // acknowledgement and the fsync: make that most of a cycle.
            sync_delay: Duration::from_micros(300),
            crash_after: 2 + i % 3,
        });
        check_oracle(&acked, &recovered).err().map(|v| (seed, v))
    })
}

#[test]
fn ack_before_fsync_is_caught_and_the_disarmed_sweep_is_clean() {
    if let Some((seed, violation)) = sweep() {
        panic!("false positive on a clean committer, seed {seed:#x}: {violation}");
    }
    mutation::arm(Mutation::AckBeforeFsync);
    let caught = sweep();
    mutation::disarm_all();
    let (seed, violation) = caught.unwrap_or_else(|| {
        panic!("false negative: ack-before-fsync escaped the oracle on all {SEED_BUDGET} seeds")
    });
    eprintln!("ack-before-fsync caught at seed {seed:#x}: {violation}");
}
