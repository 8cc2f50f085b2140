//! Self-test of the restart oracle against the log tailer every restart
//! now reads the log through: with the seeded `SkipTailSegment` bug armed
//! — at a clean end of a segment the tailer steps over the next one when
//! that one is sealed too — a restart over a log of many small segments
//! must come back with a state the serial model never held within the
//! seed budget; disarmed, the identical sweep must stay silent.
//!
//! The mutation flags are process-global, which is why this is its own
//! test binary with a single test: nothing else may run while one is
//! armed.

use calc_common::mutation::{self, Mutation};
use calc_engine::StrategyKind;
use calc_sim::{base_seed, run_sim, SimSpec};

const SEED_BUDGET: u64 = 8;

/// Clean power cuts after 120 transactions in 512-byte segments (the
/// writer's smallest), so the restart replays across a dozen rotations;
/// no checkpoint after the base one, so all of it is replayed. The first
/// violation, if any.
fn sweep() -> Option<String> {
    (0..SEED_BUDGET).find_map(|i| {
        let kind = [StrategyKind::Calc, StrategyKind::PCalc][(i % 2) as usize];
        let spec = SimSpec {
            txns: 120,
            checkpoint_every: u64::MAX,
            log_segment_bytes: 512,
            ..SimSpec::smoke(kind, base_seed() ^ (0x7A11 + i))
        };
        run_sim(&spec).err().map(|v| v.to_string())
    })
}

#[test]
fn skip_tail_segment_is_caught_and_the_disarmed_sweep_is_clean() {
    if let Some(violation) = sweep() {
        panic!("false positive on the real tailer: {violation}");
    }
    mutation::arm(Mutation::SkipTailSegment);
    let caught = sweep();
    mutation::disarm_all();
    let violation = caught.unwrap_or_else(|| {
        panic!("false negative: skip-tail-segment escaped the oracle on all {SEED_BUDGET} seeds")
    });
    assert!(
        violation.contains("state ≠ model") || violation.contains("durability broken"),
        "{violation}"
    );
    eprintln!("skip-tail-segment caught: {violation}");
}
