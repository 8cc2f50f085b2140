//! Mutation smoke test: arm each seeded bug and assert the checker
//! catches it — an oracle that cannot fail has no value.
//!
//! Three bugs ship behind the `mutation-hooks` feature (runtime-armed,
//! default off):
//!
//! * `SkipLock` — the lock manager grants every lock in shared mode, so
//!   exclusive owners race. Hot-key RMW chains then lose updates, which
//!   the serial-model read check flags.
//! * `StaleStableRead` — reads return the checkpoint-stable version when
//!   one is installed instead of the live version. Under back-to-back
//!   CALC checkpoints an RMW chain reads its own pre-image.
//! * `LatePhaseStamp` — a commit racing the PREPARE→RESOLVE transition
//!   is stamped on the wrong side of the virtual point of consistency,
//!   so CALC keeps a provisional pre-image it should discard and the
//!   checkpoint diverges from the serial model at its watermark.
//!
//! Detection of a schedule-dependent bug on one fixed seed is not
//! guaranteed, so each mutation gets a handful of derived seeds and must
//! be caught on at least one (in practice: the first). A clean control
//! run on the same spec asserts zero false positives.

use calc_common::mutation::Mutation;
use calc_conform::{base_seed, run_stress, run_stress_mutated, Scenario, StressSpec};
use calc_engine::StrategyKind;

const TRIES: u64 = 5;

fn spec_for(mutation: Mutation, seed: u64) -> StressSpec {
    match mutation {
        // Pure lock-contention bug: the hottest scenario finds it fastest.
        Mutation::SkipLock => StressSpec::new(StrategyKind::Calc, Scenario::HotKeyRmw, seed),
        // Needs stable versions installed (CALC dual store) and reads
        // landing inside checkpoint windows.
        Mutation::StaleStableRead => {
            StressSpec::new(StrategyKind::Calc, Scenario::CheckpointContention, seed)
        }
        // Needs commits racing the PREPARE→RESOLVE transition.
        Mutation::LatePhaseStamp => {
            StressSpec::new(StrategyKind::Calc, Scenario::CheckpointContention, seed)
        }
        Mutation::AckBeforeFsync
        | Mutation::OldestWinsOnLoad
        | Mutation::SkipLaneBarrier
        | Mutation::SkipTailSegment => {
            unreachable!("a durability/restart bug: calc-sim's oracles own it, not this checker")
        }
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    let base = base_seed();
    (0..TRIES).map(move |i| base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn assert_detected(mutation: Mutation) {
    let mut caught = None;
    for seed in seeds() {
        let spec = spec_for(mutation, seed);
        match run_stress_mutated(&spec, mutation) {
            Err(v) => {
                caught = Some((seed, v));
                break;
            }
            Ok(report) => {
                eprintln!(
                    "{} escaped seed {seed:#x} ({} txns, {} reads checked, {} checkpoints)",
                    mutation.name(),
                    report.txns,
                    report.reads_checked,
                    report.checkpoints_verified,
                );
            }
        }
    }
    let (seed, violation) = caught.unwrap_or_else(|| {
        panic!(
            "false negative: mutation {} escaped the checker on all {TRIES} seeds",
            mutation.name()
        )
    });
    eprintln!("{} caught at seed {seed:#x}: {violation}", mutation.name());

    // Zero false positives: the identical spec without the mutation is
    // clean (panics inside run_stress otherwise).
    run_stress(&spec_for(mutation, seed));
}

#[test]
fn skip_lock_is_detected_under_the_pool() {
    assert_detected(Mutation::SkipLock);
}

#[test]
fn stale_stable_read_is_detected() {
    assert_detected(Mutation::StaleStableRead);
}

#[test]
fn late_phase_stamp_is_detected() {
    assert_detected(Mutation::LatePhaseStamp);
}
