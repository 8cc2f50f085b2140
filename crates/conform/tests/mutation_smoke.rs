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
//! run on the same spec asserts zero false positives. The two storage
//! and phase bugs sit below the executor and must be caught under both
//! modes; `SkipLock` is caught under the pool and must be *inert* under
//! shard ownership, where the lock manager is off the execution path.

use calc_common::mutation::Mutation;
use calc_conform::{base_seed, run_stress, run_stress_mutated, Scenario, StressSpec};
use calc_engine::{ExecutorMode, StrategyKind};

const TRIES: u64 = 5;

fn spec_for(mutation: Mutation, executor: ExecutorMode, seed: u64) -> StressSpec {
    let spec = match mutation {
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
        Mutation::AckBeforeFsync | Mutation::OldestWinsOnLoad => {
            unreachable!("a durability/restart bug: calc-sim's oracles own it, not this checker")
        }
    };
    StressSpec { executor, ..spec }
}

fn seeds() -> impl Iterator<Item = u64> {
    let base = base_seed();
    (0..TRIES).map(move |i| base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn assert_detected(mutation: Mutation, executor: ExecutorMode) {
    let mut caught = None;
    for seed in seeds() {
        let spec = spec_for(mutation, executor, seed);
        match run_stress_mutated(&spec, mutation) {
            Err(v) => {
                caught = Some((seed, v));
                break;
            }
            Ok(report) => {
                eprintln!(
                    "{} / {executor} escaped seed {seed:#x} ({} txns, {} reads checked, {} checkpoints)",
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
            "false negative: mutation {} / {executor} escaped the checker on all {TRIES} seeds",
            mutation.name()
        )
    });
    eprintln!("{} / {executor} caught at seed {seed:#x}: {violation}", mutation.name());

    // Zero false positives: the identical spec without the mutation is
    // clean (panics inside run_stress otherwise).
    run_stress(&spec_for(mutation, executor, seed));
}

#[test]
fn skip_lock_is_detected_under_the_pool() {
    assert_detected(Mutation::SkipLock, ExecutorMode::Pool);
}

/// Under shard ownership the lock manager is off the execution path
/// entirely — owner serialism and cross-shard fences isolate transactions
/// — so sabotaging lock grants must change nothing: every seed stays
/// clean. (A caught violation here would mean the owned path started
/// consulting the lock manager it claims not to need.)
#[test]
fn skip_lock_is_inert_under_shard_ownership() {
    for seed in seeds() {
        let spec = spec_for(Mutation::SkipLock, ExecutorMode::ShardOwned, seed);
        if let Err(v) = run_stress_mutated(&spec, Mutation::SkipLock) {
            panic!(
                "shard-owned execution must not depend on the lock manager, but sabotaged \
                 lock grants produced {v} at seed {seed:#x}"
            );
        }
    }
}

#[test]
fn stale_stable_read_is_detected() {
    for executor in ExecutorMode::ALL {
        assert_detected(Mutation::StaleStableRead, executor);
    }
}

#[test]
fn late_phase_stamp_is_detected() {
    for executor in ExecutorMode::ALL {
        assert_detected(Mutation::LatePhaseStamp, executor);
    }
}
