//! The acceptance matrix: every checkpointing strategy, full and partial,
//! survives the checkpoint-under-contention scenario at three seeds.
//!
//! Each run hammers the engine from 4 feeder threads under seeded
//! schedule perturbation while the driver takes back-to-back checkpoints,
//! then replays the recorded history through the serial-model checker and
//! materializes every published checkpoint file.
//!
//! Reproduce a failure with `CONFORM_SEED=<seed from the panic message>
//! cargo test -p calc-conform` (the three seeds are derived from the base
//! seed, so overriding the base replays all of them shifted).

use calc_conform::{base_seed, run_stress, Scenario, StressSpec};
use calc_engine::StrategyKind;

fn seeds() -> [u64; 3] {
    let base = base_seed();
    [base, base ^ 0x9E37_79B9_7F4A_7C15, base ^ 0x6A09_E667_F3BC_C909]
}

fn matrix(kind: StrategyKind) {
    for seed in seeds() {
        let report = run_stress(&StressSpec::new(kind, Scenario::CheckpointContention, seed));
        assert!(report.txns > 0);
        assert!(report.checkpoints_verified > 1, "{report:?}");
    }
}

#[test]
fn calc_full() {
    matrix(StrategyKind::Calc);
}

#[test]
fn calc_partial() {
    matrix(StrategyKind::PCalc);
}

#[test]
fn naive_full() {
    matrix(StrategyKind::Naive);
}

#[test]
fn naive_partial() {
    matrix(StrategyKind::PNaive);
}

#[test]
fn fuzzy_full() {
    matrix(StrategyKind::Fuzzy);
}

#[test]
fn fuzzy_partial() {
    matrix(StrategyKind::PFuzzy);
}

#[test]
fn ipp_full() {
    matrix(StrategyKind::Ipp);
}

#[test]
fn ipp_partial() {
    matrix(StrategyKind::PIpp);
}

#[test]
fn zigzag_full() {
    matrix(StrategyKind::Zigzag);
}

#[test]
fn zigzag_partial() {
    matrix(StrategyKind::PZigzag);
}
