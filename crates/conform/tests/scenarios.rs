//! Scenario coverage beyond the strategy matrix: hot-key RMW chains,
//! blind writes, and the full TPC-C mix, each on a representative
//! strategy subset.

use calc_conform::{base_seed, run_stress, Scenario, StressSpec};
use calc_engine::StrategyKind;

#[test]
fn hot_key_rmw_chains() {
    let base = base_seed();
    for (i, kind) in [StrategyKind::Calc, StrategyKind::PIpp, StrategyKind::Fuzzy]
        .into_iter()
        .enumerate()
    {
        let seed = base ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let report = run_stress(&StressSpec::new(kind, Scenario::HotKeyRmw, seed));
        // 70% of traffic reads before writing — the read-check must have
        // real coverage.
        assert!(report.reads_checked > 500, "{report:?}");
    }
}

#[test]
fn blind_writes() {
    let base = base_seed();
    for (i, kind) in [
        StrategyKind::PCalc,
        StrategyKind::Zigzag,
        StrategyKind::PFuzzy,
    ]
    .into_iter()
    .enumerate()
    {
        let seed = base ^ (i as u64 + 11).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let report = run_stress(&StressSpec::new(kind, Scenario::BlindWrites, seed));
        assert!(report.writes_applied > 900, "{report:?}");
    }
}

#[test]
fn tpcc_full_mix_under_checkpointing() {
    let base = base_seed();
    for (i, kind) in [StrategyKind::Calc, StrategyKind::PCalc]
        .into_iter()
        .enumerate()
    {
        let seed = base ^ (i as u64 + 23).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let report = run_stress(&StressSpec {
            txns_per_feeder: 150,
            ..StressSpec::new(kind, Scenario::TpccMix, seed)
        });
        assert!(report.txns > 400, "{report:?}");
        assert!(report.reads_checked > 1000, "{report:?}");
    }
}
