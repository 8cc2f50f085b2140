//! Randomized consistency tests over the full stack.
//!
//! Strategy: drive a single-worker `Database` with seeded op sequences
//! (bump/insert/delete/checkpoint markers), mirror them into a model
//! `BTreeMap`, and assert (a) live state equals the model at every
//! point, (b) every checkpoint equals the model state captured at its
//! trigger, and (c) checkpoint-only recovery reproduces that state. A
//! single worker makes the commit order equal the submission order, so
//! the model is exact.
//!
//! Cases are generated from `calc_common::rng::SplitMix` (the offline
//! build has no proptest); failures print the responsible seed.

use std::collections::BTreeMap;
use std::sync::Arc;

use calc_db::common::rng::SplitMix;
use calc_db::core::calc::CalcStrategy;
use calc_db::core::strategy::CheckpointStrategy;
use calc_db::engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_db::recovery;
use calc_db::storage::dual::StoreConfig;
use calc_db::txn::commitlog::CommitLog;
use calc_db::Key;
use calc_testkit::{registry, DELETE, SET};

#[derive(Clone, Debug)]
enum Op {
    Set(u64, Vec<u8>),
    Delete(u64),
    Checkpoint,
}

fn gen_ops(rng: &mut SplitMix, max_len: u64) -> Vec<Op> {
    let n = 1 + rng.next_below(max_len - 1) as usize;
    (0..n)
        .map(|_| match rng.next_below(9) {
            // 6:2:1 set/delete/checkpoint, matching the original weights.
            0..=5 => {
                let k = rng.next_below(24);
                let len = rng.next_below(40) as usize;
                let v = (0..len).map(|_| rng.next_u64() as u8).collect();
                Op::Set(k, v)
            }
            6 | 7 => Op::Delete(rng.next_below(24)),
            _ => Op::Checkpoint,
        })
        .collect()
}

fn run_scenario(kind: StrategyKind, ops: &[Op], case: &str) {
    let dir = calc_testkit::temp_dir(case);
    let mut config = EngineConfig::new(kind, 4096, 64, dir);
    config.workers = 1; // commit order == submission order → exact model
    let db = Database::open(config, registry()).unwrap();
    db.finalize_load(kind.is_partial()).unwrap();

    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut snapshots: Vec<BTreeMap<u64, Vec<u8>>> = Vec::new();

    for op in ops {
        match op {
            Op::Set(k, v) => {
                let p = calc_testkit::set(*k, v);
                assert!(matches!(db.execute(SET, p), TxnOutcome::Committed(_)));
                model.insert(*k, v.clone());
            }
            Op::Delete(k) => {
                let p = calc_testkit::delete(*k);
                assert!(matches!(db.execute(DELETE, p), TxnOutcome::Committed(_)));
                model.remove(k);
            }
            Op::Checkpoint => {
                db.checkpoint_now().unwrap();
                snapshots.push(model.clone());
            }
        }
    }

    // (a) Live state equals the model.
    for (k, v) in &model {
        assert_eq!(
            db.get(Key(*k)).as_deref(),
            Some(v.as_slice()),
            "live state diverged at key {k} ({case})"
        );
    }
    assert_eq!(db.record_count(), model.len());

    // (b+c) Recovery of the newest chain equals the state at the last
    // checkpoint.
    if let Some(expected) = snapshots.last() {
        let fresh = CalcStrategy::full(
            StoreConfig::for_records(4096, 64),
            Arc::new(CommitLog::default()),
        );
        let outcome = recovery::recover_checkpoint_only(db.checkpoint_dir(), &fresh).unwrap();
        assert_eq!(
            outcome.loaded_records as usize,
            expected.len(),
            "recovered record count ({case})"
        );
        for (k, v) in expected {
            assert_eq!(
                fresh.get(Key(*k)).as_deref(),
                Some(v.as_slice()),
                "recovered state diverged at key {k} ({case})"
            );
        }
    }
}

const SEED_BASE: u64 = 0xc0de_ca1c_0000_0000;
const CASES: u64 = 24;

fn run_cases(kind: StrategyKind, max_len: u64, tag: &str, salt: u64) {
    for case in 0..CASES {
        let seed = SEED_BASE ^ (salt << 8) ^ case;
        let mut rng = SplitMix::new(seed);
        let ops = gen_ops(&mut rng, max_len);
        run_scenario(kind, &ops, &format!("{tag}-{seed:x}"));
    }
}

#[test]
fn calc_matches_model() {
    run_cases(StrategyKind::Calc, 60, "calc", 1);
}

#[test]
fn pcalc_matches_model() {
    run_cases(StrategyKind::PCalc, 60, "pcalc", 2);
}

#[test]
fn zigzag_matches_model() {
    run_cases(StrategyKind::Zigzag, 40, "zigzag", 3);
}

#[test]
fn pipp_matches_model() {
    run_cases(StrategyKind::PIpp, 40, "pipp", 4);
}

#[test]
fn pnaive_matches_model() {
    run_cases(StrategyKind::PNaive, 40, "pnaive", 5);
}
