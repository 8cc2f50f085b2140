//! Self-test of the recovery oracle against restart's lane replay: with
//! the seeded `SkipLaneBarrier` bug armed — the replay driver hands a
//! command whose lock keys span lanes to its first key's lane instead of
//! draining every lane first — a two-lane restart over a log whose
//! single-key and multi-key writes share a small hot key set must come
//! back with a state the serial model never held within the seed budget;
//! disarmed, the identical sweep must stay silent.
//!
//! The mutation flags are process-global, which is why this is its own
//! test binary with a single test: nothing else may run while one is
//! armed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use calc_common::mutation::{self, Mutation};
use calc_common::rng::SplitMix;
use calc_common::simfs::SimVfs;
use calc_common::types::{Key, TxnId};
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::NoopEnv;
use calc_core::throttle::Throttle;
use calc_engine::StrategyKind;
use calc_recovery::{apply_commit, recover};
use calc_sim::base_seed;
use calc_storage::dual::StoreConfig;
use calc_testkit::{registry, MSET, SET};
use calc_txn::commitlog::{CommitLog, CommitRecord};

const SEED_BUDGET: u64 = 8;
/// Keys every command draws from: few enough that a multi-key write and
/// the single-key writes around it keep landing on the same keys.
const HOT: u64 = 8;
const COMMANDS: u64 = 4_000;
/// The primary's one partial checkpoint; everything after it is replayed.
const CHECKPOINT_AFTER: u64 = 1_000;

/// One restart: the primary runs the seeded log over a base checkpoint
/// and one partial, then a fresh pCALC recovers it on two lanes and is
/// held against the model (the last value written to each key).
fn restart(seed: u64) -> Result<(), String> {
    let dir = CheckpointDir::open_with_vfs(
        Path::new("/sim/ckpts"),
        Arc::new(Throttle::unlimited()),
        Arc::new(SimVfs::new(seed)),
    )
    .map_err(|e| e.to_string())?;
    dir.set_checkpoint_threads(2);
    let config = StoreConfig::for_records(1024, 64);
    let log = Arc::new(CommitLog::default());
    let primary = StrategyKind::PCalc.build(config.clone(), log.clone());
    primary
        .write_base_checkpoint(&dir)
        .map_err(|e| e.to_string())?;
    let reg = registry();
    let mut rng = SplitMix::new(seed);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut records = Vec::new();
    for i in 0..COMMANDS {
        let value = |rng: &mut SplitMix| (rng.next_u64() as u32).to_le_bytes().to_vec();
        let writes: Vec<(u64, Vec<u8>)> = match rng.next_below(10) {
            0..=6 => vec![(rng.next_below(HOT), value(&mut rng))],
            _ => (0..2 + rng.next_below(2))
                .map(|_| (rng.next_below(HOT), value(&mut rng)))
                .collect(),
        };
        let (proc, params) = match &writes[..] {
            [(key, v)] => (SET, calc_testkit::set(*key, v)),
            many => {
                let pairs: Vec<(u64, &[u8])> = many.iter().map(|(k, v)| (*k, &v[..])).collect();
                (MSET, calc_testkit::mset(&pairs))
            }
        };
        let (seq, _) = log.append_commit();
        let rec = CommitRecord {
            seq,
            txn: TxnId(i),
            proc,
            params,
        };
        apply_commit(primary.as_ref(), &reg, &rec).map_err(|e| e.to_string())?;
        model.extend(writes);
        records.push(rec);
        if i + 1 == CHECKPOINT_AFTER {
            primary
                .checkpoint(&NoopEnv, &dir)
                .map_err(|e| e.to_string())?;
        }
    }

    let recovered = StrategyKind::PCalc.build(config, Arc::new(CommitLog::default()));
    recover(&dir, recovered.as_ref(), &reg, &records)
        .map_err(|e| format!("recovery failed: {e}"))?;
    for (key, value) in &model {
        if recovered.get(Key(*key)).as_deref() != Some(&value[..]) {
            return Err(format!(
                "seed {seed:#x}: recovered state ≠ model at key {key}"
            ));
        }
    }
    if recovered.record_count() != model.len() {
        return Err(format!(
            "seed {seed:#x}: recovered state ≠ model: record count"
        ));
    }
    Ok(())
}

/// The first violation over the seed budget, if any.
fn sweep() -> Option<String> {
    (0..SEED_BUDGET).find_map(|i| restart(base_seed() ^ (0x1A4E + i)).err())
}

#[test]
fn skip_lane_barrier_is_caught_and_the_disarmed_sweep_is_clean() {
    if let Some(violation) = sweep() {
        panic!("false positive on the real lane driver: {violation}");
    }
    mutation::arm(Mutation::SkipLaneBarrier);
    let caught = sweep();
    mutation::disarm_all();
    let violation = caught.unwrap_or_else(|| {
        panic!("false negative: skip-lane-barrier escaped the oracle on all {SEED_BUDGET} seeds")
    });
    assert!(violation.contains("recovered state ≠ model"), "{violation}");
    eprintln!("skip-lane-barrier caught: {violation}");
}
