//! Self-test of the fallback restart's replay window: with the seeded
//! `TruncateAboveFloor` bug armed — engine retention truncates the command
//! log below the *newest* full's watermark instead of the oldest surviving
//! full's — a restart that falls back past a torn newest full must come
//! back without writes that are still acknowledged; disarmed, the identical
//! experiment must stay silent.
//!
//! The mutation flags are process-global, which is why this is its own
//! test binary with a single test: nothing else may run while one is
//! armed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use calc_common::mutation::{self, Mutation};
use calc_common::rng::SplitMix;
use calc_common::simfs::SimVfs;
use calc_common::types::Key;
use calc_common::vfs::Vfs;
use calc_core::CheckpointKind;
use calc_engine::standby::{Standby, StandbyConfig};
use calc_engine::{Database, EngineConfig, StrategyKind};
use calc_sim::base_seed;
use calc_testkit::{registry, set_u64, SET};

const SEEDS: u64 = 4;

/// One experiment: durable writes around two full checkpoints kept by
/// `keep_checkpoints = 2` over 512-byte log segments, a clean shutdown,
/// the newest full's first part torn in half, and a restart — which must
/// fall back to the older full and replay every write since. The first
/// acknowledged write the restart lost, if any.
fn experiment(seed: u64) -> Option<String> {
    let vfs = SimVfs::new(seed);
    let (ckpts, log) = (PathBuf::from("/sim/ckpts"), PathBuf::from("/sim/cmdlog"));
    let mut config = EngineConfig::new(StrategyKind::Calc, 256, 16, ckpts.clone());
    config.vfs = Arc::new(vfs.clone());
    config.command_log_dir = Some(log.clone());
    config.log_segment_bytes = Some(512);
    config.keep_checkpoints = Some(2);
    config.checkpoint_threads = 1;
    config.workers = 1;
    let store = config.store.clone();
    let db = Database::open(config, registry()).unwrap();
    let mut rng = SplitMix::new(seed);
    let mut model = BTreeMap::new();
    let mut writes = |n: u64| {
        for _ in 0..n {
            let (key, value) = (rng.next_u64() % 64, rng.next_u64());
            db.execute_durable(SET, set_u64(key, value)).unwrap();
            model.insert(key, value);
        }
    };
    writes(40);
    db.checkpoint_now().unwrap();
    writes(60);
    db.checkpoint_now().unwrap();
    writes(10);
    let newest = db.checkpoint_dir().manifests().into_iter();
    let newest = newest
        .filter(|m| m.kind == CheckpointKind::Full)
        .max_by_key(|m| m.id)
        .unwrap();
    db.shutdown();

    let part = newest.path.with_extension("part-0");
    vfs.truncate(&part, vfs.len(&part).unwrap() / 2).unwrap();
    let mut cfg = StandbyConfig::new(StrategyKind::Calc, store, ckpts, log);
    cfg.vfs = Arc::new(vfs);
    let promoted = match Standby::open(cfg, registry()).and_then(Standby::promote) {
        Ok(promoted) => promoted,
        Err(e) => return Some(format!("seed {seed:#x}: restart refused: {e}")),
    };
    model.into_iter().find_map(|(key, value)| {
        let got = promoted.get(Key(key)).map(|v| v.to_vec());
        (got.as_deref() != Some(&value.to_le_bytes()[..])).then(|| {
            format!("seed {seed:#x}: key {key} reads {got:?} after restart, acknowledged {value}")
        })
    })
}

#[test]
fn truncate_above_floor_is_caught_and_the_disarmed_experiment_is_clean() {
    let seeds: Vec<u64> = (0..SEEDS).map(|i| base_seed() ^ (0x7E7E + i)).collect();
    if let Some(violation) = seeds.iter().find_map(|&s| experiment(s)) {
        panic!("false positive on the real retention: {violation}");
    }
    mutation::arm(Mutation::TruncateAboveFloor);
    let caught = experiment(seeds[0]);
    mutation::disarm_all();
    let violation = caught.unwrap_or_else(|| {
        panic!("false negative: truncate-above-floor escaped at the first seed")
    });
    eprintln!("truncate-above-floor caught: {violation}");
}
