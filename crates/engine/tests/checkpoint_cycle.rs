//! The checkpoint cycle through the public API: the background merge a
//! batch of partials triggers, and the supervised daemon entering and
//! leaving degraded mode around an I/O failure.

use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::Key;
use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_testkit::{registry, set_u64, SET};

#[test]
fn merge_batch_triggers_background_collapse() {
    let dir = calc_testkit::temp_dir("mergebatch");
    let mut config = EngineConfig::new(StrategyKind::PCalc, 1024, 16, dir);
    config.workers = 2;
    config.merge_batch = Some(2);
    let db = Database::open(config, registry()).unwrap();
    for k in 0..50u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();
    for round in 0..4 {
        db.execute(SET, set_u64(round, 1));
        db.checkpoint_now().unwrap();
    }
    // Wait for the background mergers, then verify the chain got shorter
    // than 4 partials.
    db.join_mergers();
    let (full, partials) = db.checkpoint_dir().recovery_chain().unwrap().unwrap();
    assert!(
        full.id > 0,
        "expected a merged full checkpoint, got base full only"
    );
    assert!(partials.len() < 4, "partials not collapsed: {partials:?}");
}

#[test]
fn service_enters_and_exits_degraded_mode_under_io_failure() {
    use calc_common::simfs::{SimVfs, TransientKind, TransientSpec};
    let vfs = SimVfs::new(0x0DE6_0DE6);
    let mut config = EngineConfig::new(
        StrategyKind::PCalc,
        1024,
        16,
        std::path::PathBuf::from("/sim/ckpts"),
    );
    config.vfs = Arc::new(vfs.clone());
    config.workers = 2;
    config.checkpoint_interval = Some(Duration::from_millis(2));
    config.checkpoint_tuning.backoff_base = Duration::from_millis(1);
    config.checkpoint_tuning.backoff_cap = Duration::from_millis(5);
    config.checkpoint_tuning.degraded_after = 2;
    let db = Database::open(config, registry()).unwrap();
    for k in 0..16u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();

    // Break the disk: every checkpoint write fails until healed.
    vfs.arm_transient(TransientSpec {
        kind: TransientKind::WriteError,
        from: vfs.counts().data_ops(),
        count: u64::MAX,
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while !db.health().degraded() {
        assert!(
            Instant::now() < deadline,
            "daemon never entered degraded mode"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Degraded, not dead: transactions keep committing.
    let out = db.execute(SET, set_u64(3, 7));
    assert!(matches!(out, TxnOutcome::Committed(_)));
    assert!(db.health().last_error().is_some());
    assert!(
        db.strategy().aborted_cycles() > 0,
        "failed cycles not rolled back"
    );

    // Heal the disk; the daemon self-heals on its next success.
    vfs.arm_transient(TransientSpec {
        kind: TransientKind::WriteError,
        from: 0,
        count: 0,
    });
    while db.health().degraded() || db.health().degraded_exits() == 0 {
        assert!(Instant::now() < deadline, "daemon never self-healed");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(db.health().consecutive_failures(), 0);
    assert!(db.health().time_since_last_success().is_some());
    db.shutdown();
}
