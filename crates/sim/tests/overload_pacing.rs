//! Adaptive checkpoint pacing under synthetic overload, at the engine
//! level (no server, no sockets). The load signal is driven through the
//! two sources production has: admission pressure
//! (`LoadSignal::note_pressure`, what a shed or a waiter blocked on a
//! full gate records) and a real admission `Gate` holding permits.
//!
//! Four claims:
//!
//! * under admission pressure the load level reads `Overload` and the
//!   effective capture pool (`CheckpointDir::checkpoint_threads`) clamps
//!   to 1 — every strategy sizes its pool through that one method, so
//!   one assertion covers all;
//! * with half a gate's permits held the level reads `High` and the pool
//!   halves;
//! * a checkpoint cycle captured under overload yields scan quanta
//!   (`capture_yields > 0`) — the capture path visibly backs off;
//! * with `adaptive_pacing: false` the same pressure changes nothing:
//!   configured parallelism, zero yields.

use std::time::Duration;

use calc_common::{Gate, LoadLevel};
use calc_engine::{Database, EngineConfig, StrategyKind};
use calc_txn::proc::ProcRegistry;

const CONFIGURED_THREADS: usize = 4;

fn open_db(name: &str, adaptive: bool) -> Database {
    let dir = std::env::temp_dir().join(format!(
        "calc-overload-pacing-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ec = EngineConfig::new(StrategyKind::Calc, 1 << 16, 64, dir);
    ec.workers = 2;
    ec.checkpoint_threads = CONFIGURED_THREADS;
    ec.adaptive_pacing = adaptive;
    Database::open(ec, ProcRegistry::new()).unwrap()
}

#[test]
fn overload_clamps_effective_capture_parallelism_to_one() {
    let db = open_db("clamp", true);
    let dir = db.checkpoint_dir();
    assert_eq!(dir.configured_checkpoint_threads(), CONFIGURED_THREADS);
    assert_eq!(
        dir.checkpoint_threads(),
        CONFIGURED_THREADS,
        "idle engine must run the configured pool"
    );

    db.load().note_pressure();
    assert_eq!(db.load().level(), LoadLevel::Overload);
    assert_eq!(
        dir.checkpoint_threads(),
        1,
        "overload must clamp the capture pool to one worker"
    );
    assert_eq!(
        dir.configured_checkpoint_threads(),
        CONFIGURED_THREADS,
        "the configured value is not rewritten, only the effective one"
    );
    db.shutdown();
}

#[test]
fn half_held_gate_halves_effective_capture_parallelism() {
    let db = open_db("halve", true);
    let dir = db.checkpoint_dir();
    let gate = Gate::new(4, db.load().clone());
    let first = gate.try_acquire_for(Duration::ZERO).unwrap();
    assert_eq!(db.load().level(), LoadLevel::Normal);
    assert_eq!(
        dir.checkpoint_threads(),
        CONFIGURED_THREADS,
        "one permit of four is normal load"
    );

    let second = gate.try_acquire_for(Duration::ZERO).unwrap();
    assert_eq!(db.load().level(), LoadLevel::High, "2/4 permits is high");
    assert_eq!(
        dir.checkpoint_threads(),
        CONFIGURED_THREADS / 2,
        "high load must halve the capture pool"
    );

    drop((first, second));
    assert_eq!(db.load().level(), LoadLevel::Idle);
    assert_eq!(dir.checkpoint_threads(), CONFIGURED_THREADS);
    db.shutdown();
}

#[test]
fn capture_under_overload_yields_scan_quanta() {
    let db = open_db("yields", true);
    // Enough records that capture crosses several pacing strides (the
    // writer consults the signal every 1024 records).
    for k in 0..20_000u64 {
        db.load_initial(calc_common::Key(k), &k.to_le_bytes()).unwrap();
    }
    assert_eq!(db.load().capture_yields(), 0);

    // Admission pressure holds Overload for a second — longer than this
    // capture takes — without a request in flight mid-capture.
    db.load().note_pressure();
    let stats = db.checkpoint_now().unwrap();
    assert!(stats.records >= 20_000);
    let yields = db.load().capture_yields();
    assert!(
        yields > 0,
        "capture under overload must yield scan quanta, got 0"
    );
    db.shutdown();
}

#[test]
fn pacing_off_ignores_pressure_entirely() {
    let db = open_db("off", false);
    for k in 0..20_000u64 {
        db.load_initial(calc_common::Key(k), &k.to_le_bytes()).unwrap();
    }
    db.load().note_pressure();
    assert_eq!(
        db.load().level(),
        LoadLevel::Overload,
        "the signal itself still grades the load"
    );
    assert_eq!(
        db.checkpoint_dir().checkpoint_threads(),
        CONFIGURED_THREADS,
        "pacing off: effective parallelism stays configured"
    );
    let stats = db.checkpoint_now().unwrap();
    assert!(stats.records >= 20_000);
    assert_eq!(
        db.load().capture_yields(),
        0,
        "pacing off: capture never yields"
    );
    db.shutdown();
}
