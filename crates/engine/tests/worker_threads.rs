//! No engine thread outlives its `Database`: after cycles, merges and an
//! emergency retention pass kicked by ENOSPC on the command log, shutdown
//! leaves no `calc-*` thread in the process.
//!
//! Threads are counted by name in `/proc/self/task`, so this binary holds
//! a single test: no other test's engine may share the process.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::simfs::SimVfs;
use calc_common::types::Key;
use calc_engine::{Database, EngineConfig, Metric, StrategyKind};
use calc_testkit::{registry, set_u64, SET};

/// Names (`comm`) of this process's live threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn no_engine_thread_outlives_its_database() {
    let vfs = SimVfs::new(0x7EAD_0001);
    let mut config = EngineConfig::new(StrategyKind::PCalc, 1024, 16, PathBuf::from("/sim/ckpts"));
    config.vfs = Arc::new(vfs.clone());
    config.command_log_dir = Some(PathBuf::from("/sim/cmdlog"));
    config.log_segment_bytes = Some(512);
    config.keep_checkpoints = Some(2);
    config.merge_batch = Some(1);
    config.checkpoint_interval = Some(Duration::from_millis(5));
    config.workers = 2;
    let db = Database::open(config, registry()).unwrap();
    for k in 0..32u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db.finalize_load(true).unwrap();
    // A spawned thread names itself only once it runs: wait for the name.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !thread_names().iter().any(|n| n == "calc-ckpt-worke") && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        thread_names().iter().any(|n| n == "calc-ckpt-worke"),
        "the checkpoint worker is not running: {:?}",
        thread_names()
    );

    // Cycles, each queueing a merge behind it.
    for round in 0..4u64 {
        db.execute_durable(SET, set_u64(round, round + 1)).unwrap();
        db.checkpoint_now().unwrap();
    }
    db.wait_checkpoint_idle();
    let (full, _) = db.checkpoint_dir().chain().unwrap();
    assert!(full.id > 0, "no merge collapsed the chain");

    // A full log disk queues an emergency retention pass; wait until it
    // has started, then heal the disk.
    let health = db.health().clone();
    vfs.set_sync_enospc(true);
    std::thread::scope(|s| {
        let writer = s.spawn(|| db.execute_durable(SET, set_u64(7, 70)));
        let deadline = Instant::now() + Duration::from_secs(30);
        while health.get(Metric::emergency_retention_passes) == 0 {
            assert!(Instant::now() < deadline, "no emergency retention pass ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        vfs.set_sync_enospc(false);
        writer.join().unwrap().expect("the write survives the heal");
    });

    db.shutdown();
    let left: Vec<String> = thread_names()
        .into_iter()
        .filter(|n| n.starts_with("calc-"))
        .collect();
    assert!(
        left.is_empty(),
        "engine threads outlived the database: {left:?}"
    );
    assert!(health.get(Metric::emergency_retention_passes) >= 1);
}
