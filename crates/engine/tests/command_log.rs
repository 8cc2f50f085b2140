//! The durable command log through the public API: every commit (and no
//! abort) reaches it in commit order, `sync_command_log` is a real flush
//! handshake, a dead logger degrades to a typed error instead of taking
//! the engine down, and an ENOSPC window is visible as read-only mode.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::simfs::{SimVfs, TransientKind, TransientSpec};
use calc_common::vfs::OsVfs;
use calc_engine::{
    Database, EngineConfig, Metric, MetricValue, StrategyKind, SyncError, TxnOutcome,
};
use calc_testkit::{registry, set_u64, SET};
use calc_txn::proc::ProcId;

use common::logged_config;

#[test]
fn dead_command_logger_degrades_to_sync_error() {
    // Regression: a logger thread killed by an append I/O error used
    // to abort the whole process via a panic in sync_command_log.
    let vfs = SimVfs::new(0xDEAD_1066);
    let mut config = EngineConfig::new(
        StrategyKind::Calc,
        256,
        16,
        std::path::PathBuf::from("/sim/ckpts"),
    );
    config.command_log_dir = Some(std::path::PathBuf::from("/sim/cmdlog"));
    config.vfs = Arc::new(vfs.clone());
    config.workers = 2;
    let db = Database::open(config, registry()).unwrap();
    // Fail every write from here on: the logger's next append dies
    // and the thread exits.
    vfs.arm_transient(TransientSpec {
        kind: TransientKind::WriteError,
        from: vfs.counts().data_ops(),
        count: u64::MAX,
    });
    let out = db.execute(SET, set_u64(1, 1));
    assert!(
        matches!(out, TxnOutcome::Committed(_)),
        "commit must survive a dead logger"
    );
    let r = db.sync_command_log();
    assert!(
        matches!(r, Err(SyncError::LoggerExited) | Err(SyncError::LoggerDied)),
        "expected a typed sync error, got {r:?}"
    );
    // The engine is still alive: more commits, clean shutdown.
    let out = db.execute(SET, set_u64(2, 2));
    assert!(matches!(out, TxnOutcome::Committed(_)));
    db.shutdown();
}

#[test]
fn durable_command_log_collects_all_commits_group_committed() {
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 1024, "cmdlog");
    config.workers = 2;
    let db = Database::open(config, registry()).unwrap();
    for i in 0..300u64 {
        db.submit(SET, set_u64(i % 50, i));
    }
    // Aborted transactions must NOT reach the durable log.
    let out = db.execute(ProcId(99), Arc::from(&b""[..]));
    assert!(matches!(out, TxnOutcome::Aborted(_)));
    db.shutdown(); // closes the channel, drains, final fsync

    let records = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    assert_eq!(records.len(), 300, "every commit durably logged");
    // Records are in commit order.
    for pair in records.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

#[test]
fn sync_command_log_flush_handshake_is_deterministic() {
    // sync_command_log must make every previously-enqueued record
    // durable before returning — a real flush handshake, not a sleep
    // hoping the idle-timeout sync has happened.
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 1024, "cmdlog-sync");
    config.workers = 2;
    let db = Database::open(config, registry()).unwrap();
    for round in 1..=3u64 {
        for i in 0..40u64 {
            db.execute(SET, set_u64(i, round));
        }
        db.sync_command_log().expect("flush handshake");
        // The database is still live; the synced prefix must already
        // be on disk.
        let records = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
        assert_eq!(
            records.len() as u64,
            40 * round,
            "round {round}: flush acknowledged but records not durable"
        );
    }
    db.shutdown();
}

/// The count the wake rule rests on, made by the program: fire-and-forget
/// commits wake the sync thread about once per batch — to open it; the
/// flush at the end is one more — not once per commit, and the log they
/// leave is complete and in seq order.
#[test]
fn fire_and_forget_commits_wake_the_sync_thread_per_batch_not_per_commit() {
    const N: u64 = 10_000;
    let (mut config, log_dir) = logged_config(StrategyKind::Calc, 1024, "cmdlog-wakeups");
    config.workers = 2;
    let db = Database::open(config, registry()).unwrap();
    for i in 0..N {
        db.submit(SET, set_u64(i % 512, i));
    }
    // A commit is counted after it is staged, so this is the drain.
    let deadline = Instant::now() + Duration::from_secs(60);
    while db.metrics().committed() < N {
        assert!(Instant::now() < deadline, "the submissions never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    db.sync_command_log().expect("flush handshake");

    let list = db.metric_values();
    let listed = |name: &str| match list.iter().find(|(n, _)| n == name) {
        Some((_, MetricValue::Int(v))) => *v,
        other => panic!("{name}: {other:?}"),
    };
    let (wakeups, batches) = (listed("commit_wakeups"), listed("commit_batches"));
    assert_eq!(listed("commit_batch_records"), N);
    assert!(batches * 2 <= N, "{batches} batches for {N} commits: nothing was batched");
    assert!(
        wakeups <= batches + 2,
        "{wakeups} wake-ups for {batches} batches of {N} fire-and-forget commits"
    );
    assert_eq!(db.health().get(Metric::commit_wakeups), wakeups, "the table cell is the list's");

    let records = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    assert_eq!(records.len() as u64, N, "the flush covered every commit");
    assert!(records.windows(2).all(|w| w[0].seq < w[1].seq), "log out of seq order");
    db.shutdown();
}

/// `log_read_only()` is the `Health` mirror of the committer's flag
/// (no `cmdlog` mutex on the read): true while the log's fsync hits
/// ENOSPC with a durable ticket pending, false once space returns —
/// and the ticket resolves `Ok`, nothing acknowledged is lost.
#[test]
fn log_read_only_tracks_an_enospc_window_on_the_command_log() {
    let vfs = SimVfs::new(0xE05_10C);
    let mut config = EngineConfig::new(
        StrategyKind::Calc,
        1024,
        16,
        std::path::PathBuf::from("/sim/ckpts"),
    );
    config.vfs = Arc::new(vfs.clone());
    config.command_log_dir = Some(std::path::PathBuf::from("/sim/cmdlog"));
    config.workers = 2;
    let db = Database::open(config, registry()).unwrap();
    let put = |v: u64| set_u64(7, v);
    db.execute_durable(SET, put(1)).expect("healthy log");
    assert!(!db.log_read_only());

    vfs.set_sync_enospc(true);
    std::thread::scope(|s| {
        let writer = s.spawn(|| db.execute_durable(SET, put(2)));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !db.log_read_only() {
            assert!(Instant::now() < deadline, "read-only mode never published");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !writer.is_finished(),
            "no acknowledgement while the disk is full"
        );

        vfs.set_sync_enospc(false);
        let outcome = writer
            .join()
            .unwrap()
            .expect("ticket resolves Ok after the heal");
        assert!(matches!(outcome, TxnOutcome::Committed(_)));
    });
    // The heal is published before the acknowledgement is sent.
    assert!(!db.log_read_only());
    assert_eq!(db.health().get(Metric::log_enospc_entries), 1);
    db.shutdown();
}
