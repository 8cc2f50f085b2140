//! Helpers shared by the engine's integration tests.
#![allow(dead_code)] // each test binary uses its own subset

use std::path::{Path, PathBuf};

use calc_engine::{Database, EngineConfig, StrategyKind};
use calc_txn::commitlog::CommitRecord;

/// A config over a fresh scratch directory: checkpoints under
/// `<base>/ckpts`, the durable command log under `<base>/cmdlog`.
/// Returns the config and the log directory.
pub fn logged_config(kind: StrategyKind, records: usize, name: &str) -> (EngineConfig, PathBuf) {
    let base = calc_testkit::temp_dir(name);
    let log_dir = base.join("cmdlog");
    let mut config = EngineConfig::new(kind, records, 16, base.join("ckpts"));
    config.command_log_dir = Some(log_dir.clone());
    (config, log_dir)
}

/// Every command the engine has durably logged so far — the log that
/// production recovery replays: flush the group committer, then read the
/// segments back.
pub fn logged_commands(db: &Database, log_dir: &Path) -> Vec<CommitRecord> {
    db.sync_command_log().expect("flush command log");
    calc_recovery::read_dir_logs(db.checkpoint_dir().vfs().as_ref(), log_dir)
        .expect("read command log")
}
