//! calc-server: a TCP front-end for the calc engine.
//!
//! The paper's motivating setting is a main-memory database serving live
//! transactions while CALC checkpoints asynchronously — this crate is
//! that serving path. It speaks a length-prefixed binary wire protocol
//! ([`protocol`]) over TCP, runs one handler thread per connection
//! ([`server`]), and acknowledges write verbs only after their commit's
//! group-commit batch has been fsynced (ack-after-fsync, via
//! [`calc_engine::Database::execute_durable`]); the group-commit
//! machinery itself lives in `calc_recovery::group_commit`.
//!
//! [`client`] is the matching blocking client, used by the examples, the
//! `perfbench` wire workloads, and the tests.

#![warn(missing_docs)]

pub mod client;
pub mod procs;
pub mod protocol;
pub mod server;

pub use client::{key_of, Client, ClientConfig, KvError, KvResult};
pub use server::{Server, ServerConfig};

/// Opens (or restarts) a calc-server engine over `dir`: checkpoints under
/// `dir/ckpts`, segmented command log under `dir/cmdlog`. If either holds
/// a file from a previous run, the engine restarts as the node's own
/// standby, drained and promoted ([`calc_engine::standby`]): checkpoint
/// chain loaded, log tail streamed and replayed, id and seq spaces sealed,
/// all before the engine starts serving, so every write acknowledged
/// before a crash is visible after restart. A log that cannot be read
/// fails the boot, and a typed `RecoveryError` stays reachable through the
/// error's `get_ref()`. `tune` must leave a command log configured.
///
/// The engine starts with no worker pool (`workers = 0`): every wire verb
/// runs its transaction on its connection's handler thread, so nothing
/// submits. A `tune` that sets `workers` gets a pool for its own
/// [`calc_engine::Database::submit`] calls.
pub fn open_or_recover(
    dir: &std::path::Path,
    mut tune: impl FnMut(&mut calc_engine::EngineConfig),
) -> std::io::Result<calc_engine::Database> {
    use calc_engine::standby::{Standby, StandbyConfig};
    use std::io;

    let mut config = calc_engine::EngineConfig::new(
        calc_engine::StrategyKind::Calc,
        1 << 20,
        64,
        dir.join("ckpts"),
    );
    config.command_log_dir = Some(dir.join("cmdlog"));
    config.workers = 0;
    tune(&mut config);
    let log_dir = config.command_log_dir.clone().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "a restartable engine needs a command log")
    })?;
    let vfs = config.vfs.clone();
    let holds_files = |dir: &std::path::Path| match vfs.read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        listed => listed.map(|files| !files.is_empty()),
    };
    if !(holds_files(&config.checkpoint_dir)? || holds_files(&log_dir)?) {
        return calc_engine::Database::open(config, procs::registry());
    }
    // A node that crashed before its log directory existed restarts from
    // its checkpoints alone: its standby tails an empty log.
    vfs.create_dir_all(&log_dir)?;
    let mut standby = StandbyConfig::new(
        config.strategy,
        config.store.clone(),
        config.checkpoint_dir.clone(),
        log_dir,
    );
    standby.vfs = vfs;
    standby.checkpoint_threads = config.checkpoint_threads;
    Standby::open(standby, procs::registry())?
        .promote()?
        .into_database(config)
}
