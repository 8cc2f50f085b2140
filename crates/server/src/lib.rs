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

/// Opens (or recovers) a calc-server engine over `dir`: checkpoints under
/// `dir/ckpts`, segmented command log under `dir/cmdlog`. If durable
/// state exists from a previous run, it is recovered — checkpoint chain
/// loaded, log tail replayed — before the engine starts serving, so every
/// write acknowledged before a crash is visible after restart.
pub fn open_or_recover(
    dir: &std::path::Path,
    mut tune: impl FnMut(&mut calc_engine::EngineConfig),
) -> std::io::Result<calc_engine::Database> {
    use calc_common::vfs::OsVfs;

    let ckpt_dir = dir.join("ckpts");
    let log_dir = dir.join("cmdlog");
    // Read surviving log records BEFORE the engine opens: opening creates
    // a fresh active segment (never appending into survivors), and replay
    // wants only the pre-crash records.
    // A missing directory is a cold start; a log that exists but cannot
    // be read must fail the boot — serving without it would silently drop
    // acknowledged writes.
    let commands = if log_dir.is_dir() {
        calc_recovery::read_dir_logs(&OsVfs, &log_dir)?
    } else {
        Vec::new()
    };
    let had_state = !commands.is_empty()
        || std::fs::read_dir(&ckpt_dir).map(|mut d| d.next().is_some()).unwrap_or(false);

    let mut config = calc_engine::EngineConfig::new(
        calc_engine::StrategyKind::Calc,
        1 << 20,
        64,
        ckpt_dir,
    );
    config.command_log_dir = Some(log_dir);
    tune(&mut config);
    let db = calc_engine::Database::open(config, procs::registry())?;
    if had_state {
        // The typed `RecoveryError` stays reachable through `get_ref()`.
        db.recover(&commands).map_err(std::io::Error::other)?;
    }
    Ok(db)
}
