//! Crash recovery (§3 of the paper).
//!
//! Three recovery modes, matching the paper's application classes (§1):
//!
//! 1. **Checkpoint-only** (NoSQL / K-safety use cases): load the most
//!    recent complete checkpoint; transactions committed after it are
//!    lost, bounded by the checkpoint frequency.
//! 2. **Checkpoint + deterministic replay** (command logging, VoltDB
//!    style): after loading, replay the command log from the checkpoint's
//!    virtual-point-of-consistency watermark. Stored procedures are
//!    deterministic functions of their parameters, so replay in commit
//!    order — per key, in lanes that follow the lock footprint — reproduces
//!    the exact pre-crash state.
//! 3. **pCALC**: if the newest checkpoint is partial, first collapse the
//!    recovery chain (newest full + newer partials, §3.2) — the
//!    runtime-vs-recovery-time tradeoff Figure 4 quantifies.
//!
//! None of CALC's in-memory structures need cleanup on recovery: "the
//! 'stable' record versions, the stable status bit vector, etc., get wiped
//! out along with the rest of volatile memory upon a crash" — recovery
//! always starts from a freshly-initialized strategy.
//!
//! [`logfile`] adds the durable command log the replay mode depends on: an
//! append-only directory of segment files of `(seq, proc, params)` records
//! with group-commit flushing, CRC-protected per record so a torn tail is
//! truncated, not trusted.

#![warn(missing_docs)]

pub mod group_commit;
mod lanes;
pub mod logfile;
pub mod replay;
pub mod tailer;

pub use group_commit::{
    BatchObserver, DurabilityTicket, GroupCommitConfig, GroupCommitter, LogBackend, SyncError,
};
pub use lanes::LANE_BATCH;
pub use logfile::{read_dir_logs, truncate_segments_below, SegmentedLogWriter, TruncateStats};
pub use replay::{
    apply_commit, recover, recover_checkpoint_only, replay_feed, RecoveryError, RecoveryOutcome,
};
pub use tailer::{LogTailer, TailPoll, TailStatus};
