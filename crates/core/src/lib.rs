//! CALC — Checkpointing Asynchronously using Logical Consistency.
//!
//! This crate is the paper's primary contribution (§2): asynchronous,
//! transaction-consistent checkpointing of a main-memory database using
//! **virtual points of consistency** — no quiescing, no database log, no
//! full multi-versioning, at most two copies of any record, and usually
//! far fewer.
//!
//! * [`phase`] — the five-phase controller (REST → PREPARE → RESOLVE →
//!   CAPTURE → COMPLETE) with active-transaction draining; transitions are
//!   linearized against commits through the commit log.
//! * [`strategy`] — the [`strategy::CheckpointStrategy`] trait that the
//!   engine executes transactions through; CALC and every baseline
//!   implement it.
//! * [`cycle`] — the cycle scaffold the strategies share: tombstone
//!   buffers, the one capture loop, live-version rollback.
//! * [`calc`] — the CALC algorithm itself ([`calc::CalcStrategy`]), in
//!   both full and partial (pCALC, §2.3) modes.
//! * [`mod@file`] — the checkpoint file format: length-prefixed records with
//!   tombstones in CRC-32-checked frames, optionally block-compressed
//!   ([`codec`]), and a CRC-32-sealed footer (a crash mid-capture leaves a
//!   detectably-invalid file).
//! * [`codec`] — block codecs for a part's frames (in-tree RLE, or
//!   `none`: the raw records).
//! * [`throttle`] — a token-bucket byte throttle modelling the evaluation
//!   machine's 100–150 MB/s disk (Appendix A notes checkpoint duration is
//!   disk-bandwidth-bound; the throttle reproduces that regime).
//! * [`manifest`] — checkpoint directory management: checkpoints of N
//!   part files committed atomically by one manifest rename, a catalog
//!   of published cycles, one deep verification with whole-cycle
//!   quarantine, garbage collection.
//! * [`partition`] — the shard-parallel capture layer: one scan domain
//!   split into contiguous stripes, written by a pool of capture threads,
//!   with all-or-nothing abort semantics.
//! * [`merge`] — background collapsing of partial checkpoints into a new
//!   full checkpoint (§2.3.1), bounding recovery time.

#![warn(missing_docs)]

pub mod calc;
pub mod codec;
pub mod cycle;
pub mod file;
pub mod manifest;
pub mod merge;
pub mod partition;
pub mod phase;
pub mod strategy;
pub mod throttle;

pub use calc::CalcStrategy;
pub use codec::Codec;
pub use file::{CheckpointKind, CheckpointReader, CheckpointWriter, PartSummary, RecordEntry};
pub use manifest::{CheckpointClaim, CheckpointDir, CheckpointMeta, PartMeta};
pub use partition::{capture_parts, ShardPartition};
pub use phase::PhaseController;
pub use strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoImage, UndoRec, WriteKind,
    WriteRec,
};
pub use throttle::Throttle;
