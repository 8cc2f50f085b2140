//! Comparison checkpointing algorithms from the paper's evaluation (§4.1).
//!
//! Each baseline implements [`calc_core::strategy::CheckpointStrategy`], so
//! the engine can run any of them interchangeably with CALC:
//!
//! * [`naive`] — **Naive Snapshot** (§4.1.1): exclusive-lock the whole
//!   database (quiesce), scan, write. Throughput drops to zero for the
//!   entire checkpoint; the checkpoint itself is fast because all resources
//!   serve it.
//! * [`fuzzy`] — **Fuzzy checkpointing** (§4.1.2): quiesce only long
//!   enough to persist the dirty-record table, then flush dirty records
//!   asynchronously. *Not transaction-consistent* — the paper's point is
//!   that without a database log this scheme cannot produce a recoverable
//!   consistent state; it is here as the familiar performance comparison.
//!   `pFuzzy` (the traditional form) writes only dirty records; full Fuzzy
//!   additionally maintains an in-memory latest-snapshot copy it merges
//!   into.
//! * [`ipp`] — **Interleaved Ping-Pong** (§4.1.3): triplicated data
//!   (state + odd/even arrays with dirty bits, stored contiguously per
//!   record), physical points of consistency, and a background merge
//!   into an in-memory last-consistent-snapshot (full IPP's 4th copy).
//! * [`zigzag`] — **Zig-Zag** (§4.1.4): two copies per record plus `MR`/
//!   `MW` bit vectors; `MW[k] = ¬MR[k]` at each physical point of
//!   consistency redirects post-point writes away from the copy the
//!   asynchronous checkpointer reads.
//!
//! Per the paper, IPP and Zig-Zag are implemented over the same
//! hash-table storage engine as CALC (keeping IPP's contiguous-copies
//! cache optimization) so the comparison is apples-to-apples, and all
//! four have partial variants using the same dirty-tracking machinery as
//! pCALC.
//!
//! Beyond the paper's four comparison points, [`mvcc`] implements the
//! §2.1 design-space alternative — **full multi-versioning** — whose
//! memory cost is the reason CALC uses precise *partial* multi-versioning
//! instead.

#![warn(missing_docs)]

pub mod fuzzy;
pub mod ipp;
mod live;
pub mod mvcc;
pub mod naive;
pub mod zigzag;

pub use fuzzy::FuzzyStrategy;
pub use ipp::IppStrategy;
pub use mvcc::MvccStrategy;
pub use naive::NaiveStrategy;
pub use zigzag::ZigzagStrategy;
