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
//! hash-table storage engine as CALC — `calc_storage::Store`, with their
//! own payloads (keeping IPP's contiguous-copies cache optimization) — so
//! the comparison is apples-to-apples; every baseline's write hooks are
//! one store call each (`apply`). All four have partial variants using the
//! same dirty-tracking machinery as pCALC.

#![warn(missing_docs)]

/// Expands, inside a baseline's `impl CheckpointStrategy`, to what the four
/// baselines share as it is: a transaction stamped from the commit log
/// with nothing to undo at its end, checkpoint ids resumed into
/// `self.upcoming`, and failed cycles counted in `self.aborted`.
macro_rules! baseline_methods {
    () => {
        fn txn_begin(&self) -> calc_core::strategy::TxnToken {
            calc_core::strategy::TxnToken {
                stamp: self.log.current_stamp(),
                writes: Vec::new(),
            }
        }

        fn txn_end(&self, _token: calc_core::strategy::TxnToken) {}

        fn resume_checkpoint_ids(&self, next_id: u64) {
            self.upcoming
                .fetch_max(next_id, std::sync::atomic::Ordering::AcqRel);
        }

        fn aborted_cycles(&self) -> u64 {
            self.aborted.load(std::sync::atomic::Ordering::Relaxed)
        }
    };
}

mod apply;
pub mod fuzzy;
pub mod ipp;
pub mod naive;
pub mod zigzag;

pub use fuzzy::FuzzyStrategy;
pub use ipp::IppStrategy;
pub use naive::NaiveStrategy;
pub use zigzag::ZigzagStrategy;
