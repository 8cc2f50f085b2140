//! Storage engines for the CALC checkpointing database.
//!
//! The paper's evaluation system is a memory-resident key-value store. Each
//! checkpointing strategy imposes its own physical record layout, so this
//! crate provides one store per layout plus the shared machinery:
//!
//! * [`slots`] — the **slot table** all three stores embed: sharded
//!   key → slot index, high-water/free-list allocator, record count and
//!   the insert-publication protocol. A store adds only its slot
//!   contents.
//! * [`dual`] — the **dual-version store** used by CALC/pCALC (one live
//!   version, one optional stable version per record, plus the
//!   polarity-swapping `stable_status` bit vector of §2.2) and by the Naive
//!   and Fuzzy baselines (which only use the live version).
//! * [`triple`] — the **triple-copy store** used by Interleaved Ping-Pong
//!   (application state + `odd` + `even` arrays with per-copy dirty bits,
//!   stored contiguously per record for cache locality, §4.1.3), plus the
//!   in-memory "last consistent snapshot" that full-IPP merges into (the
//!   4th copy of Figure 6).
//! * [`zigzag`] — the **dual-copy store** used by Zig-Zag (`AS[k]0/1` plus
//!   the `MR`/`MW` bit vectors, §4.1.4).
//! * [`pool`] — the pre-allocated buffer pool for stable record versions
//!   (§5.1.6: avoids alloc/free churn during checkpoint periods).
//! * [`dirty`] — the dirty-key tracker §2.3 settles on (one bit per
//!   slot), double-buffered so the inactive side can be cleared off the
//!   critical path.
//! * [`mem`] — atomic memory accounting, feeding Figure 6.
//!
//! Synchronization model: each record slot's version data sits behind its
//! own `parking_lot::Mutex` (1 byte of overhead). The checkpointer thread
//! accesses slots without acquiring *logical* (transaction) locks — that
//! asynchrony is the point of the paper — and the per-slot mutex makes the
//! paper's benign races sound in Rust. Critical sections are a few dozen
//! instructions. Every strategy pays the identical cost, so the *relative*
//! overheads the paper measures are preserved.

#![warn(missing_docs)]

pub mod dirty;
pub mod dual;
pub mod mem;
pub mod pool;
pub mod slots;
pub mod triple;
pub mod zigzag;

pub use dirty::BitVecTracker;
pub use dual::{DualSlotGuard, DualVersionStore, StoreConfig};
pub use mem::MemoryStats;
pub use pool::BufferPool;
pub use slots::SlotTable;
pub use triple::TripleStore;
pub use zigzag::ZigzagStore;

/// Index of a record slot within a store. Slot indices are dense (0..capacity),
/// which is what lets the per-record bit vectors of the paper work on top of
/// a hash-table keyspace.
pub type SlotId = u32;
