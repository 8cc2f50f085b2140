//! Shared primitives for the CALC checkpointing database.
//!
//! This crate contains the low-level, dependency-free building blocks that
//! every other crate in the workspace uses:
//!
//! * [`bitvec`] — atomic bit vectors, including the polarity-swapping
//!   variant that implements the paper's `SwapAvailableAndNotAvailable`
//!   trick (§2.2.5): after a checkpoint cycle every `stable_status` bit is
//!   left in the *available* state, and instead of scanning the whole
//!   vector to reset it, the *meaning* of 0/1 is flipped.
//! * [`crc`] — CRC-32 (IEEE), used to checksum checkpoint files so that a
//!   crash mid-capture leaves a detectably-invalid file.
//! * [`hist`] — a log-bucketed latency histogram (HDR-style) used to
//!   produce the latency CDFs of Figure 5.
//! * [`types`] — `Key`, record values, and small shared identifiers.
//! * [`rng`] — a tiny deterministic splitmix64 generator used where
//!   reproducibility across runs matters more than statistical quality.
//! * [`backoff`] — capped exponential retry backoff with deterministic
//!   (seeded) jitter, used by the supervised checkpoint service.
//! * [`load`] — cheap EWMA load signals ([`load::LoadSignal`]) and the
//!   bounded admission gate ([`load::Gate`]) behind overload shedding
//!   and load-aware checkpoint pacing.
//! * [`vfs`] — the filesystem trait everything durable is written
//!   through, with the [`vfs::OsVfs`] passthrough.
//! * [`simfs`] — a deterministic fault-injecting in-memory filesystem
//!   ([`simfs::SimVfs`]) for crash-recovery testing.
//! * [`perturb`] — seeded schedule-jitter points for concurrency stress
//!   (free when disabled; see `calc-conform`).
//! * [`mutation`] — test-only seeded-bug switches (behind the
//!   `mutation-hooks` feature) proving the conformance oracle has teeth.

#![warn(missing_docs)]

pub mod backoff;
pub mod bitvec;
pub mod crc;
pub mod hist;
pub mod load;
#[cfg(feature = "mutation-hooks")]
pub mod mutation;
pub mod perturb;
pub mod phase;
pub mod rng;
pub mod simfs;
pub mod types;
pub mod vfs;

pub use backoff::Backoff;
pub use bitvec::{AtomicBitVec, PolarityBitVec};
pub use hist::Histogram;
pub use load::{Gate, LoadLevel, LoadSignal, Permit};
pub use phase::Phase;
pub use simfs::{DirCrashMode, FaultKind, FaultSpec, OpCounts, SimVfs, TransientKind, TransientSpec};
pub use types::{CommitSeq, Key, TxnId, Value};
pub use vfs::{OsVfs, Vfs, VfsFile, VfsRead};
