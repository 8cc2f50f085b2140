//! Transaction substrate for the CALC checkpointing database.
//!
//! The paper's evaluation system executes transactions as stored
//! procedures over a pool of worker threads, "using a pessimistic
//! concurrency control protocol to ensure serializability ... a
//! deadlock-free variant of strict two-phase locking" (§4). This crate
//! provides that substrate:
//!
//! * [`locks`] — a sharded lock manager with shared/exclusive modes and
//!   FIFO queuing. Deadlock freedom comes from ordered acquisition:
//!   procedures pre-declare their read/write sets, and
//!   [`locks::LockManager::acquire`] sorts and deduplicates the request
//!   before acquiring, so no cycle can form.
//! * [`commitlog`] — the commit log: "each transaction commits by
//!   atomically appending a commit token to this log before releasing any
//!   of its locks" (§2.2). Phase-transition tokens are appended to the same
//!   log, which is what lets CALC determine unambiguously which phase the
//!   system was in when any transaction committed. It is a sequencer and
//!   stores nothing: the *command log* (VoltDB-style, §1) is
//!   `calc-recovery`'s segment directory, and a committer enqueues its
//!   [`commitlog::CommitRecord`] there from inside the append's critical
//!   section, so the durable log's byte order is commit order.
//! * [`proc`] — the stored-procedure framework: pre-declared lock sets, a
//!   [`proc::TxnOps`] data interface, and a registry for replay.

#![warn(missing_docs)]

pub mod commitlog;
pub mod locks;
pub mod proc;

pub use commitlog::{CommitLog, CommitRecord, PhaseStamp};
pub use locks::{LockManager, LockMode, LockSetGuard};
pub use proc::{AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps};
