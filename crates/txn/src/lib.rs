//! Transaction substrate for the CALC checkpointing database.
//!
//! The paper's evaluation system executes transactions as stored
//! procedures over a pool of worker threads, "using a pessimistic
//! concurrency control protocol to ensure serializability ... a
//! deadlock-free variant of strict two-phase locking" (§4). This crate
//! provides that substrate:
//!
//! * [`locks`] — `LockManager`, a thin key-addressed wrapper over
//!   `calc_common::lockword` kept for perfbench's lock probe. The engine
//!   does not use it: it locks a transaction's declared keys in the lock
//!   words of its store's slot table, in word order, so no wait cycle can
//!   form.
//! * [`commitlog`] — the commit log: "each transaction commits by
//!   atomically appending a commit token to this log before releasing any
//!   of its locks" (§2.2). Phase-transition tokens are appended to the same
//!   log, which is what lets CALC determine unambiguously which phase the
//!   system was in when any transaction committed. It is a sequencer and
//!   stores nothing: the *command log* (VoltDB-style, §1) is
//!   `calc-recovery`'s segment directory, and a committer enqueues its
//!   [`commitlog::CommitRecord`] there from inside the append's critical
//!   section, so the durable log's byte order is commit order.
//! * [`proc`] — the stored-procedure framework: pre-declared lock sets
//!   under the covering-lock rule, a [`proc::TxnOps`] data interface
//!   whose reads borrow (`get_with`), and a registry for replay.

#![warn(missing_docs)]

pub mod commitlog;
pub mod locks;
pub mod proc;

pub use commitlog::{CommitLog, CommitRecord, PhaseStamp};
pub use locks::{LockManager, LockMode, LockSetGuard};
pub use proc::{AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps};
