//! Deterministic crash-simulation harness for the CALC database.
//!
//! The paper's durability claims (§3: recovery from the newest durable
//! checkpoint plus command-log replay) are easy to state and hard to
//! test: the interesting failures live in the narrow windows between a
//! write, its fsync, a rename, and the parent-directory fsync that makes
//! the rename durable. This crate makes those windows enumerable.
//!
//! Ingredients:
//!
//! * [`calc_common::simfs::SimVfs`] — an in-memory filesystem tracking
//!   exactly which bytes and directory entries would survive a power
//!   loss, with one seeded fault injectable at any operation index
//!   (torn write, dropped fsync, crash before/after rename).
//! * [`model`] — a seeded workload generator and the serial reference
//!   model: the exact database state at every commit prefix.
//! * [`driver`] — [`driver::run_sim`] runs workload → crash → real
//!   recovery, then checks the oracle: the recovered store equals the
//!   reference model at some commit-consistent prefix `S`, with `S` at
//!   least the durability floor the run honestly established.
//!
//! Because every run is a pure function of its [`driver::SimSpec`], the
//! integration tests can *sweep*: fault-at-operation-N for every N in a
//! checkpoint cycle, every fault kind, every strategy. Reproduce any
//! reported failure with `SIM_SEED=<seed> cargo test -p calc-sim`.

#![warn(missing_docs)]

pub mod driver;
pub mod failover;
pub mod model;

pub use driver::{
    base_seed, run_sim, OracleViolation, SimReport, SimSpec, TransientPlan, Violation,
};
pub use failover::{run_failover, FailoverReport, FailoverSpec, FailoverViolation};
pub use model::{gen_op, model_at, Op};
