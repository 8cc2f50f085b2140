//! Benchmark harness reproducing the paper's evaluation (§5).
//!
//! * [`runner`] — the generic experiment runner: opens a database with a
//!   chosen checkpointing strategy, drives it with a workload (closed-loop
//!   at peak or open-loop at a target rate), fires checkpoints on a
//!   schedule, and collects the throughput/memory timeline, latency CDF,
//!   and per-checkpoint stats.
//! * [`figures`] — one function per paper figure (2a…8), each emitting a
//!   CSV under `results/` and a printed table shaped like the paper's.
//! * [`report`] — CSV and aligned-table output helpers.
//!
//! This is the paper-figure harness only; performance claims about the
//! system cite `perfbench/` (end-to-end rows and per-layer metrics).

#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod runner;

pub use runner::{LoadMode, RunResult, RunSpec, WorkloadSpec};
