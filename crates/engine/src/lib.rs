//! Execution engine: the paper's evaluation system (§4).
//!
//! "We implemented a memory-resident key-value store with full
//! transactional support. Transactions ... are executed by a pool of
//! worker threads, using a pessimistic concurrency control protocol to
//! ensure serializability \[and\] a deadlock-free variant of strict
//! two-phase locking."
//!
//! * [`config`] — [`config::EngineConfig`] and [`config::StrategyKind`]
//!   (which of the paper's six algorithms to run, full or partial).
//! * [`db`] — the [`db::Database`] facade: boot and resume, the
//!   submission API, the admission gate (the quiesce mechanism baselines
//!   need for physical points of consistency), checkpoint triggering,
//!   restart recovery and shutdown.
//! * `executor` — the paper's worker pool: one submission queue, workers
//!   that take each request's declared lock set, shutdown by drain.
//! * `commit` — the transaction body every request runs: strategy hooks,
//!   the commit-token critical section, undo on abort.
//! * `cycle` — around a checkpoint cycle: background merging of partial
//!   checkpoints, retention, emergency retention on a full log disk.
//! * [`metrics`] — commit/abort counters, a submission-to-commit latency
//!   histogram (queueing included, as Figure 5 requires), the
//!   [`metrics::Sampler`] that records throughput/memory timelines for
//!   the figures, and [`metrics::Health`] — the one declared table of
//!   engine counters, gauges and flags that `HEALTH`/`STATS` print.
//! * [`service`] — the supervised checkpoint daemon: cadence, error
//!   classification, backoff retries, and degraded mode.
//! * [`standby`] — the warm standby, and restart: a restart is the node's
//!   own standby, drained and promoted into a serving [`db::Database`].

#![warn(missing_docs)]

mod commit;
pub mod config;
mod cycle;
pub mod db;
mod executor;
pub mod metrics;
#[cfg(feature = "conform")]
pub mod recorder;
pub mod service;
pub mod standby;

pub use config::{EngineConfig, ExecutorMode, StrategyKind};
pub use db::{Database, SyncError, TxnOutcome};
pub use metrics::{
    Health, Metric, MetricDesc, MetricKind, MetricList, MetricValue, Metrics, Sampler, TimelinePoint,
};
pub use service::{classify, CheckpointService, ErrorClass, ServiceTuning};
