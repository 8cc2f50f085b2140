//! Engine metrics: counters, latency histogram, checkpointer health, and
//! timeline sampling.

use std::borrow::Cow;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use calc_common::hist::Histogram;
use calc_core::strategy::CheckpointStrategy;

use crate::service::ErrorClass;

/// Shared engine counters. Latency is measured from *submission* to
/// commit, so queueing during quiesce periods shows up — exactly what
/// Figure 5's CDFs require.
#[derive(Debug, Default)]
pub struct Metrics {
    committed: AtomicU64,
    aborted: AtomicU64,
    /// Submission-to-commit latency in nanoseconds.
    pub latency: Histogram,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed transaction and its latency.
    #[inline]
    pub fn record_commit(&self, latency: Duration) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency.as_nanos() as u64);
    }

    /// Records an aborted transaction.
    #[inline]
    pub fn record_abort(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Committed count.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Aborted count.
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }
}

/// What a [`Metric`] measures, which fixes how it is written and printed.
#[derive(Clone, Copy, Debug)]
pub enum MetricKind {
    /// Monotone lifetime total.
    Counter,
    /// Last-value slot.
    Gauge,
    /// Boolean state, printed `true`/`false`.
    Flag,
}

/// One metric's declaration, as written in the [`Health`] table.
#[derive(Clone, Copy, Debug)]
pub struct MetricDesc {
    /// Key on the wire and in [`Health::values`].
    pub name: &'static str,
    /// Counter, gauge or flag.
    pub kind: MetricKind,
    /// What one unit of the value is.
    pub unit: &'static str,
    /// One-line description.
    pub help: &'static str,
}

/// A metric's current value; `Display` is its wire format.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter or gauge.
    Int(u64),
    /// Flag, printed `true`/`false`.
    Flag(bool),
    /// Derived ratio, printed with two decimals.
    Ratio(f64),
    /// Enumerated state, printed by name.
    Text(&'static str),
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Int(v) => write!(f, "{v}"),
            MetricValue::Flag(v) => write!(f, "{v}"),
            MetricValue::Ratio(v) => write!(f, "{v:.2}"),
            MetricValue::Text(v) => f.write_str(v),
        }
    }
}

/// Ordered `(name, value)` pairs — what `HEALTH`, `STATS` and tests read.
pub type MetricList = Vec<(Cow<'static, str>, MetricValue)>;

/// Declares [`Health`]'s table: `[#[getter]] name: Kind, "unit", "help";`
/// per metric. The name is the enum variant, the wire key and (with
/// `#[getter]`) the typed accessor; the cell, its zero initialiser and its
/// exposition line all follow from the one line.
macro_rules! health_metrics {
    ($( $(#[$getter:ident])? $name:ident: $kind:ident, $unit:literal, $help:literal; )*) => {
        /// A cell of [`Health`]'s table. The variant name is the wire key.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug)]
        pub enum Metric {
            $( #[doc = $help] $name, )*
        }

        impl Metric {
            /// Every declared metric, in declaration (= exposition) order.
            pub const ALL: &'static [Metric] = &[$( Metric::$name ),*];

            /// This metric's declaration.
            pub const fn desc(self) -> MetricDesc {
                match self {
                    $( Metric::$name => MetricDesc {
                        name: stringify!($name),
                        kind: MetricKind::$kind,
                        unit: $unit,
                        help: $help,
                    }, )*
                }
            }
        }

        impl Health {
            $( $( health_metrics!(@$getter $name $kind $help); )? )*
        }
    };
    (@getter $name:ident Flag $help:literal) => {
        #[doc = $help]
        pub fn $name(&self) -> bool {
            self.get(Metric::$name) != 0
        }
    };
    (@getter $name:ident $kind:ident $help:literal) => {
        #[doc = $help]
        pub fn $name(&self) -> u64 {
            self.get(Metric::$name)
        }
    };
}

health_metrics! {
    // --- checkpoint cycles, merges, retention ---
    #[getter] degraded: Flag, "state", "Checkpointing is failing; commits continue and recovery replays a longer log.";
    #[getter] degraded_entries: Counter, "transitions", "Times degraded mode has been entered.";
    #[getter] degraded_exits: Counter, "transitions", "Times degraded mode has been exited (self-heals).";
    #[getter] consecutive_failures: Gauge, "cycles", "Current streak of failed checkpoint cycles.";
    #[getter] checkpoint_failures: Counter, "cycles", "Failed checkpoint cycles, lifetime total.";
    #[getter] merge_failures: Counter, "merges", "Background partial-checkpoint merges that failed.";
    last_checkpoint_parts: Gauge, "files", "Part files written by the most recent checkpoint cycle.";
    #[getter] last_checkpoint_bytes: Gauge, "bytes", "Disk bytes written by the most recent checkpoint cycle.";
    #[getter] checkpoints_pruned: Counter, "checkpoints", "Superseded checkpoints pruned by retention, lifetime total.";
    #[getter] log_segments_truncated: Counter, "segments", "Command-log segments truncated by retention, lifetime total.";
    #[getter] log_bytes_truncated: Counter, "bytes", "Command-log bytes freed by retention, lifetime total.";
    #[getter] retention_failures: Counter, "passes", "Retention passes that failed (the cycle had already published).";
    // --- group commit, server connections, log ENOSPC ---
    #[getter] commit_batches: Counter, "batches", "Group-commit batches fsynced, lifetime total.";
    #[getter] commit_batch_records: Counter, "records", "Commit records made durable across all batches.";
    commit_batch_dwell_us: Counter, "us", "Time batches spent open (opener received to fsync started), summed; mean dwell is this over commit_batches.";
    commit_wakeups: Counter, "wakeups", "Times a committer had to wake the group-commit sync thread: at most once per batch for fire-and-forget commits, at most once per commit when each is waited on.";
    total_connections: Counter, "connections", "Server connections accepted, lifetime total.";
    closed_connections: Counter, "connections", "Server connections closed, lifetime total.";
    log_read_only: Flag, "state", "The command log hit ENOSPC and writes are shed while the group committer retries.";
    log_enospc_entries: Counter, "transitions", "Times the command log entered read-only degraded mode.";
    emergency_retention_passes: Counter, "passes", "Emergency retention passes triggered by ENOSPC on the command log.";
}

/// Sentinel for "no timestamp recorded" in [`Health`]'s nanosecond slots.
const NEVER: u64 = u64::MAX;

/// Engine health, shared between the checkpoint worker (every cycle,
/// merge and retention pass), the group committer, a server front-end,
/// and observers.
///
/// Every number is a cell of the table declared above: recorded with
/// [`Health::add`]/[`Health::set`], read with [`Health::get`] or a
/// generated getter, listed by [`Health::values`]. Hand-written here is
/// only what is logic — degraded-mode entry/exit, the lazy cycle watchdog
/// (computed by readers, not a timer thread), last-error strings, and
/// values derived from several cells.
pub struct Health {
    started: Instant,
    degraded_after: u64,
    watchdog: Duration,
    cells: [AtomicU64; Metric::ALL.len()],
    /// Per-batch fsync latency in nanoseconds.
    fsync_latency: Histogram,
    /// Class + message of the last failed checkpoint cycle.
    last_error: Mutex<Option<(ErrorClass, String)>>,
    last_merge_error: Mutex<Option<String>>,
    /// Nanos-since-start of the last successfully published checkpoint.
    last_success_nanos: AtomicU64,
    /// Nanos-since-start when the in-flight cycle began ([`NEVER`] when
    /// no cycle is running) — the cycle watchdog's reference point.
    cycle_started_nanos: AtomicU64,
}

impl Health {
    /// Fresh health state. `degraded_after` consecutive cycle failures
    /// (or one fatal failure) enter degraded mode; a cycle running longer
    /// than `watchdog` is reported stalled.
    pub fn new(degraded_after: u32, watchdog: Duration) -> Self {
        Health {
            started: Instant::now(),
            degraded_after: degraded_after.max(1) as u64,
            watchdog,
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
            fsync_latency: Histogram::new(),
            last_error: Mutex::new(None),
            last_merge_error: Mutex::new(None),
            last_success_nanos: AtomicU64::new(NEVER),
            cycle_started_nanos: AtomicU64::new(NEVER),
        }
    }

    #[inline]
    fn cell(&self, m: Metric) -> &AtomicU64 {
        &self.cells[m as usize]
    }

    /// Adds `n` to a counter: one relaxed RMW on a cell addressed by a
    /// compile-time constant.
    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        self.cell(m).fetch_add(n, Ordering::Relaxed);
    }

    /// Stores a gauge's new value.
    #[inline]
    pub fn set(&self, m: Metric, v: u64) {
        self.cell(m).store(v, Ordering::Relaxed);
    }

    /// Reads a cell (flags as 0/1). Acquire pairs with the Release/AcqRel
    /// writes of the flags and the failure streak; for plain counters it
    /// costs nothing extra.
    pub fn get(&self, m: Metric) -> u64 {
        self.cell(m).load(Ordering::Acquire)
    }

    /// Every table cell in declaration order, then the derived values
    /// (`avg_batch_size`, `fsync_p99_us`, `active_connections`).
    pub fn values(&self) -> MetricList {
        let mut out: MetricList = Metric::ALL
            .iter()
            .map(|&m| {
                let (desc, v) = (m.desc(), self.get(m));
                let value = match desc.kind {
                    MetricKind::Flag => MetricValue::Flag(v != 0),
                    MetricKind::Counter | MetricKind::Gauge => MetricValue::Int(v),
                };
                (Cow::Borrowed(desc.name), value)
            })
            .collect();
        out.push(("avg_batch_size".into(), MetricValue::Ratio(self.avg_batch_size())));
        out.push(("fsync_p99_us".into(), MetricValue::Int(self.fsync_p99_us())));
        out.push(("active_connections".into(), MetricValue::Int(self.active_connections())));
        out
    }

    fn now_nanos(&self) -> u64 {
        // Saturate far below NEVER; ~584 years of uptime before wrap.
        self.started.elapsed().as_nanos().min((NEVER - 1) as u128) as u64
    }

    /// Time elapsed since the instant recorded in `slot`, if any.
    fn since(&self, slot: &AtomicU64) -> Option<Duration> {
        match slot.load(Ordering::Acquire) {
            NEVER => None,
            n => Some(self.started.elapsed().saturating_sub(Duration::from_nanos(n))),
        }
    }

    // --- checkpoint cycles ---

    /// A checkpoint cycle is starting (arms the watchdog).
    pub fn cycle_started(&self) {
        self.cycle_started_nanos
            .store(self.now_nanos(), Ordering::Release);
    }

    /// The in-flight cycle published successfully: resets the failure
    /// streak and exits degraded mode (self-heal).
    pub fn cycle_succeeded(&self) {
        self.last_success_nanos
            .store(self.now_nanos(), Ordering::Release);
        self.cycle_started_nanos.store(NEVER, Ordering::Release);
        self.cell(Metric::consecutive_failures)
            .store(0, Ordering::Release);
        if self.cell(Metric::degraded).swap(0, Ordering::AcqRel) != 0 {
            self.add(Metric::degraded_exits, 1);
        }
    }

    /// The in-flight cycle failed. Enters degraded mode when the streak
    /// reaches the threshold, or immediately on a fatal error. Returns
    /// `true` if this failure newly entered degraded mode.
    pub fn cycle_failed(&self, class: ErrorClass, err: &io::Error) -> bool {
        self.cycle_started_nanos.store(NEVER, Ordering::Release);
        let streak = self
            .cell(Metric::consecutive_failures)
            .fetch_add(1, Ordering::AcqRel)
            + 1;
        self.add(Metric::checkpoint_failures, 1);
        *self.last_error.lock() = Some((class, err.to_string()));
        if (class == ErrorClass::Fatal || streak >= self.degraded_after)
            && self.cell(Metric::degraded).swap(1, Ordering::AcqRel) == 0
        {
            self.add(Metric::degraded_entries, 1);
            return true;
        }
        false
    }

    /// Class and message of the most recent cycle failure.
    pub fn last_error(&self) -> Option<(ErrorClass, String)> {
        self.last_error.lock().clone()
    }

    /// Time since the last successfully published checkpoint (`None` if
    /// none has ever published) — the recovery-replay-length proxy.
    pub fn time_since_last_success(&self) -> Option<Duration> {
        self.since(&self.last_success_nanos)
    }

    /// Watchdog: `true` while an in-flight cycle has been running longer
    /// than the configured budget. Distinguishes "cycles failing fast"
    /// (degraded mode, retries in progress) from "a cycle is wedged and
    /// nothing is being retried at all".
    pub fn stalled(&self) -> bool {
        self.since(&self.cycle_started_nanos)
            .is_some_and(|d| d > self.watchdog)
    }

    /// A background partial-checkpoint merge failed (it will be retried
    /// at the next merge trigger).
    pub fn record_merge_failure(&self, err: &io::Error) {
        self.add(Metric::merge_failures, 1);
        *self.last_merge_error.lock() = Some(err.to_string());
    }

    /// Message of the most recent merge failure.
    pub fn last_merge_error(&self) -> Option<String> {
        self.last_merge_error.lock().clone()
    }

    // --- group commit & server connections ---

    /// Records one successful group-commit batch: how many commit records
    /// it made durable, how long it stayed open before its fsync started,
    /// and how long the fsync took. Fed by the engine's
    /// [`calc_recovery::GroupCommitter`] batch observer.
    pub fn record_commit_batch(&self, records: u64, dwell: Duration, fsync: Duration) {
        self.add(Metric::commit_batches, 1);
        self.add(Metric::commit_batch_records, records);
        self.add(Metric::commit_batch_dwell_us, dwell.as_micros() as u64);
        self.fsync_latency.record(fsync.as_nanos() as u64);
    }

    /// Mean records per fsync — the amortization factor group commit
    /// achieves (1.0 means every commit paid its own fsync).
    pub fn avg_batch_size(&self) -> f64 {
        match self.commit_batches() {
            0 => 0.0,
            batches => self.commit_batch_records() as f64 / batches as f64,
        }
    }

    /// 99th-percentile batch fsync latency in microseconds (0 before the
    /// first batch).
    pub fn fsync_p99_us(&self) -> u64 {
        self.fsync_latency.quantile(0.99) / 1_000
    }

    /// Connections currently open (accepted minus closed).
    pub fn active_connections(&self) -> u64 {
        self.get(Metric::total_connections)
            .saturating_sub(self.get(Metric::closed_connections))
    }

    /// The command log's read-only mode transitioned: `true` entering
    /// (ENOSPC on the log), `false` healing (space returned). Counts
    /// entries; fed by the group committer's read-only observer.
    pub fn set_log_read_only(&self, entering: bool) {
        let was = self
            .cell(Metric::log_read_only)
            .swap(entering as u64, Ordering::AcqRel);
        if entering && was == 0 {
            self.add(Metric::log_enospc_entries, 1);
        }
    }
}

/// One sampled point of the throughput/memory timeline.
#[derive(Clone, Copy, Debug)]
pub struct TimelinePoint {
    /// Seconds since sampling started.
    pub t: f64,
    /// Commits during this sample interval.
    pub commits: u64,
    /// Instantaneous throughput (txns/sec) over the interval.
    pub tps: f64,
    /// Total record copies in memory (live + extra) — Figure 6's y-axis.
    pub mem_copies: usize,
    /// Total record bytes in memory.
    pub mem_bytes: usize,
}

/// Background sampler recording a throughput + memory timeline at a fixed
/// interval — the data series behind Figures 2(a,b), 3(a,b), 4(a), 6 and
/// 7(a).
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<TimelinePoint>>>,
}

impl Sampler {
    /// Starts sampling `metrics` (and the strategy's memory stats) every
    /// `interval`.
    pub fn start(
        metrics: Arc<Metrics>,
        strategy: Arc<dyn CheckpointStrategy>,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("calc-sampler".into())
            .spawn(move || {
                let mut points = Vec::new();
                let start = Instant::now();
                let mut last_commits = metrics.committed();
                let mut next = start + interval;
                while !stop2.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep((next - now).min(Duration::from_millis(5)));
                        continue;
                    }
                    let commits_now = metrics.committed();
                    let delta = commits_now - last_commits;
                    last_commits = commits_now;
                    let mem = strategy.memory();
                    let t = now.duration_since(start).as_secs_f64();
                    points.push(TimelinePoint {
                        t,
                        commits: delta,
                        tps: delta as f64 / interval.as_secs_f64(),
                        mem_copies: mem.total_copies(),
                        mem_bytes: mem.total_bytes(),
                    });
                    next += interval;
                }
                points
            })
            .expect("spawn sampler");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops sampling and returns the timeline.
    pub fn finish(mut self) -> Vec<TimelinePoint> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("finish called once")
            .join()
            .expect("sampler thread panicked")
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_degraded_threshold_and_self_heal() {
        let h = Health::new(2, Duration::from_secs(1));
        let err = io::Error::new(io::ErrorKind::Interrupted, "x");
        assert!(!h.cycle_failed(ErrorClass::Transient, &err));
        assert!(!h.degraded());
        assert!(h.cycle_failed(ErrorClass::Transient, &err));
        assert!(h.degraded());
        assert_eq!(h.consecutive_failures(), 2);
        // Further failures do not re-enter.
        assert!(!h.cycle_failed(ErrorClass::Transient, &err));
        assert_eq!(h.degraded_entries(), 1);
        h.cycle_succeeded();
        assert!(!h.degraded());
        assert_eq!(h.degraded_exits(), 1);
        assert_eq!(h.consecutive_failures(), 0);
        assert_eq!(h.checkpoint_failures(), 3);
    }

    #[test]
    fn health_watchdog_is_lazy_and_cycle_scoped() {
        let h = Health::new(3, Duration::from_millis(2));
        assert!(!h.stalled(), "no cycle in flight");
        h.cycle_started();
        assert!(!h.stalled(), "budget not yet exceeded");
        std::thread::sleep(Duration::from_millis(10));
        assert!(h.stalled(), "overdue cycle must trip the watchdog");
        h.cycle_succeeded();
        assert!(!h.stalled(), "completed cycle must clear the watchdog");
    }

    #[test]
    fn counters_and_latency() {
        let m = Metrics::new();
        m.record_commit(Duration::from_micros(100));
        m.record_commit(Duration::from_micros(300));
        m.record_abort();
        assert_eq!(m.committed(), 2);
        assert_eq!(m.aborted(), 1);
        assert_eq!(m.latency.count(), 2);
        assert!(m.latency.max() >= 300_000);
    }

    #[test]
    fn group_commit_counters_track_batches_and_fsync_latency() {
        let h = Health::new(3, Duration::from_secs(1));
        assert_eq!(h.commit_batches(), 0);
        assert_eq!(h.avg_batch_size(), 0.0, "no batches yet");
        assert_eq!(h.fsync_p99_us(), 0);

        h.record_commit_batch(10, Duration::from_micros(40), Duration::from_micros(500));
        h.record_commit_batch(30, Duration::from_micros(60), Duration::from_micros(1500));
        assert_eq!(h.commit_batches(), 2);
        assert_eq!(h.commit_batch_records(), 40);
        assert_eq!(h.get(Metric::commit_batch_dwell_us), 100, "a running sum");
        assert!((h.avg_batch_size() - 20.0).abs() < f64::EPSILON);
        // p99 lands on the slowest recorded fsync (histogram buckets are
        // approximate upward, never below the true value's bucket floor).
        assert!(h.fsync_p99_us() >= 1000, "p99 {}us", h.fsync_p99_us());
    }

    #[test]
    fn connection_counters_balance_open_and_close() {
        let h = Health::new(3, Duration::from_secs(1));
        assert_eq!(h.active_connections(), 0);
        h.add(Metric::total_connections, 3);
        assert_eq!(h.active_connections(), 3);
        assert_eq!(h.get(Metric::total_connections), 3);
        h.add(Metric::closed_connections, 1);
        assert_eq!(h.active_connections(), 2);
        h.add(Metric::closed_connections, 1);
        h.add(Metric::closed_connections, 1);
        assert_eq!(h.active_connections(), 0);
        // A stray double-close must not underflow.
        h.add(Metric::closed_connections, 1);
        assert_eq!(h.active_connections(), 0);
        assert_eq!(h.get(Metric::total_connections), 3, "total is monotone");
    }

    #[test]
    fn log_read_only_transitions_count_entries_once() {
        let h = Health::new(3, Duration::from_secs(1));
        assert_eq!(h.get(Metric::log_read_only), 0);
        assert_eq!(h.get(Metric::log_enospc_entries), 0);
        h.set_log_read_only(true);
        assert_eq!(h.get(Metric::log_read_only), 1);
        assert_eq!(h.get(Metric::log_enospc_entries), 1);
        // Re-entering while already read-only is not a new entry.
        h.set_log_read_only(true);
        assert_eq!(h.get(Metric::log_enospc_entries), 1);
        h.set_log_read_only(false);
        assert_eq!(h.get(Metric::log_read_only), 0);
        h.set_log_read_only(true);
        assert_eq!(h.get(Metric::log_enospc_entries), 2, "a fresh entry counts again");
    }

    #[test]
    fn sampler_produces_points() {
        use calc_core::calc::CalcStrategy;
        use calc_storage::dual::StoreConfig;
        use calc_txn::commitlog::CommitLog;

        let metrics = Arc::new(Metrics::new());
        let strategy: Arc<dyn CheckpointStrategy> = Arc::new(CalcStrategy::full(
            StoreConfig::for_records(16, 16),
            Arc::new(CommitLog::default()),
        ));
        strategy
            .load_batch(&[(calc_common::types::Key(1), &b"x"[..])])
            .unwrap();
        let sampler = Sampler::start(metrics.clone(), strategy, Duration::from_millis(10));
        for _ in 0..50 {
            metrics.record_commit(Duration::from_micros(10));
            std::thread::sleep(Duration::from_millis(1));
        }
        let points = sampler.finish();
        assert!(points.len() >= 3, "got {} points", points.len());
        let total: u64 = points.iter().map(|p| p.commits).sum();
        assert!(total <= 50);
        assert!(total >= 20, "sampled too few commits: {total}");
        assert!(points.iter().all(|p| p.mem_copies == 1));
    }
}
