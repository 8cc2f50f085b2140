//! The checkpoint worker: one `calc-ckpt-worker` thread per
//! [`crate::Database`] runs every cycle, merge of partials (§2.3.1's
//! low-priority merger) and retention pass, in order, from one queue.
//!
//! * A cycle runs when [`crate::Database::checkpoint_now`] queues one, and
//!   every [`crate::EngineConfig::checkpoint_interval`] when that is set.
//!   Its outcome is recorded in [`Health`] here and nowhere else. A failed
//!   cycle is harmless (`CheckpointStrategy::checkpoint`'s contract), so
//!   [`classify`]'s transient and disk-full failures retry under capped,
//!   jittered backoff ([`calc_common::Backoff`]) and a fatal one at the
//!   capped delay. `degraded_after` failures in a row (or one fatal) enter
//!   degraded mode — transactions keep committing on the command log — and
//!   the next success leaves it.
//! * Once `merge_batch` partials have published since the last successful
//!   merge, a merge is queued behind whatever waits; a failed one leaves
//!   the chain intact and is queued again after the next successful cycle.
//! * ENOSPC on the command log pushes an emergency retention pass to the
//!   *front* of the queue.
//! * Shutdown drops the queued jobs and lets the in-flight one finish. A
//!   job that panics kills the worker instead: its waiter gets the error,
//!   [`Health`] enters degraded mode naming the panic, and every later
//!   request fails fast.

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex};

#[cfg(feature = "mutation-hooks")]
use calc_common::mutation;
use calc_common::Backoff;
use calc_core::merge::{collapse, MergeStats};
use calc_core::strategy::CheckpointStats;
use calc_core::CheckpointKind;
use calc_recovery::truncate_segments_below;

use crate::config::EngineConfig;
use crate::db::Inner;
use crate::executor::join_bounded;
use crate::metrics::{Health, Metric};

/// What kind of failure a checkpoint cycle hit — drives the retry policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Plausibly goes away on its own (interrupted write, timeout,
    /// broken pipe): retry under backoff.
    Transient,
    /// `ENOSPC`. Its own class because it has its own remedy (free disk
    /// space) and its own urgency: every checkpoint will fail until an
    /// operator acts, but the engine itself is unharmed.
    DiskFull,
    /// Misconfiguration or a broken environment (permissions, missing
    /// directory, invalid data): retrying quickly cannot help.
    Fatal,
}

impl std::fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorClass::Transient => "transient",
            ErrorClass::DiskFull => "disk-full",
            ErrorClass::Fatal => "fatal",
        })
    }
}

/// Classifies an I/O error from a checkpoint cycle.
///
/// ENOSPC is detected by raw OS errno (28) first: `io::ErrorKind` maps it
/// to the unstable `StorageFull` kind, which `ErrorKind::Other` matching
/// would misfile. Everything not explicitly fatal is treated as
/// transient — the optimistic default is safe because a failed cycle is
/// harmless and capped backoff bounds the retry cost.
pub fn classify(e: &io::Error) -> ErrorClass {
    if e.raw_os_error() == Some(28) {
        return ErrorClass::DiskFull;
    }
    match e.kind() {
        io::ErrorKind::PermissionDenied
        | io::ErrorKind::NotFound
        | io::ErrorKind::InvalidInput
        | io::ErrorKind::InvalidData
        | io::ErrorKind::Unsupported => ErrorClass::Fatal,
        _ => ErrorClass::Transient,
    }
}

/// Retry / degradation tuning for the checkpoint worker's cycles.
#[derive(Clone, Debug)]
pub struct ServiceTuning {
    /// First retry delay after a failed cycle.
    pub backoff_base: Duration,
    /// Ceiling on the retry delay.
    pub backoff_cap: Duration,
    /// Seed for the backoff's deterministic jitter.
    pub backoff_seed: u64,
    /// Consecutive failed cycles before entering degraded mode. A fatal
    /// error enters degraded mode immediately.
    pub degraded_after: u32,
    /// How long a single cycle may run before [`Health::stalled`] reports
    /// the checkpointer as wedged.
    pub watchdog: Duration,
}

impl Default for ServiceTuning {
    fn default() -> Self {
        ServiceTuning {
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(5),
            backoff_seed: 0xca1c_b0ff,
            degraded_after: 3,
            watchdog: Duration::from_secs(30),
        }
    }
}

/// What the worker's jobs do: the engine's own, or a test's script.
pub(crate) trait CheckpointWork: Send + Sync {
    /// One checkpoint cycle, post-cycle retention included.
    fn cycle(&self) -> io::Result<CheckpointStats>;
    /// Collapses the partial chain into a full.
    fn merge(&self) -> io::Result<Option<MergeStats>>;
    /// Prunes superseded chains and truncates covered log segments.
    fn retention(&self);
}

type Reply<T> = Option<Sender<io::Result<T>>>;

/// A queued job, with its waiter's reply slot if it has one. Stopping is
/// the queue's `closed` state instead, so it overtakes every queued job.
pub(crate) enum Job {
    Cycle(Reply<CheckpointStats>),
    Merge(Reply<Option<MergeStats>>),
    Emergency,
}

#[derive(Default)]
struct State {
    jobs: VecDeque<Job>,
    busy: bool,
    /// Why the worker takes no more jobs (stopped, or died).
    closed: Option<String>,
}

/// The checkpoint worker: the queue its callers and the committer's
/// read-only observer share, and the thread that drains it (and holds the
/// worker until [`Worker::stop`]). The lock is never held across a job.
#[derive(Default)]
pub(crate) struct Worker {
    state: Mutex<State>,
    cv: Condvar,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Worker {
    /// Starts the thread, running `work`'s jobs as `config`'s
    /// `checkpoint_interval`, `merge_batch` and `checkpoint_tuning` say.
    pub(crate) fn start(
        self: &Arc<Self>,
        work: Arc<dyn CheckpointWork>,
        health: Arc<Health>,
        config: &EngineConfig,
    ) {
        let (worker, config) = (self.clone(), config.clone());
        let handle = std::thread::Builder::new()
            .name("calc-ckpt-worker".into())
            .spawn(move || worker.run(work.as_ref(), &health, &config))
            .expect("spawn checkpoint worker");
        *self.thread.lock() = Some(handle);
    }

    fn push(&self, job: Job, front: bool) -> io::Result<()> {
        let mut st = self.state.lock();
        if let Some(why) = &st.closed {
            return Err(io::Error::other(why.clone()));
        }
        match front {
            true => st.jobs.push_front(job),
            false => st.jobs.push_back(job),
        }
        self.cv.notify_all();
        Ok(())
    }

    /// Queues an emergency retention pass ahead of every other job (a
    /// no-op once stopped). It waits on no job, so the committer's sync
    /// thread may call it.
    pub(crate) fn emergency(&self) {
        let _ = self.push(Job::Emergency, true);
    }

    /// Queues `job` and waits for its reply.
    pub(crate) fn ask<T>(&self, job: fn(Reply<T>) -> Job) -> io::Result<T> {
        let (tx, rx) = bounded(1);
        self.push(job(Some(tx)), false)?;
        // A reply slot is dropped unanswered only by a closing worker, so
        // this waits for the queue to close.
        rx.recv().unwrap_or_else(|_| {
            self.wait_idle();
            Err(io::Error::other(self.state.lock().closed.clone().unwrap_or_default()))
        })
    }

    /// Waits until the queue is empty and the worker idle (or closed).
    pub(crate) fn wait_idle(&self) {
        let mut st = self.state.lock();
        while st.closed.is_none() && (st.busy || !st.jobs.is_empty()) {
            self.cv.wait(&mut st);
        }
    }

    /// Drops the queued jobs and refuses new ones with `why` (the first
    /// reason sticks).
    fn close(&self, why: String) {
        let mut st = self.state.lock();
        st.closed.get_or_insert(why);
        st.jobs.clear();
        self.cv.notify_all();
    }

    /// Drops the queued jobs, lets the in-flight one finish, and joins the
    /// thread. Idempotent.
    pub(crate) fn stop(&self) {
        self.close("checkpoint worker stopped".into());
        if let Some(h) = self.thread.lock().take() {
            join_bounded(h, "checkpoint worker");
        }
    }

    /// The thread's next job: the queue's head, else a cycle once `due`;
    /// `None` once closed.
    fn next(&self, due: Option<Instant>) -> Option<Job> {
        let mut st = self.state.lock();
        st.busy = false;
        self.cv.notify_all();
        let job = loop {
            if st.closed.is_some() {
                return None;
            }
            if let Some(job) = st.jobs.pop_front() {
                break job;
            }
            match due.map(|at| at.saturating_duration_since(Instant::now())) {
                Some(Duration::ZERO) => break Job::Cycle(None),
                Some(wait) => {
                    self.cv.wait_for(&mut st, wait);
                }
                None => self.cv.wait(&mut st),
            }
        };
        st.busy = true;
        Some(job)
    }

    /// The thread's loop.
    fn run(&self, work: &dyn CheckpointWork, health: &Health, config: &EngineConfig) {
        let (interval, tuning) = (config.checkpoint_interval, &config.checkpoint_tuning);
        let mut backoff = Backoff::new(tuning.backoff_base, tuning.backoff_cap, tuning.backoff_seed);
        let mut due = interval.map(|d| Instant::now() + d);
        // Partials published since the last successful merge.
        let mut partials = 0;
        while let Some(job) = self.next(due) {
            let ran = catch_unwind(AssertUnwindSafe(|| match job {
                Job::Cycle(reply) => {
                    health.cycle_started();
                    let outcome = work.cycle();
                    let wait = match &outcome {
                        Ok(stats) => {
                            health.cycle_succeeded();
                            backoff.reset();
                            partials += (stats.kind == CheckpointKind::Partial) as usize;
                            let mut st = self.state.lock();
                            if config.merge_batch.is_some_and(|b| partials >= b)
                                && !st.jobs.iter().any(|j| matches!(j, Job::Merge(_)))
                            {
                                st.jobs.push_back(Job::Merge(None));
                            }
                            interval
                        }
                        Err(e) => {
                            let class = classify(e);
                            health.cycle_failed(class, e);
                            match class {
                                // Millisecond retries cannot fix a broken
                                // config; probe at the capped delay.
                                ErrorClass::Fatal => interval.map(|d| d.max(tuning.backoff_cap)),
                                _ => Some(backoff.next_delay()),
                            }
                        }
                    };
                    due = interval.and(wait).map(|w| Instant::now() + w);
                    let _ = reply.map(|tx| tx.send(outcome));
                }
                Job::Merge(reply) => {
                    let outcome = work.merge();
                    match &outcome {
                        Ok(_) => partials = 0,
                        Err(e) => health.record_merge_failure(e),
                    }
                    let _ = reply.map(|tx| tx.send(outcome));
                }
                Job::Emergency => {
                    health.add(Metric::emergency_retention_passes, 1);
                    work.retention();
                }
            }));
            if let Err(panic) = ran {
                let what = panic.downcast_ref::<String>().map(String::as_str);
                let what = what.or(panic.downcast_ref::<&str>().copied()).unwrap_or_default();
                let why = format!("checkpoint worker died: a job panicked: {what}");
                health.cycle_failed(ErrorClass::Fatal, &io::Error::other(why.clone()));
                self.close(why);
                return;
            }
        }
    }
}

/// The engine's own jobs.
impl CheckpointWork for Inner {
    fn cycle(&self) -> io::Result<CheckpointStats> {
        let stats = self.strategy.checkpoint(self, &self.dir)?;
        self.health.set(Metric::last_checkpoint_parts, stats.parts as u64);
        self.health.set(Metric::last_checkpoint_bytes, stats.bytes);
        self.retention();
        Ok(stats)
    }

    fn merge(&self) -> io::Result<Option<MergeStats>> {
        collapse(&self.dir)
    }

    /// Retention: prune superseded checkpoint chains down to
    /// `keep_checkpoints` fulls, then truncate command-log segments below
    /// [`calc_core::CheckpointDir::truncation_floor`]: the *oldest
    /// surviving full's* watermark. Both read the directory's catalog and
    /// no checkpoint file: every catalogued cycle was published by this
    /// process or listed when it opened (see `calc_core::manifest`). The
    /// floor — not the just-published cycle's watermark — is what keeps
    /// truncation safe against corruption
    /// discovered later: a restart that finds the newest full torn falls
    /// back to an older one and still finds its replay window.
    ///
    /// After a cycle it runs only once the cycle durably published; a
    /// retention failure is therefore recorded in [`crate::Health`] but
    /// never fails the cycle — disk just stays larger until the next pass
    /// succeeds.
    fn retention(&self) {
        let pass = || -> io::Result<()> {
            if let Some(k) = self.keep_checkpoints {
                self.health.add(Metric::checkpoints_pruned, self.dir.prune_chains(k)? as u64);
            }
            let Some(log_dir) = &self.command_log_dir else {
                return Ok(());
            };
            let floor = self.dir.truncation_floor();
            // Seeded bug for the fallback restart's self-test: truncate up
            // to the *newest* full, deleting an older full's replay window.
            #[cfg(feature = "mutation-hooks")]
            let floor = match mutation::armed(mutation::Mutation::TruncateAboveFloor) {
                true => self.dir.manifests().iter().filter(|m| m.kind == CheckpointKind::Full)
                    .map(|m| m.watermark).max(),
                false => floor,
            };
            if let Some(floor) = floor {
                let t = truncate_segments_below(self.dir.vfs().as_ref(), log_dir, floor)?;
                self.health.add(Metric::log_segments_truncated, t.removed);
                self.health.add(Metric::log_bytes_truncated, t.bytes);
            }
            Ok(())
        };
        if pass().is_err() {
            self.health.add(Metric::retention_failures, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_common::types::CommitSeq;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    fn tuning() -> ServiceTuning {
        ServiceTuning {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            backoff_seed: 7,
            degraded_after: 3,
            watchdog: Duration::from_secs(30),
        }
    }

    /// A scripted checkpointer: each cycle is one call of the script; it
    /// has nothing to merge or retain.
    struct Script<F>(Mutex<F>);

    impl<F: FnMut() -> io::Result<()> + Send> CheckpointWork for Script<F> {
        fn cycle(&self) -> io::Result<CheckpointStats> {
            (self.0.lock())()?;
            Ok(CheckpointStats {
                id: 0,
                kind: CheckpointKind::Full,
                watermark: CommitSeq::ZERO,
                records: 0,
                bytes: 0,
                duration: Duration::ZERO,
                quiesce: Duration::ZERO,
                parts: 0,
            })
        }
        fn merge(&self) -> io::Result<Option<MergeStats>> {
            Ok(None)
        }
        fn retention(&self) {}
    }

    /// A worker running `cycle` every `interval`.
    fn scripted(
        interval: Option<Duration>,
        health: Arc<Health>,
        cycle: impl FnMut() -> io::Result<()> + Send + 'static,
    ) -> Arc<Worker> {
        let mut config = EngineConfig::new(crate::StrategyKind::Calc, 16, 16, Default::default());
        config.checkpoint_interval = interval;
        config.checkpoint_tuning = tuning();
        let worker = Arc::new(Worker::default());
        worker.start(Arc::new(Script(Mutex::new(cycle))), health, &config);
        worker
    }

    fn wait_until(deadline: Duration, mut f: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn classify_taxonomy() {
        assert_eq!(
            classify(&io::Error::from_raw_os_error(28)),
            ErrorClass::DiskFull
        );
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::Interrupted, "x")),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::TimedOut, "x")),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::PermissionDenied, "x")),
            ErrorClass::Fatal
        );
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::InvalidData, "x")),
            ErrorClass::Fatal
        );
    }

    #[test]
    fn degraded_mode_entered_and_exited() {
        // Three transient failures enter degraded mode; the next success
        // exits it. The command-log side of "transactions keep committing"
        // is covered by the engine-level test in `checkpoint_cycle.rs`.
        let health = Arc::new(Health::new(3, Duration::from_secs(30)));
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = calls.clone();
        let svc = scripted(Some(Duration::from_millis(1)), health.clone(), move || {
            let n = calls2.fetch_add(1, Ordering::Relaxed);
            if n < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected"))
            } else {
                Ok(())
            }
        });
        assert!(
            wait_until(Duration::from_secs(10), || health.degraded_entries() >= 1),
            "never entered degraded mode"
        );
        assert!(
            wait_until(Duration::from_secs(10), || !health.degraded()
                && health.degraded_exits() >= 1),
            "never self-healed out of degraded mode"
        );
        svc.stop();
        assert_eq!(health.degraded_entries(), 1);
        assert_eq!(health.degraded_exits(), 1);
        assert_eq!(health.consecutive_failures(), 0);
        assert!(health.time_since_last_success().is_some());
        let (class, msg) = health.last_error().expect("error recorded");
        assert_eq!(class, ErrorClass::Transient);
        assert!(msg.contains("injected"));
    }

    #[test]
    fn fatal_error_enters_degraded_immediately() {
        let health = Arc::new(Health::new(100, Duration::from_secs(30)));
        let svc = scripted(Some(Duration::from_millis(1)), health.clone(), move || {
            Err(io::Error::new(io::ErrorKind::PermissionDenied, "denied"))
        });
        assert!(
            wait_until(Duration::from_secs(10), || health.degraded()),
            "fatal error did not enter degraded mode"
        );
        svc.stop();
        assert_eq!(health.last_error().unwrap().0, ErrorClass::Fatal);
    }

    #[test]
    fn watchdog_flags_a_stalled_cycle() {
        // A cycle that outlives the watchdog budget is reported as stalled
        // while it runs, and the flag clears once it completes.
        let health = Arc::new(Health::new(3, Duration::from_millis(5)));
        let release = Arc::new(AtomicBool::new(false));
        let release2 = release.clone();
        let svc = scripted(Some(Duration::from_millis(1)), health.clone(), move || {
            while !release2.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        });
        assert!(
            wait_until(Duration::from_secs(10), || health.stalled()),
            "watchdog never fired on a wedged cycle"
        );
        release.store(true, Ordering::Release);
        assert!(
            wait_until(Duration::from_secs(10), || !health.stalled()),
            "stalled flag did not clear after the cycle completed"
        );
        svc.stop();
    }

    #[test]
    fn stop_interrupts_a_long_interval() {
        let health = Arc::new(Health::new(3, Duration::from_secs(30)));
        let svc = scripted(Some(Duration::from_secs(3600)), health, move || Ok(()));
        let start = Instant::now();
        svc.stop();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "stop waited out the interval"
        );
    }
}
