//! Group commit: one fsync per batch of concurrent commits.
//!
//! Per-commit fsync is the durability wall the paper's command-logging
//! story runs into under concurrent load: every committer paying its own
//! fsync serializes the whole system behind the disk's sync latency. The
//! classic fix — group commit — lets concurrent committers enqueue onto
//! the active log and a dedicated sync thread fsync *once* per batch.
//!
//! The batch is closed on evidence, not on a deadline from its opener.
//! A batch somebody is waiting on is fsynced as soon as the company it
//! can expect has arrived: the queue is drained, and the thread lingers
//! only while the batch holds fewer waiters than the previous one
//! retired (or than two, when its opener is a waiter that was already
//! queued behind the previous fsync — proof of a second durable
//! committer), for at most half the last measured fsync latency. The
//! fsync in flight is the batching window for everything that queues
//! behind it. One constant remains on that path, *pacing*: an fsync
//! starts no sooner than half a [`GroupCommitConfig::window`] after the
//! previous one started. A commit into an idle log is not held at all;
//! back-to-back commits are served at that cadence instead of the
//! disk's, whose fsync latency drifts severalfold by the hour — which is
//! what keeps loaded throughput and latency the same from run to run,
//! at the price of about half a window per loaded commit. A batch nobody
//! waits on (fire-and-forget only) dwells for the whole window, which
//! bounds the unflushed tail; [`GroupCommitConfig::max_batch`] records
//! or an explicit flush close either kind at once.
//!
//! Two acknowledgement disciplines coexist on the same committer:
//!
//! * [`GroupCommitter::submit`] — fire-and-forget, the paper's
//!   low-latency ack-before-fsync choice: a crash can lose the unflushed
//!   tail, bounded by the window.
//! * [`GroupCommitter::submit_durable`] — returns a [`DurabilityTicket`];
//!   waiting on it blocks until the batch's fsync completed, so an
//!   acknowledgement implies the commit survives any later crash
//!   (ack-after-fsync, what a network server must promise).
//!
//! Error discipline (graceful degradation, not sudden death):
//!
//! * An **append** failure is immediately fatal: the record may be torn
//!   mid-file, and appending more records after a tear would put valid
//!   commits *behind* the point where replay stops — acknowledged writes
//!   would silently vanish. The gap-free-prefix invariant of
//!   [`crate::logfile::read_dir_logs`] is worth more than availability.
//! * A **sync** failure is retried: the batch's bytes are already
//!   appended, and fsync is idempotent, so the thread retries with
//!   seeded capped-exponential backoff ([`calc_common::Backoff`]) up to
//!   [`GroupCommitConfig::sync_retries`] times before giving up. A
//!   transient sync-error window heals invisibly — waiters just see a
//!   slightly slower ack.
//! * **ENOSPC** on sync flips the committer into a *read-only degraded
//!   mode* ([`GroupCommitter::read_only`], surfaced to operators through
//!   the engine's `Health`): the thread keeps retrying the sync for up to
//!   [`GroupCommitConfig::enospc_window`] while the caller sheds new
//!   writes and runs an emergency retention pass to free space. If space
//!   returns inside the window, the sync succeeds, the mode clears, and
//!   every waiter is acknowledged — self-healing with zero lost acks.
//!
//! Only when retries are exhausted does the old discipline apply: every
//! waiter in the failed batch — and every later submitter — gets the
//! typed [`SyncError`] engines already expect: the dying sync thread
//! closes the staging queue and fails what is on it, so queued tickets
//! fail fast instead of wedging until their timeout and nothing is staged
//! behind a logger that will never read it. The in-memory engine stays
//! alive (degraded durability), exactly like the pre-group-commit logger
//! thread.
//!
//! # Who wakes whom
//!
//! Committers and the sync thread meet at one staging queue: a mutex
//! around the staged messages, how the sync thread is parked, and whether
//! the stream is closed; plus one condvar. `submit*` pushes under that
//! lock — from inside the engine's commit section, so staged order is seq
//! order — and signals the condvar **only when the sync thread has to
//! act**:
//!
//! * it is parked *idle*, no batch open: the first record opens the batch
//!   and starts its window;
//! * it is parked *dwelling* on an open batch and the message can change
//!   when that batch closes — a commit somebody waits on, a flush, a
//!   close — or the staged count has reached the room the batch has left
//!   under [`GroupCommitConfig::max_batch`].
//!
//! A fire-and-forget record landing in an open batch changes nothing the
//! sync thread would decide — the batch cannot close before `opener +
//! window` anyway — so it costs a push and no syscall; so does anything
//! staged while the thread is appending or fsyncing, which looks at the
//! queue again by itself before it parks. The sync thread sleeps to the
//! close time it computed, takes everything staged in one swap per
//! wake-up, appends in order, and at its own deadline drains what
//! arrived during the dwell before it fsyncs. It never takes the commit
//! section, and no committer ever waits for it under the staging lock.
//! [`GroupCommitter::wakeups`] counts the signals: at most one per commit
//! when every commit is waited on (measured 0.7–0.8 with two closed-loop
//! writers: one that arrives during the other's fsync wakes nobody),
//! at most one per batch on a fire-and-forget load (measured ≈ 40 per
//! million commits at 100 k commits/s: a batch is usually opened by a
//! record that arrived during the previous fsync).

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};

use calc_common::Backoff;
use calc_txn::commitlog::CommitRecord;

use crate::logfile::SegmentedLogWriter;

/// Why a durability wait (or a [`GroupCommitter::flush`] handshake) could
/// not complete. None of these abort the process: a dead sync thread
/// means the durable log stopped growing (degraded durability), not that
/// the engine must die — callers decide how loudly to react.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// The sync thread had already exited (earlier append/sync I/O
    /// error) when the request was submitted.
    LoggerExited,
    /// The sync thread died after accepting the request, before
    /// acknowledging it.
    LoggerDied,
    /// No acknowledgement within the timeout — the sync thread is wedged.
    Timeout(Duration),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::LoggerExited => {
                write!(f, "command logger exited before the flush (I/O error?)")
            }
            SyncError::LoggerDied => write!(f, "command logger died mid-flush (I/O error?)"),
            SyncError::Timeout(d) => {
                write!(f, "no flush acknowledgement within {d:?} (logger wedged)")
            }
        }
    }
}

impl std::error::Error for SyncError {}

/// The durable log a [`GroupCommitter`] appends to: the rotating segment
/// directory in production, a scripted fault injector in tests.
/// Segmentation/rotation and retention-driven truncation keep working
/// underneath group commit because the batch append goes through the same
/// writer the serial path uses.
pub trait LogBackend: Send {
    /// Appends one record (buffered).
    fn append(&mut self, rec: &CommitRecord) -> io::Result<()>;
    /// Makes everything appended so far durable.
    fn sync(&mut self) -> io::Result<()>;
}

impl LogBackend for SegmentedLogWriter {
    fn append(&mut self, rec: &CommitRecord) -> io::Result<()> {
        SegmentedLogWriter::append(self, rec)
    }
    fn sync(&mut self) -> io::Result<()> {
        SegmentedLogWriter::sync(self)
    }
}

/// Batching and degradation knobs.
#[derive(Clone, Copy, Debug)]
pub struct GroupCommitConfig {
    /// Upper bound on how long a commit may wait for company before the
    /// fsync fires; reached only by batches nobody is waiting on (it
    /// bounds the unflushed tail of fire-and-forget commits). A batch
    /// with a durability waiter closes as soon as the queue is drained
    /// and the expected company has arrived, though no sooner than half
    /// this after the previous fsync started — see the module docs.
    pub window: Duration,
    /// Hard batch-size cap: the fsync fires immediately once this many
    /// records are batched, even inside the window. `1` degenerates to
    /// per-commit fsync (the baseline the benchmark compares against).
    pub max_batch: usize,
    /// How many times a failed batch *sync* (never an append — see the
    /// module docs) is retried before the committer dies. 0 restores the
    /// old first-failure-is-fatal discipline.
    pub sync_retries: u32,
    /// Backoff base delay between sync retries.
    pub retry_base: Duration,
    /// Backoff delay cap between sync retries.
    pub retry_cap: Duration,
    /// Seed for the deterministic retry jitter.
    pub retry_seed: u64,
    /// How long an ENOSPC sync failure keeps being retried (read-only
    /// degraded mode) before the committer gives up and dies. Within the
    /// window, freed disk space self-heals the committer with every
    /// pending acknowledgement intact.
    pub enospc_window: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            window: Duration::from_millis(2),
            max_batch: 4096,
            sync_retries: 3,
            retry_base: Duration::from_millis(2),
            retry_cap: Duration::from_millis(100),
            retry_seed: 0x6C06_5EED,
            enospc_window: Duration::from_secs(5),
        }
    }
}

/// Observer invoked after every successful non-empty batch with
/// `(records_in_batch, dwell, fsync_latency)` — dwell is opener received
/// → fsync started. How the engine feeds its `Health` counters without
/// this crate depending on the engine.
pub type BatchObserver = Box<dyn Fn(usize, Duration, Duration) + Send + Sync>;

/// Observer invoked on read-only-mode transitions: `true` entering
/// (ENOSPC detected on the command log), `false` healing (space
/// returned, sync succeeded). The engine hooks this to surface the flag
/// through `Health` and to trigger an emergency retention pass.
pub type ReadOnlyObserver = Box<dyn Fn(bool) + Send + Sync>;

/// A waiter's half of one durability acknowledgement.
type AckSender = Sender<Result<(), SyncError>>;

enum Msg {
    Commit {
        rec: CommitRecord,
        ack: Option<AckSender>,
    },
    /// Close the current batch immediately, fsync, and acknowledge —
    /// the `sync_command_log` handshake.
    Flush(AckSender),
    /// [`GroupCommitter::close`]: fsync what is batched, acknowledge like
    /// a flush, and exit; nothing is staged behind it.
    Close(AckSender),
}

/// How the sync thread waits on the staging queue — which is also what
/// decides whether a committer staging a message has to wake it (the
/// rule is [`Shared::stage`]'s; the module docs say why).
#[derive(Clone, Copy)]
enum Park {
    /// Not waiting: appending, fsyncing, or already signalled.
    No,
    /// No batch is open; wait for whatever opens one.
    Idle,
    /// A batch is open and closes at `until`; it can still take `room`
    /// records under `max_batch`.
    Dwell { until: Instant, room: usize },
}

/// What the staging lock guards.
struct Staged {
    /// Messages in submission (= seq) order, not yet taken by the sync
    /// thread.
    msgs: VecDeque<Msg>,
    parked: Park,
    /// Set by [`GroupCommitter::close`] behind its `Close`, and by the
    /// sync thread when it dies: nothing is staged from then on.
    closed: bool,
}

/// Everything committers and the sync thread share.
struct Shared {
    staged: Mutex<Staged>,
    wake: Condvar,
    dead: AtomicBool,
    read_only: AtomicBool,
    stats: Stats,
}

impl Shared {
    /// Stages `msg` behind everything staged so far and wakes the sync
    /// thread if, parked as it is, it has to act on it (see [`Park`]).
    /// `false`: the stream is closed or the logger dead, `msg` is dropped.
    fn stage(&self, msg: Msg) -> bool {
        let may_close_batch = !matches!(msg, Msg::Commit { ack: None, .. });
        let mut q = self.staged.lock();
        if q.closed {
            return false;
        }
        q.closed = matches!(msg, Msg::Close(_));
        q.msgs.push_back(msg);
        let wake = match q.parked {
            Park::No => false,
            Park::Idle => true,
            Park::Dwell { room, .. } => may_close_batch || q.msgs.len() >= room,
        };
        if wake {
            // One signal per park: whatever is staged before the thread
            // runs rides on this one.
            q.parked = Park::No;
            drop(q);
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            self.wake.notify_one();
        }
        true
    }

    /// Stages a message that carries an acknowledgement and returns the
    /// ticket for it — already failed if nothing can be staged any more.
    fn stage_acked(&self, make: impl FnOnce(AckSender) -> Msg) -> DurabilityTicket {
        let (ack_tx, ack_rx) = bounded(1);
        if !self.stage(make(ack_tx)) {
            return DurabilityTicket::dead();
        }
        DurabilityTicket {
            rx: Some(ack_rx),
            dead: false,
        }
    }
}

/// The sync thread's end of the staging queue: it takes everything staged
/// in one swap — one lock acquisition per wake-up, not per record — and
/// hands the messages out in order.
struct Inbox<'a> {
    shared: &'a Shared,
    taken: VecDeque<Msg>,
}

impl Inbox<'_> {
    /// The next message: one already taken, else the first of whatever is
    /// staged, else — parked as `how` says — the first of what is there
    /// when a committer signals. `None` when there is nothing and `how`
    /// is not to wait, or its `until` has passed.
    fn recv(&mut self, how: Park) -> Option<Msg> {
        if self.taken.is_empty() {
            let mut q = self.shared.staged.lock();
            while q.msgs.is_empty() {
                match how {
                    Park::No => return None,
                    Park::Idle => {
                        q.parked = how;
                        self.shared.wake.wait(&mut q);
                    }
                    Park::Dwell { until, .. } => {
                        let left = until.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return None;
                        }
                        q.parked = how;
                        self.shared.wake.wait_for(&mut q, left);
                    }
                }
                q.parked = Park::No;
            }
            std::mem::swap(&mut q.msgs, &mut self.taken);
        }
        self.taken.pop_front()
    }
}

/// The sync thread is gone — closed, dead, or panicked: nothing is staged
/// for it any more, and what it had not got to is dropped. A dropped
/// message disconnects its ticket, which [`DurabilityTicket::wait`]
/// reports as [`SyncError::LoggerDied`].
impl Drop for Inbox<'_> {
    fn drop(&mut self) {
        let staged = {
            let mut q = self.shared.staged.lock();
            q.closed = true;
            std::mem::take(&mut q.msgs)
        };
        drop(staged);
    }
}

/// A claim check for one commit's durability: wait on it *outside* any
/// engine lock to block until the commit's batch has been fsynced.
pub struct DurabilityTicket {
    rx: Option<Receiver<Result<(), SyncError>>>,
    /// Pre-resolved failure (the committer was already dead at submit).
    dead: bool,
}

impl DurabilityTicket {
    fn dead() -> Self {
        DurabilityTicket { rx: None, dead: true }
    }

    /// Blocks until the batch containing this commit is durable (or the
    /// sync thread died / the timeout passed).
    pub fn wait(self, timeout: Duration) -> Result<(), SyncError> {
        if self.dead {
            return Err(SyncError::LoggerExited);
        }
        let rx = self.rx.expect("ticket has a receiver unless dead");
        match rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(RecvTimeoutError::Disconnected) => Err(SyncError::LoggerDied),
            Err(RecvTimeoutError::Timeout) => Err(SyncError::Timeout(timeout)),
        }
    }
}

/// Lifetime counters, shared with the sync thread.
#[derive(Default)]
struct Stats {
    batches: AtomicU64,
    records: AtomicU64,
    /// Sync attempts that failed and were retried.
    sync_retries: AtomicU64,
    /// Times read-only degraded mode was entered (ENOSPC).
    enospc_entries: AtomicU64,
    /// Times a committer signalled the sync thread.
    wakeups: AtomicU64,
    /// Fire-and-forget records submitted after the close or the logger's
    /// death, and dropped.
    dropped_after_close: AtomicU64,
}

/// The group-commit front of a durable command log: concurrent
/// committers enqueue; a dedicated sync thread batches, appends, and
/// fsyncs once per batch. See the module docs for the acknowledgement
/// disciplines.
///
/// [`GroupCommitter::close`] (which dropping the committer also runs)
/// ends the stream: the sync thread drains the queue, performs a final
/// fsync, and exits — so the on-disk log is complete when it returns.
pub struct GroupCommitter {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl GroupCommitter {
    /// Spawns the sync thread over `backend`. `observer` (if any) is
    /// invoked after every successful non-empty batch.
    pub fn start(
        backend: Box<dyn LogBackend>,
        config: GroupCommitConfig,
        observer: Option<BatchObserver>,
    ) -> Self {
        Self::start_with(backend, config, observer, None)
    }

    /// [`GroupCommitter::start`] with an additional read-only-mode
    /// transition observer (see [`ReadOnlyObserver`]).
    pub fn start_with(
        backend: Box<dyn LogBackend>,
        config: GroupCommitConfig,
        observer: Option<BatchObserver>,
        read_only_observer: Option<ReadOnlyObserver>,
    ) -> Self {
        let shared = Arc::new(Shared {
            staged: Mutex::new(Staged {
                msgs: VecDeque::new(),
                parked: Park::No,
                closed: false,
            }),
            wake: Condvar::new(),
            dead: AtomicBool::new(false),
            read_only: AtomicBool::new(false),
            stats: Stats::default(),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("calc-group-commit".into())
            .spawn(move || sync_loop(backend, config, observer, read_only_observer, &thread_shared))
            .expect("spawn group-commit sync thread");
        GroupCommitter {
            shared,
            handle: Some(handle),
        }
    }

    /// Stages a commit fire-and-forget (ack-before-fsync): the record
    /// becomes durable with its batch, but nothing waits for it. After
    /// [`GroupCommitter::close`], or once the logger is dead, the record
    /// is dropped and counted ([`GroupCommitter::dropped_after_close`]).
    pub fn submit(&self, rec: CommitRecord) {
        if !self.shared.stage(Msg::Commit { rec, ack: None }) {
            self.shared.stats.dropped_after_close.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stages a commit and returns a ticket whose `wait` blocks until
    /// the record's batch has been fsynced (ack-after-fsync). Staging
    /// never blocks on the disk, so callers can hold a seq-assignment
    /// lock across it and wait on the ticket after releasing the lock.
    /// After [`GroupCommitter::close`], or once the logger is dead, nothing
    /// is staged and the ticket is already failed.
    pub fn submit_durable(&self, rec: CommitRecord) -> DurabilityTicket {
        self.shared.stage_acked(|ack| Msg::Commit { rec, ack: Some(ack) })
    }

    /// Requests an immediate batch close + fsync; the ticket resolves
    /// when everything staged before this call is durable.
    pub fn flush(&self) -> DurabilityTicket {
        self.shared.stage_acked(Msg::Flush)
    }

    /// Ends the stream through a shared handle: everything staged before
    /// this call is appended and fsynced (or the logger is dead) when it
    /// returns, and the sync thread exits; `Drop` joins it. Nothing is
    /// staged behind the close: a later `submit` is dropped and counted,
    /// a later `submit_durable` or `flush` gets a failed ticket, and a
    /// later `close` returns at once.
    pub fn close(&self) {
        let (ack_tx, ack_rx) = bounded(1);
        if self.shared.stage(Msg::Close(ack_tx)) {
            // An error is the sync thread dropping the ack on its way out.
            let _ = ack_rx.recv();
        }
    }

    /// Whether the sync thread has died on an I/O error (persistence has
    /// stopped; submissions fail fast with [`SyncError`]).
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Whether the committer is in read-only degraded mode: the command
    /// log hit ENOSPC and the sync thread is retrying inside its heal
    /// window. Callers should shed new writes and free disk space; the
    /// mode clears itself once a sync succeeds.
    pub fn read_only(&self) -> bool {
        self.shared.read_only.load(Ordering::Acquire)
    }

    /// Failed sync attempts that were retried, lifetime total.
    pub fn sync_retries(&self) -> u64 {
        self.shared.stats.sync_retries.load(Ordering::Relaxed)
    }

    /// Times read-only degraded mode was entered, lifetime total.
    pub fn enospc_entries(&self) -> u64 {
        self.shared.stats.enospc_entries.load(Ordering::Relaxed)
    }

    /// Successful batches fsynced so far.
    pub fn batches(&self) -> u64 {
        self.shared.stats.batches.load(Ordering::Relaxed)
    }

    /// Records made durable across all batches.
    pub fn records(&self) -> u64 {
        self.shared.stats.records.load(Ordering::Relaxed)
    }

    /// Times a committer woke the sync thread (see the module docs for
    /// when one has to), lifetime total.
    pub fn wakeups(&self) -> u64 {
        self.shared.stats.wakeups.load(Ordering::Relaxed)
    }

    /// Fire-and-forget records submitted after [`GroupCommitter::close`]
    /// or the logger's death, and therefore dropped, lifetime total.
    pub fn dropped_after_close(&self) -> u64 {
        self.shared.stats.dropped_after_close.load(Ordering::Relaxed)
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        self.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for GroupCommitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GroupCommitter(batches={}, records={}, dead={})",
            self.batches(),
            self.records(),
            self.is_dead()
        )
    }
}

/// ENOSPC, the one `io::Error` that self-heals when an operator (or an
/// emergency retention pass) frees disk space.
fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28)
}

/// Syncs the backend, retrying per the module-level error discipline:
/// transient errors up to `config.sync_retries` attempts with seeded
/// backoff; ENOSPC for up to `config.enospc_window` wall time with the
/// read-only flag raised in between. Returns the final error only once
/// retries are exhausted — the caller then applies the fatal path.
fn sync_with_retry(
    backend: &mut dyn LogBackend,
    config: &GroupCommitConfig,
    read_only: &AtomicBool,
    read_only_observer: &Option<ReadOnlyObserver>,
    stats: &Stats,
) -> io::Result<()> {
    let mut backoff = Backoff::new(config.retry_base, config.retry_cap, config.retry_seed);
    let mut transient_attempts = 0u32;
    let mut enospc_since: Option<Instant> = None;
    loop {
        match backend.sync() {
            Ok(()) => {
                if read_only.swap(false, Ordering::AcqRel) {
                    if let Some(obs) = read_only_observer {
                        obs(false);
                    }
                }
                return Ok(());
            }
            Err(e) if is_enospc(&e) => {
                if !read_only.swap(true, Ordering::AcqRel) {
                    stats.enospc_entries.fetch_add(1, Ordering::Relaxed);
                    if let Some(obs) = read_only_observer {
                        obs(true);
                    }
                }
                let since = *enospc_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= config.enospc_window {
                    return Err(e);
                }
                stats.sync_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff.next_delay());
            }
            Err(e) => {
                if transient_attempts >= config.sync_retries {
                    return Err(e);
                }
                transient_attempts += 1;
                stats.sync_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff.next_delay());
            }
        }
    }
}

fn sync_loop(
    mut backend: Box<dyn LogBackend>,
    config: GroupCommitConfig,
    observer: Option<BatchObserver>,
    read_only_observer: Option<ReadOnlyObserver>,
    shared: &Shared,
) {
    let Shared { read_only, stats, .. } = shared;
    let mut inbox = Inbox {
        shared,
        taken: VecDeque::new(),
    };
    let max_batch = config.max_batch.max(1);
    // What the previous batch says about the company this one can expect.
    let mut prev_waiters = 0usize;
    let mut last_fsync = Duration::ZERO;
    // Pacing: fsyncs start no closer than half a window apart, so the
    // cadence under load is the knob's, not the disk's latency of the hour.
    let mut pace_until = Instant::now();
    loop {
        // A waiter already staged when the previous fsync returned proves
        // a second durable committer is in play; otherwise park idle for
        // an opener. A close here means a clean shutdown with nothing
        // pending (every prior batch was synced).
        let queued = inbox.recv(Park::No);
        let overlapped = matches!(queued, Some(Msg::Commit { ack: Some(_), .. }));
        let target = if overlapped { prev_waiters.max(2) } else { prev_waiters };
        let opener = queued.or_else(|| inbox.recv(Park::Idle));
        let Some(mut msg) = opener.filter(|m| !matches!(m, Msg::Close(_))) else {
            return;
        };
        let opened = Instant::now();
        // Until somebody waits on the batch it dwells out the window; the
        // first waiter pulls the deadline in to the linger cap.
        let mut deadline = opened + config.window;
        let mut acks: Vec<AckSender> = Vec::new();
        let mut flush: Option<AckSender> = None;
        let mut appended = 0usize;
        let mut failure: Option<io::Error> = None;
        let mut closing = false;
        // Collect, appending as messages arrive so the fsync at the end
        // covers the whole batch.
        loop {
            match msg {
                Msg::Commit { rec, ack } => {
                    if failure.is_none() {
                        match backend.append(&rec) {
                            Ok(()) => appended += 1,
                            Err(e) => failure = Some(e),
                        }
                    }
                    if let Some(a) = ack {
                        if acks.is_empty() {
                            deadline = deadline.min(Instant::now() + last_fsync / 2);
                        }
                        acks.push(a);
                    }
                    if appended >= max_batch || failure.is_some() {
                        break;
                    }
                }
                Msg::Flush(a) => {
                    flush = Some(a);
                    break;
                }
                Msg::Close(a) => {
                    flush = Some(a);
                    closing = true;
                    break;
                }
            }
            // The close decision: once the expected company is here, take
            // what is already staged and go; until then sleep for more, up
            // to the deadline. Either way not before the pacing point
            // (the deadline of a batch nobody waits on lies beyond it).
            // What was staged during the sleep without waking the thread
            // is taken at its end, so the fsync covers it.
            let until = if !acks.is_empty() && acks.len() >= target {
                pace_until
            } else {
                deadline.max(pace_until)
            };
            let room = max_batch - appended;
            match inbox.recv(Park::Dwell { until, room }) {
                Some(m) => msg = m,
                None => break,
            }
        }

        // Seeded bug for the durability oracle's self-test: acknowledge
        // before the fsync that is supposed to cover the record.
        #[cfg(feature = "mutation-hooks")]
        if calc_common::mutation::armed(calc_common::mutation::Mutation::AckBeforeFsync) {
            for ack in acks.drain(..) {
                let _ = ack.send(Ok(()));
            }
        }
        let fsync_started = Instant::now();
        pace_until = fsync_started + config.window / 2;
        if failure.is_none() {
            if let Err(e) =
                sync_with_retry(backend.as_mut(), &config, read_only, &read_only_observer, stats)
            {
                failure = Some(e);
            }
        } else if let Some(e) = &failure {
            // Append failures are fatal regardless (see module docs), but
            // an ENOSPC append still raises the read-only flag so the
            // operator-facing story (free space, shed writes) is the same.
            if is_enospc(e) && !read_only.swap(true, Ordering::AcqRel) {
                stats.enospc_entries.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &read_only_observer {
                    obs(true);
                }
            }
        }
        match failure {
            None => {
                last_fsync = fsync_started.elapsed();
                prev_waiters = acks.len();
                // Stats and the observer run before the acks, so a waiter
                // that saw its acknowledgement also sees its batch counted.
                if appended > 0 {
                    stats.batches.fetch_add(1, Ordering::Relaxed);
                    stats.records.fetch_add(appended as u64, Ordering::Relaxed);
                    if let Some(obs) = &observer {
                        obs(appended, fsync_started - opened, last_fsync);
                    }
                }
                for ack in acks.into_iter().chain(flush) {
                    let _ = ack.send(Ok(()));
                }
                if closing {
                    return;
                }
            }
            Some(_) => {
                // The log is broken: stop persisting, fail this batch's
                // waiters, and go. Dropping the inbox closes the stream
                // and fails whatever was staged behind the batch, so
                // queued and future tickets observe a dead logger
                // immediately instead of wedging until timeout — and
                // nothing piles up unread.
                shared.dead.store(true, Ordering::Release);
                for ack in acks.into_iter().chain(flush) {
                    let _ = ack.send(Err(SyncError::LoggerDied));
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    use calc_common::simfs::{SimVfs, TransientKind, TransientSpec};
    use calc_common::types::{CommitSeq, TxnId};
    use calc_txn::proc::ProcId;

    use crate::logfile::read_dir_logs;

    fn rec(seq: u64) -> CommitRecord {
        CommitRecord {
            seq: CommitSeq(seq),
            txn: TxnId(seq),
            proc: ProcId(1),
            params: std::sync::Arc::from(seq.to_le_bytes().to_vec().into_boxed_slice()),
        }
    }

    fn seg_backend(vfs: &SimVfs, dir: &str) -> Box<dyn LogBackend> {
        Box::new(
            SegmentedLogWriter::create(
                std::sync::Arc::new(vfs.clone()),
                &PathBuf::from(dir),
                1 << 20,
            )
            .unwrap(),
        )
    }

    /// A backend whose `sync` outcome is scripted per attempt and whose
    /// calls are counted. SimVfs transients only cover data ops
    /// (writes/creates), never fsyncs, so sync-retry behaviour — and every
    /// "how many fsyncs" assertion — needs its own harness.
    struct ScriptedSyncBackend {
        inner: Box<dyn LogBackend>,
        /// Returns `Some(err)` to fail this sync attempt, `None` to let
        /// it through; may block or sleep first. Called once per attempt,
        /// in order.
        script: Box<dyn FnMut(u64) -> Option<io::Error> + Send>,
        appends: std::sync::Arc<AtomicU64>,
        attempts: std::sync::Arc<AtomicU64>,
    }

    impl LogBackend for ScriptedSyncBackend {
        fn append(&mut self, rec: &CommitRecord) -> io::Result<()> {
            self.inner.append(rec)?;
            self.appends.fetch_add(1, Ordering::Release);
            Ok(())
        }
        fn sync(&mut self) -> io::Result<()> {
            let n = self.attempts.fetch_add(1, Ordering::Release);
            if let Some(e) = (self.script)(n) {
                return Err(e);
            }
            self.inner.sync()
        }
    }

    /// A latch the test holds to keep an fsync in flight: `sync` calls
    /// park in `pass` while it is held.
    #[derive(Default)]
    struct Gate {
        held: parking_lot::Mutex<bool>,
        changed: parking_lot::Condvar,
    }

    impl Gate {
        fn set(&self, held: bool) {
            *self.held.lock() = held;
            self.changed.notify_all();
        }
        fn pass(&self) {
            let mut held = self.held.lock();
            while *held {
                self.changed.wait(&mut held);
            }
        }
    }

    /// The harness of the close-rule tests: a committer over a backend
    /// whose fsyncs park on `gate` (after `sync_delay`) and are counted.
    struct Gated {
        gc: GroupCommitter,
        gate: std::sync::Arc<Gate>,
        appends: std::sync::Arc<AtomicU64>,
        syncs: std::sync::Arc<AtomicU64>,
        vfs: SimVfs,
        dir: PathBuf,
    }

    impl Gated {
        /// Whether the sync thread sleeps on an open batch — from here on
        /// only a message that passes the wake rule gets it to look.
        fn dwelling(&self) -> bool {
            matches!(self.gc.shared.staged.lock().parked, Park::Dwell { .. })
        }

        /// Returns once the sync thread is parked with no batch open, so
        /// that the next message is the one that wakes it.
        fn await_idle(&self) {
            eventually("sync thread parked idle", || {
                matches!(self.gc.shared.staged.lock().parked, Park::Idle)
            });
        }

        /// Submits `seq` fire-and-forget into an idle log and returns once
        /// the sync thread has appended it and gone to sleep on the batch.
        fn open_batch(&self, seq: u64) {
            self.await_idle();
            let appended = self.appends.load(Ordering::Acquire);
            self.gc.submit(rec(seq));
            eventually("opener appended, thread dwelling", || {
                self.appends.load(Ordering::Acquire) == appended + 1 && self.dwelling()
            });
        }

        /// The seqs on disk, in log order.
        fn logged(&self) -> Vec<u64> {
            let records = read_dir_logs(&self.vfs, &self.dir).unwrap();
            records.into_iter().map(|r| r.seq.0).collect()
        }
    }

    fn gated(dir: &str, window: Duration, max_batch: usize, sync_delay: Duration) -> Gated {
        let gate = std::sync::Arc::new(Gate::default());
        let appends = std::sync::Arc::new(AtomicU64::new(0));
        let syncs = std::sync::Arc::new(AtomicU64::new(0));
        let script_gate = gate.clone();
        let vfs = SimVfs::new(0x6C0_1111);
        let backend = Box::new(ScriptedSyncBackend {
            inner: seg_backend(&vfs, dir),
            script: Box::new(move |_| {
                std::thread::sleep(sync_delay);
                script_gate.pass();
                None
            }),
            appends: appends.clone(),
            attempts: syncs.clone(),
        });
        let config = GroupCommitConfig {
            window,
            max_batch,
            ..Default::default()
        };
        Gated {
            gc: GroupCommitter::start(backend, config, None),
            gate,
            appends,
            syncs,
            vfs,
            dir: PathBuf::from(dir),
        }
    }

    /// Polls `cond` (an event another thread is about to cause) with a
    /// generous deadline.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "never happened: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    const LONG: Duration = Duration::from_secs(30);

    /// The fsync in flight is the batching window: N commits queued while
    /// fsync k is held share exactly one fsync k + 1 — counted through
    /// the gated backend, not inferred from timing.
    #[test]
    fn commits_queued_behind_an_inflight_fsync_share_the_next_one() {
        const N: u64 = 16;
        let h = gated("/gc/share-next", Duration::from_millis(200), 1 << 20, Duration::ZERO);
        h.gate.set(true);
        let first = h.gc.submit_durable(rec(1));
        eventually("fsync 1 in flight", || h.syncs.load(Ordering::Acquire) == 1);
        let tickets: Vec<_> = (2..=N + 1).map(|i| h.gc.submit_durable(rec(i))).collect();
        h.gate.set(false);
        first.wait(LONG).expect("fsync 1 acknowledged");
        for t in tickets {
            t.wait(LONG).expect("fsync 2 acknowledged");
        }
        assert_eq!(h.syncs.load(Ordering::Acquire), 2, "N queued commits, one fsync");
        assert_eq!(h.gc.batches(), 2);
        assert_eq!(h.gc.records(), N + 1);
    }

    /// No timer on an idle committer's path: a lone durable commit under
    /// a 5 s window is acknowledged after exactly one fsync, at once.
    #[test]
    fn lone_durable_commit_is_one_fsync_without_the_window() {
        let window = Duration::from_secs(5);
        let h = gated("/gc/lone", window, 1 << 20, Duration::ZERO);
        let started = Instant::now();
        h.gc.submit_durable(rec(1)).wait(LONG).unwrap();
        assert_eq!(h.syncs.load(Ordering::Acquire), 1);
        assert!(
            started.elapsed() < window / 4,
            "a lone commit must not wait for the window, took {:?}",
            started.elapsed()
        );
    }

    /// Pacing: back-to-back waited commits get one fsync each, started
    /// no closer than half a window apart — and a commit that finds the
    /// log idle for longer than that is not held at all.
    #[test]
    fn waited_fsyncs_are_paced_half_a_window_apart() {
        const N: u32 = 5;
        let window = Duration::from_millis(100);
        let h = gated("/gc/paced", window, 1 << 20, Duration::ZERO);
        let started = Instant::now();
        for i in 1..=N {
            h.gc.submit_durable(rec(i as u64)).wait(LONG).unwrap();
        }
        assert_eq!(h.syncs.load(Ordering::Acquire), N as u64);
        assert!(
            started.elapsed() >= (N - 1) * (window / 2),
            "{N} fsyncs in {:?}: closer than window / 2 apart",
            started.elapsed()
        );
        std::thread::sleep(window / 2);
        let idle = Instant::now();
        h.gc.submit_durable(rec(N as u64 + 1)).wait(LONG).unwrap();
        assert!(idle.elapsed() < window / 4, "held after an idle spell: {:?}", idle.elapsed());
    }

    /// A batch nobody waits on keeps the dwell: N fire-and-forget
    /// submissions inside one window are one fsync, fired by the window.
    #[test]
    fn unwaited_batch_dwells_and_is_one_fsync_at_the_window() {
        const N: u64 = 16;
        let h = gated("/gc/dwell", Duration::from_millis(200), 1 << 20, Duration::ZERO);
        for i in 1..=N {
            h.gc.submit(rec(i));
        }
        eventually("window fsync", || h.gc.batches() == 1);
        assert_eq!(h.syncs.load(Ordering::Acquire), 1);
        assert_eq!(h.gc.records(), N, "the one fsync covered every submission");
    }

    /// A drained queue does not close a batch nobody waits on, but a
    /// waiter arriving into it does — long before the window.
    #[test]
    fn waiter_closes_an_open_unwaited_batch_before_the_window() {
        const N: u64 = 8;
        let h = gated("/gc/switch", Duration::from_secs(60), 1 << 20, Duration::ZERO);
        for i in 1..=N {
            h.gc.submit(rec(i));
        }
        eventually("queue drained", || h.appends.load(Ordering::Acquire) == N);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(h.syncs.load(Ordering::Acquire), 0, "still dwelling");
        h.gc.submit_durable(rec(N + 1)).wait(LONG).unwrap();
        assert_eq!(h.syncs.load(Ordering::Acquire), 1);
        assert_eq!(h.gc.batches(), 1, "the waiter joined the open batch");
        assert_eq!(h.gc.records(), N + 1);
    }

    /// The alternation trap, as a ratio of two counters: two closed-loop
    /// committers over a slow fsync must pair up (2 records per fsync),
    /// not take turns waiting out each other's fsync (1 per fsync, which
    /// is what closing on a drained queue alone settles into). The fsync
    /// outlasts half the window, so pacing never holds a batch here: the
    /// pairing is the evidence rule's.
    #[test]
    fn two_closed_loop_committers_pair_up() {
        const ROUNDS: u64 = 150;
        let h = gated("/gc/pairing", Duration::from_millis(2), 1 << 20, Duration::from_millis(1));
        let seq = parking_lot::Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        let ticket = {
                            let mut next = seq.lock();
                            *next += 1;
                            h.gc.submit_durable(rec(*next))
                        };
                        ticket.wait(LONG).unwrap();
                    }
                });
            }
        });
        let per_fsync = h.gc.records() as f64 / h.gc.batches() as f64;
        assert_eq!(h.gc.records(), 2 * ROUNDS);
        assert!(
            per_fsync >= 1.8,
            "two closed-loop committers fell into alternation: {per_fsync:.2} records per fsync"
        );
    }

    /// max_batch = 1 degenerates to per-commit fsync — the baseline the
    /// server benchmark compares against — even for commits that queued
    /// up behind an fsync in flight.
    #[test]
    fn max_batch_one_fsyncs_per_commit() {
        let h = gated("/gc/per-commit", Duration::from_millis(50), 1, Duration::ZERO);
        h.gate.set(true);
        let first = h.gc.submit_durable(rec(1));
        eventually("fsync 1 in flight", || h.syncs.load(Ordering::Acquire) == 1);
        let tickets: Vec<_> = (2..=5u64).map(|i| h.gc.submit_durable(rec(i))).collect();
        h.gate.set(false);
        for t in std::iter::once(first).chain(tickets) {
            t.wait(LONG).unwrap();
        }
        assert_eq!(h.syncs.load(Ordering::Acquire), 5);
        assert_eq!(h.gc.batches(), 5);
    }

    /// Wake rule (a): fire-and-forget records landing in an open batch
    /// wake nobody. The batch is one fsync, at `opener + window`, and it
    /// covers every one of them, in order.
    #[test]
    fn fire_and_forget_records_into_an_open_batch_wake_nobody() {
        const N: u64 = 200;
        let window = Duration::from_millis(200);
        let h = gated("/gc/quiet", window, 1 << 20, Duration::ZERO);
        let opened = Instant::now();
        h.open_batch(1);
        assert_eq!(h.gc.wakeups(), 1, "the opener wakes the idle thread");
        for i in 2..=N + 1 {
            h.gc.submit(rec(i));
        }
        assert_eq!(h.gc.wakeups(), 1, "{N} records into the open batch: pushes only");
        eventually("window fsync", || h.gc.batches() == 1);
        assert!(opened.elapsed() >= window, "closed before opener + window");
        assert_eq!(h.gc.wakeups(), 1, "the thread woke at its own deadline");
        assert_eq!(h.syncs.load(Ordering::Acquire), 1);
        assert_eq!(h.appends.load(Ordering::Acquire), N + 1);
        assert_eq!(h.logged(), (1..=N + 1).collect::<Vec<_>>());
    }

    /// Wake rule (b): a waiter arriving mid-dwell wakes the thread at
    /// once, and the fsync that resolves its ticket covers every record
    /// staged before it, in order.
    #[test]
    fn waiter_mid_dwell_wakes_at_once_and_covers_what_was_staged_before_it() {
        const N: u64 = 50;
        let h = gated("/gc/waiter-wakes", Duration::from_secs(60), 1 << 20, Duration::ZERO);
        h.open_batch(1);
        for i in 2..=N {
            h.gc.submit(rec(i));
        }
        assert_eq!(h.gc.wakeups(), 1);
        h.gc.submit_durable(rec(N + 1)).wait(LONG).unwrap();
        assert_eq!(h.gc.wakeups(), 2, "the waiter, and only the waiter, woke the dwell");
        assert_eq!(h.syncs.load(Ordering::Acquire), 1);
        assert_eq!(h.gc.batches(), 1);
        assert_eq!(h.logged(), (1..=N + 1).collect::<Vec<_>>());
    }

    /// Wake rule (c): the staged count reaching the room left under
    /// `max_batch` wakes the thread with no waiter on board.
    #[test]
    fn staged_records_filling_the_batch_wake_without_a_waiter() {
        const MAX: u64 = 8;
        let h = gated("/gc/room", Duration::from_secs(60), MAX as usize, Duration::ZERO);
        h.open_batch(1);
        for i in 2..MAX {
            h.gc.submit(rec(i));
        }
        assert_eq!(h.gc.wakeups(), 1, "one short of the cap: still asleep");
        h.gc.submit(rec(MAX));
        assert_eq!(h.gc.wakeups(), 2, "the record that fills the batch wakes");
        eventually("cap fsync", || h.gc.batches() == 1);
        assert_eq!(h.syncs.load(Ordering::Acquire), 1);
        assert_eq!(h.gc.records(), MAX);
    }

    /// Wake rule (d): whatever is staged while an fsync is in flight —
    /// waited on or not — wakes nobody, and all of it shares the next
    /// fsync.
    #[test]
    fn records_staged_behind_an_inflight_fsync_wake_nobody() {
        const N: u64 = 32;
        let h = gated("/gc/busy", Duration::from_millis(20), 1 << 20, Duration::ZERO);
        h.await_idle();
        h.gate.set(true);
        let first = h.gc.submit_durable(rec(1));
        eventually("fsync 1 in flight", || h.syncs.load(Ordering::Acquire) == 1);
        for i in 2..=N {
            h.gc.submit(rec(i));
        }
        let last = h.gc.submit_durable(rec(N + 1));
        assert_eq!(h.gc.wakeups(), 1, "the thread is not parked: nothing to wake");
        h.gate.set(false);
        first.wait(LONG).unwrap();
        last.wait(LONG).unwrap();
        assert_eq!(h.gc.wakeups(), 1, "it found the staged records by itself");
        assert_eq!(h.syncs.load(Ordering::Acquire), 2);
        assert_eq!(h.gc.batches(), 2);
        assert_eq!(h.logged(), (1..=N + 1).collect::<Vec<_>>());
    }

    /// Wake rule (e): a flush and a close each wake the dwell, and each
    /// covers the fire-and-forget records staged ahead of it.
    #[test]
    fn flush_and_close_cover_records_staged_ahead_of_them() {
        const N: u64 = 20;
        let h = gated("/gc/covers", Duration::from_secs(60), 1 << 20, Duration::ZERO);
        h.open_batch(1);
        for i in 2..=N {
            h.gc.submit(rec(i));
        }
        h.gc.flush().wait(LONG).unwrap();
        assert_eq!(h.logged(), (1..=N).collect::<Vec<_>>());
        h.open_batch(N + 1);
        for i in N + 2..=2 * N {
            h.gc.submit(rec(i));
        }
        h.gc.close();
        assert_eq!(h.logged(), (1..=2 * N).collect::<Vec<_>>());
        assert_eq!(h.gc.wakeups(), 4, "two openers, the flush, the close");
        assert_eq!(h.syncs.load(Ordering::Acquire), 2);
    }

    /// A dead logger stages nothing: fire-and-forget records submitted to
    /// it are dropped and counted, not parked in a queue nobody reads,
    /// and nobody is woken for them.
    #[test]
    fn dead_logger_stages_nothing_and_wakes_nobody() {
        let vfs = SimVfs::new(0x6C0_DEAD);
        let backend = seg_backend(&vfs, "/gc/dead-stages-nothing");
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::WriteError,
            from: vfs.counts().data_ops(),
            count: u64::MAX,
        });
        let gc = GroupCommitter::start(backend, fast_retry_config(), None);
        let killed = gc.submit_durable(rec(1)).wait(LONG);
        assert_eq!(killed, Err(SyncError::LoggerDied));
        eventually("stream closed behind the death", || gc.shared.staged.lock().closed);
        let wakeups = gc.wakeups();
        for i in 2..=1_001u64 {
            gc.submit(rec(i));
        }
        assert_eq!(gc.shared.staged.lock().msgs.len(), 0, "nothing staged");
        assert_eq!(gc.wakeups(), wakeups, "nobody woken");
        assert_eq!(gc.dropped_after_close(), 1_000);
        assert_eq!(gc.submit_durable(rec(1_002)).wait(LONG), Err(SyncError::LoggerExited));
        assert_eq!(gc.flush().wait(LONG), Err(SyncError::LoggerExited));
    }

    /// A submit behind `close()` is not silent: the fire-and-forget record
    /// is counted as dropped, the durable one gets a failed ticket, and
    /// neither reaches the queue.
    #[test]
    fn submit_after_close_is_counted_and_its_ticket_is_dead() {
        let vfs = SimVfs::new(0x6C0_C105E);
        let gc = GroupCommitter::start(
            seg_backend(&vfs, "/gc/after-close"),
            fast_retry_config(),
            None,
        );
        gc.submit(rec(1));
        gc.close();
        assert_eq!(gc.dropped_after_close(), 0);
        gc.submit(rec(2));
        assert_eq!(gc.dropped_after_close(), 1);
        assert_eq!(gc.submit_durable(rec(3)).wait(LONG), Err(SyncError::LoggerExited));
        assert_eq!(gc.flush().wait(LONG), Err(SyncError::LoggerExited));
        assert_eq!(gc.shared.staged.lock().msgs.len(), 0);
        assert!(!gc.is_dead(), "closed, not dead");
        let recovered = read_dir_logs(&vfs, &PathBuf::from("/gc/after-close")).unwrap();
        assert_eq!(recovered.len(), 1, "only what was submitted before the close");
    }

    /// However the sync thread goes, the stream closes behind it: a
    /// backend that panics takes the thread down without an I/O error,
    /// and still the ticket in flight fails, nothing more is staged, and
    /// `close` (which `Drop` runs) returns instead of waiting on a queue
    /// nobody reads.
    #[test]
    fn a_panicking_sync_thread_closes_the_stream_behind_it() {
        let backend = Box::new(ScriptedSyncBackend {
            inner: seg_backend(&SimVfs::new(0x6C0_BAD), "/gc/panic"),
            script: Box::new(|_| panic!("backend bug (expected by this test)")),
            appends: Default::default(),
            attempts: Default::default(),
        });
        let gc = GroupCommitter::start(backend, fast_retry_config(), None);
        assert_eq!(gc.submit_durable(rec(1)).wait(LONG), Err(SyncError::LoggerDied));
        eventually("stream closed behind the panic", || gc.shared.staged.lock().closed);
        assert_eq!(gc.submit_durable(rec(2)).wait(LONG), Err(SyncError::LoggerExited));
        gc.close();
    }

    /// Dead-sync-thread regression: after an append I/O error every
    /// waiter — batched, queued, and future — gets the typed
    /// `SyncError::LoggerDied`/`LoggerExited`, and nothing wedges.
    #[test]
    fn dead_sync_thread_fails_all_waiters_typed() {
        let vfs = SimVfs::new(0x6C0_3333);
        let backend = seg_backend(&vfs, "/gc/dead");
        // Every data write from here on fails: the first batch kills the
        // sync thread.
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::WriteError,
            from: vfs.counts().data_ops(),
            count: u64::MAX,
        });
        let gc = std::sync::Arc::new(GroupCommitter::start(
            backend,
            GroupCommitConfig {
                window: Duration::from_millis(20),
                max_batch: 1 << 20,
                ..Default::default()
            },
            None,
        ));
        let waits: Vec<_> = (0..8u64)
            .map(|i| {
                let gc = gc.clone();
                std::thread::spawn(move || {
                    gc.submit_durable(rec(i + 1)).wait(Duration::from_secs(30))
                })
            })
            .collect();
        for w in waits {
            let r = w.join().unwrap();
            assert!(
                matches!(r, Err(SyncError::LoggerDied) | Err(SyncError::LoggerExited)),
                "waiter must observe a typed logger death, got {r:?}"
            );
        }
        // The dead flag is published; later submissions fail fast.
        eventually("dead flag published", || gc.is_dead());
        let r = gc.submit_durable(rec(99)).wait(Duration::from_secs(5));
        assert!(matches!(
            r,
            Err(SyncError::LoggerExited) | Err(SyncError::LoggerDied)
        ));
        let r = gc.flush().wait(Duration::from_secs(5));
        assert!(matches!(
            r,
            Err(SyncError::LoggerExited) | Err(SyncError::LoggerDied)
        ));
        assert_eq!(gc.records(), 0, "no record may be counted durable");
    }

    /// The flush handshake closes the window early: everything enqueued
    /// before the flush is durable when the ticket resolves, without
    /// waiting out the deadline.
    #[test]
    fn flush_closes_batch_early_and_is_durable() {
        let vfs = SimVfs::new(0x6C0_4444);
        let backend = seg_backend(&vfs, "/gc/flush");
        let gc = GroupCommitter::start(
            backend,
            GroupCommitConfig {
                window: Duration::from_secs(60),
                max_batch: 1 << 20,
                ..Default::default()
            },
            None,
        );
        for i in 1..=10u64 {
            gc.submit(rec(i));
        }
        let start = Instant::now();
        gc.flush().wait(Duration::from_secs(30)).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "flush must not wait out the 60s window"
        );
        let recovered = read_dir_logs(&vfs, &PathBuf::from("/gc/flush")).unwrap();
        assert_eq!(recovered.len(), 10, "flushed records must be on disk");
    }

    /// The observer sees every non-empty batch with its record count and
    /// dwell — the engine's avg_batch_size/fsync_p99/dwell metrics ride on
    /// this.
    #[test]
    fn observer_reports_batch_sizes() {
        let vfs = SimVfs::new(0x6C0_5555);
        let backend = seg_backend(&vfs, "/gc/observer");
        let seen = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let gc = GroupCommitter::start(
            backend,
            GroupCommitConfig {
                window: Duration::from_secs(5),
                max_batch: 1 << 20,
                ..Default::default()
            },
            Some(Box::new(move |records, dwell, _fsync| {
                seen2.lock().push((records, dwell));
            })),
        );
        for i in 1..=7u64 {
            gc.submit(rec(i));
        }
        gc.flush().wait(Duration::from_secs(30)).unwrap();
        let batches = seen.lock().clone();
        assert_eq!(batches.iter().map(|(n, _)| n).sum::<usize>(), 7);
        assert!(!batches.is_empty());
        assert!(
            batches.iter().all(|(_, dwell)| *dwell < Duration::from_secs(5)),
            "the flush closed the batch: its dwell is opener → fsync, not the window"
        );
    }

    fn fast_retry_config() -> GroupCommitConfig {
        GroupCommitConfig {
            window: Duration::from_millis(5),
            max_batch: 1 << 20,
            sync_retries: 3,
            retry_base: Duration::from_millis(1),
            retry_cap: Duration::from_millis(4),
            retry_seed: 0x6C0_7777,
            enospc_window: Duration::from_secs(2),
        }
    }

    /// Graceful-degradation regression: a transient sync-error window
    /// (two failing fsync attempts, then healed) must not kill the
    /// committer or fail any durable ticket — the waiter just sees a
    /// slightly slower acknowledgement.
    #[test]
    fn transient_sync_window_heals_without_killing_committer() {
        let vfs = SimVfs::new(0x6C0_6666);
        let attempts = std::sync::Arc::new(AtomicU64::new(0));
        let backend = Box::new(ScriptedSyncBackend {
            inner: seg_backend(&vfs, "/gc/heal"),
            script: Box::new(|n| {
                (n < 2).then(|| io::Error::new(io::ErrorKind::Interrupted, "injected sync error"))
            }),
            appends: Default::default(),
            attempts: attempts.clone(),
        });
        let gc = GroupCommitter::start(backend, fast_retry_config(), None);
        gc.submit_durable(rec(1))
            .wait(Duration::from_secs(30))
            .expect("ticket must resolve Ok through the healed window");
        assert!(!gc.is_dead(), "a healed sync window must not kill the committer");
        assert!(!gc.read_only(), "non-ENOSPC errors never enter read-only mode");
        assert!(gc.sync_retries() >= 2, "both failed attempts counted as retries");
        assert_eq!(gc.records(), 1);
        // The committer keeps working normally afterwards.
        gc.submit_durable(rec(2))
            .wait(Duration::from_secs(30))
            .unwrap();
        drop(gc);
        let recovered = read_dir_logs(&vfs, &PathBuf::from("/gc/heal")).unwrap();
        assert_eq!(recovered.len(), 2, "every acknowledged record durable");
    }

    /// `close` works through a shared handle, makes what was enqueued
    /// durable, is idempotent, and returns even when it finds the batch
    /// it closes unsyncable (the close itself must end the dead drain).
    #[test]
    fn close_through_a_shared_handle_drains_and_survives_a_failed_final_sync() {
        let vfs = SimVfs::new(0x6C0_C105);
        let open_window = GroupCommitConfig {
            window: Duration::from_secs(60), // an unwaited batch stays open
            ..fast_retry_config()
        };
        let gc = std::sync::Arc::new(GroupCommitter::start(
            seg_backend(&vfs, "/gc/close"),
            open_window,
            None,
        ));
        gc.submit(rec(1));
        gc.submit(rec(2));
        gc.close();
        gc.close();
        let recovered = read_dir_logs(&vfs, &PathBuf::from("/gc/close")).unwrap();
        assert_eq!(recovered.len(), 2, "close fsyncs the open batch");
        let late = gc.submit_durable(rec(3)).wait(Duration::from_secs(30));
        assert!(
            matches!(late, Err(SyncError::LoggerExited | SyncError::LoggerDied)),
            "a closed logger fails fast, got {late:?}"
        );

        let backend = Box::new(ScriptedSyncBackend {
            inner: seg_backend(&vfs, "/gc/close-dead"),
            script: Box::new(|_| Some(io::Error::other("disk is gone"))),
            appends: Default::default(),
            attempts: Default::default(),
        });
        let gc = GroupCommitter::start(backend, open_window, None);
        gc.submit(rec(1));
        gc.close(); // hangs here if the dead drain waits for a second close
        assert!(gc.is_dead());
    }

    /// A *persistent* sync failure still yields the typed logger death —
    /// fast (bounded by sync_retries × retry_cap), not after wedging.
    #[test]
    fn persistent_sync_failure_dies_fast_and_typed() {
        let vfs = SimVfs::new(0x6C0_8888);
        let attempts = std::sync::Arc::new(AtomicU64::new(0));
        let backend = Box::new(ScriptedSyncBackend {
            inner: seg_backend(&vfs, "/gc/persistent"),
            script: Box::new(|_| {
                Some(io::Error::other("disk is gone"))
            }),
            appends: Default::default(),
            attempts: attempts.clone(),
        });
        let gc = GroupCommitter::start(backend, fast_retry_config(), None);
        let started = Instant::now();
        let r = gc.submit_durable(rec(1)).wait(Duration::from_secs(30));
        assert!(
            matches!(r, Err(SyncError::LoggerDied) | Err(SyncError::LoggerExited)),
            "persistent sync failure must surface the typed death, got {r:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "retries are bounded: death must be fast, took {:?}",
            started.elapsed()
        );
        // 1 initial + sync_retries attempts, then gave up.
        assert_eq!(attempts.load(Ordering::Relaxed), 4);
        assert_eq!(gc.sync_retries(), 3);
        assert_eq!(gc.records(), 0, "no record may be counted durable");
    }

    /// ENOSPC self-heal: while the disk is "full" the committer sits in
    /// read-only degraded mode (observer fired `true`); once space frees
    /// inside the window, the sync succeeds, the mode clears (observer
    /// fired `false`), and the pending durable ticket resolves Ok — zero
    /// acknowledged-write loss.
    #[test]
    fn enospc_enters_read_only_and_self_heals() {
        let vfs = SimVfs::new(0x6C0_9999);
        let full = std::sync::Arc::new(AtomicBool::new(true));
        let full2 = full.clone();
        let attempts = std::sync::Arc::new(AtomicU64::new(0));
        let backend = Box::new(ScriptedSyncBackend {
            inner: seg_backend(&vfs, "/gc/enospc"),
            script: Box::new(move |_| {
                full2
                    .load(Ordering::Acquire)
                    .then(|| io::Error::from_raw_os_error(28))
            }),
            appends: Default::default(),
            attempts: attempts.clone(),
        });
        let transitions = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let transitions2 = transitions.clone();
        let gc = std::sync::Arc::new(GroupCommitter::start_with(
            backend,
            fast_retry_config(),
            None,
            Some(Box::new(move |entering| {
                transitions2.lock().push(entering);
            })),
        ));
        let waiter = {
            let gc = gc.clone();
            std::thread::spawn(move || gc.submit_durable(rec(1)).wait(Duration::from_secs(30)))
        };
        // The committer must publish read-only mode while the disk is full.
        eventually("read-only mode published", || gc.read_only());
        assert!(!gc.is_dead(), "inside the ENOSPC window the committer lives");
        // "Free disk space": the next retry succeeds and heals the mode.
        full.store(false, Ordering::Release);
        waiter
            .join()
            .unwrap()
            .expect("durable ticket resolves Ok after the heal — no lost ack");
        assert!(!gc.read_only(), "healed sync must clear read-only mode");
        assert!(!gc.is_dead());
        assert_eq!(gc.enospc_entries(), 1);
        assert_eq!(
            transitions.lock().clone(),
            vec![true, false],
            "observer sees exactly one enter/heal pair"
        );
        drop(std::sync::Arc::try_unwrap(gc).unwrap_or_else(|_| panic!("sole owner")));
        let recovered = read_dir_logs(&vfs, &PathBuf::from("/gc/enospc")).unwrap();
        assert_eq!(recovered.len(), 1, "the acknowledged record is on disk");
    }
}
