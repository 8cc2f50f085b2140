//! Per-key lanes: how restart uses more than one core.
//!
//! A key's lane is the store index's own shard mix ([`shard_index`]), so
//! with a power-of-two lane count no two lanes ever touch one shard of the
//! index, and work on different lanes shares no lock word. A [`LanePool`]
//! applies the jobs handed to each lane in order: lane 0 on the calling
//! thread (the driver), every other lane on a thread of its own. The lane
//! threads start the first time the driver hands a job to another lane and
//! then live as long as the pool; until then the driver applies every job
//! itself, so a pass that never hands work off (an idle standby poll)
//! starts no thread. A job may hand further jobs to other lanes. Batches,
//! not items, cross threads, so a hand-off costs at most one wake-up per
//! batch. The driver doing lane 0's share keeps that share's allocations in
//! its own malloc arena, as a serial restart would.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::Scope;

use parking_lot::{Condvar, Mutex, MutexGuard};

use calc_common::types::Key;
use calc_storage::slots::shard_index;

/// Records or commands handed to a lane at a time.
pub const LANE_BATCH: usize = 256;

/// Jobs per lane thread the driver may hand off and not yet see applied
/// before it waits.
const LANE_DEPTH: usize = 4;

/// Applies a job on the given lane (the pool is passed along so a job can
/// hand more to other lanes).
type Apply<'a, B> = &'a (dyn Fn(&LanePool<'a, B>, usize, B) + Sync);

/// The lane `key` belongs to among `lanes`.
pub(crate) fn key_lane(key: Key, lanes: usize) -> usize {
    shard_index(key, usize::MAX) % lanes
}

/// The lanes and what their threads share. See module docs.
pub(crate) struct LanePool<'a, B> {
    apply: Apply<'a, B>,
    /// Lanes 1.., one thread each.
    queues: Vec<LaneQueue<B>>,
    /// Whether the lane threads run.
    started: AtomicBool,
    shared: Mutex<Shared<B>>,
    /// Signalled when a lane thread finishes a job, and when a job is
    /// queued for lane 0.
    progress: Condvar,
}

struct LaneQueue<B> {
    /// Jobs not yet taken, and whether the pool is shutting down.
    jobs: Mutex<(VecDeque<B>, bool)>,
    ready: Condvar,
}

struct Shared<B> {
    /// Jobs handed to a lane other than the sender's and not yet applied.
    in_flight: usize,
    /// Jobs lane threads handed to lane 0, applied when the driver waits.
    lane0: VecDeque<B>,
    /// A lane thread panicked: what it was handed may never count as
    /// applied, so no one waits any more (the panic resurfaces at the
    /// join).
    panicked: bool,
}

/// The driver's handle on a running pool: lane 0, and the scope the lane
/// threads start in.
pub(crate) struct Driver<'s, 'e, 'a, B> {
    pool: &'e LanePool<'a, B>,
    scope: &'s Scope<'s, 'e>,
}

impl<'a, B: Send> LanePool<'a, B> {
    /// Runs `driver` as lane 0 of a pool of `lanes` lanes that apply each
    /// job with `apply`, and joins the lane threads, if they started, once
    /// it returns.
    pub(crate) fn run<R>(
        lanes: usize,
        apply: Apply<'a, B>,
        driver: impl FnOnce(&Driver<'_, '_, 'a, B>) -> R,
    ) -> R {
        let pool = LanePool {
            apply,
            queues: (1..lanes.max(1))
                .map(|_| LaneQueue {
                    jobs: Mutex::new((VecDeque::new(), false)),
                    ready: Condvar::new(),
                })
                .collect(),
            started: AtomicBool::new(false),
            shared: Mutex::new(Shared {
                in_flight: 0,
                lane0: VecDeque::new(),
                panicked: false,
            }),
            progress: Condvar::new(),
        };
        std::thread::scope(|scope| {
            // Closes the queues however the driver leaves, so the scope
            // never waits on a lane thread parked for more work.
            let _close = Close(&pool.queues);
            driver(&Driver { pool: &pool, scope })
        })
    }

    /// Number of lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.queues.len() + 1
    }

    /// Hands `job` to `lane` from lane `from` (the driver is lane 0). A job
    /// for the sender's own lane, or any job before the lane threads
    /// start, is applied on the spot. The driver waits, applying what lane
    /// 0 was handed, until fewer than [`LANE_DEPTH`] jobs per lane thread
    /// are in flight; a lane thread never waits.
    pub(crate) fn send(&self, from: usize, lane: usize, job: B) {
        if lane == from || !self.started.load(Ordering::Relaxed) {
            return (self.apply)(self, lane, job);
        }
        let mut shared = match from {
            0 => self.wait(|s| s.in_flight < LANE_DEPTH * self.queues.len()),
            _ => self.shared.lock(),
        };
        shared.in_flight += 1;
        if lane == 0 {
            shared.lane0.push_back(job);
            drop(shared);
            return self.progress.notify_all();
        }
        drop(shared);
        let queue = &self.queues[lane - 1];
        queue.jobs.lock().0.push_back(job);
        queue.ready.notify_one();
    }

    /// Applies the jobs queued for `lane` right now. A long job on that
    /// lane calls it now and then, so what other lanes hand it does not
    /// pile up meanwhile.
    pub(crate) fn help(&self, lane: usize) {
        loop {
            let job = match lane {
                0 => self.shared.lock().lane0.pop_front(),
                _ => self.queues[lane - 1].jobs.lock().0.pop_front(),
            };
            let Some(job) = job else { return };
            let _done = Applied(self);
            (self.apply)(self, lane, job);
        }
    }

    /// The driver's wait for `done`, applying lane 0's jobs meanwhile.
    fn wait(&self, done: impl Fn(&Shared<B>) -> bool) -> MutexGuard<'_, Shared<B>> {
        loop {
            self.help(0);
            let mut shared = self.shared.lock();
            if shared.lane0.is_empty() {
                if done(&shared) || shared.panicked {
                    return shared;
                }
                self.progress.wait(&mut shared);
            }
        }
    }
}

impl<B: Send> Driver<'_, '_, '_, B> {
    /// Number of lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.pool.lanes()
    }

    /// Hands `job` to `lane` from lane 0 ([`LanePool::send`]). The first
    /// job for another lane starts the lane threads.
    pub(crate) fn send(&self, lane: usize, job: B) {
        if lane != 0 && !self.pool.started.swap(true, Ordering::Relaxed) {
            for (lane, queue) in (1..).zip(&self.pool.queues) {
                let pool = self.pool;
                self.scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        let _done = Applied(pool);
                        (pool.apply)(pool, lane, job);
                    }
                });
            }
        }
        self.pool.send(0, lane, job)
    }

    /// The driver's barrier: applies what lane 0 was handed until every
    /// job handed off so far, and every job those handed on, is applied.
    pub(crate) fn drain(&self) {
        drop(self.pool.wait(|s| s.in_flight == 0));
    }
}

impl<B> LaneQueue<B> {
    /// The next job; `None` once the pool is shutting down and the queue
    /// is empty.
    fn pop(&self) -> Option<B> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.0.pop_front() {
                return Some(job);
            }
            if jobs.1 {
                return None;
            }
            self.ready.wait(&mut jobs);
        }
    }
}

/// Counts a handed-off job applied when its application ends, normally or
/// by a panic.
struct Applied<'p, 'a, B>(&'p LanePool<'a, B>);

impl<B> Drop for Applied<'_, '_, B> {
    fn drop(&mut self) {
        let mut shared = self.0.shared.lock();
        shared.in_flight -= 1;
        shared.panicked |= std::thread::panicking();
        drop(shared);
        self.0.progress.notify_all();
    }
}

struct Close<'q, B>(&'q [LaneQueue<B>]);

impl<B> Drop for Close<'_, B> {
    fn drop(&mut self) {
        for queue in self.0 {
            queue.jobs.lock().1 = true;
            queue.ready.notify_one();
        }
    }
}
