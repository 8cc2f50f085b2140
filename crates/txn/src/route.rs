//! Shard-footprint routing for the thread-per-core executor.
//!
//! The shard-owned executor assigns every worker thread a disjoint set of
//! shards and routes each transaction to the worker(s) owning its
//! pre-declared lock footprint ([`crate::proc::LockRequest`] — known
//! before dispatch, the same property that makes ordered 2PL
//! deadlock-free). The partitioning must line up with the rest of the
//! system or the executor's "ownership" would be a fiction:
//!
//! * **key → shard** is `key % num_shards`, a pure function of the key:
//!   anything that partitions logged commands by footprint (a
//!   shard-parallel replay, ROADMAP item 2) can use it as is.
//! * **shard → worker** is contiguous striping with the same arithmetic
//!   as `calc-core::partition::ShardPartition`: worker `k` owns stripe
//!   `k` of `0..num_shards`, stripes differ in size by at most one, and
//!   the first `num_shards % workers` stripes get the extra shard. The
//!   engine cross-checks this equivalence in its tests so the two
//!   formulas cannot drift apart silently.
//!
//! A transaction whose whole footprint lands on one worker runs
//! **lock-free**: the owner executes it serially, so no other thread can
//! touch those shards concurrently and per-key latching is unnecessary.
//! A footprint spanning several owners takes the cross-shard fence path
//! (see the engine), which briefly parks the other involved owners.

use calc_common::types::Key;

use crate::proc::LockRequest;

/// Where a transaction must execute, derived from its lock footprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Every key is owned by one worker: run serially on that worker,
    /// lock-free.
    Single(usize),
    /// The footprint spans several owners (sorted, deduplicated,
    /// `len >= 2`): the lowest-indexed owner coordinates a fence.
    Cross(Vec<usize>),
    /// Empty footprint (e.g. a parameterless procedure): no shard to own,
    /// routed to worker 0 and counted as a routing fallback.
    Unrouted,
}

impl Route {
    /// The worker the request is dispatched to: the single owner, the
    /// cross-shard coordinator (lowest involved owner), or worker 0.
    pub fn dispatch_worker(&self) -> usize {
        match self {
            Route::Single(w) => *w,
            Route::Cross(ws) => ws[0],
            Route::Unrouted => 0,
        }
    }
}

/// Maps keys to shards and shards to owning workers for the shard-owned
/// executor. Immutable after construction; shared by the submission path
/// (classification) and the workers (ownership asserts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    workers: usize,
    shards: usize,
}

impl ShardRouter {
    /// A router for `workers` worker threads with `shards_per_worker`
    /// shards each (both clamped to at least 1).
    pub fn new(workers: usize, shards_per_worker: usize) -> Self {
        let workers = workers.max(1);
        ShardRouter {
            workers,
            shards: workers * shards_per_worker.max(1),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total shard count (`workers * shards_per_worker`).
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: `key % num_shards`.
    #[inline]
    pub fn shard_of(&self, key: Key) -> usize {
        (key.0 as usize) % self.shards
    }

    /// The worker owning `shard`: contiguous striping identical to
    /// `ShardPartition::over(num_shards, workers)` — the inverse of its
    /// `range(k)`.
    #[inline]
    pub fn owner_of_shard(&self, shard: usize) -> usize {
        debug_assert!(shard < self.shards);
        let base = self.shards / self.workers;
        let rem = self.shards % self.workers;
        let fat = rem * (base + 1);
        if shard < fat {
            shard / (base + 1)
        } else {
            rem + (shard - fat) / base
        }
    }

    /// The worker owning `key`.
    #[inline]
    pub fn owner_of_key(&self, key: Key) -> usize {
        self.owner_of_shard(self.shard_of(key))
    }

    /// Classifies a lock footprint: one owning worker (lock-free serial
    /// execution), several owners (fence path), or no keys at all.
    pub fn classify(&self, request: &LockRequest) -> Route {
        let mut first: Option<usize> = None;
        let mut owners: Vec<usize> = Vec::new();
        for &key in request.writes.iter().chain(request.reads.iter()) {
            let owner = self.owner_of_key(key);
            match first {
                None => first = Some(owner),
                Some(f) if f == owner => {}
                Some(f) => {
                    if owners.is_empty() {
                        owners.push(f);
                    }
                    if !owners.contains(&owner) {
                        owners.push(owner);
                    }
                }
            }
        }
        match (first, owners.is_empty()) {
            (None, _) => Route::Unrouted,
            (Some(w), true) => Route::Single(w),
            (Some(_), false) => {
                owners.sort_unstable();
                Route::Cross(owners)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(reads: &[u64], writes: &[u64]) -> LockRequest {
        LockRequest {
            reads: reads.iter().copied().map(Key).collect(),
            writes: writes.iter().copied().map(Key).collect(),
        }
    }

    #[test]
    fn shard_is_the_key_modulo_the_shard_count() {
        let r = ShardRouter::new(3, 4);
        assert_eq!(r.num_shards(), 12);
        for k in 0..100u64 {
            assert_eq!(r.shard_of(Key(k)), (k as usize) % 12);
        }
    }

    #[test]
    fn owner_striping_covers_all_shards_disjointly() {
        for workers in [1usize, 2, 3, 5, 8] {
            for spw in [1usize, 2, 7] {
                let r = ShardRouter::new(workers, spw);
                let mut counts = vec![0usize; workers];
                let mut last_owner = 0;
                for s in 0..r.num_shards() {
                    let o = r.owner_of_shard(s);
                    assert!(o < workers);
                    // Contiguous striping: owner index is monotone in s.
                    assert!(o >= last_owner, "stripes must be contiguous");
                    last_owner = o;
                    counts[o] += 1;
                }
                let max = *counts.iter().max().unwrap();
                let min = *counts.iter().min().unwrap();
                assert!(max - min <= 1, "imbalanced stripes: {counts:?}");
                assert_eq!(counts.iter().sum::<usize>(), r.num_shards());
            }
        }
    }

    #[test]
    fn single_shard_sets_classify_single() {
        let r = ShardRouter::new(4, 2); // 8 shards
        // Multi-key set, all congruent mod 8 → one shard → one owner.
        let route = r.classify(&req(&[8, 16], &[0, 24]));
        assert_eq!(route, Route::Single(r.owner_of_key(Key(0))));
        // Different shards, same owner stripe → still Single.
        let o = r.owner_of_shard(0);
        assert_eq!(o, r.owner_of_shard(1), "shards 0,1 share a stripe");
        assert_eq!(r.classify(&req(&[1], &[0])), Route::Single(o));
    }

    #[test]
    fn cross_owner_sets_classify_cross_sorted() {
        let r = ShardRouter::new(4, 1); // 4 shards, one per worker
        let route = r.classify(&req(&[3], &[1, 0]));
        assert_eq!(route, Route::Cross(vec![0, 1, 3]));
        assert_eq!(route.dispatch_worker(), 0, "lowest owner coordinates");
    }

    #[test]
    fn empty_footprint_is_unrouted() {
        let r = ShardRouter::new(4, 4);
        assert_eq!(r.classify(&LockRequest::default()), Route::Unrouted);
        assert_eq!(Route::Unrouted.dispatch_worker(), 0);
    }

    #[test]
    fn single_worker_routes_everything_to_zero() {
        let r = ShardRouter::new(1, 8);
        assert_eq!(r.classify(&req(&[1, 2, 3], &[4, 5])), Route::Single(0));
    }

    #[test]
    fn duplicate_and_overlapping_keys_do_not_produce_duplicate_owners() {
        let r = ShardRouter::new(4, 1);
        let route = r.classify(&req(&[0, 1, 0], &[1, 0]));
        assert_eq!(route, Route::Cross(vec![0, 1]));
    }
}
