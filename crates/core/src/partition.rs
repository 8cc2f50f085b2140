//! Shard-parallel capture: one scan domain split into `N` contiguous
//! stripes, written to `N` part files by `N` threads.
//!
//! Every strategy's capture (CALC full/partial, the quiesce baselines,
//! IPP, Zigzag) funnels through this layer so the partitioning scheme, the
//! thread pool, and the abort semantics are implemented exactly once;
//! deep validation and recovery's part loader borrow its worker pool
//! ([`for_each_part`]). The contract:
//!
//! * **Partitioning** — [`ShardPartition`] splits `total` items (slots,
//!   dirty-list entries) into `parts` contiguous stripes whose union is
//!   exactly `0..total` and which differ in size by at most one. Stripe
//!   `k` feeds part file `k`. The assignment is *not* stable across
//!   checkpoints (the store grows, dirty sets differ), so part `k` of one
//!   cycle says nothing about part `k` of the next: recovery installs the
//!   chain newest cycle first and lets the store answer "already have
//!   this key", whichever part it came from.
//! * **One value per key per cycle** — a cycle is a snapshot at one
//!   point, so no key is written twice across its parts; recovery loads a
//!   cycle's parts in parallel and keeps whichever value arrives first.
//! * **Tombstones** — written to part 0 ahead of every value, so a reader
//!   applying parts in index order (and files in chain order) still sees
//!   delete-before-reinsert; recovery folds a cycle's tombstones in only
//!   after all of its parts, for the same reason.
//! * **All-or-nothing** — if any stripe's scan or write fails, a cancel
//!   flag stops the siblings, every part file is removed, and no manifest
//!   is ever written: the cycle never becomes visible. The caller then
//!   rolls dirty coverage forward for *every* shard (the PR-4 harmless-
//!   failure contract), including shards whose part had already fsynced.

use std::io;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use calc_common::types::{CommitSeq, Key};

use crate::file::{CheckpointKind, CheckpointWriter};
use crate::manifest::{CheckpointDir, PublishSummary};

/// A split of `total` contiguous items into `parts` stripes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPartition {
    total: usize,
    parts: usize,
}

impl ShardPartition {
    /// Splits `total` items over `parts` stripes (at least 1).
    pub fn over(total: usize, parts: usize) -> Self {
        ShardPartition {
            total,
            parts: parts.max(1),
        }
    }

    /// Number of stripes.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Total items across all stripes.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The half-open item range of stripe `k`. Stripes are contiguous,
    /// disjoint, cover `0..total`, and differ in length by at most one
    /// (the first `total % parts` stripes get the extra item).
    pub fn range(&self, k: usize) -> Range<usize> {
        debug_assert!(k < self.parts);
        let base = self.total / self.parts;
        let rem = self.total % self.parts;
        let start = k * base + k.min(rem);
        let len = base + usize::from(k < rem);
        start..start + len
    }
}

/// How often a stripe scan should poll the cancel flag, in items. Coarse
/// enough to stay off the hot path, fine enough that a sibling failure
/// stops wasted I/O quickly.
pub const CANCEL_POLL_STRIDE: usize = 1024;

/// Runs one multi-part capture cycle: begin `parts` part files, write
/// `tombstones` into part 0, run `scan(k, writer, cancel)` for every
/// stripe `k` on its own thread (stripe 0 on the calling thread), and
/// publish the manifest — or, on any failure, remove every part file and
/// return the error with no cycle ever becoming visible.
///
/// `scan` must confine itself to stripe `k` of whatever domain the caller
/// partitioned (see [`ShardPartition`]) and should poll `cancel` about
/// every [`CANCEL_POLL_STRIDE`] items, returning early (any `Err`) once
/// it is set. With `parts == 1` everything runs inline on the calling
/// thread.
pub fn capture_parts<F>(
    dir: &CheckpointDir,
    kind: CheckpointKind,
    id: u64,
    watermark: CommitSeq,
    tombstones: &[Key],
    parts: usize,
    scan: F,
) -> io::Result<PublishSummary>
where
    F: Fn(usize, &mut CheckpointWriter, &AtomicBool) -> io::Result<()> + Sync,
{
    let parts = parts.max(1);
    let (pending, writers) = dir.begin_parts(kind, id, watermark, parts)?;
    let cancel = AtomicBool::new(false);

    let run_stripe = |k: usize, w: &mut CheckpointWriter| -> io::Result<()> {
        if k == 0 {
            for &key in tombstones {
                w.write_tombstone(key)?;
            }
        }
        scan(k, w, &cancel)
    };

    let results: Vec<(CheckpointWriter, io::Result<()>)> = if parts == 1 {
        let mut writers = writers;
        let mut w0 = writers.pop().expect("begin_parts returned one writer");
        let r0 = run_stripe(0, &mut w0);
        vec![(w0, r0)]
    } else {
        let mut iter = writers.into_iter();
        let mut w0 = iter.next().expect("begin_parts returned parts writers");
        let rest: Vec<CheckpointWriter> = iter.collect();
        let run_ref = &run_stripe;
        let cancel_ref = &cancel;
        std::thread::scope(|s| {
            let handles: Vec<_> = rest
                .into_iter()
                .enumerate()
                .map(|(i, mut w)| {
                    s.spawn(move || {
                        let r = run_ref(i + 1, &mut w);
                        if r.is_err() {
                            cancel_ref.store(true, Ordering::Relaxed);
                        }
                        (w, r)
                    })
                })
                .collect();
            let r0 = run_ref(0, &mut w0);
            if r0.is_err() {
                cancel_ref.store(true, Ordering::Relaxed);
            }
            let mut out = Vec::with_capacity(parts);
            out.push((w0, r0));
            for h in handles {
                out.push(h.join().expect("capture thread panicked"));
            }
            out
        })
    };

    if results.iter().any(|(_, r)| r.is_err()) {
        // Prefer the lowest-indexed *root-cause* error: parts stopped by
        // the cancel flag report `Interrupted`, which would otherwise mask
        // the real failure behind a smaller part index.
        let mut errors: Vec<(usize, io::Error)> = Vec::new();
        let mut writers = Vec::with_capacity(parts);
        for (k, (w, r)) in results.into_iter().enumerate() {
            writers.push(w);
            if let Err(e) = r {
                errors.push((k, e));
            }
        }
        drop(writers); // release file handles before unlinking
        pending.abandon();
        let root = errors
            .iter()
            .position(|(_, e)| e.kind() != io::ErrorKind::Interrupted)
            .unwrap_or(0);
        return Err(errors.swap_remove(root).1);
    }

    let writers: Vec<CheckpointWriter> = results.into_iter().map(|(w, _)| w).collect();
    pending.publish(writers)
}

/// Runs `job(k)` for every part index `k < parts` on at most `threads`
/// workers — the calling thread and up to `threads - 1` scoped ones — that
/// pull indices from a shared counter, and returns the results in index
/// order. The first error stops the hand-out of further indices and is the
/// one returned (the lowest-indexed, if several parts fail). Deep
/// validation and recovery's part loader size their pools through this.
pub fn for_each_part<T, E, F>(parts: usize, threads: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let worker = || {
        let mut done = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= parts {
                break;
            }
            let r = job(k);
            if r.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((k, r));
        }
        done
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(parts)).map(|_| s.spawn(worker)).collect();
        let mut done = worker();
        for h in helpers {
            done.extend(h.join().expect("part worker panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The error a cancelled stripe should return when it observes the cancel
/// flag: [`io::ErrorKind::Interrupted`], which [`capture_parts`] treats as
/// a symptom rather than a root cause.
pub fn cancelled() -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        "capture cancelled by sibling part failure",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throttle::Throttle;
    use std::sync::Arc;

    #[test]
    fn partition_covers_exactly_once() {
        for total in [0usize, 1, 5, 64, 1000, 1023] {
            for parts in [1usize, 2, 3, 7, 64, 100] {
                let p = ShardPartition::over(total, parts);
                let mut covered = vec![false; total];
                let mut max_len = 0;
                let mut min_len = usize::MAX;
                for k in 0..p.parts() {
                    let r = p.range(k);
                    max_len = max_len.max(r.len());
                    min_len = min_len.min(r.len());
                    for i in r {
                        assert!(!covered[i], "item {i} covered twice (total={total} parts={parts})");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap (total={total} parts={parts})");
                assert!(max_len - min_len <= 1, "imbalance (total={total} parts={parts})");
            }
        }
    }

    #[test]
    fn for_each_part_orders_results_and_stops_at_an_error() {
        for threads in [1usize, 2, 5, 64] {
            let squares = for_each_part(20, threads, |k| Ok::<_, ()>(k * k)).unwrap();
            assert_eq!(squares, (0..20).map(|k| k * k).collect::<Vec<_>>());
            assert_eq!(for_each_part(0, threads, |_| Err::<(), _>("unreached")), Ok(vec![]));

            let ran = AtomicUsize::new(0);
            let err = for_each_part(1000, threads, |k| {
                ran.fetch_add(1, Ordering::Relaxed);
                if k >= 3 { Err(k) } else { Ok(()) }
            })
            .unwrap_err();
            assert_eq!(err, 3, "the lowest-indexed failure is the one reported");
            assert!(ran.load(Ordering::Relaxed) < 1000, "an error stops the hand-out");
        }
    }

    fn dir(name: &str) -> CheckpointDir {
        let d = std::env::temp_dir().join(format!(
            "calc-partition-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
    }

    #[test]
    fn capture_parts_publishes_striped_scan() {
        for parts in [1usize, 3] {
            let d = dir(&format!("ok-{parts}"));
            let split = ShardPartition::over(100, parts);
            let summary = capture_parts(
                &d,
                CheckpointKind::Partial,
                5,
                CommitSeq(50),
                &[Key(7000)],
                parts,
                |k, w, _cancel| {
                    for i in split.range(k) {
                        w.write_record(Key(i as u64), b"v")?;
                    }
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(summary.records, 101);
            assert_eq!(summary.parts, parts);
            let metas = d.scan().unwrap();
            assert_eq!(metas.len(), 1);
            assert_eq!(metas[0].records, 101);
            let entries = metas[0].read_all().unwrap();
            assert_eq!(entries[0], crate::file::RecordEntry::Tombstone(Key(7000)));
        }
    }

    #[test]
    fn one_failing_stripe_aborts_the_whole_cycle() {
        let d = dir("abort");
        let err = capture_parts(
            &d,
            CheckpointKind::Full,
            1,
            CommitSeq(1),
            &[],
            4,
            |k, w, cancel| {
                if k == 2 {
                    return Err(io::Error::other("disk exploded"));
                }
                for i in 0..10_000u64 {
                    if i % CANCEL_POLL_STRIDE as u64 == 0 && cancel.load(Ordering::Relaxed) {
                        return Err(cancelled());
                    }
                    w.write_record(Key(i), b"x")?;
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "disk exploded", "root cause, not Interrupted");
        assert!(d.scan().unwrap().is_empty(), "no cycle became visible");
        // Every part file was removed; only the (empty) directory remains.
        let leftovers: Vec<_> = std::fs::read_dir(d.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(leftovers.is_empty(), "abort left {leftovers:?}");
    }
}
