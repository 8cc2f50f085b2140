//! What happens around a checkpoint cycle: the cycle itself, the
//! background merge of partials it may trigger, post-cycle retention, and
//! the emergency retention pass a full command-log disk kicks off.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use calc_core::merge::collapse;
use calc_core::strategy::CheckpointStats;
use calc_recovery::{truncate_segments_below, TruncateStats};

use crate::db::Inner;
use crate::metrics::Metric;

impl Inner {
    /// ENOSPC on the command log kicks a detached retention pass (prune
    /// superseded chains, truncate covered segments) to free space inside
    /// the committer's heal window.
    pub(crate) fn spawn_emergency_retention(self: Arc<Self>) {
        let _ = std::thread::Builder::new()
            .name("calc-emergency-retention".into())
            .spawn(move || {
                // Serialize against checkpoint-cycle retention.
                let _serial = self.checkpoint_serial.lock();
                self.health.add(Metric::emergency_retention_passes, 1);
                self.run_retention();
            });
    }

    /// One checkpoint cycle: run the strategy's capture, and on success
    /// trigger (or retry) the background merge. Health accounting lives
    /// in the callers (`Database::checkpoint_now` and the service
    /// daemon) so a cycle is recorded exactly once.
    pub(crate) fn checkpoint_cycle_raw(self: &Arc<Self>) -> io::Result<CheckpointStats> {
        let _serial = self.checkpoint_serial.lock();
        let stats = self.strategy.checkpoint(self.as_ref(), &self.dir)?;
        self.health
            .set(Metric::last_checkpoint_parts, stats.parts as u64);
        self.health.set(Metric::last_checkpoint_bytes, stats.bytes);
        self.health
            .set(Metric::last_checkpoint_raw_bytes, stats.raw_bytes);
        self.run_retention();
        if self.strategy.partial() {
            let n = self.partials_since_merge.fetch_add(1, Ordering::AcqRel) + 1;
            // A previously failed merge is retried at the next trigger —
            // the swap clears the flag; the merger re-sets it if it fails
            // again.
            let retry = self.merge_retry_pending.swap(false, Ordering::AcqRel);
            if let Some(batch) = self.merge_batch {
                if n.is_multiple_of(batch as u64) || retry {
                    self.spawn_merger();
                }
            }
        }
        Ok(stats)
    }

    /// §2.3.1: "a low-priority thread to take advantage of moments of
    /// sub-peak load".
    fn spawn_merger(self: &Arc<Self>) {
        let inner = self.clone();
        let handle = std::thread::Builder::new()
            .name("calc-merger".into())
            .spawn(move || {
                let _g = inner.merge_serial.lock();
                if let Err(e) = collapse(&inner.dir) {
                    // A failed collapse leaves the existing chain fully
                    // intact — recovery is just longer. Surface it and
                    // queue a retry instead of swallowing the error.
                    inner.health.record_merge_failure(&e);
                    inner.merge_retry_pending.store(true, Ordering::Release);
                }
            })
            .expect("spawn merger");
        // Reap as we go: a long-running server merges forever, and only
        // shutdown joins what is left here.
        let mut mergers = self.mergers.lock();
        mergers.retain(|h| !h.is_finished());
        mergers.push(handle);
    }

    /// Post-cycle retention: prune superseded checkpoint chains down to
    /// `keep_checkpoints` fulls (deep-validated — deleting the only valid
    /// chain on the word of a manifest is not safe), then truncate
    /// command-log segments below [`calc_core::CheckpointDir::truncation_floor`]: the
    /// *oldest surviving full's* watermark, read from the manifests alone.
    /// That floor — not the just-published cycle's watermark — is what
    /// keeps truncation safe against corruption discovered later.
    ///
    /// Runs only after the cycle durably published; a retention failure
    /// is therefore recorded in [`crate::Health`] but never fails the
    /// cycle — disk just stays larger until the next pass succeeds.
    fn run_retention(&self) {
        if self.keep_checkpoints.is_none() && self.command_log_dir.is_none() {
            return;
        }
        let result: io::Result<(u64, TruncateStats)> = (|| {
            let pruned = match self.keep_checkpoints {
                Some(k) => self.dir.prune_chains(k)? as u64,
                None => 0,
            };
            let mut truncated = TruncateStats::default();
            if let Some(log_dir) = &self.command_log_dir {
                if let Some(floor) = self.dir.truncation_floor()? {
                    truncated = truncate_segments_below(self.dir.vfs().as_ref(), log_dir, floor)?;
                }
            }
            Ok((pruned, truncated))
        })();
        match result {
            Ok((pruned, t)) => {
                self.health.add(Metric::checkpoints_pruned, pruned);
                self.health.add(Metric::log_segments_truncated, t.removed);
                self.health.add(Metric::log_bytes_truncated, t.bytes);
            }
            Err(_) => self.health.add(Metric::retention_failures, 1),
        }
    }
}
