//! The checkpoint-cycle scaffold shared by every strategy.
//!
//! The schemes the paper compares differ in record layout and in their
//! write-path hooks; the bookkeeping around a cycle is the same for all of
//! them and lives here once:
//!
//! * [`Tombstones`] — the parity-indexed deletion buffers of the partial
//!   variants (drained by the cycle that captures an interval, re-queued
//!   when it fails);
//! * [`capture_slots`] — the one capture loop: a slot range or a dirty
//!   list striped over the capture pool, each slot read by the
//!   strategy's own closure; [`capture_live`] is that loop over the live
//!   versions of a [`DualVersionStore`] (Naive, Fuzzy, and the
//!   [`base_checkpoint`] CALC shares with them);
//! * [`undo_live`] — rollback of a transaction's writes on a
//!   [`DualVersionStore`] from the executor's undo images.
//!
//! [`CheckpointStats::new`](crate::strategy::CheckpointStats::new) and
//! [`TxnToken::record`] are the other two shared pieces, next to the
//! types they build.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use calc_common::types::{CommitSeq, Key};
use calc_storage::dual::DualVersionStore;
use calc_storage::SlotId;

use crate::file::{CheckpointKind, CheckpointWriter};
use crate::manifest::{CheckpointDir, PublishSummary};
use crate::partition::{self, capture_parts, ShardPartition, CANCEL_POLL_STRIDE};
use crate::strategy::{CheckpointStats, TxnToken, UndoImage, UndoRec};

/// Keys deleted per checkpoint interval, double-buffered by interval
/// parity (the dirty trackers' discipline): commits push into the
/// interval they belong to while the previous interval's buffer is being
/// captured.
#[derive(Default)]
pub struct Tombstones([Mutex<Vec<Key>>; 2]);

impl Tombstones {
    /// Records that `key` was deleted by a commit of `interval`.
    pub fn push(&self, interval: u64, key: Key) {
        self.0[(interval & 1) as usize].lock().push(key);
    }

    /// Drains interval `id`'s buffer for capture. Take it before the
    /// fallible disk work, so a failed cycle can hand every key back.
    pub fn take(&self, id: u64) -> Vec<Key> {
        std::mem::take(&mut *self.0[(id & 1) as usize].lock())
    }

    /// Puts keys drained by a failed cycle back into interval `id`'s
    /// buffer: the same `id` when the retry repeats the interval, `id + 1`
    /// when the interval already advanced.
    pub fn requeue(&self, id: u64, keys: Vec<Key>) {
        self.0[(id & 1) as usize].lock().extend(keys);
    }
}

/// The slots one capture visits, in visiting order.
#[derive(Clone, Copy, Debug)]
pub enum Slots<'a> {
    /// Every slot below a sealed high-water mark.
    Range(usize),
    /// A dirty list.
    List(&'a [SlotId]),
}

impl Slots<'_> {
    fn len(&self) -> usize {
        match self {
            Slots::Range(n) => *n,
            Slots::List(l) => l.len(),
        }
    }

    fn get(&self, i: usize) -> SlotId {
        match self {
            Slots::Range(_) => i as SlotId,
            Slots::List(l) => l[i],
        }
    }
}

/// One capture cycle over `slots`: striped contiguously over
/// [`CheckpointDir::checkpoint_threads`] capture threads
/// ([`capture_parts`]: `tombs` first in part 0, all-or-nothing publish),
/// each slot read by `read` — which returns the record to write, if the
/// slot contributes one, and does not hold the slot's mutex past its
/// return — and written to the stripe's part. Stripes poll the sibling
/// cancel flag every [`CANCEL_POLL_STRIDE`] slots.
pub fn capture_slots<V: AsRef<[u8]>>(
    dir: &CheckpointDir,
    kind: CheckpointKind,
    id: u64,
    watermark: CommitSeq,
    tombs: &[Key],
    slots: Slots<'_>,
    read: impl Fn(SlotId) -> Option<(Key, V)> + Sync,
) -> io::Result<PublishSummary> {
    let threads = dir.checkpoint_threads();
    let split = ShardPartition::over(slots.len(), threads);
    let scan = |part: usize, w: &mut CheckpointWriter, cancel: &AtomicBool| {
        for (n, i) in split.range(part).enumerate() {
            if n % CANCEL_POLL_STRIDE == 0 && cancel.load(Ordering::Relaxed) {
                return Err(partition::cancelled());
            }
            if let Some((key, value)) = read(slots.get(i)) {
                w.write_record(key, value.as_ref())?;
            }
        }
        Ok(())
    };
    capture_parts(dir, kind, id, watermark, tombs, threads, scan)
}

/// [`capture_slots`] over the **live** versions of `store`: lock the slot,
/// copy the live value out, write it. Correct whenever live *is* the
/// point-of-consistency value — no transaction running (base
/// checkpoints), the database quiesced (Naive) — and deliberately not
/// otherwise (Fuzzy).
pub fn capture_live(
    dir: &CheckpointDir,
    store: &DualVersionStore,
    kind: CheckpointKind,
    id: u64,
    watermark: CommitSeq,
    tombs: &[Key],
    slots: Slots<'_>,
) -> io::Result<PublishSummary> {
    capture_slots(dir, kind, id, watermark, tombs, slots, |slot| {
        let g = store.lock_slot(slot);
        if g.in_use() {
            g.live().map(|l| (g.key(), l.to_vec()))
        } else {
            None
        }
    })
}

/// A base checkpoint of `store` — every live version, full, with no
/// transaction running — under the caller's `id`.
pub fn base_checkpoint(
    dir: &CheckpointDir,
    store: &DualVersionStore,
    id: u64,
    watermark: CommitSeq,
) -> io::Result<CheckpointStats> {
    let start = Instant::now();
    let slots = Slots::Range(store.slot_high_water());
    let kind = CheckpointKind::Full;
    let summary = capture_live(dir, store, kind, id, watermark, &[], slots)?;
    Ok(CheckpointStats::new(
        id,
        kind,
        watermark,
        summary,
        start,
        Duration::ZERO,
    ))
}

/// Rolls a transaction's writes on `store` back from the executor's undo
/// images. `undo` is newest-first, one entry per write record:
/// `undo[i]` rolls back `token.writes[len - 1 - i]`.
pub fn undo_live(store: &DualVersionStore, token: &TxnToken, undo: &[UndoRec]) {
    debug_assert_eq!(undo.len(), token.writes.len());
    for (u, w) in undo.iter().zip(token.writes.iter().rev()) {
        debug_assert_eq!(w.key, u.key);
        match &u.img {
            UndoImage::Restore(v) => {
                store.lock_slot(w.slot).set_live(v);
            }
            UndoImage::Remove => {
                let _ = store.unlink(u.key);
                let mut g = store.lock_slot(w.slot);
                g.clear_live();
                g.release_if_vacant();
            }
            UndoImage::Reinsert(v) => {
                store.lock_slot(w.slot).set_live(v);
                store.relink(u.key, w.slot);
            }
        }
    }
}
