//! Test-only fault switches that inject *known bugs* into the engine, so
//! the oracles (the conformance checker; for `AckBeforeFsync`,
//! `OldestWinsOnLoad`, `SkipLaneBarrier` and `SkipTailSegment`, calc-sim's
//! crash and recovery oracles) can prove they would catch them.
//!
//! A checker that has never seen a failure proves nothing: if the oracle
//! is vacuous (checks the wrong thing, or checks nothing under the real
//! schedules), every run "passes". The mutation smoke test in
//! `calc-conform` flips each switch here, reruns the stress harness, and
//! asserts the checker reports a violation — zero false negatives on the
//! mutation set, zero false positives on clean runs.
//!
//! Everything here is behind the `mutation-hooks` cargo feature AND a
//! runtime flag that defaults to off. The double gate matters: cargo
//! feature unification means a workspace build that includes
//! `calc-conform` compiles these hooks into `calc-txn`/`calc-storage`
//! for every crate's tests, so correctness cannot rely on the feature
//! being absent — only the runtime flags, which nothing but the mutation
//! smoke test ever sets.

use std::sync::atomic::{AtomicBool, Ordering};

/// The seeded bugs. Each corresponds to a one-line "typo" a refactor
/// could plausibly introduce.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// The lock manager grants every request in shared mode — writers no
    /// longer exclude each other, so hot-key read-modify-write chains
    /// lose updates.
    SkipLock,
    /// `DualVersionStore::get` returns the *stable* version when one
    /// exists — readers observe the checkpoint's pre-images instead of
    /// the newest committed live value while a checkpoint is in flight.
    StaleStableRead,
    /// `CommitLog::append_commit` stamps the commit with the *next*
    /// phase, as if the stamp had been read after a racing phase
    /// transition instead of under the log mutex — commits straddle the
    /// virtual point of consistency and checkpoint contents go wrong.
    LatePhaseStamp,
    /// The group committer's sync thread acknowledges a batch's durability
    /// waiters *before* the fsync that covers their records — a crash in
    /// between loses an acknowledged write. Caught by `calc-sim`'s
    /// `acked ⊆ recovered` crash oracle, not by the conformance checker.
    AckBeforeFsync,
    /// Restart's checkpoint loader walks the recovery chain oldest →
    /// newest while still keeping the first value installed for a key — a
    /// stale full-checkpoint value beats the partial that superseded it.
    /// Caught by `calc-sim`'s recovery oracle (recovered state == model).
    OldestWinsOnLoad,
    /// Restart's replay driver hands a command whose lock keys span lanes
    /// to its first key's lane instead of draining every lane first — it
    /// races the other lanes' commands on its keys. Caught by `calc-sim`'s
    /// lane replay oracle (recovered state == model).
    SkipLaneBarrier,
    /// The log tailer, which every restart and standby reads the log
    /// through, steps over a sealed segment at a clean end of the one
    /// before it — that segment's commits are never applied. Caught by
    /// `calc-sim`'s restart oracle (promoted state == model).
    SkipTailSegment,
}

/// All mutations, for sweep-style tests.
pub const ALL: [Mutation; 7] = [
    Mutation::SkipLock,
    Mutation::StaleStableRead,
    Mutation::LatePhaseStamp,
    Mutation::AckBeforeFsync,
    Mutation::OldestWinsOnLoad,
    Mutation::SkipLaneBarrier,
    Mutation::SkipTailSegment,
];

static FLAGS: [AtomicBool; 7] = [
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
    AtomicBool::new(false),
];

impl Mutation {
    #[inline]
    fn idx(self) -> usize {
        match self {
            Mutation::SkipLock => 0,
            Mutation::StaleStableRead => 1,
            Mutation::LatePhaseStamp => 2,
            Mutation::AckBeforeFsync => 3,
            Mutation::OldestWinsOnLoad => 4,
            Mutation::SkipLaneBarrier => 5,
            Mutation::SkipTailSegment => 6,
        }
    }

    /// Human-readable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SkipLock => "skip-lock",
            Mutation::StaleStableRead => "stale-stable-read",
            Mutation::LatePhaseStamp => "late-phase-stamp",
            Mutation::AckBeforeFsync => "ack-before-fsync",
            Mutation::OldestWinsOnLoad => "oldest-wins-on-load",
            Mutation::SkipLaneBarrier => "skip-lane-barrier",
            Mutation::SkipTailSegment => "skip-tail-segment",
        }
    }
}

/// Arms a mutation process-wide. Test harnesses must serialize around
/// this (the flags are global).
pub fn arm(m: Mutation) {
    FLAGS[m.idx()].store(true, Ordering::SeqCst);
}

/// Disarms all mutations.
pub fn disarm_all() {
    for f in &FLAGS {
        f.store(false, Ordering::SeqCst);
    }
}

/// Whether a mutation is currently armed. Hook sites call this; it is a
/// single relaxed load when the feature is compiled in, and the whole
/// call site is absent otherwise.
#[inline]
pub fn armed(m: Mutation) -> bool {
    FLAGS[m.idx()].load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_disarm_roundtrip() {
        disarm_all();
        for m in ALL {
            assert!(!armed(m), "{} armed at rest", m.name());
        }
        arm(Mutation::SkipLock);
        assert!(armed(Mutation::SkipLock));
        assert!(!armed(Mutation::StaleStableRead));
        disarm_all();
        assert!(!armed(Mutation::SkipLock));
    }
}
