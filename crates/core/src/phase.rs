//! The five-phase controller (§2.2).
//!
//! CALC's `RunCheckpointer` drives the system through REST → PREPARE →
//! RESOLVE → CAPTURE → COMPLETE, where each transition may only happen
//! once "all active txns have start-phase == current phase". The
//! controller tracks, per phase, how many transactions that *started* in
//! that phase are still active, and provides the drain-wait. Transitions
//! append tokens to the commit log, which linearizes them against commit
//! tokens (so a transaction's commit phase is always well defined).
//!
//! The begin protocol closes the registration race: a transaction reads
//! the current stamp, increments that phase's counter, then re-reads the
//! stamp; if it changed, it backs off and retries. With `SeqCst` on both
//! sides, either the checkpointer's drain-check sees the increment or the
//! transaction's re-read sees the new phase — a transaction can never run
//! under a stale phase unnoticed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use calc_common::phase::Phase;
use calc_common::types::CommitSeq;
use calc_txn::commitlog::{CommitLog, PhaseStamp};

/// Per-phase active-transaction accounting plus transition driving.
pub struct PhaseController {
    log: Arc<CommitLog>,
    active: [PhaseCount; Phase::COUNT],
}

/// One phase's counter on cache lines of its own: every `begin`/`end`
/// writes its phase's word, and neighbouring phases must not share it.
#[repr(align(128))]
struct PhaseCount(AtomicUsize);

impl PhaseController {
    /// Creates a controller over the given commit log.
    pub fn new(log: Arc<CommitLog>) -> Self {
        PhaseController {
            log,
            active: std::array::from_fn(|_| PhaseCount(AtomicUsize::new(0))),
        }
    }

    /// The commit log the controller linearizes against.
    pub fn log(&self) -> &Arc<CommitLog> {
        &self.log
    }

    fn count(&self, phase: Phase) -> &AtomicUsize {
        &self.active[phase.index()].0
    }

    /// Registers a transaction: returns the stamp (cycle + phase) it
    /// started under. Must be paired with [`PhaseController::end`].
    pub fn begin(&self) -> PhaseStamp {
        loop {
            let stamp = self.log.current_stamp();
            self.count(stamp.phase).fetch_add(1, Ordering::SeqCst);
            if self.log.current_stamp() == stamp {
                return stamp;
            }
            self.count(stamp.phase).fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Deregisters a transaction started with the given stamp.
    pub fn end(&self, stamp: PhaseStamp) {
        let prev = self.count(stamp.phase).fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "phase counter underflow");
    }

    /// Number of active transactions that started in `phase`.
    pub fn active_in(&self, phase: Phase) -> usize {
        self.count(phase).load(Ordering::SeqCst)
    }

    /// Appends a phase-transition token (linearized against commits) and
    /// returns its sequence. Entering RESOLVE marks the virtual point of
    /// consistency; the returned sequence is the checkpoint watermark.
    pub fn transition(&self, to: Phase) -> CommitSeq {
        let seq = self.log.append_phase_transition(to);
        // Widen the window between publishing the new stamp and whatever
        // the checkpointer does next — the racy interval where commits
        // straddle the transition.
        calc_common::perturb::point(calc_common::perturb::Site::PhaseTransition);
        seq
    }

    /// Blocks until every active transaction has `start-phase == current`
    /// — i.e. the counters of all other phases are zero. Sleeps briefly
    /// between polls; only the checkpointer thread waits here.
    pub fn drain_others(&self, current: Phase) {
        let mut spins = 0u32;
        loop {
            let others_active = Phase::ALL
                .iter()
                .any(|&p| p != current && self.active_in(p) > 0);
            if !others_active {
                return;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

impl std::fmt::Debug for PhaseController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhaseController(phase={}", self.log.current_phase())?;
        for p in Phase::ALL {
            let n = self.active_in(p);
            if n > 0 {
                write!(f, ", {p}:{n}")?;
            }
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn controller() -> PhaseController {
        PhaseController::new(Arc::new(CommitLog::default()))
    }

    #[test]
    fn begin_end_counts() {
        let pc = controller();
        let s1 = pc.begin();
        assert_eq!(s1.phase, Phase::Rest);
        assert_eq!(pc.active_in(Phase::Rest), 1);
        let s2 = pc.begin();
        assert_eq!(pc.active_in(Phase::Rest), 2);
        pc.end(s1);
        pc.end(s2);
        assert_eq!(pc.active_in(Phase::Rest), 0);
    }

    #[test]
    fn begin_after_transition_lands_in_new_phase() {
        let pc = controller();
        pc.transition(Phase::Prepare);
        let s = pc.begin();
        assert_eq!(s.phase, Phase::Prepare);
        assert_eq!(pc.active_in(Phase::Prepare), 1);
        assert_eq!(pc.active_in(Phase::Rest), 0);
        pc.end(s);
    }

    #[test]
    fn drain_others_waits_for_stragglers() {
        let pc = Arc::new(controller());
        let straggler = pc.begin(); // Rest-started
        pc.transition(Phase::Prepare);
        let drained = Arc::new(AtomicBool::new(false));

        let pc2 = pc.clone();
        let d2 = drained.clone();
        let waiter = std::thread::spawn(move || {
            pc2.drain_others(Phase::Prepare);
            d2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !drained.load(Ordering::SeqCst),
            "drain returned while a rest-started txn was active"
        );
        pc.end(straggler);
        waiter.join().unwrap();
        assert!(drained.load(Ordering::SeqCst));
    }

    #[test]
    fn drain_ignores_current_phase_txns() {
        let pc = controller();
        pc.transition(Phase::Prepare);
        let s = pc.begin(); // Prepare-started
        // Must return immediately: only prepare-started txns are active.
        pc.drain_others(Phase::Prepare);
        pc.end(s);
    }

    #[test]
    fn full_cycle_watermark_at_resolve() {
        let pc = controller();
        pc.transition(Phase::Prepare);
        pc.drain_others(Phase::Prepare);
        let watermark = pc.transition(Phase::Resolve);
        assert!(watermark.0 > 0);
        pc.drain_others(Phase::Resolve);
        pc.transition(Phase::Capture);
        pc.transition(Phase::Complete);
        pc.drain_others(Phase::Complete);
        pc.transition(Phase::Rest);
        assert_eq!(pc.log().current_stamp().cycle, 1);
    }

    #[test]
    fn concurrent_begin_end_with_transitions_never_undercounts() {
        let pc = Arc::new(controller());
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..6)
            .map(|_| {
                let pc = pc.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let s = pc.begin();
                        std::hint::spin_loop();
                        pc.end(s);
                    }
                })
            })
            .collect();
        // Drive several full cycles with proper drains.
        for _ in 0..5 {
            pc.transition(Phase::Prepare);
            pc.drain_others(Phase::Prepare);
            pc.transition(Phase::Resolve);
            pc.drain_others(Phase::Resolve);
            pc.transition(Phase::Capture);
            pc.transition(Phase::Complete);
            pc.drain_others(Phase::Complete);
            pc.transition(Phase::Rest);
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        for p in Phase::ALL {
            assert_eq!(pc.active_in(p), 0, "leaked active count in {p}");
        }
    }
}
