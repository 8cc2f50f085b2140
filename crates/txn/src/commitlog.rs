//! The commit log: the sequencer of commit and phase-transition tokens,
//! and the owner of the engine's one commit critical section.
//!
//! §2.2 of the paper assumes "there exists a commit-log, and each
//! transaction commits by atomically appending a commit token to this log
//! before releasing any of its locks", and that "each transition between
//! phases of the algorithm is marked by a token atomically appended to the
//! transaction commit-log. Therefore it can always be unambiguously
//! determined which phase the system was in when a particular transaction
//! committed."
//!
//! Both properties are provided by a single mutex, the *section*: commit
//! tokens and phase-transition tokens take their sequence numbers under
//! it, and the current phase is published from inside it, so a
//! transaction's commit sequence totally orders it against every phase
//! transition and the stamp it is handed is the phase of the last
//! transition with a smaller sequence.
//!
//! The log stores nothing. A token is a `(seq, stamp)` pair handed back to
//! the committer; the command log recovery replays is the durable
//! `cmdlog-<i>.log` segment directory written by `calc-recovery`. What ties
//! the two together is [`CommitLog::append_commit_with`]: the caller's
//! enqueue onto the durable log runs *inside* the section, so the order
//! records reach the sync thread — the log's byte order — is seq order,
//! gap-free, across every worker and across phase tokens. That is the only
//! lock between sequence assignment and the durable-log enqueue; the
//! enqueue is a push onto the group committer's staging queue — a wake-up
//! of its sync thread only when that thread has to act — never an fsync.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use calc_common::phase::Phase;
use calc_common::types::{CommitSeq, TxnId};

use crate::proc::ProcId;

/// A `(cycle, phase)` pair identifying *where in the sequence of checkpoint
/// cycles* an event happened. `cycle` counts completed returns to REST, so
/// checkpoint number `cycle` is the one whose virtual point of consistency
/// falls inside cycle `cycle`.
///
/// The stamp — not just the phase — is what commit hooks need: a
/// transaction that committed with `phase ≤ PREPARE` in cycle `c` belongs
/// to partial checkpoint `c`; one that committed with `phase ≥ RESOLVE`
/// belongs to checkpoint `c + 1`. Deriving this from an "active side" flag
/// instead would race with the flip at the resolve transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PhaseStamp {
    /// Checkpoint cycle number (increments at each REST transition).
    pub cycle: u64,
    /// Phase within the cycle.
    pub phase: Phase,
}

impl PhaseStamp {
    /// The checkpoint interval a commit with this stamp belongs to: the
    /// upcoming checkpoint of its cycle if it committed before the virtual
    /// point of consistency, the next one otherwise.
    pub fn checkpoint_interval(self) -> u64 {
        if self.phase <= Phase::Prepare {
            self.cycle
        } else {
            self.cycle + 1
        }
    }

    #[inline]
    fn encode(self) -> u64 {
        (self.cycle << 3) | self.phase.index() as u64
    }

    #[inline]
    fn decode(v: u64) -> Self {
        PhaseStamp {
            cycle: v >> 3,
            phase: Phase::from_index((v & 0b111) as usize),
        }
    }
}

impl std::fmt::Display for PhaseStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.phase, self.cycle)
    }
}

/// One command-log record: a commit token's sequence plus the
/// `(procedure id, parameters)` payload deterministic replay needs. Built
/// by the committer inside [`CommitLog::append_commit_with`] and handed to
/// the durable log; the sequencer itself never sees one.
#[derive(Clone, Debug)]
pub struct CommitRecord {
    /// Commit sequence — position in the serial order.
    pub seq: CommitSeq,
    /// Transaction id.
    pub txn: TxnId,
    /// Stored procedure that ran.
    pub proc: ProcId,
    /// Procedure parameters (shared; cheap to clone).
    pub params: Arc<[u8]>,
}

/// The commit-token sequencer. See module docs.
pub struct CommitLog {
    /// The commit critical section: sequence assignment, the stamp read or
    /// publish, and a committer's durable-log enqueue all happen under it.
    section: Mutex<()>,
    /// Next sequence to hand out. Written under `section`; read lock-free
    /// for watermarks.
    next_seq: AtomicU64,
    /// Current phase stamp. Written under `section`; read lock-free.
    stamp: AtomicU64,
}

impl Default for CommitLog {
    fn default() -> Self {
        CommitLog {
            section: Mutex::new(()),
            next_seq: AtomicU64::new(1),
            stamp: AtomicU64::new(
                PhaseStamp {
                    cycle: 0,
                    phase: Phase::Rest,
                }
                .encode(),
            ),
        }
    }
}

impl CommitLog {
    /// Vestigial: `retain` selected an in-memory command-log mode that no
    /// longer exists. The parameter survives only because the frozen
    /// `perfbench/` calls `CommitLog::new(false)`; everything else uses
    /// [`CommitLog::default`].
    ///
    /// # Panics
    /// Panics if `retain` is `true`.
    pub fn new(retain: bool) -> Self {
        assert!(
            !retain,
            "CommitLog retains nothing: the command log is calc-recovery's segment directory"
        );
        Self::default()
    }

    /// Appends a commit token and runs `enqueue` with its sequence and
    /// stamp *inside* the append critical section. The stamp is the one
    /// the system carried at the instant of the append — the commit phase
    /// CALC's commit hook needs. Whatever `enqueue` hands to a durable log
    /// therefore arrives in seq order, and no phase transition can slip
    /// between the sequence assignment and the stamp read. `enqueue` must
    /// not block on I/O: every other committer waits behind it.
    pub fn append_commit_with<R>(
        &self,
        enqueue: impl FnOnce(CommitSeq, PhaseStamp) -> R,
    ) -> (CommitSeq, PhaseStamp, R) {
        let _section = self.section.lock();
        let seq = CommitSeq(self.next_seq.fetch_add(1, Ordering::AcqRel));
        #[allow(unused_mut)]
        let mut stamp = PhaseStamp::decode(self.stamp.load(Ordering::Relaxed));
        #[cfg(feature = "mutation-hooks")]
        if calc_common::mutation::armed(calc_common::mutation::Mutation::LatePhaseStamp)
            && stamp.phase == Phase::Prepare
        {
            // Seeded bug: report the stamp as if it had been read *after*
            // a racing PREPARE→RESOLVE transition instead of inside the
            // section. The commit's updates then get classified to the
            // wrong side of the virtual point of consistency.
            stamp.phase = Phase::Resolve;
        }
        let out = enqueue(seq, stamp);
        (seq, stamp, out)
    }

    /// [`CommitLog::append_commit_with`] with nothing to enqueue: a bare
    /// commit token (engines without a durable log, protocol tests).
    pub fn append_commit(&self) -> (CommitSeq, PhaseStamp) {
        let (seq, stamp, ()) = self.append_commit_with(|_, _| ());
        (seq, stamp)
    }

    /// Appends a phase-transition token and publishes the new stamp,
    /// atomically with respect to commit appends. Entering REST increments
    /// the cycle counter. Returns the token's sequence — when the
    /// transition is the PREPARE→RESOLVE one, this is the checkpoint's
    /// virtual point of consistency watermark: commits with `seq <` this
    /// value are in the checkpoint, commits after are not.
    pub fn append_phase_transition(&self, phase: Phase) -> CommitSeq {
        let _section = self.section.lock();
        let seq = CommitSeq(self.next_seq.fetch_add(1, Ordering::AcqRel));
        let old = PhaseStamp::decode(self.stamp.load(Ordering::Relaxed));
        let new = PhaseStamp {
            cycle: old.cycle + (phase == Phase::Rest) as u64,
            phase,
        };
        self.stamp.store(new.encode(), Ordering::Relaxed);
        seq
    }

    /// Resumes identity after recovery: future commit sequences will be
    /// `> seq` and the cycle counter at least `cycle`, so post-recovery
    /// commits and checkpoints never collide with pre-crash artifacts.
    /// Monotone (never moves backwards); must run before transactions.
    pub fn advance_to(&self, seq: CommitSeq, cycle: u64) {
        let _section = self.section.lock();
        let next = self.next_seq.load(Ordering::Acquire).max(seq.0 + 1);
        self.next_seq.store(next, Ordering::Release);
        let old = PhaseStamp::decode(self.stamp.load(Ordering::Relaxed));
        if cycle > old.cycle {
            self.stamp.store(
                PhaseStamp {
                    cycle,
                    phase: old.phase,
                }
                .encode(),
                Ordering::Relaxed,
            );
        }
    }

    /// The stamp most recently published by a transition token.
    pub fn current_stamp(&self) -> PhaseStamp {
        PhaseStamp::decode(self.stamp.load(Ordering::Acquire))
    }

    /// The phase most recently published by a transition token.
    pub fn current_phase(&self) -> Phase {
        self.current_stamp().phase
    }

    /// The highest sequence handed out so far (0 if none).
    pub fn last_seq(&self) -> CommitSeq {
        CommitSeq(self.next_seq.load(Ordering::Acquire) - 1)
    }
}

impl std::fmt::Debug for CommitLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CommitLog(last_seq={}, stamp={})",
            self.last_seq(),
            self.current_stamp()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_monotone_and_dense() {
        let log = CommitLog::default();
        let (s1, _) = log.append_commit();
        let (s2, _) = log.append_commit();
        let s3 = log.append_phase_transition(Phase::Prepare);
        assert_eq!(s1, CommitSeq(1));
        assert_eq!(s2, CommitSeq(2));
        assert_eq!(s3, CommitSeq(3));
        assert_eq!(log.last_seq(), CommitSeq(3));
    }

    #[test]
    fn commit_phase_reflects_transitions() {
        let log = CommitLog::default();
        let (_, s) = log.append_commit();
        assert_eq!(s.phase, Phase::Rest);
        assert_eq!(s.cycle, 0);
        log.append_phase_transition(Phase::Prepare);
        let (_, s) = log.append_commit();
        assert_eq!(s.phase, Phase::Prepare);
        log.append_phase_transition(Phase::Resolve);
        let (_, s) = log.append_commit();
        assert_eq!(s.phase, Phase::Resolve);
        assert_eq!(log.current_phase(), Phase::Resolve);
    }

    #[test]
    fn cycle_increments_on_rest_and_interval_mapping() {
        let log = CommitLog::default();
        assert_eq!(log.current_stamp().cycle, 0);
        // Pre-point commit in cycle 0 → checkpoint interval 0.
        log.append_phase_transition(Phase::Prepare);
        let (_, s) = log.append_commit();
        assert_eq!(s.checkpoint_interval(), 0);
        // Post-point commit in cycle 0 → checkpoint interval 1.
        log.append_phase_transition(Phase::Resolve);
        let (_, s) = log.append_commit();
        assert_eq!(s.checkpoint_interval(), 1);
        log.append_phase_transition(Phase::Capture);
        log.append_phase_transition(Phase::Complete);
        log.append_phase_transition(Phase::Rest);
        let s = log.current_stamp();
        assert_eq!(s.cycle, 1);
        assert_eq!(s.phase, Phase::Rest);
        // Rest commit in cycle 1 → checkpoint interval 1.
        let (_, s) = log.append_commit();
        assert_eq!(s.checkpoint_interval(), 1);
    }

    #[test]
    fn stamp_encode_decode_roundtrip() {
        for cycle in [0u64, 1, 7, 1 << 40] {
            for phase in Phase::ALL {
                let s = PhaseStamp { cycle, phase };
                assert_eq!(PhaseStamp::decode(s.encode()), s);
            }
        }
    }

    #[test]
    #[should_panic(expected = "retains nothing")]
    fn retaining_mode_is_rejected() {
        let _ = CommitLog::new(true);
    }

    #[test]
    fn enqueue_runs_inside_the_section_in_seq_order() {
        // Four committers push the seq they were handed onto a shared
        // queue from inside the section while phase tokens interleave: the
        // queue must come out strictly increasing (with the tokens as
        // gaps), and nothing else can enter the section while an enqueue
        // runs.
        let log = Arc::new(CommitLog::default());
        let queue = Arc::new(Mutex::new(Vec::new()));
        let committers: Vec<_> = (0..4)
            .map(|_| {
                let (log, queue) = (log.clone(), queue.clone());
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        log.append_commit_with(|seq, _| {
                            assert_eq!(log.last_seq(), seq, "a token was appended mid-enqueue");
                            queue.lock().push(seq.0);
                        });
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            for p in [Phase::Prepare, Phase::Resolve, Phase::Capture, Phase::Complete, Phase::Rest] {
                log.append_phase_transition(p);
            }
        }
        for h in committers {
            h.join().unwrap();
        }
        let queue = queue.lock();
        assert!(queue.windows(2).all(|w| w[0] < w[1]), "enqueue order != seq order");
        assert_eq!(queue.len(), 8_000);
        assert_eq!(log.last_seq().0, 8_000 + 250);
    }

    #[test]
    fn concurrent_appends_linearize_against_phase_transitions() {
        use std::sync::atomic::AtomicBool;
        let log = Arc::new(CommitLog::default());
        let stop = Arc::new(AtomicBool::new(false));
        let committers: Vec<_> = (0..4)
            .map(|_| {
                let log = log.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // Each committer keeps the tokens it was handed.
                    let mut mine = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        mine.push(log.append_commit());
                    }
                    mine
                })
            })
            .collect();
        // Drive two full phase cycles while commits stream in; the driver
        // keeps each transition's seq and the stamp it published.
        let mut transitions = Vec::new();
        for cycle in 0..2u64 {
            for phase in [Phase::Prepare, Phase::Resolve, Phase::Capture, Phase::Complete, Phase::Rest] {
                std::thread::sleep(std::time::Duration::from_millis(3));
                let seq = log.append_phase_transition(phase);
                let cycle = cycle + (phase == Phase::Rest) as u64;
                transitions.push((seq, PhaseStamp { cycle, phase }));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let commits: Vec<(CommitSeq, PhaseStamp)> = committers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert!(commits.len() > transitions.len(), "committers never ran");

        // Every commit's stamp is the one published by the last transition
        // with a smaller seq (REST of cycle 0 before the first) — the
        // property `Mutation::LatePhaseStamp` breaks.
        for &(seq, stamp) in &commits {
            let expected = transitions
                .iter()
                .rev()
                .find(|(t, _)| *t < seq)
                .map_or(PhaseStamp { cycle: 0, phase: Phase::Rest }, |&(_, s)| s);
            assert_eq!(stamp, expected, "commit {seq} carries the wrong stamp");
        }
        // Seqs are unique and dense across both token kinds.
        let mut seqs: Vec<u64> = commits
            .iter()
            .map(|(s, _)| s.0)
            .chain(transitions.iter().map(|(s, _)| s.0))
            .collect();
        seqs.sort_unstable();
        assert!(
            seqs.iter().copied().eq(1..=seqs.len() as u64),
            "sequence gap or duplicate"
        );
        assert_eq!(log.last_seq().0, seqs.len() as u64);
    }
}
