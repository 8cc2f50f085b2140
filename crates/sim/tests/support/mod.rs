//! The group-commit crash experiment and its oracle, shared by
//! `group_commit_crash.rs` (the contract) and `group_commit_mutant.rs`
//! (proof that the oracle can fail).
//!
//! Concurrent committers take their commit sequences from a
//! [`CommitLog`] and submit to the [`GroupCommitter`] inside its section
//! (the engine's own commit point, so staged order equals seq order), and
//! record which waits came back `Ok`. The simulated filesystem then crashes;
//! recovery reads the surviving segments and the oracle checks
//! `acked ⊆ recovered` — and that the survivors form an in-order history
//! a deterministic replay could consume.

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use calc_common::simfs::SimVfs;
use calc_common::types::{CommitSeq, TxnId};
use calc_recovery::{
    read_dir_logs, GroupCommitConfig, GroupCommitter, LogBackend, SegmentedLogWriter,
};
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_txn::proc::ProcId;

pub fn rec(seq: u64) -> CommitRecord {
    CommitRecord {
        seq: CommitSeq(seq),
        txn: TxnId(seq),
        proc: ProcId(1),
        params: Arc::from(seq.to_le_bytes().to_vec().into_boxed_slice()),
    }
}

/// One crash experiment.
pub struct CrashSpec {
    pub seed: u64,
    pub config: GroupCommitConfig,
    /// Closed-loop threads that submit durably and wait for each ticket.
    pub committers: usize,
    /// Threads that submit fire-and-forget: their records carry no
    /// promise, and their batches close by the window, not by a waiter.
    pub forgetters: usize,
    /// Added to every fsync. `SimVfs` syncs instantly, which makes the
    /// committer's linger cap zero and the ack-to-fsync distance a few
    /// instructions; a delay gives the crash both to land in.
    pub sync_delay: Duration,
    /// The main thread force-crashes once this many batches have fsynced.
    pub crash_after: u64,
}

struct SlowSync {
    inner: SegmentedLogWriter,
    delay: Duration,
}

impl LogBackend for SlowSync {
    fn append(&mut self, rec: &CommitRecord) -> io::Result<()> {
        self.inner.append(rec)
    }
    fn sync(&mut self) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.sync()
    }
}

/// Runs `spec` until the filesystem dies. Returns `(acked seqs,
/// recovered seqs)`.
pub fn run_crash(spec: CrashSpec) -> (BTreeSet<u64>, Vec<u64>) {
    run_crash_into_next(spec, Duration::ZERO)
}

/// [`run_crash`] with the power cut `into_next` after the
/// `crash_after`-th batch fsynced: a fraction of the window puts the crash
/// inside the next batch's dwell, where submissions sit staged in the
/// committer, not yet appended.
pub fn run_crash_into_next(spec: CrashSpec, into_next: Duration) -> (BTreeSet<u64>, Vec<u64>) {
    let dir = PathBuf::from("/gc-crash/cmdlog");
    let vfs = SimVfs::new(spec.seed);
    // Tiny segments so the crash also crosses rotation boundaries.
    let backend = SlowSync {
        inner: SegmentedLogWriter::create(Arc::new(vfs.clone()), &dir, 512).unwrap(),
        delay: spec.sync_delay,
    };
    let gc = Arc::new(GroupCommitter::start(Box::new(backend), spec.config, None));

    let log = Arc::new(CommitLog::default());
    let handles: Vec<_> = (0..spec.committers)
        .map(|_| {
            let gc = gc.clone();
            let log = log.clone();
            std::thread::spawn(move || {
                let mut acked = Vec::new();
                loop {
                    // Seq assignment and enqueue in the commit section,
                    // then wait for the batch fsync outside it.
                    let (seq, _, ticket) =
                        log.append_commit_with(|seq, _| gc.submit_durable(rec(seq.0)));
                    match ticket.wait(Duration::from_secs(30)) {
                        Ok(()) => acked.push(seq.0),
                        // The crash: this commit carries no promise, and
                        // neither will any later one. Stop.
                        Err(_) => break,
                    }
                }
                acked
            })
        })
        .collect();
    let forgetters: Vec<_> = (0..spec.forgetters)
        .map(|_| {
            let gc = gc.clone();
            let log = log.clone();
            let vfs = vfs.clone();
            std::thread::spawn(move || {
                while !vfs.crashed() {
                    log.append_commit_with(|seq, _| gc.submit(rec(seq.0)));
                    // Paced, so the unbounded queue stays short.
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        })
        .collect();

    // Let real batches accumulate, then cut the power mid-stream.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while gc.batches() < spec.crash_after {
        assert!(
            std::time::Instant::now() < deadline,
            "never reached {} batches",
            spec.crash_after
        );
        std::thread::yield_now();
    }
    std::thread::sleep(into_next);
    vfs.force_crash();

    let mut acked = BTreeSet::new();
    for h in handles {
        for s in h.join().unwrap() {
            assert!(acked.insert(s), "seq {s} acked twice");
        }
    }
    for h in forgetters {
        h.join().unwrap();
    }
    drop(Arc::try_unwrap(gc).expect("committers dropped their handles"));

    // Reboot: only what the crash preserved is visible.
    vfs.recover_view();
    let recovered = read_dir_logs(&vfs, &dir)
        .unwrap()
        .into_iter()
        .map(|r| r.seq.0)
        .collect();
    (acked, recovered)
}

/// The durability oracle; `Err` describes the first violation.
pub fn check_oracle(acked: &BTreeSet<u64>, recovered: &[u64]) -> Result<(), String> {
    // The durable floor covers every acknowledgement: ack-after-fsync
    // means a resolved ticket IS a durability promise.
    let on_disk: BTreeSet<u64> = recovered.iter().copied().collect();
    if let Some(s) = acked.difference(&on_disk).next() {
        return Err(format!(
            "seq {s} was acknowledged durable but is not on disk (acked {} / recovered {})",
            acked.len(),
            recovered.len()
        ));
    }
    // Survivors must form an in-order, gap-free history — replay cannot
    // skip a commit — and unacknowledged survivors are fine (the batch
    // fsynced, the crash just beat the acknowledgement).
    if recovered.windows(2).any(|w| w[1] != w[0] + 1) {
        return Err("recovered log has a gap or reorder".into());
    }
    match recovered.first() {
        Some(first) if *first != 1 => Err("recovered log must start at seq 1".into()),
        _ => Ok(()),
    }
}
