//! Lane replay held against the serial reference: one deterministic log
//! of inserts, overwrites, deletes and multi-key writes over a hot key
//! set, recovered over the same chain on 1, 2 and 4 threads, must leave
//! exactly the image a plain `apply_commit` loop leaves — and a log that
//! diverges must fail with the error that loop reports.

use std::sync::Arc;

use calc_common::rng::SplitMix;
use calc_common::types::{CommitSeq, Key, TxnId};
use calc_core::calc::CalcStrategy;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{CheckpointStrategy, NoopEnv};
use calc_core::throttle::Throttle;
use calc_recovery::{apply_commit, recover, recover_checkpoint_only, RecoveryError};
use calc_storage::dual::StoreConfig;
use calc_testkit::{registry, DELETE, MSET, SET};
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_txn::proc::ProcId;

const HOT: u64 = 24;

fn strategy(log: Arc<CommitLog>) -> CalcStrategy {
    CalcStrategy::partial(StoreConfig::for_records(1024, 16), log)
}

/// The next operation: mostly single-key sets, some deletes, and
/// multi-key sets of two to four hot keys (which span lanes).
fn gen(rng: &mut SplitMix) -> (ProcId, Arc<[u8]>) {
    let value = |rng: &mut SplitMix| -> Vec<u8> {
        (0..1 + rng.next_below(24))
            .map(|_| rng.next_u64() as u8)
            .collect()
    };
    match rng.next_below(10) {
        0..=5 => (SET, calc_testkit::set(rng.next_below(HOT), &value(rng))),
        6 => (DELETE, calc_testkit::delete(rng.next_below(HOT))),
        _ => {
            let pairs: Vec<(u64, Vec<u8>)> = (0..2 + rng.next_below(3))
                .map(|_| (rng.next_below(HOT), value(rng)))
                .collect();
            let pairs: Vec<(u64, &[u8])> = pairs.iter().map(|(k, v)| (*k, &v[..])).collect();
            (MSET, calc_testkit::mset(&pairs))
        }
    }
}

/// Runs `n` generated commands serially on the primary over a base
/// checkpoint, with two partials after the 600th and the 1000th, and
/// returns the log they wrote.
fn primary_log(dir: &CheckpointDir, n: u64, seed: u64) -> Vec<CommitRecord> {
    let log = Arc::new(CommitLog::default());
    let primary = strategy(log.clone());
    primary.write_base_checkpoint(dir).unwrap();
    let reg = registry();
    let mut rng = SplitMix::new(seed);
    let mut records = Vec::new();
    for i in 0..n {
        let (proc, params) = gen(&mut rng);
        let (seq, _) = log.append_commit();
        let rec = CommitRecord {
            seq,
            txn: TxnId(i),
            proc,
            params,
        };
        apply_commit(&primary, &reg, &rec).unwrap();
        records.push(rec);
        if i + 1 == 600 || i + 1 == 1_000 {
            primary.checkpoint(&NoopEnv, dir).unwrap();
        }
    }
    records
}

fn image(s: &dyn CheckpointStrategy) -> Vec<Option<Box<[u8]>>> {
    (0..HOT).map(|k| s.get(Key(k))).collect()
}

/// The reference: the chain installed, then one `apply_commit` per command
/// past the watermark, in log order.
fn serial(dir: &CheckpointDir, records: &[CommitRecord]) -> (CalcStrategy, Result<u64, String>) {
    dir.set_checkpoint_threads(1);
    let s = strategy(Arc::new(CommitLog::default()));
    let watermark = recover_checkpoint_only(dir, &s).unwrap().watermark;
    let reg = registry();
    let mut replayed = 0;
    for rec in records.iter().filter(|r| r.seq > watermark) {
        if let Err(e) = apply_commit(&s, &reg, rec) {
            return (s, Err(e.to_string()));
        }
        replayed += 1;
    }
    (s, Ok(replayed))
}

#[test]
fn lanes_replay_to_the_serial_image() {
    for seed in 0..4u64 {
        let dir = CheckpointDir::open(
            &calc_testkit::temp_dir("lanes"),
            Arc::new(Throttle::unlimited()),
        )
        .unwrap();
        let records = primary_log(&dir, 3_000, 0x1A4E_0000 ^ seed);
        let (reference, replayed) = serial(&dir, &records);
        let replayed = replayed.unwrap();
        assert!(
            replayed > 2 * calc_recovery::LANE_BATCH as u64,
            "a short tail: {replayed}"
        );
        for threads in [1usize, 2, 4] {
            dir.set_checkpoint_threads(threads);
            let s = strategy(Arc::new(CommitLog::default()));
            let outcome = recover(&dir, &s, &registry(), &records).unwrap();
            let what = format!("seed {seed} threads {threads}");
            assert_eq!(outcome.stats.threads, threads, "{what}");
            assert_eq!(outcome.replayed, replayed, "{what}");
            assert_eq!(s.record_count(), reference.record_count(), "{what}");
            assert_eq!(image(&s), image(&reference), "{what}");
        }
    }
}

/// A `SET` whose value was cut off: its key parses, so it joins a lane,
/// and its run aborts — the divergence replay must report.
fn truncated_set(seq: CommitSeq, key: u64) -> CommitRecord {
    CommitRecord {
        seq,
        txn: TxnId(900_000 + key),
        proc: SET,
        params: calc_txn::proc::params::Writer::new().u64(key).finish(),
    }
}

#[test]
fn a_diverging_lane_reports_the_serial_loops_error() {
    let dir = CheckpointDir::open(
        &calc_testkit::temp_dir("lanes-diverge"),
        Arc::new(Throttle::unlimited()),
    )
    .unwrap();
    let mut records = primary_log(&dir, 2_000, 0xD1CE);
    // Bad records in the tail: keys 3 and 11 share a lane, key 4 is in
    // another on two and on four lanes, so the one right after the first
    // may well fail first; the first is still the error the serial loop
    // stops at.
    for (at, key) in [(1_700usize, 3u64), (1_701, 4), (1_900, 11)] {
        let seq = records[at].seq;
        records[at] = truncated_set(seq, key);
    }
    let (_, expected) = serial(&dir, &records);
    let expected = expected.unwrap_err();
    assert!(expected.contains("900003"), "{expected}");
    for threads in [1usize, 2, 4] {
        dir.set_checkpoint_threads(threads);
        let s = strategy(Arc::new(CommitLog::default()));
        let err = recover(&dir, &s, &registry(), &records).unwrap_err();
        assert!(matches!(err, RecoveryError::ReplayDiverged(_)), "{err}");
        assert_eq!(err.to_string(), expected, "threads {threads}");
    }
}
