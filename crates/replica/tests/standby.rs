//! End-to-end standby tests over the real filesystem: a mini primary
//! (direct strategy calls + a segmented log writer, the sim driver's
//! serial idiom) feeds durable state to a [`Standby`] tailing the same
//! directories.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use calc_common::types::{Key, TxnId};
use calc_common::vfs::{OsVfs, Vfs};
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{CheckpointStrategy, NoopEnv};
use calc_core::throttle::Throttle;
use calc_engine::{Database, EngineConfig, MetricValue, StrategyKind, TxnOutcome};
use calc_recovery::replay::ReplayOps;
use calc_recovery::{truncate_segments_below, SegmentedLogWriter};
use calc_replica::{Standby, StandbyConfig, StandbyRunner};
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_testkit::{registry, DELETE, SET};
use calc_txn::proc::ProcId;

fn store_config() -> StoreConfig {
    StoreConfig::for_records(1024, 64)
}

fn tmp(name: &str) -> (PathBuf, PathBuf) {
    let base = calc_testkit::temp_dir(name);
    (base.join("ckpts"), base.join("cmdlog"))
}

/// A serial mini-primary: same durable footprint as the engine
/// (checkpoint dir + segmented command log), driven directly.
struct Primary {
    dir: CheckpointDir,
    strategy: Arc<dyn CheckpointStrategy>,
    log: Arc<CommitLog>,
    writer: SegmentedLogWriter,
    next_txn: u64,
}

impl Primary {
    fn open(
        vfs: Arc<dyn Vfs>,
        ckpt_dir: &Path,
        log_dir: &Path,
        segment_bytes: u64,
    ) -> Self {
        Self::open_kind(StrategyKind::Calc, vfs, ckpt_dir, log_dir, segment_bytes)
    }

    fn open_kind(
        kind: StrategyKind,
        vfs: Arc<dyn Vfs>,
        ckpt_dir: &Path,
        log_dir: &Path,
        segment_bytes: u64,
    ) -> Self {
        let dir =
            CheckpointDir::open_with_vfs(ckpt_dir, Arc::new(Throttle::unlimited()), vfs.clone())
                .unwrap();
        let log = Arc::new(CommitLog::default());
        let strategy = kind.build(store_config(), log.clone());
        let writer = SegmentedLogWriter::create(vfs, log_dir, segment_bytes).unwrap();
        Primary {
            dir,
            strategy,
            log,
            writer,
            next_txn: 0,
        }
    }

    fn commit(&mut self, proc: ProcId, p: Arc<[u8]>) -> u64 {
        let reg = registry();
        let procedure = reg.get(proc).unwrap();
        let mut bridge = ReplayOps::new(self.strategy.as_ref());
        procedure.run(&p, &mut bridge).unwrap();
        assert!(bridge.failed.is_none(), "primary op failed: {:?}", bridge.failed);
        let mut token = bridge.token;
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let (seq, stamp) = self.log.append_commit();
        self.writer
            .append(&CommitRecord {
                seq,
                txn,
                proc,
                params: p,
            })
            .unwrap();
        self.strategy.on_commit(&mut token, seq, stamp);
        self.strategy.txn_end(token);
        seq.0
    }

    fn set(&mut self, key: u64, val: &[u8]) -> u64 {
        self.commit(SET, calc_testkit::set(key, val))
    }

    fn delete(&mut self, key: u64) -> u64 {
        self.commit(DELETE, calc_testkit::delete(key))
    }

    fn sync(&mut self) {
        self.writer.sync().unwrap();
    }

    fn checkpoint(&self) -> u64 {
        self.strategy.checkpoint(&NoopEnv, &self.dir).unwrap().watermark.0
    }
}

fn standby_config(ckpt_dir: &Path, log_dir: &Path) -> StandbyConfig {
    StandbyConfig::new(
        StrategyKind::Calc,
        store_config(),
        ckpt_dir.to_path_buf(),
        log_dir.to_path_buf(),
    )
}

#[test]
fn bootstraps_from_chain_then_tails_new_commits() {
    let (ckpt_dir, log_dir) = tmp("bootstrap-tail");
    let mut primary = Primary::open(Arc::new(OsVfs), &ckpt_dir, &log_dir, 1 << 20);
    for k in 0..10u64 {
        primary.set(k, format!("v{k}").as_bytes());
    }
    primary.sync();
    let watermark = primary.checkpoint();

    let mut standby = Standby::open(standby_config(&ckpt_dir, &log_dir), registry()).unwrap();
    // Bootstrapped straight from the checkpoint chain, before any poll.
    assert_eq!(standby.applied_seq(), watermark);
    assert_eq!(standby.record_count(), 10);

    // New commits stream in; polls apply exactly the new suffix (the log
    // still holds the pre-checkpoint prefix, which must be skipped, not
    // re-applied).
    for k in 0..5u64 {
        primary.set(k, b"updated");
    }
    let deleted_at = primary.delete(9);
    primary.sync();
    let poll = standby.poll().unwrap();
    assert_eq!(poll.applied, 6, "only the post-checkpoint suffix applies");
    assert_eq!(poll.applied_seq, deleted_at);
    assert!(!poll.wedged && !poll.rebootstrapped);
    assert_eq!(standby.get(Key(3)).unwrap().as_ref(), b"updated");
    assert_eq!(standby.get(Key(7)).unwrap().as_ref(), b"v7");
    assert!(standby.get(Key(9)).is_none(), "delete must replicate");
    assert_eq!(standby.record_count(), 9);

    // Idle poll: no progress, no noise.
    let idle = standby.poll().unwrap();
    assert_eq!(idle.applied, 0);
    assert_eq!(idle.pending_bytes, 0);

    let health = standby.health();
    assert_eq!(health.standby_applied_seq(), deleted_at);
    assert!(!health.tail_exited());
}

#[test]
fn promote_seals_prefix_and_serves_through_engine() {
    let (ckpt_dir, log_dir) = tmp("promote");
    let mut primary = Primary::open(Arc::new(OsVfs), &ckpt_dir, &log_dir, 1 << 20);
    for k in 0..8u64 {
        primary.set(k, format!("p{k}").as_bytes());
    }
    primary.sync();
    primary.checkpoint();
    let last = {
        let mut last = 0;
        for k in 8..12u64 {
            last = primary.set(k, b"tail");
        }
        primary.sync();
        last
    };
    drop(primary); // primary is dead; its durable state remains

    let mut standby = Standby::open(standby_config(&ckpt_dir, &log_dir), registry()).unwrap();
    standby.poll().unwrap();
    let promoted = standby.promote().unwrap();
    assert_eq!(promoted.watermark(), last);
    assert_eq!(promoted.record_count(), 12);
    assert!(promoted.health().promoted());

    // The promoted node serves through a full engine: new commits land
    // above the sealed watermark, in a fresh log segment.
    let mut config = EngineConfig::new(StrategyKind::Calc, 1024, 64, ckpt_dir.clone());
    config.store = store_config();
    config.workers = 1;
    config.log_segment_bytes = Some(1 << 20);
    let db = promoted.into_database(config).unwrap();
    let outcome = db.execute(SET, calc_testkit::set(100, b"post"));
    match outcome {
        TxnOutcome::Committed(seq) => assert!(
            seq.0 > last,
            "post-promotion commit seq {} must exceed sealed watermark {last}",
            seq.0
        ),
        TxnOutcome::Aborted(r) => panic!("post-promotion txn aborted: {r:?}"),
    }
    assert_eq!(db.get(Key(100)).unwrap().as_ref(), b"post");
    assert_eq!(db.get(Key(3)).unwrap().as_ref(), b"p3");
    assert_eq!(db.record_count(), 13);
    // The promoted engine can checkpoint its inherited state.
    let stats = db.checkpoint_now().unwrap();
    assert!(stats.watermark.0 > last);
    db.shutdown();
}

/// The promoted engine's directory handle never scans the chain the
/// standby loaded, so its first partial must take its parent link from
/// the manifests — otherwise every post-promotion partial sits published
/// but unreachable: recovery ignores it, the merger never collapses it,
/// and the log-truncation floor stops advancing.
#[test]
fn post_promotion_partials_link_into_the_recovery_chain() {
    let (ckpt_dir, log_dir) = tmp("promote-chain");
    let mut primary =
        Primary::open_kind(StrategyKind::PCalc, Arc::new(OsVfs), &ckpt_dir, &log_dir, 1 << 20);
    primary.strategy.write_base_checkpoint(&primary.dir).unwrap(); // full 0
    for k in 0..8u64 {
        primary.set(k, format!("a{k}").as_bytes());
    }
    primary.sync();
    primary.checkpoint(); // partial 1
    for k in 4..10u64 {
        primary.set(k, format!("b{k}").as_bytes());
    }
    primary.sync();
    primary.checkpoint(); // partial 2
    for k in 10..12u64 {
        primary.set(k, b"tail");
    }
    primary.sync();
    drop(primary);

    let mut cfg = standby_config(&ckpt_dir, &log_dir);
    cfg.kind = StrategyKind::PCalc;
    let mut standby = Standby::open(cfg, registry()).unwrap();
    standby.poll().unwrap();
    let promoted = standby.promote().unwrap();
    assert_eq!(promoted.record_count(), 12);

    let engine_config = || {
        let mut config = EngineConfig::new(StrategyKind::PCalc, 1024, 64, ckpt_dir.clone());
        config.store = store_config();
        config.workers = 1;
        config
    };
    let db = promoted.into_database(engine_config()).unwrap();
    let set = |key: u64, val: &[u8]| {
        let out = db.execute(SET, calc_testkit::set(key, val));
        assert!(matches!(out, TxnOutcome::Committed(_)));
    };
    set(100, b"post-1");
    let first = db.checkpoint_now().unwrap();
    set(101, b"post-2");
    let out = db.execute(DELETE, calc_testkit::delete(3));
    assert!(matches!(out, TxnOutcome::Committed(_)));
    let second = db.checkpoint_now().unwrap();
    assert!(first.id > 2 && second.id > first.id);

    let (full, partials) = db.checkpoint_dir().chain().unwrap();
    assert_eq!(full.id, 0);
    let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
    assert_eq!(ids, vec![1, 2, first.id, second.id]);
    set(102, b"post-tail");
    db.sync_command_log().unwrap();
    let expected: Vec<_> = (0..110u64).map(|k| db.get(Key(k))).collect();
    let expected_count = db.record_count();
    db.shutdown();

    // A fresh engine over the same directories reproduces the store.
    let commands = calc_recovery::read_dir_logs(&OsVfs, &log_dir).unwrap();
    let mut config = engine_config();
    config.command_log_dir = Some(log_dir.clone());
    let restarted = Database::open(config, registry()).unwrap();
    let outcome = restarted.recover(&commands).unwrap();
    assert_eq!(outcome.checkpoint_files, 5, "full + all four partials loaded");
    for (k, exp) in expected.iter().enumerate() {
        assert_eq!(restarted.get(Key(k as u64)), *exp, "key {k}");
    }
    assert_eq!(restarted.record_count(), expected_count);
    restarted.shutdown();
}

#[test]
fn promote_opens_fresh_log_segment_above_survivors() {
    let (ckpt_dir, log_dir) = tmp("promote-segment");
    // Tiny segments force rotation so survivors span several indices.
    let mut primary = Primary::open(Arc::new(OsVfs), &ckpt_dir, &log_dir, 512);
    for k in 0..20u64 {
        primary.set(k, &[k as u8; 48]);
    }
    primary.sync();
    primary.checkpoint();
    drop(primary);

    let vfs = OsVfs;
    let before = calc_recovery::logfile::list_segments(&vfs, &log_dir).unwrap();
    let highest = before.last().unwrap().0;

    let mut standby = Standby::open(standby_config(&ckpt_dir, &log_dir), registry()).unwrap();
    standby.poll().unwrap();
    let promoted = standby.promote().unwrap();
    let writer = promoted.open_log(512).unwrap();
    assert!(
        writer.active_index() > highest,
        "fresh segment {} must seal above survivor {highest}",
        writer.active_index()
    );
}

#[test]
fn refuses_non_transaction_consistent_strategies() {
    let (ckpt_dir, log_dir) = tmp("refuse-fuzzy");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let mut cfg = standby_config(&ckpt_dir, &log_dir);
    cfg.kind = StrategyKind::Fuzzy;
    let err = match Standby::open(cfg, registry()) {
        Ok(_) => panic!("fuzzy standby must be refused"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("transaction-consistent"), "{err}");
}

#[test]
fn retention_truncation_behind_cursor_rebootstraps_without_loss() {
    let (ckpt_dir, log_dir) = tmp("retention-rebootstrap");
    let vfs: Arc<dyn Vfs> = Arc::new(OsVfs);
    let mut primary = Primary::open(vfs.clone(), &ckpt_dir, &log_dir, 512);
    // Anchor the standby early, at segment 0.
    for k in 0..4u64 {
        primary.set(k, &[1u8; 48]);
    }
    primary.sync();
    let mut standby = Standby::open(standby_config(&ckpt_dir, &log_dir), registry()).unwrap();
    let first = standby.poll().unwrap();
    assert_eq!(first.applied, 4);

    // The primary races ahead: rotations, a covering checkpoint, then
    // retention deletes every sealed segment below the watermark —
    // including the standby's cursor segment.
    let mut last = 0;
    for k in 4..24u64 {
        last = primary.set(k, &[2u8; 48]);
    }
    primary.sync();
    let watermark = primary.checkpoint();
    // The checkpoint watermark is the Resolve-transition seq — above the
    // last commit (phase markers consume seqs too).
    assert!(watermark > last);
    let stats =
        truncate_segments_below(vfs.as_ref(), &log_dir, calc_common::types::CommitSeq(watermark))
            .unwrap();
    assert!(stats.removed > 0, "retention must actually delete segments");

    // The standby must neither error nor skip: the chain covers
    // everything the deleted segments held, so it re-bootstraps.
    let poll = standby.poll().unwrap();
    assert!(poll.rebootstrapped, "{poll:?}");
    assert_eq!(standby.applied_seq(), watermark);
    assert_eq!(standby.rebootstraps(), 1);
    assert_eq!(standby.record_count(), 24);
    assert_eq!(standby.health().standby_rebootstraps(), 1);
    for k in 0..4u64 {
        assert_eq!(standby.get(Key(k)).unwrap().as_ref(), &[1u8; 48]);
    }

    // And tailing continues normally past the rebuild.
    primary.set(99, b"after");
    primary.sync();
    let next = standby.poll().unwrap();
    assert_eq!(next.applied, 1);
    assert_eq!(standby.get(Key(99)).unwrap().as_ref(), b"after");

    // Observers read the lag through the same list the wire prints.
    let values = standby.health().values();
    let listed = |name: &str| values.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(listed("standby_applied_seq"), MetricValue::Int(standby.applied_seq()));
    assert_eq!(listed("standby_commits_behind"), MetricValue::Int(1));
    assert_eq!(listed("standby_bytes_behind"), MetricValue::Int(0));
    assert_eq!(listed("standby_rebootstraps"), MetricValue::Int(1));
}

#[test]
fn retention_truncation_below_applied_leaves_cursor_undisturbed() {
    let (ckpt_dir, log_dir) = tmp("retention-keep");
    let vfs: Arc<dyn Vfs> = Arc::new(OsVfs);
    let mut primary = Primary::open(vfs.clone(), &ckpt_dir, &log_dir, 512);
    let mut last = 0;
    for k in 0..20u64 {
        last = primary.set(k, &[3u8; 48]);
    }
    primary.sync();
    let mut standby = Standby::open(standby_config(&ckpt_dir, &log_dir), registry()).unwrap();
    standby.poll().unwrap();
    assert_eq!(standby.applied_seq(), last);

    // Checkpoint + retention now remove segments the standby has already
    // applied past. A caught-up tailer's cursor sits in the newest
    // segment, which legitimate truncation (strictly below the covering
    // watermark) never deletes: the standby must not even notice.
    let watermark = primary.checkpoint();
    let stats =
        truncate_segments_below(vfs.as_ref(), &log_dir, calc_common::types::CommitSeq(watermark))
            .unwrap();
    assert!(stats.removed > 0, "retention must actually delete segments");
    let poll = standby.poll().unwrap();
    assert!(!poll.rebootstrapped && !poll.wedged, "{poll:?}");
    assert_eq!(standby.rebootstraps(), 0);
    assert_eq!(standby.lost_prefix_events(), 0);
    assert_eq!(standby.record_count(), 20);

    // Tailing continues seamlessly across the retention event.
    primary.set(7, b"fresh");
    primary.sync();
    standby.poll().unwrap();
    assert_eq!(standby.get(Key(7)).unwrap().as_ref(), b"fresh");
}

#[test]
fn abnormal_log_loss_without_covering_checkpoint_keeps_applied_state() {
    // Defensive branch: the cursor's segments vanish but no checkpoint
    // chain covers more than the standby already applied (operator error,
    // or a crash quarantined the covering chain after truncation ran).
    // Rebuilding would LOSE applied commits — the standby must keep its
    // in-memory state and re-anchor, never error.
    let (ckpt_dir, log_dir) = tmp("abnormal-loss");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let mut primary = Primary::open(Arc::new(OsVfs), &ckpt_dir, &log_dir, 512);
    let mut last = 0;
    for k in 0..12u64 {
        last = primary.set(k, &[4u8; 48]);
    }
    primary.sync();
    let mut standby = Standby::open(standby_config(&ckpt_dir, &log_dir), registry()).unwrap();
    standby.poll().unwrap();
    assert_eq!(standby.applied_seq(), last);
    drop(primary);

    // Every segment disappears; no checkpoint was ever written.
    for entry in std::fs::read_dir(&log_dir).unwrap() {
        std::fs::remove_file(entry.unwrap().path()).unwrap();
    }
    let poll = standby.poll().unwrap();
    assert!(!poll.rebootstrapped && !poll.wedged, "{poll:?}");
    assert_eq!(standby.lost_prefix_events(), 1);
    assert_eq!(standby.rebootstraps(), 0);
    assert_eq!(standby.applied_seq(), last, "applied commits must survive");
    assert_eq!(standby.record_count(), 12);
    for k in 0..12u64 {
        assert_eq!(standby.get(Key(k)).unwrap().as_ref(), &[4u8; 48]);
    }
}

#[test]
fn runner_tails_in_background_and_hands_back_for_promotion() {
    let (ckpt_dir, log_dir) = tmp("runner");
    let mut primary = Primary::open(Arc::new(OsVfs), &ckpt_dir, &log_dir, 1 << 20);
    primary.set(1, b"one");
    primary.sync();

    let mut cfg = standby_config(&ckpt_dir, &log_dir);
    cfg.poll_interval = std::time::Duration::from_millis(1);
    let standby = Standby::open(cfg, registry()).unwrap();
    let runner = StandbyRunner::spawn(standby);
    let health = runner.health();

    let last = primary.set(2, b"two");
    primary.sync();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while health.standby_applied_seq() < last {
        assert!(std::time::Instant::now() < deadline, "runner never caught up");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(!health.tail_stalled(), "live heartbeat must disarm watchdog");

    let standby = runner.stop().unwrap();
    let promoted = standby.promote().unwrap();
    assert_eq!(promoted.watermark(), last);
    assert_eq!(promoted.get(Key(2)).unwrap().as_ref(), b"two");
}

/// A poll replays through the one lane driver: at 1, 2 and 4 lanes, a log
/// of sets, deletes and multi-key sets over a hot key set, appended in
/// chunks with a poll after each, leaves the standby exactly where a
/// serial `apply_commit` loop over the same records leaves a store.
#[test]
fn laned_polls_match_a_serial_apply_loop() {
    use calc_common::rng::SplitMix;
    use calc_common::types::CommitSeq;
    use calc_recovery::apply_commit;
    use calc_testkit::MSET;
    const HOT: u64 = 16;
    const CHUNK: u64 = 400;
    for lanes in [1, 2, 4] {
        let (ckpt_dir, log_dir) = tmp("laned-polls");
        let mut writer = SegmentedLogWriter::create(Arc::new(OsVfs), &log_dir, 4096).unwrap();
        let serial = StrategyKind::Calc.build(store_config(), Arc::new(CommitLog::default()));
        let reg = registry();
        let mut cfg = standby_config(&ckpt_dir, &log_dir);
        cfg.checkpoint_threads = lanes;
        let mut standby = Standby::open(cfg, registry()).unwrap();
        let mut rng = SplitMix::new(0x1A4E_5000 + lanes as u64);
        let mut seq = 0u64;
        for _ in 0..6 {
            for _ in 0..CHUNK {
                seq += 1;
                let key = rng.next_below(HOT);
                let value = seq.to_le_bytes();
                let (proc, params) = match rng.next_below(10) {
                    0..=5 => (SET, calc_testkit::set(key, &value)),
                    6..=7 => (DELETE, calc_testkit::delete(key)),
                    _ => (MSET, calc_testkit::mset(&[(key, &value), (rng.next_below(HOT), b"m")])),
                };
                let rec = CommitRecord {
                    seq: CommitSeq(seq),
                    txn: TxnId(seq),
                    proc,
                    params,
                };
                apply_commit(serial.as_ref(), &reg, &rec).unwrap();
                writer.append(&rec).unwrap();
            }
            writer.sync().unwrap();
            let poll = standby.poll().unwrap();
            assert_eq!((poll.applied, poll.applied_seq), (CHUNK, seq), "{lanes} lanes");
        }
        for k in 0..HOT {
            assert_eq!(standby.get(Key(k)), serial.get(Key(k)), "{lanes} lanes: key {k}");
        }
        assert_eq!(standby.record_count(), serial.record_count(), "{lanes} lanes");
        assert_eq!(standby.applied_seq(), seq, "{lanes} lanes");
    }
}
