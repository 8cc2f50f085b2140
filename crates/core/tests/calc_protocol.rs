//! Protocol-level consistency tests for CALC and pCALC.
//!
//! **The central invariant of the paper (§2.1):** a checkpoint taken at a
//! virtual point of consistency must reflect *every* change made by
//! transactions that committed before the point, and *no* change made by
//! transactions that committed after it.
//!
//! The harness runs worker threads that execute write transactions under
//! real exclusive locks while the checkpointer runs complete CALC cycles
//! concurrently. Every committed write is journaled with its commit
//! sequence; after the run, each checkpoint file is compared against the
//! state reconstructed by replaying the journal up to the checkpoint's
//! watermark. Written values are pure functions of (thread, iteration), so
//! the reconstruction is exact regardless of interleaving.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::phase::Phase;
use calc_common::rng::SplitMix;
use calc_common::types::{CommitSeq, Key, Value};
use calc_core::calc::CalcStrategy;
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::merge::{apply_entry, materialize_chain};
use calc_core::strategy::{CheckpointStrategy, NoopEnv, UndoImage, UndoRec};
use calc_core::throttle::Throttle;
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;
use calc_txn::locks::{LockManager, LockMode};

/// One journaled committed operation.
#[derive(Clone, Debug)]
enum Op {
    Put(Key, Value),
    Insert(Key, Value),
    Delete(Key),
}

struct Journal {
    entries: parking_lot::Mutex<Vec<(CommitSeq, Vec<Op>)>>,
}

impl Journal {
    fn new() -> Self {
        Journal {
            entries: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// State after applying all commits with `seq <= watermark`.
    fn state_at(&self, initial: &BTreeMap<Key, Value>, watermark: CommitSeq) -> BTreeMap<Key, Value> {
        let mut entries = self.entries.lock().clone();
        entries.sort_by_key(|(s, _)| *s);
        let mut state = initial.clone();
        for (seq, ops) in entries {
            if seq > watermark {
                break;
            }
            for op in ops {
                match op {
                    Op::Put(k, v) | Op::Insert(k, v) => {
                        state.insert(k, v);
                    }
                    Op::Delete(k) => {
                        state.remove(&k);
                    }
                }
            }
        }
        state
    }
}

fn checkpoint_state(meta: &calc_core::manifest::CheckpointMeta) -> BTreeMap<Key, Value> {
    let mut state = BTreeMap::new();
    for e in meta.read_all().unwrap() {
        apply_entry(&mut state, e);
    }
    state
}

fn dirs(name: &str) -> CheckpointDir {
    let d = std::env::temp_dir().join(format!(
        "calc-protocol-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&d);
    CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
}

struct Harness {
    strategy: Arc<CalcStrategy>,
    log: Arc<CommitLog>,
    locks: Arc<LockManager>,
    journal: Arc<Journal>,
    initial: BTreeMap<Key, Value>,
}

fn build(partial: bool, n_keys: u64) -> Harness {
    let log = Arc::new(CommitLog::default());
    let config = StoreConfig::for_records((n_keys as usize) * 4, 32);
    let strategy = Arc::new(if partial {
        CalcStrategy::partial(config, log.clone())
    } else {
        CalcStrategy::full(config, log.clone())
    });
    let mut initial = BTreeMap::new();
    for k in 0..n_keys {
        let v: Value = format!("init-{k}").into_bytes().into_boxed_slice();
        strategy.load_batch(&[(Key(k), &v[..])]).unwrap();
        initial.insert(Key(k), v);
    }
    Harness {
        strategy,
        log,
        locks: Arc::new(LockManager::new(64)),
        journal: Arc::new(Journal::new()),
        initial,
    }
}

/// Runs one worker transaction: updates `n_writes` random keys in
/// `0..key_space` with deterministic values; with probability
/// `p_insert_delete`, also inserts/deletes keys in the extended range.
/// Aborts (rolls back, uncommitted) with probability `p_abort`.
#[allow(clippy::too_many_arguments)]
fn run_txn(
    h: &Harness,
    rng: &mut SplitMix,
    thread: u64,
    iter: u64,
    key_space: u64,
    n_writes: usize,
    p_insert_delete: f64,
    p_abort: f64,
) {
    let mut keys: Vec<Key> = (0..n_writes)
        .map(|_| Key(rng.next_below(key_space)))
        .collect();
    // Occasionally target the extended keyspace with inserts/deletes.
    let ext_key = Key(key_space + rng.next_below(key_space / 4 + 1));
    let do_ext = rng.chance(p_insert_delete);
    if do_ext {
        keys.push(ext_key);
    }
    let lockset: Vec<(Key, LockMode)> = keys.iter().map(|&k| (k, LockMode::Exclusive)).collect();
    let guard = h.locks.acquire(&lockset);

    let mut token = h.strategy.txn_begin();
    let mut undo: Vec<UndoRec> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();

    for (i, &k) in keys.iter().enumerate() {
        if k == ext_key && do_ext {
            // Insert if absent, delete if present.
            if h.strategy.get(k).is_some() {
                let old = h.strategy.apply_delete(&mut token, k).unwrap().unwrap();
                undo.push(UndoRec {
                    key: k,
                    img: UndoImage::Reinsert(old),
                });
                ops.push(Op::Delete(k));
            } else {
                let v = format!("ins-{thread}-{iter}").into_bytes();
                assert!(h.strategy.apply_insert(&mut token, k, &v).unwrap());
                undo.push(UndoRec {
                    key: k,
                    img: UndoImage::Remove,
                });
                ops.push(Op::Insert(k, v.into_boxed_slice()));
            }
        } else {
            let v = format!("v-{thread}-{iter}-{i}").into_bytes();
            match h.strategy.apply_write(&mut token, k, &v) {
                Ok(old) => {
                    undo.push(UndoRec {
                        key: k,
                        img: UndoImage::Restore(old.expect("updates hit existing keys")),
                    });
                    ops.push(Op::Put(k, v.into_boxed_slice()));
                }
                Err(_) => {
                    // Key deleted by an earlier op of this txn or another
                    // txn's committed delete (duplicate key in our set
                    // after a delete). Skip.
                }
            }
        }
    }

    if rng.chance(p_abort) {
        undo.reverse();
        h.strategy.on_abort(&mut token, &undo);
    } else {
        let (seq, stamp) = h.log.append_commit();
        h.strategy.on_commit(&mut token, seq, stamp);
        h.journal.entries.lock().push((seq, ops));
    }
    drop(guard);
    h.strategy.txn_end(token);
}

#[allow(clippy::too_many_arguments)]
fn stress(
    partial: bool,
    n_keys: u64,
    threads: u64,
    checkpoints: usize,
    p_insert_delete: f64,
    p_abort: f64,
    name: &str,
    seed: u64,
) {
    let h = Arc::new(build(partial, n_keys));
    let dir = Arc::new(dirs(name));
    if partial {
        // pCALC needs a full ancestor for recovery-chain materialization.
        h.strategy.write_base_checkpoint(&dir).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let h = h.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut rng = SplitMix::new(seed * 1000 + t);
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    run_txn(&h, &mut rng, t, iter, n_keys, 4, p_insert_delete, p_abort);
                    iter += 1;
                }
            })
        })
        .collect();

    // The cycles run on their own thread so that every wait of this test
    // has a deadline: a wedged drain fails with the protocol's state
    // instead of hanging the suite.
    let checkpointer = {
        let (h, dir) = (h.clone(), dir.clone());
        std::thread::spawn(move || {
            for _ in 0..checkpoints {
                std::thread::sleep(Duration::from_millis(30));
                h.strategy.checkpoint(&NoopEnv, &dir).unwrap();
            }
        })
    };
    wait_until(&h, "the checkpoint cycles finish", || checkpointer.is_finished());
    checkpointer.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        wait_until(&h, "a worker exits", || w.is_finished());
        w.join().unwrap();
    }

    // Verify every checkpoint against the journal prefix at its watermark.
    let metas = dir.manifests();
    assert!(!metas.is_empty());
    if partial {
        // Cumulatively materialize base + partials up to each id.
        let all = metas;
        let base = all
            .iter()
            .find(|m| m.kind == CheckpointKind::Full)
            .expect("base full checkpoint");
        for (i, upto) in all
            .iter()
            .enumerate()
            .filter(|(_, m)| m.kind == CheckpointKind::Partial)
        {
            let chain: Vec<_> = all[..=i]
                .iter()
                .filter(|m| m.kind == CheckpointKind::Partial)
                .cloned()
                .collect();
            let got = materialize_chain(base, &chain).unwrap();
            let expected = h.journal.state_at(&h.initial, upto.watermark);
            assert_eq!(
                got.len(),
                expected.len(),
                "partial chain through id {} size mismatch",
                upto.id
            );
            assert_eq!(got, expected, "partial chain through id {} diverged", upto.id);
        }
    } else {
        for meta in metas {
            let got = checkpoint_state(&meta);
            let expected = h.journal.state_at(&h.initial, meta.watermark);
            assert_eq!(
                got.len(),
                expected.len(),
                "checkpoint {} (watermark {}) size mismatch",
                meta.id,
                meta.watermark
            );
            assert_eq!(got, expected, "checkpoint {} diverged", meta.id);
        }
    }

    // Post-run hygiene: no leaked stable versions and, after everything
    // drained, memory is back to live-only.
    let m = h.strategy.memory();
    assert_eq!(
        m.extra_count, 0,
        "stable versions leaked after checkpoint cycles"
    );
}

#[test]
fn calc_full_updates_only() {
    stress(false, 200, 4, 3, 0.0, 0.0, "full-upd", 1);
}

#[test]
fn calc_full_with_inserts_and_deletes() {
    stress(false, 200, 4, 3, 0.4, 0.0, "full-insdel", 2);
}

#[test]
fn calc_full_with_aborts() {
    stress(false, 200, 4, 3, 0.3, 0.2, "full-abort", 3);
}

#[test]
fn pcalc_partial_updates_only() {
    stress(true, 200, 4, 4, 0.0, 0.0, "part-upd", 4);
}

#[test]
fn pcalc_partial_with_inserts_and_deletes() {
    stress(true, 200, 4, 4, 0.4, 0.0, "part-insdel", 5);
}

#[test]
fn pcalc_partial_with_aborts() {
    stress(true, 200, 4, 4, 0.3, 0.2, "part-abort", 6);
}

#[test]
fn calc_checkpoint_of_quiet_system_equals_state() {
    // No concurrent writers at all: checkpoint == full current state.
    let h = build(false, 50);
    let dir = dirs("quiet");
    let stats = h.strategy.checkpoint(&NoopEnv, &dir).unwrap();
    assert_eq!(stats.records, 50);
    let metas = dir.manifests();
    let got = checkpoint_state(&metas[0]);
    assert_eq!(got, h.initial);
}

#[test]
fn pcalc_quiet_system_produces_empty_partial() {
    let h = build(true, 50);
    let dir = dirs("quiet-partial");
    h.strategy.write_base_checkpoint(&dir).unwrap();
    let stats = h.strategy.checkpoint(&NoopEnv, &dir).unwrap();
    assert_eq!(
        stats.records, 0,
        "nothing changed since the base checkpoint"
    );
    assert_eq!(stats.kind, CheckpointKind::Partial);
}

#[test]
fn consecutive_checkpoints_remain_consistent() {
    // Several back-to-back cycles on the same strategy instance: polarity
    // swaps and bit hygiene must survive arbitrarily many cycles.
    let h = build(false, 100);
    let dir = dirs("consecutive");
    for round in 0..5u64 {
        // Mutate a few records between checkpoints (single-threaded).
        let mut token = h.strategy.txn_begin();
        for k in 0..10 {
            let v = format!("round-{round}-{k}").into_bytes();
            h.strategy
                .apply_write(&mut token, Key(k), &v)
                .unwrap();
        }
        let (seq, stamp) = h.log.append_commit();
        h.strategy.on_commit(&mut token, seq, stamp);
        h.strategy.txn_end(token);

        h.strategy.checkpoint(&NoopEnv, &dir).unwrap();
    }
    let metas = dir.manifests();
    assert_eq!(metas.len(), 5);
    // Every cycle reads back whole, not only the newest.
    for meta in &metas {
        assert_eq!(meta.read_all().unwrap().len() as u64, meta.records, "cycle {}", meta.id);
    }
    // The newest checkpoint reflects the final state.
    let last = metas.last().unwrap();
    let got = checkpoint_state(last);
    for k in 0..10u64 {
        assert_eq!(
            got[&Key(k)],
            format!("round-4-{k}").into_bytes().into_boxed_slice()
        );
    }
    for k in 10..100u64 {
        assert_eq!(got[&Key(k)], h.initial[&Key(k)]);
    }
}

/// How long any wait in this file may last. Generous: the point is to
/// fail with a diagnosis under CPU contention, not to time the protocol.
const WAIT_DEADLINE: Duration = Duration::from_secs(120);

/// Polls `cond` until it holds; past the deadline, panics with the
/// published stamp and how many transactions are still registered under
/// each phase — what a wedged drain looks like from outside.
fn wait_until(h: &Harness, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + WAIT_DEADLINE;
    while !cond() {
        if Instant::now() >= deadline {
            let phases = h.strategy.phases();
            let active: Vec<String> = Phase::ALL
                .iter()
                .map(|&p| format!("{p}={}", phases.active_in(p)))
                .collect();
            panic!(
                "waited {WAIT_DEADLINE:?} until {what}: stamp {}, active_in [{}]",
                h.log.current_stamp(),
                active.join(" ")
            );
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Waits until the commit log reports `phase`.
fn spin_until_phase(h: &Harness, phase: Phase) {
    wait_until(h, &format!("phase {phase}"), || h.log.current_stamp().phase == phase);
}

/// Regression: a PREPARE-started transaction that inserts a key and then
/// updates it in the same transaction must not copy its *own uncommitted
/// insert* as a provisional pre-image. When such a transaction commits in
/// RESOLVE (after the point of consistency), the commit hook marks its
/// slots; with the bogus stable version in place the capture scan would
/// emit the transaction's own value as the "point value" — resurrecting a
/// key that was absent at the point. Found by the conformance harness
/// (pCALC ghost record under checkpoint contention); affects full CALC
/// identically.
fn self_insert_preimage_case(partial: bool) {
    let h = Arc::new(build(partial, 4));
    let dir = Arc::new(dirs(if partial { "selfins-p" } else { "selfins-f" }));
    if partial {
        h.strategy.write_base_checkpoint(&dir).unwrap();
    }
    let ghost = Key(100); // absent at the point of consistency

    // Rest-started holder: keeps the PREPARE drain open so the next
    // txn_begin is guaranteed to land in PREPARE.
    let t0 = h.strategy.txn_begin();
    let (hc, dc) = (h.clone(), dir.clone());
    let checkpointer =
        std::thread::spawn(move || hc.strategy.checkpoint(&NoopEnv, &dc).unwrap().watermark);

    spin_until_phase(&h, Phase::Prepare);
    let mut t1 = h.strategy.txn_begin();
    assert_eq!(t1.stamp.phase, Phase::Prepare);
    assert!(h.strategy.apply_insert(&mut t1, ghost, b"own-insert").unwrap());
    h.strategy.apply_write(&mut t1, ghost, b"own-update").unwrap();

    // Release the PREPARE drain; the checkpointer takes the point of
    // consistency and then blocks in the RESOLVE drain on t1.
    h.strategy.txn_end(t0);
    spin_until_phase(&h, Phase::Resolve);
    let (seq, stamp) = h.log.append_commit();
    assert_eq!(stamp.phase, Phase::Resolve);
    h.strategy.on_commit(&mut t1, seq, stamp);
    h.strategy.txn_end(t1);

    let watermark = checkpointer.join().unwrap();
    assert!(seq > watermark, "commit must land after the point");

    // The checkpoint file at `watermark` must not mention the ghost key
    // (neither a value nor a tombstone — it never existed at the point).
    let metas = dir.manifests();
    let state = checkpoint_state(metas.last().unwrap());
    assert!(
        !state.contains_key(&ghost),
        "transaction's own uncommitted insert leaked into the checkpoint"
    );
    // The live record itself survives with the final value.
    assert_eq!(
        h.strategy.get(ghost).as_deref(),
        Some(&b"own-update"[..]),
        "live record lost"
    );
}

#[test]
fn full_checkpoint_excludes_self_inserted_preimage() {
    self_insert_preimage_case(false);
}

#[test]
fn partial_checkpoint_excludes_self_inserted_preimage() {
    self_insert_preimage_case(true);
}

/// Regression: a transaction that *starts* during COMPLETE is never
/// drained before `SwapAvailableAndNotAvailable`, so its insert's status
/// bit is written under the old polarity. Without swap-generation
/// settling, the bit read "available with no stable version" after the
/// swap and the *next* capture scan dropped the record from a checkpoint
/// whose watermark covered its commit. Found by the conformance harness
/// (TPC-C order rows missing from full CALC checkpoints).
fn complete_started_insert_case(partial: bool) {
    let h = Arc::new(build(partial, 4));
    let dir = Arc::new(dirs(if partial { "lateins-p" } else { "lateins-f" }));
    if partial {
        h.strategy.write_base_checkpoint(&dir).unwrap();
    }
    let key = Key(300);

    let t0 = h.strategy.txn_begin(); // Rest-started: holds the PREPARE drain
    let (hc, dc) = (h.clone(), dir.clone());
    let checkpointer =
        std::thread::spawn(move || hc.strategy.checkpoint(&NoopEnv, &dc).unwrap().watermark);

    spin_until_phase(&h, Phase::Prepare);
    let t1 = h.strategy.txn_begin(); // Prepare-started: holds the RESOLVE drain
    h.strategy.txn_end(t0);
    spin_until_phase(&h, Phase::Resolve);
    let t2 = h.strategy.txn_begin(); // Resolve-started: holds the COMPLETE drain
    h.strategy.txn_end(t1);
    spin_until_phase(&h, Phase::Complete);

    // The polarity swap (full) / cleanup (partial) cannot run until t2
    // ends, so this insert deterministically lands inside the COMPLETE
    // window, before the swap.
    let mut t3 = h.strategy.txn_begin();
    assert_eq!(t3.stamp.phase, Phase::Complete);
    assert!(h.strategy.apply_insert(&mut t3, key, b"late-insert").unwrap());
    let (seq, stamp) = h.log.append_commit();
    assert_eq!(stamp.phase, Phase::Complete);
    h.strategy.on_commit(&mut t3, seq, stamp);
    h.strategy.txn_end(t3);
    h.strategy.txn_end(t2);
    let wm1 = checkpointer.join().unwrap();
    assert!(seq > wm1, "commit must be outside the first checkpoint");

    // The next checkpoint's watermark covers the commit, so the record
    // must be captured.
    let stats = h.strategy.checkpoint(&NoopEnv, &dir).unwrap();
    assert!(stats.watermark >= seq);
    let metas = dir.manifests();
    let state = checkpoint_state(metas.last().unwrap());
    assert_eq!(
        state.get(&key).map(|v| &v[..]),
        Some(&b"late-insert"[..]),
        "COMPLETE-started insert missing from the covering checkpoint"
    );
}

#[test]
fn full_checkpoint_captures_complete_started_insert() {
    complete_started_insert_case(false);
}

#[test]
fn partial_checkpoint_captures_complete_started_insert() {
    complete_started_insert_case(true);
}

#[test]
fn memory_returns_to_baseline_after_checkpoint() {
    // CALC's memory claim (Figure 6): extra copies only exist during the
    // checkpoint window.
    let h = Arc::new(build(false, 500));
    let dir = dirs("membase");
    let stop = Arc::new(AtomicBool::new(false));
    let h2 = h.clone();
    let stop2 = stop.clone();
    let writer = std::thread::spawn(move || {
        let mut rng = SplitMix::new(77);
        let mut iter = 0;
        while !stop2.load(Ordering::Relaxed) {
            run_txn(&h2, &mut rng, 0, iter, 500, 8, 0.0, 0.0);
            iter += 1;
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(20));
    let before = h.strategy.memory();
    assert_eq!(before.extra_count, 0, "no stables outside checkpoint window");
    h.strategy.checkpoint(&NoopEnv, &dir).unwrap();
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let after = h.strategy.memory();
    assert_eq!(after.extra_count, 0, "stables all erased by capture");
    assert_eq!(after.live_count, 500);
}

/// Every record of `strategy`, read back one key at a time.
fn read_back(strategy: &CalcStrategy, keys: impl Iterator<Item = Key>) -> BTreeMap<Key, Value> {
    keys.filter_map(|k| strategy.get(k).map(|v| (k, v)))
        .collect()
}

/// A store's slot contents are backed chunk by chunk; a capture and a
/// reload must not care where the high water sits. With it one slot
/// short of a chunk boundary, on it and one past it, CALC's full
/// checkpoint (records loaded in one batch) and pCALC's partial (records
/// inserted by transactions, one slot at a time) read back every record,
/// and a fresh store loaded from each holds every record again.
#[test]
fn capture_round_trips_at_an_arena_chunk_boundary() {
    let chunk = calc_storage::arena::chunk_slots() as u64;
    for n in [chunk - 1, chunk, chunk + 1] {
        let config = StoreConfig::for_records(2 * chunk as usize, 32);
        let expected: BTreeMap<Key, Value> = (0..n)
            .map(|k| (Key(k), format!("rec-{k}").into_bytes().into_boxed_slice()))
            .collect();
        let records: Vec<(Key, &[u8])> = expected.iter().map(|(k, v)| (*k, &v[..])).collect();
        let reload = |partial: bool, state: &BTreeMap<Key, Value>| {
            let log = Arc::new(CommitLog::default());
            let fresh = if partial {
                CalcStrategy::partial(config.clone(), log)
            } else {
                CalcStrategy::full(config.clone(), log)
            };
            let batch: Vec<(Key, &[u8])> = state.iter().map(|(k, v)| (*k, &v[..])).collect();
            assert_eq!(fresh.load_batch(&batch).unwrap(), n as usize);
            read_back(&fresh, (0..n + 1).map(Key))
        };

        // CALC, full checkpoint.
        let log = Arc::new(CommitLog::default());
        let calc = CalcStrategy::full(config.clone(), log);
        assert_eq!(calc.load_batch(&records).unwrap(), n as usize);
        let dir = dirs(&format!("chunk-full-{n}"));
        assert_eq!(calc.checkpoint(&NoopEnv, &dir).unwrap().records, n);
        let got = checkpoint_state(&dir.manifests()[0]);
        assert_eq!(got, expected, "full checkpoint at high water {n}");
        assert_eq!(
            reload(false, &got),
            expected,
            "CALC reload at high water {n}"
        );

        // pCALC, partial checkpoint over an empty base.
        let log = Arc::new(CommitLog::default());
        let pcalc = CalcStrategy::partial(config.clone(), log.clone());
        let dir = dirs(&format!("chunk-partial-{n}"));
        pcalc.write_base_checkpoint(&dir).unwrap();
        for txn in records.chunks(256) {
            let mut token = pcalc.txn_begin();
            for &(key, value) in txn {
                assert!(pcalc.apply_insert(&mut token, key, value).unwrap());
            }
            let (seq, stamp) = log.append_commit();
            pcalc.on_commit(&mut token, seq, stamp);
            pcalc.txn_end(token);
        }
        assert_eq!(read_back(&pcalc, (0..n + 1).map(Key)), expected);
        let stats = pcalc.checkpoint(&NoopEnv, &dir).unwrap();
        assert_eq!((stats.kind, stats.records), (CheckpointKind::Partial, n));
        let metas = dir.manifests();
        let got = materialize_chain(&metas[0], &metas[1..]).unwrap();
        assert_eq!(got, expected, "partial chain at high water {n}");
        assert_eq!(
            reload(true, &got),
            expected,
            "pCALC reload at high water {n}"
        );
    }
}
