//! Protocol-level consistency tests for the baseline checkpointers,
//! mirroring `calc-core/tests/calc_protocol.rs`.
//!
//! Naive, IPP, and Zig-Zag claim transaction consistency via physical
//! points of consistency: their checkpoints must equal the journal prefix
//! at the quiesce watermark. Fuzzy is *not* transaction-consistent (the
//! paper's point); for it we assert the only guarantee it actually has —
//! every value in the checkpoint was *written* at some time (possibly by
//! a transaction that later aborted: the flush dirty-reads live data) —
//! and that it self-reports `transaction_consistent() == false`.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use calc_baselines::{FuzzyStrategy, IppStrategy, NaiveStrategy, ZigzagStrategy};
use calc_common::rng::SplitMix;
use calc_common::types::{CommitSeq, Key, Value};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::merge::{apply_entry, materialize_chain};
use calc_core::strategy::{CheckpointStrategy, EngineEnv, UndoImage, UndoRec};
use calc_core::throttle::Throttle;
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;
use calc_txn::locks::{LockManager, LockMode};

/// Test engine env: an admission RwLock. Workers hold read access per
/// transaction; `quiesced` takes write access (blocking new transactions
/// and waiting for active ones — a physical point of consistency).
struct GateEnv {
    gate: RwLock<()>,
}

impl GateEnv {
    fn new() -> Self {
        GateEnv {
            gate: RwLock::new(()),
        }
    }
}

impl EngineEnv for GateEnv {
    fn quiesced(&self, f: &mut dyn FnMut() -> io::Result<()>) -> io::Result<Duration> {
        let start = Instant::now();
        let _w = self.gate.write();
        f()?;
        Ok(start.elapsed())
    }
}

/// Journal of committed ops: `(seq, [(key, Some(value) | None=delete)])`.
type Journal = parking_lot::Mutex<Vec<(CommitSeq, Vec<(Key, Option<Value>)>)>>;

struct Harness {
    strategy: Arc<dyn CheckpointStrategy>,
    log: Arc<CommitLog>,
    locks: Arc<LockManager>,
    env: Arc<GateEnv>,
    journal: Journal,
    /// Every value ever *written* per key — including by transactions
    /// that later aborted. Fuzzy's asynchronous flush reads live data and
    /// can legitimately capture uncommitted values (the dirty-read
    /// anomaly that makes log-less fuzzy checkpoints unrecoverable).
    attempted: parking_lot::Mutex<BTreeMap<Key, HashSet<Vec<u8>>>>,
    initial: BTreeMap<Key, Value>,
}

fn build(make: impl FnOnce(StoreConfig, Arc<CommitLog>) -> Arc<dyn CheckpointStrategy>, n_keys: u64) -> Harness {
    let log = Arc::new(CommitLog::default());
    // Generous slot headroom: IPP (always) and Zig-Zag (during capture)
    // retain a deleted record's slot until the next checkpoint consumes
    // its dirty bit, so insert/delete churn needs O(deletes per
    // checkpoint interval) spare slots — a real property of those
    // algorithms, not a bug.
    let config = StoreConfig::for_records((n_keys as usize) * 4 + 60_000, 32);
    let strategy = make(config, log.clone());
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
        env: Arc::new(GateEnv::new()),
        journal: parking_lot::Mutex::new(Vec::new()),
        attempted: parking_lot::Mutex::new(BTreeMap::new()),
        initial,
    }
}

fn run_txn(h: &Harness, rng: &mut SplitMix, thread: u64, iter: u64, key_space: u64, with_id: bool) {
    // Admission: a transaction holds read access for its whole lifetime,
    // including the commit hook.
    let _admission = h.env.gate.read();
    let mut keys: Vec<Key> = (0..4).map(|_| Key(rng.next_below(key_space))).collect();
    let ext_key = Key(key_space + rng.next_below(key_space / 4 + 1));
    let do_ext = with_id && rng.chance(0.4);
    if do_ext {
        keys.push(ext_key);
    }
    let lockset: Vec<(Key, LockMode)> = keys.iter().map(|&k| (k, LockMode::Exclusive)).collect();
    let guard = h.locks.acquire(&lockset);

    let mut token = h.strategy.txn_begin();
    let mut undo: Vec<UndoRec> = Vec::new();
    let mut ops: Vec<(Key, Option<Value>)> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        if k == ext_key && do_ext {
            if h.strategy.get(k).is_some() {
                let old = h.strategy.apply_delete(&mut token, k).unwrap().unwrap();
                undo.push(UndoRec {
                    key: k,
                    img: UndoImage::Reinsert(old),
                });
                ops.push((k, None));
            } else {
                let v = format!("ins-{thread}-{iter}").into_bytes();
                assert!(h.strategy.apply_insert(&mut token, k, &v).unwrap());
                undo.push(UndoRec {
                    key: k,
                    img: UndoImage::Remove,
                });
                ops.push((k, Some(v.into_boxed_slice())));
            }
        } else {
            let v = format!("v-{thread}-{iter}-{i}").into_bytes();
            if let Ok(old) = h.strategy.apply_write(&mut token, k, &v) {
                undo.push(UndoRec {
                    key: k,
                    img: UndoImage::Restore(old.expect("update of existing key")),
                });
                ops.push((k, Some(v.into_boxed_slice())));
            }
        }
    }
    {
        let mut attempted = h.attempted.lock();
        for (k, v) in &ops {
            if let Some(v) = v {
                attempted.entry(*k).or_default().insert(v.to_vec());
            }
        }
    }
    if rng.chance(0.1) {
        undo.reverse();
        h.strategy.on_abort(&mut token, &undo);
    } else {
        let (seq, stamp) = h.log.append_commit();
        h.strategy.on_commit(&mut token, seq, stamp);
        h.journal.lock().push((seq, ops));
    }
    drop(guard);
    h.strategy.txn_end(token);
}

fn state_at(h: &Harness, watermark: CommitSeq) -> BTreeMap<Key, Value> {
    let mut entries = h.journal.lock().clone();
    entries.sort_by_key(|(s, _)| *s);
    let mut state = h.initial.clone();
    for (seq, ops) in entries {
        if seq > watermark {
            break;
        }
        for (k, v) in ops {
            match v {
                Some(v) => {
                    state.insert(k, v);
                }
                None => {
                    state.remove(&k);
                }
            }
        }
    }
    state
}

fn dirs(name: &str) -> CheckpointDir {
    let d = std::env::temp_dir().join(format!(
        "calc-baseline-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&d);
    CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
}

fn stress(
    make: impl FnOnce(StoreConfig, Arc<CommitLog>) -> Arc<dyn CheckpointStrategy>,
    name: &str,
    with_insert_delete: bool,
    seed: u64,
) {
    let n_keys = 200u64;
    let h = Arc::new(build(make, n_keys));
    let dir = Arc::new(dirs(name));
    let partial = h.strategy.partial();
    if partial {
        h.strategy.write_base_checkpoint(&dir).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let h = h.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut rng = SplitMix::new(seed * 100 + t);
                let mut iter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    run_txn(&h, &mut rng, t, iter, n_keys, with_insert_delete);
                    iter += 1;
                }
            })
        })
        .collect();

    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(30));
        h.strategy.checkpoint(h.env.as_ref(), &dir).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    let metas = dir.manifests();
    assert!(!metas.is_empty());
    if h.strategy.transaction_consistent() {
        if partial {
            let base = metas
                .iter()
                .find(|m| m.kind == CheckpointKind::Full)
                .expect("base full");
            for (i, upto) in metas
                .iter()
                .enumerate()
                .filter(|(_, m)| m.kind == CheckpointKind::Partial)
            {
                let chain: Vec<_> = metas[..=i]
                    .iter()
                    .filter(|m| m.kind == CheckpointKind::Partial)
                    .cloned()
                    .collect();
                let got = materialize_chain(base, &chain).unwrap();
                let expected = state_at(&h, upto.watermark);
                assert_eq!(got, expected, "{name}: partial chain through {} diverged", upto.id);
            }
        } else {
            for meta in &metas {
                let mut got = BTreeMap::new();
                for e in meta.read_all().unwrap() {
                    apply_entry(&mut got, e);
                }
                let expected = state_at(&h, meta.watermark);
                assert_eq!(got, expected, "{name}: checkpoint {} diverged", meta.id);
            }
        }
    } else {
        // Fuzzy: the only guarantee it actually has — every checkpointed
        // value was *written* at some point (initial, committed, or even
        // uncommitted-then-aborted: the asynchronous flush reads live
        // data, which is precisely the dirty-read anomaly that makes
        // log-less fuzzy checkpoints unrecoverable, §2.1).
        let mut ever: BTreeMap<Key, HashSet<Vec<u8>>> = BTreeMap::new();
        for (k, v) in &h.initial {
            ever.entry(*k).or_default().insert(v.to_vec());
        }
        for (k, set) in h.attempted.lock().iter() {
            ever.entry(*k).or_default().extend(set.iter().cloned());
        }
        for meta in &metas {
            for e in meta.read_all().unwrap() {
                if let calc_core::file::RecordEntry::Value(k, v) = e {
                    assert!(
                        ever.get(&k).is_some_and(|set| set.contains(&v.to_vec())),
                        "{name}: fuzzy checkpoint contains a value never written for {k:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn naive_full_consistent() {
    stress(|c, l| Arc::new(NaiveStrategy::full(c, l)), "naive-full", true, 1);
}

#[test]
fn naive_partial_consistent() {
    stress(|c, l| Arc::new(NaiveStrategy::partial(c, l)), "naive-part", true, 2);
}

#[test]
fn zigzag_full_consistent() {
    stress(|c, l| Arc::new(ZigzagStrategy::full(c, l)), "zz-full", true, 3);
}

#[test]
fn zigzag_partial_consistent() {
    stress(|c, l| Arc::new(ZigzagStrategy::partial(c, l)), "zz-part", true, 4);
}

#[test]
fn ipp_full_consistent() {
    stress(|c, l| Arc::new(IppStrategy::full(c, l)), "ipp-full", true, 5);
}

#[test]
fn ipp_partial_consistent() {
    stress(|c, l| Arc::new(IppStrategy::partial(c, l)), "ipp-part", true, 6);
}

#[test]
fn fuzzy_partial_weak_guarantees() {
    stress(|c, l| Arc::new(FuzzyStrategy::partial(c, l)), "fuzzy-part", false, 7);
}

#[test]
fn fuzzy_full_weak_guarantees() {
    stress(|c, l| Arc::new(FuzzyStrategy::full(c, l)), "fuzzy-full", false, 8);
}

#[test]
fn fuzzy_reports_not_transaction_consistent() {
    let log = Arc::new(CommitLog::default());
    let f = FuzzyStrategy::partial(StoreConfig::for_records(16, 16), log);
    assert!(!f.transaction_consistent());
}

#[test]
fn update_only_consistency_all_tc_strategies() {
    stress(|c, l| Arc::new(NaiveStrategy::full(c, l)), "upd-naive", false, 10);
    stress(|c, l| Arc::new(ZigzagStrategy::full(c, l)), "upd-zz", false, 11);
    stress(|c, l| Arc::new(IppStrategy::full(c, l)), "upd-ipp", false, 12);
}
