//! Restart's direct loader (`recover_checkpoint_only` / `recover`) held
//! against the serial reference `materialize_chain`, plus the edges the
//! loader's design leans on: the worker cap, the empty-store precondition,
//! a part that changes between validation and install, and one validation
//! pass + one install pass over every part.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use calc_common::rng::SplitMix;
use calc_common::types::{CommitSeq, Key};
use calc_common::vfs::{Vfs, VfsFile, VfsRead};
use calc_core::calc::CalcStrategy;
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::merge::materialize_chain;
use calc_core::partition::{capture_parts, ShardPartition};
use calc_core::strategy::CheckpointStrategy;
use calc_core::throttle::Throttle;
use calc_recovery::{recover, recover_checkpoint_only, RecoveryError};
use calc_storage::dual::StoreConfig;
use calc_testkit::CountingVfs;
use calc_txn::commitlog::CommitLog;

fn fresh() -> CalcStrategy {
    CalcStrategy::full(StoreConfig::for_records(4096, 16), Arc::new(CommitLog::default()))
}

fn open(name: &str) -> CheckpointDir {
    CheckpointDir::open(&calc_testkit::temp_dir(name), Arc::new(Throttle::unlimited())).unwrap()
}

/// One cycle as capture writes it: at most one value per key, striped
/// over `parts` capture threads, and the keys deleted since the previous
/// cycle as tombstones ahead of them.
#[derive(Default)]
struct Cycle {
    values: BTreeMap<u64, Vec<u8>>,
    tombstones: BTreeSet<u64>,
}

impl Cycle {
    fn put(&mut self, key: u64, value: Vec<u8>) {
        self.values.insert(key, value);
    }

    fn delete(&mut self, key: u64) {
        self.values.remove(&key);
        self.tombstones.insert(key);
    }

    fn publish(&self, dir: &CheckpointDir, kind: CheckpointKind, id: u64, parts: usize) {
        let values: Vec<(&u64, &Vec<u8>)> = self.values.iter().collect();
        let tombstones: Vec<Key> = self.tombstones.iter().map(|k| Key(*k)).collect();
        let split = ShardPartition::over(values.len(), parts);
        capture_parts(dir, kind, id, CommitSeq(id * 10 + 5), &tombstones, parts, |k, w, _| {
            values[split.range(k)]
                .iter()
                .try_for_each(|(key, value)| w.write_record(Key(**key), value))
        })
        .unwrap();
    }
}

/// Random chains — 1–4 partials over a full, every cycle written by 1, 2,
/// 3 or 7 capture threads — seeded with the cases first-wins could get
/// wrong: a tombstone for a key only the full holds, delete-then-reinsert
/// inside one partial, a reinsertion two partials after the delete, and a
/// key updated in every partial. Recovered on 1, 2, 4 and 7 loader
/// threads, the store must hold exactly what the serial oldest-first
/// materialization (and an independent model) says.
#[test]
fn direct_load_matches_serial_materialization() {
    const ONLY_IN_FULL: u64 = 100;
    const REINSERTED_AT_ONCE: u64 = 101;
    const REINSERTED_LATER: u64 = 102;
    const ALWAYS_UPDATED: u64 = 103;
    for case in 0..24u64 {
        let seed = 0xD1EC_710A_D000 ^ case;
        let mut rng = SplitMix::new(seed);
        let pick_parts = |rng: &mut SplitMix| [1usize, 2, 3, 7][rng.next_below(4) as usize];
        let value = |rng: &mut SplitMix| -> Vec<u8> {
            (0..1 + rng.next_below(40)).map(|_| rng.next_u64() as u8).collect()
        };
        let dir = open("direct-prop");
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

        let mut full = Cycle::default();
        for key in (0..64).chain(ONLY_IN_FULL..=ALWAYS_UPDATED) {
            if key >= ONLY_IN_FULL || rng.chance(0.7) {
                full.put(key, value(&mut rng));
            }
        }
        model.extend(full.values.clone());
        full.publish(&dir, CheckpointKind::Full, 0, pick_parts(&mut rng));

        let partials = 1 + rng.next_below(4);
        for id in 1..=partials {
            let mut cycle = Cycle::default();
            for _ in 0..rng.next_below(48) {
                let key = rng.next_below(64);
                if rng.chance(0.3) {
                    cycle.delete(key);
                } else {
                    cycle.put(key, value(&mut rng));
                }
            }
            if id == 1 {
                cycle.delete(ONLY_IN_FULL);
                cycle.delete(REINSERTED_AT_ONCE);
                cycle.put(REINSERTED_AT_ONCE, value(&mut rng));
                cycle.delete(REINSERTED_LATER);
            }
            if id == 3 {
                cycle.put(REINSERTED_LATER, value(&mut rng));
            }
            cycle.put(ALWAYS_UPDATED, value(&mut rng));
            for key in &cycle.tombstones {
                model.remove(key);
            }
            model.extend(cycle.values.clone());
            cycle.publish(&dir, CheckpointKind::Partial, id, pick_parts(&mut rng));
        }

        let (full_meta, partial_metas) = dir.chain().unwrap();
        assert_eq!(partial_metas.len() as u64, partials, "seed {seed:#x}");
        let serial = materialize_chain(&full_meta, &partial_metas).unwrap();
        let serial: BTreeMap<u64, Vec<u8>> =
            serial.into_iter().map(|(k, v)| (k.0, v.into_vec())).collect();
        assert_eq!(serial, model, "seed {seed:#x}: the reference itself is off");

        for threads in [1usize, 2, 4, 7] {
            dir.set_checkpoint_threads(threads);
            let store = fresh();
            let outcome = recover_checkpoint_only(&dir, &store).unwrap();
            let what = format!("seed {seed:#x} threads {threads}");
            assert_eq!(outcome.loaded_records, serial.len() as u64, "{what}");
            assert_eq!(outcome.stats.threads, threads, "{what}");
            assert_eq!(store.record_count(), serial.len(), "{what}");
            for key in (0..64).chain(ONLY_IN_FULL..=ALWAYS_UPDATED) {
                let got = store.get(Key(key)).map(|v| v.into_vec());
                assert_eq!(got.as_ref(), serial.get(&key), "{what} key {key}");
            }
        }
    }
}

/// A [`CountingVfs`] that also watches the part files being read: how many
/// were open at once, and — armed with a victim — cuts that part in half
/// just before its second open.
#[derive(Debug, Default)]
struct ProbeVfs {
    counting: CountingVfs,
    open_now: Arc<AtomicUsize>,
    most_open: Arc<AtomicUsize>,
    cut_before_reopen: Mutex<Option<PathBuf>>,
}

struct ProbedRead {
    inner: Box<dyn VfsRead>,
    open_now: Arc<AtomicUsize>,
}

impl Read for ProbedRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Seek for ProbedRead {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl Drop for ProbedRead {
    fn drop(&mut self) {
        self.open_now.fetch_sub(1, Ordering::SeqCst);
    }
}

fn is_part(path: &Path) -> bool {
    path.to_string_lossy().contains(".part-")
}

impl ProbeVfs {
    fn part_opens(&self) -> HashMap<String, usize> {
        self.counting
            .opens()
            .into_iter()
            .filter(|(p, _)| is_part(p))
            .map(|(p, n)| (p.file_name().unwrap().to_string_lossy().into_owned(), n))
            .collect()
    }
}

impl Vfs for ProbeVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.counting.create(path)
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsRead>> {
        if !is_part(path) {
            return self.counting.open_read(path);
        }
        let nth = self.counting.opens_of(path) + 1;
        if nth == 2 && self.cut_before_reopen.lock().unwrap().as_deref() == Some(path) {
            let len = std::fs::metadata(path)?.len();
            std::fs::OpenOptions::new().write(true).open(path)?.set_len(len / 2)?;
        }
        let inner = self.counting.open_read(path)?;
        let now = self.open_now.fetch_add(1, Ordering::SeqCst) + 1;
        self.most_open.fetch_max(now, Ordering::SeqCst);
        Ok(Box::new(ProbedRead {
            inner,
            open_now: self.open_now.clone(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counting.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counting.remove_file(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.counting.read_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.counting.create_dir_all(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.counting.sync_dir(dir)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.counting.len(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.counting.truncate(path, len)
    }
}

fn open_probed(name: &str) -> (CheckpointDir, Arc<ProbeVfs>) {
    let probe = Arc::new(ProbeVfs::default());
    let dir = CheckpointDir::open_with_vfs(
        &calc_testkit::temp_dir(name),
        Arc::new(Throttle::unlimited()),
        probe.clone(),
    )
    .unwrap();
    (dir, probe)
}

fn publish_counting(dir: &CheckpointDir, kind: CheckpointKind, id: u64, keys: u64, parts: usize) {
    let mut cycle = Cycle::default();
    for k in 0..keys {
        cycle.put(k, (id * 1000 + k).to_le_bytes().to_vec());
    }
    cycle.publish(dir, kind, id, parts);
}

/// Each loader (and validation) worker holds one part open at a time, so
/// the number of parts open at once bounds the workers alive: a 64-part
/// cycle on a 2-thread directory never has a third.
#[test]
fn a_64_part_cycle_loads_on_at_most_the_configured_workers() {
    let (dir, probe) = open_probed("direct-cap");
    publish_counting(&dir, CheckpointKind::Full, 0, 640, 64);
    dir.set_checkpoint_threads(2);
    let store = fresh();
    let outcome = recover_checkpoint_only(&dir, &store).unwrap();
    assert_eq!(outcome.loaded_records, 640);
    assert_eq!(outcome.stats.parts_loaded, 64);
    assert_eq!(outcome.stats.threads, 2);
    assert!(
        probe.most_open.load(Ordering::SeqCst) <= 2,
        "{} parts were open at once on a 2-thread directory",
        probe.most_open.load(Ordering::SeqCst)
    );
    assert_eq!(probe.open_now.load(Ordering::SeqCst), 0);
}

/// First-installed-wins is only right into an empty store; a strategy
/// that already holds a record is refused before anything is loaded.
#[test]
fn a_strategy_that_holds_records_is_refused() {
    let dir = open("direct-nonempty");
    publish_counting(&dir, CheckpointKind::Full, 0, 10, 2);
    let store = fresh();
    store.load_batch(&[(Key(3), &b"resident"[..])]).unwrap();
    let err = recover_checkpoint_only(&dir, &store).unwrap_err();
    assert!(matches!(err, RecoveryError::StrategyNotEmpty { records: 1 }), "{err}");
    assert_eq!(store.record_count(), 1, "nothing was installed");
    assert_eq!(store.get(Key(3)).as_deref(), Some(&b"resident"[..]));
}

/// The install pass re-checks what validation accepted: a part that loses
/// its tail in between fails the load with an I/O error and leaves the
/// cycle un-quarantined (the caller fails the boot; nothing is served).
#[test]
fn a_part_truncated_after_validation_fails_the_load() {
    let (dir, probe) = open_probed("direct-cut");
    publish_counting(&dir, CheckpointKind::Full, 0, 200, 2);
    publish_counting(&dir, CheckpointKind::Partial, 1, 50, 2);
    let victim = dir.path().join(CheckpointDir::part_file_name(0, CheckpointKind::Full, 1));
    *probe.cut_before_reopen.lock().unwrap() = Some(victim);
    let err = recover(&dir, &fresh(), &calc_testkit::registry(), &[]).unwrap_err();
    assert!(matches!(err, RecoveryError::Io(_)), "{err}");
    assert_eq!(dir.quarantined_count(), 0);
}

/// Satellite of ISSUE 13: one validation pass and one install pass over
/// each part, whatever the directory holds — no second deep scan to tell
/// "no checkpoint yet" from "checkpoints but no full".
#[test]
fn a_restart_opens_each_part_at_most_twice() {
    let registry = calc_testkit::registry();

    // A chain: every part validated once and installed once.
    let (dir, probe) = open_probed("direct-opens-chain");
    publish_counting(&dir, CheckpointKind::Full, 0, 40, 3);
    publish_counting(&dir, CheckpointKind::Partial, 1, 10, 2);
    let outcome = recover(&dir, &fresh(), &registry, &[]).unwrap();
    assert_eq!(outcome.checkpoint_files, 2);
    let opens = probe.part_opens();
    assert_eq!(opens.len(), 5);
    assert!(opens.values().all(|&n| n == 2), "{opens:?}");

    // A torn newest full: its parts are validated (at most once each)
    // and quarantined, never installed; the fallback chain is.
    let (dir, probe) = open_probed("direct-opens-torn");
    publish_counting(&dir, CheckpointKind::Full, 0, 40, 2);
    publish_counting(&dir, CheckpointKind::Full, 1, 40, 2);
    let torn = dir.path().join(CheckpointDir::part_file_name(1, CheckpointKind::Full, 0));
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let outcome = recover(&dir, &fresh(), &registry, &[]).unwrap();
    assert_eq!(outcome.loaded_records, 40);
    assert_eq!(dir.quarantined_count(), 3);
    for (name, n) in probe.part_opens() {
        let limit = if name.starts_with("ckpt-0000000001") { 1 } else { 2 };
        assert!(n <= limit, "{name} opened {n} times");
    }

    // Partials but no full: a broken chain, decided from the one scan.
    let (dir, probe) = open_probed("direct-opens-nofull");
    publish_counting(&dir, CheckpointKind::Partial, 1, 10, 2);
    let err = recover(&dir, &fresh(), &registry, &[]).unwrap_err();
    assert!(matches!(err, RecoveryError::NoFullCheckpoint), "{err}");
    let opens = probe.part_opens();
    assert_eq!(opens.len(), 2);
    assert!(opens.values().all(|&n| n == 1), "{opens:?}");

    // Nothing at all: a log-only cold start, and nothing to open.
    let (dir, probe) = open_probed("direct-opens-empty");
    let outcome = recover(&dir, &fresh(), &registry, &[]).unwrap();
    assert_eq!(outcome.checkpoint_files, 0);
    assert!(probe.part_opens().is_empty());
}

/// A key a newer cycle installed is dropped before it takes a slot, so a
/// restart over a chain without deletes leaves no hole in the arena for
/// the next capture scan to walk: the high-water mark is the record count.
#[test]
fn a_delete_free_chain_installs_without_holes() {
    let dir = open("direct-dense");
    publish_counting(&dir, CheckpointKind::Full, 0, 2_000, 3);
    publish_counting(&dir, CheckpointKind::Partial, 1, 700, 2);
    publish_counting(&dir, CheckpointKind::Partial, 2, 300, 2);
    for threads in [1usize, 2, 4] {
        dir.set_checkpoint_threads(threads);
        let store = fresh();
        let outcome = recover_checkpoint_only(&dir, &store).unwrap();
        assert_eq!(outcome.loaded_records, 2_000, "threads {threads}");
        assert_eq!(store.record_count(), 2_000, "threads {threads}");
        assert_eq!(
            store.store().slot_high_water(),
            store.record_count(),
            "threads {threads}"
        );
        assert_eq!(store.get(Key(5)), Some((2_005u64).to_le_bytes().into()));
        assert_eq!(store.get(Key(500)), Some((1_500u64).to_le_bytes().into()));
        assert_eq!(store.get(Key(1_500)), Some((1_500u64).to_le_bytes().into()));
    }
}
