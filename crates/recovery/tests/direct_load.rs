//! Restart's direct loader (`recover_checkpoint_only` / `recover`) held
//! against the serial reference `materialize_chain`, plus the edges the
//! loader's design leans on: the worker cap, the empty-store precondition,
//! one pass over every part of the chain and none over a cycle outside it,
//! and the check it makes as it streams — a corrupt, missing, truncated or
//! refused part quarantines its whole cycle and the load falls back.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
/// were open at once.
#[derive(Debug, Default)]
struct ProbeVfs {
    counting: CountingVfs,
    open_now: Arc<AtomicUsize>,
    most_open: Arc<AtomicUsize>,
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

/// Each loader worker holds one part open at a time, so
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

/// How many times each opened part file of `cycle` was opened, in part
/// order; a part never opened is absent.
fn opens_of(probe: &ProbeVfs, cycle: u64) -> Vec<usize> {
    let prefix = format!("ckpt-{cycle:010}-");
    let mut opens: Vec<(String, usize)> =
        probe.part_opens().into_iter().filter(|(name, _)| name.starts_with(&prefix)).collect();
    opens.sort();
    opens.into_iter().map(|(_, n)| n).collect()
}

/// Three fulls, each `keys` records over `parts` parts: cycle 0 sits
/// outside every chain a restart loads, cycle 1 is the fallback, cycle 2
/// the newest.
fn three_fulls(name: &str, keys: u64, parts: usize) -> (CheckpointDir, Arc<ProbeVfs>) {
    let (dir, probe) = open_probed(name);
    for id in 0..3 {
        publish_counting(&dir, CheckpointKind::Full, id, keys, parts);
    }
    (dir, probe)
}

/// What a restart over [`three_fulls`] must end with once cycle 2 failed
/// to read: cycle 1's records and watermark, cycle 2 quarantined whole
/// (`quarantined` files), cycle 1's parts each read once and cycle 0's
/// never, cycle 2's at most once each.
fn assert_fell_back_to_cycle_1(
    dir: &CheckpointDir,
    probe: &ProbeVfs,
    store: &CalcStrategy,
    quarantined: u64,
) {
    assert_eq!(store.record_count(), 6);
    for k in 0..6u64 {
        assert_eq!(store.get(Key(k)), Some((1_000 + k).to_le_bytes().into()), "key {k}");
    }
    let ids: Vec<u64> = dir.manifests().iter().map(|m| m.id).collect();
    assert_eq!(ids, vec![0, 1], "the whole cycle was set aside, not one part");
    assert_eq!(dir.quarantined_count(), quarantined);
    assert!(dir
        .path()
        .join(format!("{}.quarantine", CheckpointDir::manifest_file_name(2, CheckpointKind::Full)))
        .exists());
    assert_eq!(opens_of(probe, 0), Vec::<usize>::new(), "a cycle outside the chain was read");
    assert_eq!(opens_of(probe, 1), vec![1, 1, 1]);
    assert!(opens_of(probe, 2).iter().all(|&n| n <= 1), "{:?}", probe.part_opens());
}

/// A byte flipped in the middle of one part of the newest full: the load
/// quarantines that whole cycle — manifest and all three parts, two of
/// which read clean — and installs the previous full into the emptied
/// store.
#[test]
fn a_corrupt_part_quarantines_the_whole_cycle() {
    let (dir, probe) = three_fulls("direct-corrupt", 6, 3);
    let victim = dir.path().join(CheckpointDir::part_file_name(2, CheckpointKind::Full, 1));
    let mut data = std::fs::read(&victim).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0xFF;
    std::fs::write(&victim, &data).unwrap();
    assert_eq!(dir.manifests().len(), 3, "the catalog reads no part");

    let store = fresh();
    let outcome = recover_checkpoint_only(&dir, &store).unwrap();
    assert_eq!(outcome.watermark, CommitSeq(15));
    assert_fell_back_to_cycle_1(&dir, &probe, &store, 4);
    for k in 0..3 {
        let part = CheckpointDir::part_file_name(2, CheckpointKind::Full, k);
        assert!(dir.path().join(format!("{part}.quarantine")).exists(), "{part}");
    }
}

/// A part gone from the newest full fails its open: the manifest and the
/// two parts left are quarantined, and the previous full loads.
#[test]
fn a_missing_part_quarantines_the_whole_cycle() {
    let (dir, probe) = three_fulls("direct-missing", 6, 3);
    std::fs::remove_file(dir.path().join(CheckpointDir::part_file_name(2, CheckpointKind::Full, 2)))
        .unwrap();
    let store = fresh();
    recover(&dir, &store, &calc_testkit::registry(), &[]).unwrap();
    assert_fell_back_to_cycle_1(&dir, &probe, &store, 3);
}

/// A part that lost its tail after its cycle was published (its footer
/// gone) fails the load; the cycle is quarantined and the previous full
/// loads. The partial above the torn full stays catalogued, outside the
/// chain: its parent is the quarantined cycle.
#[test]
fn a_part_truncated_after_publish_quarantines_its_cycle() {
    let (dir, probe) = open_probed("direct-cut");
    publish_counting(&dir, CheckpointKind::Full, 0, 200, 2);
    publish_counting(&dir, CheckpointKind::Full, 1, 200, 2);
    publish_counting(&dir, CheckpointKind::Partial, 2, 50, 2);
    let victim = dir.path().join(CheckpointDir::part_file_name(1, CheckpointKind::Full, 1));
    let len = std::fs::metadata(&victim).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&victim).unwrap().set_len(len / 2).unwrap();

    let store = fresh();
    let outcome = recover(&dir, &store, &calc_testkit::registry(), &[]).unwrap();
    assert_eq!(outcome.watermark, CommitSeq(5));
    assert_eq!(outcome.checkpoint_files, 1);
    assert_eq!(outcome.loaded_records, 200);
    assert_eq!(store.record_count(), 200);
    for k in [0u64, 49, 50, 199] {
        assert_eq!(store.get(Key(k)), Some(k.to_le_bytes().into()), "key {k}");
    }
    assert_eq!(dir.quarantined_count(), 3);
    let left: Vec<(u64, CheckpointKind)> = dir.manifests().iter().map(|m| (m.id, m.kind)).collect();
    assert_eq!(left, vec![(0, CheckpointKind::Full), (2, CheckpointKind::Partial)]);
    assert_eq!(opens_of(&probe, 0), vec![1, 1]);
    assert_eq!(opens_of(&probe, 2), vec![1, 1], "installed, then emptied away");
}

/// A part written in a retired format version is refused at its open, and
/// the load quarantines its whole cycle, as for any unreadable part.
#[test]
fn a_refused_part_version_quarantines_its_cycle() {
    for version in 1u32..=3 {
        let (dir, probe) = three_fulls(&format!("direct-v{version}"), 6, 2);
        let victim = dir.path().join(CheckpointDir::part_file_name(2, CheckpointKind::Full, 1));
        let mut data = std::fs::read(&victim).unwrap();
        data[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&victim, &data).unwrap();
        let store = fresh();
        recover_checkpoint_only(&dir, &store).unwrap();
        assert_eq!(store.record_count(), 6, "version {version}");
        assert_eq!(dir.quarantined_count(), 3, "version {version}");
        assert_eq!(opens_of(&probe, 0), Vec::<usize>::new(), "version {version}");
        assert_eq!(opens_of(&probe, 1), vec![1, 1], "version {version}");
    }
}

/// One pass over each part of the chain a restart loads, whatever the
/// directory holds, and none over a cycle outside it.
#[test]
fn a_restart_opens_each_chain_part_once() {
    let registry = calc_testkit::registry();

    // A chain above an older full: every chain part installed once, the
    // older full never opened.
    let (dir, probe) = open_probed("direct-opens-chain");
    publish_counting(&dir, CheckpointKind::Full, 0, 40, 2);
    publish_counting(&dir, CheckpointKind::Full, 1, 40, 3);
    publish_counting(&dir, CheckpointKind::Partial, 2, 10, 2);
    let outcome = recover(&dir, &fresh(), &registry, &[]).unwrap();
    assert_eq!(outcome.checkpoint_files, 2);
    assert_eq!(opens_of(&probe, 0), Vec::<usize>::new());
    assert_eq!(opens_of(&probe, 1), vec![1, 1, 1]);
    assert_eq!(opens_of(&probe, 2), vec![1, 1]);

    // A torn newest full: its parts opened at most once, then quarantined;
    // the fallback chain's parts once.
    let (dir, probe) = open_probed("direct-opens-torn");
    publish_counting(&dir, CheckpointKind::Full, 0, 40, 2);
    publish_counting(&dir, CheckpointKind::Full, 1, 40, 2);
    let torn = dir.path().join(CheckpointDir::part_file_name(1, CheckpointKind::Full, 0));
    let bytes = std::fs::read(&torn).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
    let outcome = recover(&dir, &fresh(), &registry, &[]).unwrap();
    assert_eq!(outcome.loaded_records, 40);
    assert_eq!(dir.quarantined_count(), 3);
    assert_eq!(opens_of(&probe, 0), vec![1, 1]);
    assert!(opens_of(&probe, 1).iter().all(|&n| n <= 1), "{:?}", probe.part_opens());

    // Partials but no full: a broken chain, decided from the manifests.
    let (dir, probe) = open_probed("direct-opens-nofull");
    publish_counting(&dir, CheckpointKind::Partial, 1, 10, 2);
    let err = recover(&dir, &fresh(), &registry, &[]).unwrap_err();
    assert!(matches!(err, RecoveryError::NoFullCheckpoint), "{err}");
    assert!(probe.part_opens().is_empty(), "{:?}", probe.part_opens());

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
