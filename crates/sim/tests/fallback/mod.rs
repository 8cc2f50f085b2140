//! Restart over a chain that fails part-way through its load, shared by
//! `fallback_load.rs` (the contract) and `fallback_clear_mutant.rs` (proof
//! that the checks can fail).
//!
//! Each scenario builds a directory through a serving engine — the server's
//! procedures, a command log, checkpoints — records the state a restart
//! must reach, damages one cycle and restarts over a copy of the directory
//! per route: the server's own restart (`open_or_recover`, the node's
//! standby drained and promoted), and `recover` / `recover_checkpoint_only`
//! over a strategy the caller built. A scenario returns the first way the
//! restart missed, as text.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use calc_common::types::Key;
use calc_common::vfs::OsVfs;
use calc_core::calc::CalcStrategy;
use calc_core::manifest::{CheckpointDir, CheckpointMeta};
use calc_core::strategy::CheckpointStrategy;
use calc_core::throttle::Throttle;
use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_recovery::{read_dir_logs, recover, recover_checkpoint_only};
use calc_server::procs;
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;
use calc_txn::proc::params;

/// Keys the initial load holds; the scenarios add more above them.
const LOADED: u64 = 1_000;
/// Value size: large enough that a part spans several ~64 KiB frames.
const VALUE: usize = 300;
const PARTS: usize = 2;

/// How a scenario restarts.
#[derive(Clone, Copy, Debug)]
pub enum Route {
    /// `calc_server::open_or_recover`: the server's restart.
    Server,
    /// `recover_checkpoint_only`, then (on another copy) `recover` with
    /// the whole log, over strategies this test builds.
    Caller,
}

/// Key → value, for a whole store.
type Image = BTreeMap<u64, Vec<u8>>;

fn value(key: u64, round: u64) -> Vec<u8> {
    let mut v = vec![(key ^ round) as u8; VALUE];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&round.to_le_bytes());
    v
}

fn put(db: &Database, key: u64, round: u64) {
    let p = params::Writer::new().u64(key).bytes(&value(key, round)).finish();
    assert!(matches!(db.execute(procs::PUT, p), TxnOutcome::Committed(_)));
}

/// A compare-and-set from `round - 1`'s value to `round`'s: a command
/// whose replay depends on the value it finds.
fn cas(db: &Database, key: u64, round: u64) {
    let p = params::Writer::new()
        .u64(key)
        .u64(1)
        .bytes(&value(key, round - 1))
        .bytes(&value(key, round))
        .finish();
    assert!(matches!(db.execute(procs::CAS, p), TxnOutcome::Committed(_)));
}

fn tune(kind: StrategyKind) -> impl Fn(&mut EngineConfig) + Clone {
    move |c: &mut EngineConfig| {
        c.strategy = kind;
        c.workers = 2;
        c.checkpoint_threads = PARTS;
        c.keep_checkpoints = None;
    }
}

/// The first lifetime: `LOADED` keys and a base full, then `work`; returns
/// the store's image at the end (every key below `keys`).
fn first_lifetime(dir: &Path, kind: StrategyKind, keys: u64, work: impl Fn(&Database)) -> Image {
    let db = calc_server::open_or_recover(dir, tune(kind)).unwrap();
    for k in 0..LOADED {
        db.load_initial(Key(k), &value(k, 0)).unwrap();
    }
    db.finalize_load(true).unwrap();
    work(&db);
    let image = image_of(keys, |k| db.get(Key(k)).map(|v| v.to_vec()));
    db.shutdown();
    image
}

fn image_of(keys: u64, get: impl Fn(u64) -> Option<Vec<u8>>) -> Image {
    (0..keys).filter_map(|k| get(k).map(|v| (k, v))).collect()
}

fn ckpts(dir: &Path) -> CheckpointDir {
    let d = CheckpointDir::open(&dir.join("ckpts"), Arc::new(Throttle::unlimited())).unwrap();
    d.set_checkpoint_threads(PARTS);
    d
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_dir(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

fn compare(what: &str, got: &Image, want: &Image) -> Result<(), String> {
    if let Some((k, v)) = got.iter().find(|(k, v)| want.get(k) != Some(v)) {
        let why = if want.contains_key(k) { "holds a stale value" } else { "should be absent" };
        return Err(format!("{what}: key {k} {why} (round {:?})", &v[8..16]));
    }
    if let Some(k) = want.keys().find(|k| !got.contains_key(k)) {
        return Err(format!("{what}: key {k} is missing"));
    }
    Ok(())
}

fn fresh(kind: StrategyKind) -> CalcStrategy {
    let store = StoreConfig::for_records(1 << 12, 16);
    let log = Arc::new(CommitLog::default());
    match kind {
        StrategyKind::PCalc => CalcStrategy::partial(store, log),
        _ => CalcStrategy::full(store, log),
    }
}

/// Flips a byte of part `k` of `meta`, `from_end` bytes before the end
/// of its file.
fn flip(meta: &CheckpointMeta, k: usize, from_end: usize) {
    let path = &meta.parts[k].path;
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes.len() - from_end;
    bytes[at] ^= 0x5A;
    std::fs::write(path, &bytes).unwrap();
}

/// Where a restart over a damaged directory must end.
struct Expected<'a> {
    kind: StrategyKind,
    /// Keys below this are compared.
    keys: u64,
    /// The store when the first lifetime ended.
    reference: Image,
    /// The newest cycle of the chain the load must fall back to.
    fallback: &'a CheckpointMeta,
    /// That chain's contents.
    fallback_image: Image,
}

/// The restarts over `base`, one copy of it each: the server's reaches
/// `reference`; the caller's `recover_checkpoint_only` reaches
/// `fallback_image` — nothing the damaged cycle alone held survives — and
/// its `recover` with the whole log reaches `reference` from `fallback`'s
/// watermark. After each, `after` checks the directory the restart left.
fn restart(
    base: &Path,
    route: Route,
    expected: Expected<'_>,
    after: impl Fn(&Path) -> Result<(), String>,
) -> Result<(), String> {
    let Expected {
        kind,
        keys,
        ref reference,
        fallback,
        ref fallback_image,
    } = expected;
    let copy = |name: &str| -> PathBuf {
        let to = calc_testkit::temp_dir(name);
        copy_dir(base, &to);
        to
    };
    match route {
        Route::Server => {
            let dir = copy("fallback-server");
            let db = calc_server::open_or_recover(&dir, tune(kind))
                .map_err(|e| format!("the restart failed: {e}"))?;
            let got = image_of(keys, |k| db.get(Key(k)).map(|v| v.to_vec()));
            db.shutdown();
            compare("restarted server", &got, reference)?;
            after(&dir)
        }
        Route::Caller => {
            let dir = copy("fallback-checkpoint-only");
            let strategy = fresh(kind);
            recover_checkpoint_only(&ckpts(&dir), &strategy)
                .map_err(|e| format!("recover_checkpoint_only failed: {e}"))?;
            let got = image_of(keys, |k| strategy.get(Key(k)).map(|v| v.to_vec()));
            compare("recover_checkpoint_only", &got, fallback_image)?;
            after(&dir)?;

            let dir = copy("fallback-caller");
            let commands = read_dir_logs(&OsVfs, &dir.join("cmdlog")).unwrap();
            let strategy = fresh(kind);
            let outcome = recover(&ckpts(&dir), &strategy, &procs::registry(), &commands)
                .map_err(|e| format!("recover failed: {e}"))?;
            if outcome.watermark != fallback.watermark {
                return Err(format!(
                    "recover resumed at {:?}, not the fallback chain's {:?}",
                    outcome.watermark, fallback.watermark
                ));
            }
            let got = image_of(keys, |k| strategy.get(Key(k)).map(|v| v.to_vec()));
            compare("recover", &got, reference)?;
            after(&dir)
        }
    }
}

/// `meta`'s cycle quarantined whole: its manifest and every part renamed.
fn quarantined(dir: &Path, meta: &CheckpointMeta) -> Result<(), String> {
    let ckpts = dir.join("ckpts");
    let names = std::iter::once(CheckpointDir::manifest_file_name(meta.id, meta.kind))
        .chain((0..meta.parts.len()).map(|k| CheckpointDir::part_file_name(meta.id, meta.kind, k)));
    for name in names {
        if !ckpts.join(format!("{name}.quarantine")).exists() {
            return Err(format!("{name} was not quarantined"));
        }
    }
    Ok(())
}

/// A CALC directory whose newest full has a frame corrupted late in one of
/// its parts, so that its other part and that part's earlier frames
/// install before the load fails. The restart must end where the previous
/// full plus replay leads.
pub fn late_frame_in_newest_full(route: Route) -> Result<(), String> {
    const ADDED: u64 = 200;
    let keys = LOADED + ADDED;
    let base = calc_testkit::temp_dir("late-frame");
    let reference = first_lifetime(&base, StrategyKind::Calc, keys, |db| {
        for k in 0..LOADED / 2 {
            cas(db, k, 1);
        }
        for k in LOADED..keys {
            put(db, k, 1);
        }
        db.checkpoint_now().unwrap();
        for k in 0..10 {
            put(db, k, 2);
        }
    });
    let listing = ckpts(&base);
    let cycles = listing.manifests();
    let [parent, newest] = &cycles[..] else {
        return Err(format!("expected two fulls, found {}", cycles.len()));
    };
    let frames = newest.parts[1].bytes / (64 << 10);
    assert!(frames >= 2, "part 1 of the newest full spans {frames} frames");
    flip(newest, 1, 100);
    let parent_image: Image = (0..LOADED).map(|k| (k, value(k, 0))).collect();
    let expected = Expected {
        kind: StrategyKind::Calc,
        keys,
        reference,
        fallback: parent,
        fallback_image: parent_image,
    };
    restart(&base, route, expected, |dir| {
        quarantined(dir, newest)?;
        match ckpts(dir).chain() {
            Some((full, _)) if full.id == parent.id => Ok(()),
            other => Err(format!("the catalog's chain after the restart: {other:?}")),
        }
    })
}

/// A pCALC chain F + P1 + P2 + P3 whose P2 is corrupt: the restart loads
/// F + P1, quarantines P2, leaves P3 catalogued outside the chain (its
/// parent is gone) and replays from P1's watermark to the reference.
pub fn corrupt_partial_mid_chain(route: Route) -> Result<(), String> {
    let keys = LOADED + 30;
    let base = calc_testkit::temp_dir("mid-chain");
    let reference = first_lifetime(&base, StrategyKind::PCalc, keys, |db| {
        for round in 1..=3u64 {
            for k in (0..LOADED).step_by(97) {
                cas(db, k, round);
            }
            put(db, LOADED + round * 10, round);
            db.checkpoint_now().unwrap();
        }
        put(db, LOADED + 5, 4);
    });
    let listing = ckpts(&base);
    let Some((full, partials)) = listing.chain() else {
        return Err("no chain".into());
    };
    let [p1, p2, p3] = &partials[..] else {
        return Err(format!("expected three partials, found {}", partials.len()));
    };
    flip(p2, 0, (p2.parts[0].bytes / 2) as usize);
    let fallback = p1.clone();
    // F + P1 as the serial reference materializes it.
    let fallback_image: Image =
        calc_core::merge::materialize_chain(&full, std::slice::from_ref(p1))
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.0, v.to_vec()))
            .collect();
    let p3 = p3.clone();
    let p2 = p2.clone();
    let expected = Expected {
        kind: StrategyKind::PCalc,
        keys,
        reference,
        fallback: &fallback,
        fallback_image,
    };
    restart(&base, route, expected, |dir| {
        quarantined(dir, &p2)?;
        let after = ckpts(dir);
        if !after.manifests().iter().any(|m| (m.id, m.kind) == (p3.id, p3.kind)) {
            return Err("P3 was not left catalogued".into());
        }
        match after.chain() {
            Some((f, ps)) if f.id == full.id && ps.iter().map(|p| p.id).eq([p1.id]) => Ok(()),
            other => Err(format!("the catalog's chain after the restart: {other:?}")),
        }
    })
}
