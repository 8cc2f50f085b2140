//! Checkpoint directory management.
//!
//! A checkpoint is `N` part files named `ckpt-{id:010}-{kind}.part-{k}`,
//! each a self-contained record file with its own header/footer/CRCs,
//! plus a manifest `ckpt-{id:010}-{kind}.manifest` recording the part
//! count and each part's record count, byte size, and CRC digest. Parts
//! are written directly at their final names but are *invisible* until
//! the manifest is published (written to a dotted temp name, fsynced,
//! renamed — atomic on POSIX — and made durable with a parent-directory
//! fsync). The manifest rename is the commit point of the whole cycle.
//! Any other file in the directory is inert: never parsed, claimed,
//! quarantined or deleted.
//!
//! A [`CheckpointDir`] keeps a catalog of the cycles it knows: `open`
//! builds it from one listing of manifests, each publish inserts its
//! cycle, quarantine and GC remove theirs. Everything a running node asks
//! is answered from the catalog without reading a file; only
//! [`CheckpointDir::claims`] still lists the directory, for the orphan
//! parts and unreadable manifests the catalog never holds.
//!
//! Validity is decided by reading a cycle, never by listing it: a cycle
//! whose every part matches its manifest entry
//! ([`CheckpointMeta::open_part`], read to the end) is good; anything less
//! quarantines the *whole cycle* (renamed to `*.quarantine`,
//! [`CheckpointDir::quarantine_cycle`]) so recovery falls back to the
//! previous checkpoint instead of loading half a snapshot. Restart's
//! chain install makes that check as it streams the chain into the store,
//! and the merger as it reads its chain — each reads a part once.
//! [`CheckpointDir::restart_chain`] reads manifests only. Safety: a running
//! engine's catalog holds cycles this process published, its writer
//! having CRC'd every frame, or cycles listed when it opened, and one
//! handle writes a directory. Re-reading them would hit the page cache and
//! catch only a file changed under the process, so retention does not
//! notice a part that rots under a running engine: keeping two fulls and
//! restart's fallback cover one rotten chain, as they cover rot after a
//! prune.
//!
//! Part files with no manifest are debris of an aborted cycle, which GC
//! removes. GC (after the merger collapses partials, §2.3.1) deletes
//! checkpoints only once their replacement is durably published — "old
//! checkpoints are discarded only once they have been collapsed" — and
//! unlinks a cycle's manifest before its parts, so a crash mid-GC leaves
//! orphans, never a manifest whose parts are gone.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read};
use std::ops::Bound::{Excluded, Unbounded};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use calc_common::crc::crc32;
use calc_common::load::{LoadLevel, LoadSignal};
use calc_common::types::{CommitSeq, Key};
use calc_common::vfs::{OsVfs, Vfs};

use crate::file::{
    CheckpointKind, CheckpointReader, CheckpointWriter, PartSummary, RecordEntry, RecordRef,
};
use crate::throttle::Throttle;

const MANIFEST_MAGIC: &[u8; 8] = b"CALCMFST";
/// The one manifest version; any other is refused as unsupported.
const MANIFEST_VERSION: u32 = 3;
/// magic + version + kind + id + watermark + parent + part count +
/// trailing crc.
const MANIFEST_FIXED_LEN: usize = 8 + 4 + 1 + 8 + 8 + 8 + 4 + 4;
/// records + bytes + crc per part.
const MANIFEST_PART_LEN: usize = 8 + 8 + 4;
/// Encoded `parent` when the checkpoint had no published predecessor.
const MANIFEST_NO_PARENT: u64 = u64::MAX;

/// One part file of a published checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartMeta {
    /// Path of the part file.
    pub path: PathBuf,
    /// Records + tombstones in this part.
    pub records: u64,
    /// Part file size in bytes.
    pub bytes: u64,
    /// The part's digest as its manifest records it: the footer CRC.
    pub crc: u32,
}

/// The id/watermark a cycle *claims* on disk, whether or not its data
/// validates — see [`CheckpointDir::claims`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointClaim {
    /// Checkpoint cycle id.
    pub id: u64,
    /// Full or partial.
    pub kind: CheckpointKind,
    /// Claimed commit watermark (0 when unreadable).
    pub watermark: CommitSeq,
}

/// Metadata of one published checkpoint, as its manifest records it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Checkpoint interval id.
    pub id: u64,
    /// Full or partial.
    pub kind: CheckpointKind,
    /// Virtual-point-of-consistency watermark.
    pub watermark: CommitSeq,
    /// Records + tombstones across all parts.
    pub records: u64,
    /// Data bytes across all parts.
    pub bytes: u64,
    /// Id of the checkpoint that was newest-published when this one was
    /// captured — the coverage baseline a partial's dirty window starts
    /// at. `None` for checkpoints captured into an empty directory.
    /// Recovery uses it to detect holes in the partial chain: a partial
    /// whose parent is not the previous chain element must not be applied.
    pub parent: Option<u64>,
    /// The manifest path.
    pub path: PathBuf,
    /// The data files, in part order. Recovery must apply them in this
    /// order: tombstones are written to part 0 ahead of every value.
    pub parts: Vec<PartMeta>,
}

impl CheckpointMeta {
    /// Opens part `k` and checks it against this manifest's entry: the
    /// footer's digest, the header's id, kind and watermark, and the
    /// record count. The reader CRCs each frame where it lies and the
    /// footer at the last record, so reading the part to its end completes
    /// the check — restart's chain install and the merger's read both do.
    pub fn open_part(&self, vfs: &dyn Vfs, k: usize) -> io::Result<CheckpointReader> {
        let part = &self.parts[k];
        let reader = CheckpointReader::open_with_vfs(vfs, &part.path)?;
        if reader.expected_crc() != part.crc {
            return Err(invalid("part digest does not match manifest"));
        }
        let h = reader.header();
        if (h.id, h.kind, h.watermark, h.records)
            != (self.id, self.kind, self.watermark, part.records)
        {
            return Err(invalid("part header does not match manifest"));
        }
        Ok(reader)
    }

    /// Reads every record across all parts on the real filesystem, in
    /// part order.
    pub fn read_all(&self) -> io::Result<Vec<RecordEntry>> {
        let mut out = Vec::with_capacity(self.records as usize);
        for k in 0..self.parts.len() {
            out.extend(self.open_part(&OsVfs, k)?.read_all()?);
        }
        Ok(out)
    }

    /// The oracle of the shape restart's loader relies on, for the test
    /// harnesses to hold every published cycle against: every tombstone
    /// sits in part 0 ahead of that part's values, and — with
    /// `one_value_per_key`, for a transaction-consistent strategy, whose
    /// cycle is a snapshot at one point — no key has two values in it
    /// (its parts are installed in parallel, first one wins). pFuzzy's
    /// flush reads live values while transactions run, so its cycles,
    /// which no restart loads, can hold two values of a key moved between
    /// stripes (`calc-baselines`' `pfuzzy_stripes.rs`). `Some` describes
    /// the first violation — a capture bug that last-event-wins would
    /// mask.
    pub fn shape_violation(
        &self,
        vfs: &dyn Vfs,
        one_value_per_key: bool,
    ) -> io::Result<Option<String>> {
        let cycle = format!("cycle {} ({})", self.id, self.kind);
        let mut value_part: HashMap<Key, usize> = HashMap::new();
        for k in 0..self.parts.len() {
            let mut reader = self.open_part(vfs, k)?;
            let mut seen_value = false;
            while let Some(record) = reader.next_borrowed()? {
                match record {
                    RecordRef::Tombstone(key) if k != 0 || seen_value => {
                        return Ok(Some(format!(
                            "{cycle}: tombstone of key {key} in part {k}{}; tombstones \
                             belong in part 0 ahead of its values",
                            if seen_value { " after a value" } else { "" },
                        )));
                    }
                    RecordRef::Tombstone(_) => {}
                    RecordRef::Value(key, _) => {
                        seen_value = true;
                        if !one_value_per_key {
                            continue;
                        }
                        if let Some(first) = value_part.insert(key, k) {
                            return Ok(Some(format!(
                                "{cycle}: key {key} has a value in part {first} and another \
                                 in part {k}"
                            )));
                        }
                    }
                }
            }
        }
        Ok(None)
    }
}

/// Cycles in chain order (see [`chain_order`]).
type Cycles = BTreeMap<(u64, bool), CheckpointMeta>;

/// What a handle knows of its directory: the cycles it listed at open or
/// at restart, published since, and the newest id it has published or
/// adopted.
#[derive(Default)]
struct Catalog {
    cycles: Cycles,
    /// Captured into each new cycle's manifest as its `parent`. Only ever
    /// raised: quarantine and GC leave it, so a later partial still names
    /// the cycle its dirty window continues and recovery sees the hole.
    last_published: Option<u64>,
}

impl Catalog {
    /// Raises the parent link to the newest catalogued cycle.
    fn adopt(&mut self) {
        let newest = self.cycles.keys().next_back().map(|&(id, _)| id);
        self.last_published = self.last_published.max(newest);
    }
}

/// A managed checkpoint directory and its catalog of published cycles
/// (see the module doc).
pub struct CheckpointDir {
    dir: PathBuf,
    throttle: Arc<Throttle>,
    vfs: Arc<dyn Vfs>,
    /// Files found invalid and renamed to `*.quarantine`.
    quarantined: AtomicU64,
    /// How many part files (and capture threads) new checkpoints use.
    threads: AtomicUsize,
    /// Shared with every in-flight cycle, whose publish inserts itself.
    catalog: Arc<Mutex<Catalog>>,
    /// Foreground load signal for adaptive capture pacing (set once at
    /// boot when pacing is on). When present, [`CheckpointDir::checkpoint_threads`]
    /// clamps effective parallelism under load and part writers yield
    /// scan quanta to foreground traffic.
    load: std::sync::OnceLock<Arc<LoadSignal>>,
}

/// An in-flight checkpoint. The part writers are handed out
/// separately (one per capture thread); this handle owns the publication
/// step: finish every part, then write + rename the manifest as the
/// cycle's single atomic commit point.
pub struct PendingPartsCheckpoint {
    kind: CheckpointKind,
    id: u64,
    watermark: CommitSeq,
    parent: Option<u64>,
    part_paths: Vec<PathBuf>,
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    catalog: Arc<Mutex<Catalog>>,
}

impl PendingPartsCheckpoint {
    /// Seals every part and atomically publishes the cycle.
    ///
    /// Each part is fsynced by its own `finish()`; the manifest is then
    /// written to a dotted temp name, fsynced, renamed, and the parent
    /// directory fsynced. Until the manifest rename is durable the part
    /// files are invisible to every listing, so a crash at any instant
    /// leaves either the complete cycle or no cycle at all. Then the cycle
    /// joins the catalog; its meta is returned.
    pub fn publish(self, writers: Vec<CheckpointWriter>) -> io::Result<CheckpointMeta> {
        match self.try_publish(writers) {
            Ok(s) => Ok(s),
            Err(e) => {
                // Nothing published: remove the debris (parts at final
                // names, possibly a temp manifest) so GC never has to.
                let manifest_name = CheckpointDir::manifest_file_name(self.id, self.kind);
                let _ = self.vfs.remove_file(&self.dir.join(format!(".tmp-{manifest_name}")));
                for p in &self.part_paths {
                    let _ = self.vfs.remove_file(p);
                }
                Err(e)
            }
        }
    }

    fn try_publish(&self, writers: Vec<CheckpointWriter>) -> io::Result<CheckpointMeta> {
        debug_assert_eq!(writers.len(), self.part_paths.len());
        let mut digests = Vec::with_capacity(writers.len());
        for w in writers {
            digests.push(w.finish()?);
        }
        let body = self.manifest(&digests);
        let manifest_name = CheckpointDir::manifest_file_name(self.id, self.kind);
        let final_path = self.dir.join(&manifest_name);
        let tmp_path = self.dir.join(format!(".tmp-{manifest_name}"));
        let meta = decode_manifest(&self.dir, final_path.clone(), &body)?;
        let mut f = self.vfs.create(&tmp_path)?;
        f.write_all(&body)?;
        f.sync()?;
        drop(f);
        self.vfs.rename(&tmp_path, &final_path)?;
        self.vfs.sync_dir(&self.dir)?;

        let mut catalog = self.catalog.lock();
        catalog.cycles.insert(chain_order(&meta), meta.clone());
        catalog.adopt();
        Ok(meta)
    }

    /// The manifest document of this cycle with parts `digests`.
    fn manifest(&self, digests: &[PartSummary]) -> Vec<u8> {
        let mut body = Vec::with_capacity(MANIFEST_FIXED_LEN + digests.len() * MANIFEST_PART_LEN);
        body.extend_from_slice(MANIFEST_MAGIC);
        body.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        body.push(self.kind.to_byte());
        body.extend_from_slice(&self.id.to_le_bytes());
        body.extend_from_slice(&self.watermark.0.to_le_bytes());
        body.extend_from_slice(&self.parent.unwrap_or(MANIFEST_NO_PARENT).to_le_bytes());
        body.extend_from_slice(&(digests.len() as u32).to_le_bytes());
        for d in digests {
            body.extend_from_slice(&d.records.to_le_bytes());
            body.extend_from_slice(&d.bytes.to_le_bytes());
            body.extend_from_slice(&d.crc.to_le_bytes());
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// Abandons the cycle: removes every part file already created. Safe
    /// because nothing was published — the manifest never existed, so the
    /// parts were never visible.
    pub fn abandon(self) {
        for p in &self.part_paths {
            let _ = self.vfs.remove_file(p);
        }
    }
}

/// Which checkpoint namespace a directory entry belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NameClass {
    Manifest,
    Part(u32),
}

/// Parses `ckpt-{id:010}-{kind}.{manifest|part-k}`.
fn parse_ckpt_name(name: &str) -> Option<(u64, CheckpointKind, NameClass)> {
    let rest = name.strip_prefix("ckpt-")?;
    let (id_str, rest) = rest.split_at_checked(10)?;
    let id: u64 = id_str.parse().ok()?;
    let rest = rest.strip_prefix('-')?;
    let (kind, rest) = if let Some(r) = rest.strip_prefix("full") {
        (CheckpointKind::Full, r)
    } else if let Some(r) = rest.strip_prefix("part") {
        (CheckpointKind::Partial, r)
    } else {
        return None;
    };
    let class = if rest == ".manifest" {
        NameClass::Manifest
    } else if let Some(k) = rest.strip_prefix(".part-") {
        NameClass::Part(k.parse().ok()?)
    } else {
        return None;
    };
    Some((id, kind, class))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Decodes the manifest document at `path` in `dir` (CRC-checked; part
/// paths follow from the cycle's name).
fn decode_manifest(dir: &Path, path: PathBuf, bytes: &[u8]) -> io::Result<CheckpointMeta> {
    if bytes.len() < MANIFEST_FIXED_LEN {
        return Err(invalid("manifest too short"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(tail.try_into().unwrap());
    if crc32(body) != expected {
        return Err(invalid("manifest CRC mismatch"));
    }
    if &body[..8] != MANIFEST_MAGIC {
        return Err(invalid("bad manifest magic"));
    }
    let version = u32::from_le_bytes(body[8..12].try_into().unwrap());
    if version != MANIFEST_VERSION {
        return Err(invalid(&format!("unsupported manifest version {version}")));
    }
    let kind = CheckpointKind::from_byte(body[12])?;
    let id = u64::from_le_bytes(body[13..21].try_into().unwrap());
    let watermark = CommitSeq(u64::from_le_bytes(body[21..29].try_into().unwrap()));
    let parent = match u64::from_le_bytes(body[29..37].try_into().unwrap()) {
        MANIFEST_NO_PARENT => None,
        p => Some(p),
    };
    let count = u32::from_le_bytes(body[37..41].try_into().unwrap()) as usize;
    if count == 0 || body.len() != MANIFEST_FIXED_LEN - 4 + count * MANIFEST_PART_LEN {
        return Err(invalid("manifest part table size mismatch"));
    }
    let parts: Vec<PartMeta> = body[MANIFEST_FIXED_LEN - 4..]
        .chunks_exact(MANIFEST_PART_LEN)
        .enumerate()
        .map(|(k, e)| PartMeta {
            path: dir.join(CheckpointDir::part_file_name(id, kind, k)),
            records: u64::from_le_bytes(e[0..8].try_into().unwrap()),
            bytes: u64::from_le_bytes(e[8..16].try_into().unwrap()),
            crc: u32::from_le_bytes(e[16..20].try_into().unwrap()),
        })
        .collect();
    Ok(CheckpointMeta {
        id,
        kind,
        watermark,
        records: parts.iter().map(|p| p.records).sum(),
        bytes: parts.iter().map(|p| p.bytes).sum(),
        parent,
        path,
        parts,
    })
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory on the real
    /// filesystem.
    pub fn open(dir: &Path, throttle: Arc<Throttle>) -> io::Result<Self> {
        Self::open_with_vfs(dir, throttle, Arc::new(OsVfs))
    }

    /// Opens (creating if needed) a checkpoint directory through an
    /// arbitrary [`Vfs`], cataloguing every readable manifest from one
    /// listing. No part is read and nothing is quarantined; the parent
    /// link stays unset until a publish or
    /// [`CheckpointDir::adopt_published_manifests`] sets it.
    pub fn open_with_vfs(
        dir: &Path,
        throttle: Arc<Throttle>,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Self> {
        vfs.create_dir_all(dir)?;
        let d = CheckpointDir {
            dir: dir.to_path_buf(),
            throttle,
            vfs,
            quarantined: AtomicU64::new(0),
            threads: AtomicUsize::new(1),
            catalog: Arc::default(),
            load: std::sync::OnceLock::new(),
        };
        d.catalog.lock().cycles = d.list_cycles(false)?;
        Ok(d)
    }

    /// This handle, taken over by the node that publishes next (a restart,
    /// or a promoted standby, whose directory a live primary may have
    /// changed since its load): re-lists the catalog as
    /// [`CheckpointDir::open_with_vfs`] does, adopts the parent link from
    /// it, and charges new cycles to `throttle`. What the handle
    /// quarantined stays counted.
    pub fn reopen(self, throttle: Arc<Throttle>) -> io::Result<Self> {
        let d = CheckpointDir { throttle, ..self };
        let cycles = d.list_cycles(false)?;
        let mut catalog = d.catalog.lock();
        catalog.cycles = cycles;
        catalog.adopt();
        drop(catalog);
        Ok(d)
    }

    /// Attaches the foreground load signal (once, at boot): capture
    /// parallelism and per-part scan pacing become load-aware. Without a
    /// signal the directory behaves exactly as configured.
    pub fn set_load_signal(&self, signal: Arc<LoadSignal>) {
        let _ = self.load.set(signal);
    }

    /// Id of the newest checkpoint this handle has published or adopted.
    /// `None` until one of those happens; never lowered.
    pub fn last_published(&self) -> Option<u64> {
        self.catalog.lock().last_published
    }

    /// Sets how many part files (one capture thread each) new checkpoints
    /// are split into. Clamped to at least 1.
    pub fn set_checkpoint_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// The *effective* part count / capture thread pool size: the
    /// configured value, clamped down by the attached load signal so
    /// capture parallelism never competes with an overloaded foreground.
    /// Every strategy's capture, the merger's output and restart's chain
    /// install size their pools through this one accessor, so load-aware
    /// clamping covers all of them:
    ///
    /// * [`LoadLevel::Overload`] → 1 thread (capture proceeds, serially);
    /// * [`LoadLevel::High`] → half the configured threads;
    /// * otherwise → the configured value.
    pub fn checkpoint_threads(&self) -> usize {
        let configured = self.configured_checkpoint_threads();
        match self.load.get().map(|s| s.level()) {
            Some(LoadLevel::Overload) => 1,
            Some(LoadLevel::High) => (configured / 2).max(1),
            _ => configured,
        }
    }

    /// The configured part count, before any load-aware clamping.
    pub fn configured_checkpoint_threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed).max(1)
    }

    /// Number of invalid checkpoint files this handle has quarantined
    /// (renamed to `*.quarantine`).
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Moves an invalid checkpoint file out of the checkpoint namespace by
    /// renaming it to `<name>.quarantine`, preserving the bytes for
    /// post-mortem inspection. Rename failure (e.g. read-only disk during
    /// recovery) degrades to skipping the file, exactly the old behaviour.
    fn quarantine(&self, path: &Path) {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            return;
        };
        let dest = self.dir.join(format!("{name}.quarantine"));
        let _ = self.vfs.rename(path, &dest);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// The filesystem this directory lives on.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The shared disk throttle.
    pub fn throttle(&self) -> &Arc<Throttle> {
        &self.throttle
    }

    /// Manifest name of a checkpoint.
    pub fn manifest_file_name(id: u64, kind: CheckpointKind) -> String {
        format!("ckpt-{id:010}-{kind}.manifest")
    }

    /// Name of part `k` of a checkpoint.
    pub fn part_file_name(id: u64, kind: CheckpointKind, k: usize) -> String {
        format!("ckpt-{id:010}-{kind}.part-{k}")
    }

    /// Starts a new checkpoint with `parts` part files,
    /// returning the pending handle and one writer per part (to be
    /// distributed over capture threads). Part files are created at
    /// their final names but stay invisible until the manifest publishes;
    /// if any create fails, the ones already created are removed.
    pub fn begin_parts(
        &self,
        kind: CheckpointKind,
        id: u64,
        watermark: CommitSeq,
        parts: usize,
    ) -> io::Result<(PendingPartsCheckpoint, Vec<CheckpointWriter>)> {
        let parts = parts.max(1);
        let mut part_paths = Vec::with_capacity(parts);
        let mut writers = Vec::with_capacity(parts);
        for k in 0..parts {
            let path = self.dir.join(Self::part_file_name(id, kind, k));
            match CheckpointWriter::create_with_vfs(
                self.vfs.as_ref(),
                &path,
                kind,
                id,
                watermark,
                self.throttle.clone(),
            ) {
                Ok(mut w) => {
                    if let Some(signal) = self.load.get() {
                        w.set_pacer(signal.clone());
                    }
                    part_paths.push(path);
                    writers.push(w);
                }
                Err(e) => {
                    drop(writers);
                    for p in &part_paths {
                        let _ = self.vfs.remove_file(p);
                    }
                    return Err(e);
                }
            }
        }
        Ok((
            PendingPartsCheckpoint {
                kind,
                id,
                watermark,
                // The coverage baseline: whatever was newest-published
                // when this capture began is what a partial's dirty
                // window is relative to.
                parent: self.last_published(),
                part_paths,
                dir: self.dir.clone(),
                vfs: self.vfs.clone(),
                catalog: self.catalog.clone(),
            },
            writers,
        ))
    }

    /// The directory's checkpoint-namespace entries as `(path, id, kind,
    /// class)`. Every other file is inert.
    fn entries(&self) -> io::Result<Vec<(PathBuf, u64, CheckpointKind, NameClass)>> {
        let mut out = Vec::new();
        for path in self.vfs.read_dir(&self.dir)? {
            let parsed = path
                .file_name()
                .and_then(|n| parse_ckpt_name(&n.to_string_lossy()));
            if let Some((id, kind, class)) = parsed {
                out.push((path, id, kind, class));
            }
        }
        Ok(out)
    }

    /// Reads and decodes one manifest document (CRC-checked; no part is
    /// touched).
    fn read_manifest(&self, path: &Path) -> io::Result<CheckpointMeta> {
        let mut buf = Vec::new();
        self.vfs.open_read(path)?.read_to_end(&mut buf)?;
        decode_manifest(&self.dir, path.to_path_buf(), &buf)
    }

    /// Lists the directory's cycles from their manifests alone (no part
    /// is read). An unreadable manifest, or one whose identity does not
    /// match its name, is skipped — and with `quarantine` set, renamed out
    /// of the namespace: it condemns only itself, since its part names
    /// cannot be trusted, and orphaned parts are invisible anyway.
    fn list_cycles(&self, quarantine: bool) -> io::Result<Cycles> {
        let mut cycles = Cycles::new();
        for (path, id, kind, class) in self.entries()? {
            if class != NameClass::Manifest {
                continue;
            }
            match self.read_manifest(&path).ok().filter(|m| (m.id, m.kind) == (id, kind)) {
                Some(meta) => {
                    cycles.insert(chain_order(&meta), meta);
                }
                None if quarantine => self.quarantine(&path),
                None => {}
            }
        }
        Ok(cycles)
    }

    /// Quarantines every file of `meta`'s cycle that exists and drops the
    /// cycle from the catalog, returning the chain the catalog yields
    /// without it. One missing or corrupt part condemns the whole cycle: a
    /// snapshot with a hole is worse than falling back to the previous
    /// checkpoint plus a longer replay.
    pub fn quarantine_cycle(&self, meta: &CheckpointMeta) -> RestartChain {
        for part in &meta.parts {
            if self.vfs.len(&part.path).is_ok() {
                self.quarantine(&part.path);
            }
        }
        self.quarantine(&meta.path);
        let mut catalog = self.catalog.lock();
        catalog.cycles.remove(&chain_order(meta));
        chain_of(&catalog.cycles)
    }

    /// The catalogued cycles, ascending by `(id, kind)` with Full ordered
    /// before Partial at equal id (a merged full supersedes the same-id
    /// partial). No file is read and nothing is quarantined, so it is safe
    /// per request while the merger runs. A listed cycle may still fail to
    /// read at the next restart or merge.
    pub fn manifests(&self) -> Vec<CheckpointMeta> {
        self.catalog.lock().cycles.values().cloned().collect()
    }

    /// The sequence below which command-log segments may be truncated: the
    /// lowest watermark among the catalogued full checkpoints. `None`
    /// while no full is published. Reads no file.
    ///
    /// Every chain still on disk roots at a full whose watermark is at or
    /// above this floor, so whichever chain a restart ends up loading —
    /// the newest, or an older one after the newest is found torn and
    /// quarantined — finds its whole replay window in the surviving
    /// segments.
    pub fn truncation_floor(&self) -> Option<CommitSeq> {
        self.catalog
            .lock()
            .cycles
            .values()
            .filter(|m| m.kind == CheckpointKind::Full)
            .map(|m| m.watermark)
            .min()
    }

    /// Seeds the next checkpoint's parent link from the newest catalogued
    /// cycle, for a handle taking over a directory; otherwise its first
    /// partial would record no parent and end the recovery chain. Reads no
    /// file. A restart loading through this handle calls it once the load
    /// is done, so the link comes from the cycles that survived the load;
    /// [`CheckpointDir::reopen`] calls it again for the node that serves.
    pub fn adopt_published_manifests(&self) {
        self.catalog.lock().adopt();
    }

    /// A cheap claims-only listing: the id and claimed watermark of every
    /// cycle with any durable trace in the directory, read from manifest
    /// documents and file *names* without validating part payloads —
    /// O(cycles), not O(data). Unlike the catalog, it lists cycles a load
    /// would quarantine: their claims are exactly what a
    /// restart or a standby promotion must seal the id/seq spaces above,
    /// whether or not the data behind them is intact. Orphan parts and
    /// unreadable manifests contribute their name-derived id with a
    /// watermark claim of 0.
    pub fn claims(&self) -> io::Result<Vec<CheckpointClaim>> {
        let mut out: Vec<CheckpointClaim> = self
            .entries()?
            .into_iter()
            .map(|(path, id, kind, class)| CheckpointClaim {
                id,
                kind,
                watermark: match class {
                    NameClass::Part(_) => CommitSeq(0),
                    NameClass::Manifest => self
                        .read_manifest(&path)
                        .map(|d| d.watermark)
                        .unwrap_or(CommitSeq(0)),
                },
            })
            .collect();
        // A cycle's parts and manifest all claim the same (id, kind);
        // keep the highest watermark claim for each (the manifest's, when
        // readable).
        out.sort_by_key(|c| {
            (
                c.id,
                matches!(c.kind, CheckpointKind::Partial),
                std::cmp::Reverse(c.watermark.0),
            )
        });
        out.dedup_by_key(|c| (c.id, c.kind));
        Ok(out)
    }

    /// The recovery chain among the catalogued cycles: the newest full
    /// plus the longest *unbroken* run of newer partials, ascending.
    /// `None` if no full is catalogued. Reads no file; the merger's
    /// `collapse` and restart's chain install check each part as they
    /// stream it.
    ///
    /// Unbroken means each partial's recorded `parent` is the previous
    /// chain element (ids may legally skip — a failed cycle consumes an id
    /// and rolls its coverage into the next one). A partial whose parent
    /// is anything else — lost or quarantined by a crash, or never
    /// recorded — starts a hole: its dirty window begins at a checkpoint
    /// the chain does not hold, so applying it (or anything after it) would
    /// silently drop every write only the missing checkpoint captured.
    /// Everything from the hole on is excluded; command-log replay from the
    /// shorter chain's watermark covers the difference.
    pub fn chain(&self) -> Option<(CheckpointMeta, Vec<CheckpointMeta>)> {
        match chain_of(&self.catalog.lock().cycles) {
            RestartChain::Chain(full, partials) => Some((full, partials)),
            RestartChain::Empty | RestartChain::NoFull => None,
        }
    }

    /// The chain a restart or a standby bootstrap (nothing else is running
    /// yet) starts loading: re-lists the manifests, quarantining unreadable
    /// ones and identity mismatches, replaces the catalog with what it
    /// found, and picks the chain (see [`CheckpointDir::chain`]), telling a
    /// directory with no cycle at all — a cold start — from one that holds
    /// cycles but no full. No part is opened: the load checks each part of
    /// the chain as it streams it, and a cycle that fails goes through
    /// [`CheckpointDir::quarantine_cycle`], which yields the next chain. The
    /// parent link is left to [`CheckpointDir::adopt_published_manifests`]
    /// once the load is done.
    pub fn restart_chain(&self) -> io::Result<RestartChain> {
        let listed = self.list_cycles(true)?;
        let mut catalog = self.catalog.lock();
        catalog.cycles = listed;
        Ok(chain_of(&catalog.cycles))
    }

    /// Deletes every catalogued cycle with `id < below` except the one
    /// whose manifest is `keep`, then every part file in that id range
    /// whose cycle is no longer catalogued: the deleted cycles' parts and
    /// orphans of aborted cycles. Returns the number of *checkpoints* (not
    /// files) removed.
    fn remove_below(&self, below: u64, keep: Option<&Path>) -> io::Result<usize> {
        let doomed: Vec<CheckpointMeta> = self
            .catalog
            .lock()
            .cycles
            .range(..(below, false))
            .map(|(_, m)| m)
            .filter(|m| Some(m.path.as_path()) != keep)
            .cloned()
            .collect();
        for meta in &doomed {
            // The manifest goes first: the cycle is gone the moment it is,
            // and a crash before its parts follow leaves orphans for the
            // next sweep, never a manifest whose parts are missing. One
            // already gone (quarantined through another handle) is as good.
            match self.vfs.remove_file(&meta.path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => self.catalog.lock().cycles.remove(&chain_order(meta)),
            };
        }
        // In-flight cycles are safe: their ids are allocated after
        // everything published, so they sort at or above `below`.
        let orphans: Vec<PathBuf> = {
            let entries = self.entries()?;
            let catalog = self.catalog.lock();
            entries
                .into_iter()
                .filter(|(_, id, kind, class)| {
                    matches!(class, NameClass::Part(_))
                        && *id < below
                        && !catalog
                            .cycles
                            .contains_key(&(*id, *kind == CheckpointKind::Partial))
                })
                .map(|e| e.0)
                .collect()
        };
        for path in orphans {
            let _ = self.vfs.remove_file(&path);
        }
        if !doomed.is_empty() {
            // Make the unlinks durable before reporting completion, so a
            // later crash cannot resurrect a superseded checkpoint that
            // recovery would then prefer over the replacement.
            self.vfs.sync_dir(&self.dir)?;
        }
        Ok(doomed.len())
    }

    /// Deletes checkpoints that are superseded: every catalogued cycle
    /// with `id <= through_id` except the replacement at `keep` (its
    /// parts included), plus orphaned part files in the same id range.
    /// Returns the number of *checkpoints* (not files) removed. Reads no
    /// checkpoint file.
    pub fn gc_through(&self, through_id: u64, keep: &Path) -> io::Result<usize> {
        self.remove_below(through_id.saturating_add(1), Some(keep))
    }

    /// Retention: keeps the newest `keep` catalogued full checkpoints
    /// (clamped to at least 1) and every cycle at or above the oldest kept
    /// full's id, deleting everything older by the catalog. Returns the
    /// number of checkpoints removed. Reads no checkpoint file.
    ///
    /// Safety argument: the live recovery chain is the newest full plus
    /// partials *newer* than it ([`CheckpointDir::chain`]), and with
    /// `keep >= 1` the cutoff is at or below the newest full's id — so no
    /// deleted cycle (all strictly below the cutoff) can be the chain's
    /// root or any of its parents. Superseded partials between kept fulls
    /// survive too, preserving every fallback chain among the kept fulls:
    /// if the newest full is later found corrupt and quarantined, recovery
    /// still has `keep - 1` older complete chains.
    pub fn prune_chains(&self, keep: usize) -> io::Result<usize> {
        let keep = keep.max(1);
        let fulls: Vec<u64> = self
            .catalog
            .lock()
            .cycles
            .values()
            .filter(|m| m.kind == CheckpointKind::Full)
            .map(|m| m.id)
            .collect();
        if fulls.len() <= keep {
            return Ok(0);
        }
        self.remove_below(fulls[fulls.len() - keep], None)
    }
}

/// What the catalog leaves a restart to load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestartChain {
    /// No cycle at all: no checkpoint ever completed (or none survived
    /// the load), so the command log carries the whole history.
    Empty,
    /// Cycles, but no full checkpoint among them: the chain is broken,
    /// not merely young.
    NoFull,
    /// The newest full plus its unbroken run of newer partials,
    /// ascending.
    Chain(CheckpointMeta, Vec<CheckpointMeta>),
}

/// Picks the recovery chain out of a catalog (see
/// [`CheckpointDir::chain`] for the rule).
fn chain_of(cycles: &Cycles) -> RestartChain {
    let Some(full) = cycles
        .values()
        .filter(|m| m.kind == CheckpointKind::Full)
        .max_by_key(|m| m.id)
    else {
        return if cycles.is_empty() {
            RestartChain::Empty
        } else {
            RestartChain::NoFull
        };
    };
    // Everything above the newest full is a partial.
    let mut partials: Vec<CheckpointMeta> = Vec::new();
    let mut prev = full.id;
    for m in cycles.range((Excluded((full.id, true)), Unbounded)).map(|(_, m)| m) {
        if m.parent != Some(prev) {
            break;
        }
        prev = m.id;
        partials.push(m.clone());
    }
    RestartChain::Chain(full.clone(), partials)
}

/// Catalog key, in chain order: ascending id, Full before Partial at equal
/// id.
fn chain_order(m: &CheckpointMeta) -> (u64, bool) {
    (m.id, m.kind == CheckpointKind::Partial)
}

impl std::fmt::Debug for CheckpointDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CheckpointDir({})", self.dir.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_common::types::Key;

    fn dir(name: &str) -> CheckpointDir {
        let d = std::env::temp_dir().join(format!(
            "calc-manifest-{}-{}-{name}",
            std::process::id(),
            rand_suffix()
        ));
        let _ = std::fs::remove_dir_all(&d);
        CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
    }

    /// The chain a restart would start loading, which must hold a full.
    fn listed_chain(d: &CheckpointDir) -> (CheckpointMeta, Vec<CheckpointMeta>) {
        match d.restart_chain().unwrap() {
            RestartChain::Chain(full, partials) => (full, partials),
            other => panic!("no chain: {other:?}"),
        }
    }

    fn rand_suffix() -> u64 {
        use std::time::{SystemTime, UNIX_EPOCH};
        SystemTime::now().duration_since(UNIX_EPOCH).unwrap().subsec_nanos() as u64
    }

    /// Publishes a checkpoint with `n` records striped over
    /// `parts` part files.
    fn publish_parts(d: &CheckpointDir, kind: CheckpointKind, id: u64, n: u64, parts: usize) {
        let (pending, mut writers) = d
            .begin_parts(kind, id, CommitSeq(id * 100), parts)
            .unwrap();
        for k in 0..n {
            writers[(k as usize) % parts]
                .write_record(Key(k), b"v")
                .unwrap();
        }
        pending.publish(writers).unwrap();
    }

    #[test]
    fn publish_then_list() {
        let d = dir("list");
        publish_parts(&d, CheckpointKind::Full, 1, 5, 1);
        publish_parts(&d, CheckpointKind::Partial, 2, 2, 1);
        let metas = d.manifests();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].id, 1);
        assert_eq!(metas[0].kind, CheckpointKind::Full);
        assert_eq!(metas[0].records, 5);
        assert_eq!(metas[1].id, 2);
        assert_eq!(metas[1].watermark, CommitSeq(200));
    }

    #[test]
    fn publish_parts_then_list_counts_all_parts() {
        let d = dir("list-parts");
        publish_parts(&d, CheckpointKind::Full, 1, 10, 3);
        let metas = d.manifests();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].id, 1);
        assert_eq!(metas[0].records, 10, "records summed over all parts");
        assert_eq!(metas[0].parts.len(), 3);
        assert_eq!(
            metas[0].bytes,
            metas[0].parts.iter().map(|p| p.bytes).sum::<u64>()
        );
        let entries = metas[0].read_all().unwrap();
        assert_eq!(entries.len(), 10);
        let mut keys: Vec<u64> = entries
            .iter()
            .map(|e| match e {
                RecordEntry::Value(k, _) => k.0,
                RecordEntry::Tombstone(k) => k.0,
            })
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..10u64).collect::<Vec<_>>());
    }

    /// The manifest/part round-trip property: for every part count
    /// (including 1) and several record shapes, publish → list → read
    /// returns exactly what was written, in part order.
    #[test]
    fn manifest_part_roundtrip_property() {
        for parts in 1..=5usize {
            for n in [0u64, 1, 7, 64] {
                let d = dir(&format!("prop-{parts}-{n}"));
                let (pending, mut writers) = d
                    .begin_parts(CheckpointKind::Partial, 3, CommitSeq(77), parts)
                    .unwrap();
                let mut expected = Vec::new();
                // Tombstones ahead of values in part 0, values striped.
                writers[0].write_tombstone(Key(9999)).unwrap();
                expected.push(RecordEntry::Tombstone(Key(9999)));
                for k in 0..n {
                    let v = vec![(k % 251) as u8; (k as usize % 13) + 1];
                    writers[(k as usize) % parts].write_record(Key(k), &v).unwrap();
                }
                let summary = pending.publish(writers).unwrap();
                assert_eq!(summary.records, n + 1);
                assert_eq!(summary.parts.len(), parts);
                assert!(matches!(d.restart_chain().unwrap(), RestartChain::NoFull));
                let metas = d.manifests();
                assert_eq!(metas.len(), 1, "parts={parts} n={n}");
                assert_eq!(metas[0].records, n + 1);
                let got = metas[0].read_all().unwrap();
                assert_eq!(got.len() as u64, n + 1);
                assert_eq!(got[0], expected[0], "tombstone first in part 0");
                assert_eq!(d.quarantined_count(), 0);
            }
        }
    }

    #[test]
    fn unpublished_parts_are_invisible_and_abandon_removes_them() {
        let d = dir("abandon-parts");
        let (pending, mut writers) = d
            .begin_parts(CheckpointKind::Full, 1, CommitSeq(1), 4)
            .unwrap();
        for (i, w) in writers.iter_mut().enumerate() {
            w.write_record(Key(i as u64), b"x").unwrap();
        }
        // Parts exist at final names but no manifest: invisible.
        assert!(d.path().join("ckpt-0000000001-full.part-0").exists());
        assert!(d.manifests().is_empty());
        assert_eq!(d.restart_chain().unwrap(), RestartChain::Empty);
        assert_eq!(d.quarantined_count(), 0, "orphan parts are not corruption");
        drop(writers);
        pending.abandon();
        assert!(!d.path().join("ckpt-0000000001-full.part-0").exists());
    }

    #[test]
    fn unreadable_manifest_is_quarantined_and_counted() {
        let d = dir("quarantine");
        publish_parts(&d, CheckpointKind::Full, 1, 1, 1);
        // A published-looking manifest name over garbage bytes.
        let bad = d.path().join("ckpt-0000000002-full.manifest");
        std::fs::write(&bad, b"CALCMFSTgarbage").unwrap();
        let reopened = CheckpointDir::open(d.path(), Arc::new(Throttle::unlimited())).unwrap();
        assert_eq!(reopened.manifests().len(), 1, "open skips it untouched");
        assert_eq!(reopened.quarantined_count(), 0);
        assert_eq!(listed_chain(&d).0.id, 1);
        assert_eq!(d.manifests().len(), 1);
        assert_eq!(d.quarantined_count(), 1);
        // The file moved out of the checkpoint namespace: bytes preserved
        // under *.quarantine, original name gone, and listing again
        // finds nothing new.
        assert!(!bad.exists());
        assert!(d
            .path()
            .join("ckpt-0000000002-full.manifest.quarantine")
            .exists());
        assert_eq!(listed_chain(&d).0.id, 1);
        assert_eq!(d.quarantined_count(), 1);
    }

    #[test]
    fn chain_ends_at_a_partial_without_a_parent() {
        let d = dir("chain-noparent");
        publish_parts(&d, CheckpointKind::Full, 0, 3, 1);
        publish_parts(&d, CheckpointKind::Partial, 1, 1, 1);
        // A handle that neither published nor adopted the directory records
        // no parent; dense ids do not stand in for the missing link.
        let blind = CheckpointDir::open(d.path(), Arc::new(Throttle::unlimited())).unwrap();
        publish_parts(&blind, CheckpointKind::Partial, 2, 1, 1);
        publish_parts(&blind, CheckpointKind::Partial, 3, 1, 1);
        let (full, partials) = blind.chain().unwrap();
        assert_eq!(full.id, 0);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1], "partial 2 has no parent: the chain ends");

        // The same takeover with the link adopted from the manifests.
        let d2 = dir("chain-adopted");
        publish_parts(&d2, CheckpointKind::Full, 0, 3, 1);
        publish_parts(&d2, CheckpointKind::Partial, 1, 1, 1);
        // An orphan part above every manifest never counts as published.
        std::fs::write(
            d2.path()
                .join(CheckpointDir::part_file_name(9, CheckpointKind::Partial, 0)),
            b"debris",
        )
        .unwrap();
        let heir = CheckpointDir::open(d2.path(), Arc::new(Throttle::unlimited())).unwrap();
        assert_eq!(heir.last_published(), None, "opening adopts nothing");
        heir.adopt_published_manifests();
        assert_eq!(heir.last_published(), Some(1));
        publish_parts(&heir, CheckpointKind::Partial, 2, 1, 1);
        let (_, partials) = heir.chain().unwrap();
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn chain_picks_latest_full_and_newer_partials() {
        let d = dir("chain");
        publish_parts(&d, CheckpointKind::Full, 0, 3, 1);
        publish_parts(&d, CheckpointKind::Partial, 1, 1, 1);
        publish_parts(&d, CheckpointKind::Partial, 2, 1, 2);
        publish_parts(&d, CheckpointKind::Full, 2, 4, 2); // merged full at id 2
        publish_parts(&d, CheckpointKind::Partial, 3, 1, 1);
        let (full, partials) = d.chain().unwrap();
        assert_eq!(full.id, 2);
        assert_eq!(full.kind, CheckpointKind::Full);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn chain_stops_at_a_hole_in_the_partial_chain() {
        let d = dir("chain-hole");
        publish_parts(&d, CheckpointKind::Full, 0, 4, 2);
        publish_parts(&d, CheckpointKind::Partial, 1, 2, 2);
        publish_parts(&d, CheckpointKind::Partial, 2, 2, 2);
        publish_parts(&d, CheckpointKind::Partial, 3, 2, 2);
        // A crash un-publishes partial 2 (its manifest rename was never
        // made durable); partials 1 and 3 survive. Partial 3's dirty
        // window starts at partial 2, so applying it would silently drop
        // every write only partial 2 captured — the chain must stop at 1.
        for k in 0..2 {
            std::fs::remove_file(d.path().join(CheckpointDir::part_file_name(
                2,
                CheckpointKind::Partial,
                k,
            )))
            .unwrap();
        }
        std::fs::remove_file(
            d.path()
                .join(CheckpointDir::manifest_file_name(2, CheckpointKind::Partial)),
        )
        .unwrap();
        let (full, partials) = listed_chain(&d);
        assert_eq!(full.id, 0);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1], "partials after the hole must be dropped");
        assert_eq!(d.quarantined_count(), 0, "a lost cycle is a hole, not corruption");
    }

    #[test]
    fn chain_tolerates_id_gaps_from_failed_cycles() {
        let d = dir("chain-gap");
        publish_parts(&d, CheckpointKind::Full, 0, 4, 2);
        publish_parts(&d, CheckpointKind::Partial, 1, 2, 2);
        // Cycle 2 failed (consumed its id, published nothing, rolled its
        // coverage into cycle 3) — cycle 3's parent is 1, so the chain
        // stays intact across the id gap.
        publish_parts(&d, CheckpointKind::Partial, 3, 2, 2);
        let (full, partials) = d.chain().unwrap();
        assert_eq!(full.id, 0);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(partials[1].parent, Some(1));
    }

    #[test]
    fn chain_none_without_full() {
        let d = dir("nofull");
        publish_parts(&d, CheckpointKind::Partial, 1, 1, 1);
        assert!(d.chain().is_none());
        assert_eq!(d.restart_chain().unwrap(), RestartChain::NoFull);
    }

    #[test]
    fn prune_keeps_newest_fulls_and_their_partials() {
        let d = dir("prune");
        publish_parts(&d, CheckpointKind::Full, 0, 2, 2);
        publish_parts(&d, CheckpointKind::Partial, 1, 1, 2);
        publish_parts(&d, CheckpointKind::Full, 2, 2, 2);
        publish_parts(&d, CheckpointKind::Partial, 3, 1, 2);
        publish_parts(&d, CheckpointKind::Full, 4, 2, 2);
        publish_parts(&d, CheckpointKind::Partial, 5, 1, 2);
        // keep=2: cutoff at full id 2; cycle 0 and partial 1 go.
        assert_eq!(d.prune_chains(2).unwrap(), 2);
        let ids: Vec<(u64, CheckpointKind)> =
            d.manifests().iter().map(|m| (m.id, m.kind)).collect();
        assert_eq!(
            ids,
            vec![
                (2, CheckpointKind::Full),
                (3, CheckpointKind::Partial),
                (4, CheckpointKind::Full),
                (5, CheckpointKind::Partial),
            ]
        );
        // The live chain is intact after pruning, on disk too.
        let (full, partials) = listed_chain(&d);
        assert_eq!(full.id, 4);
        assert_eq!(partials.len(), 1);
        // Pruning again is a no-op; keep=1 keeps only the live chain.
        assert_eq!(d.prune_chains(2).unwrap(), 0);
        assert_eq!(d.prune_chains(1).unwrap(), 2);
        let (full, partials) = d.chain().unwrap();
        assert_eq!(full.id, 4);
        assert_eq!(partials[0].id, 5);
    }

    #[test]
    fn prune_never_removes_a_live_chain_parent() {
        // A partial chain hanging off the newest full must survive any
        // keep value, even keep=1 — the chain root is the newest full and
        // the cutoff can never exceed it.
        let d = dir("prune-live");
        publish_parts(&d, CheckpointKind::Full, 0, 2, 2);
        publish_parts(&d, CheckpointKind::Full, 1, 2, 2);
        publish_parts(&d, CheckpointKind::Partial, 2, 1, 2);
        publish_parts(&d, CheckpointKind::Partial, 3, 1, 2);
        assert_eq!(d.prune_chains(0).unwrap(), 1, "keep clamps to 1");
        let (full, partials) = d.chain().unwrap();
        assert_eq!(full.id, 1);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![2, 3], "live partial chain untouched");
    }

    #[test]
    fn prune_noop_with_few_fulls_and_removes_old_orphans() {
        let d = dir("prune-orphan");
        publish_parts(&d, CheckpointKind::Full, 1, 2, 2);
        assert_eq!(d.prune_chains(1).unwrap(), 0, "one full, keep 1");
        publish_parts(&d, CheckpointKind::Full, 5, 2, 2);
        // Orphan part debris below the cutoff (a crashed cycle 2).
        let orphan = d.path().join(CheckpointDir::part_file_name(
            2,
            CheckpointKind::Partial,
            0,
        ));
        std::fs::write(&orphan, b"debris").unwrap();
        assert_eq!(d.prune_chains(1).unwrap(), 1);
        assert!(!orphan.exists(), "orphan debris pruned with its id range");
        assert_eq!(d.manifests().len(), 1);
    }

    #[test]
    fn gc_removes_superseded_multipart_cycles_and_orphans() {
        let d = dir("gc-parts");
        publish_parts(&d, CheckpointKind::Full, 0, 2, 2);
        publish_parts(&d, CheckpointKind::Partial, 1, 2, 3);
        publish_parts(&d, CheckpointKind::Full, 1, 4, 2); // replacement
        // Orphan debris from an aborted cycle in the superseded range.
        let (pending, writers) = d
            .begin_parts(CheckpointKind::Partial, 0, CommitSeq(1), 2)
            .unwrap();
        drop(writers);
        std::mem::forget(pending); // crash: no abandon, no publish
        let keep = d.path().join(CheckpointDir::manifest_file_name(1, CheckpointKind::Full));
        let removed = d.gc_through(1, &keep).unwrap();
        assert_eq!(removed, 2);
        let metas = d.manifests();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].path, keep);
        assert_eq!(metas[0].parts.len(), 2, "kept cycle's parts survive GC");
        // Every superseded data/manifest/orphan file is gone.
        let leftovers: Vec<String> = std::fs::read_dir(d.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| !n.starts_with("ckpt-0000000001-full"))
            .collect();
        assert!(leftovers.is_empty(), "GC left {leftovers:?}");
    }
}
