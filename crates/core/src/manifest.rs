//! Checkpoint directory management.
//!
//! A checkpoint is `N` part files named `ckpt-{id:010}-{kind}.part-{k}`,
//! each a self-contained record file with its own header/footer/CRC, plus
//! a manifest `ckpt-{id:010}-{kind}.manifest` recording the part count and
//! each part's record count, byte size, and CRC digest. Parts are written
//! directly at their final names but are *invisible* until the manifest
//! is published (written to a dotted temp name, fsynced, renamed — atomic
//! on POSIX — and made durable with a parent-directory fsync). The
//! manifest rename is the commit point of the whole cycle. Any other file
//! in the directory is inert: never parsed, claimed, quarantined or
//! deleted.
//!
//! Validity is determined by scanning: a manifest whose own CRC holds and
//! whose every part exists, validates, and matches its recorded digest is
//! live; anything less quarantines the *whole cycle* (manifest and all
//! surviving parts renamed to `*.quarantine`) so recovery falls back to
//! the previous checkpoint instead of loading half a snapshot. Part files
//! with no manifest are uncommitted debris from an aborted cycle: scans
//! ignore them and garbage collection removes them. GC (after the merger
//! collapses partials, §2.3.1) deletes checkpoints only once their
//! replacement is durably published — "old checkpoints are discarded only
//! once they have been collapsed."

use std::collections::HashMap;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use calc_common::crc::crc32;
use calc_common::load::{LoadLevel, LoadSignal};
use calc_common::types::{CommitSeq, Key};
use calc_common::vfs::{OsVfs, Vfs};

use crate::codec::Codec;
use crate::file::{CheckpointKind, CheckpointReader, CheckpointWriter, RecordEntry, RecordRef};
use crate::partition::for_each_part;
use crate::throttle::Throttle;

const MANIFEST_MAGIC: &[u8; 8] = b"CALCMFST";
const MANIFEST_VERSION: u32 = 1;
/// Manifest version carrying a codec byte and per-part raw (uncompressed)
/// byte counts. Written only when the cycle's codec is not `none`, so
/// uncompressed directories stay byte-identical to version 1.
const MANIFEST_VERSION_CODEC: u32 = 2;
/// magic + version + kind + id + watermark + parent + part count +
/// trailing crc.
const MANIFEST_FIXED_LEN: usize = 8 + 4 + 1 + 8 + 8 + 8 + 4 + 4;
/// Version-2 fixed section: version 1's plus the codec byte.
const MANIFEST_FIXED_LEN_V2: usize = MANIFEST_FIXED_LEN + 1;
/// records + bytes + crc per part.
const MANIFEST_PART_LEN: usize = 8 + 8 + 4;
/// Version-2 part entry: records + bytes + raw_bytes + crc.
const MANIFEST_PART_LEN_V2: usize = 8 + 8 + 8 + 4;
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

/// Metadata of one published, validated checkpoint.
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
    /// Block codec the parts were written with ([`Codec::None`] for
    /// version-1 manifests).
    pub codec: Codec,
    /// Uncompressed record-stream bytes across all parts. Equals `bytes`
    /// when `codec` is `none`; `raw_bytes as f64 / bytes as f64` is the
    /// cycle's compression ratio.
    pub raw_bytes: u64,
    /// The data files, in part order. Recovery must apply them in this
    /// order: tombstones are written to part 0 ahead of every value.
    pub parts: Vec<PartMeta>,
}

impl CheckpointMeta {
    /// Reads every record across all parts, in part order.
    pub fn read_all_with_vfs(&self, vfs: &dyn Vfs) -> io::Result<Vec<RecordEntry>> {
        let mut out = Vec::with_capacity(self.records as usize);
        for part in &self.parts {
            out.extend(CheckpointReader::open_with_vfs(vfs, &part.path)?.read_all()?);
        }
        Ok(out)
    }

    /// Reads every record across all parts on the real filesystem.
    pub fn read_all(&self) -> io::Result<Vec<RecordEntry>> {
        self.read_all_with_vfs(&OsVfs)
    }

    /// The oracle of the shape restart's loader relies on, for the test
    /// harnesses to hold every published cycle against: a cycle is a
    /// snapshot at one point, so no key has two values in it (its parts
    /// are installed in parallel, first one wins), and every tombstone
    /// sits in part 0 ahead of that part's values. `Some` describes the
    /// first violation — a capture bug that last-event-wins would mask.
    pub fn shape_violation(&self, vfs: &dyn Vfs) -> io::Result<Option<String>> {
        let cycle = format!("cycle {} ({})", self.id, self.kind);
        let mut value_part: HashMap<Key, usize> = HashMap::new();
        for (k, part) in self.parts.iter().enumerate() {
            let mut reader = CheckpointReader::open_with_vfs(vfs, &part.path)?;
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

/// What a publish produced: totals across every part of the cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishSummary {
    /// Records + tombstones across all parts.
    pub records: u64,
    /// Data bytes across all parts (manifest overhead excluded).
    pub bytes: u64,
    /// Uncompressed record-stream bytes across all parts (equals `bytes`
    /// under codec `none`).
    pub raw_bytes: u64,
    /// Number of part files published.
    pub parts: usize,
}

/// A managed checkpoint directory.
pub struct CheckpointDir {
    dir: PathBuf,
    throttle: Arc<Throttle>,
    vfs: Arc<dyn Vfs>,
    /// Files [`CheckpointDir::scan`] found invalid and renamed to
    /// `*.quarantine`.
    quarantined: AtomicU64,
    /// How many part files (and capture threads) new checkpoints use.
    threads: AtomicUsize,
    /// Block codec new checkpoints are written with (wire byte, see
    /// [`Codec::to_byte`]). Readers are self-describing, so changing the
    /// codec between cycles is always safe.
    codec: AtomicU8,
    /// Newest published checkpoint id, encoded as `id + 1` (`0` = none
    /// published yet) so [`AtomicU64::fetch_max`] keeps it monotone.
    /// Raised by every publish, every scan and
    /// [`CheckpointDir::adopt_published_manifests`]; captured into each
    /// new cycle's manifest as its `parent`.
    last_published: Arc<AtomicU64>,
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
    codec: Codec,
    part_paths: Vec<PathBuf>,
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    last_published: Arc<AtomicU64>,
}

impl PendingPartsCheckpoint {
    /// Seals every part and atomically publishes the cycle.
    ///
    /// Each part is fsynced by its own `finish()`; the manifest is then
    /// written to a dotted temp name, fsynced, renamed, and the parent
    /// directory fsynced. Until the manifest rename is durable the part
    /// files are invisible to [`CheckpointDir::scan`], so a crash at any
    /// instant leaves either the complete cycle or no cycle at all.
    pub fn publish(self, writers: Vec<CheckpointWriter>) -> io::Result<PublishSummary> {
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

    fn try_publish(&self, writers: Vec<CheckpointWriter>) -> io::Result<PublishSummary> {
        debug_assert_eq!(writers.len(), self.part_paths.len());
        let mut digests = Vec::with_capacity(writers.len());
        for w in writers {
            digests.push(w.finish()?);
        }
        let records = digests.iter().map(|d| d.records).sum();
        let bytes = digests.iter().map(|d| d.bytes).sum();
        let raw_bytes = digests.iter().map(|d| d.raw_bytes).sum();
        let parts = digests.len();

        let manifest_name = CheckpointDir::manifest_file_name(self.id, self.kind);
        let final_path = self.dir.join(&manifest_name);
        let tmp_path = self.dir.join(format!(".tmp-{manifest_name}"));
        // Codec `none` keeps writing version-1 manifests byte-identical to
        // every predecessor of this format; only compressed cycles need
        // the version-2 codec byte and per-part raw sizes.
        let compressed = self.codec != Codec::None;
        let mut body = Vec::with_capacity(MANIFEST_FIXED_LEN_V2 + parts * MANIFEST_PART_LEN_V2);
        body.extend_from_slice(MANIFEST_MAGIC);
        if compressed {
            body.extend_from_slice(&MANIFEST_VERSION_CODEC.to_le_bytes());
            body.push(self.codec.to_byte());
        } else {
            body.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        }
        body.push(self.kind.to_byte());
        body.extend_from_slice(&self.id.to_le_bytes());
        body.extend_from_slice(&self.watermark.0.to_le_bytes());
        body.extend_from_slice(&self.parent.unwrap_or(MANIFEST_NO_PARENT).to_le_bytes());
        body.extend_from_slice(&(parts as u32).to_le_bytes());
        for d in &digests {
            body.extend_from_slice(&d.records.to_le_bytes());
            body.extend_from_slice(&d.bytes.to_le_bytes());
            if compressed {
                body.extend_from_slice(&d.raw_bytes.to_le_bytes());
            }
            body.extend_from_slice(&d.crc.to_le_bytes());
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());

        let mut f = self.vfs.create(&tmp_path)?;
        f.write_all(&body)?;
        f.sync()?;
        drop(f);
        self.vfs.rename(&tmp_path, &final_path)?;
        self.vfs.sync_dir(&self.dir)?;
        self.last_published.fetch_max(self.id + 1, Ordering::Relaxed);
        Ok(PublishSummary {
            records,
            bytes,
            raw_bytes,
            parts,
        })
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

/// One part's entry in a decoded manifest.
#[derive(Clone, Copy)]
struct ManifestPart {
    records: u64,
    bytes: u64,
    /// Uncompressed size; equals `bytes` in version-1 manifests.
    raw_bytes: u64,
    crc: u32,
}

/// A decoded manifest body.
struct ManifestDoc {
    kind: CheckpointKind,
    id: u64,
    watermark: CommitSeq,
    parent: Option<u64>,
    codec: Codec,
    parts: Vec<ManifestPart>,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn decode_manifest(bytes: &[u8]) -> io::Result<ManifestDoc> {
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
    // Version 2 inserts one codec byte after the version and one raw-size
    // field per part entry; everything else is laid out identically.
    let (codec, fixed_len, part_len) = match version {
        MANIFEST_VERSION => (Codec::None, MANIFEST_FIXED_LEN, MANIFEST_PART_LEN),
        MANIFEST_VERSION_CODEC => {
            if body.len() + 4 < MANIFEST_FIXED_LEN_V2 {
                return Err(invalid("manifest too short"));
            }
            (
                Codec::from_byte(body[12])?,
                MANIFEST_FIXED_LEN_V2,
                MANIFEST_PART_LEN_V2,
            )
        }
        _ => return Err(invalid("unsupported manifest version")),
    };
    let at = if version == MANIFEST_VERSION { 12 } else { 13 };
    let kind = CheckpointKind::from_byte(body[at])?;
    let id = u64::from_le_bytes(body[at + 1..at + 9].try_into().unwrap());
    let watermark = CommitSeq(u64::from_le_bytes(body[at + 9..at + 17].try_into().unwrap()));
    let parent = match u64::from_le_bytes(body[at + 17..at + 25].try_into().unwrap()) {
        MANIFEST_NO_PARENT => None,
        p => Some(p),
    };
    let count = u32::from_le_bytes(body[at + 25..at + 29].try_into().unwrap()) as usize;
    if count == 0 || body.len() != fixed_len - 4 + count * part_len {
        return Err(invalid("manifest part table size mismatch"));
    }
    let table = at + 29;
    let mut parts = Vec::with_capacity(count);
    for k in 0..count {
        let at = table + k * part_len;
        let records = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        let bytes = u64::from_le_bytes(body[at + 8..at + 16].try_into().unwrap());
        let (raw_bytes, crc_at) = if version == MANIFEST_VERSION {
            (bytes, at + 16)
        } else {
            (
                u64::from_le_bytes(body[at + 16..at + 24].try_into().unwrap()),
                at + 24,
            )
        };
        parts.push(ManifestPart {
            records,
            bytes,
            raw_bytes,
            crc: u32::from_le_bytes(body[crc_at..crc_at + 4].try_into().unwrap()),
        });
    }
    Ok(ManifestDoc {
        kind,
        id,
        watermark,
        parent,
        codec,
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
    /// arbitrary [`Vfs`].
    pub fn open_with_vfs(
        dir: &Path,
        throttle: Arc<Throttle>,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Self> {
        vfs.create_dir_all(dir)?;
        Ok(CheckpointDir {
            dir: dir.to_path_buf(),
            throttle,
            vfs,
            quarantined: AtomicU64::new(0),
            threads: AtomicUsize::new(1),
            codec: AtomicU8::new(Codec::None.to_byte()),
            last_published: Arc::new(AtomicU64::new(0)),
            load: std::sync::OnceLock::new(),
        })
    }

    /// Attaches the foreground load signal (once, at boot): capture
    /// parallelism and per-part scan pacing become load-aware. Without a
    /// signal the directory behaves exactly as configured.
    pub fn set_load_signal(&self, signal: Arc<LoadSignal>) {
        let _ = self.load.set(signal);
    }

    /// Sets the block codec future checkpoints are written with. Existing
    /// checkpoints are untouched — files and manifests are
    /// self-describing, so mixed-codec directories recover fine.
    pub fn set_codec(&self, codec: Codec) {
        self.codec.store(codec.to_byte(), Ordering::Relaxed);
    }

    /// The block codec new checkpoints use.
    pub fn codec(&self) -> Codec {
        // The byte was stored from a Codec, so it always decodes.
        Codec::from_byte(self.codec.load(Ordering::Relaxed)).unwrap_or(Codec::None)
    }

    /// Id of the newest checkpoint this handle has published or seen in a
    /// scan. `None` until either happens.
    pub fn last_published(&self) -> Option<u64> {
        match self.last_published.load(Ordering::Relaxed) {
            0 => None,
            raw => Some(raw - 1),
        }
    }

    /// Sets how many part files (one capture thread each) new checkpoints
    /// are split into. Clamped to at least 1.
    pub fn set_checkpoint_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// The *effective* part count / capture thread pool size: the
    /// configured value, clamped down by the attached load signal so
    /// capture parallelism never competes with an overloaded foreground.
    /// Every strategy's capture, the merger's output, restart's
    /// validation scan and recovery's part loader size their pools through
    /// this one accessor, so load-aware clamping covers all of them:
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

    /// Number of invalid checkpoint files this handle's scans have
    /// quarantined (renamed to `*.quarantine`).
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Moves an invalid checkpoint file out of the scan namespace by
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
        let codec = self.codec();
        let mut part_paths = Vec::with_capacity(parts);
        let mut writers = Vec::with_capacity(parts);
        for k in 0..parts {
            let path = self.dir.join(Self::part_file_name(id, kind, k));
            match CheckpointWriter::create_with_vfs_codec(
                self.vfs.as_ref(),
                &path,
                kind,
                id,
                watermark,
                self.throttle.clone(),
                codec,
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
                codec,
                part_paths,
                dir: self.dir.clone(),
                vfs: self.vfs.clone(),
                last_published: self.last_published.clone(),
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
    fn read_manifest(&self, path: &Path) -> io::Result<ManifestDoc> {
        let mut buf = Vec::new();
        self.vfs.open_read(path)?.read_to_end(&mut buf)?;
        decode_manifest(&buf)
    }

    /// [`Self::read_manifest`], or `None` if the file is unreadable or its
    /// document's identity does not match the name it was found under.
    fn named_manifest(&self, path: &Path, id: u64, kind: CheckpointKind) -> Option<ManifestDoc> {
        let doc = self.read_manifest(path).ok()?;
        (doc.id == id && doc.kind == kind).then_some(doc)
    }

    /// The meta a manifest document describes; part paths follow from the
    /// cycle's name.
    fn meta_of(&self, path: &Path, doc: &ManifestDoc) -> CheckpointMeta {
        let parts: Vec<PartMeta> = doc
            .parts
            .iter()
            .enumerate()
            .map(|(k, p)| PartMeta {
                path: self.dir.join(Self::part_file_name(doc.id, doc.kind, k)),
                records: p.records,
                bytes: p.bytes,
            })
            .collect();
        CheckpointMeta {
            id: doc.id,
            kind: doc.kind,
            watermark: doc.watermark,
            records: parts.iter().map(|p| p.records).sum(),
            bytes: parts.iter().map(|p| p.bytes).sum(),
            parent: doc.parent,
            path: path.to_path_buf(),
            codec: doc.codec,
            raw_bytes: doc.parts.iter().map(|p| p.raw_bytes).sum(),
            parts,
        }
    }

    /// Validates one manifest's cycle, its parts checked concurrently on
    /// at most `threads` workers. Returns the meta, or `None` after
    /// quarantining whichever files of the cycle exist.
    fn validate_manifest(
        &self,
        path: &Path,
        id: u64,
        kind: CheckpointKind,
        threads: usize,
    ) -> Option<CheckpointMeta> {
        let Some(doc) = self.named_manifest(path, id, kind) else {
            // An unreadable manifest condemns only itself: its part
            // names cannot be trusted, and orphaned parts are invisible
            // anyway.
            self.quarantine(path);
            return None;
        };
        let meta = self.meta_of(path, &doc);
        let valid = for_each_part(meta.parts.len(), threads, |k| {
            let entry = &doc.parts[k];
            let r = CheckpointReader::open_with_vfs(self.vfs.as_ref(), &meta.parts[k].path)?;
            if r.expected_crc() != entry.crc {
                return Err(invalid("part digest does not match manifest"));
            }
            let h = r.verify()?;
            if h.id == id
                && h.kind == kind
                && h.watermark == doc.watermark
                && h.records == entry.records
                && h.codec == doc.codec
            {
                Ok(())
            } else {
                Err(invalid("part header does not match manifest"))
            }
        })
        .is_ok();
        if !valid {
            // One missing or corrupt part condemns the whole cycle: a
            // snapshot with a hole is worse than falling back to the
            // previous checkpoint plus a longer replay.
            for part in &meta.parts {
                if self.vfs.len(&part.path).is_ok() {
                    self.quarantine(&part.path);
                }
            }
            self.quarantine(path);
            return None;
        }
        Some(meta)
    }

    /// Scans the directory for valid published checkpoints, ascending by
    /// `(id, kind)` with Full ordered before Partial at equal id (a merged
    /// full supersedes the same-id partial). Cycles with a missing or
    /// corrupt part are quarantined wholesale; part files with no manifest
    /// are uncommitted debris and are ignored. Validation runs on the
    /// calling thread only: retention, GC and the merger call this beside
    /// the foreground.
    pub fn scan(&self) -> io::Result<Vec<CheckpointMeta>> {
        self.scan_on(1)
    }

    /// The one deep-validation pass behind [`CheckpointDir::scan`],
    /// [`CheckpointDir::recovery_chain`] and
    /// [`CheckpointDir::restart_chain`]: every part of every published
    /// cycle is opened and CRC'd exactly once, a cycle's parts on at most
    /// `threads` workers.
    fn scan_on(&self, threads: usize) -> io::Result<Vec<CheckpointMeta>> {
        let mut out: Vec<CheckpointMeta> = self
            .entries()?
            .into_iter()
            .filter(|e| e.3 == NameClass::Manifest)
            .filter_map(|(path, id, kind, _)| self.validate_manifest(&path, id, kind, threads))
            .collect();
        out.sort_by_key(chain_order);
        if let Some(max_id) = out.iter().map(|m| m.id).max() {
            self.last_published.fetch_max(max_id + 1, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Lists published checkpoints from their manifest documents alone, in
    /// [`CheckpointDir::scan`] order: O(cycles), no part file is opened and
    /// nothing is quarantined, so it is safe per request while the merger
    /// runs. A listed cycle may still fail deep validation (restart and the
    /// merger own that); unreadable manifests and orphan parts are skipped.
    pub fn manifests(&self) -> io::Result<Vec<CheckpointMeta>> {
        let mut out: Vec<CheckpointMeta> = self
            .entries()?
            .into_iter()
            .filter(|e| e.3 == NameClass::Manifest)
            .filter_map(|(path, id, kind, _)| {
                Some(self.meta_of(&path, &self.named_manifest(&path, id, kind)?))
            })
            .collect();
        out.sort_by_key(chain_order);
        Ok(out)
    }

    /// The sequence below which command-log segments may be truncated: the
    /// lowest watermark among the published full checkpoints, read from
    /// their manifests ([`CheckpointDir::manifests`]: no part is opened,
    /// nothing is quarantined). `None` while no full is published.
    ///
    /// Every chain still on disk roots at a full whose watermark is at or
    /// above this floor, so whichever chain a restart ends up loading —
    /// the newest, or an older one after the newest is found torn and
    /// quarantined — finds its whole replay window in the surviving
    /// segments. A full that deep validation would reject still counts,
    /// which can only lower the floor: truncation errs towards keeping
    /// log.
    pub fn truncation_floor(&self) -> io::Result<Option<CommitSeq>> {
        Ok(self
            .manifests()?
            .iter()
            .filter(|m| m.kind == CheckpointKind::Full)
            .map(|m| m.watermark)
            .min())
    }

    /// Seeds the next checkpoint's parent link from the newest readable
    /// manifest, for a handle taking over a directory it will not deep-scan
    /// (a promoted standby, restarts included); otherwise its first partial
    /// would record no parent and end the recovery chain. A handle about
    /// to validate the chain itself must *not* call this: its
    /// [`CheckpointDir::recovery_chain`] scan seeds the link from
    /// validated cycles only, and may be about to quarantine the newest.
    pub fn adopt_published_manifests(&self) -> io::Result<()> {
        if let Some(newest) = self.manifests()?.iter().map(|m| m.id).max() {
            self.last_published.fetch_max(newest + 1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// A cheap claims-only listing: the id and claimed watermark of every
    /// cycle with any durable trace in the directory, read from manifest
    /// documents and file *names* without validating part payloads —
    /// O(cycles), not O(data). Unlike [`CheckpointDir::scan`], cycles deep
    /// validation would quarantine still appear here: their claims are
    /// exactly what a restart or a standby promotion must seal the id/seq
    /// spaces above, whether or not the data behind them is intact. Orphan
    /// parts and unreadable manifests contribute their name-derived id with
    /// a watermark claim of 0.
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

    /// The recovery chain: the newest valid full checkpoint plus the
    /// longest *unbroken* run of newer partials, ascending. `None` if no
    /// full checkpoint exists.
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
    ///
    /// Validates on the calling thread, like [`CheckpointDir::scan`]: the
    /// merger's `collapse` calls this beside the foreground.
    pub fn recovery_chain(&self) -> io::Result<Option<(CheckpointMeta, Vec<CheckpointMeta>)>> {
        Ok(match chain_of(self.scan_on(1)?) {
            RestartChain::Chain(full, partials) => Some((full, partials)),
            RestartChain::Empty | RestartChain::NoFull => None,
        })
    }

    /// [`CheckpointDir::recovery_chain`] as a restart or a standby
    /// bootstrap wants it: validated on
    /// [`CheckpointDir::checkpoint_threads`] workers (nothing else is
    /// running yet), and telling a directory with no valid cycle at all —
    /// a cold start — from one that holds cycles but no full, all from the
    /// one scan.
    pub fn restart_chain(&self) -> io::Result<RestartChain> {
        Ok(chain_of(self.scan_on(self.checkpoint_threads())?))
    }

    /// Deletes every cycle of `all` with `id < below` except the one whose
    /// manifest is `keep` (its parts included), plus orphaned part files in
    /// the same id range. Returns the number of *checkpoints* (not files)
    /// removed.
    fn remove_below(
        &self,
        all: &[CheckpointMeta],
        below: u64,
        keep: Option<&Path>,
    ) -> io::Result<usize> {
        let mut removed = 0;
        let mut kept_parts: &[PartMeta] = &[];
        for meta in all.iter().filter(|m| m.id < below) {
            if Some(meta.path.as_path()) == keep {
                kept_parts = &meta.parts;
                continue;
            }
            for part in &meta.parts {
                self.vfs.remove_file(&part.path)?;
            }
            self.vfs.remove_file(&meta.path)?;
            removed += 1;
        }
        // Orphaned parts (no manifest claimed them — debris from aborted
        // or crashed cycles) in the superseded id range go too. In-flight
        // cycles are safe: their ids are allocated after everything
        // published, so they sort at or above `below`.
        for (path, id, _, class) in self.entries()? {
            if matches!(class, NameClass::Part(_))
                && id < below
                && !kept_parts.iter().any(|p| p.path == path)
            {
                let _ = self.vfs.remove_file(&path);
            }
        }
        if removed > 0 {
            // Make the unlinks durable before reporting completion, so a
            // later crash cannot resurrect a superseded checkpoint that
            // recovery would then prefer over the replacement.
            self.vfs.sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Deletes checkpoints that are superseded: every published cycle
    /// with `id <= through_id` except the replacement at `keep` (its
    /// parts included), plus orphaned part files in the same id range.
    /// Returns the number of *checkpoints* (not files) removed.
    pub fn gc_through(&self, through_id: u64, keep: &Path) -> io::Result<usize> {
        self.remove_below(&self.scan()?, through_id.saturating_add(1), Some(keep))
    }

    /// Retention: keeps the newest `keep` full checkpoints (clamped to at
    /// least 1) and every cycle at or above the oldest kept full's id,
    /// deleting everything older. Returns the number of checkpoints
    /// removed.
    ///
    /// Safety argument: the live recovery chain is the newest full plus
    /// partials *newer* than it ([`CheckpointDir::recovery_chain`]), and
    /// with `keep >= 1` the cutoff is at or below the newest full's id —
    /// so no deleted cycle (all strictly below the cutoff) can be the
    /// chain's root or any of its parents. Superseded partials between
    /// kept fulls survive too, preserving every fallback chain among the
    /// kept fulls: if the newest full is later found corrupt and
    /// quarantined, recovery still has `keep - 1` older complete chains.
    pub fn prune_chains(&self, keep: usize) -> io::Result<usize> {
        let keep = keep.max(1);
        let all = self.scan()?;
        let mut full_ids: Vec<u64> = all
            .iter()
            .filter(|m| m.kind == CheckpointKind::Full)
            .map(|m| m.id)
            .collect();
        full_ids.sort_unstable();
        full_ids.dedup();
        if full_ids.len() <= keep {
            return Ok(0);
        }
        self.remove_below(&all, full_ids[full_ids.len() - keep], None)
    }
}

/// What one deep scan leaves a restart to load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestartChain {
    /// No valid cycle at all: no checkpoint ever completed (or none
    /// survived validation), so the command log carries the whole history.
    Empty,
    /// Valid cycles, but no full checkpoint among them: the chain is
    /// broken, not merely young.
    NoFull,
    /// The newest valid full plus its unbroken run of newer partials,
    /// ascending.
    Chain(CheckpointMeta, Vec<CheckpointMeta>),
}

/// Picks the recovery chain out of a scan (see
/// [`CheckpointDir::recovery_chain`] for the rule).
fn chain_of(all: Vec<CheckpointMeta>) -> RestartChain {
    let Some(full) = all
        .iter()
        .filter(|m| m.kind == CheckpointKind::Full)
        .max_by_key(|m| m.id)
        .cloned()
    else {
        return if all.is_empty() {
            RestartChain::Empty
        } else {
            RestartChain::NoFull
        };
    };
    let mut partials: Vec<CheckpointMeta> = Vec::new();
    let mut prev = full.id;
    for m in all {
        if m.kind != CheckpointKind::Partial || m.id <= full.id {
            continue;
        }
        if m.parent != Some(prev) {
            break;
        }
        prev = m.id;
        partials.push(m);
    }
    RestartChain::Chain(full, partials)
}

/// Sort key of the scan order: ascending id, Full before Partial at equal
/// id.
fn chain_order(m: &CheckpointMeta) -> (u64, bool) {
    (m.id, matches!(m.kind, CheckpointKind::Partial))
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
    fn publish_then_scan() {
        let d = dir("scan");
        publish_parts(&d, CheckpointKind::Full, 1, 5, 1);
        publish_parts(&d, CheckpointKind::Partial, 2, 2, 1);
        let metas = d.scan().unwrap();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].id, 1);
        assert_eq!(metas[0].kind, CheckpointKind::Full);
        assert_eq!(metas[0].records, 5);
        assert_eq!(metas[1].id, 2);
        assert_eq!(metas[1].watermark, CommitSeq(200));
    }

    #[test]
    fn publish_parts_then_scan_counts_all_parts() {
        let d = dir("scan-parts");
        publish_parts(&d, CheckpointKind::Full, 1, 10, 3);
        let metas = d.scan().unwrap();
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
    /// (including 1) and several record shapes, publish → scan → read
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
                assert_eq!(summary.parts, parts);
                let metas = d.scan().unwrap();
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
        assert!(d.scan().unwrap().is_empty());
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
        assert_eq!(d.manifests().unwrap().len(), 1, "listing skips it untouched");
        assert_eq!(d.quarantined_count(), 0);
        let metas = d.scan().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].id, 1);
        assert_eq!(d.quarantined_count(), 1);
        // The file moved out of the scan namespace: bytes preserved under
        // *.quarantine, original name gone, and a re-scan finds nothing new.
        assert!(!bad.exists());
        assert!(d
            .path()
            .join("ckpt-0000000002-full.manifest.quarantine")
            .exists());
        assert_eq!(d.scan().unwrap().len(), 1);
        assert_eq!(d.quarantined_count(), 1);
    }

    #[test]
    fn corrupt_part_quarantines_the_whole_cycle() {
        let d = dir("part-corrupt");
        publish_parts(&d, CheckpointKind::Full, 1, 6, 3);
        publish_parts(&d, CheckpointKind::Full, 2, 6, 3);
        // Flip a byte in the middle of one part of the newest cycle.
        let victim = d.path().join("ckpt-0000000002-full.part-1");
        let mut data = std::fs::read(&victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&victim, &data).unwrap();
        let metas = d.scan().unwrap();
        assert_eq!(metas.len(), 1, "whole cycle rejected, not just one part");
        assert_eq!(metas[0].id, 1);
        // Manifest and all three parts of cycle 2 are quarantined.
        assert_eq!(d.quarantined_count(), 4);
        for name in [
            "ckpt-0000000002-full.manifest.quarantine",
            "ckpt-0000000002-full.part-0.quarantine",
            "ckpt-0000000002-full.part-1.quarantine",
            "ckpt-0000000002-full.part-2.quarantine",
        ] {
            assert!(d.path().join(name).exists(), "missing {name}");
        }
    }

    #[test]
    fn missing_part_quarantines_the_whole_cycle() {
        let d = dir("part-missing");
        publish_parts(&d, CheckpointKind::Full, 1, 6, 3);
        publish_parts(&d, CheckpointKind::Full, 2, 6, 3);
        std::fs::remove_file(d.path().join("ckpt-0000000002-full.part-2")).unwrap();
        let metas = d.scan().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].id, 1);
        // Manifest + the two surviving parts.
        assert_eq!(d.quarantined_count(), 3);
    }

    #[test]
    fn recovery_chain_ends_at_a_partial_without_a_parent() {
        let d = dir("chain-noparent");
        publish_parts(&d, CheckpointKind::Full, 0, 3, 1);
        publish_parts(&d, CheckpointKind::Partial, 1, 1, 1);
        // A handle that neither scanned nor adopted the directory records
        // no parent; dense ids do not stand in for the missing link.
        let blind = CheckpointDir::open(d.path(), Arc::new(Throttle::unlimited())).unwrap();
        publish_parts(&blind, CheckpointKind::Partial, 2, 1, 1);
        publish_parts(&blind, CheckpointKind::Partial, 3, 1, 1);
        let (full, partials) = d.recovery_chain().unwrap().unwrap();
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
        heir.adopt_published_manifests().unwrap();
        assert_eq!(heir.last_published(), Some(1));
        publish_parts(&heir, CheckpointKind::Partial, 2, 1, 1);
        let (_, partials) = d2.recovery_chain().unwrap().unwrap();
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn recovery_chain_picks_latest_full_and_newer_partials() {
        let d = dir("chain");
        publish_parts(&d, CheckpointKind::Full, 0, 3, 1);
        publish_parts(&d, CheckpointKind::Partial, 1, 1, 1);
        publish_parts(&d, CheckpointKind::Partial, 2, 1, 2);
        publish_parts(&d, CheckpointKind::Full, 2, 4, 2); // merged full at id 2
        publish_parts(&d, CheckpointKind::Partial, 3, 1, 1);
        let (full, partials) = d.recovery_chain().unwrap().unwrap();
        assert_eq!(full.id, 2);
        assert_eq!(full.kind, CheckpointKind::Full);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![3]);
    }

    #[test]
    fn recovery_chain_stops_at_a_hole_in_the_partial_chain() {
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
        let (full, partials) = d.recovery_chain().unwrap().unwrap();
        assert_eq!(full.id, 0);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1], "partials after the hole must be dropped");
    }

    #[test]
    fn recovery_chain_tolerates_id_gaps_from_failed_cycles() {
        let d = dir("chain-gap");
        publish_parts(&d, CheckpointKind::Full, 0, 4, 2);
        publish_parts(&d, CheckpointKind::Partial, 1, 2, 2);
        // Cycle 2 failed (consumed its id, published nothing, rolled its
        // coverage into cycle 3) — cycle 3's parent is 1, so the chain
        // stays intact across the id gap.
        publish_parts(&d, CheckpointKind::Partial, 3, 2, 2);
        let (full, partials) = d.recovery_chain().unwrap().unwrap();
        assert_eq!(full.id, 0);
        let ids: Vec<u64> = partials.iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(partials[1].parent, Some(1));
    }

    #[test]
    fn recovery_chain_none_without_full() {
        let d = dir("nofull");
        publish_parts(&d, CheckpointKind::Partial, 1, 1, 1);
        assert!(d.recovery_chain().unwrap().is_none());
    }

    #[test]
    fn compressed_parts_publish_scan_read_roundtrip() {
        let d = dir("codec-parts");
        publish_parts(&d, CheckpointKind::Full, 1, 8, 2); // v1 cycle
        d.set_codec(Codec::Rle);
        assert_eq!(d.codec(), Codec::Rle);
        let (pending, mut writers) = d
            .begin_parts(CheckpointKind::Partial, 2, CommitSeq(200), 3)
            .unwrap();
        for k in 0..30u64 {
            writers[(k % 3) as usize]
                .write_record(Key(k), &[0u8; 256])
                .unwrap();
        }
        let summary = pending.publish(writers).unwrap();
        assert!(summary.raw_bytes > summary.bytes, "zeros must compress");

        let metas = d.scan().unwrap();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].codec, Codec::None);
        assert_eq!(metas[0].raw_bytes, metas[0].bytes);
        assert_eq!(metas[1].codec, Codec::Rle);
        assert_eq!(metas[1].raw_bytes, summary.raw_bytes);
        assert_eq!(metas[1].bytes, summary.bytes);
        assert_eq!(metas[1].read_all().unwrap().len(), 30);
        assert_eq!(d.quarantined_count(), 0, "mixed-codec directory is fine");
    }

    #[test]
    fn corrupt_compressed_part_quarantines_the_whole_cycle() {
        let d = dir("codec-corrupt");
        d.set_codec(Codec::Rle);
        publish_parts(&d, CheckpointKind::Full, 1, 200, 2);
        publish_parts(&d, CheckpointKind::Full, 2, 200, 2);
        let victim = d.path().join("ckpt-0000000002-full.part-0");
        let mut data = std::fs::read(&victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&victim, &data).unwrap();
        let metas = d.scan().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].id, 1);
        assert_eq!(d.quarantined_count(), 3, "manifest + both parts");
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
            d.scan().unwrap().iter().map(|m| (m.id, m.kind)).collect();
        assert_eq!(
            ids,
            vec![
                (2, CheckpointKind::Full),
                (3, CheckpointKind::Partial),
                (4, CheckpointKind::Full),
                (5, CheckpointKind::Partial),
            ]
        );
        // The live chain is intact after pruning.
        let (full, partials) = d.recovery_chain().unwrap().unwrap();
        assert_eq!(full.id, 4);
        assert_eq!(partials.len(), 1);
        // Pruning again is a no-op; keep=1 keeps only the live chain.
        assert_eq!(d.prune_chains(2).unwrap(), 0);
        assert_eq!(d.prune_chains(1).unwrap(), 2);
        let (full, partials) = d.recovery_chain().unwrap().unwrap();
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
        let (full, partials) = d.recovery_chain().unwrap().unwrap();
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
        assert_eq!(d.scan().unwrap().len(), 1);
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
        let metas = d.scan().unwrap();
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
