//! The on-disk checkpoint file format.
//!
//! ```text
//! header  "CALCCKPT" | version=3:u32 | kind:u8 | id:u64 | watermark:u64 | codec:u8
//! frames  repeated:  raw_len:u32 | comp_len:u32 | crc32(payload):u32 | payload
//! footer  "CKPTEND." | record_count:u64 | crc32:u32
//! ```
//!
//! All integers little-endian. Records are buffered to ~[`BLOCK_TARGET`]
//! bytes (never splitting a record across frames) and each block is
//! written as one frame whose payload is the block run through the
//! file's codec — under codec `none` the block itself, so `comp_len ==
//! raw_len`. Inside a block records are laid out back to back:
//!
//! ```text
//! record  flag:u8 (0 value, 1 tombstone) | key:u64 | len:u32 | bytes
//! ```
//!
//! Each byte is CRC'd once. A frame's CRC covers its payload; the footer
//! CRC covers the header and every 12-byte frame head, so it reaches the
//! payloads through their CRCs without reading them a second time. A
//! reader checks each frame as it loads it — before the codec sees the
//! bytes — and the footer CRC once the last record is consumed.
//!
//! A crash mid-capture leaves a file without a valid footer; recovery
//! (§3) detects this via [`CheckpointReader::open`] and discards the
//! file — which is exactly the paper's durability story for failures
//! during checkpointing: the previous checkpoints remain intact because
//! files are published atomically (parts + a renamed manifest, handled
//! by [`crate::manifest::CheckpointDir`]).
//!
//! Tombstones appear only in *partial* checkpoints (a record that existed
//! in an earlier checkpoint and was deleted before this one's point of
//! consistency). Within one file, a tombstone precedes any re-insertion of
//! the same key, so sequential replay (last event wins) is correct.

use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use calc_common::crc::{crc32, Crc32};
use calc_common::types::{CommitSeq, Key, Value};
use calc_common::vfs::{OsVfs, Vfs, VfsFile, VfsRead};

use crate::codec::Codec;
use crate::throttle::Throttle;

const HEADER_MAGIC: &[u8; 8] = b"CALCCKPT";
const FOOTER_MAGIC: &[u8; 8] = b"CKPTEND.";
/// The one file version; any other is refused as unsupported.
const VERSION: u32 = 3;
/// header magic + version + kind + id + watermark + codec.
const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8 + 1;
/// footer magic + count + crc.
const FOOTER_LEN: usize = 8 + 8 + 4;
/// Frame head: raw_len + comp_len + crc32 of the payload.
const FRAME_HEAD_LEN: usize = 4 + 4 + 4;
/// Record head: flag + key + value length.
const RECORD_HEAD_LEN: usize = 1 + 8 + 4;
/// Target uncompressed bytes per frame. A record larger than this gets a
/// frame of its own (records never split across frames).
pub const BLOCK_TARGET: usize = 64 * 1024;
/// Upper bound accepted for a frame's raw or compressed length — torn
/// frame heads must not trigger absurd allocations.
const FRAME_LEN_LIMIT: u32 = 1 << 30;

/// Whether a checkpoint holds complete database state or only records
/// changed since the previous checkpoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointKind {
    /// Complete snapshot.
    Full,
    /// Delta since the previous checkpoint (may contain tombstones).
    Partial,
}

impl CheckpointKind {
    /// The kind a strategy's `partial` flag selects.
    pub fn of(partial: bool) -> Self {
        if partial {
            CheckpointKind::Partial
        } else {
            CheckpointKind::Full
        }
    }

    pub(crate) fn to_byte(self) -> u8 {
        match self {
            CheckpointKind::Full => 0,
            CheckpointKind::Partial => 1,
        }
    }

    pub(crate) fn from_byte(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(CheckpointKind::Full),
            1 => Ok(CheckpointKind::Partial),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad checkpoint kind byte {b}"),
            )),
        }
    }
}

impl std::fmt::Display for CheckpointKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointKind::Full => f.write_str("full"),
            CheckpointKind::Partial => f.write_str("part"),
        }
    }
}

/// One record read back from a checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordEntry {
    /// A record value.
    Value(Key, Value),
    /// A deletion marker (partial checkpoints only).
    Tombstone(Key),
}

impl RecordEntry {
    /// The record's key.
    pub fn key(&self) -> Key {
        match self {
            RecordEntry::Value(k, _) => *k,
            RecordEntry::Tombstone(k) => *k,
        }
    }
}

/// One record as [`CheckpointReader::next_borrowed`] hands it out: the
/// value still lies in the reader's buffer, valid until the next call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecordRef<'a> {
    /// A record value.
    Value(Key, &'a [u8]),
    /// A deletion marker (partial checkpoints only).
    Tombstone(Key),
}

/// Streaming checkpoint writer. Writes go through an optional byte
/// throttle (the simulated disk). Call [`CheckpointWriter::finish`] to
/// seal the footer; dropping without finishing leaves an invalid file, as
/// a crash would.
pub struct CheckpointWriter {
    out: Box<dyn VfsFile>,
    /// The footer CRC: header and frame heads (payloads are covered by
    /// their frames' CRCs).
    crc: Crc32,
    count: u64,
    bytes: u64,
    /// Bytes the file would occupy under codec `none` (equal to `bytes`
    /// there): header + framed raw record stream + footer.
    raw_bytes: u64,
    codec: Codec,
    /// Record bytes buffered for the next frame.
    block: Vec<u8>,
    throttle: Arc<Throttle>,
    /// Unthrottled bytes accumulated since the last throttle charge;
    /// charged in chunks to keep throttle locking off the per-record path.
    pending_charge: usize,
    /// Foreground load signal for adaptive scan pacing (attached by
    /// [`crate::manifest::CheckpointDir::begin_parts`] when pacing is on).
    pacer: Option<Arc<calc_common::load::LoadSignal>>,
    /// Records since the last pacing check.
    pace_stride: u32,
}

const CHARGE_CHUNK: usize = 256 * 1024;

/// Records between pacing checks: one atomic load every `PACE_STRIDE`
/// records keeps the signal off the per-record hot path.
const PACE_STRIDE: u32 = 1024;

impl CheckpointWriter {
    /// Creates a writer at `path` on the real filesystem, uncompressed.
    pub fn create(
        path: &Path,
        kind: CheckpointKind,
        id: u64,
        watermark: CommitSeq,
        throttle: Arc<Throttle>,
    ) -> io::Result<Self> {
        Self::create_with_vfs_codec(&OsVfs, path, kind, id, watermark, throttle, Codec::None)
    }

    /// Creates a writer at `path` through an arbitrary [`Vfs`], framing
    /// the record stream through the given block codec.
    pub fn create_with_vfs_codec(
        vfs: &dyn Vfs,
        path: &Path,
        kind: CheckpointKind,
        id: u64,
        watermark: CommitSeq,
        throttle: Arc<Throttle>,
        codec: Codec,
    ) -> io::Result<Self> {
        let file = vfs.create(path)?;
        let mut w = CheckpointWriter {
            out: file,
            crc: Crc32::new(),
            count: 0,
            bytes: 0,
            raw_bytes: HEADER_LEN as u64,
            codec,
            block: Vec::new(),
            throttle,
            pending_charge: 0,
            pacer: None,
            pace_stride: 0,
        };
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(HEADER_MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12] = kind.to_byte();
        header[13..21].copy_from_slice(&id.to_le_bytes());
        header[21..29].copy_from_slice(&watermark.0.to_le_bytes());
        header[29] = codec.to_byte();
        w.crc.update(&header);
        w.write_out(&header)?;
        Ok(w)
    }

    fn write_out(&mut self, buf: &[u8]) -> io::Result<()> {
        self.out.write_all(buf)?;
        self.bytes += buf.len() as u64;
        self.pending_charge += buf.len();
        if self.pending_charge >= CHARGE_CHUNK {
            self.throttle.consume(self.pending_charge);
            self.pending_charge = 0;
        }
        Ok(())
    }

    /// Writes the pending block as one frame: its payload CRC'd once, its
    /// head folded into the footer CRC. Under codec `none` the block is
    /// the payload; no codec runs. Called between records, so a record
    /// never straddles two frames.
    fn flush_block(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let block = std::mem::take(&mut self.block);
        let compressed = match self.codec {
            Codec::None => None,
            codec => Some(codec.compress(&block)),
        };
        let payload = compressed.as_deref().unwrap_or(&block);
        let mut head = [0u8; FRAME_HEAD_LEN];
        head[0..4].copy_from_slice(&(block.len() as u32).to_le_bytes());
        head[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
        self.crc.update(&head);
        self.write_out(&head)?;
        self.write_out(payload)?;
        self.raw_bytes += (FRAME_HEAD_LEN + block.len()) as u64;
        // Reuse the allocation for the next block.
        self.block = block;
        self.block.clear();
        Ok(())
    }

    /// Attaches the foreground load signal: every `PACE_STRIDE` records
    /// the writer consults it and, under pressure, yields its scan
    /// quantum to foreground transactions (counted on the signal as a
    /// capture yield). This is the single interception point all capture
    /// paths share, so every strategy inherits load-aware pacing.
    pub fn set_pacer(&mut self, signal: Arc<calc_common::load::LoadSignal>) {
        self.pacer = Some(signal);
    }

    /// One pacing check per [`PACE_STRIDE`] records: under
    /// [`calc_common::load::LoadLevel::High`] the capture thread yields
    /// its timeslice; under overload it parks briefly so foreground
    /// commits get the cores. Capture always makes progress — pacing
    /// stretches a cycle, it never wedges one.
    #[inline]
    fn pace(&mut self) {
        self.pace_stride += 1;
        if self.pace_stride < PACE_STRIDE {
            return;
        }
        self.pace_stride = 0;
        let Some(signal) = &self.pacer else { return };
        use calc_common::load::LoadLevel;
        match signal.level() {
            LoadLevel::Overload => {
                signal.record_capture_yield();
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            LoadLevel::High => {
                signal.record_capture_yield();
                std::thread::yield_now();
            }
            LoadLevel::Idle | LoadLevel::Normal => {}
        }
    }

    /// Buffers one record and closes the frame once it reaches
    /// [`BLOCK_TARGET`].
    fn append(&mut self, flag: u8, key: Key, value: &[u8]) -> io::Result<()> {
        let mut head = [0u8; RECORD_HEAD_LEN];
        head[0] = flag;
        head[1..9].copy_from_slice(&key.0.to_le_bytes());
        head[9..13].copy_from_slice(&(value.len() as u32).to_le_bytes());
        self.block.extend_from_slice(&head);
        self.block.extend_from_slice(value);
        self.count += 1;
        self.pace();
        if self.block.len() >= BLOCK_TARGET {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends a record value.
    pub fn write_record(&mut self, key: Key, value: &[u8]) -> io::Result<()> {
        self.append(0, key, value)
    }

    /// Appends a tombstone.
    pub fn write_tombstone(&mut self, key: Key) -> io::Result<()> {
        self.append(1, key, &[])
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.count
    }

    /// Writes the last frame, seals the footer, flushes, and fsyncs.
    /// Returns the file's [`PartSummary`] (record count, byte sizes, and
    /// the footer CRC that doubles as the file's digest in manifests).
    pub fn finish(mut self) -> io::Result<PartSummary> {
        self.flush_block()?;
        let crc = self.crc.finish();
        let mut footer = [0u8; FOOTER_LEN];
        footer[0..8].copy_from_slice(FOOTER_MAGIC);
        footer[8..16].copy_from_slice(&self.count.to_le_bytes());
        footer[16..20].copy_from_slice(&crc.to_le_bytes());
        self.write_out(&footer)?;
        self.raw_bytes += FOOTER_LEN as u64;
        self.throttle.consume(self.pending_charge);
        self.pending_charge = 0;
        self.out.sync()?;
        Ok(PartSummary {
            records: self.count,
            bytes: self.bytes,
            raw_bytes: self.raw_bytes,
            crc,
        })
    }
}

/// What [`CheckpointWriter::finish`] sealed: the file's record count,
/// byte sizes, and footer CRC. The CRC is the same value stored in the
/// file's own footer, so a manifest can record it as the part's digest
/// without re-reading the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartSummary {
    /// Records + tombstones written.
    pub records: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Size the file would have under codec `none` (each frame's payload
    /// at its raw length); equals `bytes` under `none`. `raw_bytes /
    /// bytes` is the compression ratio.
    pub raw_bytes: u64,
    /// The footer CRC: over the header and every frame head, and so —
    /// through each head's payload CRC — over the whole file.
    pub crc: u32,
}

/// Validated metadata from a checkpoint file's header + footer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileHeader {
    /// Full or partial.
    pub kind: CheckpointKind,
    /// Checkpoint interval id.
    pub id: u64,
    /// Virtual-point-of-consistency watermark: commits with `seq <=
    /// watermark` are reflected, none after. (The watermark is the
    /// sequence of the RESOLVE transition token, so commits strictly
    /// before it are `<` it; `<=` holds because tokens consume sequences.)
    pub watermark: CommitSeq,
    /// Record + tombstone count.
    pub records: u64,
    /// Codec of every frame's payload ([`Codec::None`]: the payload is
    /// the raw record bytes).
    pub codec: Codec,
}

/// Bytes the reader pulls from the file per read: the CRC kernel and the
/// disk both want long runs, and a frame larger than this grows the
/// buffer to fit.
const READ_CHUNK: usize = 1 << 20;

/// Streaming, CRC-validating checkpoint reader.
///
/// The file is read 1 MiB (`READ_CHUNK`) at a time into one buffer the
/// reader owns. Each frame is CRC-checked where it lies in that buffer;
/// under codec `none` records are then decoded in place, so
/// [`CheckpointReader::next_borrowed`] hands out values without copying
/// or allocating. Under a real codec the frame is decompressed into a
/// second buffer and records are borrowed from there.
pub struct CheckpointReader {
    input: Box<dyn VfsRead>,
    header: FileHeader,
    remaining: u64,
    /// The footer CRC as read so far: header and frame heads.
    crc: Crc32,
    expected_crc: u32,
    /// Body bytes (between header and footer) not yet read from `input`.
    unread: u64,
    /// `buf[pos..]` holds the body bytes read but not yet framed.
    buf: Vec<u8>,
    pos: usize,
    /// Decompressed payload of the current frame (empty under `none`).
    block: Vec<u8>,
    /// The unconsumed record bytes of the current frame:
    /// `buf[at..end]` under codec `none`, `block[at..end]` otherwise.
    at: usize,
    end: usize,
}

impl std::fmt::Debug for CheckpointReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointReader")
            .field("header", &self.header)
            .field("remaining", &self.remaining)
            .finish()
    }
}

impl CheckpointReader {
    /// Opens a checkpoint file on the real filesystem.
    pub fn open(path: &Path) -> io::Result<Self> {
        Self::open_with_vfs(&OsVfs, path)
    }

    /// Opens and validates a checkpoint file through an arbitrary
    /// [`Vfs`]: header magic/version/codec, footer magic, and record
    /// count. Frame CRCs are checked as each frame is reached, the footer
    /// CRC when the last record is consumed (or via
    /// [`CheckpointReader::read_all`]).
    pub fn open_with_vfs(vfs: &dyn Vfs, path: &Path) -> io::Result<Self> {
        let len = vfs.len(path)?;
        let mut file = vfs.open_read(path)?;
        if len < (HEADER_LEN + FOOTER_LEN) as u64 {
            return Err(invalid("file too short for header + footer"));
        }
        // Footer first: it is the commit point of the file.
        file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact(&mut footer)?;
        if &footer[..8] != FOOTER_MAGIC {
            return Err(invalid("missing footer (crash during capture?)"));
        }
        let records = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        let expected_crc = u32::from_le_bytes(footer[16..20].try_into().unwrap());

        file.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        if &header[..8] != HEADER_MAGIC {
            return Err(invalid("bad header magic"));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(invalid(&format!("unsupported version {version}")));
        }
        let mut crc = Crc32::new();
        crc.update(&header);
        Ok(CheckpointReader {
            input: file,
            header: FileHeader {
                kind: CheckpointKind::from_byte(header[12])?,
                id: u64::from_le_bytes(header[13..21].try_into().unwrap()),
                watermark: CommitSeq(u64::from_le_bytes(header[21..29].try_into().unwrap())),
                records,
                codec: Codec::from_byte(header[29])?,
            },
            remaining: records,
            crc,
            expected_crc,
            unread: len - (HEADER_LEN + FOOTER_LEN) as u64,
            buf: Vec::new(),
            pos: 0,
            block: Vec::new(),
            at: 0,
            end: 0,
        })
    }

    /// The validated header.
    pub fn header(&self) -> FileHeader {
        self.header
    }

    /// The footer's CRC digest (not yet verified against the body). A
    /// manifest compares this against its recorded per-part digest before
    /// paying for the full [`CheckpointReader::verify`] scan.
    pub fn expected_crc(&self) -> u32 {
        self.expected_crc
    }

    /// Makes `n` contiguous unframed body bytes available at
    /// `buf[pos..]`, reading the file a chunk at a time. The footer
    /// bounds the read, so a corrupt length field fails here instead of
    /// sizing an allocation.
    fn fill(&mut self, n: usize) -> io::Result<()> {
        let have = self.buf.len() - self.pos;
        if have >= n {
            return Ok(());
        }
        if (n - have) as u64 > self.unread {
            return Err(invalid("frame runs past the footer"));
        }
        self.buf.copy_within(self.pos.., 0);
        self.buf.truncate(have);
        self.pos = 0;
        let take = ((n.max(READ_CHUNK) - have) as u64).min(self.unread);
        // One allocation at most, and nothing zeroed: the read lands in
        // the reserved spare capacity.
        self.buf.reserve(take as usize);
        if (&mut self.input).take(take).read_to_end(&mut self.buf)? as u64 != take {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.unread -= take;
        Ok(())
    }

    /// Loads the next frame: its head is folded into the footer CRC, its
    /// payload CRC-checked in the read buffer *before* the codec runs, so
    /// a corrupted frame fails closed here. Under codec `none` the
    /// payload stays where it is and records are read from it in place.
    fn next_frame(&mut self) -> io::Result<()> {
        self.fill(FRAME_HEAD_LEN)?;
        let head: [u8; FRAME_HEAD_LEN] = self.buf[self.pos..self.pos + FRAME_HEAD_LEN]
            .try_into()
            .unwrap();
        self.crc.update(&head);
        self.pos += FRAME_HEAD_LEN;
        let raw_len = u32::from_le_bytes(head[0..4].try_into().unwrap());
        let comp_len = u32::from_le_bytes(head[4..8].try_into().unwrap());
        let frame_crc = u32::from_le_bytes(head[8..12].try_into().unwrap());
        let codec = self.header.codec;
        if raw_len == 0
            || raw_len > FRAME_LEN_LIMIT
            || comp_len == 0
            || comp_len > FRAME_LEN_LIMIT
            || (codec == Codec::None && raw_len != comp_len)
        {
            return Err(invalid("implausible frame head"));
        }
        let len = comp_len as usize;
        self.fill(len)?;
        let payload = &self.buf[self.pos..self.pos + len];
        if crc32(payload) != frame_crc {
            return Err(invalid("frame CRC mismatch"));
        }
        if codec == Codec::None {
            (self.at, self.end) = (self.pos, self.pos + len);
        } else {
            self.block = codec.decompress(payload, raw_len as usize)?;
            (self.at, self.end) = (0, self.block.len());
        }
        self.pos += len;
        Ok(())
    }

    /// The next `n` bytes of the record stream, borrowed from the current
    /// frame (the next one is loaded when it is exhausted — records never
    /// straddle frames, so running off a frame's end mid-record means the
    /// file is corrupt).
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if n > 0 && self.at == self.end {
            self.next_frame()?;
        }
        let start = self.at;
        if self.end - start < n {
            return Err(invalid("record straddles a frame boundary"));
        }
        self.at += n;
        let frame = if self.header.codec == Codec::None {
            &self.buf
        } else {
            &self.block
        };
        Ok(&frame[start..start + n])
    }

    /// Reads the next record without copying its value; `None` at end.
    /// The final call verifies the footer CRC and fails if the file was
    /// corrupted.
    pub fn next_borrowed(&mut self) -> io::Result<Option<RecordRef<'_>>> {
        if self.remaining == 0 {
            if self.at != self.end {
                return Err(invalid("trailing bytes after last record in frame"));
            }
            if self.pos != self.buf.len() || self.unread != 0 {
                return Err(invalid("trailing bytes between last record and footer"));
            }
            if self.crc.finish() != self.expected_crc {
                return Err(invalid("CRC mismatch — corrupted checkpoint file"));
            }
            return Ok(None);
        }
        let head = self.take(RECORD_HEAD_LEN)?;
        let flag = head[0];
        let key = Key(u64::from_le_bytes(head[1..9].try_into().unwrap()));
        let len = u32::from_le_bytes(head[9..13].try_into().unwrap()) as usize;
        self.remaining -= 1;
        match flag {
            1 => Ok(Some(RecordRef::Tombstone(key))),
            0 => Ok(Some(RecordRef::Value(key, self.take(len)?))),
            other => Err(invalid(&format!("bad record flag {other}"))),
        }
    }

    /// [`CheckpointReader::next_borrowed`] with the value copied out.
    pub fn next_record(&mut self) -> io::Result<Option<RecordEntry>> {
        Ok(self.next_borrowed()?.map(|record| match record {
            RecordRef::Value(key, value) => RecordEntry::Value(key, value.into()),
            RecordRef::Tombstone(key) => RecordEntry::Tombstone(key),
        }))
    }

    /// Consumes every record, verifying structure and CRCs without copying
    /// a value: under codec `none` the only allocation is the read buffer
    /// itself. A file whose footer survived but whose body was corrupted
    /// or torn fails here, not at load time.
    pub fn verify(mut self) -> io::Result<FileHeader> {
        while self.next_borrowed()?.is_some() {}
        Ok(self.header)
    }

    /// Reads every record, verifying the CRCs.
    pub fn read_all(mut self) -> io::Result<Vec<RecordEntry>> {
        // The footer's count is not trusted until the CRC holds: it only
        // sizes the first allocation, never an unbounded one.
        let mut out = Vec::with_capacity((self.header.records as usize).min(1 << 16));
        while let Some(e) = self.next_record()? {
            out.push(e);
        }
        Ok(out)
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "calc-file-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn unlimited() -> Arc<Throttle> {
        Arc::new(Throttle::unlimited())
    }

    #[test]
    fn roundtrip_values_and_tombstones() {
        let path = tmpdir().join("rt.part");
        let mut w = CheckpointWriter::create(
            &path,
            CheckpointKind::Partial,
            7,
            CommitSeq(42),
            unlimited(),
        )
        .unwrap();
        w.write_tombstone(Key(100)).unwrap();
        w.write_record(Key(1), b"alpha").unwrap();
        w.write_record(Key(2), b"").unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.records, 3);
        assert!(summary.bytes > 0);

        let r = CheckpointReader::open(&path).unwrap();
        let h = r.header();
        assert_eq!(h.kind, CheckpointKind::Partial);
        assert_eq!(h.id, 7);
        assert_eq!(h.watermark, CommitSeq(42));
        assert_eq!(h.records, 3);
        let entries = r.read_all().unwrap();
        assert_eq!(
            entries,
            vec![
                RecordEntry::Tombstone(Key(100)),
                RecordEntry::Value(Key(1), b"alpha".to_vec().into_boxed_slice()),
                RecordEntry::Value(Key(2), Vec::new().into_boxed_slice()),
            ]
        );
    }

    #[test]
    fn unfinished_file_is_rejected() {
        let path = tmpdir().join("crash.part");
        {
            let mut w = CheckpointWriter::create(
                &path,
                CheckpointKind::Full,
                1,
                CommitSeq(1),
                unlimited(),
            )
            .unwrap();
            w.write_record(Key(1), b"half").unwrap();
            // Dropped without finish(): simulated crash mid-capture.
        }
        let err = CheckpointReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupted_body_fails_crc() {
        let path = tmpdir().join("corrupt.part");
        let mut w =
            CheckpointWriter::create(&path, CheckpointKind::Full, 1, CommitSeq(1), unlimited())
                .unwrap();
        for k in 0..100u64 {
            w.write_record(Key(k), &k.to_le_bytes()).unwrap();
        }
        w.finish().unwrap();
        // Flip a byte in the middle of the body.
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let r = CheckpointReader::open(&path).unwrap();
        let err = r.read_all().unwrap_err();
        assert!(err.to_string().contains("CRC") || err.kind() == io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmpdir().join("trunc.part");
        let mut w =
            CheckpointWriter::create(&path, CheckpointKind::Full, 1, CommitSeq(1), unlimited())
                .unwrap();
        w.write_record(Key(1), &[0u8; 100]).unwrap();
        w.finish().unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 30]).unwrap();
        assert!(CheckpointReader::open(&path).is_err());
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let path = tmpdir().join("empty.part");
        let w = CheckpointWriter::create(
            &path,
            CheckpointKind::Partial,
            3,
            CommitSeq(9),
            unlimited(),
        )
        .unwrap();
        w.finish().unwrap();
        let entries = CheckpointReader::open(&path).unwrap().read_all().unwrap();
        assert!(entries.is_empty());
    }

    /// Writes `n` records through `codec` and reads them back.
    fn codec_roundtrip(name: &str, codec: Codec, n: u64) {
        let path = tmpdir().join(format!("codec-{name}.part"));
        let mut w = CheckpointWriter::create_with_vfs_codec(
            &OsVfs,
            &path,
            CheckpointKind::Partial,
            9,
            CommitSeq(99),
            unlimited(),
            codec,
        )
        .unwrap();
        w.write_tombstone(Key(u64::MAX)).unwrap();
        for k in 0..n {
            let v = vec![(k % 7) as u8; (k as usize % 400) + 1];
            w.write_record(Key(k), &v).unwrap();
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.records, n + 1);
        if codec == Codec::None {
            assert_eq!(summary.raw_bytes, summary.bytes);
        }

        let r = CheckpointReader::open(&path).unwrap();
        assert_eq!(r.header().codec, codec);
        assert_eq!(r.header().records, n + 1);
        let entries = r.read_all().unwrap();
        assert_eq!(entries.len() as u64, n + 1);
        assert_eq!(entries[0], RecordEntry::Tombstone(Key(u64::MAX)));
        for (k, e) in (0..n).zip(&entries[1..]) {
            let expect = vec![(k % 7) as u8; (k as usize % 400) + 1];
            assert_eq!(*e, RecordEntry::Value(Key(k), expect.into_boxed_slice()));
        }
    }

    #[test]
    fn compressed_roundtrip_small_and_multiblock() {
        // 2_000 records × ~200 B average ≫ BLOCK_TARGET: multiple frames.
        codec_roundtrip("rle-small", Codec::Rle, 5);
        codec_roundtrip("rle-multiblock", Codec::Rle, 2_000);
        codec_roundtrip("none-control", Codec::None, 50);
    }

    #[test]
    fn compressed_file_shrinks_repetitive_payloads() {
        let path = tmpdir().join("shrink.part");
        let mut w = CheckpointWriter::create_with_vfs_codec(
            &OsVfs,
            &path,
            CheckpointKind::Full,
            1,
            CommitSeq(1),
            unlimited(),
            Codec::Rle,
        )
        .unwrap();
        for k in 0..1000u64 {
            w.write_record(Key(k), &[0u8; 64]).unwrap();
        }
        let s = w.finish().unwrap();
        assert!(
            s.bytes * 4 < s.raw_bytes,
            "zero payloads compressed poorly: {} vs {} raw",
            s.bytes,
            s.raw_bytes
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), s.bytes);
    }

    #[test]
    fn corrupt_compressed_block_fails_closed() {
        let path = tmpdir().join("corrupt-block.part");
        let mut w = CheckpointWriter::create_with_vfs_codec(
            &OsVfs,
            &path,
            CheckpointKind::Full,
            1,
            CommitSeq(1),
            unlimited(),
            Codec::Rle,
        )
        .unwrap();
        for k in 0..5000u64 {
            w.write_record(Key(k), &k.to_le_bytes()).unwrap();
        }
        w.finish().unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        // Footer survives, so open succeeds; decoding must fail at the
        // corrupted frame (per-frame CRC), not decode garbage.
        let r = CheckpointReader::open(&path).unwrap();
        let err = r.read_all().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_compressed_file_is_rejected() {
        let path = tmpdir().join("trunc-rle.part");
        let mut w = CheckpointWriter::create_with_vfs_codec(
            &OsVfs,
            &path,
            CheckpointKind::Full,
            1,
            CommitSeq(1),
            unlimited(),
            Codec::Rle,
        )
        .unwrap();
        w.write_record(Key(1), &[9u8; 500]).unwrap();
        w.finish().unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 25]).unwrap();
        assert!(CheckpointReader::open(&path).is_err());
    }

    #[test]
    fn empty_compressed_checkpoint_roundtrips() {
        let path = tmpdir().join("empty-rle.part");
        let w = CheckpointWriter::create_with_vfs_codec(
            &OsVfs,
            &path,
            CheckpointKind::Partial,
            3,
            CommitSeq(9),
            unlimited(),
            Codec::Rle,
        )
        .unwrap();
        w.finish().unwrap();
        let r = CheckpointReader::open(&path).unwrap();
        assert_eq!(r.header().codec, Codec::Rle);
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn large_values_roundtrip() {
        let path = tmpdir().join("large.part");
        let mut w =
            CheckpointWriter::create(&path, CheckpointKind::Full, 1, CommitSeq(1), unlimited())
                .unwrap();
        let big = vec![0xAB; 1 << 20];
        w.write_record(Key(1), &big).unwrap();
        w.finish().unwrap();
        let entries = CheckpointReader::open(&path).unwrap().read_all().unwrap();
        match &entries[0] {
            RecordEntry::Value(k, v) => {
                assert_eq!(*k, Key(1));
                assert_eq!(v.len(), 1 << 20);
            }
            _ => panic!("expected value"),
        }
    }
}
