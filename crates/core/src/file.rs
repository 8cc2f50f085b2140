//! The on-disk checkpoint file format.
//!
//! ```text
//! v1 header  "CALCCKPT" | version=1:u32 | kind:u8 | id:u64 | watermark:u64
//! v2 header  "CALCCKPT" | version=2:u32 | kind:u8 | id:u64 | watermark:u64 | codec:u8
//! records    repeated:  flag:u8 (0 value, 1 tombstone) | key:u64 | len:u32 | bytes
//! footer     "CKPTEND." | record_count:u64 | crc32:u32
//! ```
//!
//! All integers little-endian. Version 1 (codec `none`) lays the record
//! stream out directly between header and footer — byte-identical to the
//! pre-compression format, so legacy directories read and write
//! unchanged. Version 2 wraps the same record stream in **framed
//! compressed blocks**: records are buffered to ~[`BLOCK_TARGET`]
//! uncompressed bytes (never splitting a record across blocks) and each
//! block is emitted as
//!
//! ```text
//! frame  raw_len:u32 | comp_len:u32 | crc32(compressed):u32 | compressed bytes
//! ```
//!
//! The footer CRC covers the *physical* bytes (header + frames), so the
//! manifest's per-part digest and the footer-first validity check work
//! identically for both versions; the per-frame CRC additionally localizes
//! corruption to one block and fails decoding closed before the codec
//! sees garbage. A crash mid-capture leaves a file without a valid
//! footer; recovery (§3) detects this via [`CheckpointReader::open`] and
//! discards the file — which is exactly the paper's durability story for
//! failures during checkpointing: the previous checkpoints remain intact
//! because files are published atomically (tmp + rename, handled by
//! [`crate::manifest::CheckpointDir`]).
//!
//! Tombstones appear only in *partial* checkpoints (a record that existed
//! in an earlier checkpoint and was deleted before this one's point of
//! consistency). Within one file, a tombstone precedes any re-insertion of
//! the same key, so sequential replay (last event wins) is correct.

use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use calc_common::crc::Crc32;
use calc_common::types::{CommitSeq, Key, Value};
use calc_common::vfs::{OsVfs, Vfs, VfsFile, VfsRead};

use crate::codec::Codec;
use crate::throttle::Throttle;

const HEADER_MAGIC: &[u8; 8] = b"CALCCKPT";
const FOOTER_MAGIC: &[u8; 8] = b"CKPTEND.";
const VERSION: u32 = 1;
/// File version carrying a codec byte and framed compressed blocks.
const VERSION_COMPRESSED: u32 = 2;
/// header magic + version + kind + id + watermark.
const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8;
/// footer magic + count + crc.
const FOOTER_LEN: usize = 8 + 8 + 4;
/// v2 frame head: raw_len + comp_len + crc32 of the compressed bytes.
const FRAME_HEAD_LEN: usize = 4 + 4 + 4;
/// Target uncompressed bytes per compressed block. A record larger than
/// this gets a block of its own (records never split across blocks).
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
    crc: Crc32,
    count: u64,
    bytes: u64,
    /// Bytes the file would occupy uncompressed (equal to `bytes` under
    /// codec `none`): header + raw record stream + footer.
    raw_bytes: u64,
    codec: Codec,
    /// Uncompressed record bytes buffered for the next frame (v2 only).
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
    finished: bool,
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

    /// Creates a writer at `path` through an arbitrary [`Vfs`] with the
    /// given block codec. [`Codec::None`] writes the version-1 format
    /// byte-identically; any other codec writes version 2 with framed
    /// compressed blocks.
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
            raw_bytes: 0,
            codec,
            block: Vec::new(),
            throttle,
            pending_charge: 0,
            pacer: None,
            pace_stride: 0,
            finished: false,
        };
        let version = if codec == Codec::None {
            VERSION
        } else {
            VERSION_COMPRESSED
        };
        let mut header = Vec::with_capacity(HEADER_LEN + 1);
        header.extend_from_slice(HEADER_MAGIC);
        header.extend_from_slice(&version.to_le_bytes());
        header.push(kind.to_byte());
        header.extend_from_slice(&id.to_le_bytes());
        header.extend_from_slice(&watermark.0.to_le_bytes());
        if codec != Codec::None {
            header.push(codec.to_byte());
        }
        w.write_all_tracked(&header)?;
        w.raw_bytes = header.len() as u64;
        Ok(w)
    }

    fn write_all_tracked(&mut self, buf: &[u8]) -> io::Result<()> {
        self.crc.update(buf);
        self.out.write_all(buf)?;
        self.bytes += buf.len() as u64;
        self.pending_charge += buf.len();
        if self.pending_charge >= CHARGE_CHUNK {
            self.throttle.consume(self.pending_charge);
            self.pending_charge = 0;
        }
        Ok(())
    }

    /// Routes record-stream bytes: straight to disk in v1, into the
    /// pending block in v2. `raw_bytes` counts them either way.
    fn append_record_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.raw_bytes += buf.len() as u64;
        if self.codec == Codec::None {
            self.write_all_tracked(buf)
        } else {
            self.block.extend_from_slice(buf);
            Ok(())
        }
    }

    /// Compresses and frames the pending block (v2 only). Called between
    /// records, so a record never straddles two frames.
    fn flush_block(&mut self) -> io::Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        let raw = std::mem::take(&mut self.block);
        let comp = self.codec.compress(&raw);
        let mut head = [0u8; FRAME_HEAD_LEN];
        head[0..4].copy_from_slice(&(raw.len() as u32).to_le_bytes());
        head[4..8].copy_from_slice(&(comp.len() as u32).to_le_bytes());
        head[8..12].copy_from_slice(&calc_common::crc::crc32(&comp).to_le_bytes());
        self.write_all_tracked(&head)?;
        self.write_all_tracked(&comp)?;
        // Reuse the allocation for the next block.
        self.block = raw;
        self.block.clear();
        Ok(())
    }

    fn maybe_flush_block(&mut self) -> io::Result<()> {
        if self.codec != Codec::None && self.block.len() >= BLOCK_TARGET {
            self.flush_block()?;
        }
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

    /// Appends a record value.
    pub fn write_record(&mut self, key: Key, value: &[u8]) -> io::Result<()> {
        let mut head = [0u8; 13];
        head[0] = 0;
        head[1..9].copy_from_slice(&key.0.to_le_bytes());
        head[9..13].copy_from_slice(&(value.len() as u32).to_le_bytes());
        self.append_record_bytes(&head)?;
        self.append_record_bytes(value)?;
        self.count += 1;
        self.pace();
        self.maybe_flush_block()
    }

    /// Appends a tombstone.
    pub fn write_tombstone(&mut self, key: Key) -> io::Result<()> {
        let mut head = [0u8; 13];
        head[0] = 1;
        head[1..9].copy_from_slice(&key.0.to_le_bytes());
        self.append_record_bytes(&head)?;
        self.count += 1;
        self.pace();
        self.maybe_flush_block()
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.count
    }

    /// Seals the footer, flushes, and fsyncs. Returns the file's
    /// [`PartSummary`] (record count, byte size, and the record-stream
    /// CRC that doubles as the file's digest in multi-part manifests).
    pub fn finish(mut self) -> io::Result<PartSummary> {
        self.flush_block()?;
        let crc = self.crc.finish();
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(FOOTER_MAGIC);
        footer.extend_from_slice(&self.count.to_le_bytes());
        footer.extend_from_slice(&crc.to_le_bytes());
        self.out.write_all(&footer)?;
        self.bytes += footer.len() as u64;
        self.raw_bytes += footer.len() as u64;
        self.pending_charge += footer.len();
        self.throttle.consume(self.pending_charge);
        self.pending_charge = 0;
        self.out.sync()?;
        self.finished = true;
        Ok(PartSummary {
            records: self.count,
            bytes: self.bytes,
            raw_bytes: self.raw_bytes,
            crc,
        })
    }
}

/// What [`CheckpointWriter::finish`] sealed: the file's record count,
/// total bytes (header + records + footer), and record-stream CRC. The
/// CRC is the same value stored in the file's own footer, so a manifest
/// can record it as the part's digest without re-reading the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartSummary {
    /// Records + tombstones written.
    pub records: u64,
    /// Total file size in bytes (compressed size under a real codec).
    pub bytes: u64,
    /// Size the file would have uncompressed; equals `bytes` under codec
    /// `none`. `raw_bytes / bytes` is the compression ratio.
    pub raw_bytes: u64,
    /// CRC32 over the physical record stream (the footer CRC).
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
    /// Block codec the record stream is wrapped in ([`Codec::None`] for
    /// version-1 files).
    pub codec: Codec,
}

/// Bytes the reader pulls from the file per read: the CRC kernel and the
/// disk both want long runs, and a record larger than this grows the
/// buffer to fit.
const READ_CHUNK: usize = 1 << 20;

/// Streaming, CRC-validating checkpoint reader.
///
/// The file is read 1 MiB (`READ_CHUNK`) at a time into one buffer the reader
/// owns; each chunk is folded into the body CRC as it arrives and records
/// are decoded in place, so [`CheckpointReader::next_borrowed`] hands out
/// values without copying or allocating.
pub struct CheckpointReader {
    input: Box<dyn VfsRead>,
    header: FileHeader,
    remaining: u64,
    crc: Crc32,
    expected_crc: u32,
    /// Body bytes (between header and footer) not yet read from `input`.
    unread: u64,
    /// `buf[pos..]` holds the body bytes read and CRC'd but not consumed.
    buf: Vec<u8>,
    pos: usize,
    /// Decompressed bytes of the current block and the read cursor into
    /// it (v2 only; empty under codec `none`).
    block: Vec<u8>,
    block_pos: usize,
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
    /// [`Vfs`]: header magic/version, footer magic, and record count. The
    /// CRC is verified incrementally; it is checked when the last record
    /// is consumed (or via [`CheckpointReader::read_all`]).
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
        if version != VERSION && version != VERSION_COMPRESSED {
            return Err(invalid(&format!("unsupported version {version}")));
        }
        let kind = CheckpointKind::from_byte(header[12])?;
        let id = u64::from_le_bytes(header[13..21].try_into().unwrap());
        let watermark = CommitSeq(u64::from_le_bytes(header[21..29].try_into().unwrap()));

        let mut crc = Crc32::new();
        crc.update(&header);
        let mut unread = len - (HEADER_LEN + FOOTER_LEN) as u64;
        let codec = if version == VERSION_COMPRESSED {
            if unread == 0 {
                return Err(invalid("file too short for the codec byte"));
            }
            unread -= 1;
            let mut codec_byte = [0u8; 1];
            file.read_exact(&mut codec_byte)?;
            crc.update(&codec_byte);
            Codec::from_byte(codec_byte[0])?
        } else {
            Codec::None
        };
        Ok(CheckpointReader {
            input: file,
            header: FileHeader {
                kind,
                id,
                watermark,
                records,
                codec,
            },
            remaining: records,
            crc,
            expected_crc,
            unread,
            buf: Vec::new(),
            pos: 0,
            block: Vec::new(),
            block_pos: 0,
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

    /// Makes `n` contiguous unconsumed body bytes available at
    /// `buf[pos..]`, reading the file a chunk at a time and folding each
    /// chunk into the body CRC in one run. The footer bounds the read, so
    /// a corrupt length field fails here instead of sizing an allocation.
    fn fill(&mut self, n: usize) -> io::Result<()> {
        let have = self.buf.len() - self.pos;
        if have >= n {
            return Ok(());
        }
        if (n - have) as u64 > self.unread {
            return Err(invalid("record runs past the footer"));
        }
        self.buf.copy_within(self.pos.., 0);
        self.pos = 0;
        let take = ((n.max(READ_CHUNK) - have) as u64).min(self.unread) as usize;
        self.buf.resize(have + take, 0);
        self.input.read_exact(&mut self.buf[have..])?;
        self.crc.update(&self.buf[have..]);
        self.unread -= take as u64;
        Ok(())
    }

    /// Loads and validates the next compressed frame into `self.block`
    /// (v2 only). The per-frame CRC is checked *before* the codec runs,
    /// so a corrupted block fails closed here.
    fn fill_block(&mut self) -> io::Result<()> {
        self.fill(FRAME_HEAD_LEN)?;
        let head = &self.buf[self.pos..self.pos + FRAME_HEAD_LEN];
        let raw_len = u32::from_le_bytes(head[0..4].try_into().unwrap());
        let comp_len = u32::from_le_bytes(head[4..8].try_into().unwrap());
        let block_crc = u32::from_le_bytes(head[8..12].try_into().unwrap());
        self.pos += FRAME_HEAD_LEN;
        if raw_len == 0 || raw_len > FRAME_LEN_LIMIT || comp_len == 0 || comp_len > FRAME_LEN_LIMIT
        {
            return Err(invalid("implausible compressed frame head"));
        }
        self.fill(comp_len as usize)?;
        let comp = &self.buf[self.pos..self.pos + comp_len as usize];
        if calc_common::crc::crc32(comp) != block_crc {
            return Err(invalid("compressed block CRC mismatch"));
        }
        self.block = self.header.codec.decompress(comp, raw_len as usize)?;
        self.pos += comp_len as usize;
        self.block_pos = 0;
        Ok(())
    }

    /// The next `n` bytes of the record stream, borrowed: straight from
    /// the read buffer under codec `none`, from the current decompressed
    /// block otherwise (refilled from the next frame when exhausted —
    /// records never straddle frames, so a refill mid-record means the
    /// file is corrupt).
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        if self.header.codec == Codec::None {
            self.fill(n)?;
            self.pos += n;
            return Ok(&self.buf[self.pos - n..self.pos]);
        }
        if n > 0 && self.block_pos == self.block.len() {
            self.fill_block()?;
        }
        let end = self.block_pos + n;
        if end > self.block.len() {
            return Err(invalid("record straddles a compressed block boundary"));
        }
        self.block_pos = end;
        Ok(&self.block[end - n..end])
    }

    /// Reads the next record without copying its value; `None` at end.
    /// The final call verifies the CRC and fails if the body was
    /// corrupted.
    pub fn next_borrowed(&mut self) -> io::Result<Option<RecordRef<'_>>> {
        if self.remaining == 0 {
            if self.block_pos != self.block.len() {
                return Err(invalid("trailing bytes after last record in block"));
            }
            if self.pos != self.buf.len() || self.unread != 0 {
                return Err(invalid("trailing bytes between last record and footer"));
            }
            if self.crc.finish() != self.expected_crc {
                return Err(invalid("CRC mismatch — corrupted checkpoint body"));
            }
            return Ok(None);
        }
        let head = self.take(13)?;
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

    /// Consumes every record, verifying structure and CRC without copying
    /// a value: under codec `none` the only allocation is the read buffer
    /// itself. A file whose footer survived but whose body was corrupted
    /// or torn fails here, not at load time.
    pub fn verify(mut self) -> io::Result<FileHeader> {
        while self.next_borrowed()?.is_some() {}
        Ok(self.header)
    }

    /// Reads every record, verifying the CRC.
    pub fn read_all(mut self) -> io::Result<Vec<RecordEntry>> {
        let mut out = Vec::with_capacity(self.header.records as usize);
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
    fn codec_none_stays_byte_identical_v1() {
        let a = tmpdir().join("v1-default.part");
        let b = tmpdir().join("v1-explicit.part");
        for path in [&a, &b] {
            let mut w = if path == &a {
                CheckpointWriter::create(path, CheckpointKind::Full, 4, CommitSeq(8), unlimited())
                    .unwrap()
            } else {
                CheckpointWriter::create_with_vfs_codec(
                    &OsVfs,
                    path,
                    CheckpointKind::Full,
                    4,
                    CommitSeq(8),
                    unlimited(),
                    Codec::None,
                )
                .unwrap()
            };
            w.write_record(Key(1), b"value").unwrap();
            w.finish().unwrap();
        }
        let bytes_a = std::fs::read(&a).unwrap();
        assert_eq!(bytes_a, std::fs::read(&b).unwrap());
        assert_eq!(
            u32::from_le_bytes(bytes_a[8..12].try_into().unwrap()),
            VERSION,
            "codec none must keep writing version-1 files"
        );
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
        let path = tmpdir().join("trunc-v2.part");
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
        let path = tmpdir().join("empty-v2.part");
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
