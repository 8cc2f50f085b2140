//! The durable, append-only, segmented command log.
//!
//! The paper's recovery story (§1, §3) builds on VoltDB-style command
//! logging: persist each transaction's *input* `(commit seq, procedure,
//! parameters)` — far lighter than ARIES-style value logging — and replay
//! it deterministically after loading a checkpoint. This module provides
//! the on-disk format: a directory of `cmdlog-{i:06}.log` segment files,
//! each a sequence of
//!
//! ```text
//! record: len:u32 | crc32:u32 | seq:u64 | txn:u64 | proc:u16 | params…
//! ```
//!
//! Each record is individually CRC-protected, so a torn tail (crash
//! mid-append) is detected and cleanly truncated at read time. The writer
//! offers group-commit flushing: `append` buffers, `sync` makes everything
//! appended so far durable — callers batch syncs to amortize the fsync
//! cost, which is the command-logging trade the paper describes.
//!
//! [`SegmentedLogWriter`] rotates to the next segment at a size threshold,
//! so the log can be truncated while the engine runs: once a durable
//! checkpoint's watermark covers every commit in a sealed segment,
//! [`truncate_segments_below`] deletes it. [`read_dir_logs`] walks the
//! surviving segments in index order; the first torn or corrupt record
//! anywhere ends the scan, because nothing after it can be trusted for
//! replay ordering. Any other file in the directory is inert.

use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use calc_common::crc::crc32;
use calc_common::vfs::{Vfs, VfsFile};
use calc_common::types::{CommitSeq, TxnId};
use calc_txn::commitlog::CommitRecord;
use calc_txn::proc::ProcId;

/// Appending side of one segment file.
struct CommandLogWriter {
    out: Box<dyn VfsFile>,
}

impl CommandLogWriter {
    /// Creates (or truncates) a segment file at `path`.
    ///
    /// The new (empty) file is fsynced and so is its parent directory
    /// before this returns: the segment's *name* must be durable before
    /// the first commit in it is acknowledged, or a crash could lose the
    /// entire file while the engine believes synced batches are safe.
    fn create_with_vfs(vfs: &dyn Vfs, path: &Path) -> io::Result<Self> {
        let mut file = vfs.create(path)?;
        file.sync()?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                vfs.sync_dir(parent)?;
            }
        }
        Ok(CommandLogWriter { out: file })
    }

    /// Appends one commit record (buffered; call [`Self::sync`] for
    /// durability).
    fn append(&mut self, rec: &CommitRecord) -> io::Result<()> {
        let mut body = Vec::with_capacity(18 + rec.params.len());
        body.extend_from_slice(&rec.seq.0.to_le_bytes());
        body.extend_from_slice(&rec.txn.0.to_le_bytes());
        body.extend_from_slice(&rec.proc.0.to_le_bytes());
        body.extend_from_slice(&rec.params);
        self.out.write_all(&(body.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(&body).to_le_bytes())?;
        self.out.write_all(&body)?;
        Ok(())
    }

    /// Group commit: flushes buffered records and fsyncs.
    fn sync(&mut self) -> io::Result<()> {
        self.out.sync()
    }
}

/// Name of command-log segment `i`.
pub fn segment_file_name(i: u64) -> String {
    format!("cmdlog-{i:06}.log")
}

/// Parses `cmdlog-{i:06}.log`.
fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("cmdlog-")?;
    let idx = rest.strip_suffix(".log")?;
    if idx.len() != 6 {
        return None;
    }
    idx.parse().ok()
}

/// Lists a directory's command-log segments, ascending by index.
pub fn list_segments(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for path in vfs.read_dir(dir)? {
        let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
            continue;
        };
        if let Some(i) = parse_segment_name(&name) {
            out.push((i, path));
        }
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    Ok(out)
}

/// A command-log writer that rotates across `cmdlog-{i:06}.log` segment
/// files at a size threshold, so sealed segments can later be deleted by
/// [`truncate_segments_below`] once a durable checkpoint covers them.
///
/// Rotation seals the old segment with an fsync *before* the new one is
/// created, so every non-active segment on disk is either complete or
/// evidence of a crash; a record never splits across segments.
pub struct SegmentedLogWriter {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    segment_bytes: u64,
    seg_index: u64,
    seg_written: u64,
    inner: CommandLogWriter,
    appended: u64,
    rotations: u64,
}

impl SegmentedLogWriter {
    /// Creates a segmented log in `dir` (created if needed), rotating
    /// once the active segment reaches `segment_bytes` (clamped to at
    /// least 512 B — tiny thresholds are only useful to tests and the
    /// crash simulator). Existing segments are left untouched — the writer
    /// starts a fresh segment above the highest surviving index, never
    /// appending to a file whose tail it did not write.
    pub fn create(vfs: Arc<dyn Vfs>, dir: &Path, segment_bytes: u64) -> io::Result<Self> {
        vfs.create_dir_all(dir)?;
        let next = list_segments(vfs.as_ref(), dir)?
            .last()
            .map(|&(i, _)| i + 1)
            .unwrap_or(0);
        let segment_bytes = segment_bytes.max(512);
        let inner =
            CommandLogWriter::create_with_vfs(vfs.as_ref(), &dir.join(segment_file_name(next)))?;
        Ok(SegmentedLogWriter {
            vfs,
            dir: dir.to_path_buf(),
            segment_bytes,
            seg_index: next,
            seg_written: 0,
            inner,
            appended: 0,
            rotations: 0,
        })
    }

    /// Appends one commit record, rotating first if the active segment is
    /// full (so a record never splits across segments). Buffered; call
    /// [`Self::sync`] for durability.
    pub fn append(&mut self, rec: &CommitRecord) -> io::Result<()> {
        if self.seg_written >= self.segment_bytes {
            self.rotate()?;
        }
        self.inner.append(rec)?;
        self.seg_written += 8 + 18 + rec.params.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Seals the active segment (fsync) and opens the next one. The old
    /// segment's bytes are durable before the new name exists, so a crash
    /// between the two leaves at worst an empty newest segment.
    fn rotate(&mut self) -> io::Result<()> {
        self.inner.sync()?;
        self.seg_index += 1;
        self.inner = CommandLogWriter::create_with_vfs(
            self.vfs.as_ref(),
            &self.dir.join(segment_file_name(self.seg_index)),
        )?;
        self.seg_written = 0;
        self.rotations += 1;
        Ok(())
    }

    /// Group commit: flushes and fsyncs the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    /// Records appended across all segments.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Index of the active segment.
    pub fn active_index(&self) -> u64 {
        self.seg_index
    }

    /// Segment rotations performed since creation.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// The directory the segments live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Reads every valid record across a directory's segments in index
/// order. The first torn or corrupt record anywhere ends the scan —
/// later segments hold later commits, and replay must not skip a gap.
pub fn read_dir_logs(vfs: &dyn Vfs, dir: &Path) -> io::Result<Vec<CommitRecord>> {
    let mut out = Vec::new();
    let mut body = Vec::new();
    for (_, path) in list_segments(vfs, dir)? {
        let mut input = BufReader::with_capacity(1 << 20, vfs.open_read(&path)?);
        loop {
            match read_one_outcome(&mut input, &mut body)? {
                ReadOutcome::Record(rec) => out.push(rec),
                ReadOutcome::CleanEof => break,
                ReadOutcome::Torn => return Ok(out),
            }
        }
    }
    Ok(out)
}

/// Outcome of one [`truncate_segments_below`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TruncateStats {
    /// Segments deleted.
    pub removed: u64,
    /// Bytes those segments occupied on disk.
    pub bytes: u64,
}

/// Deletes sealed command-log segments whose every commit is covered by a
/// durable checkpoint at `watermark`. A segment is removed only if **all**
/// of the following hold, checked per segment in index order (stopping at
/// the first survivor, since later segments hold later commits):
///
/// * it is not the highest-index (active) segment — the writer may still
///   be appending to it;
/// * it scans cleanly end to end — a torn segment is evidence of a crash
///   and is left for recovery to judge;
/// * its newest record's seq is `<= watermark` (an empty sealed segment
///   contains nothing to lose and is removed).
///
/// The deletions are made durable with a directory fsync before
/// returning, so a crash cannot resurrect a half-truncated state that
/// recovery would misread as a gap.
pub fn truncate_segments_below(
    vfs: &dyn Vfs,
    dir: &Path,
    watermark: CommitSeq,
) -> io::Result<TruncateStats> {
    let segments = list_segments(vfs, dir)?;
    let Some(active) = segments.last().map(|&(i, _)| i) else {
        return Ok(TruncateStats::default());
    };
    let mut stats = TruncateStats::default();
    let mut body = Vec::new();
    for (i, path) in &segments {
        if *i == active {
            break;
        }
        let mut input = BufReader::with_capacity(1 << 20, vfs.open_read(path)?);
        let mut last_seq = None;
        let clean = loop {
            match read_one_outcome(&mut input, &mut body)? {
                ReadOutcome::Record(rec) => last_seq = Some(rec.seq),
                ReadOutcome::CleanEof => break true,
                ReadOutcome::Torn => break false,
            }
        };
        if !clean || last_seq.is_some_and(|s| s > watermark) {
            break;
        }
        let bytes = vfs.len(path).unwrap_or(0);
        vfs.remove_file(path)?;
        stats.removed += 1;
        stats.bytes += bytes;
    }
    if stats.removed > 0 {
        vfs.sync_dir(dir)?;
    }
    Ok(stats)
}

/// What decoding the next record produced. Multi-segment readers need to
/// tell a cleanly-ended segment (continue with the next one) from a torn
/// or corrupt record (stop the whole scan).
pub(crate) enum ReadOutcome {
    Record(CommitRecord),
    CleanEof,
    /// Torn tail or corrupt record — the rest of the log is untrusted.
    Torn,
}

/// Decodes the next record from `input`; `Err` only on real I/O failure.
/// `body` is the caller's scratch buffer, reused from record to record:
/// the record is read into it, CRC'd in one run, and only the parameters
/// are copied out.
pub(crate) fn read_one_outcome(input: &mut impl Read, body: &mut Vec<u8>) -> io::Result<ReadOutcome> {
    let mut head = [0u8; 8];
    match read_exact_or_eof(input, &mut head)? {
        Filled::Full => {}
        Filled::Empty => return Ok(ReadOutcome::CleanEof),
        Filled::Partial => return Ok(ReadOutcome::Torn),
    }
    let len = u32::from_le_bytes(head[0..4].try_into().unwrap()) as usize;
    let expected_crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if !(18..=(1 << 30)).contains(&len) {
        return Ok(ReadOutcome::Torn); // implausible: torn write
    }
    // Bounded by what the file holds, not by `len`: a torn head must not
    // size the buffer.
    body.clear();
    if input.by_ref().take(len as u64).read_to_end(body)? < len {
        return Ok(ReadOutcome::Torn);
    }
    if crc32(body) != expected_crc {
        return Ok(ReadOutcome::Torn);
    }
    Ok(ReadOutcome::Record(CommitRecord {
        seq: CommitSeq(u64::from_le_bytes(body[0..8].try_into().unwrap())),
        txn: TxnId(u64::from_le_bytes(body[8..16].try_into().unwrap())),
        proc: ProcId(u16::from_le_bytes(body[16..18].try_into().unwrap())),
        params: Arc::from(&body[18..]),
    }))
}

enum Filled {
    Full,
    /// EOF before the first byte — a record boundary.
    Empty,
    /// EOF mid-buffer — a torn write.
    Partial,
}

fn read_exact_or_eof(input: &mut impl Read, buf: &mut [u8]) -> io::Result<Filled> {
    let mut at = 0;
    while at < buf.len() {
        match input.read(&mut buf[at..]) {
            Ok(0) => {
                return Ok(if at == 0 { Filled::Empty } else { Filled::Partial });
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Filled::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_common::vfs::OsVfs;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "calc-logfile-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ))
    }

    fn rec(seq: u64, params: &[u8]) -> CommitRecord {
        CommitRecord {
            seq: CommitSeq(seq),
            txn: TxnId(seq * 10),
            proc: ProcId(3),
            params: Arc::from(params.to_vec().into_boxed_slice()),
        }
    }

    /// Writes `recs` into a fresh log that never rotates; returns the
    /// directory and its single segment file.
    fn one_segment(name: &str, recs: &[CommitRecord]) -> (PathBuf, PathBuf) {
        let dir = tmpdir(name);
        let mut w = SegmentedLogWriter::create(Arc::new(OsVfs), &dir, 64 << 20).unwrap();
        for r in recs {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.appended(), recs.len() as u64);
        assert_eq!(w.rotations(), 0);
        let seg = dir.join(segment_file_name(0));
        (dir, seg)
    }

    #[test]
    fn roundtrip() {
        let recs: Vec<_> = (1..=100u64).map(|i| rec(i, &i.to_le_bytes())).collect();
        let (dir, _) = one_segment("rt", &recs);
        let records = read_dir_logs(&OsVfs, &dir).unwrap();
        assert_eq!(records.len(), 100);
        assert_eq!(records[41].seq, CommitSeq(42));
        assert_eq!(records[41].txn, TxnId(420));
        assert_eq!(&records[41].params[..], &42u64.to_le_bytes());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let recs: Vec<_> = (1..=10u64).map(|i| rec(i, b"payload")).collect();
        let (dir, seg) = one_segment("torn", &recs);
        // Tear the last record.
        let data = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &data[..data.len() - 5]).unwrap();
        let records = read_dir_logs(&OsVfs, &dir).unwrap();
        assert_eq!(records.len(), 9, "torn tail dropped, prefix intact");
    }

    #[test]
    fn corrupt_record_stops_scan() {
        let recs: Vec<_> = (1..=10u64).map(|i| rec(i, b"payload-payload")).collect();
        let (dir, seg) = one_segment("corrupt", &recs);
        let mut data = std::fs::read(&seg).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&seg, &data).unwrap();
        assert!(read_dir_logs(&OsVfs, &dir).unwrap().len() < 10);
    }

    /// A segment as the one-table CRC build (commit 5442021) wrote it. The
    /// per-record CRC is a format contract: these bytes must decode in
    /// full under every build.
    #[test]
    fn golden_segment_still_decodes() {
        const GOLDEN_SEGMENT: [u8; 122] = [
            0x19, 0x00, 0x00, 0x00, 0xb0, 0x84, 0x7e, 0x3f, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x73, 0x65,
            0x74, 0x20, 0x6b, 0x3d, 0x31, 0x12, 0x00, 0x00, 0x00, 0xde, 0xe7, 0xbc, 0x7e, 0x02,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x02, 0x00, 0x37, 0x00, 0x00, 0x00, 0xfd, 0x15, 0xb4, 0x15, 0x05, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
            0x00, 0x61, 0x20, 0x6c, 0x6f, 0x6e, 0x67, 0x65, 0x72, 0x20, 0x70, 0x61, 0x72, 0x61,
            0x6d, 0x65, 0x74, 0x65, 0x72, 0x20, 0x62, 0x6c, 0x6f, 0x62, 0x2c, 0x20, 0x33, 0x37,
            0x20, 0x62, 0x79, 0x74, 0x65, 0x73, 0x2e, 0x2e, 0x2e, 0x2e,
        ];
        let dir = tmpdir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_file_name(0)), GOLDEN_SEGMENT).unwrap();
        let records = read_dir_logs(&OsVfs, &dir).unwrap();
        let got: Vec<(u64, u64, u16, &[u8])> = records
            .iter()
            .map(|r| (r.seq.0, r.txn.0, r.proc.0, &r.params[..]))
            .collect();
        assert_eq!(
            got,
            vec![
                (1, 10, 1, &b"set k=1"[..]),
                (2, 20, 2, &b""[..]),
                (5, 50, 5, &b"a longer parameter blob, 37 bytes...."[..]),
            ]
        );
    }

    #[test]
    fn empty_log_reads_empty() {
        let (dir, _) = one_segment("empty", &[]);
        assert!(read_dir_logs(&OsVfs, &dir).unwrap().is_empty());
    }

    #[test]
    fn empty_params_roundtrip() {
        let (dir, _) = one_segment("noparams", &[rec(1, b"")]);
        let records = read_dir_logs(&OsVfs, &dir).unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].params.is_empty());
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = tmp(name);
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Writes `n` records of `params_len`-byte payloads into a segmented
    /// log with the given threshold; returns the directory.
    fn seg_log(name: &str, n: u64, segment_bytes: u64) -> std::path::PathBuf {
        let dir = tmpdir(name);
        let mut w = SegmentedLogWriter::create(Arc::new(OsVfs), &dir, segment_bytes).unwrap();
        for i in 1..=n {
            w.append(&rec(i, &[7u8; 100])).unwrap();
        }
        w.sync().unwrap();
        dir
    }

    #[test]
    fn segmented_writer_rotates_and_reads_back_in_order() {
        // 100 records × 126 bytes ≫ 4 KiB: several segments.
        let dir = seg_log("seg-rt", 100, 4 << 10);
        let segs = list_segments(&OsVfs, &dir).unwrap();
        assert!(segs.len() > 1, "expected rotation, got {} segment", segs.len());
        assert_eq!(segs[0].0, 0);
        let records = read_dir_logs(&OsVfs, &dir).unwrap();
        assert_eq!(records.len(), 100);
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn segmented_writer_resumes_above_surviving_segments() {
        let dir = seg_log("seg-resume", 50, 4 << 10);
        let before = list_segments(&OsVfs, &dir).unwrap();
        let top = before.last().unwrap().0;
        // Restart: a new writer must not append to the old tail.
        let mut w = SegmentedLogWriter::create(Arc::new(OsVfs), &dir, 4 << 10).unwrap();
        assert_eq!(w.active_index(), top + 1);
        w.append(&rec(51, b"after-restart")).unwrap();
        w.sync().unwrap();
        let records = read_dir_logs(&OsVfs, &dir).unwrap();
        assert_eq!(records.len(), 51);
        assert_eq!(records.last().unwrap().seq, CommitSeq(51));
    }

    #[test]
    fn torn_record_in_middle_segment_stops_the_whole_scan() {
        let dir = seg_log("seg-torn", 100, 4 << 10);
        let segs = list_segments(&OsVfs, &dir).unwrap();
        assert!(segs.len() >= 3);
        // Tear the tail of the second segment: everything from there on is
        // untrusted, including later (intact) segments.
        let victim = &segs[1].1;
        let data = std::fs::read(victim).unwrap();
        std::fs::write(victim, &data[..data.len() - 5]).unwrap();
        let first_seg = read_dir_logs(&OsVfs, &dir)
            .unwrap()
            .len();
        let full: usize = 100;
        assert!(first_seg < full, "scan must stop inside segment 1");
    }

    #[test]
    fn truncate_removes_only_covered_sealed_segments() {
        let dir = seg_log("seg-trunc", 100, 4 << 10);
        let segs = list_segments(&OsVfs, &dir).unwrap();
        let active = segs.last().unwrap().0;
        // Watermark covering everything: every sealed segment goes, the
        // active one stays.
        let stats = truncate_segments_below(&OsVfs, &dir, CommitSeq(100)).unwrap();
        assert_eq!(stats.removed, active);
        assert!(stats.bytes > 0);
        let left = list_segments(&OsVfs, &dir).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, active);
        // Surviving records still replayable.
        let records = read_dir_logs(&OsVfs, &dir).unwrap();
        assert!(records.iter().all(|r| r.seq <= CommitSeq(100)));
    }

    #[test]
    fn truncate_refuses_segments_with_commits_above_the_watermark() {
        let dir = seg_log("seg-trunc-refuse", 100, 4 << 10);
        // Find the first segment's last seq; truncate with a watermark one
        // below it — nothing may be removed.
        let segs = list_segments(&OsVfs, &dir).unwrap();
        let first_last = {
            let mut input =
                BufReader::with_capacity(1 << 20, OsVfs.open_read(&segs[0].1).unwrap());
            let mut last = 0;
            let mut body = Vec::new();
            while let ReadOutcome::Record(r) = read_one_outcome(&mut input, &mut body).unwrap() {
                last = r.seq.0;
            }
            last
        };
        let stats =
            truncate_segments_below(&OsVfs, &dir, CommitSeq(first_last - 1)).unwrap();
        assert_eq!(stats, TruncateStats::default());
        assert_eq!(list_segments(&OsVfs, &dir).unwrap().len(), segs.len());
        // With the watermark exactly at the boundary, exactly one goes.
        let stats = truncate_segments_below(&OsVfs, &dir, CommitSeq(first_last)).unwrap();
        assert_eq!(stats.removed, 1);
    }

    #[test]
    fn truncate_never_removes_the_active_segment() {
        let dir = tmpdir("seg-trunc-active");
        let mut w = SegmentedLogWriter::create(Arc::new(OsVfs), &dir, 4 << 10).unwrap();
        w.append(&rec(1, b"only")).unwrap();
        w.sync().unwrap();
        let stats = truncate_segments_below(&OsVfs, &dir, CommitSeq(u64::MAX)).unwrap();
        assert_eq!(stats.removed, 0);
        assert_eq!(read_dir_logs(&OsVfs, &dir).unwrap().len(), 1);
    }

    #[test]
    fn truncate_leaves_torn_segments_for_recovery() {
        let dir = seg_log("seg-trunc-torn", 100, 4 << 10);
        let segs = list_segments(&OsVfs, &dir).unwrap();
        let victim = &segs[0].1;
        let data = std::fs::read(victim).unwrap();
        std::fs::write(victim, &data[..data.len() - 5]).unwrap();
        // Even an all-covering watermark must not delete the torn segment
        // (or anything after it).
        let stats = truncate_segments_below(&OsVfs, &dir, CommitSeq(u64::MAX)).unwrap();
        assert_eq!(stats.removed, 0);
        assert_eq!(list_segments(&OsVfs, &dir).unwrap().len(), segs.len());
    }
}
