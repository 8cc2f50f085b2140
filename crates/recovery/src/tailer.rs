//! Incremental command-log tailing for warm standbys.
//!
//! [`read_dir_logs`](crate::read_dir_logs) reads a log directory exactly
//! once, at startup. A warm standby instead follows a
//! *live* primary's segment directory: new records are appended behind
//! its back, segments rotate, retention deletes sealed segments, and the
//! newest segment routinely ends mid-record because an append is in
//! flight. [`LogTailer`] generalizes the one-shot scan into a polling
//! cursor that tolerates all of that:
//!
//! * **In-flight rotation.** The writer seals (fsyncs) segment `i`
//!   *before* creating `i+1`, so once a higher-indexed segment is listed,
//!   every lower segment is complete. The cursor advances across a clean
//!   EOF whenever a higher segment exists.
//! * **Torn tails.** A torn or implausible record in the *highest* listed
//!   segment is an append in flight, not corruption: the cursor stays at
//!   the last trusted byte offset and the poll reports
//!   [`TailStatus::CaughtUp`] with the untrusted bytes as
//!   `pending_bytes`; the next poll re-reads from the trusted offset. A
//!   torn record in a *sealed* segment (a higher index exists) is the
//!   same permanent trust boundary `read_dir_logs` stops at — the tailer
//!   reports [`TailStatus::Wedged`] and refuses to skip past it. A crash
//!   does not leave one: a restarted writer cuts the torn tail off before
//!   it opens the higher segment.
//! * **Retention truncation.** If the cursor's segment disappears while
//!   newer segments survive, retention truncated below a checkpoint
//!   watermark the tailer had not reached. The poll reports
//!   [`TailStatus::LostPrefix`]; the caller re-bootstraps its state from
//!   the covering checkpoint, and the tailer re-anchors itself to the
//!   smallest surviving segment on the next poll.
//!
//! The tailer never does seq arithmetic to detect gaps — engine commit
//! seqs are not dense (checkpoint phase transitions consume seqs), so
//! the only trustworthy signals are segment names and byte offsets.

use std::io::{self, BufReader, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::Arc;

use calc_common::vfs::Vfs;
use calc_txn::commitlog::CommitRecord;

use crate::logfile::{list_segments, read_one_outcome, record_bytes, ReadOutcome};

/// How a [`LogTailer::poll`] left the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// Every trusted byte currently on disk has been applied. A non-zero
    /// `pending_bytes` means the newest segment ends in an in-flight
    /// (torn) append that the next poll will re-read.
    CaughtUp,
    /// The cursor's segment was deleted while newer segments survive:
    /// retention truncated commits the tailer never applied. Re-bootstrap
    /// from the covering checkpoint; the tailer re-anchors to the
    /// smallest surviving segment on the next poll.
    LostPrefix,
    /// A torn or corrupt record inside a *sealed* segment — the same
    /// permanent trust boundary `read_dir_logs` stops at. The tailer
    /// refuses to skip records and every future poll returns `Wedged`.
    Wedged,
}

/// Result of one [`LogTailer::poll`].
#[derive(Debug, Clone, Copy)]
pub struct TailPoll {
    /// Records decoded and handed to the sink by this poll.
    pub applied: u64,
    /// Bytes on disk beyond the last trusted record (an in-flight append
    /// for `CaughtUp`, the untrusted remainder for `Wedged`).
    pub pending_bytes: u64,
    /// Cursor state after the poll.
    pub status: TailStatus,
}

/// A polling cursor over a live segmented command-log directory.
pub struct LogTailer {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// Segment index the cursor points into. Meaningful only when
    /// `anchored`.
    seg: u64,
    /// Byte offset just past the last fully-decoded record of `seg`.
    offset: u64,
    /// False until the cursor has attached to a real segment (fresh
    /// tailer, or after a `LostPrefix`): the next poll anchors to the
    /// smallest listed segment.
    anchored: bool,
    wedged: bool,
}

impl LogTailer {
    /// Creates a tailer over `dir`. The cursor anchors to the smallest
    /// existing segment on the first poll (segments already truncated by
    /// retention are covered by the checkpoint the caller bootstrapped
    /// from, not by the log).
    pub fn new(vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>) -> Self {
        LogTailer {
            vfs,
            dir: dir.into(),
            seg: 0,
            offset: 0,
            anchored: false,
            wedged: false,
        }
    }

    /// Cursor position as `(segment index, trusted byte offset)`, or
    /// `None` while unanchored.
    pub fn cursor(&self) -> Option<(u64, u64)> {
        self.anchored.then_some((self.seg, self.offset))
    }

    /// Whether a sealed-segment tear has permanently wedged the tailer.
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// Bytes on disk beyond the cursor — a cheap lag estimate taken
    /// without decoding anything. Unanchored tailers count the whole
    /// directory.
    pub fn lag_bytes(&self) -> io::Result<u64> {
        let segments = list_segments(self.vfs.as_ref(), &self.dir)?;
        let mut behind = 0u64;
        for (i, path) in &segments {
            let len = self.vfs.len(path)?;
            if !self.anchored || *i > self.seg {
                behind += len;
            } else if *i == self.seg {
                behind += len.saturating_sub(self.offset);
            }
        }
        Ok(behind)
    }

    /// Reads every trusted record past the cursor, invoking `sink` on
    /// each in commit order and advancing the cursor over it. An `Err`
    /// from the sink aborts the poll *without* advancing past that
    /// record, so a retried poll re-delivers it.
    pub fn poll(
        &mut self,
        sink: &mut dyn FnMut(&CommitRecord) -> io::Result<()>,
    ) -> io::Result<TailPoll> {
        if self.wedged {
            return Ok(TailPoll {
                applied: 0,
                pending_bytes: self.lag_bytes().unwrap_or(0),
                status: TailStatus::Wedged,
            });
        }
        let segments = list_segments(self.vfs.as_ref(), &self.dir)?;
        if segments.is_empty() {
            if self.anchored {
                // Everything the cursor knew about is gone.
                self.anchored = false;
                return Ok(self.lost_prefix());
            }
            return Ok(TailPoll {
                applied: 0,
                pending_bytes: 0,
                status: TailStatus::CaughtUp,
            });
        }
        if !self.anchored {
            self.seg = segments[0].0;
            self.offset = 0;
            self.anchored = true;
        }
        let Some(mut idx) = segments.iter().position(|&(i, _)| i == self.seg) else {
            // The cursor's segment vanished. Surviving indices are always
            // contiguous (truncation removes lowest-first and a restarted
            // writer starts above the highest survivor), so whether newer
            // segments exist or the cursor somehow ran past the top, the
            // prefix between the cursor and the survivors is gone.
            self.anchored = false;
            return Ok(self.lost_prefix());
        };
        let mut applied = 0u64;
        'segments: loop {
            let (_, path) = &segments[idx];
            let mut file = match self.vfs.open_read(path) {
                Ok(f) => f,
                // Deleted by retention between our listing and this open
                // (a live primary truncates concurrently with our reads):
                // same lost-prefix as a pre-listing deletion, not an error.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    self.anchored = false;
                    return Ok(self.lost_prefix_with(applied));
                }
                Err(e) => return Err(e),
            };
            file.seek(SeekFrom::Start(self.offset))?;
            let mut input = BufReader::with_capacity(64 << 10, file);
            let mut body = Vec::new();
            loop {
                match read_one_outcome(&mut input, &mut body)? {
                    ReadOutcome::Record(rec) => {
                        sink(&rec)?;
                        self.offset += record_bytes(&rec);
                        applied += 1;
                    }
                    ReadOutcome::CleanEof => {
                        if idx + 1 < segments.len() {
                            // Rotation seals (fsyncs) a segment before
                            // creating its successor: a higher listed
                            // index proves this one is complete.
                            idx += 1;
                            // Seeded bug for the restart oracles'
                            // self-test: the cursor jumps over the next
                            // segment whenever that one is sealed too.
                            #[cfg(feature = "mutation-hooks")]
                            if idx + 1 < segments.len()
                                && calc_common::mutation::armed(
                                    calc_common::mutation::Mutation::SkipTailSegment,
                                )
                            {
                                idx += 1;
                            }
                            self.seg = segments[idx].0;
                            self.offset = 0;
                            continue 'segments;
                        }
                        return Ok(TailPoll {
                            applied,
                            pending_bytes: 0,
                            status: TailStatus::CaughtUp,
                        });
                    }
                    ReadOutcome::Torn => {
                        if idx + 1 < segments.len() {
                            // Torn inside a sealed segment: real
                            // corruption, the permanent trust boundary.
                            self.wedged = true;
                            return Ok(TailPoll {
                                applied,
                                pending_bytes: self.lag_bytes().unwrap_or(0),
                                status: TailStatus::Wedged,
                            });
                        }
                        // Torn tail of the active segment: an append in
                        // flight. Hold the cursor at the trusted offset
                        // and re-read on the next poll. (If the writer
                        // crashed here, its restart cuts the tear off
                        // before it creates a higher segment.)
                        let len = self.vfs.len(path).unwrap_or(self.offset);
                        return Ok(TailPoll {
                            applied,
                            pending_bytes: len.saturating_sub(self.offset),
                            status: TailStatus::CaughtUp,
                        });
                    }
                }
            }
        }
    }

    fn lost_prefix(&self) -> TailPoll {
        self.lost_prefix_with(0)
    }

    fn lost_prefix_with(&self, applied: u64) -> TailPoll {
        TailPoll {
            applied,
            pending_bytes: 0,
            status: TailStatus::LostPrefix,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    use calc_common::types::{CommitSeq, TxnId};
    use calc_common::vfs::OsVfs;
    use calc_txn::proc::ProcId;

    use crate::logfile::{
        read_dir_logs, segment_file_name, truncate_segments_below, SegmentedLogWriter,
    };

    fn tmpdir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "calc-tailer-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn rec(seq: u64, params: &[u8]) -> CommitRecord {
        CommitRecord {
            seq: CommitSeq(seq),
            txn: TxnId(seq * 10),
            proc: ProcId(3),
            params: Arc::from(params.to_vec().into_boxed_slice()),
        }
    }

    fn vfs() -> Arc<dyn Vfs> {
        Arc::new(OsVfs)
    }

    #[test]
    fn tails_across_rotation_incrementally() {
        let dir = tmpdir("rotate");
        let mut w = SegmentedLogWriter::create(vfs(), &dir, 0).unwrap(); // min clamp: 512
        let mut t = LogTailer::new(vfs(), &dir);
        let mut seen = Vec::new();
        let mut sink = |r: &CommitRecord| {
            seen.push(r.seq.0);
            Ok(())
        };

        // Nothing yet: empty dir is CaughtUp, not an error.
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.status, TailStatus::CaughtUp);
        assert_eq!(p.applied, 0);

        for i in 0..20u64 {
            w.append(&rec(i + 1, &[7u8; 100])).unwrap();
        }
        w.sync().unwrap();
        assert!(w.rotations() > 0, "120-byte records must rotate 512-byte segments");
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.status, TailStatus::CaughtUp);
        assert_eq!(p.applied, 20);
        assert_eq!(p.pending_bytes, 0);

        // Incremental: more appends land mid-directory, next poll only
        // sees the delta.
        for i in 20..30u64 {
            w.append(&rec(i + 1, &[7u8; 100])).unwrap();
        }
        w.sync().unwrap();
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.applied, 10);
        assert_eq!(seen, (1..=30).collect::<Vec<_>>());
        assert_eq!(
            seen,
            read_dir_logs(vfs().as_ref(), &dir)
                .unwrap()
                .iter()
                .map(|r| r.seq.0)
                .collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_active_tail_backs_off_then_resumes() {
        let dir = tmpdir("torn-active");
        let seg0 = dir.join(segment_file_name(0));
        // One good record, then a bare 4-byte fragment of a head.
        let good = {
            let mut w = SegmentedLogWriter::create(vfs(), &dir, 64 << 20).unwrap();
            w.append(&rec(1, b"alpha")).unwrap();
            w.sync().unwrap();
            std::fs::metadata(&seg0).unwrap().len()
        };
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg0).unwrap();
        f.write_all(&[0xAA, 0xBB, 0xCC, 0xDD]).unwrap();
        f.sync_all().unwrap();

        let mut t = LogTailer::new(vfs(), &dir);
        let mut seen = Vec::new();
        let mut sink = |r: &CommitRecord| {
            seen.push(r.seq.0);
            Ok(())
        };
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.status, TailStatus::CaughtUp);
        assert_eq!(p.applied, 1);
        assert_eq!(p.pending_bytes, 4, "the torn fragment is pending, not consumed");
        assert_eq!(t.cursor(), Some((0, good)));

        // Re-polling without progress is stable.
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.applied, 0);
        assert_eq!(p.status, TailStatus::CaughtUp);

        // The append "completes": replace the fragment with a whole
        // hand-encoded record at the trusted offset.
        let f = std::fs::OpenOptions::new().write(true).open(&seg0).unwrap();
        f.set_len(good).unwrap();
        drop(f);
        let r = rec(2, b"beta");
        let mut body = Vec::new();
        body.extend_from_slice(&r.seq.0.to_le_bytes());
        body.extend_from_slice(&r.txn.0.to_le_bytes());
        body.extend_from_slice(&r.proc.0.to_le_bytes());
        body.extend_from_slice(&r.params);
        let mut out = Vec::new();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&calc_common::crc::crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        let mut f = std::fs::OpenOptions::new().append(true).open(&seg0).unwrap();
        f.write_all(&out).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.applied, 1);
        assert_eq!(p.status, TailStatus::CaughtUp);
        assert_eq!(p.pending_bytes, 0);
        assert_eq!(seen, vec![1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two writer lifetimes, one record each: segment 0 holds record 1,
    /// segment 1 record 2. `tear` runs on segment 0 in between.
    fn two_lifetimes(dir: &Path, tear: impl FnOnce(&Path)) {
        let mut w = SegmentedLogWriter::create(vfs(), dir, 64 << 20).unwrap();
        w.append(&rec(1, b"ok")).unwrap();
        w.sync().unwrap();
        drop(w);
        tear(&dir.join(segment_file_name(0)));
        let mut w = SegmentedLogWriter::create(vfs(), dir, 64 << 20).unwrap();
        assert_eq!(w.active_index(), 1);
        w.append(&rec(2, b"later")).unwrap();
        w.sync().unwrap();
    }

    /// Appends the first bytes of a record head that never completed.
    fn append_fragment(path: &Path) {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(&[0x01, 0x02, 0x03]).unwrap();
        f.sync_all().unwrap();
    }

    #[test]
    fn torn_sealed_segment_wedges_permanently() {
        let dir = tmpdir("wedge");
        // The tear lands in segment 0 after segment 1 exists: sealed
        // corruption, which no writer ever cuts.
        two_lifetimes(&dir, |_| {});
        append_fragment(&dir.join(segment_file_name(0)));
        let mut t = LogTailer::new(vfs(), &dir);
        let mut seen = Vec::new();
        let mut sink = |r: &CommitRecord| {
            seen.push(r.seq.0);
            Ok(())
        };
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.status, TailStatus::Wedged);
        assert!(t.wedged());
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.status, TailStatus::Wedged, "wedge is sticky");
        assert_eq!(p.applied, 0);
        assert_eq!(seen, vec![1], "records before the tear are applied, none after");
        // Same trust boundary as the one-shot reader.
        assert_eq!(read_dir_logs(vfs().as_ref(), &dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash tears the tail of the newest segment; the restarted writer
    /// cuts it back to the last whole record before opening segment 1, so
    /// the tear never becomes sealed corruption and the tailer reads both
    /// lifetimes.
    #[test]
    fn a_restarted_writer_cuts_the_torn_tail_it_would_seal() {
        let dir = tmpdir("cut");
        let mut whole = 0;
        two_lifetimes(&dir, |seg0| {
            whole = std::fs::metadata(seg0).unwrap().len();
            append_fragment(seg0);
        });
        let seg0 = dir.join(segment_file_name(0));
        assert_eq!(std::fs::metadata(&seg0).unwrap().len(), whole, "cut to the last whole record");
        let mut t = LogTailer::new(vfs(), &dir);
        let mut seen = Vec::new();
        let p = t
            .poll(&mut |r| {
                seen.push(r.seq.0);
                Ok(())
            })
            .unwrap();
        assert_eq!(p.status, TailStatus::CaughtUp);
        assert_eq!(p.pending_bytes, 0);
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(read_dir_logs(vfs().as_ref(), &dir).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment whose tail is zero-filled — what a preallocated segment
    /// holds past its last append — ends the log where the zeros begin:
    /// a zero head (length 0) reads as torn, never as a record. The reader
    /// returns exactly the records before the zeros, the tailer applies
    /// exactly those and advances no further, and a restarted writer cuts
    /// the zeros off before it opens the next segment.
    #[test]
    fn a_zero_filled_tail_ends_the_log_where_the_zeros_begin() {
        for zeros in [3u64, 4096] {
            let dir = tmpdir(&format!("zero-tail-{zeros}"));
            let seg0 = dir.join(segment_file_name(0));
            let whole = {
                let mut w = SegmentedLogWriter::create(vfs(), &dir, 64 << 20).unwrap();
                for seq in 1..=3 {
                    w.append(&rec(seq, b"before the zeros")).unwrap();
                }
                w.sync().unwrap();
                std::fs::metadata(&seg0).unwrap().len()
            };
            let f = std::fs::OpenOptions::new().write(true).open(&seg0).unwrap();
            f.set_len(whole + zeros).unwrap();
            f.sync_all().unwrap();
            drop(f);
            let seqs = |recs: Vec<CommitRecord>| recs.iter().map(|r| r.seq.0).collect::<Vec<_>>();
            assert_eq!(seqs(read_dir_logs(vfs().as_ref(), &dir).unwrap()), [1, 2, 3]);

            let mut t = LogTailer::new(vfs(), &dir);
            let mut seen = Vec::new();
            for _ in 0..2 {
                let p = t
                    .poll(&mut |r| {
                        seen.push(r.seq.0);
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(p.status, TailStatus::CaughtUp);
                assert_eq!(p.pending_bytes, zeros, "the zeros are pending, not applied");
                assert_eq!(t.cursor(), Some((0, whole)));
            }
            assert_eq!(seen, [1, 2, 3]);

            let mut w = SegmentedLogWriter::create(vfs(), &dir, 64 << 20).unwrap();
            assert_eq!(std::fs::metadata(&seg0).unwrap().len(), whole, "zeros cut off");
            w.append(&rec(4, b"next lifetime")).unwrap();
            w.sync().unwrap();
            assert_eq!(seqs(read_dir_logs(vfs().as_ref(), &dir).unwrap()), [1, 2, 3, 4]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn truncated_cursor_segment_reports_lost_prefix_then_reanchors() {
        let dir = tmpdir("lost-prefix");
        let mut w = SegmentedLogWriter::create(vfs(), &dir, 0).unwrap();
        for i in 0..20u64 {
            w.append(&rec(i + 1, &[9u8; 100])).unwrap();
        }
        w.sync().unwrap();
        let mut t = LogTailer::new(vfs(), &dir);
        // Anchor at segment 0 but apply nothing (sink sees everything;
        // use a partial poll by anchoring then truncating).
        let mut seen = Vec::new();
        let mut sink = |r: &CommitRecord| {
            seen.push(r.seq.0);
            Ok(())
        };
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.applied, 20);
        // Retention removes sealed segments below seq 15; the cursor sits
        // in the active (highest) segment so this poll is unaffected.
        let stats = truncate_segments_below(vfs().as_ref(), &dir, CommitSeq(15)).unwrap();
        assert!(stats.removed > 0);
        let p = t.poll(&mut sink).unwrap();
        assert_eq!(p.status, TailStatus::CaughtUp, "cursor past the truncation point");

        // Now simulate truncation overtaking the cursor: point a fresh
        // tailer at segment 0 (gone) by anchoring before truncation.
        let dir2 = tmpdir("lost-prefix-2");
        let mut w2 = SegmentedLogWriter::create(vfs(), &dir2, 0).unwrap();
        for i in 0..20u64 {
            w2.append(&rec(i + 1, &[9u8; 100])).unwrap();
        }
        w2.sync().unwrap();
        let mut t2 = LogTailer::new(vfs(), &dir2);
        let mut first = true;
        let mut seen2 = Vec::new();
        // Anchor with a sink that aborts after one record, leaving the
        // cursor low in segment 0.
        let err = t2
            .poll(&mut |r: &CommitRecord| {
                if first {
                    first = false;
                    seen2.push(r.seq.0);
                    Ok(())
                } else {
                    Err(io::Error::other("stop"))
                }
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "stop");
        assert_eq!(t2.cursor().unwrap().0, 0);
        truncate_segments_below(vfs().as_ref(), &dir2, CommitSeq(15)).unwrap();
        let p = t2.poll(&mut |r| {
            seen2.push(r.seq.0);
            Ok(())
        });
        assert_eq!(p.unwrap().status, TailStatus::LostPrefix);
        // After the caller re-bootstraps, the next poll re-anchors at the
        // smallest survivor and replays from there (caller dedups by seq).
        let p = t2
            .poll(&mut |r| {
                seen2.push(r.seq.0);
                Ok(())
            })
            .unwrap();
        assert_eq!(p.status, TailStatus::CaughtUp);
        assert!(p.applied > 0);
        assert_eq!(
            seen2.last().copied(),
            Some(20),
            "re-anchored tail reaches the live end"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn lag_bytes_tracks_unapplied_tail() {
        let dir = tmpdir("lag");
        let mut w = SegmentedLogWriter::create(vfs(), &dir, 0).unwrap();
        let mut t = LogTailer::new(vfs(), &dir);
        assert_eq!(t.lag_bytes().unwrap(), 0);
        for i in 0..8u64 {
            w.append(&rec(i + 1, &[1u8; 100])).unwrap();
        }
        w.sync().unwrap();
        let behind = t.lag_bytes().unwrap();
        assert_eq!(behind, 8 * 126, "8 records of 126 bytes on disk, none applied");
        t.poll(&mut |_| Ok(())).unwrap();
        assert_eq!(t.lag_bytes().unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
