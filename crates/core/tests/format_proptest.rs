//! Randomized tests for the checkpoint file format and the
//! partial-checkpoint merge semantics, generated from seeded `SplitMix`
//! streams (the offline build has no proptest). Deterministic per seed;
//! failures print the seed.

use std::collections::BTreeMap;
use std::sync::Arc;

use calc_common::rng::SplitMix;
use calc_common::types::{CommitSeq, Key, Value};
use calc_common::vfs::OsVfs;
use calc_core::file::{CheckpointKind, CheckpointReader, CheckpointWriter, RecordEntry};
use calc_core::manifest::{CheckpointDir, RestartChain};
use calc_core::merge::{apply_entry, collapse, materialize_chain};
use calc_core::partition::capture_parts;
use calc_core::throttle::Throttle;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "calc-format-prop-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

#[derive(Clone, Debug)]
enum Entry {
    Value(u64, Vec<u8>),
    Tombstone(u64),
}

fn gen_bytes(rng: &mut SplitMix, max_len: u64) -> Vec<u8> {
    let len = rng.next_below(max_len) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn gen_entry(rng: &mut SplitMix) -> Entry {
    // 4:1 value-to-tombstone ratio, matching the original distribution.
    if rng.next_below(5) < 4 {
        Entry::Value(rng.next_u64(), gen_bytes(rng, 200))
    } else {
        Entry::Tombstone(rng.next_u64())
    }
}

const SEED_BASE: u64 = 0xf02a_7001_0000_0000;

/// Arbitrary record sequences round-trip through the file format
/// byte-for-byte, in order.
#[test]
fn file_format_roundtrips() {
    for case in 0..48u64 {
        let seed = SEED_BASE ^ case;
        let mut rng = SplitMix::new(seed);
        let entries: Vec<Entry> = {
            let n = rng.next_below(80) as usize;
            (0..n).map(|_| gen_entry(&mut rng)).collect()
        };
        let id = rng.next_u64();
        let watermark = rng.next_u64();
        let partial = rng.chance(0.5);

        let path = tmp("rt");
        let kind = if partial {
            CheckpointKind::Partial
        } else {
            CheckpointKind::Full
        };
        let mut w = CheckpointWriter::create(
            &path,
            kind,
            id,
            CommitSeq(watermark),
            Arc::new(Throttle::unlimited()),
        )
        .unwrap();
        for e in &entries {
            match e {
                Entry::Value(k, v) => w.write_record(Key(*k), v).unwrap(),
                Entry::Tombstone(k) => w.write_tombstone(Key(*k)).unwrap(),
            }
        }
        let summary = w.finish().unwrap();
        assert_eq!(summary.records as usize, entries.len(), "seed {seed:#x}");

        let r = CheckpointReader::open(&path).unwrap();
        let h = r.header();
        assert_eq!(h.id, id, "seed {seed:#x}");
        assert_eq!(h.watermark, CommitSeq(watermark), "seed {seed:#x}");
        assert_eq!(h.kind, kind, "seed {seed:#x}");
        let got = r.read_all().unwrap();
        assert_eq!(got.len(), entries.len(), "seed {seed:#x}");
        for (g, e) in got.iter().zip(entries.iter()) {
            match (g, e) {
                (RecordEntry::Value(k, v), Entry::Value(ek, ev)) => {
                    assert_eq!(k.0, *ek, "seed {seed:#x}");
                    assert_eq!(&v[..], &ev[..], "seed {seed:#x}");
                }
                (RecordEntry::Tombstone(k), Entry::Tombstone(ek)) => {
                    assert_eq!(k.0, *ek, "seed {seed:#x}");
                }
                _ => panic!("seed {seed:#x}: entry kind mismatch"),
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Truncating a finished file at ANY byte boundary makes it invalid
/// (open fails) or, at minimum, never yields wrong data silently.
#[test]
fn any_truncation_is_detected() {
    for case in 0..48u64 {
        let seed = SEED_BASE ^ (0x100 + case);
        let mut rng = SplitMix::new(seed);
        let n_records = 1 + rng.next_below(19) as usize;
        let cut_frac = rng.next_f64();

        let path = tmp("trunc");
        let mut w = CheckpointWriter::create(
            &path,
            CheckpointKind::Full,
            1,
            CommitSeq(1),
            Arc::new(Throttle::unlimited()),
        )
        .unwrap();
        for k in 0..n_records as u64 {
            w.write_record(Key(k), &[k as u8; 33]).unwrap();
        }
        w.finish().unwrap();
        let data = std::fs::read(&path).unwrap();
        let cut = ((data.len() as f64) * cut_frac) as usize;
        if cut >= data.len() {
            // Cutting nothing is the valid file; skip this case.
            std::fs::remove_file(&path).ok();
            continue;
        }
        std::fs::write(&path, &data[..cut]).unwrap();
        match CheckpointReader::open(&path) {
            Err(_) => {} // rejected at open: good
            Ok(r) => {
                // Footer bytes happened to survive? Only possible if the
                // cut removed nothing meaningful — then reading must
                // still fail (CRC) or produce exactly the full content.
                match r.read_all() {
                    Err(_) => {}
                    Ok(entries) => {
                        assert_eq!(entries.len(), n_records, "seed {seed:#x}");
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// merge::collapse is semantically identical to sequential map replay:
/// full ∘ partial₁ ∘ … ∘ partialₙ.
#[test]
fn collapse_equals_model_replay() {
    for case in 0..48u64 {
        let seed = SEED_BASE ^ (0x200 + case);
        let mut rng = SplitMix::new(seed);
        let base: BTreeMap<u64, Vec<u8>> = {
            let n = rng.next_below(16) as usize;
            (0..n)
                .map(|_| (rng.next_below(32), gen_bytes(&mut rng, 24)))
                .collect()
        };
        let partials: Vec<Vec<Entry>> = {
            let n = 1 + rng.next_below(4) as usize;
            (0..n)
                .map(|_| {
                    let m = rng.next_below(12) as usize;
                    (0..m)
                        // Restrict keys to a small space so overlaps happen.
                        .map(|_| match gen_entry(&mut rng) {
                            Entry::Value(k, v) => Entry::Value(k % 32, v),
                            Entry::Tombstone(k) => Entry::Tombstone(k % 32),
                        })
                        .collect()
                })
                .collect()
        };

        let root = tmp("collapse");
        let dir = CheckpointDir::open(&root, Arc::new(Throttle::unlimited())).unwrap();
        // Base full checkpoint.
        let mut model: BTreeMap<Key, Value> = BTreeMap::new();
        capture_parts(&dir, CheckpointKind::Full, 0, CommitSeq(0), &[], 1, |_, w, _| {
            base.iter().try_for_each(|(k, v)| w.write_record(Key(*k), v))
        })
        .unwrap();
        for (k, v) in &base {
            model.insert(Key(*k), v.clone().into_boxed_slice());
        }
        // Partials.
        for (i, entries) in partials.iter().enumerate() {
            let id = i as u64 + 1;
            capture_parts(&dir, CheckpointKind::Partial, id, CommitSeq(id), &[], 1, |_, w, _| {
                entries.iter().try_for_each(|e| match e {
                    Entry::Value(k, v) => w.write_record(Key(*k), v),
                    Entry::Tombstone(k) => w.write_tombstone(Key(*k)),
                })
            })
            .unwrap();
            for e in entries {
                apply_entry(
                    &mut model,
                    match e {
                        Entry::Value(k, v) => {
                            RecordEntry::Value(Key(*k), v.clone().into_boxed_slice())
                        }
                        Entry::Tombstone(k) => RecordEntry::Tombstone(Key(*k)),
                    },
                );
            }
        }
        // Collapse (into 1–3 parts) and compare to the model. The inputs
        // above repeat keys and scatter tombstones on purpose — collapse
        // is last-event-wins over file order — but what it publishes must
        // have the shape restart's loader relies on.
        dir.set_checkpoint_threads(1 + (case % 3) as usize);
        collapse(&dir).unwrap().unwrap();
        let (full, rest) = dir.chain().unwrap();
        assert!(rest.is_empty(), "seed {seed:#x}");
        assert_eq!(full.shape_violation(&OsVfs).unwrap(), None, "seed {seed:#x}");
        let got = materialize_chain(&full, &[]).unwrap();
        assert_eq!(got, model, "seed {seed:#x}");
        std::fs::remove_dir_all(&root).ok();
    }
}

/// Arbitrary record batches round-trip through the framed block format
/// across part counts, including empty parts and zero/one-byte records.
/// Order and bytes are preserved part-by-part.
#[test]
fn parts_roundtrip_across_part_counts() {
    for case in 0..48u64 {
        let seed = SEED_BASE ^ (0x300 + case);
        let mut rng = SplitMix::new(seed);
        let parts = 1 + rng.next_below(4) as usize;
        let batches: Vec<Vec<Entry>> = (0..parts)
            .map(|_| {
                if rng.chance(0.15) {
                    return Vec::new(); // empty-part edge
                }
                let n = 1 + rng.next_below(60) as usize;
                (0..n)
                    .map(|_| match rng.next_below(4) {
                        // 1-byte and 0-byte values stress block boundaries.
                        0 => Entry::Value(rng.next_u64(), vec![rng.next_u64() as u8]),
                        1 => Entry::Value(rng.next_u64(), Vec::new()),
                        // Long uniform values.
                        2 => Entry::Value(
                            rng.next_u64(),
                            vec![0xab; 1 + rng.next_below(300) as usize],
                        ),
                        _ => gen_entry(&mut rng),
                    })
                    .collect()
            })
            .collect();

        let root = tmp("parts");
        let dir = CheckpointDir::open(&root, Arc::new(Throttle::unlimited())).unwrap();
        let id = 7u64;
        let (pending, mut writers) = dir
            .begin_parts(CheckpointKind::Full, id, CommitSeq(42), parts)
            .unwrap();
        for (k, batch) in batches.iter().enumerate() {
            for e in batch {
                match e {
                    Entry::Value(key, v) => writers[k].write_record(Key(*key), v).unwrap(),
                    Entry::Tombstone(key) => writers[k].write_tombstone(Key(*key)).unwrap(),
                }
            }
        }
        let summary = pending.publish(writers).unwrap();
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(summary.records as usize, total, "seed {seed:#x}");
        assert!(dir.manifests().iter().any(|m| m.id == id), "cycle visible");

        for (k, batch) in batches.iter().enumerate() {
            let path = root.join(CheckpointDir::part_file_name(id, CheckpointKind::Full, k));
            let r = CheckpointReader::open(&path).unwrap();
            let got = r.read_all().unwrap();
            assert_eq!(got.len(), batch.len(), "seed {seed:#x} part {k}");
            for (g, e) in got.iter().zip(batch.iter()) {
                match (g, e) {
                    (RecordEntry::Value(gk, gv), Entry::Value(ek, ev)) => {
                        assert_eq!(gk.0, *ek, "seed {seed:#x}");
                        assert_eq!(&gv[..], &ev[..], "seed {seed:#x}");
                    }
                    (RecordEntry::Tombstone(gk), Entry::Tombstone(ek)) => {
                        assert_eq!(gk.0, *ek, "seed {seed:#x}");
                    }
                    _ => panic!("seed {seed:#x}: entry kind mismatch"),
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }
}

/// The CRC rule — each frame's CRC covers its payload, the footer's
/// covers the header and every frame head — detects what one CRC over the
/// whole file did: flipping one bit at any byte offset of a part with
/// three frames fails the read — never returns records. That includes a
/// flip inside a frame head's CRC field, a byte only the footer CRC
/// covers.
#[test]
fn one_bit_flip_anywhere_in_a_part_fails_the_read() {
    use std::os::unix::fs::FileExt;
    let value = |k: u8| vec![k; calc_core::file::BLOCK_TARGET / 2];
    let path = tmp("flip");
    let mut w = CheckpointWriter::create(
        &path,
        CheckpointKind::Partial,
        5,
        CommitSeq(50),
        Arc::new(Throttle::unlimited()),
    )
    .unwrap();
    w.write_tombstone(Key(7)).unwrap();
    for k in 1..=4u8 {
        w.write_record(Key(k as u64), &value(k)).unwrap();
    }
    w.write_record(Key(99), b"").unwrap();
    w.finish().unwrap();
    let clean = std::fs::read(&path).unwrap();
    let originals = CheckpointReader::open(&path).unwrap().read_all().unwrap();
    assert_eq!(originals.len(), 6);

    // Walk the frames: header (29 bytes), then len|crc heads and their
    // payloads up to the 20-byte footer.
    let (mut at, mut frames) = (29, 0);
    while at < clean.len() - 20 {
        let len = u32::from_le_bytes(clean[at..at + 4].try_into().unwrap());
        at += 8 + len as usize;
        frames += 1;
    }
    assert_eq!((at, frames), (clean.len() - 20, 3));

    // Odd and even offsets on a thread and a copy of the file each.
    std::thread::scope(|s| {
        for first in [0, 1] {
            let (clean, originals) = (&clean, &originals);
            let copy = tmp(&format!("flip-{first}"));
            std::fs::write(&copy, clean).unwrap();
            s.spawn(move || {
                let file = std::fs::OpenOptions::new().write(true).open(&copy).unwrap();
                for at in (first..clean.len()).step_by(2) {
                    file.write_at(&[clean[at] ^ (1 << (at % 8))], at as u64).unwrap();
                    match CheckpointReader::open(&copy).and_then(|r| r.read_all()) {
                        Ok(got) => panic!(
                            "flip at byte {at} read back {} records{}",
                            got.len(),
                            if got == *originals { "" } else { " that differ" }
                        ),
                        Err(e) => assert!(
                            matches!(
                                e.kind(),
                                std::io::ErrorKind::InvalidData
                                    | std::io::ErrorKind::UnexpectedEof
                            ),
                            "flip at byte {at}: {e}"
                        ),
                    }
                    file.write_at(&clean[at..=at], at as u64).unwrap();
                }
                std::fs::remove_file(&copy).ok();
            });
        }
    });
    std::fs::remove_file(&path).ok();
}

/// What `capture_parts` publishes has the loader's shape at every part
/// count, and the oracle that says so can fail: a repeated value and a
/// misplaced tombstone are each reported with the cycle, key and parts.
#[test]
fn cycle_shape_oracle_accepts_captures_and_names_breaches() {
    let shape = |dir: &CheckpointDir| {
        dir.manifests()[0].shape_violation(&OsVfs).unwrap()
    };
    for parts in [1usize, 2, 3, 7] {
        let dir = CheckpointDir::open(&tmp("shape-ok"), Arc::new(Throttle::unlimited())).unwrap();
        let tombstones = [Key(900), Key(5)];
        capture_parts(&dir, CheckpointKind::Partial, 1, CommitSeq(1), &tombstones, parts, |k, w, _| {
            (0..40u64)
                .filter(|key| *key as usize % parts == k)
                .try_for_each(|key| w.write_record(Key(key), b"v"))
        })
        .unwrap();
        assert_eq!(shape(&dir), None, "parts {parts}");
    }

    let dir = CheckpointDir::open(&tmp("shape-dup"), Arc::new(Throttle::unlimited())).unwrap();
    capture_parts(&dir, CheckpointKind::Full, 2, CommitSeq(2), &[], 3, |k, w, _| {
        w.write_record(Key(if k == 1 { 70 } else { 7 }), b"v")
    })
    .unwrap();
    let breach = shape(&dir).expect("key 7 is in parts 0 and 2");
    assert!(breach.contains("cycle 2") && breach.contains("key 7"), "{breach}");
    assert!(breach.contains("part 0") && breach.contains("part 2"), "{breach}");

    let dir = CheckpointDir::open(&tmp("shape-tomb"), Arc::new(Throttle::unlimited())).unwrap();
    capture_parts(&dir, CheckpointKind::Partial, 3, CommitSeq(3), &[], 2, |k, w, _| {
        w.write_record(Key(k as u64), b"v")?;
        if k == 1 {
            w.write_tombstone(Key(44))?;
        }
        Ok(())
    })
    .unwrap();
    let breach = shape(&dir).expect("tombstone in part 1");
    assert!(breach.contains("cycle 3") && breach.contains("key 44"), "{breach}");
    assert!(breach.contains("part 1"), "{breach}");
}

/// The one format pinned byte for byte: partial cycle 3, watermark 77,
/// no parent; part 0 holds tombstone 9, then keys 1,
/// 0xDEADBEEF with an empty value, 2 — one frame. The bytes were built
/// from the layout in `calc_core::file` and `calc_core::manifest` with an
/// independent CRC-32, not by this writer, so a writer or table bug
/// cannot pass by being self-consistent: they must validate and decode,
/// and today's writer must reproduce them exactly. The same records in
/// the retired formats — the version-1 part and manifest, a part with a
/// version-2 header, and the version-3 part and version-2 manifest that
/// carried a codec byte — are refused and quarantined, never misread.
#[test]
fn golden_part_and_manifest_decode_and_the_writer_reproduces_them() {
    const GOLDEN_PART: [u8; 139] = [
        0x43, 0x41, 0x4c, 0x43, 0x43, 0x4b, 0x50, 0x54, 0x04, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x52,
        0x00, 0x00, 0x00, 0x12, 0x0e, 0xb9, 0x14, 0x01, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
        0x00, 0x00, 0x00, 0x61, 0x6c, 0x70, 0x68, 0x61, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x19, 0x00, 0x00, 0x00, 0x74, 0x68, 0x65, 0x20, 0x71, 0x75, 0x69, 0x63, 0x6b, 0x20, 0x62,
        0x72, 0x6f, 0x77, 0x6e, 0x20, 0x66, 0x6f, 0x78, 0x20, 0x6a, 0x75, 0x6d, 0x70, 0x73, 0x43,
        0x4b, 0x50, 0x54, 0x45, 0x4e, 0x44, 0x2e, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x1e, 0xba, 0x5e, 0x3e,
    ];
    const GOLDEN_MANIFEST: [u8; 65] = [
        0x43, 0x41, 0x4c, 0x43, 0x4d, 0x46, 0x53, 0x54, 0x03, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x8b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1e, 0xba, 0x5e,
        0x3e, 0xb7, 0x4f, 0x9a, 0xa2,
    ];
    let part_name = CheckpointDir::part_file_name(3, CheckpointKind::Partial, 0);
    let manifest_name = CheckpointDir::manifest_file_name(3, CheckpointKind::Partial);
    let value = |k: u64, v: &[u8]| RecordEntry::Value(Key(k), v.to_vec().into_boxed_slice());
    let records = vec![
        RecordEntry::Tombstone(Key(9)),
        value(1, b"alpha"),
        value(0xDEAD_BEEF, b""),
        value(2, b"the quick brown fox jumps"),
    ];
    let cycle = |part: &[u8], manifest: &[u8]| {
        let root = tmp("golden");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(&part_name), part).unwrap();
        std::fs::write(root.join(&manifest_name), manifest).unwrap();
        CheckpointDir::open(&root, Arc::new(Throttle::unlimited())).unwrap()
    };

    let dir = cycle(&GOLDEN_PART, &GOLDEN_MANIFEST);
    assert_eq!(dir.restart_chain().unwrap(), RestartChain::NoFull);
    assert_eq!(dir.quarantined_count(), 0, "golden cycle failed validation");
    let metas = dir.manifests();
    assert_eq!(metas.len(), 1);
    assert_eq!((metas[0].id, metas[0].kind), (3, CheckpointKind::Partial));
    assert_eq!(metas[0].watermark, CommitSeq(77));
    assert_eq!(metas[0].parent, None);
    assert_eq!(metas[0].read_all().unwrap(), records);
    std::fs::remove_dir_all(dir.path()).ok();

    let root = tmp("golden-writer");
    let dir = CheckpointDir::open(&root, Arc::new(Throttle::unlimited())).unwrap();
    let (pending, mut writers) = dir
        .begin_parts(CheckpointKind::Partial, 3, CommitSeq(77), 1)
        .unwrap();
    for record in &records {
        match record {
            RecordEntry::Value(key, v) => writers[0].write_record(*key, v).unwrap(),
            RecordEntry::Tombstone(key) => writers[0].write_tombstone(*key).unwrap(),
        }
    }
    pending.publish(writers).unwrap();
    assert_eq!(std::fs::read(root.join(&part_name)).unwrap(), GOLDEN_PART);
    assert_eq!(
        std::fs::read(root.join(&manifest_name)).unwrap(),
        GOLDEN_MANIFEST
    );
    std::fs::remove_dir_all(&root).ok();

    // The same cycle as the one-table CRC build (commit 5442021) wrote it,
    // in the version-1 format.
    const V1_PART: [u8; 131] = [
        0x43, 0x41, 0x4c, 0x43, 0x43, 0x4b, 0x50, 0x54, 0x01, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x61, 0x6c, 0x70, 0x68, 0x61,
        0x00, 0xef, 0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x19, 0x00, 0x00, 0x00, 0x74, 0x68, 0x65, 0x20,
        0x71, 0x75, 0x69, 0x63, 0x6b, 0x20, 0x62, 0x72, 0x6f, 0x77, 0x6e, 0x20, 0x66, 0x6f, 0x78,
        0x20, 0x6a, 0x75, 0x6d, 0x70, 0x73, 0x43, 0x4b, 0x50, 0x54, 0x45, 0x4e, 0x44, 0x2e, 0x04,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc4, 0x91, 0x9c, 0x9d,
    ];
    const V1_MANIFEST: [u8; 65] = [
        0x43, 0x41, 0x4c, 0x43, 0x4d, 0x46, 0x53, 0x54, 0x01, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x83, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc4, 0x91, 0x9c,
        0x9d, 0xa9, 0xee, 0xc5, 0x92,
    ];
    // The same cycle in the version-3 part and version-2 manifest formats,
    // whose header, frame heads and manifest carried a codec byte and
    // uncompressed sizes.
    const V3_PART: [u8; 144] = [
        0x43, 0x41, 0x4c, 0x43, 0x43, 0x4b, 0x50, 0x54, 0x03, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x52, 0x00, 0x00, 0x00, 0x52, 0x00, 0x00, 0x00, 0x12, 0x0e, 0xb9, 0x14, 0x01, 0x09, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x61, 0x6c, 0x70, 0x68, 0x61, 0x00, 0xef,
        0xbe, 0xad, 0xde, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x19, 0x00, 0x00, 0x00, 0x74, 0x68, 0x65, 0x20, 0x71, 0x75,
        0x69, 0x63, 0x6b, 0x20, 0x62, 0x72, 0x6f, 0x77, 0x6e, 0x20, 0x66, 0x6f, 0x78, 0x20, 0x6a,
        0x75, 0x6d, 0x70, 0x73, 0x43, 0x4b, 0x50, 0x54, 0x45, 0x4e, 0x44, 0x2e, 0x04, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xfe, 0x2c, 0x85, 0x78,
    ];
    const V2_MANIFEST: [u8; 74] = [
        0x43, 0x41, 0x4c, 0x43, 0x4d, 0x46, 0x53, 0x54, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x90, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x90, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfe, 0x2c, 0x85, 0x78, 0xac, 0x24, 0xef, 0x39,
    ];
    let mut v2_part = V3_PART;
    v2_part[8] = 2; // the version-2 header: the same fields, codec byte last
    // A refused manifest condemns only itself, at the listing; a refused
    // part is never opened by it — the chain load refuses it and
    // quarantines its whole cycle (calc-recovery's `direct_load.rs`).
    for (what, part, manifest, listed) in [
        ("version-1 cycle", &V1_PART[..], &V1_MANIFEST[..], RestartChain::Empty),
        ("version-2 part", &v2_part[..], &GOLDEN_MANIFEST[..], RestartChain::NoFull),
        ("version-3 cycle", &V3_PART[..], &V2_MANIFEST[..], RestartChain::Empty),
        ("version-3 part", &V3_PART[..], &GOLDEN_MANIFEST[..], RestartChain::NoFull),
    ] {
        let dir = cycle(part, manifest);
        let err = CheckpointReader::open(&dir.path().join(&part_name)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        assert!(
            err.to_string().contains("unsupported version"),
            "{what}: {err}"
        );
        let refused_manifest = listed == RestartChain::Empty;
        assert_eq!(dir.restart_chain().unwrap(), listed, "{what}");
        assert_eq!(dir.quarantined_count(), u64::from(refused_manifest), "{what}");
        assert_eq!(
            dir.path()
                .join(format!("{manifest_name}.quarantine"))
                .exists(),
            refused_manifest,
            "{what}"
        );
        std::fs::remove_dir_all(dir.path()).ok();
    }
}
