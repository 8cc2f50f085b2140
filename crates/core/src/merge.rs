//! Background collapsing of partial checkpoints (§2.3.1, §3.2).
//!
//! "The collapsing process itself is a simple merge of two or more recent
//! partial checkpoints, where the latest version is always used if a
//! record appears in multiple partial checkpoints. Old checkpoints are
//! discarded only once they have been collapsed. Thus a system failure
//! during the collapsing process ... has no effect on durability."
//!
//! We implement the variant the paper settles on (§3.2): rather than
//! occasionally taking expensive full checkpoints, the merger collapses
//! *the most recent full checkpoint plus all newer partials* into a new
//! full checkpoint — a process that runs entirely asynchronously in a
//! low-priority background thread. The engine triggers it after every
//! `merge_batch` partial checkpoints (the 4/8/16 knob of Figure 4).

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use calc_common::types::{Key, Value};
use calc_common::vfs::{OsVfs, Vfs};

use crate::file::{CheckpointKind, RecordEntry};
use crate::manifest::{CheckpointDir, CheckpointMeta};
use crate::partition::{capture_parts, ShardPartition};

/// Outcome of one collapse run.
#[derive(Clone, Debug)]
pub struct MergeStats {
    /// Files merged (1 full + N partials).
    pub inputs: usize,
    /// Id of the new full checkpoint (== last partial's id).
    pub new_full_id: u64,
    /// Records in the new full checkpoint.
    pub records: u64,
    /// Bytes written.
    pub bytes: u64,
    /// Old files deleted after publication.
    pub removed: usize,
    /// Wall-clock time.
    pub duration: Duration,
}

/// Applies one checkpoint entry to an in-memory state map (last event
/// wins; tombstones delete).
pub fn apply_entry(state: &mut BTreeMap<Key, Value>, entry: RecordEntry) {
    match entry {
        RecordEntry::Value(k, v) => {
            state.insert(k, v);
        }
        RecordEntry::Tombstone(k) => {
            state.remove(&k);
        }
    }
}

/// Streams a full checkpoint plus ordered partials, oldest first, into a
/// single state map: the background merger's `collapse`, and the serial
/// reference the test oracles hold restart's direct loader against
/// (recovery itself builds no map — see `calc_recovery::replay`). Each
/// part is opened once and checked against its manifest entry as it
/// streams ([`CheckpointMeta::open_part`]).
pub fn materialize_chain(
    full: &CheckpointMeta,
    partials: &[CheckpointMeta],
) -> io::Result<BTreeMap<Key, Value>> {
    materialize_chain_with_vfs(&OsVfs, full, partials)
}

/// [`materialize_chain`] reading through an arbitrary [`Vfs`].
pub fn materialize_chain_with_vfs(
    vfs: &dyn Vfs,
    full: &CheckpointMeta,
    partials: &[CheckpointMeta],
) -> io::Result<BTreeMap<Key, Value>> {
    let mut state = BTreeMap::new();
    for cycle in std::iter::once(full).chain(partials) {
        apply_cycle(&mut state, vfs, cycle)?;
    }
    Ok(state)
}

/// Applies every record of `cycle`, part by part.
fn apply_cycle(
    state: &mut BTreeMap<Key, Value>,
    vfs: &dyn Vfs,
    cycle: &CheckpointMeta,
) -> io::Result<()> {
    for k in 0..cycle.parts.len() {
        let mut part = cycle.open_part(vfs, k)?;
        while let Some(entry) = part.next_record()? {
            apply_entry(state, entry);
        }
    }
    Ok(())
}

/// Collapses the newest full checkpoint with all newer partials into a new
/// full checkpoint, then garbage-collects the inputs. Returns `None` if
/// there is nothing to collapse (no full checkpoint, or no newer
/// partials).
///
/// The chain comes from the directory's catalog and is read exactly once.
/// An input that fails its check is quarantined and dropped from the
/// catalog, and the error returned; the next collapse merges the chain up
/// to the hole.
pub fn collapse(dir: &CheckpointDir) -> io::Result<Option<MergeStats>> {
    let start = Instant::now();
    let Some((full, partials)) = dir.chain() else {
        return Ok(None);
    };
    if partials.is_empty() {
        return Ok(None);
    }
    let mut state = BTreeMap::new();
    for cycle in std::iter::once(&full).chain(&partials) {
        if let Err(e) = apply_cycle(&mut state, dir.vfs().as_ref(), cycle) {
            dir.quarantine_cycle(cycle);
            return Err(e);
        }
    }
    let last = partials.last().expect("nonempty");
    let entries: Vec<(&Key, &Value)> = state.iter().collect();
    let threads = dir.checkpoint_threads();
    let split = ShardPartition::over(entries.len(), threads);
    let summary = capture_parts(
        dir,
        CheckpointKind::Full,
        last.id,
        last.watermark,
        &[],
        threads,
        |k, w, _cancel| {
            for &(key, value) in &entries[split.range(k)] {
                w.write_record(*key, value)?;
            }
            Ok(())
        },
    )?;
    let new_path = dir
        .path()
        .join(CheckpointDir::manifest_file_name(last.id, CheckpointKind::Full));
    // Only now that the replacement is durable do the inputs go away.
    let removed = dir.gc_through(last.id, &new_path)?;
    Ok(Some(MergeStats {
        inputs: 1 + partials.len(),
        new_full_id: last.id,
        records: summary.records,
        bytes: summary.bytes,
        removed,
        duration: start.elapsed(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throttle::Throttle;
    use calc_common::types::CommitSeq;
    use std::sync::Arc;

    fn dir(name: &str) -> CheckpointDir {
        let d = std::env::temp_dir().join(format!(
            "calc-merge-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&d);
        CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
    }

    fn write_full(d: &CheckpointDir, id: u64, recs: &[(u64, &[u8])]) {
        capture_parts(d, CheckpointKind::Full, id, CommitSeq(id * 10), &[], 1, |_, w, _| {
            recs.iter().try_for_each(|(k, v)| w.write_record(Key(*k), v))
        })
        .unwrap();
    }

    fn write_partial(d: &CheckpointDir, id: u64, recs: &[(u64, Option<&[u8]>)]) {
        // Tombstones first, as the capture thread does.
        let tombstones: Vec<Key> = recs
            .iter()
            .filter(|(_, v)| v.is_none())
            .map(|(k, _)| Key(*k))
            .collect();
        capture_parts(
            d,
            CheckpointKind::Partial,
            id,
            CommitSeq(id * 10),
            &tombstones,
            1,
            |_, w, _| {
                recs.iter()
                    .filter_map(|(k, v)| v.map(|v| (k, v)))
                    .try_for_each(|(k, v)| w.write_record(Key(*k), v))
            },
        )
        .unwrap();
    }

    #[test]
    fn collapse_merges_newest_wins_and_gcs() {
        let d = dir("basic");
        write_full(&d, 0, &[(1, b"a0"), (2, b"b0"), (3, b"c0")]);
        write_partial(&d, 1, &[(1, Some(b"a1"))]);
        write_partial(&d, 2, &[(1, Some(b"a2")), (3, None), (4, Some(b"d2"))]);
        let stats = collapse(&d).unwrap().unwrap();
        assert_eq!(stats.inputs, 3);
        assert_eq!(stats.new_full_id, 2);
        assert_eq!(stats.records, 3); // 1,2,4 (3 tombstoned)
        assert_eq!(stats.removed, 3);

        let metas = d.manifests().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].kind, CheckpointKind::Full);
        assert_eq!(metas[0].watermark, CommitSeq(20));
        let entries = metas[0].read_all().unwrap();
        let got: Vec<(u64, Vec<u8>)> = entries
            .into_iter()
            .map(|e| match e {
                RecordEntry::Value(k, v) => (k.0, v.to_vec()),
                _ => panic!("tombstone in full checkpoint"),
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (1, b"a2".to_vec()),
                (2, b"b0".to_vec()),
                (4, b"d2".to_vec())
            ]
        );
    }

    #[test]
    fn collapse_noop_without_partials() {
        let d = dir("noop");
        write_full(&d, 0, &[(1, b"a")]);
        assert!(collapse(&d).unwrap().is_none());
        assert!(collapse(&dir("empty")).unwrap().is_none());
    }

    #[test]
    fn tombstone_then_reinsert_in_same_partial() {
        let d = dir("reinsert");
        write_full(&d, 0, &[(1, b"old")]);
        // Record 1 deleted pre-point then re-inserted pre-point: the file
        // carries tombstone first, then the new value.
        write_partial(&d, 1, &[(1, None), (1, Some(b"new"))]);
        collapse(&d).unwrap().unwrap();
        let (full, _) = d.chain().unwrap();
        let entries = full.read_all().unwrap();
        assert_eq!(
            entries,
            vec![RecordEntry::Value(Key(1), b"new".to_vec().into_boxed_slice())]
        );
    }

    #[test]
    fn repeated_collapse_is_incremental() {
        let d = dir("repeat");
        write_full(&d, 0, &[(1, b"v0")]);
        write_partial(&d, 1, &[(1, Some(b"v1"))]);
        collapse(&d).unwrap().unwrap();
        write_partial(&d, 2, &[(2, Some(b"w2"))]);
        write_partial(&d, 3, &[(1, Some(b"v3"))]);
        let stats = collapse(&d).unwrap().unwrap();
        assert_eq!(stats.new_full_id, 3);
        let state = {
            let (full, partials) = d.chain().unwrap();
            materialize_chain(&full, &partials).unwrap()
        };
        assert_eq!(state.len(), 2);
        assert_eq!(&state[&Key(1)][..], b"v3");
        assert_eq!(&state[&Key(2)][..], b"w2");
    }

    #[test]
    fn collapse_of_multipart_inputs_writes_multipart_full() {
        let d = dir("collapse-parts");
        d.set_checkpoint_threads(4);
        write_full(&d, 0, &[(1, b"a0"), (2, b"b0")]);
        write_partial(&d, 1, &[(1, Some(b"a1")), (3, Some(b"c1"))]);
        let stats = collapse(&d).unwrap().unwrap();
        assert_eq!(stats.new_full_id, 1);
        assert_eq!(stats.records, 3);
        let metas = d.manifests().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].parts.len(), 4, "collapse honours checkpoint_threads");
        let state = materialize_chain(&metas[0], &[]).unwrap();
        assert_eq!(&state[&Key(1)][..], b"a1");
        assert_eq!(&state[&Key(2)][..], b"b0");
        assert_eq!(&state[&Key(3)][..], b"c1");
    }

    #[test]
    fn crash_before_gc_leaves_recoverable_state() {
        // Simulate: merge wrote the new full but "crashed" before GC —
        // both old and new files present. Recovery must still pick the
        // newest full and end with identical state.
        let d = dir("crashgc");
        write_full(&d, 0, &[(1, b"a"), (2, b"b")]);
        write_partial(&d, 1, &[(2, Some(b"b1"))]);
        // Manual "merge without gc":
        let (full, partials) = d.chain().unwrap();
        let state = materialize_chain(&full, &partials).unwrap();
        capture_parts(&d, CheckpointKind::Full, 1, CommitSeq(10), &[], 1, |_, w, _| {
            state.iter().try_for_each(|(k, v)| w.write_record(*k, v))
        })
        .unwrap();
        // All three cycles exist; recovery chain = full@1, no partials after.
        let (full, partials) = d.chain().unwrap();
        assert_eq!(full.id, 1);
        assert!(partials.is_empty());
        let recovered = materialize_chain(&full, &partials).unwrap();
        assert_eq!(recovered, state);
    }

    /// A merge input that fails its check is quarantined and leaves the
    /// catalog; the merge fails, and the next one collapses the chain up to
    /// the hole it left.
    #[test]
    fn corrupt_input_is_quarantined_and_the_next_collapse_stops_at_the_hole() {
        let d = dir("corrupt-input");
        write_full(&d, 0, &[(1, b"a0"), (2, b"b0")]);
        write_partial(&d, 1, &[(1, Some(b"a1"))]);
        write_partial(&d, 2, &[(2, Some(b"b2"))]);
        write_partial(&d, 3, &[(1, Some(b"a3"))]);
        let victim = d.manifests().unwrap()[2].parts[0].path.clone();
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();

        assert!(collapse(&d).is_err(), "a corrupt input must fail the merge");
        assert_eq!(d.quarantined_count(), 2, "partial 2's manifest and part");
        let ids: Vec<(u64, CheckpointKind)> =
            d.manifests().unwrap().iter().map(|m| (m.id, m.kind)).collect();
        assert_eq!(
            ids,
            vec![
                (0, CheckpointKind::Full),
                (1, CheckpointKind::Partial),
                (3, CheckpointKind::Partial)
            ]
        );

        let stats = collapse(&d).unwrap().unwrap();
        assert_eq!((stats.inputs, stats.new_full_id), (2, 1), "full@0 + partial 1");
        let (full, partials) = d.chain().unwrap();
        assert_eq!(full.id, 1);
        assert!(partials.is_empty(), "partial 3 follows the hole");
        let state = materialize_chain(&full, &[]).unwrap();
        assert_eq!(&state[&Key(1)][..], b"a1");
        assert_eq!(&state[&Key(2)][..], b"b0");
    }
}
