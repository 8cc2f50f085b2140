//! GC racing a crash (ISSUE satellite): the background merger collapses
//! the recovery chain into a new full checkpoint, then deletes the
//! inputs. A crash in the middle of those `remove_file` calls — with the
//! adversarial directory-crash mode where unlinks persist but nothing
//! else does — must never leave recovery preferring a partially-deleted
//! generation over the (durably published) replacement.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use calc_common::simfs::{DirCrashMode, SimVfs};
use calc_common::types::{CommitSeq, Key};
use calc_common::vfs::Vfs;
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::merge::{collapse, materialize_chain_with_vfs};
use calc_core::partition::capture_parts;
use calc_core::throttle::Throttle;

fn open_dir(vfs: &SimVfs) -> CheckpointDir {
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    CheckpointDir::open_with_vfs(&PathBuf::from("/gc/ckpts"), Arc::new(Throttle::unlimited()), v)
        .unwrap()
}

/// Publishes one full + three partial checkpoints and returns the state
/// their chain materializes to.
fn build_chain(dir: &CheckpointDir) -> BTreeMap<u64, Vec<u8>> {
    capture_parts(dir, CheckpointKind::Full, 0, CommitSeq(10), &[], 1, |_, w, _| {
        (0..6u64).try_for_each(|k| w.write_record(Key(k), &[k as u8; 8]))
    })
    .unwrap();
    for id in 1..=3u64 {
        // Each partial deletes one key, overwrites one, adds one.
        capture_parts(
            dir,
            CheckpointKind::Partial,
            id,
            CommitSeq(10 + id * 10),
            &[Key(id)],
            1,
            |_, w, _| {
                w.write_record(Key(0), &[0xF0 + id as u8; 4])?;
                w.write_record(Key(10 + id), &[id as u8; 4])
            },
        )
        .unwrap();
    }
    let (full, partials) = dir.recovery_chain().unwrap().unwrap();
    materialize_chain_with_vfs(dir.vfs().as_ref(), &full, &partials)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k.0, v.to_vec()))
        .collect()
}

#[test]
fn gc_crash_at_every_remove_preserves_recovered_state() {
    // The collapse GCs 4 input cycles (full@0 + partials 1..=3), each one
    // part file plus its manifest: 8 unlinks. Crash before the k-th
    // unlink for every k, plus k=8 (= GC completes, power cut right
    // after), under the adversarial mode where only the unlinks survive
    // the crash.
    const UNLINKS: u64 = 8;
    for k in 0..=UNLINKS {
        let vfs = SimVfs::new(0x6C_C5EED ^ (k << 32));
        vfs.set_dir_crash_mode(DirCrashMode::RemovesOnly);
        let dir = open_dir(&vfs);
        let expected = build_chain(&dir);

        vfs.crash_before_remove(k);
        let result = collapse(&dir);
        if k < UNLINKS {
            assert!(result.is_err(), "crash_before_remove({k}) did not fire");
        } else {
            let stats = result.unwrap().unwrap();
            assert_eq!(stats.removed, 4);
            vfs.force_crash();
        }

        vfs.recover_view();
        let dir = open_dir(&vfs);
        let (full, partials) = dir
            .recovery_chain()
            .unwrap()
            .unwrap_or_else(|| panic!("no recoverable chain after GC crash at remove {k}"));
        // The merged full was durably published before GC started, so
        // recovery must land on it and reconstruct the same state no
        // matter which subset of the old generation is already gone.
        assert_eq!(full.id, 3, "recovery must prefer the merged full (k={k})");
        let got: BTreeMap<u64, Vec<u8>> =
            materialize_chain_with_vfs(dir.vfs().as_ref(), &full, &partials)
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k.0, v.to_vec()))
                .collect();
        assert_eq!(got, expected, "state diverged after GC crash at remove {k}");
    }
}
