//! Regression tests for the two missing-directory-fsync durability bugs
//! the simulator caught in the seed code, pinned forever: each test
//! replays the *pre-fix* IO sequence with raw [`Vfs`] primitives and
//! shows the data is lost, then runs the *fixed* code path and shows it
//! survives the identical crash.
//!
//! Both use [`DirCrashMode::RemovesOnly`], the adversarial-but-legal
//! POSIX outcome where no un-fsynced directory mutation survives a power
//! loss. `rename(2)` is atomic but not durable until the parent
//! directory is fsynced; same for a newly created file's *name*.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use calc_common::simfs::{DirCrashMode, SimVfs};
use calc_common::types::{CommitSeq, Key, TxnId};
use calc_common::vfs::Vfs;
use calc_core::file::CheckpointKind;
use calc_core::manifest::{CheckpointDir, RestartChain};
use calc_core::partition::capture_parts;
use calc_core::throttle::Throttle;
use calc_recovery::logfile::segment_file_name;
use calc_recovery::{read_dir_logs, SegmentedLogWriter};
use calc_txn::commitlog::CommitRecord;
use calc_txn::proc::ProcId;

fn adversarial_vfs(seed: u64) -> SimVfs {
    let vfs = SimVfs::new(seed);
    vfs.set_dir_crash_mode(DirCrashMode::RemovesOnly);
    vfs
}

fn open_dir(vfs: &SimVfs, path: &str) -> CheckpointDir {
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    CheckpointDir::open_with_vfs(&PathBuf::from(path), Arc::new(Throttle::unlimited()), v)
        .unwrap()
}

/// Publishes the one-record cycle both halves of the test use.
fn publish_cycle(dir: &CheckpointDir) {
    capture_parts(dir, CheckpointKind::Full, 1, CommitSeq(5), &[], 1, |_, w, _| {
        w.write_record(Key(7), b"payload")
    })
    .unwrap();
}

/// The seed's original publish sequence, aimed at the manifest: fsync the
/// part, fsync the temp manifest, rename it into place, and stop — no
/// parent-directory fsync. The bytes are those of a real cycle published
/// on a scratch disk, so the missing fsync is the only difference.
fn publish_without_dir_fsync(vfs: &dyn Vfs, dir: &Path) {
    let scratch = SimVfs::new(0xD1F_F50);
    let real = open_dir(&scratch, "/a/ckpts");
    publish_cycle(&real);
    let bytes_of = |name: &str| {
        let mut buf = Vec::new();
        scratch
            .open_read(&real.path().join(name))
            .unwrap()
            .read_to_end(&mut buf)
            .unwrap();
        buf
    };
    let write_synced = |path: &Path, bytes: &[u8]| {
        let mut f = vfs.create(path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync().unwrap();
    };
    let part = CheckpointDir::part_file_name(1, CheckpointKind::Full, 0);
    let manifest = CheckpointDir::manifest_file_name(1, CheckpointKind::Full);
    write_synced(&dir.join(&part), &bytes_of(&part));
    let tmp = dir.join(format!(".tmp-{manifest}"));
    write_synced(&tmp, &bytes_of(&manifest));
    vfs.rename(&tmp, &dir.join(&manifest)).unwrap();
    // (missing) vfs.sync_dir(dir)
}

#[test]
fn manifest_publish_rename_needs_parent_dir_fsync() {
    // Pre-fix sequence: the checkpoint vanishes wholesale.
    let vfs = adversarial_vfs(0xD1F_F51);
    let dir = open_dir(&vfs, "/a/ckpts");
    vfs.sync_dir(&PathBuf::from("/a/ckpts")).unwrap(); // directory itself durable
    publish_without_dir_fsync(dir.vfs().as_ref(), dir.path());
    assert!(
        matches!(dir.restart_chain().unwrap(), RestartChain::Chain(..)),
        "the replayed sequence is a complete, valid cycle before the crash"
    );
    vfs.force_crash();
    vfs.recover_view();
    let dir = open_dir(&vfs, "/a/ckpts");
    assert!(
        !matches!(dir.restart_chain().unwrap(), RestartChain::Chain(..)),
        "rename without dir fsync must be lossy under RemovesOnly — \
         if this starts failing, the simulator's POSIX model regressed"
    );

    // Fixed path (`PendingPartsCheckpoint::publish`): survives the same
    // crash.
    let vfs = adversarial_vfs(0xD1F_F52);
    let dir = open_dir(&vfs, "/a/ckpts");
    publish_cycle(&dir);
    vfs.force_crash();
    vfs.recover_view();
    let dir = open_dir(&vfs, "/a/ckpts");
    let RestartChain::Chain(full, partials) = dir.restart_chain().unwrap() else {
        panic!("published checkpoint must survive the crash");
    };
    assert_eq!(full.id, 1);
    assert_eq!(full.records, 1);
    assert!(partials.is_empty());
}

#[test]
fn command_log_creation_needs_parent_dir_fsync() {
    let rec = CommitRecord {
        seq: CommitSeq(1),
        txn: TxnId(1),
        proc: ProcId(1),
        params: Arc::from(&b"xyz"[..]),
    };

    // Pre-fix sequence: create + append + fsync *the file* only. The
    // bytes are durable but the name that reaches them is not.
    let vfs = adversarial_vfs(0xD1F_F53);
    vfs.create_dir_all(&PathBuf::from("/b")).unwrap();
    vfs.sync_dir(&PathBuf::from("/")).unwrap();
    vfs.sync_dir(&PathBuf::from("/b")).unwrap();
    let path = PathBuf::from("/b").join(segment_file_name(0));
    {
        let mut out = vfs.create(&path).unwrap();
        // A segment created the way the writer does, minus its fixes.
        out.write_all(&[21, 0, 0, 0]).unwrap();
        out.sync().unwrap();
        // (missing) vfs.sync_dir("/b")
    }
    vfs.force_crash();
    vfs.recover_view();
    assert!(
        vfs.open_read(&path).is_err(),
        "un-fsynced file name must be lost under RemovesOnly"
    );

    // Fixed path (`SegmentedLogWriter::create`): the segment's name is
    // durable before the first commit is acknowledged.
    let vfs = adversarial_vfs(0xD1F_F54);
    vfs.create_dir_all(&PathBuf::from("/b")).unwrap();
    vfs.sync_dir(&PathBuf::from("/")).unwrap();
    vfs.sync_dir(&PathBuf::from("/b")).unwrap();
    {
        let mut w =
            SegmentedLogWriter::create(Arc::new(vfs.clone()), &PathBuf::from("/b"), 64 << 20)
                .unwrap();
        assert_eq!(w.active_index(), 0);
        w.append(&rec).unwrap();
        w.sync().unwrap();
    }
    vfs.force_crash();
    vfs.recover_view();
    assert!(vfs.open_read(&path).is_ok(), "fsynced segment name must survive the crash");
    let records = read_dir_logs(&vfs, &PathBuf::from("/b")).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].seq, CommitSeq(1));
    assert_eq!(&records[0].params[..], b"xyz");
}
