//! pFuzzy's asynchronous flush can write two values of one key into one
//! cycle, forced here deterministically at stripe level.
//!
//! Capture parts are stripes of *slots*, not keys, and a delete hands its
//! slot back for the next insert. So if key k sits in slot A (stripe 0)
//! and a dirty, freed slot B sits in stripe 1, the flush can read A
//! before a transaction deletes k and re-inserts it into B, and read B
//! after: the cycle then holds two values of k. pFuzzy is not
//! transaction-consistent (the paper's point), and recovery refuses its
//! cycles, so this is the scheme's nature rather than a capture bug.
//!
//! The interleaving is forced through the checkpoint directory's `Vfs`:
//! stripe 0 captures A's record and stripe 1 its first record (both
//! larger than a frame, so each is written out at once), then each
//! stripe blocks in the write until the test has run its transaction.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};

use calc_baselines::FuzzyStrategy;
use calc_common::types::Key;
use calc_common::vfs::{OsVfs, Vfs, VfsFile, VfsRead};
use calc_core::file::BLOCK_TARGET;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{CheckpointStrategy, NoopEnv, TxnToken};
use calc_core::throttle::Throttle;
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;

/// Where the capture stripes wait: each part's first frame-sized write
/// arrives here and blocks until the test opens the gate.
#[derive(Default)]
struct Gate {
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Gate {
    fn arrive_and_wait(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 += 1;
        self.changed.notify_all();
        while !s.1 {
            s = self.changed.wait(s).unwrap();
        }
    }

    fn wait_for(&self, stripes: usize) {
        let mut s = self.state.lock().unwrap();
        while s.0 < stripes {
            s = self.changed.wait(s).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Gate")
    }
}

/// The real filesystem, with part files whose first frame waits at the
/// gate.
#[derive(Debug)]
struct GateVfs(Arc<Gate>);

struct GatedFile {
    inner: Box<dyn VfsFile>,
    gate: Option<Arc<Gate>>,
}

impl VfsFile for GatedFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if buf.len() >= BLOCK_TARGET {
            if let Some(gate) = self.gate.take() {
                gate.arrive_and_wait();
            }
        }
        self.inner.write_all(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl Vfs for GateVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let part = path.to_string_lossy().contains(".part-");
        Ok(Box::new(GatedFile {
            inner: OsVfs.create(path)?,
            gate: part.then(|| self.0.clone()),
        }))
    }
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsRead>> {
        OsVfs.open_read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        OsVfs.remove_file(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        OsVfs.read_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        OsVfs.create_dir_all(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        OsVfs.sync_dir(dir)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        OsVfs.len(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        OsVfs.truncate(path, len)
    }
}

/// Runs `f` as one committed transaction.
fn commit(s: &FuzzyStrategy, log: &CommitLog, f: impl FnOnce(&mut TxnToken)) {
    let mut token = s.txn_begin();
    f(&mut token);
    let (seq, stamp) = log.append_commit();
    s.on_commit(&mut token, seq, stamp);
    s.txn_end(token);
}

#[test]
fn pfuzzy_flush_can_capture_one_key_in_two_stripes() {
    let path = std::env::temp_dir().join(format!("calc-pfuzzy-stripes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let gate = Arc::new(Gate::default());
    let vfs = Arc::new(GateVfs(gate.clone()));
    let dir = CheckpointDir::open_with_vfs(&path, Arc::new(Throttle::unlimited()), vfs).unwrap();
    dir.set_checkpoint_threads(2);

    let log = Arc::new(CommitLog::default());
    let s = FuzzyStrategy::partial(StoreConfig::for_records(16, 64), log.clone());
    assert!(!s.transaction_consistent());
    // Slots 0..4 in key order: k in A = slot 0, a frame-sized record in
    // slot 2 to hold stripe 1 back, and j in B = slot 3.
    let (k, j) = (Key(1), Key(4));
    let big = |b: u8| vec![b; BLOCK_TARGET + 1];
    let records: Vec<(Key, &[u8])> = (1..=4).map(|n| (Key(n), &b"v0"[..])).collect();
    assert_eq!(s.load_batch(&records).unwrap(), 4);
    assert_eq!(s.store().slot_of(k), Some(0));
    assert_eq!(s.store().slot_of(j), Some(3));

    // Interval 0 dirties all four slots and frees B.
    commit(&s, &log, |t| {
        s.apply_write(t, k, &big(1)).unwrap();
        s.apply_write(t, Key(2), b"v1").unwrap();
        s.apply_write(t, Key(3), &big(3)).unwrap();
        s.apply_delete(t, j).unwrap();
    });

    std::thread::scope(|scope| {
        // Stripes: slots [0, 1] in part 0, [2, 3] in part 1.
        let checkpoint = scope.spawn(|| s.checkpoint(&NoopEnv, &dir).unwrap());
        gate.wait_for(2);
        // Stripe 0 has read k from A; stripe 1 has not reached B. Delete
        // k and insert it again: the insert takes B off the free list
        // (A is freed only at commit).
        commit(&s, &log, |t| {
            s.apply_delete(t, k).unwrap();
            assert!(s.apply_insert(t, k, b"v2").unwrap());
        });
        assert_eq!(s.store().slot_of(k), Some(3), "k moved into B");
        gate.open();
        checkpoint.join().unwrap();
    });

    let cycles = dir.manifests();
    let [cycle] = &cycles[..] else {
        panic!("expected one published cycle, got {}", cycles.len());
    };
    let breach = cycle.shape_violation(&OsVfs, true).unwrap();
    let breach = breach.expect("the flush captured k twice");
    assert!(
        breach.contains(&format!(
            "key {k} has a value in part 0 and another in part 1"
        )),
        "{breach}"
    );
    // Tombstone placement holds all the same: j's tombstone leads part 0.
    assert_eq!(cycle.shape_violation(&OsVfs, false).unwrap(), None);
    let _ = std::fs::remove_dir_all(&path);
}
