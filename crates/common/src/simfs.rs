//! Deterministic fault-injecting in-memory filesystem for crash testing.
//!
//! [`SimVfs`] implements [`crate::vfs::Vfs`] over two namespaces:
//!
//! * the **current** namespace — what a running process observes
//!   (page cache + directory cache), and
//! * the **durable** namespace — the bytes and directory entries that
//!   would actually survive a power loss right now.
//!
//! File contents track a `durable_len` watermark advanced only by
//! [`crate::vfs::VfsFile::sync`]. Directory mutations (create, rename,
//! remove) are applied to the current namespace immediately but queue as
//! *pending* entries against their parent directory; only
//! [`crate::vfs::Vfs::sync_dir`] drains them into the durable namespace.
//! This is the strict POSIX model: an atomic rename is not persistent
//! until the parent directory itself is fsynced.
//!
//! A seeded [`FaultSpec`] arms exactly one fault at a chosen operation
//! index (counted per operation class). When it fires the filesystem
//! "crashes": the faulting call and every later call return
//! `ErrorKind::Other("simulated crash")`. [`SimVfs::recover_view`] then
//! reboots the disk: each file is truncated to its durable prefix plus a
//! seeded slice of its unsynced tail (modelling partial page writeback),
//! and pending directory operations survive according to the configured
//! [`DirCrashMode`]. Everything is driven by [`crate::rng::SplitMix`], so
//! one seed reproduces one exact crash state.
//!
//! Simplifications, documented so tests don't over-trust the model:
//! directories themselves are always durable once created (only their
//! *entries* are subject to loss), and files are append-only, matching
//! how checkpoints and the command log are written.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Cursor};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::rng::SplitMix;
use crate::vfs::{Vfs, VfsFile, VfsRead};

/// The kinds of fault [`SimVfs`] can inject, per the crash taxonomy in
/// DESIGN.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The `at`-th write persists only a seeded prefix of its bytes (the
    /// fragment is made durable, modelling a partial sector write), then
    /// the system crashes.
    TornWrite,
    /// The `at`-th sync (file fsync or directory fsync, one shared
    /// index) returns `Ok` without making anything durable. No crash is
    /// raised; the driver calls [`SimVfs::force_crash`] at a time of its
    /// choosing, after the caller has acted on the lying `Ok`.
    DropFsync,
    /// Crash immediately *before* the `at`-th rename: neither namespace
    /// changes.
    CrashBeforeRename,
    /// Crash immediately *after* the `at`-th rename, with the rename
    /// itself durable (journal ordering can persist a rename ahead of
    /// everything queued around it). Models "checkpoint published but
    /// manifest GC never ran".
    CrashAfterRename,
}

/// A single armed fault: fire `kind` at the `at`-th operation of its
/// class (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which fault to inject.
    pub kind: FaultKind,
    /// 0-based index within the fault's operation class.
    pub at: u64,
}

/// The error class a [`TransientSpec`] window injects. Unlike
/// [`FaultKind`], these do **not** crash the filesystem — the failing
/// call returns an error and later calls proceed normally, modelling a
/// disk that misbehaves and then recovers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransientKind {
    /// Data writes inside the window fail with a retryable
    /// `ErrorKind::Interrupted` error; nothing is appended.
    WriteError,
    /// Data writes *and* file creations inside the window fail with
    /// `ENOSPC` (raw OS error 28), modelling a full disk that later
    /// frees up.
    Enospc,
}

/// A window of transient failures over the combined data-operation index
/// ([`OpCounts::data_ops`], i.e. writes + creates): operations whose
/// index falls in `[from, from + count)` fail per `kind`. Failing
/// operations still consume their index, so deterministic retries walk
/// *through* the window instead of spinning at its leading edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransientSpec {
    /// Which error class to inject.
    pub kind: TransientKind,
    /// First data-op index (0-based) inside the window.
    pub from: u64,
    /// Number of data-op indices the window covers.
    pub count: u64,
}

/// How pending (un-fsynced) directory operations behave at crash time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DirCrashMode {
    /// Each pending operation independently survives with probability
    /// one half, drawn from the seed. The default.
    #[default]
    Seeded,
    /// Adversarial: pending removes all persist, pending adds and
    /// renames are all lost. The worst case for GC racing a crash.
    RemovesOnly,
}

/// Per-class operation counters, readable via [`SimVfs::counts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `write_all` calls on any file handle.
    pub writes: u64,
    /// File fsyncs.
    pub fsyncs: u64,
    /// Directory fsyncs.
    pub dir_syncs: u64,
    /// Renames.
    pub renames: u64,
    /// File removals.
    pub removes: u64,
    /// File creations.
    pub creates: u64,
}

impl OpCounts {
    /// Combined fsync-class index (file + directory syncs), the stream
    /// [`FaultKind::DropFsync`] indexes into.
    pub fn sync_events(&self) -> u64 {
        self.fsyncs + self.dir_syncs
    }

    /// Total of every counted operation, handy for exhaustive sweeps.
    pub fn total(&self) -> u64 {
        self.writes + self.fsyncs + self.dir_syncs + self.renames + self.removes + self.creates
    }

    /// Combined data-operation index (writes + creates), the stream
    /// [`TransientSpec`] windows index into.
    pub fn data_ops(&self) -> u64 {
        self.writes + self.creates
    }
}

#[derive(Clone, Debug)]
enum DirOp {
    Add(PathBuf, u64),
    Remove(PathBuf),
    Rename(PathBuf, PathBuf),
}

#[derive(Debug)]
struct FileNode {
    content: Vec<u8>,
    durable_len: usize,
}

#[derive(Debug)]
struct SimState {
    files: BTreeMap<u64, FileNode>,
    current: BTreeMap<PathBuf, u64>,
    durable: BTreeMap<PathBuf, u64>,
    dirs: BTreeSet<PathBuf>,
    pending: BTreeMap<PathBuf, Vec<DirOp>>,
    next_inode: u64,
    counts: OpCounts,
    fault: Option<FaultSpec>,
    transient: Option<TransientSpec>,
    transient_hits: u64,
    fault_fired: bool,
    crashed: bool,
    fsyncs_dropped: u64,
    sync_enospc: bool,
    remove_crash_at: Option<u64>,
    dir_crash_mode: DirCrashMode,
    seed: u64,
}

/// The fault-injecting simulated filesystem. Cloning shares the state.
#[derive(Clone, Debug)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
}

const CRASH_SALT: u64 = 0x51b7_a5ed_c845_0f1d;

fn crash_err() -> io::Error {
    io::Error::other("simulated crash")
}

fn parent_of(path: &Path) -> PathBuf {
    path.parent().unwrap_or_else(|| Path::new("")).to_path_buf()
}

impl SimState {
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_err())
        } else {
            Ok(())
        }
    }

    /// Returns the injected error if data-op index `idx` lies inside an
    /// armed transient window and the window's kind covers `write`
    /// (WriteError windows spare creates; ENOSPC hits both).
    fn transient_err(&mut self, idx: u64, write: bool) -> Option<io::Error> {
        let spec = self.transient?;
        if idx < spec.from || idx >= spec.from.saturating_add(spec.count) {
            return None;
        }
        match spec.kind {
            TransientKind::WriteError if write => {
                self.transient_hits += 1;
                Some(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "simulated transient write error",
                ))
            }
            TransientKind::WriteError => None,
            TransientKind::Enospc => {
                self.transient_hits += 1;
                Some(io::Error::from_raw_os_error(28))
            }
        }
    }

    /// True when the armed fault matches `kind` at class-index `idx`.
    fn fault_matches(&self, kind: FaultKind, idx: u64) -> bool {
        !self.fault_fired
            && self
                .fault
                .map(|f| f.kind == kind && f.at == idx)
                .unwrap_or(false)
    }

    fn apply_durable(&mut self, op: &DirOp) {
        match op {
            DirOp::Add(path, inode) => {
                self.durable.insert(path.clone(), *inode);
            }
            DirOp::Remove(path) => {
                self.durable.remove(path);
            }
            DirOp::Rename(from, to) => {
                if let Some(inode) = self.durable.remove(from) {
                    self.durable.insert(to.clone(), inode);
                }
            }
        }
    }
}

struct SimFile {
    state: Arc<Mutex<SimState>>,
    inode: u64,
}

impl VfsFile for SimFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        st.check_alive()?;
        let idx = st.counts.writes;
        let didx = st.counts.data_ops();
        st.counts.writes += 1;
        if let Some(err) = st.transient_err(didx, true) {
            return Err(err);
        }
        if st.fault_matches(FaultKind::TornWrite, idx) {
            st.fault_fired = true;
            st.crashed = true;
            let seed = st.seed;
            let keep = SplitMix::new(seed ^ CRASH_SALT ^ idx).next_below(buf.len() as u64 + 1);
            let node = st.files.get_mut(&self.inode).expect("inode live");
            node.content.extend_from_slice(&buf[..keep as usize]);
            // The fragment reached the platter: everything up to and
            // including it is durable, which is what makes the write
            // *torn* rather than merely lost.
            node.durable_len = node.content.len();
            return Err(crash_err());
        }
        let node = st.files.get_mut(&self.inode).expect("inode live");
        node.content.extend_from_slice(buf);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.state.lock().check_alive()
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state.lock();
        st.check_alive()?;
        let idx = st.counts.sync_events();
        st.counts.fsyncs += 1;
        if st.fault_matches(FaultKind::DropFsync, idx) {
            st.fault_fired = true;
            st.fsyncs_dropped += 1;
            return Ok(()); // the lie: report durability without providing it
        }
        if st.sync_enospc {
            return Err(io::Error::from_raw_os_error(28));
        }
        let node = st.files.get_mut(&self.inode).expect("inode live");
        node.durable_len = node.content.len();
        Ok(())
    }
}

impl SimVfs {
    /// A fault-free simulated filesystem (still counts operations and
    /// still crashes on demand via [`SimVfs::force_crash`]).
    pub fn new(seed: u64) -> Self {
        Self::build(seed, None)
    }

    /// A simulated filesystem with one armed fault.
    pub fn with_fault(seed: u64, fault: FaultSpec) -> Self {
        Self::build(seed, Some(fault))
    }

    fn build(seed: u64, fault: Option<FaultSpec>) -> Self {
        SimVfs {
            state: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                current: BTreeMap::new(),
                durable: BTreeMap::new(),
                dirs: BTreeSet::new(),
                pending: BTreeMap::new(),
                next_inode: 1,
                counts: OpCounts::default(),
                fault,
                transient: None,
                transient_hits: 0,
                fault_fired: false,
                crashed: false,
                fsyncs_dropped: 0,
                sync_enospc: false,
                remove_crash_at: None,
                dir_crash_mode: DirCrashMode::default(),
                seed,
            })),
        }
    }

    /// Selects how pending directory operations survive a crash.
    pub fn set_dir_crash_mode(&self, mode: DirCrashMode) {
        self.state.lock().dir_crash_mode = mode;
    }

    /// Arms (or replaces) a transient failure window. Pass a window with
    /// `count == 0` to disarm. Unlike [`FaultSpec`] faults a window does
    /// not crash the filesystem; see [`TransientSpec`].
    pub fn arm_transient(&self, spec: TransientSpec) {
        self.state.lock().transient = (spec.count > 0).then_some(spec);
    }

    /// While set, every file fsync fails with `ENOSPC` and makes nothing
    /// durable: a full disk as a *buffered* writer meets it — at flush
    /// time, not at `write` — which is where `OsVfs`'s `BufWriter`
    /// surfaces it for the command log. ([`TransientKind::Enospc`]
    /// windows fail the write itself.) Clearing it models freed space.
    pub fn set_sync_enospc(&self, full: bool) {
        self.state.lock().sync_enospc = full;
    }

    /// Number of operations a transient window has failed so far.
    pub fn transient_hits(&self) -> u64 {
        self.state.lock().transient_hits
    }

    /// Arms a crash immediately before the `n`-th (0-based) file
    /// removal — the GC-racing-crash scenario.
    pub fn crash_before_remove(&self, n: u64) {
        self.state.lock().remove_crash_at = Some(n);
    }

    /// Crashes the filesystem now: every subsequent operation fails
    /// until [`SimVfs::recover_view`].
    pub fn force_crash(&self) {
        self.state.lock().crashed = true;
    }

    /// Whether the armed fault has fired.
    pub fn fault_fired(&self) -> bool {
        self.state.lock().fault_fired
    }

    /// Whether the filesystem is currently in the crashed state.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Number of fsyncs acknowledged without effect (dropped).
    pub fn fsyncs_dropped(&self) -> u64 {
        self.state.lock().fsyncs_dropped
    }

    /// Snapshot of the per-class operation counters.
    pub fn counts(&self) -> OpCounts {
        self.state.lock().counts
    }

    /// Reboots after a crash (or simulates a surprise power cut on a
    /// healthy filesystem): computes the surviving disk state and makes
    /// it the new current state, clears the crash flag, and disarms any
    /// remaining fault so recovery code runs against an honest disk.
    pub fn recover_view(&self) {
        let mut st = self.state.lock();
        let mut rng = SplitMix::new(st.seed ^ CRASH_SALT);

        // Unsynced file tails survive as a seeded prefix, modelling the
        // page cache writing back an arbitrary prefix before power loss.
        // Iteration is over the BTreeMap, so draws are deterministic.
        for (_, node) in st.files.iter_mut() {
            let unsynced = node.content.len() - node.durable_len;
            let extra = rng.next_below(unsynced as u64 + 1) as usize;
            node.content.truncate(node.durable_len + extra);
            node.durable_len = node.content.len();
        }

        // Pending directory operations survive per the crash mode.
        let pending = std::mem::take(&mut st.pending);
        for (_, ops) in pending {
            for op in ops {
                let survives = match st.dir_crash_mode {
                    DirCrashMode::Seeded => rng.chance(0.5),
                    DirCrashMode::RemovesOnly => matches!(op, DirOp::Remove(_)),
                };
                if survives {
                    st.apply_durable(&op);
                }
            }
        }

        st.current = st.durable.clone();
        let live: BTreeSet<u64> = st.current.values().copied().collect();
        st.files.retain(|inode, _| live.contains(inode));
        st.crashed = false;
        st.fault = None;
        st.transient = None;
        st.fault_fired = false;
        st.remove_crash_at = None;
    }
}

impl Vfs for SimVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.state.lock();
        st.check_alive()?;
        let didx = st.counts.data_ops();
        st.counts.creates += 1;
        if let Some(err) = st.transient_err(didx, false) {
            return Err(err);
        }
        let inode = st.next_inode;
        st.next_inode += 1;
        st.files.insert(
            inode,
            FileNode {
                content: Vec::new(),
                durable_len: 0,
            },
        );
        st.current.insert(path.to_path_buf(), inode);
        st.pending
            .entry(parent_of(path))
            .or_default()
            .push(DirOp::Add(path.to_path_buf(), inode));
        Ok(Box::new(SimFile {
            state: self.state.clone(),
            inode,
        }))
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsRead>> {
        let st = self.state.lock();
        st.check_alive()?;
        let inode = st
            .current
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        let content = st.files[inode].content.clone();
        Ok(Box::new(Cursor::new(content)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        st.check_alive()?;
        let idx = st.counts.renames;
        st.counts.renames += 1;
        if st.fault_matches(FaultKind::CrashBeforeRename, idx) {
            st.fault_fired = true;
            st.crashed = true;
            return Err(crash_err());
        }
        let inode = st
            .current
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "rename source missing"))?;
        st.current.insert(to.to_path_buf(), inode);
        if st.fault_matches(FaultKind::CrashAfterRename, idx) {
            st.fault_fired = true;
            st.crashed = true;
            // The rename itself reached the journal: persist the final
            // name (pointing at the file's current durable content) and
            // drop the old one, bypassing the pending queue.
            st.durable.remove(from);
            st.durable.insert(to.to_path_buf(), inode);
            // Discard any queued ops for these names so recover_view
            // cannot double-apply or resurrect the temp name.
            let parent = parent_of(to);
            if let Some(ops) = st.pending.get_mut(&parent) {
                ops.retain(|op| match op {
                    DirOp::Add(p, _) | DirOp::Remove(p) => p != from && p != to,
                    DirOp::Rename(f, t) => f != from && t != to,
                });
            }
            return Err(crash_err());
        }
        st.pending
            .entry(parent_of(to))
            .or_default()
            .push(DirOp::Rename(from.to_path_buf(), to.to_path_buf()));
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        st.check_alive()?;
        let idx = st.counts.removes;
        st.counts.removes += 1;
        if st.remove_crash_at == Some(idx) {
            st.crashed = true;
            return Err(crash_err());
        }
        st.current
            .remove(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        st.pending
            .entry(parent_of(path))
            .or_default()
            .push(DirOp::Remove(path.to_path_buf()));
        Ok(())
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self.state.lock();
        st.check_alive()?;
        Ok(st
            .current
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        st.check_alive()?;
        let mut d = dir.to_path_buf();
        loop {
            st.dirs.insert(d.clone());
            match d.parent() {
                Some(p) if !p.as_os_str().is_empty() => d = p.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.state.lock();
        st.check_alive()?;
        let idx = st.counts.sync_events();
        st.counts.dir_syncs += 1;
        if st.fault_matches(FaultKind::DropFsync, idx) {
            st.fault_fired = true;
            st.fsyncs_dropped += 1;
            return Ok(());
        }
        if let Some(ops) = st.pending.remove(dir) {
            for op in &ops {
                st.apply_durable(op);
            }
        }
        Ok(())
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        let st = self.state.lock();
        st.check_alive()?;
        let inode = st
            .current
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        Ok(st.files[inode].content.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn write_publish(vfs: &SimVfs, dir: &str, tmp: &str, fin: &str, data: &[u8]) -> io::Result<()> {
        vfs.create_dir_all(&p(dir))?;
        let mut f = vfs.create(&p(tmp))?;
        f.write_all(data)?;
        f.sync()?;
        vfs.rename(&p(tmp), &p(fin))?;
        vfs.sync_dir(&p(dir))?;
        Ok(())
    }

    #[test]
    fn synced_and_published_file_survives_crash() {
        let vfs = SimVfs::new(7);
        write_publish(&vfs, "/d", "/d/.tmp", "/d/final", b"abc").unwrap();
        vfs.force_crash();
        assert!(vfs.len(&p("/d/final")).is_err());
        vfs.recover_view();
        assert_eq!(vfs.len(&p("/d/final")).unwrap(), 3);
        let mut buf = Vec::new();
        vfs.open_read(&p("/d/final")).unwrap().read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"abc");
    }

    #[test]
    fn unsynced_rename_may_be_lost_and_removes_only_is_adversarial() {
        let vfs = SimVfs::new(3);
        vfs.set_dir_crash_mode(DirCrashMode::RemovesOnly);
        vfs.create_dir_all(&p("/d")).unwrap();
        let mut f = vfs.create(&p("/d/.tmp")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        vfs.rename(&p("/d/.tmp"), &p("/d/final")).unwrap();
        // No sync_dir: the rename (and the create) are pending.
        vfs.force_crash();
        vfs.recover_view();
        assert!(vfs.open_read(&p("/d/final")).is_err());
        assert!(vfs.open_read(&p("/d/.tmp")).is_err());
    }

    #[test]
    fn dropped_fsync_leaves_data_volatile() {
        let vfs = SimVfs::with_fault(
            11,
            FaultSpec {
                kind: FaultKind::DropFsync,
                at: 0,
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        let mut f = vfs.create(&p("/d/log")).unwrap();
        f.write_all(b"payload").unwrap();
        f.sync().unwrap(); // lies
        assert_eq!(vfs.fsyncs_dropped(), 1);
        vfs.sync_dir(&p("/d")).unwrap(); // honest: name becomes durable
        vfs.force_crash();
        vfs.recover_view();
        // The name survived but the bytes were never durable; only a
        // seeded writeback prefix (possibly empty) remains.
        let n = vfs.len(&p("/d/log")).unwrap();
        assert!(n <= 7, "at most the written bytes survive, got {n}");
    }

    #[test]
    fn torn_write_persists_partial_fragment() {
        let vfs = SimVfs::with_fault(
            5,
            FaultSpec {
                kind: FaultKind::TornWrite,
                at: 1,
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        let mut f = vfs.create(&p("/d/log")).unwrap();
        f.write_all(b"first").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        let err = f.write_all(b"secondsecond").unwrap_err();
        assert_eq!(err.to_string(), "simulated crash");
        assert!(vfs.crashed());
        vfs.recover_view();
        let n = vfs.len(&p("/d/log")).unwrap() as usize;
        assert!((5..5 + 12).contains(&n), "torn tail in range, got {n}");
        let mut buf = Vec::new();
        vfs.open_read(&p("/d/log")).unwrap().read_to_end(&mut buf).unwrap();
        assert_eq!(&buf[..5], b"first");
        assert_eq!(&buf[5..], &b"secondsecond"[..n - 5]);
    }

    #[test]
    fn crash_before_rename_keeps_old_state() {
        let vfs = SimVfs::with_fault(
            9,
            FaultSpec {
                kind: FaultKind::CrashBeforeRename,
                at: 0,
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        let mut f = vfs.create(&p("/d/.tmp")).unwrap();
        f.write_all(b"x").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(&p("/d")).unwrap();
        assert!(vfs.rename(&p("/d/.tmp"), &p("/d/final")).is_err());
        vfs.recover_view();
        assert!(vfs.open_read(&p("/d/final")).is_err());
        assert_eq!(vfs.len(&p("/d/.tmp")).unwrap(), 1);
    }

    #[test]
    fn crash_after_rename_persists_final_name() {
        let vfs = SimVfs::with_fault(
            9,
            FaultSpec {
                kind: FaultKind::CrashAfterRename,
                at: 0,
            },
        );
        vfs.create_dir_all(&p("/d")).unwrap();
        let mut f = vfs.create(&p("/d/.tmp")).unwrap();
        f.write_all(b"xy").unwrap();
        f.sync().unwrap();
        // Note: no sync_dir — CrashAfterRename persists the final name
        // anyway, modelling journal ordering.
        assert!(vfs.rename(&p("/d/.tmp"), &p("/d/final")).is_err());
        vfs.recover_view();
        assert_eq!(vfs.len(&p("/d/final")).unwrap(), 2);
        assert!(vfs.open_read(&p("/d/.tmp")).is_err());
    }

    #[test]
    fn crash_before_remove_with_removes_only_mode() {
        let vfs = SimVfs::new(13);
        vfs.set_dir_crash_mode(DirCrashMode::RemovesOnly);
        write_publish(&vfs, "/d", "/d/.t0", "/d/a", b"a").unwrap();
        write_publish(&vfs, "/d", "/d/.t1", "/d/b", b"b").unwrap();
        write_publish(&vfs, "/d", "/d/.t2", "/d/c", b"c").unwrap();
        vfs.crash_before_remove(1);
        vfs.remove_file(&p("/d/a")).unwrap();
        assert!(vfs.remove_file(&p("/d/b")).is_err());
        vfs.recover_view();
        // The first unlink persisted (RemovesOnly), the second never ran.
        assert!(vfs.open_read(&p("/d/a")).is_err());
        assert_eq!(vfs.len(&p("/d/b")).unwrap(), 1);
        assert_eq!(vfs.len(&p("/d/c")).unwrap(), 1);
    }

    #[test]
    fn transient_write_window_fails_then_recovers() {
        let vfs = SimVfs::new(21);
        vfs.create_dir_all(&p("/d")).unwrap();
        let mut f = vfs.create(&p("/d/log")).unwrap(); // data-op 0
        f.write_all(b"ok0").unwrap(); // data-op 1
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::WriteError,
            from: 2,
            count: 2,
        });
        let e = f.write_all(b"fail").unwrap_err(); // data-op 2: in window
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        let e = f.write_all(b"fail").unwrap_err(); // data-op 3: in window
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        assert!(!vfs.crashed(), "transient errors never crash the fs");
        f.write_all(b"ok1").unwrap(); // data-op 4: past the window
        assert_eq!(vfs.transient_hits(), 2);
        f.sync().unwrap();
        assert_eq!(vfs.len(&p("/d/log")).unwrap(), 6, "failed writes left no bytes");
    }

    #[test]
    fn enospc_window_fails_creates_and_writes() {
        let vfs = SimVfs::new(22);
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.arm_transient(TransientSpec {
            kind: TransientKind::Enospc,
            from: 0,
            count: 2,
        });
        let e = vfs.create(&p("/d/a")).err().expect("enospc"); // data-op 0
        assert_eq!(e.raw_os_error(), Some(28));
        let e = vfs.create(&p("/d/a")).err().expect("enospc"); // data-op 1
        assert_eq!(e.raw_os_error(), Some(28));
        // Window exhausted: the disk "freed up".
        let mut f = vfs.create(&p("/d/a")).unwrap();
        f.write_all(b"x").unwrap();
        assert_eq!(vfs.transient_hits(), 2);
    }

    #[test]
    fn determinism_same_seed_same_recovered_state() {
        let run = |seed: u64| -> Vec<(PathBuf, u64)> {
            let vfs = SimVfs::new(seed);
            vfs.create_dir_all(&p("/d")).unwrap();
            for i in 0..6 {
                let tmp = p(&format!("/d/.t{i}"));
                let fin = p(&format!("/d/f{i}"));
                let mut f = vfs.create(&tmp).unwrap();
                f.write_all(&[i as u8; 64]).unwrap();
                if i % 2 == 0 {
                    f.sync().unwrap();
                }
                vfs.rename(&tmp, &fin).unwrap();
                if i % 3 == 0 {
                    vfs.sync_dir(&p("/d")).unwrap();
                }
            }
            vfs.force_crash();
            vfs.recover_view();
            vfs.read_dir(&p("/d"))
                .unwrap()
                .into_iter()
                .map(|f| {
                    let n = vfs.len(&f).unwrap();
                    (f, n)
                })
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_eq!(run(43), run(43));
        assert_ne!(run(42), run(1042), "different seeds should differ somewhere");
    }
}
