//! Test fixtures shared across the workspace: the stored procedures every
//! recovery, replication and engine test is built from, a unique
//! scratch-directory helper, and a filesystem that counts its opens.
//!
//! The procedures are deliberately minimal — a key/value upsert, a
//! multi-key upsert and a delete — and deterministic functions of their
//! parameters, the property command-log replay relies on. [`registry`] is
//! handed to the live run and to recovery alike, so the pre-crash workload
//! and the post-crash replay run identical code.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use calc_common::types::Key;
use calc_common::vfs::{OsVfs, Vfs, VfsFile, VfsRead};
use calc_txn::proc::{params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps};

/// Procedure id of the upsert.
pub const SET: ProcId = ProcId(1);
/// Procedure id of the delete.
pub const DELETE: ProcId = ProcId(2);
/// Procedure id of the multi-key upsert.
pub const MSET: ProcId = ProcId(3);

fn key_footprint(p: &[u8]) -> Result<LockRequest, AbortReason> {
    let mut r = params::Reader::new(p);
    Ok(LockRequest {
        reads: vec![],
        writes: vec![Key(r.u64()?)],
    })
}

/// Upsert: `params = key:u64 | value bytes` (see [`set`]).
pub struct SetProc;

impl Procedure for SetProc {
    fn id(&self) -> ProcId {
        SET
    }
    fn name(&self) -> &'static str {
        "set"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        key_footprint(p)
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        upsert(ops, Key(r.u64()?), r.bytes()?);
        Ok(())
    }
}

fn upsert(ops: &mut dyn TxnOps, key: Key, value: &[u8]) {
    if ops.get(key).is_some() {
        ops.put(key, value);
    } else {
        ops.insert(key, value);
    }
}

/// Multi-key upsert in one transaction: `params = n:u32 | n × (key:u64 |
/// value bytes)` (see [`mset`]); it locks every key it writes.
pub struct MsetProc;

impl MsetProc {
    fn pairs(p: &[u8]) -> Result<Vec<(Key, &[u8])>, AbortReason> {
        let mut r = params::Reader::new(p);
        (0..r.u32()?)
            .map(|_| Ok((Key(r.u64()?), r.bytes()?)))
            .collect()
    }
}

impl Procedure for MsetProc {
    fn id(&self) -> ProcId {
        MSET
    }
    fn name(&self) -> &'static str {
        "mset"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        Ok(LockRequest {
            reads: vec![],
            writes: Self::pairs(p)?.into_iter().map(|(key, _)| key).collect(),
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        for (key, value) in Self::pairs(p)? {
            upsert(ops, key, value);
        }
        Ok(())
    }
}

/// Delete: `params = key:u64` (see [`delete`]). Deleting an absent key
/// is a no-op.
pub struct DeleteProc;

impl Procedure for DeleteProc {
    fn id(&self) -> ProcId {
        DELETE
    }
    fn name(&self) -> &'static str {
        "delete"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        key_footprint(p)
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        ops.delete(Key(r.u64()?));
        Ok(())
    }
}

/// A registry holding [`SetProc`], [`DeleteProc`] and [`MsetProc`].
pub fn registry() -> ProcRegistry {
    let mut r = ProcRegistry::new();
    r.register(Arc::new(SetProc));
    r.register(Arc::new(DeleteProc));
    r.register(Arc::new(MsetProc));
    r
}

/// Parameters for [`SET`]: upsert `key` to `value`.
pub fn set(key: u64, value: &[u8]) -> Arc<[u8]> {
    params::Writer::new().u64(key).bytes(value).finish()
}

/// Parameters for [`SET`] storing `value` as 8 little-endian bytes.
pub fn set_u64(key: u64, value: u64) -> Arc<[u8]> {
    set(key, &value.to_le_bytes())
}

/// Parameters for [`DELETE`].
pub fn delete(key: u64) -> Arc<[u8]> {
    params::Writer::new().u64(key).finish()
}

/// Parameters for [`MSET`]: upsert every `(key, value)`.
pub fn mset(pairs: &[(u64, &[u8])]) -> Arc<[u8]> {
    pairs
        .iter()
        .fold(
            params::Writer::new().u32(pairs.len() as u32),
            |w, (key, value)| w.u64(*key).bytes(value),
        )
        .finish()
}

/// A fresh, empty scratch directory under the system temp dir, unique per
/// call (process id + a counter), so tests running on parallel threads or
/// in parallel processes never share one.
pub fn temp_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "calc-test-{}-{}-{name}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The real filesystem, counting `open_read` calls per path: the restart
/// tests' proof of how often each checkpoint file was read.
#[derive(Debug, Default)]
pub struct CountingVfs {
    opens: Mutex<BTreeMap<PathBuf, usize>>,
}

impl CountingVfs {
    /// `open_read` calls so far, per path.
    pub fn opens(&self) -> BTreeMap<PathBuf, usize> {
        self.opens.lock().unwrap().clone()
    }

    /// `open_read` calls so far for `path`.
    pub fn opens_of(&self, path: &Path) -> usize {
        self.opens.lock().unwrap().get(path).copied().unwrap_or(0)
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        OsVfs.create(path)
    }
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsRead>> {
        *self
            .opens
            .lock()
            .unwrap()
            .entry(path.to_path_buf())
            .or_default() += 1;
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
}
