//! Test fixtures shared across the workspace: the two stored procedures
//! every recovery, replication and engine test is built from, and a
//! unique scratch-directory helper.
//!
//! The procedures are deliberately minimal — a key/value upsert and a
//! delete — and deterministic functions of their parameters, the property
//! command-log replay relies on. [`registry`] is handed to the live run
//! and to recovery alike, so the pre-crash workload and the post-crash
//! replay run identical code.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use calc_common::types::Key;
use calc_txn::proc::{params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps};

/// Procedure id of the upsert.
pub const SET: ProcId = ProcId(1);
/// Procedure id of the delete.
pub const DELETE: ProcId = ProcId(2);

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
        let key = Key(r.u64()?);
        let val = r.bytes()?;
        if ops.get(key).is_some() {
            ops.put(key, val);
        } else {
            ops.insert(key, val);
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

/// A registry holding [`SetProc`] and [`DeleteProc`].
pub fn registry() -> ProcRegistry {
    let mut r = ProcRegistry::new();
    r.register(Arc::new(SetProc));
    r.register(Arc::new(DeleteProc));
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
