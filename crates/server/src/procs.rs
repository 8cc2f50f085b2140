//! The server's stored-procedure set. The wire protocol's write verbs map
//! 1:1 onto these; registering them at both the server and any recovering
//! process is the determinism contract command-log replay depends on.

use std::sync::Arc;

use calc_common::types::Key;
use calc_txn::proc::{
    params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps,
};

/// Upsert one key: `u64 key, bytes value`.
pub const PUT: ProcId = ProcId(1);
/// Delete one key: `u64 key`; aborts if absent.
pub const DEL: ProcId = ProcId(2);
/// Compare-and-set: `u64 key, u8 flag, bytes expected-if-flag, bytes new`;
/// aborts on mismatch. `flag = 0` expects the key absent (pure insert).
pub const CAS: ProcId = ProcId(3);
/// Multi-key upsert in one transaction: `u32 n, n × (u64 key, bytes value)`.
pub const MPUT: ProcId = ProcId(4);

struct PutProc;
impl Procedure for PutProc {
    fn id(&self) -> ProcId {
        PUT
    }
    fn name(&self) -> &'static str {
        "put"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        Ok(LockRequest {
            reads: vec![],
            writes: vec![Key(r.u64()?)],
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let key = Key(r.u64()?);
        let value = r.bytes()?;
        if ops.get_with(key, &mut |_| {}) {
            ops.put(key, value);
        } else {
            ops.insert(key, value);
        }
        Ok(())
    }
}

struct DelProc;
impl Procedure for DelProc {
    fn id(&self) -> ProcId {
        DEL
    }
    fn name(&self) -> &'static str {
        "del"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        Ok(LockRequest {
            reads: vec![],
            writes: vec![Key(r.u64()?)],
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        if !ops.delete(Key(r.u64()?)) {
            return Err(AbortReason::Logic("no such key".into()));
        }
        Ok(())
    }
}

struct CasProc;
impl Procedure for CasProc {
    fn id(&self) -> ProcId {
        CAS
    }
    fn name(&self) -> &'static str {
        "cas"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        Ok(LockRequest {
            reads: vec![],
            writes: vec![Key(r.u64()?)],
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let key = Key(r.u64()?);
        let expects_value = r.u64()? != 0;
        let expected = if expects_value { Some(r.bytes()?) } else { None };
        let new = r.bytes()?;
        // Compared in place: the current value is never copied out.
        let mut matches = false;
        let present = ops.get_with(key, &mut |cur| matches = expected == Some(cur));
        match (expected, present) {
            (None, false) => {
                ops.insert(key, new);
                Ok(())
            }
            (Some(_), true) if matches => {
                ops.put(key, new);
                Ok(())
            }
            (None, true) => Err(AbortReason::Logic("cas: key already exists".into())),
            (Some(_), false) => Err(AbortReason::Logic("cas: key absent".into())),
            (Some(_), true) => Err(AbortReason::Logic("cas: value mismatch".into())),
        }
    }
}

struct MputProc;
impl Procedure for MputProc {
    fn id(&self) -> ProcId {
        MPUT
    }
    fn name(&self) -> &'static str {
        "mput"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        let n = r.u32()?;
        let mut writes = Vec::with_capacity(n as usize);
        for _ in 0..n {
            writes.push(Key(r.u64()?));
            r.bytes()?;
        }
        Ok(LockRequest {
            reads: vec![],
            writes,
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let n = r.u32()?;
        for _ in 0..n {
            let key = Key(r.u64()?);
            let value = r.bytes()?;
            if ops.get_with(key, &mut |_| {}) {
                ops.put(key, value);
            } else {
                ops.insert(key, value);
            }
        }
        Ok(())
    }
}

/// The registry every calc-server engine (serving or recovering) runs
/// with.
pub fn registry() -> ProcRegistry {
    let mut r = ProcRegistry::new();
    r.register(Arc::new(PutProc));
    r.register(Arc::new(DelProc));
    r.register(Arc::new(CasProc));
    r.register(Arc::new(MputProc));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};

    fn db(name: &str) -> Database {
        let dir = std::env::temp_dir().join(format!(
            "calc-server-procs-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = EngineConfig::new(StrategyKind::Calc, 1024, 64, dir);
        config.workers = 2;
        Database::open(config, registry()).unwrap()
    }

    #[test]
    fn cas_insert_update_and_mismatch() {
        let db = db("cas");
        // Insert (expect absent).
        let p = params::Writer::new().u64(1).u64(0).bytes(b"v1").finish();
        assert!(matches!(db.execute(CAS, p), TxnOutcome::Committed(_)));
        // Expect-absent against a present key aborts.
        let p = params::Writer::new().u64(1).u64(0).bytes(b"v2").finish();
        assert!(matches!(db.execute(CAS, p), TxnOutcome::Aborted(_)));
        // Matching swap succeeds.
        let p = params::Writer::new()
            .u64(1)
            .u64(1)
            .bytes(b"v1")
            .bytes(b"v2")
            .finish();
        assert!(matches!(db.execute(CAS, p), TxnOutcome::Committed(_)));
        assert_eq!(&*db.get(Key(1)).unwrap(), b"v2");
        // Stale expectation aborts and leaves the value intact.
        let p = params::Writer::new()
            .u64(1)
            .u64(1)
            .bytes(b"v1")
            .bytes(b"v3")
            .finish();
        assert!(matches!(db.execute(CAS, p), TxnOutcome::Aborted(_)));
        assert_eq!(&*db.get(Key(1)).unwrap(), b"v2");
    }

    #[test]
    fn mput_commits_all_keys_in_one_transaction() {
        let db = db("mput");
        let mut w = params::Writer::new().u32(3);
        for k in 10..13u64 {
            w = w.u64(k).bytes(&k.to_le_bytes());
        }
        let TxnOutcome::Committed(seq) = db.execute(MPUT, w.finish()) else {
            panic!("mput aborted");
        };
        for k in 10..13u64 {
            assert_eq!(&*db.get(Key(k)).unwrap(), &k.to_le_bytes());
        }
        // One transaction → one commit seq, one metrics commit.
        assert_eq!(db.metrics().committed(), 1);
        assert!(seq.0 > 0);
    }
}
