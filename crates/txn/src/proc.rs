//! The stored-procedure framework.
//!
//! §4 of the paper: *"Transactions in our system are implemented as C++
//! stored procedures, and are executed by a pool of worker threads."* Rust
//! equivalents implement [`Procedure`]: a procedure pre-declares its lock
//! set from its parameters (which is what makes the engine's deadlock-free
//! ordered acquisition, over `calc_common::lockword`, possible), then runs
//! against a [`TxnOps`] data interface supplied by the engine.
//!
//! **The covering-lock rule.** Every key a procedure touches must be
//! covered by a lock it declares: either the key itself, or a coarser
//! key that every transaction touching it also locks. TPC-C's Delivery,
//! for instance, reads, overwrites and deletes order, new-order and
//! order-line rows that only its district's exclusive lock covers. The
//! engine resolves each declared key to its slot once, before the
//! procedure runs; a key touched without being declared is looked up at
//! each access instead.
//!
//! Procedures must be **deterministic functions of their parameters and
//! the database state** — that is the contract that makes command-log
//! replay (§3) reconstruct the exact pre-crash state. Anything
//! non-deterministic (time, randomness) must be baked into the parameters
//! by the client.

use std::collections::HashMap;
use std::sync::Arc;

use calc_common::types::{Key, Value};

/// Identifier of a stored procedure, stable across restarts (it is written
/// to the command log).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcId(pub u16);

/// Why a transaction aborted. Aborted transactions are rolled back and are
/// *not* appended to the commit log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The procedure's own logic aborted (e.g. a constraint failed).
    Logic(String),
    /// Malformed parameters.
    BadParams(String),
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Logic(m) => write!(f, "logic abort: {m}"),
            AbortReason::BadParams(m) => write!(f, "bad params: {m}"),
        }
    }
}

impl std::error::Error for AbortReason {}

/// A transaction's pre-declared lock footprint. A key that appears in
/// both lists is locked exclusively.
#[derive(Clone, Debug, Default)]
pub struct LockRequest {
    /// Keys read (shared locks).
    pub reads: Vec<Key>,
    /// Keys written, inserted, or deleted (exclusive locks).
    pub writes: Vec<Key>,
}

/// Data operations available to procedure logic. The engine's executor
/// implements this, routing every mutation through the active
/// checkpointing strategy's `ApplyWrite` and recording undo images.
///
/// Each key must be covered by a declared lock — shared or stronger for
/// a read, exclusive for a write — on the key itself or on a key that
/// covers it (see the module docs' covering-lock rule).
pub trait TxnOps {
    /// Reads a record in place: calls `read` with its bytes and returns
    /// `true`, or returns `false` if the key is absent.
    fn get_with(&mut self, key: Key, read: &mut dyn FnMut(&[u8])) -> bool;
    /// Reads a record, copied out of the store.
    fn get(&mut self, key: Key) -> Option<Value> {
        let mut out = None;
        self.get_with(key, &mut |v| out = Some(v.into()));
        out
    }
    /// Overwrites an existing record.
    fn put(&mut self, key: Key, value: &[u8]);
    /// Inserts a new record; returns `false` (and changes nothing) if the
    /// key already exists.
    fn insert(&mut self, key: Key, value: &[u8]) -> bool;
    /// Deletes a record; returns `false` if the key does not exist.
    fn delete(&mut self, key: Key) -> bool;
}

/// A stored procedure. See module docs for the determinism contract.
pub trait Procedure: Send + Sync {
    /// Stable identifier (written to the command log).
    fn id(&self) -> ProcId;
    /// Human-readable name.
    fn name(&self) -> &'static str;
    /// Computes the lock footprint from the parameters, *before* any data
    /// access — required for deadlock-free ordered acquisition. It must
    /// cover every key `run` touches (the module docs' covering-lock
    /// rule); the declared keys are resolved once, the covered ones are
    /// looked up at each access.
    fn locks(&self, params: &[u8]) -> Result<LockRequest, AbortReason>;
    /// Runs the transaction logic.
    fn run(&self, params: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason>;
}

/// Registry mapping procedure ids to implementations — the dispatch table
/// for both live execution and command-log replay.
#[derive(Default)]
pub struct ProcRegistry {
    procs: HashMap<ProcId, Arc<dyn Procedure>>,
}

impl ProcRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a procedure.
    ///
    /// # Panics
    /// Panics if the id is already taken (ids must be unique for replay to
    /// be unambiguous).
    pub fn register(&mut self, proc: Arc<dyn Procedure>) {
        let id = proc.id();
        if self.procs.insert(id, proc).is_some() {
            panic!("duplicate procedure id {id:?}");
        }
    }

    /// Looks up a procedure.
    pub fn get(&self, id: ProcId) -> Option<&Arc<dyn Procedure>> {
        self.procs.get(&id)
    }

    /// Number of registered procedures.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

impl std::fmt::Debug for ProcRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProcRegistry({} procedures)", self.procs.len())
    }
}

/// Parameter encoding helpers shared by the built-in workloads: a simple
/// length-checked little-endian reader/writer, so procedures stay
/// dependency-free.
pub mod params {
    use super::AbortReason;

    /// Sequential little-endian reader over a parameter buffer.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Wraps a buffer.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// Reads a `u64`.
        pub fn u64(&mut self) -> Result<u64, AbortReason> {
            let end = self.pos + 8;
            if end > self.buf.len() {
                return Err(AbortReason::BadParams("truncated u64".into()));
            }
            let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().unwrap());
            self.pos = end;
            Ok(v)
        }

        /// Reads a `u32`.
        pub fn u32(&mut self) -> Result<u32, AbortReason> {
            let end = self.pos + 4;
            if end > self.buf.len() {
                return Err(AbortReason::BadParams("truncated u32".into()));
            }
            let v = u32::from_le_bytes(self.buf[self.pos..end].try_into().unwrap());
            self.pos = end;
            Ok(v)
        }

        /// Reads a length-prefixed byte slice.
        pub fn bytes(&mut self) -> Result<&'a [u8], AbortReason> {
            let len = self.u32()? as usize;
            let end = self.pos + len;
            if end > self.buf.len() {
                return Err(AbortReason::BadParams("truncated bytes".into()));
            }
            let s = &self.buf[self.pos..end];
            self.pos = end;
            Ok(s)
        }

        /// Remaining unread bytes.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }
    }

    /// Builder matching [`Reader`].
    #[derive(Default)]
    pub struct Writer {
        buf: Vec<u8>,
    }

    impl Writer {
        /// Empty builder.
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends a `u64`.
        pub fn u64(mut self, v: u64) -> Self {
            self.buf.extend_from_slice(&v.to_le_bytes());
            self
        }

        /// Appends a `u32`.
        pub fn u32(mut self, v: u32) -> Self {
            self.buf.extend_from_slice(&v.to_le_bytes());
            self
        }

        /// Appends a length-prefixed byte slice.
        pub fn bytes(mut self, b: &[u8]) -> Self {
            self.buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(b);
            self
        }

        /// Finishes into a shared buffer.
        pub fn finish(self) -> std::sync::Arc<[u8]> {
            std::sync::Arc::from(self.buf.into_boxed_slice())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::params::{Reader, Writer};
    use super::*;

    struct Noop;
    impl Procedure for Noop {
        fn id(&self) -> ProcId {
            ProcId(1)
        }
        fn name(&self) -> &'static str {
            "noop"
        }
        fn locks(&self, _p: &[u8]) -> Result<LockRequest, AbortReason> {
            Ok(LockRequest::default())
        }
        fn run(&self, _p: &[u8], _ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
            Ok(())
        }
    }

    #[test]
    fn registry_register_and_lookup() {
        let mut r = ProcRegistry::new();
        r.register(Arc::new(Noop));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(ProcId(1)).unwrap().name(), "noop");
        assert!(r.get(ProcId(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate procedure id")]
    fn duplicate_registration_panics() {
        let mut r = ProcRegistry::new();
        r.register(Arc::new(Noop));
        r.register(Arc::new(Noop));
    }

    #[test]
    fn params_roundtrip() {
        let p = Writer::new().u64(42).u32(7).bytes(b"payload").finish();
        let mut r = Reader::new(&p);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_params_abort() {
        let p = Writer::new().u32(100).finish(); // claims 100 bytes, has 0
        let mut r = Reader::new(&p);
        assert!(matches!(r.bytes(), Err(AbortReason::BadParams(_))));
        let mut r2 = Reader::new(&[1, 2, 3]);
        assert!(r2.u64().is_err());
    }
}
