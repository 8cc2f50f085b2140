//! # calc-db — Low-Overhead Asynchronous Checkpointing
//!
//! A from-scratch Rust reproduction of **CALC** (*Checkpointing
//! Asynchronously using Logical Consistency*), the SIGMOD 2016 technique
//! for capturing transaction-consistent snapshots of a main-memory
//! database **without** quiescing it, without a database log, and with at
//! most two copies of any record (usually far fewer).
//!
//! The crate bundles the full evaluation system from the paper: a
//! memory-resident transactional key-value store with stored procedures,
//! deadlock-free strict two-phase locking, a worker-thread executor,
//! pluggable checkpointing strategies (CALC/pCALC plus the Naive, Fuzzy,
//! Interleaved Ping-Pong, and Zig-Zag baselines), deterministic
//! command-log recovery, and the paper's two benchmark workloads.
//!
//! ## Quickstart
//!
//! ```
//! use calc_db::engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
//! use calc_db::txn::proc::{params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps};
//! use calc_db::Key;
//! use std::sync::Arc;
//!
//! // 1. Define a deterministic stored procedure.
//! struct Deposit;
//! impl Procedure for Deposit {
//!     fn id(&self) -> ProcId { ProcId(1) }
//!     fn name(&self) -> &'static str { "deposit" }
//!     fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
//!         let mut r = params::Reader::new(p);
//!         Ok(LockRequest { reads: vec![], writes: vec![Key(r.u64()?)] })
//!     }
//!     fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
//!         let mut r = params::Reader::new(p);
//!         let key = Key(r.u64()?);
//!         let amount = r.u64()?;
//!         let balance = ops.get(key)
//!             .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
//!             .unwrap_or(0);
//!         let new = (balance + amount).to_le_bytes();
//!         if ops.get(key).is_some() { ops.put(key, &new); } else { ops.insert(key, &new); }
//!         Ok(())
//!     }
//! }
//!
//! // 2. Open a database running the CALC checkpointer.
//! let dir = std::env::temp_dir().join(format!("calc-doc-{}", std::process::id()));
//! let mut registry = ProcRegistry::new();
//! registry.register(Arc::new(Deposit));
//! let db = Database::open(EngineConfig::new(StrategyKind::Calc, 1024, 16, dir), registry).unwrap();
//!
//! // 3. Execute transactions.
//! let p = params::Writer::new().u64(7).u64(100).finish();
//! assert!(matches!(db.execute(ProcId(1), p), TxnOutcome::Committed(_)));
//!
//! // 4. Take an asynchronous, transaction-consistent checkpoint — no
//! //    quiesce, no log.
//! let stats = db.checkpoint_now().unwrap();
//! assert_eq!(stats.quiesce.as_nanos(), 0); // CALC never stalls the system
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`] | CALC/pCALC, phase controller, checkpoint files, manifest, merger |
//! | [`baselines`] | Naive, Fuzzy, IPP, Zig-Zag (+ partial variants) |
//! | [`engine`] | `Database`, executor, admission gate, metrics |
//! | [`storage`] | dual-version / triple-copy / zig-zag stores, dirty tracker |
//! | [`txn`] | lock manager, commit log (token sequencer), procedures |
//! | [`recovery`] | checkpoint load + deterministic replay, the command log |
//! | [`workload`] | the paper's microbenchmark and TPC-C |
//! | [`common`] | bit vectors (polarity swap), CRC-32, histograms, load signals, Vfs |

pub use calc_baselines as baselines;
pub use calc_common as common;
pub use calc_core as core;
pub use calc_engine as engine;
pub use calc_recovery as recovery;
pub use calc_storage as storage;
pub use calc_txn as txn;
pub use calc_workload as workload;

pub use calc_common::types::{CommitSeq, Key, TxnId, Value};
pub use calc_core::strategy::CheckpointStrategy;
pub use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
