//! The warm standby now lives in the engine, as [`calc_engine::standby`]:
//! a restart is the node's own standby, drained and promoted, and the
//! server that restarts cannot depend on this crate. This re-export keeps
//! the `calc_replica` paths that `perfbench` names until its next
//! unfreeze, which deletes the crate.

pub use calc_engine::standby::*;
