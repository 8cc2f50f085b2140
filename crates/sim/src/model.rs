//! The serial reference model and seeded workload generator.
//!
//! The driver executes transactions one at a time, so the commit order
//! equals the submission order and the reference model is exact: the
//! database state after commit sequence `S` is the fold of every
//! committed operation with `seq <= S` over an empty map. That fold is
//! [`model_at`]; the oracle compares a recovered store against it.

use std::collections::BTreeMap;
use std::sync::Arc;

use calc_common::rng::SplitMix;
use calc_testkit::{DELETE, SET};
use calc_txn::proc::ProcId;

/// One workload operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Upsert `key` to `value`.
    Set(u64, Vec<u8>),
    /// Delete `key` (no-op when absent).
    Delete(u64),
}

impl Op {
    /// The procedure id + encoded parameters executing this operation.
    pub fn encode(&self) -> (ProcId, Arc<[u8]>) {
        match self {
            Op::Set(k, v) => (SET, calc_testkit::set(*k, v)),
            Op::Delete(k) => (DELETE, calc_testkit::delete(*k)),
        }
    }
}

/// Number of distinct keys the workload touches. Small on purpose: a
/// dense key space maximizes overwrite/delete/re-insert interleavings,
/// which is where checkpoint consistency bugs live.
pub const KEY_SPACE: u64 = 24;

/// Draws the next operation: 3:1 set:delete, values up to 40 bytes.
pub fn gen_op(rng: &mut SplitMix) -> Op {
    if rng.next_below(4) < 3 {
        let k = rng.next_below(KEY_SPACE);
        let len = rng.next_below(40) as usize;
        let v = (0..len).map(|_| rng.next_u64() as u8).collect();
        Op::Set(k, v)
    } else {
        Op::Delete(rng.next_below(KEY_SPACE))
    }
}

/// Folds every committed `(seq, op)` with `seq <= upto` into the state
/// the database must hold at that commit-consistent point.
pub fn model_at(committed: &[(u64, Op)], upto: u64) -> BTreeMap<u64, Vec<u8>> {
    let mut state = BTreeMap::new();
    for (seq, op) in committed {
        if *seq > upto {
            break;
        }
        match op {
            Op::Set(k, v) => {
                state.insert(*k, v.clone());
            }
            Op::Delete(k) => {
                state.remove(k);
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_respects_prefix() {
        let committed = vec![
            (1, Op::Set(5, b"a".to_vec())),
            (2, Op::Set(6, b"b".to_vec())),
            (3, Op::Delete(5)),
            (4, Op::Set(5, b"c".to_vec())),
        ];
        assert_eq!(model_at(&committed, 0).len(), 0);
        assert_eq!(model_at(&committed, 2).len(), 2);
        assert!(!model_at(&committed, 3).contains_key(&5));
        assert_eq!(model_at(&committed, 4).get(&5).unwrap(), b"c");
        // A prefix bound between commit seqs (e.g. a phase-transition
        // token's sequence) is fine: it includes everything at or below.
        assert_eq!(model_at(&committed, 100), model_at(&committed, 4));
    }

    #[test]
    fn gen_is_deterministic() {
        let mut a = SplitMix::new(9);
        let mut b = SplitMix::new(9);
        for _ in 0..50 {
            assert_eq!(gen_op(&mut a), gen_op(&mut b));
        }
    }
}
