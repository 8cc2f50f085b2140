//! The offline conformance checker: serial-model replay of a recorded
//! history plus checkpoint materialization.
//!
//! Strict 2PL makes the commit-sequence order a valid serial order, so:
//!
//! 1. Replaying every committed transaction's operations in commit order
//!    against a `BTreeMap` must reproduce each observed read exactly
//!    (operations replay in intra-transaction order, so
//!    read-your-own-writes falls out naturally).
//! 2. A checkpoint whose strategy claims transaction consistency must
//!    materialize to *exactly* the model state after all commits with
//!    `seq <= watermark` and none after — the paper's "consistent
//!    virtual point". Full files replace the materialized image; partial
//!    files apply values and tombstones on top of their base chain, in
//!    file order.

use std::collections::BTreeMap;
use std::fmt;

use calc_common::types::{CommitSeq, Value};
use calc_common::vfs::OsVfs;
use calc_core::file::{CheckpointKind, RecordEntry};
use calc_core::manifest::CheckpointMeta;
use calc_engine::recorder::{RecordedHistory, RecordedOp, RecordedTxn};
use calc_txn::proc::ProcId;

/// Everything the checker consumes from one engine run.
pub struct ConformInput {
    /// Initial state + committed transactions from the history recorder.
    pub history: RecordedHistory,
    /// Every checkpoint the run published, from `CheckpointDir::manifests()`.
    pub checkpoints: Vec<CheckpointMeta>,
    /// Whether to assert checkpoint state equals the model at the
    /// watermark. `false` for strategies that are *not* transaction-
    /// consistent (Fuzzy): their files interleave mid-transaction states
    /// by design and only become consistent after log replay.
    pub check_checkpoint_state: bool,
    /// Procedures whose reads are exempt from serial-order checking.
    /// TPC-C's StockLevel reads stock rows under only a district lock —
    /// the spec explicitly permits relaxed isolation there, and the
    /// workload exploits that.
    pub relaxed_procs: Vec<ProcId>,
}

/// A conformance violation: the history is not serializable in commit
/// order, or a checkpoint is not a consistent virtual point of it.
#[derive(Clone, Debug)]
pub struct Violation(pub String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Violation {}

fn violation(msg: impl Into<String>) -> Violation {
    Violation(msg.into())
}

/// What a passing check actually covered.
#[derive(Clone, Debug, Default)]
pub struct ConformReport {
    /// Committed transactions replayed.
    pub txns: usize,
    /// Reads compared against the serial model.
    pub reads_checked: usize,
    /// Writes (put/insert/delete) applied to the model.
    pub writes_applied: usize,
    /// Checkpoints materialized and (when applicable) state-compared.
    pub checkpoints_verified: usize,
    /// Records compared during checkpoint state equality checks.
    pub checkpoint_records_compared: usize,
}

fn fmt_value(v: Option<&Value>) -> String {
    match v {
        None => "<absent>".into(),
        Some(v) if v.len() <= 16 => format!("0x{}", hex(v)),
        Some(v) => format!("0x{}..(len {})", hex(&v[..16]), v.len()),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs the full conformance check. Returns what was covered, or the
/// first violation found.
pub fn check(input: ConformInput) -> Result<ConformReport, Violation> {
    let ConformInput {
        history,
        checkpoints,
        check_checkpoint_state,
        relaxed_procs,
    } = input;
    let mut report = ConformReport::default();
    let mut model: BTreeMap<u64, Value> = history.initial;

    // Materialization must walk checkpoints in id order; the commit-order
    // walk needs watermark order. They must agree, or the run itself is
    // broken (a later checkpoint claiming an earlier virtual point).
    let mut cks = checkpoints;
    cks.sort_by_key(|m| (m.id, matches!(m.kind, CheckpointKind::Partial)));
    for pair in cks.windows(2) {
        if pair[1].watermark < pair[0].watermark {
            return Err(violation(format!(
                "checkpoint id {} (watermark {}) precedes id {} (watermark {}): \
                 watermarks regress in id order",
                pair[0].id, pair[0].watermark, pair[1].id, pair[1].watermark,
            )));
        }
    }

    let mut materialized: Option<BTreeMap<u64, Value>> = None;
    let mut ck_idx = 0usize;
    let mut last_seq = CommitSeq::ZERO;

    for txn in &history.txns {
        if txn.seq <= last_seq {
            return Err(violation(format!(
                "commit sequences not strictly increasing: {} after {last_seq} \
                 ({} recorded twice or log corrupted)",
                txn.seq, txn.txn,
            )));
        }
        last_seq = txn.seq;
        // A commit with seq <= watermark is inside the checkpoint, so a
        // checkpoint is verified once the next commit passes its
        // watermark (and any leftovers after the last commit).
        while ck_idx < cks.len() && cks[ck_idx].watermark < txn.seq {
            verify_checkpoint(
                &cks[ck_idx],
                &model,
                &mut materialized,
                check_checkpoint_state,
                &mut report,
            )?;
            ck_idx += 1;
        }
        apply_txn(txn, &mut model, &relaxed_procs, &mut report)?;
        report.txns += 1;
    }
    while ck_idx < cks.len() {
        verify_checkpoint(
            &cks[ck_idx],
            &model,
            &mut materialized,
            check_checkpoint_state,
            &mut report,
        )?;
        ck_idx += 1;
    }
    Ok(report)
}

fn apply_txn(
    txn: &RecordedTxn,
    model: &mut BTreeMap<u64, Value>,
    relaxed_procs: &[ProcId],
    report: &mut ConformReport,
) -> Result<(), Violation> {
    let relaxed = relaxed_procs.contains(&txn.proc);
    for (i, op) in txn.ops.iter().enumerate() {
        match op {
            RecordedOp::Get { key, observed } => {
                if relaxed {
                    continue;
                }
                let expected = model.get(&key.0);
                if expected != observed.as_ref() {
                    return Err(violation(format!(
                        "serializability violation: {} (seq {}, proc {:?}, op {i}) read \
                         key {} = {} but the serial model (commit order) says {} — \
                         started {}, committed {}",
                        txn.txn,
                        txn.seq,
                        txn.proc,
                        key,
                        fmt_value(observed.as_ref()),
                        fmt_value(expected),
                        txn.start,
                        txn.commit,
                    )));
                }
                report.reads_checked += 1;
            }
            RecordedOp::Put { key, value } => {
                model.insert(key.0, value.clone());
                report.writes_applied += 1;
            }
            RecordedOp::Insert {
                key,
                value,
                inserted,
            } => {
                let present = model.contains_key(&key.0);
                if *inserted == present {
                    return Err(violation(format!(
                        "serializability violation: {} (seq {}, op {i}) insert of key {} \
                         reported {} but the key is {} in the serial model",
                        txn.txn,
                        txn.seq,
                        key,
                        if *inserted { "success" } else { "duplicate" },
                        if present { "present" } else { "absent" },
                    )));
                }
                if *inserted {
                    model.insert(key.0, value.clone());
                }
                report.writes_applied += 1;
            }
            RecordedOp::Delete { key, deleted } => {
                let present = model.contains_key(&key.0);
                if *deleted != present {
                    return Err(violation(format!(
                        "serializability violation: {} (seq {}, op {i}) delete of key {} \
                         reported {} but the key is {} in the serial model",
                        txn.txn,
                        txn.seq,
                        key,
                        if *deleted { "removed" } else { "not found" },
                        if present { "present" } else { "absent" },
                    )));
                }
                if *deleted {
                    model.remove(&key.0);
                }
                report.writes_applied += 1;
            }
        }
    }
    Ok(())
}

fn verify_checkpoint(
    meta: &CheckpointMeta,
    model: &BTreeMap<u64, Value>,
    materialized: &mut Option<BTreeMap<u64, Value>>,
    check_state: bool,
    report: &mut ConformReport,
) -> Result<(), Violation> {
    let unreadable = |e| violation(format!("checkpoint id {} unreadable: {e}", meta.id));
    // The shape restart's parallel loader relies on; last-event-wins
    // materialization below would mask a breach of it. One value per key
    // is a snapshot's property: a strategy that is not transaction
    // consistent (pFuzzy) can capture a key twice, and nothing loads it.
    let one_value_per_key = check_state;
    if let Some(breach) = meta
        .shape_violation(&OsVfs, one_value_per_key)
        .map_err(unreadable)?
    {
        return Err(violation(breach));
    }
    let entries = meta.read_all().map_err(unreadable)?;
    match meta.kind {
        CheckpointKind::Full => {
            let mut image = BTreeMap::new();
            for e in entries {
                match e {
                    RecordEntry::Value(k, v) => {
                        image.insert(k.0, v);
                    }
                    RecordEntry::Tombstone(k) => {
                        return Err(violation(format!(
                            "full checkpoint id {} contains a tombstone for key {k}",
                            meta.id
                        )));
                    }
                }
            }
            *materialized = Some(image);
        }
        CheckpointKind::Partial => {
            let Some(image) = materialized.as_mut() else {
                return Err(violation(format!(
                    "partial checkpoint id {} has no full ancestor to apply onto",
                    meta.id
                )));
            };
            for e in entries {
                match e {
                    RecordEntry::Value(k, v) => {
                        image.insert(k.0, v);
                    }
                    RecordEntry::Tombstone(k) => {
                        image.remove(&k.0);
                    }
                }
            }
        }
    }
    if check_state {
        let image = materialized.as_ref().expect("set above");
        compare_states(meta, image, model, report)?;
    }
    report.checkpoints_verified += 1;
    Ok(())
}

/// Asserts the materialized checkpoint image equals the serial model at
/// the watermark, reporting up to three sample divergences.
fn compare_states(
    meta: &CheckpointMeta,
    image: &BTreeMap<u64, Value>,
    model: &BTreeMap<u64, Value>,
    report: &mut ConformReport,
) -> Result<(), Violation> {
    let mut diffs: Vec<String> = Vec::new();
    for (k, img_v) in image {
        match model.get(k) {
            Some(m) if m == img_v => {}
            other => diffs.push(format!(
                "key {k}: checkpoint has {}, model has {}",
                fmt_value(Some(img_v)),
                fmt_value(other),
            )),
        }
        if diffs.len() >= 3 {
            break;
        }
    }
    if diffs.len() < 3 {
        for (k, m_v) in model {
            if !image.contains_key(k) {
                diffs.push(format!(
                    "key {k}: model has {}, checkpoint omits it",
                    fmt_value(Some(m_v)),
                ));
                if diffs.len() >= 3 {
                    break;
                }
            }
        }
    }
    if !diffs.is_empty() {
        return Err(violation(format!(
            "checkpoint id {} ({:?}) is not a consistent virtual point at watermark {}: \
             {} records in file image vs {} in model; e.g. {}",
            meta.id,
            meta.kind,
            meta.watermark,
            image.len(),
            model.len(),
            diffs.join("; "),
        )));
    }
    report.checkpoint_records_compared += image.len();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_common::types::{Key, TxnId};
    use calc_txn::commitlog::PhaseStamp;

    fn stamp() -> PhaseStamp {
        PhaseStamp {
            cycle: 0,
            phase: calc_common::Phase::Rest,
        }
    }

    fn txn(seq: u64, ops: Vec<RecordedOp>) -> RecordedTxn {
        RecordedTxn {
            seq: CommitSeq(seq),
            txn: TxnId(seq),
            proc: ProcId(1),
            start: stamp(),
            commit: stamp(),
            ops,
        }
    }

    fn val(x: u64) -> Value {
        x.to_le_bytes().into()
    }

    #[test]
    fn clean_history_passes() {
        let history = RecordedHistory {
            initial: BTreeMap::from([(1, val(10))]),
            txns: vec![
                txn(
                    1,
                    vec![
                        RecordedOp::Get {
                            key: Key(1),
                            observed: Some(val(10)),
                        },
                        RecordedOp::Put {
                            key: Key(1),
                            value: val(11),
                        },
                    ],
                ),
                txn(
                    2,
                    vec![RecordedOp::Get {
                        key: Key(1),
                        observed: Some(val(11)),
                    }],
                ),
            ],
        };
        let report = check(ConformInput {
            history,
            checkpoints: vec![],
            check_checkpoint_state: true,
            relaxed_procs: vec![],
        })
        .unwrap();
        assert_eq!(report.txns, 2);
        assert_eq!(report.reads_checked, 2);
        assert_eq!(report.writes_applied, 1);
    }

    #[test]
    fn stale_read_is_flagged() {
        let history = RecordedHistory {
            initial: BTreeMap::from([(1, val(10))]),
            txns: vec![
                txn(
                    1,
                    vec![RecordedOp::Put {
                        key: Key(1),
                        value: val(11),
                    }],
                ),
                // Reads the pre-image after txn 1 committed: lost-update
                // shape, must be flagged.
                txn(
                    2,
                    vec![RecordedOp::Get {
                        key: Key(1),
                        observed: Some(val(10)),
                    }],
                ),
            ],
        };
        let err = check(ConformInput {
            history,
            checkpoints: vec![],
            check_checkpoint_state: true,
            relaxed_procs: vec![],
        })
        .unwrap_err();
        assert!(err.0.contains("serializability violation"), "{err}");
    }

    #[test]
    fn read_your_own_writes_is_not_a_violation() {
        let history = RecordedHistory {
            initial: BTreeMap::new(),
            txns: vec![txn(
                1,
                vec![
                    RecordedOp::Insert {
                        key: Key(5),
                        value: val(1),
                        inserted: true,
                    },
                    RecordedOp::Get {
                        key: Key(5),
                        observed: Some(val(1)),
                    },
                    RecordedOp::Delete {
                        key: Key(5),
                        deleted: true,
                    },
                    RecordedOp::Get {
                        key: Key(5),
                        observed: None,
                    },
                ],
            )],
        };
        check(ConformInput {
            history,
            checkpoints: vec![],
            check_checkpoint_state: true,
            relaxed_procs: vec![],
        })
        .unwrap();
    }

    #[test]
    fn relaxed_proc_reads_are_exempt() {
        let mut t = txn(
            1,
            vec![RecordedOp::Get {
                key: Key(1),
                observed: Some(val(999)), // wildly stale
            }],
        );
        t.proc = ProcId(42);
        let history = RecordedHistory {
            initial: BTreeMap::from([(1, val(10))]),
            txns: vec![t],
        };
        check(ConformInput {
            history,
            checkpoints: vec![],
            check_checkpoint_state: true,
            relaxed_procs: vec![ProcId(42)],
        })
        .unwrap();
    }

    #[test]
    fn duplicate_sequence_is_flagged() {
        let history = RecordedHistory {
            initial: BTreeMap::new(),
            txns: vec![txn(3, vec![]), txn(3, vec![])],
        };
        let err = check(ConformInput {
            history,
            checkpoints: vec![],
            check_checkpoint_state: true,
            relaxed_procs: vec![],
        })
        .unwrap_err();
        assert!(err.0.contains("strictly increasing"), "{err}");
    }
}
