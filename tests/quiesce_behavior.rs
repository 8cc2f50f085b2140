//! The paper's headline behavioural claim, as a deterministic test:
//! algorithms needing a *physical* point of consistency must quiesce —
//! and with a long-running transaction in flight, the quiesce lasts until
//! that transaction finishes — while CALC's *virtual* point of
//! consistency never stalls anyone (§2.2, Figure 2(b)).

use std::sync::Arc;
use std::time::Duration;

use calc_db::engine::{Database, EngineConfig, StrategyKind};
use calc_db::txn::proc::{
    params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps,
};
use calc_db::workload::spin;
use calc_db::Key;

const QUICK: ProcId = ProcId(1);
const LONG: ProcId = ProcId(2);

struct QuickProc;
impl Procedure for QuickProc {
    fn id(&self) -> ProcId {
        QUICK
    }
    fn name(&self) -> &'static str {
        "quick"
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
        ops.put(key, &r.u64()?.to_le_bytes());
        Ok(())
    }
}

struct LongProc;
impl Procedure for LongProc {
    fn id(&self) -> ProcId {
        LONG
    }
    fn name(&self) -> &'static str {
        "long"
    }
    fn locks(&self, _p: &[u8]) -> Result<LockRequest, AbortReason> {
        Ok(LockRequest {
            reads: vec![],
            writes: vec![Key(999)],
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let iters = r.u64()?;
        let folded = spin::spin(1, iters);
        ops.put(Key(999), &folded.to_le_bytes());
        Ok(())
    }
}

fn open(kind: StrategyKind, name: &str) -> Database {
    let dir = std::env::temp_dir().join(format!(
        "calc-quiesce-{}-{}-{name}",
        std::process::id(),
        kind.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut registry = ProcRegistry::new();
    registry.register(Arc::new(QuickProc));
    registry.register(Arc::new(LongProc));
    let mut config = EngineConfig::new(kind, 4096, 16, dir);
    config.workers = 2;
    let db = Database::open(config, registry).unwrap();
    for k in 0..1000u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).unwrap();
    }
    db
}

fn checkpoint_during_long_txn(kind: StrategyKind) -> Duration {
    let db = open(kind, "stall");
    // A transaction that busy-works for ~400 ms while holding its lock.
    let iters = spin::calibrate(Duration::from_millis(400));
    db.submit(LONG, params::Writer::new().u64(iters).finish());
    // Let it grab its lock and start working.
    std::thread::sleep(Duration::from_millis(60));
    let stats = db.checkpoint_now().unwrap();
    stats.quiesce
}

#[test]
fn physical_point_algorithms_stall_behind_long_transactions() {
    for kind in [StrategyKind::Zigzag, StrategyKind::Ipp, StrategyKind::Naive] {
        let quiesce = checkpoint_during_long_txn(kind);
        assert!(
            quiesce > Duration::from_millis(20),
            "{}: expected a visible stall waiting for the long txn, got {quiesce:?}",
            kind.name()
        );
    }
}

#[test]
fn calc_never_quiesces_even_with_long_transactions() {
    let quiesce = checkpoint_during_long_txn(StrategyKind::Calc);
    assert_eq!(
        quiesce,
        Duration::ZERO,
        "CALC must not stall the system for a physical point of consistency"
    );
    // MVCC (full multi-versioning) shares this property — the §2.1 claim.
    let quiesce = checkpoint_during_long_txn(StrategyKind::Mvcc);
    assert_eq!(quiesce, Duration::ZERO);
}

#[test]
fn calc_virtual_point_lands_after_rest_started_straggler() {
    // A long transaction that started in the REST phase must complete
    // before the PREPARE→RESOLVE transition (the prepare drain waits for
    // it — delaying the *checkpoint*, never the *system*). Its write is
    // therefore committed before the virtual point of consistency and
    // must appear in the checkpoint; quiesce time stays zero throughout.
    let db = open(StrategyKind::Calc, "straggler");
    let iters = spin::calibrate(Duration::from_millis(300));
    db.submit(LONG, params::Writer::new().u64(iters).finish());
    std::thread::sleep(Duration::from_millis(50));
    let stats = db.checkpoint_now().unwrap();
    assert_eq!(stats.quiesce, Duration::ZERO);

    let expected = spin::spin(1, iters); // the long txn's deterministic write
    let metas = db.checkpoint_dir().manifests();
    let entries = metas[0].read_all().unwrap();
    let captured = entries
        .iter()
        .find_map(|e| match e {
            calc_db::core::file::RecordEntry::Value(k, v) if *k == Key(999) => Some(v.clone()),
            _ => None,
        })
        .expect("key 999 in checkpoint");
    assert_eq!(
        &captured[..],
        &expected.to_le_bytes(),
        "the straggler committed before the virtual point; its write must be captured"
    );
}
