//! Quickstart: open a CALC-checkpointed database, run transactions, take
//! an asynchronous checkpoint, and inspect what it cost.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use calc_db::engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_db::txn::proc::{
    params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps,
};
use calc_db::Key;

/// A deterministic stored procedure: transfers `amount` between two
/// account records, aborting on insufficient funds.
struct Transfer;

const TRANSFER: ProcId = ProcId(1);

impl Procedure for Transfer {
    fn id(&self) -> ProcId {
        TRANSFER
    }

    fn name(&self) -> &'static str {
        "transfer"
    }

    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        let from = Key(r.u64()?);
        let to = Key(r.u64()?);
        Ok(LockRequest {
            reads: vec![],
            writes: vec![from, to],
        })
    }

    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let from = Key(r.u64()?);
        let to = Key(r.u64()?);
        let amount = r.u64()?;
        let balance = |v: Option<calc_db::Value>| {
            v.map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0)
        };
        let from_balance = balance(ops.get(from));
        if from_balance < amount {
            return Err(AbortReason::Logic(format!(
                "insufficient funds: {from_balance} < {amount}"
            )));
        }
        let to_balance = balance(ops.get(to));
        ops.put(from, &(from_balance - amount).to_le_bytes());
        ops.put(to, &(to_balance + amount).to_le_bytes());
        Ok(())
    }
}

fn transfer_params(from: u64, to: u64, amount: u64) -> Arc<[u8]> {
    params::Writer::new().u64(from).u64(to).u64(amount).finish()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("calc-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut registry = ProcRegistry::new();
    registry.register(Arc::new(Transfer));
    let db = Database::open(
        EngineConfig::new(StrategyKind::Calc, 100_000, 16, dir),
        registry,
    )
    .expect("open database");

    // Load 10k accounts with 1000 credits each.
    for account in 0..10_000u64 {
        db.load_initial(Key(account), &1000u64.to_le_bytes())
            .expect("load");
    }
    println!("loaded {} accounts", db.record_count());

    // Run a burst of transfers while a checkpoint happens underneath.
    for i in 0..5_000u64 {
        db.submit(TRANSFER, transfer_params(i % 10_000, (i * 7 + 1) % 10_000, 10));
    }
    let stats = db.checkpoint_now().expect("checkpoint");
    println!(
        "checkpoint #{}: {} records, {:.1} MB, took {:?}, quiesce time: {:?} (CALC never quiesces)",
        stats.id,
        stats.records,
        stats.bytes as f64 / 1e6,
        stats.duration,
        stats.quiesce,
    );

    // A synchronous transaction that must abort.
    match db.execute(TRANSFER, transfer_params(1, 2, u64::MAX)) {
        TxnOutcome::Aborted(reason) => println!("as expected, aborted: {reason}"),
        TxnOutcome::Committed(_) => unreachable!("overdraft committed?!"),
    }

    // Total money is conserved no matter the interleaving.
    // (Drain in-flight work first.)
    while db.metrics().committed() + db.metrics().aborted() < 5_001 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let total: u64 = (0..10_000u64)
        .map(|a| u64::from_le_bytes(db.get(Key(a)).unwrap()[..8].try_into().unwrap()))
        .sum();
    assert_eq!(total, 10_000 * 1000);
    println!(
        "money conserved: {total} credits across 10k accounts; {} commits, {} aborts",
        db.metrics().committed(),
        db.metrics().aborted()
    );

    // The checkpoints this database published, from its catalog (no
    // checkpoint byte is read back).
    let metas = db.checkpoint_dir().manifests().expect("list checkpoints");
    println!(
        "on disk: {} checkpoint file(s), newest watermark {}",
        metas.len(),
        metas.last().unwrap().watermark
    );
}
