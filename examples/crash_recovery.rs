//! Crash recovery with pCALC partial checkpoints and deterministic
//! command-log replay (§3 of the paper).
//!
//! The scenario: a pCALC-checkpointed store takes a base checkpoint, three
//! partial checkpoints, and keeps committing afterwards; then the process
//! "crashes" (we drop all in-memory state). Recovery (1) merges the base
//! full checkpoint with the partials, (2) replays the command log from the
//! last checkpoint's virtual-point-of-consistency watermark, and the
//! recovered state is bit-for-bit identical to the pre-crash state.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use std::sync::Arc;

use calc_db::common::vfs::OsVfs;
use calc_db::core::calc::CalcStrategy;
use calc_db::core::strategy::CheckpointStrategy;
use calc_db::engine::{Database, EngineConfig, StrategyKind};
use calc_db::recovery;
use calc_db::storage::dual::StoreConfig;
use calc_db::txn::commitlog::CommitLog;
use calc_db::txn::proc::{
    params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps,
};
use calc_db::Key;

/// Append-counter procedure: `counter[key] += delta`.
struct Bump;
const BUMP: ProcId = ProcId(1);

impl Procedure for Bump {
    fn id(&self) -> ProcId {
        BUMP
    }
    fn name(&self) -> &'static str {
        "bump"
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
        let delta = r.u64()?;
        let current = ops
            .get(key)
            .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
            .unwrap_or(0);
        let next = (current + delta).to_le_bytes();
        if ops.get(key).is_some() {
            ops.put(key, &next);
        } else {
            ops.insert(key, &next);
        }
        Ok(())
    }
}

fn bump(key: u64, delta: u64) -> Arc<[u8]> {
    params::Writer::new().u64(key).u64(delta).finish()
}

fn registry() -> ProcRegistry {
    let mut r = ProcRegistry::new();
    r.register(Arc::new(Bump));
    r
}

fn main() {
    let dir = std::env::temp_dir().join(format!("calc-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ckpts, log_dir) = (dir.join("ckpts"), dir.join("cmdlog"));

    // ---- Before the crash -------------------------------------------
    let mut config = EngineConfig::new(StrategyKind::PCalc, 10_000, 16, ckpts.clone());
    config.command_log_dir = Some(log_dir.clone()); // the durable command log
    config.merge_batch = Some(4);
    let db = Database::open(config, registry()).expect("open");

    for k in 0..1000u64 {
        db.load_initial(Key(k), &0u64.to_le_bytes()).expect("load");
    }
    let base = db.finalize_load(true).expect("base checkpoint").unwrap();
    println!("base full checkpoint: {} records", base.records);

    // Three rounds of activity, each followed by a partial checkpoint.
    for round in 1..=3u64 {
        for k in 0..100u64 {
            db.execute(BUMP, bump(k, round));
        }
        let stats = db.checkpoint_now().expect("partial checkpoint");
        println!(
            "partial checkpoint #{}: {} records ({} dirty keys captured, asynchronously)",
            stats.id, stats.records, stats.records
        );
    }
    // Post-checkpoint activity, present ONLY in the command log.
    for k in 0..50u64 {
        db.execute(BUMP, bump(k, 1000));
    }
    println!(
        "pre-crash: committed {} txns, key 0 = {}",
        db.metrics().committed(),
        u64::from_le_bytes(db.get(Key(0)).unwrap()[..8].try_into().unwrap())
    );
    let expected: Vec<_> = (0..1000u64).map(|k| db.get(Key(k))).collect();

    // Everything group-committed and fsynced by now survives the crash.
    db.sync_command_log().expect("command log fsync");

    // ---- CRASH -------------------------------------------------------
    drop(db); // all volatile state gone: stores, stable versions, bits
    println!("\n*** crash ***\n");

    // ---- Recovery ----------------------------------------------------
    let commands = recovery::read_dir_logs(&OsVfs, &log_dir).expect("read command log");
    println!("command log holds {} commit records", commands.len());
    let ckpt_dir = calc_db::core::manifest::CheckpointDir::open(
        &ckpts,
        Arc::new(calc_db::core::throttle::Throttle::unlimited()),
    )
    .expect("open checkpoint dir");
    let fresh = CalcStrategy::partial(
        StoreConfig::for_records(10_000, 16),
        Arc::new(CommitLog::default()),
    );
    let outcome =
        recovery::recover(&ckpt_dir, &fresh, &registry(), &commands).expect("recovery");
    println!(
        "recovered: loaded {} records from {} checkpoint file(s) in {:?}, \
         replayed {} txns in {:?} (from watermark {})",
        outcome.loaded_records,
        outcome.checkpoint_files,
        outcome.load_duration,
        outcome.replayed,
        outcome.replay_duration,
        outcome.watermark,
    );

    // Verify bit-for-bit equality with the pre-crash state.
    for (k, expect) in expected.iter().enumerate() {
        assert_eq!(
            fresh.get(Key(k as u64)).as_deref(),
            expect.as_deref(),
            "key {k} diverged"
        );
    }
    println!(
        "state verified: all 1000 keys identical to pre-crash (key 0 = {})",
        u64::from_le_bytes(
            calc_db::core::strategy::CheckpointStrategy::get(&fresh, Key(0)).unwrap()[..8]
                .try_into()
                .unwrap()
        )
    );
}
