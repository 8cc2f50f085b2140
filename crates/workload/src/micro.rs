//! The microbenchmark of §5.1.
//!
//! "The microbenchmark operates on a collection of 20 million records,
//! where each record is 100 bytes and has an 8 byte key. ... The first
//! version consists entirely of transactions that read and update 10
//! records from the database, and do some simple computing operations.
//! The second version contains 99.999% of transactions that are the same
//! type as the first version, but 0.001% of transactions are long-running
//! batch-writes which take approximately two seconds to complete. We keep
//! contention low for both versions."
//!
//! Write locality (§5.1.2) is modelled with a hot set: when
//! `hot_fraction < 1.0`, update keys are drawn from the first
//! `hot_fraction × db_size` keys, so the records modified between two
//! checkpoints are confined to that subset.

use std::sync::Arc;

use calc_common::rng::SplitMix;
use calc_common::types::Key;
use calc_engine::Database;
use calc_txn::proc::{params, AbortReason, LockRequest, ProcId, Procedure, TxnOps};

use crate::spin::spin;

/// Procedure id of the 10-record read/update transaction.
pub const MICRO_PROC: ProcId = ProcId(10);
/// Procedure id of the long-running batch-write transaction.
pub const LONG_PROC: ProcId = ProcId(11);

/// Microbenchmark parameters.
#[derive(Clone, Debug)]
pub struct MicroConfig {
    /// Number of records (paper: 20 M; scale to the host).
    pub db_size: u64,
    /// Record payload size in bytes (paper: 100).
    pub record_size: usize,
    /// Records read+updated per transaction (paper: 10).
    pub ops_per_txn: usize,
    /// Busywork iterations per normal transaction ("simple computing
    /// operations").
    pub txn_spin: u64,
    /// Probability of a long-running batch-write (paper: 0.001% = 1e-5).
    pub long_txn_prob: f64,
    /// Busywork iterations for a long transaction (calibrate to ~2 s for
    /// the paper's shape; scaled down in quick runs).
    pub long_txn_spin: u64,
    /// Records written by a long transaction.
    pub long_txn_batch: usize,
    /// Fraction of the keyspace eligible for updates (1.0 = uniform;
    /// 0.1 → "10% of records modified since last checkpoint").
    pub hot_fraction: f64,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            db_size: 1_000_000,
            record_size: 100,
            ops_per_txn: 10,
            txn_spin: 64,
            long_txn_prob: 0.0,
            long_txn_spin: 50_000_000,
            long_txn_batch: 1000,
            hot_fraction: 1.0,
        }
    }
}

/// Request generator + procedure definitions for the microbenchmark.
pub struct MicroWorkload {
    config: MicroConfig,
    rng: SplitMix,
}

impl MicroWorkload {
    /// Creates a generator with a deterministic seed.
    pub fn new(config: MicroConfig, seed: u64) -> Self {
        MicroWorkload {
            config,
            rng: SplitMix::new(seed),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MicroConfig {
        &self.config
    }

    /// Registers the microbenchmark's procedures.
    pub fn register(registry: &mut calc_txn::proc::ProcRegistry, config: &MicroConfig) {
        registry.register(Arc::new(MicroProc {
            record_size: config.record_size,
        }));
        registry.register(Arc::new(LongBatchProc {
            record_size: config.record_size,
        }));
    }

    /// Populates the database with `db_size` records.
    pub fn populate(&self, db: &Database) {
        let mut payload = vec![0u8; self.config.record_size];
        for k in 0..self.config.db_size {
            fill_payload(&mut payload, k, 0);
            db.load_initial(Key(k), &payload)
                .expect("store sized for the workload");
        }
    }

    /// Draws an update-eligible key.
    fn update_key(&mut self) -> u64 {
        let hot = ((self.config.db_size as f64) * self.config.hot_fraction).max(1.0) as u64;
        self.rng.next_below(hot)
    }

    /// Generates the next transaction request.
    pub fn next_request(&mut self) -> (ProcId, Arc<[u8]>) {
        if self.config.long_txn_prob > 0.0 && self.rng.chance(self.config.long_txn_prob) {
            // Long batch write over a contiguous cold-range chunk (keeps
            // contention low, as the paper prescribes).
            let batch = self.config.long_txn_batch as u64;
            let start = self.rng.next_below(self.config.db_size.saturating_sub(batch).max(1));
            let p = params::Writer::new()
                .u64(start)
                .u64(batch)
                .u64(self.config.long_txn_spin)
                .u64(self.rng.next_u64()) // value seed
                .finish();
            (LONG_PROC, p)
        } else {
            let mut w = params::Writer::new()
                .u32(self.config.ops_per_txn as u32)
                .u64(self.config.txn_spin)
                .u64(self.rng.next_u64()); // value seed
            let mut used = Vec::with_capacity(self.config.ops_per_txn);
            while used.len() < self.config.ops_per_txn {
                let k = self.update_key();
                if !used.contains(&k) {
                    used.push(k);
                }
            }
            for k in &used {
                w = w.u64(*k);
            }
            (MICRO_PROC, w.finish())
        }
    }
}

fn fill_payload(buf: &mut [u8], key: u64, seed: u64) {
    // Deterministic 100-byte payload derived from (key, seed).
    let mut x = key ^ seed.rotate_left(17) ^ 0xC0FF_EE00_D15E_A5E5;
    for chunk in buf.chunks_mut(8) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mixed = (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let bytes = mixed.to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

/// The 10-record read/update transaction.
///
/// Params: `ops:u32 | spin:u64 | seed:u64 | key:u64 × ops`.
struct MicroProc {
    record_size: usize,
}

impl Procedure for MicroProc {
    fn id(&self) -> ProcId {
        MICRO_PROC
    }

    fn name(&self) -> &'static str {
        "micro-update"
    }

    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        let ops = r.u32()? as usize;
        let _spin = r.u64()?;
        let _seed = r.u64()?;
        let mut writes = Vec::with_capacity(ops);
        for _ in 0..ops {
            writes.push(Key(r.u64()?));
        }
        Ok(LockRequest {
            reads: Vec::new(),
            writes,
        })
    }

    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let n = r.u32()? as usize;
        let spin_iters = r.u64()?;
        let seed = r.u64()?;
        let mut buf = vec![0u8; self.record_size];
        let mut acc = seed;
        for _ in 0..n {
            let key = Key(r.u64()?);
            let mut head = 0;
            if !ops.get_with(key, &mut |old| {
                head = u64::from_le_bytes(old[..8].try_into().unwrap());
            }) {
                return Err(AbortReason::Logic(format!("missing record {key}")));
            }
            // "Simple computing operations": fold the old value, spin a
            // little, derive the new value from both.
            acc = acc.wrapping_add(head);
            acc = spin(acc, spin_iters);
            fill_payload(&mut buf, key.0, acc);
            ops.put(key, &buf);
        }
        Ok(())
    }
}

/// The long-running batch-write transaction (~2 s in the paper's setup).
///
/// Params: `start:u64 | count:u64 | spin:u64 | seed:u64`.
struct LongBatchProc {
    record_size: usize,
}

impl Procedure for LongBatchProc {
    fn id(&self) -> ProcId {
        LONG_PROC
    }

    fn name(&self) -> &'static str {
        "micro-long-batch"
    }

    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        let start = r.u64()?;
        let count = r.u64()?;
        Ok(LockRequest {
            reads: Vec::new(),
            writes: (start..start + count).map(Key).collect(),
        })
    }

    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let start = r.u64()?;
        let count = r.u64()?;
        let spin_iters = r.u64()?;
        let seed = r.u64()?;
        // The long compute happens while holding all locks — that is what
        // delays physical points of consistency for IPP/Zig-Zag.
        let folded = spin(seed, spin_iters);
        let mut buf = vec![0u8; self.record_size];
        for k in start..start + count {
            fill_payload(&mut buf, k, folded);
            ops.put(Key(k), &buf);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_engine::{EngineConfig, StrategyKind, TxnOutcome};
    use calc_txn::proc::ProcRegistry;

    fn quick_config() -> MicroConfig {
        MicroConfig {
            db_size: 1000,
            record_size: 100,
            ops_per_txn: 10,
            txn_spin: 8,
            long_txn_prob: 0.0,
            long_txn_spin: 1000,
            long_txn_batch: 50,
            hot_fraction: 1.0,
        }
    }

    fn open_db(config: &MicroConfig, name: &str) -> Database {
        let dir = std::env::temp_dir().join(format!(
            "calc-micro-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut registry = ProcRegistry::new();
        MicroWorkload::register(&mut registry, config);
        let mut ec = EngineConfig::new(StrategyKind::Calc, config.db_size as usize, 100, dir);
        ec.workers = 4;
        Database::open(ec, registry).unwrap()
    }

    #[test]
    fn populate_and_run_transactions() {
        let config = quick_config();
        let db = open_db(&config, "run");
        let mut wl = MicroWorkload::new(config.clone(), 1);
        wl.populate(&db);
        assert_eq!(db.record_count(), 1000);
        for _ in 0..50 {
            let (proc, p) = wl.next_request();
            let out = db.execute(proc, p);
            assert!(matches!(out, TxnOutcome::Committed(_)), "{out:?}");
        }
        assert_eq!(db.metrics().committed(), 50);
    }

    #[test]
    fn generator_is_deterministic() {
        let config = quick_config();
        let mut a = MicroWorkload::new(config.clone(), 7);
        let mut b = MicroWorkload::new(config, 7);
        for _ in 0..100 {
            let (pa, ba) = a.next_request();
            let (pb, bb) = b.next_request();
            assert_eq!(pa, pb);
            assert_eq!(&ba[..], &bb[..]);
        }
    }

    #[test]
    fn hot_fraction_bounds_update_keys() {
        let mut config = quick_config();
        config.hot_fraction = 0.1;
        let mut wl = MicroWorkload::new(config.clone(), 3);
        for _ in 0..200 {
            let (_, p) = wl.next_request();
            let mut r = params::Reader::new(&p);
            let n = r.u32().unwrap();
            r.u64().unwrap();
            r.u64().unwrap();
            for _ in 0..n {
                let k = r.u64().unwrap();
                assert!(k < 100, "key {k} outside 10% hot set");
            }
        }
    }

    #[test]
    fn long_transactions_appear_at_configured_rate() {
        let mut config = quick_config();
        config.long_txn_prob = 0.2;
        let mut wl = MicroWorkload::new(config, 9);
        let longs = (0..1000)
            .filter(|_| wl.next_request().0 == LONG_PROC)
            .count();
        assert!((100..320).contains(&longs), "long txn count {longs}");
    }

    #[test]
    fn long_batch_writes_all_records() {
        let config = MicroConfig {
            long_txn_prob: 1.0,
            ..quick_config()
        };
        let db = open_db(&config, "long");
        let wl = MicroWorkload::new(config.clone(), 1);
        wl.populate(&db);
        let before: Vec<_> = (0..1000u64).map(|k| db.get(Key(k)).unwrap()).collect();
        let mut wl = MicroWorkload::new(config, 2);
        let (proc, p) = wl.next_request();
        assert_eq!(proc, LONG_PROC);
        let out = db.execute(proc, p.clone());
        assert!(matches!(out, TxnOutcome::Committed(_)));
        let mut r = params::Reader::new(&p);
        let start = r.u64().unwrap();
        let count = r.u64().unwrap();
        let mut changed = 0;
        for k in start..start + count {
            if db.get(Key(k)).unwrap() != before[k as usize] {
                changed += 1;
            }
        }
        assert_eq!(changed, count);
    }

    #[test]
    fn distinct_keys_per_transaction() {
        let config = quick_config();
        let mut wl = MicroWorkload::new(config, 5);
        for _ in 0..50 {
            let (_, p) = wl.next_request();
            let mut r = params::Reader::new(&p);
            let n = r.u32().unwrap();
            r.u64().unwrap();
            r.u64().unwrap();
            let keys: Vec<u64> = (0..n).map(|_| r.u64().unwrap()).collect();
            let mut dedup = keys.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), keys.len(), "duplicate keys in one txn");
        }
    }
}
