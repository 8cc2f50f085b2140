//! Full multi-versioning (MVCC) checkpointing — the §2.1 design-space
//! alternative that CALC exists to avoid.
//!
//! "Systems implementing snapshot isolation via MVCC implement full
//! multi-versioning. In such schemes, a full view of database state can be
//! obtained for any recent timestamp simply by selecting the latest
//! versions of each record whose timestamp precedes the chosen timestamp.
//! Since MVCC is specifically designed such that writes never block on
//! reads, a virtual point of consistency can be obtained inexpensively for
//! any timestamp. However ... many main memory database systems do not
//! implement full multi-versioning since memory is an important and
//! limited resource." (§2.1)
//!
//! This strategy makes that trade measurable: checkpoints are trivially
//! asynchronous (pick a watermark, scan versions ≤ watermark — no phases,
//! no stable copies, no quiesce), but every update appends a full version,
//! so memory between checkpoints grows with the *update count*, not the
//! record count. Garbage collection reclaims versions strictly older than
//! the last captured watermark once capture completes. The
//! `mvcc_memory` ablation bench and the memory comparisons in Figure 6's
//! harness quantify exactly why the paper prefers precise partial
//! multi-versioning (CALC) for update-heavy main-memory workloads.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use calc_common::types::{CommitSeq, Key, Value};
use calc_storage::dual::{StoreConfig, StoreError};
use calc_storage::mem::{MemCounter, MemoryStats};
use calc_storage::slots::shard_index;
use calc_txn::commitlog::{CommitLog, PhaseStamp};

use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::partition::{capture_parts, ShardPartition};
use calc_core::strategy::{
    CheckpointStats, CheckpointStrategy, EngineEnv, TxnToken, UndoRec, WriteKind,
};

/// One committed version: `None` value = deletion tombstone.
struct Version {
    seq: CommitSeq,
    value: Option<Value>,
}

struct Chain {
    /// Committed versions, ascending by seq.
    versions: Vec<Version>,
    /// The in-flight (uncommitted) version of the single transaction
    /// currently holding this record's exclusive lock.
    pending: Option<Option<Value>>,
}

impl Chain {
    fn latest_committed(&self) -> Option<&Value> {
        self.versions.last().and_then(|v| v.value.as_ref())
    }

    /// Latest version with `seq <= watermark`.
    fn at(&self, watermark: CommitSeq) -> Option<&Value> {
        self.versions
            .iter()
            .rev()
            .find(|v| v.seq <= watermark)
            .and_then(|v| v.value.as_ref())
    }

    fn visible(&self) -> Option<&Value> {
        match &self.pending {
            Some(p) => p.as_ref(),
            None => self.latest_committed(),
        }
    }
}

/// One shard of the version-chain map.
type ChainShard = RwLock<HashMap<u64, Mutex<Chain>>>;

/// Tracks the highest sequence `S` such that every commit with
/// `seq <= S` has fully installed its versions into the chains.
///
/// The engine assigns the commit sequence (`CommitLog::append_commit`)
/// before the strategy's `on_commit` publishes the versions, so at any
/// instant `log.last_seq()` may name commits whose versions are not yet
/// visible. A checkpoint watermark taken from `last_seq()` would then
/// silently miss those commits. Installs can complete out of order
/// across workers; gaps park in `out_of_order` until contiguous.
struct InstalledPrefix {
    prefix: u64,
    out_of_order: BTreeSet<u64>,
}

impl InstalledPrefix {
    fn install(&mut self, seq: u64) {
        if seq == self.prefix + 1 {
            self.prefix = seq;
            while self.out_of_order.remove(&(self.prefix + 1)) {
                self.prefix += 1;
            }
        } else if seq > self.prefix {
            self.out_of_order.insert(seq);
        }
    }
}

/// Full-MVCC checkpointing. See module docs.
pub struct MvccStrategy {
    shards: Box<[ChainShard]>,
    shard_mask: usize,
    log: Arc<CommitLog>,
    /// Versions with `seq <` this are reclaimable (last captured
    /// watermark).
    gc_floor: AtomicU64,
    next_id: AtomicU64,
    version_mem: MemCounter,
    live_records: AtomicU64,
    installed: Mutex<InstalledPrefix>,
}

impl MvccStrategy {
    /// Creates the strategy. `config` is used only for shard sizing —
    /// MVCC has no fixed slot arena; memory scales with versions.
    pub fn new(config: StoreConfig, log: Arc<CommitLog>) -> Self {
        let n_shards = config.shards.max(1).next_power_of_two();
        let base_seq = log.last_seq().0;
        MvccStrategy {
            shards: (0..n_shards)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            shard_mask: n_shards - 1,
            log,
            gc_floor: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            version_mem: MemCounter::new(),
            live_records: AtomicU64::new(0),
            installed: Mutex::new(InstalledPrefix {
                prefix: base_seq,
                out_of_order: BTreeSet::new(),
            }),
        }
    }

    #[inline]
    fn shard_of(&self, key: Key) -> &ChainShard {
        &self.shards[shard_index(key, self.shard_mask)]
    }

    /// Total committed versions currently held (the memory-cost metric).
    pub fn version_count(&self) -> usize {
        self.version_mem.count()
    }

    fn with_chain<R>(&self, key: Key, f: impl FnOnce(&mut Chain) -> R) -> Option<R> {
        let shard = self.shard_of(key).read();
        let chain = shard.get(&key.0)?;
        let mut g = chain.lock();
        Some(f(&mut g))
    }

    fn ensure_chain<R>(&self, key: Key, f: impl FnOnce(&mut Chain) -> R) -> R {
        {
            let shard = self.shard_of(key).read();
            if let Some(chain) = shard.get(&key.0) {
                return f(&mut chain.lock());
            }
        }
        let mut shard = self.shard_of(key).write();
        let chain = shard.entry(key.0).or_insert_with(|| {
            Mutex::new(Chain {
                versions: Vec::new(),
                pending: None,
            })
        });
        let mut g = chain.lock();
        let result = f(&mut g);
        drop(g);
        result
    }

    fn record_version_alloc(&self, v: &Option<Value>) {
        self.version_mem
            .add(v.as_ref().map(|b| b.len()).unwrap_or(0) + std::mem::size_of::<Version>());
    }

    fn record_version_free(&self, v: &Option<Value>) {
        self.version_mem
            .sub(v.as_ref().map(|b| b.len()).unwrap_or(0) + std::mem::size_of::<Version>());
    }
}

impl CheckpointStrategy for MvccStrategy {
    fn name(&self) -> &'static str {
        "MVCC"
    }

    fn transaction_consistent(&self) -> bool {
        true
    }

    fn partial(&self) -> bool {
        false
    }

    /// Record by record: each key has its own version chain, so there is
    /// no slot run to reserve.
    fn load_batch(&self, records: &[(Key, &[u8])]) -> Result<usize, StoreError> {
        let mut installed = 0;
        for &(key, value) in records {
            let fresh = self.ensure_chain(key, |chain| {
                if chain.latest_committed().is_some() {
                    return false;
                }
                let v = Some(value.into());
                self.record_version_alloc(&v);
                chain.versions.push(Version {
                    seq: CommitSeq::ZERO,
                    value: v,
                });
                true
            });
            installed += usize::from(fresh);
        }
        self.live_records
            .fetch_add(installed as u64, Ordering::Relaxed);
        Ok(installed)
    }

    fn get(&self, key: Key) -> Option<Value> {
        self.with_chain(key, |c| c.visible().cloned()).flatten()
    }

    fn record_count(&self) -> usize {
        self.live_records.load(Ordering::Relaxed) as usize
    }

    fn txn_begin(&self) -> TxnToken {
        TxnToken {
            stamp: self.log.current_stamp(),
            writes: Vec::new(),
        }
    }

    fn txn_end(&self, _token: TxnToken) {}

    fn apply_write(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<Option<Value>, StoreError> {
        let new = Some(value.to_vec().into_boxed_slice());
        let old = self
            .with_chain(key, |chain| {
                if chain.visible().is_none() {
                    return Err(StoreError::KeyNotFound(key));
                }
                let old = chain.visible().cloned();
                // Overwrite of our own pending version replaces it.
                chain.pending = Some(new);
                Ok(old)
            })
            .ok_or(StoreError::KeyNotFound(key))??;
        token.record(key, 0, WriteKind::Update);
        Ok(old)
    }

    fn apply_insert(
        &self,
        token: &mut TxnToken,
        key: Key,
        value: &[u8],
    ) -> Result<bool, StoreError> {
        let inserted = self.ensure_chain(key, |chain| {
            if chain.visible().is_some() {
                false
            } else {
                chain.pending = Some(Some(value.to_vec().into_boxed_slice()));
                true
            }
        });
        if inserted {
            self.live_records.fetch_add(1, Ordering::Relaxed);
            token.record(key, 0, WriteKind::Insert);
        }
        Ok(inserted)
    }

    fn apply_delete(&self, token: &mut TxnToken, key: Key) -> Result<Option<Value>, StoreError> {
        let old = self
            .with_chain(key, |chain| {
                let old = chain.visible().cloned();
                if old.is_none() {
                    return Err(StoreError::KeyNotFound(key));
                }
                chain.pending = Some(None); // tombstone
                Ok(old)
            })
            .ok_or(StoreError::KeyNotFound(key))??;
        self.live_records.fetch_sub(1, Ordering::Relaxed);
        token.record(key, 0, WriteKind::Delete);
        Ok(old)
    }

    fn on_commit(&self, token: &mut TxnToken, seq: CommitSeq, _commit: PhaseStamp) {
        // Promote pending versions to committed versions stamped with the
        // commit sequence — the MVCC timestamp.
        for w in &token.writes {
            self.with_chain(w.key, |chain| {
                if let Some(pending) = chain.pending.take() {
                    self.record_version_alloc(&pending);
                    chain.versions.push(Version {
                        seq,
                        value: pending,
                    });
                }
            });
        }
        // Only now is this commit's state fully visible; advance the
        // watermark frontier checkpoints are allowed to claim.
        self.installed.lock().install(seq.0);
    }

    fn on_abort(&self, token: &mut TxnToken, _undo: &[UndoRec]) {
        // MVCC rollback is trivial: drop the pending versions.
        for w in &token.writes {
            self.with_chain(w.key, |chain| {
                chain.pending = None;
            });
            match w.kind {
                WriteKind::Insert => {
                    self.live_records.fetch_sub(1, Ordering::Relaxed);
                }
                WriteKind::Delete => {
                    self.live_records.fetch_add(1, Ordering::Relaxed);
                }
                WriteKind::Update => {}
            }
        }
    }

    fn checkpoint(&self, _env: &dyn EngineEnv, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        // The §2.1 promise: a virtual point of consistency for free.
        let start = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::AcqRel);
        // Not `log.last_seq()`: a worker between sequence assignment and
        // version installation would make that watermark a lie. The
        // installed prefix is the highest seq whose effects (and all
        // predecessors') are guaranteed visible to the scan below.
        let watermark = CommitSeq(self.installed.lock().prefix);
        let threads = dir.checkpoint_threads();
        let split = ShardPartition::over(self.shards.len(), threads);
        let summary = capture_parts(
            dir,
            CheckpointKind::Full,
            id,
            watermark,
            &[],
            threads,
            |part, w, _cancel| {
                for shard in &self.shards[split.range(part)] {
                    // Collect keys first so the shard lock is not held
                    // across record writes.
                    let keys: Vec<u64> = shard.read().keys().copied().collect();
                    for k in keys {
                        let value = self
                            .with_chain(Key(k), |chain| chain.at(watermark).cloned())
                            .flatten();
                        if let Some(v) = value {
                            w.write_record(Key(k), &v)?;
                        }
                    }
                }
                Ok(())
            },
        )?;

        // GC: versions strictly older than the captured watermark are no
        // longer needed (the newest ≤ watermark must be kept — it may be
        // the current value).
        let floor = watermark;
        self.gc_floor.store(floor.0, Ordering::Release);
        for shard in self.shards.iter() {
            let guard = shard.read();
            for chain in guard.values() {
                let mut c = chain.lock();
                // Find the newest index with seq <= floor; drop everything
                // before it.
                let keep_from = c
                    .versions
                    .iter()
                    .rposition(|v| v.seq <= floor)
                    .unwrap_or(0);
                for v in c.versions.drain(..keep_from) {
                    self.record_version_free(&v.value);
                }
            }
        }
        Ok(CheckpointStats::new(&summary, start, Duration::ZERO))
    }

    fn write_base_checkpoint(&self, dir: &CheckpointDir) -> io::Result<CheckpointStats> {
        self.checkpoint(&calc_core::strategy::NoopEnv, dir)
    }

    fn resume_checkpoint_ids(&self, next_id: u64) {
        self.next_id.fetch_max(next_id, Ordering::AcqRel);
    }

    fn memory(&self) -> MemoryStats {
        let live = self.record_count();
        let total_versions = self.version_mem.count();
        MemoryStats {
            // Attribute one version per live record as "live" and the rest
            // as the multi-versioning surplus.
            live_bytes: 0,
            live_count: live.min(total_versions),
            extra_bytes: self.version_mem.bytes(),
            extra_count: total_versions.saturating_sub(live.min(total_versions)),
            overhead_bytes: 0,
        }
    }
}

impl std::fmt::Debug for MvccStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MVCC(records={}, versions={})",
            self.record_count(),
            self.version_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_core::strategy::NoopEnv;
    use calc_core::throttle::Throttle;

    fn setup() -> (MvccStrategy, Arc<CommitLog>) {
        let log = Arc::new(CommitLog::default());
        let s = MvccStrategy::new(StoreConfig::for_records(256, 32), log.clone());
        (s, log)
    }

    fn commit(s: &MvccStrategy, log: &CommitLog, token: &mut TxnToken) -> CommitSeq {
        let (seq, stamp) = log.append_commit();
        s.on_commit(token, seq, stamp);
        seq
    }

    fn dir(name: &str) -> CheckpointDir {
        let d = std::env::temp_dir().join(format!(
            "calc-mvcc-{}-{}-{name}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let _ = std::fs::remove_dir_all(&d);
        CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
    }

    #[test]
    fn versions_accumulate_and_reads_see_latest() {
        let (s, log) = setup();
        s.load_batch(&[(Key(1), &b"v0"[..])]).unwrap();
        for i in 1..=5u64 {
            let mut t = s.txn_begin();
            s.apply_write(&mut t, Key(1), format!("v{i}").as_bytes())
                .unwrap();
            commit(&s, &log, &mut t);
            s.txn_end(t);
        }
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"v5"[..]));
        assert_eq!(s.version_count(), 6, "full multi-versioning keeps all");
    }

    #[test]
    fn checkpoint_captures_watermark_and_gc_reclaims() {
        let (s, log) = setup();
        s.load_batch(&[(Key(1), &b"v0"[..])]).unwrap();
        let mut t = s.txn_begin();
        s.apply_write(&mut t, Key(1), b"v1").unwrap();
        commit(&s, &log, &mut t);
        s.txn_end(t);

        let d = dir("wm");
        let stats = s.checkpoint(&NoopEnv, &d).unwrap();
        assert_eq!(stats.records, 1);
        // Post-checkpoint write; old versions below the watermark are gone.
        let mut t = s.txn_begin();
        s.apply_write(&mut t, Key(1), b"v2").unwrap();
        commit(&s, &log, &mut t);
        s.txn_end(t);
        assert_eq!(s.version_count(), 2, "v0 reclaimed, v1+v2 remain");

        let entries = d.manifests().unwrap()[0].read_all().unwrap();
        assert_eq!(
            entries,
            vec![calc_core::file::RecordEntry::Value(
                Key(1),
                b"v1".to_vec().into_boxed_slice()
            )]
        );
    }

    #[test]
    fn pending_version_invisible_until_commit_and_dropped_on_abort() {
        let (s, log) = setup();
        s.load_batch(&[(Key(1), &b"committed"[..])]).unwrap();
        let mut t = s.txn_begin();
        s.apply_write(&mut t, Key(1), b"mine").unwrap();
        // Own write visible to the transaction (via get), which models
        // read-your-writes under the exclusive lock.
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"mine"[..]));
        s.on_abort(&mut t, &[]);
        s.txn_end(t);
        assert_eq!(s.get(Key(1)).as_deref(), Some(&b"committed"[..]));
        assert_eq!(s.version_count(), 1);
        let _ = log;
    }

    #[test]
    fn insert_delete_tombstones() {
        let (s, log) = setup();
        let mut t = s.txn_begin();
        assert!(s.apply_insert(&mut t, Key(9), b"x").unwrap());
        assert!(!s.apply_insert(&mut t, Key(9), b"y").unwrap());
        commit(&s, &log, &mut t);
        s.txn_end(t);
        assert_eq!(s.record_count(), 1);

        let mut t = s.txn_begin();
        s.apply_delete(&mut t, Key(9)).unwrap();
        commit(&s, &log, &mut t);
        s.txn_end(t);
        assert!(s.get(Key(9)).is_none());
        assert_eq!(s.record_count(), 0);

        // The deleted record is absent from a new checkpoint.
        let d = dir("tomb");
        let stats = s.checkpoint(&NoopEnv, &d).unwrap();
        assert_eq!(stats.records, 0);
    }

    #[test]
    fn memory_grows_with_updates_not_records() {
        // The paper's point: 100 records but 1100 versions between
        // checkpoints.
        let (s, log) = setup();
        for k in 0..100u64 {
            s.load_batch(&[(Key(k), &[0u8; 50][..])]).unwrap();
        }
        for round in 0..10 {
            for k in 0..100u64 {
                let mut t = s.txn_begin();
                s.apply_write(&mut t, Key(k), &[round as u8; 50]).unwrap();
                commit(&s, &log, &mut t);
                s.txn_end(t);
            }
        }
        assert_eq!(s.version_count(), 1100);
        let m = s.memory();
        assert!(m.extra_count >= 1000, "multi-versioning surplus visible");
        // A checkpoint GCs back towards one version per record.
        let d = dir("gc");
        s.checkpoint(&NoopEnv, &d).unwrap();
        assert_eq!(s.version_count(), 100);
    }

    #[test]
    fn checkpoint_is_consistent_under_concurrent_writers() {
        use std::sync::atomic::AtomicBool;
        let (s, log) = setup();
        let s = Arc::new(s);
        for k in 0..50u64 {
            s.load_batch(&[(Key(k), &0u64.to_le_bytes()[..])]).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let journal = Arc::new(Mutex::new(Vec::<(CommitSeq, u64, u64)>::new()));
        let locks = Arc::new(calc_txn::locks::LockManager::new(16));
        let workers: Vec<_> = (0..3u64)
            .map(|t| {
                let s = s.clone();
                let log = log.clone();
                let stop = stop.clone();
                let journal = journal.clone();
                let locks = locks.clone();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let k = (t * 1000 + i) % 50;
                        let guard = locks.acquire(&[(Key(k), calc_txn::locks::LockMode::Exclusive)]);
                        let mut tok = s.txn_begin();
                        let val = t * 1_000_000 + i;
                        s.apply_write(&mut tok, Key(k), &val.to_le_bytes()).unwrap();
                        let (seq, stamp) = log.append_commit();
                        s.on_commit(&mut tok, seq, stamp);
                        journal.lock().push((seq, k, val));
                        drop(guard);
                        s.txn_end(tok);
                        i += 1;
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let d = dir("concurrent");
        d.set_checkpoint_threads(4);
        let stats = s.checkpoint(&NoopEnv, &d).unwrap();
        assert_eq!(stats.parts, 4, "shards striped over the capture pool");
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        // Model state at the watermark.
        let mut entries = journal.lock().clone();
        entries.sort();
        let mut model: std::collections::BTreeMap<u64, u64> =
            (0..50).map(|k| (k, 0)).collect();
        for (seq, k, v) in entries {
            if seq <= stats.watermark {
                model.insert(k, v);
            }
        }
        let got = d.manifests().unwrap()[0].read_all().unwrap();
        assert_eq!(got.len(), 50);
        for e in got {
            if let calc_core::file::RecordEntry::Value(k, v) = e {
                let val = u64::from_le_bytes(v[..8].try_into().unwrap());
                assert_eq!(val, model[&k.0], "key {k:?} diverged");
            }
        }
    }
}
