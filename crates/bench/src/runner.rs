//! The generic experiment runner.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_core::strategy::CheckpointStats;
use calc_engine::{Database, EngineConfig, Sampler, StrategyKind, TimelinePoint};
use calc_txn::proc::{ProcId, ProcRegistry};
use calc_workload::micro::{MicroConfig, MicroWorkload};
use calc_workload::tpcc::{TpccConfig, TpccWorkload};

/// Which benchmark drives the run.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// The §5.1 microbenchmark.
    Micro(MicroConfig),
    /// TPC-C (§5.2).
    Tpcc(TpccConfig),
}

impl WorkloadSpec {
    fn record_capacity(&self, duration: Duration) -> usize {
        match self {
            WorkloadSpec::Micro(c) => c.db_size as usize,
            WorkloadSpec::Tpcc(c) => {
                // Leave insert headroom: assume ≤ 50k NewOrders/sec.
                c.capacity_hint((duration.as_secs_f64() * 50_000.0) as usize)
            }
        }
    }

    fn record_size(&self) -> usize {
        match self {
            WorkloadSpec::Micro(c) => c.record_size,
            WorkloadSpec::Tpcc(_) => 140,
        }
    }
}

/// How load is offered.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Feeders submit as fast as backpressure allows: peak throughput
    /// (Figures 2, 3, 4, 6, 7).
    Closed,
    /// One pacer submits at a fixed rate into an unbounded queue, so
    /// backlogs build during quiesce periods (the latency experiments of
    /// Figure 5).
    Open {
        /// Offered load in transactions/second.
        tps: f64,
    },
}

/// Everything one experiment run needs.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Checkpointing strategy under test.
    pub kind: StrategyKind,
    /// Workload.
    pub workload: WorkloadSpec,
    /// Run length.
    pub duration: Duration,
    /// When (relative to start) to trigger checkpoints.
    pub checkpoint_at: Vec<Duration>,
    /// Background merge batch for partial strategies (Figure 4's 4/8/16).
    pub merge_batch: Option<usize>,
    /// Worker threads.
    pub workers: usize,
    /// Feeder (load generator) threads for closed-loop mode.
    pub feeders: usize,
    /// Load mode.
    pub load: LoadMode,
    /// Simulated disk bandwidth (0 = unlimited).
    pub disk_bytes_per_sec: u64,
    /// Capture threads / part files per checkpoint cycle. `None` keeps
    /// the engine default (`min(store shards, cores)`).
    pub checkpoint_threads: Option<usize>,
    /// Timeline sampling interval.
    pub sample_every: Duration,
    /// Workload seed.
    pub seed: u64,
    /// Checkpoint directory root (a per-run subdirectory is created).
    pub dir_root: PathBuf,
}

impl RunSpec {
    /// A reasonable default spec for quick experiments.
    pub fn quick(kind: StrategyKind, workload: WorkloadSpec) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        RunSpec {
            kind,
            workload,
            duration: Duration::from_secs(5),
            checkpoint_at: vec![Duration::from_secs(1), Duration::from_secs(3)],
            merge_batch: None,
            workers: (cores - 1).max(2),
            feeders: 2,
            load: LoadMode::Closed,
            disk_bytes_per_sec: 150 * 1024 * 1024,
            checkpoint_threads: None,
            sample_every: Duration::from_millis(100),
            seed: 42,
            dir_root: std::env::temp_dir().join("calc-bench"),
        }
    }
}

/// Everything one experiment run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Strategy that ran.
    pub kind: StrategyKind,
    /// Throughput + memory timeline.
    pub timeline: Vec<TimelinePoint>,
    /// Total commits in the measurement window.
    pub committed: u64,
    /// Total aborts.
    pub aborted: u64,
    /// Latency CDF (submission→commit, nanoseconds → cumulative fraction).
    pub latency_cdf: Vec<(u64, f64)>,
    /// Latency quantiles in ns: (p50, p99, p999, max).
    pub latency_quantiles: (u64, u64, u64, u64),
    /// Stats of each triggered checkpoint.
    pub checkpoints: Vec<CheckpointStats>,
    /// The checkpoint trigger schedule that produced them.
    pub schedule: Vec<Duration>,
    /// Final record count.
    pub records: usize,
    /// Checkpoint cycles that failed during the run. Failed cycles are
    /// harmless (the strategy rolls its coverage forward), but a nonzero
    /// count means the throughput/latency numbers describe a run with
    /// less checkpoint I/O than scheduled.
    pub checkpoint_failures: u64,
    /// The first checkpoint failure, if any.
    pub first_checkpoint_error: Option<String>,
    /// Checkpoint directory of the run (for recovery-time measurements).
    pub dir: PathBuf,
}

impl RunResult {
    /// Mean throughput over the run (txns/sec).
    pub fn mean_tps(&self, duration: Duration) -> f64 {
        self.committed as f64 / duration.as_secs_f64()
    }

    /// Highest sampled memory footprint of the run, in bytes.
    pub fn peak_mem_bytes(&self) -> usize {
        self.timeline.iter().map(|p| p.mem_bytes).max().unwrap_or(0)
    }
}

/// Runs one experiment to completion.
pub fn run(spec: &RunSpec) -> RunResult {
    let run_dir = spec.dir_root.join(format!(
        "{}-{}-{}",
        spec.kind.name(),
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);

    let mut registry = ProcRegistry::new();
    match &spec.workload {
        WorkloadSpec::Micro(c) => MicroWorkload::register(&mut registry, c),
        WorkloadSpec::Tpcc(_) => TpccWorkload::register(&mut registry),
    }

    let mut ec = EngineConfig::new(
        spec.kind,
        spec.workload.record_capacity(spec.duration),
        spec.workload.record_size(),
        run_dir.clone(),
    );
    ec.workers = spec.workers;
    ec.disk_bytes_per_sec = spec.disk_bytes_per_sec;
    ec.merge_batch = spec.merge_batch;
    if let Some(threads) = spec.checkpoint_threads {
        ec.checkpoint_threads = threads;
    }
    ec.queue_capacity = match spec.load {
        LoadMode::Closed => Some(spec.workers * 64),
        LoadMode::Open { .. } => None,
    };
    let db = Arc::new(Database::open(ec, registry).expect("open database"));

    // Populate.
    match &spec.workload {
        WorkloadSpec::Micro(c) => MicroWorkload::new(c.clone(), spec.seed).populate(&db),
        WorkloadSpec::Tpcc(c) => TpccWorkload::new(c.clone(), spec.seed).populate(&db),
    }
    db.finalize_load(spec.kind.is_partial()).expect("base checkpoint");

    // Reset-point: metrics start after load.
    let stop = Arc::new(AtomicBool::new(false));
    let start_committed = db.metrics().committed();
    let sampler = Sampler::start(db.metrics().clone(), db.strategy().clone(), spec.sample_every);

    // Feeders.
    let feeders: Vec<_> = match spec.load {
        LoadMode::Closed => (0..spec.feeders.max(1))
            .map(|f| {
                let db = db.clone();
                let stop = stop.clone();
                let workload = spec.workload.clone();
                let seed = spec.seed.wrapping_add(1 + f as u64);
                std::thread::spawn(move || feed_closed(&db, &workload, seed, f as u64, &stop))
            })
            .collect(),
        LoadMode::Open { tps } => {
            let db = db.clone();
            let stop = stop.clone();
            let workload = spec.workload.clone();
            let seed = spec.seed.wrapping_add(1);
            vec![std::thread::spawn(move || {
                feed_open(&db, &workload, seed, tps, &stop)
            })]
        }
    };

    // Checkpoint schedule.
    let run_start = Instant::now();
    let mut checkpoints = Vec::new();
    let mut schedule = spec.checkpoint_at.clone();
    schedule.sort();
    let ckpt_thread = {
        let db = db.clone();
        let schedule = schedule.clone();
        std::thread::spawn(move || {
            let mut stats = Vec::new();
            let mut failures = 0u64;
            let mut first_error = None;
            for at in schedule {
                let now = run_start.elapsed();
                if at > now {
                    std::thread::sleep(at - now);
                }
                match db.checkpoint_now() {
                    Ok(s) => stats.push(s),
                    Err(e) => {
                        failures += 1;
                        first_error.get_or_insert_with(|| e.to_string());
                    }
                }
            }
            (stats, failures, first_error)
        })
    };

    // Run for the configured duration.
    let elapsed = run_start.elapsed();
    if spec.duration > elapsed {
        std::thread::sleep(spec.duration - elapsed);
    }
    stop.store(true, Ordering::Relaxed);
    for f in feeders {
        let _ = f.join();
    }
    let (triggered, checkpoint_failures, first_checkpoint_error) =
        ckpt_thread.join().expect("checkpoint thread");
    checkpoints.extend(triggered);
    let timeline = sampler.finish();

    let committed = db.metrics().committed() - start_committed;
    let aborted = db.metrics().aborted();
    let latency_cdf = db.metrics().latency.cdf();
    let q = &db.metrics().latency;
    let latency_quantiles = (
        q.quantile(0.5),
        q.quantile(0.99),
        q.quantile(0.999),
        q.max(),
    );
    let records = db.record_count();

    RunResult {
        kind: spec.kind,
        timeline,
        committed,
        aborted,
        latency_cdf,
        latency_quantiles,
        checkpoints,
        schedule,
        records,
        checkpoint_failures,
        first_checkpoint_error,
        dir: run_dir,
    }
}

fn next_request(
    workload: &WorkloadSpec,
    micro: &mut Option<MicroWorkload>,
    tpcc: &mut Option<TpccWorkload>,
) -> (ProcId, Arc<[u8]>) {
    match workload {
        WorkloadSpec::Micro(_) => micro.as_mut().expect("micro generator").next_request(),
        WorkloadSpec::Tpcc(_) => tpcc.as_mut().expect("tpcc generator").next_request(),
    }
}

fn make_generators(
    workload: &WorkloadSpec,
    seed: u64,
    instance: u64,
) -> (Option<MicroWorkload>, Option<TpccWorkload>) {
    match workload {
        WorkloadSpec::Micro(c) => (Some(MicroWorkload::new(c.clone(), seed)), None),
        WorkloadSpec::Tpcc(c) => {
            let mut g = TpccWorkload::new(c.clone(), seed);
            g.set_history_partition(instance + 1);
            (None, Some(g))
        }
    }
}

fn feed_closed(
    db: &Database,
    workload: &WorkloadSpec,
    seed: u64,
    instance: u64,
    stop: &AtomicBool,
) {
    let (mut micro, mut tpcc) = make_generators(workload, seed, instance);
    while !stop.load(Ordering::Relaxed) {
        let (proc, params) = next_request(workload, &mut micro, &mut tpcc);
        db.submit(proc, params);
    }
}

fn feed_open(db: &Database, workload: &WorkloadSpec, seed: u64, tps: f64, stop: &AtomicBool) {
    let (mut micro, mut tpcc) = make_generators(workload, seed, 0);
    let start = Instant::now();
    let mut sent = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = (start.elapsed().as_secs_f64() * tps) as u64;
        if sent < due {
            for _ in 0..(due - sent).min(1024) {
                let (proc, params) = next_request(workload, &mut micro, &mut tpcc);
                db.submit(proc, params);
                sent += 1;
            }
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Measures this host's peak throughput for a workload with no
/// checkpointing — the "None" baseline, also used to derive the 70%/90%
/// offered loads of Figure 5.
pub fn measure_peak(workload: &WorkloadSpec, duration: Duration, dir_root: &std::path::Path) -> f64 {
    let mut spec = RunSpec::quick(StrategyKind::NoCheckpoint, workload.clone());
    spec.duration = duration;
    spec.checkpoint_at = Vec::new();
    spec.dir_root = dir_root.to_path_buf();
    spec.disk_bytes_per_sec = 0;
    let result = run(&spec);
    result.mean_tps(duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_spec(kind: StrategyKind) -> RunSpec {
        let mut spec = RunSpec::quick(
            kind,
            WorkloadSpec::Micro(MicroConfig {
                db_size: 2000,
                record_size: 100,
                ops_per_txn: 10,
                txn_spin: 8,
                long_txn_prob: 0.0,
                long_txn_spin: 1000,
                long_txn_batch: 50,
                hot_fraction: 1.0,
            }),
        );
        spec.duration = Duration::from_millis(800);
        spec.checkpoint_at = vec![Duration::from_millis(200)];
        spec.workers = 2;
        spec.feeders = 1;
        spec.disk_bytes_per_sec = 0;
        spec.sample_every = Duration::from_millis(50);
        spec
    }

    #[test]
    fn closed_loop_run_produces_throughput_and_checkpoint() {
        let result = run(&micro_spec(StrategyKind::Calc));
        assert!(result.committed > 100, "committed={}", result.committed);
        assert_eq!(result.checkpoints.len(), 1);
        assert!(result.checkpoints[0].records > 0);
        assert!(result.timeline.len() >= 8);
        assert!(!result.latency_cdf.is_empty());
        assert_eq!(result.checkpoint_failures, 0);
        assert!(result.first_checkpoint_error.is_none());
    }

    #[test]
    fn open_loop_run_respects_offered_load() {
        let mut spec = micro_spec(StrategyKind::NoCheckpoint);
        spec.checkpoint_at = Vec::new();
        spec.load = LoadMode::Open { tps: 500.0 };
        let result = run(&spec);
        // 500 tps for 0.8 s ≈ 400 txns; allow generous slack.
        assert!(
            (200..=650).contains(&result.committed),
            "committed={}",
            result.committed
        );
    }

    #[test]
    fn every_strategy_survives_the_runner() {
        for kind in [StrategyKind::PCalc, StrategyKind::Naive, StrategyKind::Zigzag] {
            let result = run(&micro_spec(kind));
            assert!(result.committed > 0, "{}: no commits", kind.name());
            assert_eq!(result.checkpoints.len(), 1, "{}", kind.name());
        }
    }
}
