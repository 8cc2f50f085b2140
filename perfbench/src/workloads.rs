//! The four workloads. Every one runs the same stages — set-up, a fixed
//! close-out that leaves an on-disk state every run reproduces, timed
//! restarts over that state, a timed closed-loop load on the recovered
//! engine, and a last restart that must bring back every acknowledged
//! write — so every workload reports every end-to-end metric. They differ
//! in the engine flavour, the request each load thread issues, and the
//! close-out recipe.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::crc::Crc32;
use calc_common::rng::SplitMix;
use calc_common::types::Key;
use calc_common::vfs::OsVfs;
use calc_core::strategy::CheckpointStats;
use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_server::{procs, Client, Server};
use calc_txn::proc::{params, ProcRegistry};
use calc_workload::micro::{MicroConfig, MicroWorkload};

use crate::probes;
use crate::stats::{median, Samples, Sorted};
use crate::trace::Tracer;

pub const NAMES: [&str; 4] = [
    "embedded.micro-calc",
    "wire.put-durable",
    "wire.get",
    "recover.chain-tail",
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    MicroCalc,
    WirePut,
    WireGet,
    ChainTail,
}

/// What a workload is made of. The sizes are the issue's.
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub strategy: StrategyKind,
    pub records: u64,
    pub value_len: usize,
    /// Commands logged after the last close-out checkpoint: the tail every
    /// timed restart replays.
    pub tail_cmds: u64,
    /// Close-out partial checkpoints, each after this many hot-set updates.
    pub partials: u32,
    pub updates_per_partial: u64,
    /// Traced run: one request in this many gets spans, so that a few
    /// thousand a second are recorded whatever the workload's rate.
    pub trace_stride: u64,
}

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        kind: Kind::WireGet,
        strategy: StrategyKind::Calc,
        records: 200_000,
        value_len: 64,
        tail_cmds: 20_000,
        partials: 0,
        updates_per_partial: 0,
        trace_stride: 1,
    };
    Some(match name {
        "embedded.micro-calc" => Spec {
            name: NAMES[0],
            kind: Kind::MicroCalc,
            records: 400_000,
            value_len: 100,
            trace_stride: 32,
            ..base
        },
        "wire.put-durable" => Spec {
            name: NAMES[1],
            kind: Kind::WirePut,
            ..base
        },
        "wire.get" => Spec {
            name: NAMES[2],
            kind: Kind::WireGet,
            trace_stride: 32,
            ..base
        },
        "recover.chain-tail" => Spec {
            name: NAMES[3],
            kind: Kind::ChainTail,
            strategy: StrategyKind::PCalc,
            records: 500_000,
            tail_cmds: 200_000,
            partials: 3,
            updates_per_partial: 50_000,
            trace_stride: 8,
            ..base
        },
        _ => return None,
    })
}

const WARMUP: Duration = Duration::from_secs(1);
/// Checkpoint cadence during the timed load, and the length of the periods
/// the load's metrics are taken over.
const CKPT_EVERY: Duration = Duration::from_secs(2);
const SETUP_REPS: usize = 3;
/// Timed restarts after one discarded first one.
const RECOVERY_REPS: usize = 5;
/// Hot set of the chain-tail close-out, as a share of the records.
const HOT_SHARE: u64 = 10;
/// Embedded feeders time one request in this many through `execute`; the
/// rest go through fire-and-forget `submit`.
const TIMED_EVERY: u64 = 32;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Scratch directory, inside the build directory; removed at exit.
    pub work: PathBuf,
    pub tracer: Tracer,
    /// Oracle self-test: verify against a wrong expected value.
    pub break_check: bool,
}

/// What one run measured. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
    pub meta: Vec<(&'static str, String)>,
}

// ---------------------------------------------------------------- engine

/// An open engine plus the configuration it runs under.
pub struct Engine {
    pub db: Database,
    pub cfg: EngineConfig,
}

fn micro_config(spec: &Spec) -> MicroConfig {
    // The paper's §5.1 transaction: read and update 10 records, uniform
    // keys, a little computing; no long transactions.
    MicroConfig {
        db_size: spec.records,
        record_size: spec.value_len,
        ops_per_txn: 10,
        txn_spin: 8,
        long_txn_prob: 0.0,
        long_txn_spin: 0,
        long_txn_batch: 0,
        hot_fraction: 1.0,
    }
}

pub fn registry(spec: &Spec) -> ProcRegistry {
    match spec.kind {
        Kind::MicroCalc => {
            let mut r = ProcRegistry::new();
            MicroWorkload::register(&mut r, &micro_config(spec));
            r
        }
        _ => procs::registry(),
    }
}

/// Opens the engine over `dir`, recovering whatever durable state is
/// there. Shipped defaults; only `workers` (and pCALC for the chain
/// workload) are set. The key-value flavours go through
/// `calc_server::open_or_recover`; the microbenchmark needs its own
/// procedures, so it repeats that function's steps with them.
pub fn open(spec: &Spec, dir: &Path, nproc: usize) -> io::Result<Engine> {
    if spec.kind != Kind::MicroCalc {
        let mut seen = None;
        let db = calc_server::open_or_recover(dir, |c| {
            c.workers = nproc;
            c.strategy = spec.strategy;
            seen = Some(c.clone());
        })?;
        return Ok(Engine {
            db,
            cfg: seen.expect("open_or_recover runs the tune closure"),
        });
    }
    let log_dir = dir.join("cmdlog");
    let commands = if log_dir.is_dir() {
        calc_recovery::read_dir_logs(&OsVfs, &log_dir)?
    } else {
        Vec::new()
    };
    let ckpt_dir = dir.join("ckpts");
    let had_state = !commands.is_empty()
        || std::fs::read_dir(&ckpt_dir)
            .map(|mut d| d.next().is_some())
            .unwrap_or(false);
    let mut cfg = EngineConfig::new(
        spec.strategy,
        spec.records as usize,
        spec.value_len,
        ckpt_dir,
    );
    cfg.command_log_dir = Some(log_dir);
    cfg.workers = nproc;
    let db = Database::open(cfg.clone(), registry(spec))?;
    if had_state {
        db.recover(&commands)
            .map_err(|e| io::Error::other(format!("recovery failed: {e}")))?;
    }
    Ok(Engine { db, cfg })
}

// ---------------------------------------------------------------- oracle

/// Expected contents of a key-value store: the value of a key is a pure
/// function of `(seed, key, version)`, and each key has one writer.
pub struct Model {
    seed: u64,
    value_len: usize,
    versions: Vec<AtomicU32>,
}

impl Model {
    fn new(seed: u64, spec: &Spec) -> Model {
        Model {
            seed,
            value_len: spec.value_len,
            versions: (0..spec.records).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    // Relaxed throughout: a key's version is touched by its one writer,
    // and readers run after that thread was joined.
    fn version(&self, key: u64) -> u32 {
        self.versions[key as usize].load(Ordering::Relaxed)
    }

    fn set(&self, key: u64, version: u32) {
        self.versions[key as usize].store(version, Ordering::Relaxed);
    }

    fn fill(&self, key: u64, version: u32, buf: &mut Vec<u8>) {
        buf.clear();
        let mut rng = SplitMix::new(self.seed ^ key.rotate_left(24) ^ u64::from(version) << 40);
        while buf.len() < self.value_len {
            let word = rng.next_u64().to_le_bytes();
            let n = word.len().min(self.value_len - buf.len());
            buf.extend_from_slice(&word[..n]);
        }
    }

    fn matches(&self, key: u64, got: Option<&[u8]>, buf: &mut Vec<u8>) -> bool {
        self.fill(key, self.version(key), buf);
        got == Some(&buf[..])
    }

    /// One upsert through the engine, recorded only once it committed.
    fn put(&self, db: &Database, key: u64, buf: &mut Vec<u8>) -> bool {
        let version = self.version(key) + 1;
        self.fill(key, version, buf);
        let p = params::Writer::new().u64(key).bytes(buf).finish();
        let ok = matches!(db.execute(procs::PUT, p), TxnOutcome::Committed(_));
        if ok {
            self.set(key, version);
        }
        ok
    }
}

/// How a workload checks its store: against the model, or — for the
/// microbenchmark, whose values are computed by its procedure — against a
/// fingerprint of the live store taken before it was shut down.
enum Oracle {
    Model(Arc<Model>),
    Fingerprint(Option<(usize, u32)>),
}

fn fingerprint(db: &Database, records: u64) -> (usize, u32) {
    let mut crc = Crc32::new();
    for k in 0..records {
        if let Some(v) = db.get(Key(k)) {
            crc.update(&k.to_le_bytes());
            crc.update(&v);
        }
    }
    (db.record_count(), crc.finish())
}

impl Oracle {
    /// Remembers the live store (fingerprint oracle only).
    fn observe(&mut self, db: &Database, records: u64) {
        if let Oracle::Fingerprint(seen) = self {
            *seen = Some(fingerprint(db, records));
        }
    }

    /// Records that are lost or wrong in `db`.
    fn mismatches(&self, db: &Database, records: u64) -> u64 {
        match self {
            Oracle::Model(model) => {
                let mut buf = Vec::new();
                let wrong = (0..records)
                    .filter(|&k| !model.matches(k, db.get(Key(k)).as_deref(), &mut buf))
                    .count() as u64;
                wrong + (db.record_count() as u64).abs_diff(records)
            }
            // A fingerprint cannot say which record differs: count them all.
            Oracle::Fingerprint(seen) => {
                if *seen == Some(fingerprint(db, records)) {
                    0
                } else {
                    records
                }
            }
        }
    }

    fn break_it(&mut self) {
        match self {
            Oracle::Model(model) => model.set(0, model.version(0) + 1),
            Oracle::Fingerprint(seen) => *seen = seen.map(|(n, h)| (n, !h)),
        }
    }
}

// ------------------------------------------------------------------ load

/// One closed-loop load generator: issues a request, waits for the reply.
trait Actor: Send {
    fn step(&mut self, tracer: &Tracer, parent: u64, op: u64) -> Step;
}

struct Step {
    /// Whether this request's latency is a sample.
    timed: bool,
    failed: bool,
}

/// Keys `lane, lane + lanes, …` below `limit`: one writer per key.
fn lane_key(rng: &mut SplitMix, limit: u64, lane: u64, lanes: u64) -> u64 {
    rng.next_below((limit - lane).div_ceil(lanes)) * lanes + lane
}

struct MicroFeeder {
    db: Arc<Database>,
    gen: MicroWorkload,
    sent: u64,
}

impl Actor for MicroFeeder {
    fn step(&mut self, tracer: &Tracer, parent: u64, op: u64) -> Step {
        let (proc, p) = self.gen.next_request();
        self.sent += 1;
        if self.sent % TIMED_EVERY != 0 {
            self.db.submit(proc, p);
            return Step {
                timed: false,
                failed: false,
            };
        }
        let _s = tracer.span("engine.Database::execute", parent, op);
        let ok = matches!(self.db.execute(proc, p), TxnOutcome::Committed(_));
        Step {
            timed: true,
            failed: !ok,
        }
    }
}

struct WirePutter {
    client: Client,
    model: Arc<Model>,
    rng: SplitMix,
    lane: u64,
    lanes: u64,
    buf: Vec<u8>,
}

impl Actor for WirePutter {
    fn step(&mut self, tracer: &Tracer, parent: u64, op: u64) -> Step {
        let key = lane_key(
            &mut self.rng,
            self.model.versions.len() as u64,
            self.lane,
            self.lanes,
        );
        let version = self.model.version(key) + 1;
        self.model.fill(key, version, &mut self.buf);
        let _s = tracer.span("server.Client::put", parent, op);
        let ok = self.client.put(key, &self.buf).is_ok();
        if ok {
            self.model.set(key, version);
        }
        Step {
            timed: true,
            failed: !ok,
        }
    }
}

struct WireGetter {
    client: Client,
    model: Arc<Model>,
    rng: SplitMix,
    buf: Vec<u8>,
    keys: Vec<u64>,
}

impl Actor for WireGetter {
    fn step(&mut self, tracer: &Tracer, parent: u64, op: u64) -> Step {
        let records = self.model.versions.len() as u64;
        let ok = if self.rng.next_below(10) != 0 {
            let key = self.rng.next_below(records);
            let _s = tracer.span("server.Client::get", parent, op);
            match self.client.get(key) {
                Ok(got) => self.model.matches(key, got.as_deref(), &mut self.buf),
                Err(_) => false,
            }
        } else {
            self.keys.clear();
            self.keys
                .extend((0..10).map(|_| self.rng.next_below(records)));
            let _s = tracer.span("server.Client::mget", parent, op);
            match self.client.mget(&self.keys) {
                Ok(got) => {
                    got.len() == self.keys.len()
                        && self
                            .keys
                            .iter()
                            .zip(&got)
                            .all(|(&k, v)| self.model.matches(k, v.as_deref(), &mut self.buf))
                }
                Err(_) => false,
            }
        };
        Step {
            timed: true,
            failed: !ok,
        }
    }
}

/// Embedded reads on a recovered store: one request is `READ_BATCH`
/// `Database::get`s, each checked against the model. Each thread walks all
/// keys in a permutation of its own, so every record is read again and
/// again, none more often than another.
struct KvReader {
    db: Arc<Database>,
    model: Arc<Model>,
    /// Position in the walk and its step, coprime to the key count.
    at: u64,
    step: u64,
    buf: Vec<u8>,
}

const READ_BATCH: u64 = 64;

impl KvReader {
    fn new(db: Arc<Database>, model: Arc<Model>, seed: u64) -> KvReader {
        let keys = model.versions.len() as u64;
        let mut rng = SplitMix::new(seed);
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let mut step = keys / 3 + rng.next_below(keys / 3) + 1;
        while gcd(step, keys) != 1 {
            step += 1;
        }
        let at = rng.next_below(keys);
        KvReader {
            db,
            model,
            at,
            step,
            buf: Vec::new(),
        }
    }
}

impl Actor for KvReader {
    fn step(&mut self, tracer: &Tracer, parent: u64, op: u64) -> Step {
        let keys = self.model.versions.len() as u64;
        let _s = tracer.span("engine.Database::get", parent, op);
        let mut ok = true;
        for _ in 0..READ_BATCH {
            self.at = (self.at + self.step) % keys;
            let got = self.db.get(Key(self.at));
            ok &= self.model.matches(self.at, got.as_deref(), &mut self.buf);
        }
        Step {
            timed: true,
            failed: !ok,
        }
    }
}

#[derive(Default)]
struct LoadResult {
    window_s: f64,
    ops: u64,
    /// Every latency sample of the measured window.
    samples: Option<Sorted>,
    /// Per checkpoint period of the window: progress per second, and the
    /// `LADDER` percentiles of its latency samples in µs.
    period_rates: Vec<f64>,
    period_latency: Vec<[f64; LADDER.len()]>,
    attempted: u64,
    failed: u64,
    cycles: Vec<CheckpointStats>,
    ckpt_failures: u64,
    /// Progress made and time spent inside checkpoint cycles that ran
    /// wholly inside the measured window.
    in_ckpt_ops: u64,
    in_ckpt_s: f64,
    /// Group-commit batches and records over the measured window.
    batches: u64,
    batch_records: u64,
}

/// The latency percentiles taken per period; the gated ones are named in
/// `run`.
const LADDER: [f64; 4] = [0.5, 0.9, 0.95, 0.99];

struct ThreadTally {
    /// One recorder per checkpoint period, and a last one for the rest of
    /// the window.
    periods: Vec<Samples>,
    attempted: u64,
    failed: u64,
}

fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

/// Runs `actors` (one thread each) against `db` for the warm-up plus the
/// measured window, with checkpoint cycles on a fixed schedule: cycle `k`
/// starts `k` periods after the load does, however long cycles take, so
/// their number — and the bytes on disk afterwards — depend only on the
/// run length. The window is cut into those periods, one cycle in each,
/// and throughput and latency are taken per period: the run reports their
/// medians, which one stall of the host cannot move.
fn run_load(
    ctx: &Ctx,
    spec: &Spec,
    db: &Arc<Database>,
    actors: Vec<Box<dyn Actor>>,
    parent: u64,
) -> LoadResult {
    let counter = AtomicU64::new(0);
    let progress = || match spec.kind {
        // Fire-and-forget submits complete later: count commits instead.
        Kind::MicroCalc => db.metrics().committed(),
        _ => counter.load(Ordering::Relaxed),
    };
    let stop = AtomicBool::new(false);
    let window = Duration::from_secs_f64(ctx.seconds);
    let period = CKPT_EVERY.min(window);
    let periods = (window.as_secs_f64() / period.as_secs_f64()) as usize;
    let cycles_due = (((WARMUP + window).as_secs_f64() - 0.5) / period.as_secs_f64()) as u32;
    let tracer = &ctx.tracer;
    let quiet = &Tracer::new(false);
    let span = tracer.span("bench.load", parent, 0);
    let load_id = span.id;
    let start = Instant::now();
    let window_start = start + WARMUP;
    let window_end = window_start + window;

    let mut result = LoadResult::default();
    std::thread::scope(|s| {
        let (counter, stop, progress) = (&counter, &stop, &progress);
        let workers: Vec<_> = actors
            .into_iter()
            .enumerate()
            .map(|(lane, mut actor)| {
                s.spawn(move || {
                    let mut tally = ThreadTally {
                        periods: (0..=periods).map(|_| Samples::default()).collect(),
                        attempted: 0,
                        failed: 0,
                    };
                    while !stop.load(Ordering::Relaxed) {
                        tally.attempted += 1;
                        let op = (lane as u64) << 40 | tally.attempted;
                        // Only the requests picked for tracing record spans,
                        // their own and the ones the actor opens inside.
                        let traced = tracer.enabled() && tally.attempted % spec.trace_stride == 0;
                        let tracer = if traced { tracer } else { quiet };
                        let req = tracer.span("bench.request", load_id, op);
                        let t0 = Instant::now();
                        let step = actor.step(tracer, req.id, op);
                        let took = t0.elapsed();
                        drop(req);
                        tally.failed += u64::from(step.failed);
                        if step.timed && t0 >= window_start && t0 < window_end {
                            let nth = (t0 - window_start).as_secs_f64() / period.as_secs_f64();
                            tally.periods[(nth as usize).min(periods)].push(took);
                        }
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    tally
                })
            })
            .collect();

        let scheduler = s.spawn(move || {
            let mut cycles = Vec::new();
            let (mut failures, mut in_ops, mut in_s) = (0u64, 0u64, 0f64);
            for k in 1..=cycles_due {
                sleep_until(start + period * k);
                let p0 = progress();
                let t0 = Instant::now();
                let cycle = {
                    let _s = tracer.span("engine.Database::checkpoint_now", load_id, 0);
                    db.checkpoint_now()
                };
                match cycle {
                    Ok(stats) => cycles.push(stats),
                    Err(e) => {
                        eprintln!("checkpoint cycle {k} failed: {e}");
                        failures += 1;
                    }
                }
                let t1 = Instant::now();
                if t0 >= window_start && t1 < window_end {
                    in_ops += progress() - p0;
                    in_s += (t1 - t0).as_secs_f64();
                }
            }
            (cycles, failures, in_ops, in_s)
        });

        sleep_until(window_start);
        let (b0, r0) = (
            db.health().commit_batches(),
            db.health().commit_batch_records(),
        );
        let mut marks = vec![(Instant::now(), progress())];
        for nth in 1..=periods as u32 {
            sleep_until(window_start + period * nth);
            marks.push((Instant::now(), progress()));
        }
        sleep_until(window_end);
        let (t1, p1) = (Instant::now(), progress());
        stop.store(true, Ordering::Relaxed);
        result.ops = p1 - marks[0].1;
        result.window_s = (t1 - marks[0].0).as_secs_f64();
        result.period_rates = marks
            .windows(2)
            .map(|m| (m[1].1 - m[0].1) as f64 / (m[1].0 - m[0].0).as_secs_f64())
            .collect();
        result.batches = db.health().commit_batches() - b0;
        result.batch_records = db.health().commit_batch_records() - r0;

        let mut by_period: Vec<Vec<Samples>> = (0..=periods).map(|_| Vec::new()).collect();
        for w in workers {
            let tally = w.join().expect("load thread panicked");
            result.attempted += tally.attempted;
            result.failed += tally.failed;
            for (all, one) in by_period.iter_mut().zip(tally.periods) {
                all.push(one);
            }
        }
        let mut sorted: Vec<Sorted> = by_period.into_iter().map(Samples::merge).collect();
        for one in &sorted[..periods] {
            result
                .period_latency
                .push(LADDER.map(|p| one.percentile_us(p).unwrap_or(f64::NAN)));
        }
        result.samples = Some(Sorted::merge(std::mem::take(&mut sorted)));
        (
            result.cycles,
            result.ckpt_failures,
            result.in_ckpt_ops,
            result.in_ckpt_s,
        ) = scheduler.join().expect("checkpoint scheduler panicked");
    });
    span.end();
    result
}

/// The timed load of a workload, on `engine`. Returns the engine back.
fn serve(
    ctx: &Ctx,
    spec: &Spec,
    engine: Engine,
    oracle: &Oracle,
    parent: u64,
) -> (Engine, LoadResult) {
    let Engine { db, cfg } = engine;
    let db = Arc::new(db);
    let model = || match oracle {
        Oracle::Model(m) => m.clone(),
        Oracle::Fingerprint(_) => unreachable!("key-value workloads check against the model"),
    };

    let lanes = ctx.nproc as u64;
    let seed = |lane: u64| ctx.seed.wrapping_mul(0x9e37_79b9).wrapping_add(lane + 1);
    let mut result = match spec.kind {
        Kind::MicroCalc => {
            // Feed the queue from half the cores; the workers get the rest.
            let actors = (0..(lanes / 2).max(1))
                .map(|lane| {
                    let gen = MicroWorkload::new(micro_config(spec), seed(lane));
                    let db = db.clone();
                    Box::new(MicroFeeder { db, gen, sent: 0 }) as Box<dyn Actor>
                })
                .collect();
            let mut r = run_load(ctx, spec, &db, actors, parent);
            // Every submitted transaction must come back committed.
            let deadline = Instant::now() + Duration::from_secs(30);
            let done = || db.metrics().committed() + db.metrics().aborted();
            while done() < r.attempted && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            r.failed = r
                .failed
                .max(r.attempted - db.metrics().committed().min(r.attempted));
            r
        }
        Kind::WirePut | Kind::WireGet => {
            let server = Server::start(db.clone(), "127.0.0.1:0").expect("bind loopback");
            let addr = server.local_addr();
            let actors = (0..lanes)
                .map(|lane| {
                    let client = Client::connect(addr).expect("connect to the server");
                    let (model, rng, buf) = (model(), SplitMix::new(seed(lane)), Vec::new());
                    if spec.kind == Kind::WirePut {
                        Box::new(WirePutter {
                            client,
                            model,
                            rng,
                            lane,
                            lanes,
                            buf,
                        }) as Box<dyn Actor>
                    } else {
                        Box::new(WireGetter {
                            client,
                            model,
                            rng,
                            buf,
                            keys: Vec::new(),
                        })
                    }
                })
                .collect();
            let r = run_load(ctx, spec, &db, actors, parent);
            drop(server.shutdown());
            r
        }
        Kind::ChainTail => {
            let actors = (0..lanes)
                .map(|lane| {
                    Box::new(KvReader::new(db.clone(), model(), seed(lane))) as Box<dyn Actor>
                })
                .collect();
            run_load(ctx, spec, &db, actors, parent)
        }
    };
    result.failed += result.ckpt_failures;
    let db = Arc::try_unwrap(db).expect("load threads and server released the engine");
    (Engine { db, cfg }, result)
}

// ---------------------------------------------------------------- stages

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Open + preload + base checkpoint into a fresh directory, several times;
/// the last engine is kept. Returns it with the median time.
fn setup(
    ctx: &Ctx,
    spec: &Spec,
    dir: &Path,
    oracle: &Oracle,
    parent: u64,
) -> io::Result<(Engine, f64)> {
    let mut times = Vec::new();
    let mut buf = Vec::new();
    loop {
        let span = ctx.tracer.span("bench.setup", parent, 0);
        let t0 = Instant::now();
        let engine = {
            let _s = ctx.tracer.span("server.open_or_recover", span.id, 0);
            open(spec, dir, ctx.nproc)?
        };
        {
            let _s = ctx.tracer.span("engine.Database::load_initial", span.id, 0);
            match oracle {
                Oracle::Fingerprint(_) => {
                    MicroWorkload::new(micro_config(spec), 0).populate(&engine.db)
                }
                Oracle::Model(model) => {
                    for k in 0..spec.records {
                        model.fill(k, 0, &mut buf);
                        engine
                            .db
                            .load_initial(Key(k), &buf)
                            .expect("store sized for the preload");
                    }
                }
            }
        }
        {
            let _s = ctx
                .tracer
                .span("engine.Database::finalize_load", span.id, 0);
            engine.db.finalize_load(true)?;
        }
        times.push(secs(t0.elapsed()));
        span.end();
        if times.len() == SETUP_REPS {
            return Ok((engine, median(&times)));
        }
        drop(engine);
        std::fs::remove_dir_all(dir)?;
    }
}

struct Closeout {
    disk_bytes: u64,
    user_bytes: u64,
    /// The last checkpoint of the close-out, taken with no load running.
    quiescent: CheckpointStats,
    failed: u64,
    attempted: u64,
}

/// Fixed work that leaves `dir` in a state every run of this workload
/// reproduces: checkpoint(s), then `tail_cmds` logged commands, log synced,
/// engine shut down. The timed restarts run over exactly this.
fn closeout(
    ctx: &Ctx,
    spec: &Spec,
    dir: &Path,
    engine: Engine,
    oracle: &mut Oracle,
    parent: u64,
) -> io::Result<Closeout> {
    let span = ctx.tracer.span("bench.closeout", parent, 0);
    let db = engine.db;
    let (mut failed, mut attempted) = (0, 0);
    let mut phase = 0u64;
    // `count` upserts on the hot set (or microbenchmark transactions) from
    // one thread per core, each on its own keys.
    let hot = spec.records / HOT_SHARE;
    let mut updates = |count: u64| {
        phase += 1;
        let lanes = ctx.nproc as u64;
        let bad = AtomicU64::new(0);
        std::thread::scope(|s| {
            for lane in 0..lanes {
                let (db, bad, oracle) = (&db, &bad, &*oracle);
                let seed = ctx.seed ^ (phase << 56) ^ (lane << 48);
                let share = count / lanes + u64::from(lane < count % lanes);
                s.spawn(move || match oracle {
                    Oracle::Fingerprint(_) => {
                        let mut gen = MicroWorkload::new(micro_config(spec), seed);
                        for _ in 0..share {
                            let (proc, p) = gen.next_request();
                            if !matches!(db.execute(proc, p), TxnOutcome::Committed(_)) {
                                bad.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    Oracle::Model(model) => {
                        let (mut rng, mut buf) = (SplitMix::new(seed), Vec::new());
                        for _ in 0..share {
                            let key = lane_key(&mut rng, hot, lane, lanes);
                            if !model.put(db, key, &mut buf) {
                                bad.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        attempted += count;
        failed += bad.into_inner();
    };

    let checkpoint = |db: &Database| {
        let _s = ctx
            .tracer
            .span("engine.Database::checkpoint_now", span.id, 0);
        db.checkpoint_now()
    };
    let mut quiescent = None;
    if spec.partials == 0 {
        quiescent = Some(checkpoint(&db)?);
    }
    for _ in 0..spec.partials {
        updates(spec.updates_per_partial);
        quiescent = Some(checkpoint(&db)?);
    }
    updates(spec.tail_cmds);
    db.sync_command_log()
        .map_err(|e| io::Error::other(format!("log sync failed: {e}")))?;
    oracle.observe(&db, spec.records);
    let user_bytes = db.record_count() as u64 * spec.value_len as u64;
    db.shutdown();
    span.end();
    Ok(Closeout {
        disk_bytes: dir_bytes(dir)?,
        user_bytes,
        quiescent: quiescent.expect("the close-out takes at least one checkpoint"),
        failed,
        attempted,
    })
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Restarts over `dir`: one discarded, then `RECOVERY_REPS` timed from the
/// call until the engine is serving. The last engine is kept.
fn recoveries(ctx: &Ctx, spec: &Spec, dir: &Path, parent: u64) -> io::Result<(Engine, Vec<f64>)> {
    let span = ctx.tracer.span("bench.recoveries", parent, 0);
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let engine = {
            let _s = ctx.tracer.span("server.open_or_recover", span.id, 0);
            open(spec, dir, ctx.nproc)?
        };
        times.push(secs(t0.elapsed()));
        if times.len() == RECOVERY_REPS + 1 {
            times.remove(0);
            return Ok((engine, times));
        }
        drop(engine);
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ------------------------------------------------------------------- run

/// Syncs and shuts down the engine the load ran on, reopens its directory
/// and counts what the restart lost: every acknowledged write must be
/// there, replayed from whatever tail the load left behind.
fn survive_restart(
    ctx: &Ctx,
    spec: &Spec,
    dir: &Path,
    served: Engine,
    oracle: &mut Oracle,
    parent: u64,
) -> io::Result<(Engine, u64)> {
    served
        .db
        .sync_command_log()
        .map_err(|e| io::Error::other(format!("log sync failed: {e}")))?;
    oracle.observe(&served.db, spec.records);
    drop(served);
    let reopened = {
        let _s = ctx.tracer.span("server.open_or_recover", parent, 0);
        open(spec, dir, ctx.nproc)?
    };
    if ctx.break_check {
        oracle.break_it();
    }
    let wrong = oracle.mismatches(&reopened.db, spec.records);
    Ok((reopened, wrong))
}

struct Restarts {
    engine: Engine,
    closed: Closeout,
    recovery_s: Vec<f64>,
    layers: Vec<(&'static str, f64)>,
    wrong: u64,
}

/// Close-out, then the timed restarts over its state, then the check that
/// the last restart brought everything back.
fn timed_restarts(
    ctx: &Ctx,
    spec: &Spec,
    dir: &Path,
    engine: Engine,
    oracle: &mut Oracle,
    parent: u64,
) -> io::Result<Restarts> {
    let cfg = engine.cfg.clone();
    let closed = closeout(ctx, spec, dir, engine, oracle, parent)?;
    let layers = if ctx.tracer.enabled() {
        probes::recovery_layers(ctx, spec, &cfg, parent)?
    } else {
        Vec::new()
    };
    let (engine, recovery_s) = recoveries(ctx, spec, dir, parent)?;
    let wrong = oracle.mismatches(&engine.db, spec.records);
    Ok(Restarts {
        engine,
        closed,
        recovery_s,
        layers,
        wrong,
    })
}

pub fn run(ctx: &Ctx, spec: &Spec) -> io::Result<Outcome> {
    let tracer = &ctx.tracer;
    let root = tracer.span("bench.run", 0, 0);
    let dir = ctx.work.join("store");
    let mut oracle = match spec.kind {
        Kind::MicroCalc => Oracle::Fingerprint(None),
        _ => Oracle::Model(Arc::new(Model::new(ctx.seed, spec))),
    };

    let (engine, setup_s) = setup(ctx, spec, &dir, &oracle, root.id)?;
    let cfg = engine.cfg.clone();

    // Restarts are timed first, over the state the fixed close-out leaves,
    // and the load then runs on the recovered engine: the log the load
    // writes grows with its throughput, and a restart over it would take
    // longer the faster the load ran.
    let Restarts {
        engine,
        closed,
        recovery_s,
        layers,
        wrong: lost_by_restarts,
    } = timed_restarts(ctx, spec, &dir, engine, &mut oracle, root.id)?;
    let (served, load) = serve(ctx, spec, engine, &oracle, root.id);
    let (reopened, lost_by_load) = survive_restart(ctx, spec, &dir, served, &mut oracle, root.id)?;
    drop(reopened);

    let mut notes = Vec::new();
    for (what, lost) in [
        ("the timed restarts", lost_by_restarts),
        ("the load's restart", lost_by_load),
    ] {
        if lost > 0 {
            notes.push(format!(
                "VERIFY FAILED after {what}: {lost} records lost or wrong"
            ));
        }
    }
    let failed = load.failed + closed.failed + lost_by_load + lost_by_restarts;
    let attempted = load.attempted + closed.attempted + 2 * spec.records;

    let samples = load.samples.as_ref().expect("the load merged its samples");
    let ops_per_s = median(&load.period_rates);
    // Median over the checkpoint periods of each period's percentile.
    let ladder: [f64; LADDER.len()] = std::array::from_fn(|at| {
        let per_period: Vec<f64> = load.period_latency.iter().map(|l| l[at]).collect();
        median(&per_period)
    });
    let [p50, p90, p95, p99] = ladder;
    notes.push(format!(
        "load: {} checkpoint periods, medians over them: {ops_per_s:.1} ops/s, \
         p50 {p50:.1} us, p90 {p90:.1} us, p95 {p95:.1} us, p99 {p99:.1} us",
        load.period_rates.len(),
    ));
    notes.push(format!(
        "load: whole window {:.1} ops/s, {} latency samples, p50 {:.1} us, p99 {:.1} us{}",
        load.ops as f64 / load.window_s,
        samples.len(),
        samples.percentile_us(0.5).unwrap_or(f64::NAN),
        samples.percentile_us(0.99).unwrap_or(f64::NAN),
        samples
            .tail_us()
            .map_or(String::new(), |(p, v)| format!(", ptail {p} {v:.1} us")),
    ));
    let fastest = recovery_s.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = recovery_s.iter().copied().fold(0.0, f64::max);
    notes.push(format!(
        "recovery: {} timed restarts, min {fastest:.4} s, max {slowest:.4} s; {} checkpoint cycles in the load, {} failed",
        recovery_s.len(),
        load.cycles.len(),
        load.ckpt_failures,
    ));

    let load_threads = match spec.kind {
        Kind::MicroCalc => (ctx.nproc / 2).max(1),
        _ => ctx.nproc,
    };
    let meta = vec![
        ("workload", spec.name.to_string()),
        ("seed", ctx.seed.to_string()),
        ("run_seconds", ctx.seconds.to_string()),
        ("nproc", ctx.nproc.to_string()),
        ("records", spec.records.to_string()),
        ("value_bytes", spec.value_len.to_string()),
        ("load_threads", load_threads.to_string()),
        ("ckpt_every_s", secs(CKPT_EVERY).to_string()),
        ("strategy", cfg.strategy.name().to_string()),
        ("workers", cfg.workers.to_string()),
        ("executor_mode", cfg.executor_mode.name().to_string()),
        ("queue_capacity", format!("{:?}", cfg.queue_capacity)),
        ("checkpoint_threads", cfg.checkpoint_threads.to_string()),
        (
            "group_commit_window_us",
            cfg.group_commit_window.as_micros().to_string(),
        ),
        (
            "group_commit_max_batch",
            cfg.group_commit_max_batch.to_string(),
        ),
        ("codec", format!("{:?}", cfg.codec)),
        ("disk_bytes_per_sec", cfg.disk_bytes_per_sec.to_string()),
        ("adaptive_pacing", cfg.adaptive_pacing.to_string()),
        ("command_log", cfg.command_log_dir.is_some().to_string()),
    ];

    let metrics = if !tracer.enabled() {
        vec![
            ("setup_s", setup_s),
            ("ops_per_s", ops_per_s),
            ("p50_us", p50),
            ("p90_us", p90),
            ("recovery_s", median(&recovery_s)),
            (
                "disk_bytes_per_user_byte",
                closed.disk_bytes as f64 / closed.user_bytes as f64,
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    } else {
        let mut cycle_ms: Vec<f64> = load.cycles.iter().map(|c| secs(c.duration) * 1e3).collect();
        if cycle_ms.is_empty() {
            cycle_ms.push(secs(closed.quiescent.duration) * 1e3);
        }
        let in_ckpt_tps = load.in_ckpt_ops as f64 / load.in_ckpt_s;
        let out_ckpt_tps =
            load.ops.saturating_sub(load.in_ckpt_ops) as f64 / (load.window_s - load.in_ckpt_s);
        let ratio = in_ckpt_tps / out_ckpt_tps;
        let q = &closed.quiescent;
        let mut m = vec![
            ("bench.traced_ops_per_s", ops_per_s),
            (
                "engine.tps_in_ckpt_ratio",
                if ratio.is_finite() { ratio } else { 0.0 },
            ),
            ("core.ckpt_cycle_ms", median(&cycle_ms)),
            (
                "core.capture_records_per_s",
                q.records as f64 / secs(q.duration),
            ),
            (
                "core.ckpt_bytes_per_record",
                q.bytes as f64 / q.records as f64,
            ),
            (
                "recovery.records_per_fsync",
                if load.batches == 0 {
                    0.0
                } else {
                    load.batch_records as f64 / load.batches as f64
                },
            ),
        ];
        m.extend(layers);
        m.extend(probes::request_layers(ctx, root.id)?);
        m
    };
    root.end();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
        meta,
    })
}
