//! Per-layer measurements of the traced run, timed from here around
//! public calls, one thread. A layer's own cost is the difference between
//! the call that enters it and the call it makes into the layer below.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::{CommitSeq, Key, TxnId};
use calc_common::vfs::OsVfs;
use calc_core::manifest::CheckpointDir;
use calc_core::throttle::Throttle;
use calc_engine::EngineConfig;
use calc_recovery::replay::recover_streamed;
use calc_recovery::{GroupCommitConfig, GroupCommitter, SegmentedLogWriter};
use calc_replica::{Standby, StandbyConfig};
use calc_server::{procs, Client, Server};
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_txn::locks::{LockManager, LockMode};
use calc_txn::proc::params;

use crate::stats::{percentile, Samples};
use crate::trace::Tracer;
use crate::workloads::{self, Ctx, Spec};

/// Calls `f` under a span and records how long it took.
fn timed(tracer: &Tracer, parent: u64, name: &'static str, into: &mut Samples, f: impl FnOnce()) {
    let span = tracer.span(name, parent, 0);
    let t0 = Instant::now();
    f();
    into.push(t0.elapsed());
    span.end();
}

fn median_us(samples: Samples) -> f64 {
    Samples::merge(vec![samples])
        .percentile_us(0.5)
        .expect("at least one call")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Where a restart over the workload's close-out state spends its time:
/// the phase timings `recover_streamed` returns on a fresh strategy, and a
/// warm standby catching up on, then promoting over, the same directory.
pub fn recovery_layers(
    ctx: &Ctx,
    spec: &Spec,
    cfg: &EngineConfig,
    parent: u64,
) -> io::Result<Vec<(&'static str, f64)>> {
    let tracer = &ctx.tracer;
    let log_dir = cfg
        .command_log_dir
        .clone()
        .expect("every workload logs commands");
    let invalid =
        |e: calc_recovery::RecoveryError| io::Error::other(format!("recovery probe: {e}"));

    let span = tracer.span("recovery.recover_streamed", parent, 0);
    let commands = {
        let _s = tracer.span("recovery.read_dir_logs", span.id, 0);
        calc_recovery::read_dir_logs(&OsVfs, &log_dir)?
    };
    let dir = CheckpointDir::open(&cfg.checkpoint_dir, Arc::new(Throttle::unlimited()))?;
    dir.set_checkpoint_threads(cfg.checkpoint_threads);
    let strategy = cfg
        .strategy
        .build(cfg.store.clone(), Arc::new(CommitLog::new(false)));
    let at = tracer.now_ns();
    let outcome = recover_streamed(
        &dir,
        strategy.as_ref(),
        &workloads::registry(spec),
        commands.into_iter().map(Ok),
    )
    .map_err(invalid)?;
    // The callee reports its phases as durations; lay them end to end.
    let at = tracer.synthetic(
        "recovery.part_load",
        span.id,
        at,
        outcome.stats.part_load.as_nanos() as u64,
    );
    let at = tracer.synthetic(
        "recovery.merge",
        span.id,
        at,
        outcome.stats.merge.as_nanos() as u64,
    );
    tracer.synthetic(
        "recovery.replay",
        span.id,
        at,
        outcome.stats.replay.as_nanos() as u64,
    );
    span.end();
    drop(strategy);

    let mut standby_cfg = StandbyConfig::new(
        cfg.strategy,
        cfg.store.clone(),
        cfg.checkpoint_dir.clone(),
        log_dir,
    );
    standby_cfg.checkpoint_threads = cfg.checkpoint_threads;
    let t0 = Instant::now();
    let mut standby = {
        let _s = tracer.span("replica.Standby::open", parent, 0);
        Standby::open(standby_cfg, workloads::registry(spec))?
    };
    {
        let _s = tracer.span("replica.Standby::poll", parent, 0);
        while standby.poll()?.applied > 0 {}
    }
    let catchup_s = t0.elapsed().as_secs_f64();
    let promoted = {
        let _s = tracer.span("replica.Standby::promote", parent, 0);
        standby.promote()?
    };

    Ok(vec![
        ("recovery.part_load_ms", ms(outcome.stats.part_load)),
        ("recovery.merge_ms", ms(outcome.stats.merge)),
        ("recovery.replay_ms", ms(outcome.stats.replay)),
        (
            "recovery.replay_cmds_per_s",
            outcome.replayed as f64 / outcome.stats.replay.as_secs_f64(),
        ),
        ("replica.catchup_s", catchup_s),
        ("replica.promote_ms", ms(promoted.promote_duration())),
    ])
}

/// The layers one request crosses, each as the median of a one-thread
/// closed loop on a small store of its own (the same for every workload,
/// so the four traced runs give four readings of each).
pub fn request_layers(ctx: &Ctx, parent: u64) -> io::Result<Vec<(&'static str, f64)>> {
    const RECORDS: u64 = 50_000;
    const FAST_CALLS: u64 = 5_000;
    // Each of these waits out a group-commit window.
    const DURABLE_CALLS: u64 = 150;

    let tracer = &ctx.tracer;
    let span = tracer.span("bench.request_layers", parent, 0);
    let dir = ctx.work.join("layers");
    let db = calc_server::open_or_recover(&dir.join("store"), |c| c.workers = ctx.nproc)?;
    let value = [0x5au8; 64];
    for k in 0..RECORDS {
        db.load_initial(Key(k), &value)
            .expect("store sized for the preload");
    }
    db.finalize_load(true)?;
    let db = Arc::new(db);
    let put = |i: u64| {
        params::Writer::new()
            .u64(i % RECORDS)
            .bytes(&value)
            .finish()
    };

    let server = Server::start(db.clone(), "127.0.0.1:0")?;
    let mut client = Client::connect(server.local_addr())?;
    let record = |i: u64| CommitRecord {
        seq: CommitSeq(i + 1),
        txn: TxnId(i + 1),
        proc: procs::PUT,
        params: put(i),
    };
    let committer = GroupCommitter::start(
        Box::new(SegmentedLogWriter::create(
            Arc::new(OsVfs),
            &dir.join("gc"),
            64 << 20,
        )?),
        GroupCommitConfig::default(),
        None,
    );
    let mut log = SegmentedLogWriter::create(Arc::new(OsVfs), &dir.join("fsync"), 64 << 20)?;

    // The fast calls run back to back, each in its own loop, the way a
    // saturated closed loop issues them: the threads they wake stay awake.
    let [mut execute, mut db_get, mut client_get] = [(); 3].map(|_| Samples::default());
    for i in 0..FAST_CALLS {
        timed(
            tracer,
            span.id,
            "engine.Database::execute",
            &mut execute,
            || {
                db.execute(procs::PUT, put(i));
            },
        );
    }
    for i in 0..FAST_CALLS {
        timed(tracer, span.id, "engine.Database::get", &mut db_get, || {
            std::hint::black_box(db.get(Key(i % RECORDS)));
        });
    }
    for i in 0..FAST_CALLS {
        timed(
            tracer,
            span.id,
            "server.Client::get",
            &mut client_get,
            || {
                client.get(i % RECORDS).expect("wire get");
            },
        );
    }
    // The durable calls each sleep through a group-commit window, and
    // their medians are subtracted from each other: they take turns, so
    // that a drift of the host (fsync time moves by the second here) hits
    // all alike.
    let [mut execute_durable, mut client_put, mut gc_floor, mut fsync] =
        [(); 4].map(|_| Samples::default());
    for i in 0..DURABLE_CALLS {
        timed(
            tracer,
            span.id,
            "engine.Database::execute_durable",
            &mut execute_durable,
            || {
                db.execute_durable(procs::PUT, put(i)).expect("log sync");
            },
        );
        timed(
            tracer,
            span.id,
            "server.Client::put",
            &mut client_put,
            || {
                client.put(i % RECORDS, &value).expect("wire put");
            },
        );
        timed(
            tracer,
            span.id,
            "recovery.GroupCommitter::submit_durable",
            &mut gc_floor,
            || {
                committer
                    .submit_durable(record(i))
                    .wait(Duration::from_secs(10))
                    .expect("log sync");
            },
        );
        timed(
            tracer,
            span.id,
            "recovery.SegmentedLogWriter::sync",
            &mut fsync,
            || {
                log.append(&record(i)).expect("log append");
                log.sync().expect("log fsync");
            },
        );
    }
    drop((client, committer, log));
    drop(server.shutdown());
    drop(db);
    let [execute, db_get, client_get, execute_durable, client_put, gc_floor, fsync] = [
        execute,
        db_get,
        client_get,
        execute_durable,
        client_put,
        gc_floor,
        fsync,
    ]
    .map(median_us);

    // Lock acquire + release of a 10-key write set, amortised over many
    // pairs (one pair is too short for the clock).
    let locks = LockManager::new(1024);
    let mut pairs = Vec::new();
    for round in 0..200u64 {
        let request: Vec<_> = (0..10)
            .map(|j| {
                (
                    Key((round * 7919 + j * 104_729) % RECORDS),
                    LockMode::Exclusive,
                )
            })
            .collect();
        let t0 = Instant::now();
        for _ in 0..100 {
            locks.acquire(std::hint::black_box(&request)).release();
        }
        pairs.push(t0.elapsed().as_nanos() as f64 / 100.0);
    }
    pairs.sort_by(f64::total_cmp);
    let lock_pair_ns = percentile(&pairs, 0.5).expect("200 rounds");

    std::fs::remove_dir_all(&dir)?;
    span.end();
    Ok(vec![
        ("server.put_self_us", client_put - execute_durable),
        ("server.get_self_us", client_get - db_get),
        ("recovery.gc_dwell_us", execute_durable - execute),
        ("recovery.gc_floor_us", gc_floor),
        ("recovery.fsync_us", fsync),
        ("engine.execute_us", execute),
        ("txn.lock_pair_ns", lock_pair_ns),
    ])
}
