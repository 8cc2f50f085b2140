//! Capture-phase scan rate: full scan (CALC) vs dirty-only scan (pCALC) at
//! the paper's write localities — the mechanism behind Figure 3's shorter
//! checkpoint windows.

use std::sync::Arc;

use calc_common::types::Key;
use calc_core::calc::CalcStrategy;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{CheckpointStrategy, NoopEnv};
use calc_core::throttle::Throttle;
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const N: u64 = 200_000;

fn dir(name: &str) -> CheckpointDir {
    let d = std::env::temp_dir().join(format!("calc-bench-scan-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap()
}

fn make(partial: bool) -> (CalcStrategy, Arc<CommitLog>) {
    let log = Arc::new(CommitLog::default());
    let s = if partial {
        CalcStrategy::partial(StoreConfig::for_records(N as usize + 16, 128), log.clone())
    } else {
        CalcStrategy::full(StoreConfig::for_records(N as usize + 16, 128), log.clone())
    };
    let payload = [5u8; 100];
    for k in 0..N {
        s.load_initial(Key(k), &payload).unwrap();
    }
    (s, log)
}

fn touch(s: &CalcStrategy, log: &CommitLog, frac: f64) {
    let n = (N as f64 * frac) as u64;
    let payload = [6u8; 100];
    let mut token = s.txn_begin();
    for k in 0..n {
        s.apply_write(&mut token, Key(k), &payload).unwrap();
    }
    let (seq, stamp) = log.append_commit();
    s.on_commit(&mut token, seq, stamp);
    s.txn_end(token);
}

fn bench_capture(c: &mut Criterion) {
    let mut g = c.benchmark_group("capture_scan");
    g.sample_size(10);
    g.throughput(Throughput::Elements(N));
    g.bench_function("full_scan", |b| {
        let (s, log) = make(false);
        let d = dir("full");
        b.iter(|| {
            touch(&s, &log, 0.1);
            s.checkpoint(&NoopEnv, &d).unwrap()
        })
    });
    for &frac in &[0.1f64, 0.2, 0.5] {
        g.bench_with_input(
            BenchmarkId::new("partial_scan", format!("{:.0}pct", frac * 100.0)),
            &frac,
            |b, &frac| {
                let (s, log) = make(true);
                let d = dir(&format!("part{}", (frac * 100.0) as u32));
                s.write_base_checkpoint(&d).unwrap();
                b.iter(|| {
                    touch(&s, &log, frac);
                    s.checkpoint(&NoopEnv, &d).unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_capture);
criterion_main!(benches);
