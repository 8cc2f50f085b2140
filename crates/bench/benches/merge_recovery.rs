//! Partial-checkpoint collapse throughput (§2.3.1) and recovery load rate
//! (§3) — the mechanisms behind Figure 4(b)'s recovery-time annotations.

use std::sync::Arc;

use calc_common::types::{CommitSeq, Key};
use calc_core::file::CheckpointKind;
use calc_core::manifest::CheckpointDir;
use calc_core::merge::{collapse, materialize_chain};
use calc_core::partition::capture_parts;
use calc_core::throttle::Throttle;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const FULL: u64 = 100_000;
const PARTIAL: u64 = 10_000;

fn build_chain(name: &str, partials: usize) -> CheckpointDir {
    let d = std::env::temp_dir().join(format!("calc-bench-merge-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    let dir = CheckpointDir::open(&d, Arc::new(Throttle::unlimited())).unwrap();
    let payload = [3u8; 100];
    capture_parts(&dir, CheckpointKind::Full, 0, CommitSeq(1), &[], 1, |_, w, _| {
        (0..FULL).try_for_each(|k| w.write_record(Key(k), &payload))
    })
    .unwrap();
    for i in 1..=partials as u64 {
        capture_parts(&dir, CheckpointKind::Partial, i, CommitSeq(i * 100), &[], 1, |_, w, _| {
            (0..PARTIAL).try_for_each(|k| w.write_record(Key((k * 7 + i * 13) % FULL), &payload))
        })
        .unwrap();
    }
    dir
}

fn bench_materialize(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery_materialize");
    g.sample_size(10);
    for &n in &[4usize, 8, 16] {
        let dir = build_chain(&format!("mat{n}"), n);
        let (full, partials) = dir.recovery_chain().unwrap().unwrap();
        g.throughput(Throughput::Elements(FULL + n as u64 * PARTIAL));
        g.bench_with_input(BenchmarkId::new("partials", n), &n, |b, _| {
            b.iter(|| materialize_chain(&full, &partials).unwrap().len())
        });
    }
    g.finish();
}

fn bench_collapse(c: &mut Criterion) {
    let mut g = c.benchmark_group("background_collapse");
    g.sample_size(10);
    g.throughput(Throughput::Elements(FULL + 4 * PARTIAL));
    g.bench_function("full_plus_4_partials", |b| {
        b.iter_with_setup(
            || build_chain("collapse", 4),
            |dir| collapse(&dir).unwrap().unwrap(),
        )
    });
    g.finish();
}

criterion_group!(benches, bench_materialize, bench_collapse);
criterion_main!(benches);
