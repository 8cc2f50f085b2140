//! ApplyWrite cost per strategy, at rest vs inside the checkpoint window.
//!
//! This is the mechanism behind Figure 2's baselines: IPP pays a double
//! write always (~25% lower rest throughput), Zig-Zag pays bit-vector
//! maintenance always (~4%), CALC pays nothing at rest and one
//! live→stable copy per record only during the checkpoint window.

use std::sync::Arc;

use calc_baselines::{IppStrategy, MvccStrategy, NaiveStrategy, ZigzagStrategy};
use calc_common::phase::Phase;
use calc_common::types::Key;
use calc_core::calc::CalcStrategy;
use calc_core::strategy::CheckpointStrategy;
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::CommitLog;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const N: u64 = 100_000;

fn populate(s: &dyn CheckpointStrategy) {
    let payload = [7u8; 100];
    for k in 0..N {
        s.load_initial(Key(k), &payload).unwrap();
    }
}

fn bench_rest(c: &mut Criterion) {
    let mut g = c.benchmark_group("apply_write_at_rest");
    g.throughput(Throughput::Elements(1));
    let log = || Arc::new(CommitLog::default());
    let config = || StoreConfig::for_records(N as usize + 16, 128);
    let strategies: Vec<(&str, Arc<dyn CheckpointStrategy>)> = vec![
        ("CALC", Arc::new(CalcStrategy::full(config(), log()))),
        ("Naive", Arc::new(NaiveStrategy::full(config(), log()))),
        ("Zigzag", Arc::new(ZigzagStrategy::full(config(), log()))),
        ("IPP", Arc::new(IppStrategy::full(config(), log()))),
        // §2.1's full-multi-versioning alternative: every write allocates
        // a fresh version (committed by the on_commit hook, not measured
        // here — even so, the allocation cost shows).
        ("MVCC", Arc::new(MvccStrategy::new(config(), log()))),
    ];
    for (name, s) in &strategies {
        populate(s.as_ref());
        let payload = [9u8; 100];
        let mut k = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(name), s, |b, s| {
            b.iter(|| {
                k = (k + 7919) % N;
                let mut token = s.txn_begin();
                s.apply_write(&mut token, Key(k), &payload).unwrap();
                s.txn_end(token);
            })
        });
    }
    g.finish();
}

fn bench_during_checkpoint_window(c: &mut Criterion) {
    // CALC during the capture window: the first write of each record pays
    // the live→stable copy; repeat writes are cheap. We hold the system
    // in RESOLVE phase (stable copies accumulate, erased per iteration
    // batch by cycling keys).
    let mut g = c.benchmark_group("apply_write_in_window");
    g.throughput(Throughput::Elements(1));
    let log = Arc::new(CommitLog::default());
    let calc = CalcStrategy::full(StoreConfig::for_records(N as usize + 16, 128), log.clone());
    populate(&calc);
    log.append_phase_transition(Phase::Prepare);
    log.append_phase_transition(Phase::Resolve);
    let payload = [9u8; 100];
    let mut k = 0u64;
    g.bench_function("CALC_first_write_copies", |b| {
        b.iter(|| {
            k = (k + 7919) % N;
            let mut token = calc.txn_begin();
            calc.apply_write(&mut token, Key(k), &payload).unwrap();
            s_end(&calc, token);
        })
    });
    // Second writes to already-copied records skip the copy.
    let mut token = calc.txn_begin();
    for k in 0..N {
        calc.apply_write(&mut token, Key(k), &payload).unwrap();
    }
    calc.txn_end(token);
    g.bench_function("CALC_repeat_write_no_copy", |b| {
        b.iter(|| {
            k = (k + 7919) % N;
            let mut token = calc.txn_begin();
            calc.apply_write(&mut token, Key(k), &payload).unwrap();
            s_end(&calc, token);
        })
    });
    g.finish();
}

fn s_end(s: &CalcStrategy, token: calc_core::strategy::TxnToken) {
    s.txn_end(token);
}

criterion_group!(benches, bench_rest, bench_during_checkpoint_window);
criterion_main!(benches);
