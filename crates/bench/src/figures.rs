//! One function per figure of the paper's evaluation (§5 + Appendix A).
//!
//! Every figure writes a CSV under the output directory and prints a table
//! shaped like the paper's. Scale is controlled by [`FigureOpts`]:
//! defaults are laptop-sized (the paper's absolute numbers came from a
//! 16-core EC2 box with a 150 MB/s disk; the *shapes* are what reproduce).

use std::path::PathBuf;
use std::time::Duration;

use calc_core::merge::materialize_chain;
use calc_engine::StrategyKind;
use calc_workload::micro::MicroConfig;
use calc_workload::spin;
use calc_workload::tpcc::TpccConfig;

use crate::report::{fmt_count, fmt_ns, print_table, write_csv};
use crate::runner::{self, LoadMode, RunResult, RunSpec, WorkloadSpec};

/// Scale knobs shared by all figures.
#[derive(Clone, Debug)]
pub struct FigureOpts {
    /// Base experiment duration in seconds (the paper's runs are
    /// 100–300 s; checkpoint times scale proportionally).
    pub seconds: f64,
    /// Microbenchmark database size (paper: 20 M records).
    pub records: u64,
    /// TPC-C warehouses (paper: 50).
    pub warehouses: u32,
    /// Worker threads (paper: 15 of 16 cores).
    pub workers: usize,
    /// Closed-loop feeder threads.
    pub feeders: usize,
    /// Simulated disk bandwidth in MB/s (paper: ~150; 0 = unlimited).
    pub disk_mbps: u64,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
}

impl Default for FigureOpts {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        FigureOpts {
            seconds: 10.0,
            records: 500_000,
            warehouses: 4,
            workers: (cores - 1).max(2),
            feeders: 2,
            disk_mbps: 150,
            out_dir: PathBuf::from("results"),
            seed: 42,
        }
    }
}

impl FigureOpts {
    fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Two checkpoints, like Figure 2's 200-second run with checkpoints
    /// at 30 s and 110 s.
    fn two_checkpoints(&self) -> Vec<Duration> {
        vec![
            Duration::from_secs_f64(self.seconds * 0.15),
            Duration::from_secs_f64(self.seconds * 0.55),
        ]
    }

    fn micro(&self, long_txns: bool, hot_fraction: f64) -> MicroConfig {
        // Long transactions: the paper's take ~2 s within 200 s runs (1%
        // of the run); scale proportionally, floored at 100 ms.
        let long_secs = (2.0 * self.seconds / 200.0).max(0.1);
        MicroConfig {
            db_size: self.records,
            record_size: 100,
            ops_per_txn: 10,
            txn_spin: 16,
            long_txn_prob: if long_txns { 2.0e-5 } else { 0.0 },
            long_txn_spin: spin::calibrate(Duration::from_secs_f64(long_secs)),
            long_txn_batch: 1000.min(self.records as usize / 10),
            hot_fraction,
        }
    }

    fn spec(&self, kind: StrategyKind, workload: WorkloadSpec) -> RunSpec {
        RunSpec {
            kind,
            workload,
            duration: self.duration(),
            checkpoint_at: self.two_checkpoints(),
            merge_batch: None,
            workers: self.workers,
            feeders: self.feeders,
            load: LoadMode::Closed,
            disk_bytes_per_sec: self.disk_mbps * 1024 * 1024,
            checkpoint_threads: None,
            sample_every: Duration::from_millis((self.seconds * 10.0).clamp(20.0, 500.0) as u64),
            seed: self.seed,
            dir_root: std::env::temp_dir().join("calc-figures"),
        }
    }
}

fn run_set(
    opts: &FigureOpts,
    kinds: &[StrategyKind],
    workload: WorkloadSpec,
    checkpoint_at: Vec<Duration>,
    with_none: bool,
) -> Vec<RunResult> {
    let mut results = Vec::new();
    if with_none {
        let mut spec = opts.spec(StrategyKind::NoCheckpoint, workload.clone());
        spec.checkpoint_at = Vec::new();
        eprintln!("  running None (baseline)…");
        results.push(runner::run(&spec));
    }
    for &kind in kinds {
        let mut spec = opts.spec(kind, workload.clone());
        spec.checkpoint_at = checkpoint_at.clone();
        eprintln!("  running {}…", kind.name());
        results.push(runner::run(&spec));
    }
    results
}

fn timeline_csv(opts: &FigureOpts, name: &str, results: &[RunResult]) {
    let header: Vec<String> = std::iter::once("t_sec".to_string())
        .chain(results.iter().map(|r| format!("{}_tps", r.kind.name())))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let n = results.iter().map(|r| r.timeline.len()).max().unwrap_or(0);
    let rows = (0..n).map(|i| {
        let t = results
            .iter()
            .find_map(|r| r.timeline.get(i).map(|p| p.t))
            .unwrap_or_default();
        std::iter::once(format!("{t:.2}"))
            .chain(results.iter().map(|r| {
                r.timeline
                    .get(i)
                    .map(|p| format!("{:.0}", p.tps))
                    .unwrap_or_default()
            }))
            .collect()
    });
    let path = opts.out_dir.join(format!("{name}.csv"));
    write_csv(&path, &header_refs, rows).expect("write csv");
    eprintln!("  wrote {}", path.display());
}

/// Median instantaneous throughput over samples in `[from, to)` seconds.
fn median_tps(r: &RunResult, from: f64, to: f64) -> f64 {
    let mut v: Vec<f64> = r
        .timeline
        .iter()
        .filter(|p| p.t >= from && p.t < to)
        .map(|p| p.tps)
        .collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Rest-state throughput: median of the samples before the first
/// checkpoint trigger (intra-run — robust to the cross-run machine noise
/// that makes `lost_vs_none` jittery on shared hosts).
fn rest_tps(r: &RunResult, first_ckpt_at: f64) -> f64 {
    median_tps(r, first_ckpt_at * 0.2, first_ckpt_at * 0.95)
}

/// In-window throughput: median of the samples inside checkpoint windows.
fn window_tps(r: &RunResult, schedule: &[Duration]) -> f64 {
    let mut v = Vec::new();
    for (at, stats) in schedule.iter().zip(r.checkpoints.iter()) {
        let from = at.as_secs_f64();
        let to = from + stats.duration.as_secs_f64();
        v.extend(
            r.timeline
                .iter()
                .filter(|p| p.t >= from && p.t < to)
                .map(|p| p.tps),
        );
    }
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn totals_table(title: &str, results: &[RunResult], duration: Duration) -> Vec<Vec<String>> {
    let baseline = results
        .iter()
        .find(|r| r.kind == StrategyKind::NoCheckpoint)
        .map(|r| r.committed);
    let first_at = results
        .iter()
        .flat_map(|r| r.schedule.first())
        .map(|d| d.as_secs_f64())
        .next()
        .unwrap_or(duration.as_secs_f64() * 0.15);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let lost = baseline.map(|b| b.saturating_sub(r.committed));
            let quiesce: f64 = r.checkpoints.iter().map(|c| c.quiesce.as_secs_f64()).sum();
            let ckpt_dur: f64 = r
                .checkpoints
                .iter()
                .map(|c| c.duration.as_secs_f64())
                .sum::<f64>()
                / r.checkpoints.len().max(1) as f64;
            let rest = rest_tps(r, first_at);
            let window = window_tps(r, &r.schedule);
            vec![
                r.kind.name().to_string(),
                fmt_count(r.committed as f64),
                fmt_count(r.mean_tps(duration)),
                fmt_count(rest),
                fmt_count(window),
                lost.map(|l| fmt_count(l as f64)).unwrap_or_else(|| "-".into()),
                format!("{quiesce:.3}s"),
                format!("{ckpt_dur:.2}s"),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "strategy",
            "committed",
            "mean_tps",
            "rest_tps",
            "window_tps",
            "lost_vs_none",
            "quiesce",
            "ckpt_dur",
        ],
        &rows,
    );
    rows
}

fn totals_csv(opts: &FigureOpts, name: &str, results: &[RunResult], duration: Duration) {
    let baseline = results
        .iter()
        .find(|r| r.kind == StrategyKind::NoCheckpoint)
        .map(|r| r.committed);
    let first_at = results
        .iter()
        .flat_map(|r| r.schedule.first())
        .map(|d| d.as_secs_f64())
        .next()
        .unwrap_or(duration.as_secs_f64() * 0.15);
    let rows = results.iter().map(|r| {
        vec![
            r.kind.name().to_string(),
            r.committed.to_string(),
            format!("{:.0}", r.mean_tps(duration)),
            format!("{:.0}", rest_tps(r, first_at)),
            format!("{:.0}", window_tps(r, &r.schedule)),
            baseline
                .map(|b| b.saturating_sub(r.committed).to_string())
                .unwrap_or_default(),
            format!(
                "{:.4}",
                r.checkpoints
                    .iter()
                    .map(|c| c.quiesce.as_secs_f64())
                    .sum::<f64>()
            ),
        ]
    });
    let path = opts.out_dir.join(format!("{name}.csv"));
    write_csv(
        &path,
        &[
            "strategy",
            "committed",
            "mean_tps",
            "rest_tps",
            "window_tps",
            "lost_vs_none",
            "quiesce_sec",
        ],
        rows,
    )
    .expect("write csv");
    eprintln!("  wrote {}", path.display());
}

/// Figure 2(a): throughput over time, full checkpointing, no long
/// transactions. Returns the results so `fig2c` can reuse them.
pub fn fig2a(opts: &FigureOpts) -> Vec<RunResult> {
    eprintln!("fig2a: full checkpointing, no long txns");
    let results = run_set(
        opts,
        &StrategyKind::FULL_SET,
        WorkloadSpec::Micro(opts.micro(false, 1.0)),
        opts.two_checkpoints(),
        true,
    );
    timeline_csv(opts, "fig2a_timeline", &results);
    totals_table("Figure 2(a): full checkpointing, no long txns", &results, opts.duration());
    totals_csv(opts, "fig2a_totals", &results, opts.duration());
    results
}

/// Figure 2(b): same with 0.001%-scaled long transactions — IPP/Zig-Zag
/// stall waiting for a physical point of consistency.
pub fn fig2b(opts: &FigureOpts) -> Vec<RunResult> {
    eprintln!("fig2b: full checkpointing, with long txns");
    let results = run_set(
        opts,
        &StrategyKind::FULL_SET,
        WorkloadSpec::Micro(opts.micro(true, 1.0)),
        opts.two_checkpoints(),
        true,
    );
    timeline_csv(opts, "fig2b_timeline", &results);
    totals_table("Figure 2(b): full checkpointing, long txns", &results, opts.duration());
    totals_csv(opts, "fig2b_totals", &results, opts.duration());
    results
}

/// Figure 2(c): transactions lost (cost summary) for 2(a) and 2(b).
pub fn fig2c(opts: &FigureOpts) {
    let a = fig2a(opts);
    let b = fig2b(opts);
    let lost = |results: &[RunResult]| -> Vec<(String, u64)> {
        let base = results
            .iter()
            .find(|r| r.kind == StrategyKind::NoCheckpoint)
            .map(|r| r.committed)
            .unwrap_or(0);
        results
            .iter()
            .filter(|r| r.kind != StrategyKind::NoCheckpoint)
            .map(|r| (r.kind.name().to_string(), base.saturating_sub(r.committed)))
            .collect()
    };
    let la = lost(&a);
    let lb = lost(&b);
    let rows: Vec<Vec<String>> = la
        .iter()
        .map(|(name, l)| {
            let lb_val = lb
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            vec![name.clone(), fmt_count(*l as f64), fmt_count(lb_val as f64)]
        })
        .collect();
    print_table(
        "Figure 2(c): transactions lost",
        &["strategy", "normal", "w/ long txns"],
        &rows,
    );
    write_csv(
        &opts.out_dir.join("fig2c_lost.csv"),
        &["strategy", "lost_normal", "lost_long"],
        rows.iter().enumerate().map(|(i, r)| {
            vec![
                r[0].clone(),
                la[i].1.to_string(),
                lb.iter()
                    .find(|(n, _)| *n == r[0])
                    .map(|(_, v)| v.to_string())
                    .unwrap_or_default(),
            ]
        }),
    )
    .expect("write csv");
}

fn fig3_run(opts: &FigureOpts, hot: f64, tag: &str) -> Vec<RunResult> {
    eprintln!("fig3{tag}: partial checkpointing, {:.0}% locality, long txns", hot * 100.0);
    let results = run_set(
        opts,
        &StrategyKind::PARTIAL_SET,
        WorkloadSpec::Micro(opts.micro(true, hot)),
        opts.two_checkpoints(),
        true,
    );
    timeline_csv(opts, &format!("fig3{tag}_timeline"), &results);
    totals_table(
        &format!("Figure 3({tag}): partial checkpointing, {:.0}% modified", hot * 100.0),
        &results,
        opts.duration(),
    );
    totals_csv(opts, &format!("fig3{tag}_totals"), &results, opts.duration());
    results
}

/// Figure 3(a): partial checkpointing, 10% of records modified.
pub fn fig3a(opts: &FigureOpts) -> Vec<RunResult> {
    fig3_run(opts, 0.10, "a")
}

/// Figure 3(b): partial checkpointing, 20% of records modified.
pub fn fig3b(opts: &FigureOpts) -> Vec<RunResult> {
    fig3_run(opts, 0.20, "b")
}

/// Figure 3(c): transactions lost for 3(a)/3(b).
pub fn fig3c(opts: &FigureOpts) {
    let a = fig3a(opts);
    let b = fig3b(opts);
    let base_a = a[0].committed;
    let base_b = b[0].committed;
    let rows: Vec<Vec<String>> = a
        .iter()
        .skip(1)
        .zip(b.iter().skip(1))
        .map(|(ra, rb)| {
            vec![
                ra.kind.name().to_string(),
                fmt_count(base_a.saturating_sub(ra.committed) as f64),
                fmt_count(base_b.saturating_sub(rb.committed) as f64),
            ]
        })
        .collect();
    print_table(
        "Figure 3(c): transactions lost",
        &["strategy", "10%", "20%"],
        &rows,
    );
    write_csv(
        &opts.out_dir.join("fig3c_lost.csv"),
        &["strategy", "lost_10pct", "lost_20pct"],
        rows.iter().cloned(),
    )
    .expect("write csv");
}

/// Figure 4(a): CALC vs pCALC (50/20/10% locality) with four checkpoints
/// and background merging after every 4 partials.
pub fn fig4a(opts: &FigureOpts) -> Vec<RunResult> {
    eprintln!("fig4a: full vs partial checkpointing, 4 checkpoints, merge batch 4");
    // Paper: 300 s, checkpoints at 10/80/150/220.
    let at: Vec<Duration> = [0.033, 0.267, 0.5, 0.733]
        .iter()
        .map(|f| Duration::from_secs_f64(opts.seconds * f))
        .collect();
    let mut results = Vec::new();
    {
        let mut spec = opts.spec(StrategyKind::NoCheckpoint, WorkloadSpec::Micro(opts.micro(false, 1.0)));
        spec.checkpoint_at = Vec::new();
        eprintln!("  running None (baseline)…");
        results.push(runner::run(&spec));
    }
    {
        let mut spec = opts.spec(StrategyKind::Calc, WorkloadSpec::Micro(opts.micro(false, 1.0)));
        spec.checkpoint_at = at.clone();
        eprintln!("  running CALC…");
        results.push(runner::run(&spec));
    }
    for hot in [0.5, 0.2, 0.1] {
        let mut spec = opts.spec(StrategyKind::PCalc, WorkloadSpec::Micro(opts.micro(false, hot)));
        spec.checkpoint_at = at.clone();
        spec.merge_batch = Some(4);
        eprintln!("  running pCALC {:.0}%…", hot * 100.0);
        results.push(runner::run(&spec));
    }
    timeline_csv(opts, "fig4a_timeline", &results);
    totals_table("Figure 4(a): CALC vs pCALC", &results, opts.duration());
    results
}

/// Figure 4(b): runtime cost (transactions lost) and worst-case recovery
/// (merge) time at merge batch sizes 4/8/16.
pub fn fig4b(opts: &FigureOpts) {
    eprintln!("fig4b: runtime vs recovery-time tradeoff");
    // 18 checkpoints: not a multiple of any batch size, so a couple of
    // partials always survive the background merges — needed as the
    // representative partial for the recovery drill below.
    let n_ckpts = 18usize;
    let at: Vec<Duration> = (0..n_ckpts)
        .map(|i| Duration::from_secs_f64(opts.seconds * (0.05 + 0.9 * i as f64 / n_ckpts as f64)))
        .collect();

    // Baseline and CALC.
    let mut none_spec = opts.spec(
        StrategyKind::NoCheckpoint,
        WorkloadSpec::Micro(opts.micro(false, 1.0)),
    );
    none_spec.checkpoint_at = Vec::new();
    eprintln!("  running None (baseline)…");
    let none = runner::run(&none_spec);

    let mut calc_spec = opts.spec(StrategyKind::Calc, WorkloadSpec::Micro(opts.micro(false, 1.0)));
    calc_spec.checkpoint_at = at.clone();
    eprintln!("  running CALC ({} checkpoints)…", n_ckpts);
    let calc = runner::run(&calc_spec);

    let mut rows = vec![vec![
        "CALC".to_string(),
        "-".to_string(),
        fmt_count(none.committed.saturating_sub(calc.committed) as f64),
        "0s".to_string(),
    ]];
    let mut csv_rows = vec![vec![
        "CALC".to_string(),
        String::new(),
        none.committed.saturating_sub(calc.committed).to_string(),
        "0".to_string(),
    ]];

    for &batch in &[4usize, 8, 16] {
        for &hot in &[0.5, 0.2, 0.1] {
            let mut spec = opts.spec(StrategyKind::PCalc, WorkloadSpec::Micro(opts.micro(false, hot)));
            spec.checkpoint_at = at.clone();
            spec.merge_batch = Some(batch);
            eprintln!("  running pCALC {:.0}% (merge batch {batch})…", hot * 100.0);
            let result = runner::run(&spec);
            // Worst-case recovery drill: the paper annotates each bar
            // with the time to merge a *full batch* of partials at
            // recovery. Build that worst case explicitly — the newest
            // full checkpoint plus `batch` copies of a representative
            // partial from this run — and time its materialization.
            let dir = calc_core::manifest::CheckpointDir::open(
                &result.dir,
                std::sync::Arc::new(calc_core::throttle::Throttle::unlimited()),
            )
            .expect("open run dir");
            let listed = dir.manifests();
            let newest_full = listed
                .iter()
                .filter(|m| m.kind == calc_core::file::CheckpointKind::Full)
                .max_by_key(|m| m.id)
                .cloned();
            let newest_partial = listed
                .iter()
                .filter(|m| m.kind == calc_core::file::CheckpointKind::Partial)
                .max_by_key(|m| m.id)
                .cloned();
            let recovery = match (newest_full, newest_partial) {
                (Some(full), Some(part)) => {
                    let drill_root = result.dir.join("recovery-drill");
                    let _ = std::fs::remove_dir_all(&drill_root);
                    let drill = calc_core::manifest::CheckpointDir::open(
                        &drill_root,
                        std::sync::Arc::new(calc_core::throttle::Throttle::unlimited()),
                    )
                    .expect("open drill dir");
                    // Re-publish the entries through the drill dir (the
                    // run's checkpoints are manifest + part files, so a
                    // plain file copy can't clone a cycle). The timing
                    // below covers materialization only.
                    let republish = |kind, id, watermark, entries: &[calc_core::file::RecordEntry]| {
                        let (pending, mut writers) = drill
                            .begin_parts(kind, id, watermark, 1)
                            .expect("begin drill cycle");
                        for e in entries {
                            match e {
                                calc_core::file::RecordEntry::Value(k, v) => {
                                    writers[0].write_record(*k, v).expect("drill record")
                                }
                                calc_core::file::RecordEntry::Tombstone(k) => {
                                    writers[0].write_tombstone(*k).expect("drill tombstone")
                                }
                            }
                        }
                        pending.publish(writers).expect("publish drill cycle");
                    };
                    let full_entries = full.read_all().expect("read full");
                    let part_entries = part.read_all().expect("read partial");
                    republish(
                        calc_core::file::CheckpointKind::Full,
                        0,
                        full.watermark,
                        &full_entries,
                    );
                    for i in 0..batch {
                        republish(
                            calc_core::file::CheckpointKind::Partial,
                            1 + i as u64,
                            part.watermark,
                            &part_entries,
                        );
                    }
                    let (dfull, dparts) = drill.chain().expect("drill full");
                    assert_eq!(dparts.len(), batch, "drill chain length");
                    let start = std::time::Instant::now();
                    let state = materialize_chain(&dfull, &dparts).expect("materialize");
                    std::hint::black_box(state.len());
                    start.elapsed()
                }
                _ => Duration::ZERO,
            };
            let lost = none.committed.saturating_sub(result.committed);
            let label = format!("pCALC {:.0}%", hot * 100.0);
            rows.push(vec![
                label.clone(),
                batch.to_string(),
                fmt_count(lost as f64),
                format!("{:.2}s", recovery.as_secs_f64()),
            ]);
            csv_rows.push(vec![
                label,
                batch.to_string(),
                lost.to_string(),
                format!("{:.4}", recovery.as_secs_f64()),
            ]);
        }
    }
    print_table(
        "Figure 4(b): transactions lost + worst-case recovery time",
        &["strategy", "merge_batch", "lost", "recovery_time"],
        &rows,
    );
    write_csv(
        &opts.out_dir.join("fig4b_tradeoff.csv"),
        &["strategy", "merge_batch", "lost", "recovery_sec"],
        csv_rows,
    )
    .expect("write csv");
}

/// Figure 5: latency CDFs at 90% and 70% of peak load, with and without
/// long transactions, for None/CALC/Zigzag/IPP/Fuzzy/Naive.
pub fn fig5(opts: &FigureOpts) {
    eprintln!("fig5: latency distributions");
    for (tag, long_txns) in [("no_long", false), ("long", true)] {
        let workload = WorkloadSpec::Micro(opts.micro(long_txns, 1.0));
        eprintln!("  measuring peak throughput ({tag})…");
        let peak = runner::measure_peak(
            &workload,
            Duration::from_secs_f64((opts.seconds / 4.0).clamp(1.0, 5.0)),
            &std::env::temp_dir().join("calc-figures-peak"),
        );
        eprintln!("  peak ≈ {:.0} tps", peak);
        for load_pct in [90u32, 70] {
            let tps = peak * load_pct as f64 / 100.0;
            let mut results = Vec::new();
            let kinds = [
                StrategyKind::NoCheckpoint,
                StrategyKind::Calc,
                StrategyKind::Zigzag,
                StrategyKind::Ipp,
                StrategyKind::Fuzzy,
                StrategyKind::Naive,
            ];
            for kind in kinds {
                let mut spec = opts.spec(kind, workload.clone());
                spec.load = LoadMode::Open { tps };
                spec.checkpoint_at = if kind == StrategyKind::NoCheckpoint {
                    Vec::new()
                } else {
                    // One checkpoint at 30% of the run, per §5.1.4.
                    vec![Duration::from_secs_f64(opts.seconds * 0.3)]
                };
                eprintln!("  running {} at {load_pct}% load ({tag})…", kind.name());
                results.push(runner::run(&spec));
            }
            // CDF CSV: long format (strategy, latency_ns, cum_frac).
            let path = opts
                .out_dir
                .join(format!("fig5_{tag}_{load_pct}pct_cdf.csv"));
            write_csv(
                &path,
                &["strategy", "latency_ns", "cum_frac"],
                results.iter().flat_map(|r| {
                    let name = r.kind.name().to_string();
                    r.latency_cdf
                        .iter()
                        .map(move |(ns, f)| vec![name.clone(), ns.to_string(), format!("{f:.6}")])
                        .collect::<Vec<_>>()
                }),
            )
            .expect("write csv");
            eprintln!("  wrote {}", path.display());
            let rows: Vec<Vec<String>> = results
                .iter()
                .map(|r| {
                    let (p50, p99, p999, max) = r.latency_quantiles;
                    vec![
                        r.kind.name().to_string(),
                        fmt_ns(p50),
                        fmt_ns(p99),
                        fmt_ns(p999),
                        fmt_ns(max),
                    ]
                })
                .collect();
            print_table(
                &format!("Figure 5 ({tag}, {load_pct}% load): latency quantiles"),
                &["strategy", "p50", "p99", "p99.9", "max"],
                &rows,
            );
        }
    }
}

/// Figure 6: memory used for record storage over time, one checkpoint.
pub fn fig6(opts: &FigureOpts) {
    eprintln!("fig6: memory usage over time");
    let at = vec![Duration::from_secs_f64(opts.seconds * 0.2)];
    let results = run_set(
        opts,
        &StrategyKind::FULL_SET,
        WorkloadSpec::Micro(opts.micro(false, 1.0)),
        at,
        false,
    );
    // Memory timeline CSV (record copies, as the paper's y-axis).
    let header: Vec<String> = std::iter::once("t_sec".to_string())
        .chain(results.iter().map(|r| format!("{}_copies", r.kind.name())))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let n = results.iter().map(|r| r.timeline.len()).max().unwrap_or(0);
    let rows = (0..n).map(|i| {
        let t = results
            .iter()
            .find_map(|r| r.timeline.get(i).map(|p| p.t))
            .unwrap_or_default();
        std::iter::once(format!("{t:.2}"))
            .chain(results.iter().map(|r| {
                r.timeline
                    .get(i)
                    .map(|p| p.mem_copies.to_string())
                    .unwrap_or_default()
            }))
            .collect()
    });
    write_csv(&opts.out_dir.join("fig6_memory.csv"), &header_refs, rows).expect("write csv");
    let table: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let base = r.records.max(1);
            let peak = r.timeline.iter().map(|p| p.mem_copies).max().unwrap_or(0);
            let rest = r.timeline.last().map(|p| p.mem_copies).unwrap_or(0);
            vec![
                r.kind.name().to_string(),
                fmt_count(rest as f64),
                fmt_count(peak as f64),
                format!("{:.2}x", peak as f64 / base as f64),
            ]
        })
        .collect();
    print_table(
        "Figure 6: record copies in memory (rest / peak / peak ratio)",
        &["strategy", "at_rest", "peak", "peak_ratio"],
        &table,
    );
}

/// Figure 7(a): TPC-C throughput over time per strategy.
pub fn fig7a(opts: &FigureOpts) -> Vec<RunResult> {
    eprintln!("fig7a: TPC-C throughput");
    let at = vec![Duration::from_secs_f64(opts.seconds * 0.33)];
    let results = run_set(
        opts,
        &StrategyKind::FULL_SET,
        WorkloadSpec::Tpcc(TpccConfig::with_warehouses(opts.warehouses)),
        at,
        true,
    );
    timeline_csv(opts, "fig7a_timeline", &results);
    totals_table("Figure 7(a): TPC-C", &results, opts.duration());
    totals_csv(opts, "fig7a_totals", &results, opts.duration());
    results
}

/// Figure 7(b): TPC-C transactions lost.
pub fn fig7b(opts: &FigureOpts) {
    let results = fig7a(opts);
    let base = results[0].committed;
    let rows: Vec<Vec<String>> = results
        .iter()
        .skip(1)
        .map(|r| {
            vec![
                r.kind.name().to_string(),
                fmt_count(base.saturating_sub(r.committed) as f64),
            ]
        })
        .collect();
    print_table("Figure 7(b): TPC-C transactions lost", &["strategy", "lost"], &rows);
    write_csv(
        &opts.out_dir.join("fig7b_lost.csv"),
        &["strategy", "lost"],
        rows.iter().cloned(),
    )
    .expect("write csv");
}

/// Figure 8 / Appendix A: checkpoint duration and transactions lost vs
/// database size (linear scalability of CALC).
pub fn fig8(opts: &FigureOpts) {
    eprintln!("fig8: scalability with database size");
    // Paper sweeps 10/50/100/150 M; we sweep ¼×..1.5× of the configured
    // size, preserving the 1:5:10:15 ratio.
    let sizes: Vec<u64> = [1.0 / 15.0, 5.0 / 15.0, 10.0 / 15.0, 1.0]
        .iter()
        .map(|f| ((opts.records as f64 * f) as u64).max(1000))
        .collect();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for &size in &sizes {
        let mut o = opts.clone();
        o.records = size;
        let workload = WorkloadSpec::Micro(o.micro(false, 1.0));
        let mut none_spec = o.spec(StrategyKind::NoCheckpoint, workload.clone());
        none_spec.checkpoint_at = Vec::new();
        eprintln!("  {size} records: baseline…");
        let none = runner::run(&none_spec);
        let mut spec = o.spec(StrategyKind::Calc, workload);
        spec.checkpoint_at = vec![Duration::from_secs_f64(o.seconds * 0.2)];
        eprintln!("  {size} records: CALC…");
        let calc = runner::run(&spec);
        let dur = calc
            .checkpoints
            .first()
            .map(|c| c.duration.as_secs_f64())
            .unwrap_or(0.0);
        let lost = none.committed.saturating_sub(calc.committed);
        rows.push(vec![
            fmt_count(size as f64),
            format!("{dur:.2}s"),
            fmt_count(lost as f64),
        ]);
        csv_rows.push(vec![size.to_string(), format!("{dur:.4}"), lost.to_string()]);
    }
    print_table(
        "Figure 8: CALC scalability vs database size",
        &["records", "ckpt_duration", "lost"],
        &rows,
    );
    write_csv(
        &opts.out_dir.join("fig8_scalability.csv"),
        &["records", "ckpt_duration_sec", "lost"],
        csv_rows,
    )
    .expect("write csv");
}

/// Ablation (§2.1): full multi-versioning (MVCC) vs CALC's precise
/// partial multi-versioning. MVCC also checkpoints at a virtual point of
/// consistency with zero quiesce — but its memory between checkpoints
/// grows with the *update count* rather than the record count, which is
/// the paper's reason for rejecting it in memory-constrained main-memory
/// systems.
pub fn ablation_mvcc(opts: &FigureOpts) -> Vec<RunResult> {
    eprintln!("ablation-mvcc: CALC vs full multi-versioning");
    let at = vec![Duration::from_secs_f64(opts.seconds * 0.5)];
    let results = run_set(
        opts,
        &[StrategyKind::Calc, StrategyKind::Mvcc],
        WorkloadSpec::Micro(opts.micro(false, 1.0)),
        at,
        true,
    );
    timeline_csv(opts, "ablation_mvcc_timeline", &results);
    // Memory: peak copies relative to record count.
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let peak = r.peak_mem_bytes();
            let rest = r.timeline.last().map(|p| p.mem_bytes).unwrap_or(0);
            vec![
                r.kind.name().to_string(),
                fmt_count(r.committed as f64),
                format!("{:.1} MB", peak as f64 / 1e6),
                format!("{:.1} MB", rest as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        "Ablation §2.1: CALC vs full MVCC (memory grows with updates)",
        &["strategy", "committed", "peak_mem", "end_mem"],
        &rows,
    );
    write_csv(
        &opts.out_dir.join("ablation_mvcc.csv"),
        &["strategy", "committed", "peak_mem_bytes", "end_mem_bytes"],
        results.iter().map(|r| {
            vec![
                r.kind.name().to_string(),
                r.committed.to_string(),
                r.peak_mem_bytes().to_string(),
                r.timeline
                    .last()
                    .map(|p| p.mem_bytes)
                    .unwrap_or(0)
                    .to_string(),
            ]
        }),
    )
    .expect("write csv");
    results
}

/// Runs every figure and the ablation.
pub fn all(opts: &FigureOpts) {
    fig2c(opts); // includes 2a + 2b
    fig3c(opts); // includes 3a + 3b
    fig4a(opts);
    fig4b(opts);
    fig5(opts);
    fig6(opts);
    fig7b(opts); // includes 7a
    fig8(opts);
    ablation_mvcc(opts);
}
