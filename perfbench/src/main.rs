//! `bench`: the repo benchmark's one command.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run, in this process
//! bench [--runs K] [--seed N] [--seconds S] [--trace] [--out PATH]
//!                                                       every workload, each run a child process
//! bench compare A.json B.json                           two result files, row by row
//! ```
//!
//! A single run prints every metric by name and unit, checks its outputs,
//! and ends with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`). Metric and workload names are fixed in `spec.rs` and
//! mirrored in `../BENCHMARK.json`; see `README.md`.

mod compare;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use workloads::{Ctx, Outcome};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    break_check: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--runs K] [--out PATH]\n\
         \x20      bench compare A.json B.json\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        break_check: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next()?.clone()),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--runs" => args.runs = it.next()?.parse().ok().filter(|r| *r > 0)?,
            "--out" => args.out = Some(it.next()?.into()),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--break-check" => args.break_check = true,
            _ => return None,
        }
    }
    Some(args)
}

/// The build directory this executable runs from (`<target>/release/bench`
/// → `<target>`): scratch stores and trace files go there, so a run writes
/// nowhere else.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// One run of one workload in this process. Returns whether it was correct.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let wl = workloads::spec(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let work = target_dir()
        .join("bench-work")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: work.clone(),
        tracer: trace::Tracer::new(args.trace),
        break_check: args.break_check,
    };
    let result = workloads::run(&ctx, &wl);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = result.map_err(|e| format!("{name}: {e}"))?;
    report(&ctx, name, &outcome).map_err(|e| format!("write trace: {e}"))
}

fn report(ctx: &Ctx, name: &str, outcome: &Outcome) -> std::io::Result<bool> {
    let mut meta: Vec<(String, Json)> = outcome
        .meta
        .iter()
        .map(|(k, v)| (k.to_string(), Json::str(v.clone())))
        .collect();
    meta.push(("rev".into(), Json::str(git_rev())));
    println!("META {}", Json::Obj(meta));
    for note in &outcome.notes {
        println!("{note}");
    }

    if ctx.tracer.enabled() {
        let spans = ctx.tracer.take();
        let path = target_dir()
            .join("bench")
            .join(format!("trace-{name}.jsonl"));
        trace::write_jsonl(&spans, &path)?;
        println!("trace: {} spans in {}", spans.len(), path.display());
        println!(
            "{:<44} {:>9} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        let (rows, overlap_ns) = trace::summarize(&spans);
        for r in &rows {
            println!(
                "{:<44} {:>9} {:>12.3} {:>12.3}",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6
            );
        }
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        let root = spans
            .iter()
            .find(|s| s.parent == 0)
            .map_or(0, |s| s.end_ns - s.start_ns);
        println!(
            "sum of self times {:.3} ms = end-to-end span {:.3} ms + {:.3} ms of sibling spans in parallel ({:+.2}% unaccounted)",
            self_sum as f64 / 1e6,
            root as f64 / 1e6,
            overlap_ns as f64 / 1e6,
            (self_sum as f64 - (root + overlap_ns) as f64) / root as f64 * 100.0
        );
    }

    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|(_, v)| v.is_finite());
    let mut metrics = Vec::new();
    for (name, value) in &outcome.metrics {
        let unit = spec::unit(name);
        println!("{name:<32} {value:>16.4} {unit}");
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::str(unit)),
            ]),
        ));
    }
    println!(
        "failed_frac                      {:>16.6} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(correct)
}

/// Runs every workload `runs` times, each run a fresh child of this
/// executable (so peak memory and failures are per workload), and writes
/// one result file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for name in workloads::NAMES {
        let mut runs: Vec<(bool, Json)> = Vec::new();
        // The configuration in force, as the workload's first run states it.
        let mut config = Json::Null;
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            for i in 0..args.runs {
                let seed = args.seed + i;
                eprintln!("== {name} seed {seed} trace {}", u8::from(traced));
                let out = Command::new(&exe)
                    .args(["--workload", name, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawn {name}: {e}"))?;
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                let last = text.lines().last().unwrap_or_default();
                let result =
                    Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
                all_correct &=
                    out.status.success() && result.get("correct") == Some(&Json::Bool(true));
                if config == Json::Null {
                    config = text
                        .lines()
                        .find_map(|l| l.strip_prefix("META "))
                        .and_then(|m| Json::parse(m).ok())
                        .unwrap_or(Json::Null);
                }
                runs.push((traced, result));
            }
        }
        workloads_json.push((name.to_string(), compare::aggregate(config, &runs)));
    }

    let result = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("first_seed", Json::Num(args.seed as f64)),
                ("runs_per_workload", Json::Num(args.runs as f64)),
                ("run_seconds", Json::Num(args.seconds)),
                ("traced_runs", Json::Bool(args.trace)),
            ]),
        ),
        // This benchmark states what was measured; a change that claims a
        // gain puts its claim here.
        ("claim", Json::Null),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| target_dir().join("bench").join("result.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, format!("{result}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    compare::print_summary(&result);
    eprintln!("result written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return usage();
        };
        return match compare::compare_files(Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let done = match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
