//! The result file: aggregation of single runs into it, its summary
//! table, and `bench compare A.json B.json`.

use std::path::Path;

use crate::json::Json;
use crate::spec::{self, Metric};
use crate::stats::{iqr_share, median};

/// Folds the result lines of one workload's runs (`traced`, line) into the
/// result file's entry: the configuration the runs state, and every metric
/// with all its values and their median.
pub fn aggregate(config: Json, runs: &[(bool, Json)]) -> Json {
    let table = |metrics: &'static [Metric], traced: bool| {
        let fields = metrics
            .iter()
            .filter_map(|m| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter(|(t, _)| *t == traced)
                    .filter_map(|(_, r)| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                    .collect();
                if values.is_empty() {
                    return None;
                }
                let mut entry = vec![
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                    ("median", Json::Num(median(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ];
                if let Some(bound) = m.bound {
                    entry.insert(2, ("bound", Json::Num(bound)));
                }
                Some((m.name.to_string(), Json::obj(entry)))
            })
            .collect();
        Json::Obj(fields)
    };
    let total = |key: &str| {
        runs.iter()
            .filter_map(|(_, r)| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    Json::obj(vec![
        ("config", config),
        ("attempted", Json::Num(total("attempted"))),
        ("failed", Json::Num(total("failed"))),
        ("end_to_end", table(&spec::END_TO_END, false)),
        ("per_layer", table(&spec::PER_LAYER, true)),
    ])
}

fn values_of(entry: &Json) -> Vec<f64> {
    entry
        .get("values")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn spread_text(values: &[f64]) -> String {
    iqr_share(values).map_or("-".into(), |s| format!("{:.1}%", s * 100.0))
}

pub fn print_summary(result: &Json) {
    let Some(workloads) = result.get("workloads").and_then(Json::as_obj) else {
        return;
    };
    for (name, w) in workloads {
        println!("\n== {name}");
        println!(
            "{:<32} {:>16} {:<6} {:>5} {:>8}",
            "metric", "median", "unit", "runs", "iqr"
        );
        for section in ["end_to_end", "per_layer"] {
            for (metric, entry) in w.get(section).and_then(Json::as_obj).unwrap_or_default() {
                let values = values_of(entry);
                println!(
                    "{metric:<32} {:>16.4} {:<6} {:>5} {:>8}",
                    median(&values),
                    entry.get("unit").and_then(Json::as_str).unwrap_or(""),
                    values.len(),
                    spread_text(&values),
                );
            }
        }
        let ops =
            |section: &str, metric: &str| w.get(section)?.get(metric)?.get("median")?.as_f64();
        if let (Some(plain), Some(traced)) = (
            ops("end_to_end", "ops_per_s"),
            ops("per_layer", "bench.traced_ops_per_s"),
        ) {
            println!(
                "tracing overhead: traced {traced:.1} vs untraced {plain:.1} ops/s = {:+.1}%",
                (traced / plain - 1.0) * 100.0
            );
        }
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
    /// Per-layer metric: shown, not judged.
    Info,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// By how much `b` is worse than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// One row per workload × metric present in both files, A as the base.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let empty: &[(String, Json)] = &[];
    let workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(empty);
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            for (metric, ea) in wa.get(section).and_then(Json::as_obj).unwrap_or(empty) {
                let Some(eb) = wb.get(section).and_then(|s| s.get(metric)) else {
                    continue;
                };
                let (va, vb) = (values_of(ea), values_of(eb));
                let (ma, mb) = (median(&va), median(&vb));
                let bound = ea.get("bound").and_then(Json::as_f64);
                let better = ea.get("better").and_then(Json::as_str).unwrap_or("lower");
                let verdict = match bound {
                    None => Verdict::Info,
                    Some(bound) => {
                        let spread = iqr_share(&va)
                            .unwrap_or(0.0)
                            .max(iqr_share(&vb).unwrap_or(0.0));
                        if spread > bound {
                            Verdict::Unresolved
                        } else if worsening(ma, mb, better) > bound {
                            Verdict::Worse
                        } else {
                            Verdict::Ok
                        }
                    }
                };
                rows.push(Row {
                    workload: name.clone(),
                    metric: metric.clone(),
                    a: ma,
                    b: mb,
                    bound,
                    verdict,
                });
            }
        }
        let frac = |w: &Json| {
            let get = |k| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            get("failed") / get("attempted").max(1.0)
        };
        let (fa, fb) = (frac(wa), frac(wb));
        rows.push(Row {
            workload: name.clone(),
            metric: "failed_frac".into(),
            a: fa,
            b: fb,
            bound: Some(spec::FAILED_FRAC_BOUND),
            // An absolute bound: the base is normally zero.
            verdict: if fb - fa > spec::FAILED_FRAC_BOUND {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    rows
}

/// Prints the comparison; `Ok(false)` when any row is worse.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare(&load(a)?, &load(b)?);
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    println!(
        "{:<20} {:<30} {:>14} {:>14} {:>16} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for r in &rows {
        println!(
            "{:<20} {:<30} {:>14.4} {:>14.4} {:>16} {:>6}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a == 0.0 {
                "-".into()
            } else {
                format!("{:.4} of {:.4}", r.b / r.a, r.a)
            },
            r.bound.map_or("-".into(), |b| b.to_string()),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
                Verdict::Info => "",
            },
        );
    }
    Ok(rows.iter().all(|r| r.verdict != Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(ops: f64, p50: f64, failed: f64) -> (bool, Json) {
        let m = |v: f64, unit: &str| {
            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))])
        };
        let result = Json::obj(vec![
            ("correct", Json::Bool(failed == 0.0)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj(vec![("ops_per_s", m(ops, "1/s")), ("p50_us", m(p50, "us"))]),
            ),
        ]);
        (false, result)
    }

    fn file(runs: &[(bool, Json)]) -> Json {
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![("wire.get", aggregate(Json::Null, runs))]),
        )])
    }

    fn verdict<'a>(rows: &'a [Row], metric: &str) -> &'a Verdict {
        &rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn judges_each_metric_in_its_own_direction() {
        let steady = |ops: f64, p50: f64| -> Vec<(bool, Json)> {
            (0..5)
                .map(|i| line(ops + f64::from(i), p50 + f64::from(i) * 0.01, 0.0))
                .collect()
        };
        let base = file(&steady(1000.0, 50.0));
        // 5 % fewer ops and 5 % more latency: inside the bounds.
        let rows = compare(&base, &file(&steady(950.0, 52.5)));
        assert_eq!(verdict(&rows, "ops_per_s"), &Verdict::Ok);
        assert_eq!(verdict(&rows, "p50_us"), &Verdict::Ok);
        assert_eq!(verdict(&rows, "failed_frac"), &Verdict::Ok);
        // Higher throughput is never worse; 30 % more latency is.
        let rows = compare(&base, &file(&steady(2000.0, 65.0)));
        assert_eq!(verdict(&rows, "ops_per_s"), &Verdict::Ok);
        assert_eq!(verdict(&rows, "p50_us"), &Verdict::Worse);
        let rows = compare(&base, &file(&steady(700.0, 40.0)));
        assert_eq!(verdict(&rows, "ops_per_s"), &Verdict::Worse);
        assert_eq!(verdict(&rows, "p50_us"), &Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_and_failures_are_worse() {
        let noisy: Vec<_> = [700.0, 900.0, 1000.0, 1100.0, 1300.0]
            .iter()
            .map(|&o| line(o, 50.0, 0.0))
            .collect();
        let steady: Vec<_> = (0..5).map(|_| line(1000.0, 50.0, 0.0)).collect();
        let rows = compare(&file(&steady), &file(&noisy));
        assert_eq!(verdict(&rows, "ops_per_s"), &Verdict::Unresolved);
        assert_eq!(verdict(&rows, "p50_us"), &Verdict::Ok);

        let failing: Vec<_> = (0..5).map(|_| line(1000.0, 50.0, 2.0)).collect();
        let rows = compare(&file(&steady), &file(&failing));
        assert_eq!(verdict(&rows, "failed_frac"), &Verdict::Worse);
    }

    #[test]
    fn aggregate_keeps_every_value_and_splits_traced_runs() {
        let m = Json::obj(vec![(
            "bench.traced_ops_per_s",
            Json::obj(vec![
                ("value", Json::Num(900.0)),
                ("unit", Json::str("1/s")),
            ]),
        )]);
        let traced = (
            true,
            Json::obj(vec![
                ("attempted", Json::Num(10.0)),
                ("failed", Json::Num(0.0)),
                ("metrics", m),
            ]),
        );
        let w = aggregate(
            Json::Null,
            &[line(1000.0, 50.0, 0.0), line(1010.0, 51.0, 1.0), traced],
        );
        assert_eq!(
            values_of(w.get("end_to_end").unwrap().get("ops_per_s").unwrap()),
            [1000.0, 1010.0]
        );
        assert_eq!(
            w.get("end_to_end")
                .unwrap()
                .get("ops_per_s")
                .unwrap()
                .get("bound")
                .unwrap()
                .as_f64(),
            spec::find("ops_per_s").unwrap().bound
        );
        assert_eq!(
            values_of(
                w.get("per_layer")
                    .unwrap()
                    .get("bench.traced_ops_per_s")
                    .unwrap()
            ),
            [900.0]
        );
        assert!(w
            .get("per_layer")
            .unwrap()
            .get("bench.traced_ops_per_s")
            .unwrap()
            .get("bound")
            .is_none());
        assert_eq!(w.get("attempted").unwrap().as_f64(), Some(2010.0));
        assert_eq!(w.get("failed").unwrap().as_f64(), Some(1.0));
    }
}
