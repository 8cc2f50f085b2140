//! The metric names, units, directions and bounds. `../BENCHMARK.json`
//! states the same for the driver; a test keeps the two equal.

pub const RUN_SECONDS: f64 = 10.0;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the base's median by which the metric may get worse;
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [Metric; 7] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("ops_per_s", "1/s", "higher", 0.25),
    gated("p50_us", "us", "lower", 0.20),
    gated("p90_us", "us", "lower", 0.25),
    gated("recovery_s", "s", "lower", 0.25),
    gated("disk_bytes_per_user_byte", "ratio", "lower", 0.02),
    gated("peak_rss_mb", "MB", "lower", 0.25),
];

/// Single layers, `<crate>.<metric>`, from the traced run.
pub const PER_LAYER: [Metric; 19] = [
    layer("bench.traced_ops_per_s", "1/s", "higher"),
    layer("engine.tps_in_ckpt_ratio", "ratio", "higher"),
    layer("core.ckpt_cycle_ms", "ms", "lower"),
    layer("core.capture_records_per_s", "1/s", "higher"),
    layer("core.ckpt_bytes_per_record", "bytes", "lower"),
    layer("recovery.records_per_fsync", "count", "higher"),
    layer("recovery.part_load_ms", "ms", "lower"),
    layer("recovery.merge_ms", "ms", "lower"),
    layer("recovery.replay_ms", "ms", "lower"),
    layer("recovery.replay_cmds_per_s", "1/s", "higher"),
    layer("replica.catchup_s", "s", "lower"),
    layer("replica.promote_ms", "ms", "lower"),
    layer("server.put_self_us", "us", "lower"),
    layer("server.get_self_us", "us", "lower"),
    layer("recovery.gc_dwell_us", "us", "lower"),
    layer("recovery.gc_floor_us", "us", "lower"),
    layer("recovery.fsync_us", "us", "lower"),
    layer("engine.execute_us", "us", "lower"),
    layer("txn.lock_pair_ns", "ns", "lower"),
];

/// Failed operations as a share of those attempted may rise by this much,
/// absolutely, before `bench compare` calls it worse.
pub const FAILED_FRAC_BOUND: f64 = 0.001;

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

pub fn unit(name: &str) -> &'static str {
    find(name).map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    #[test]
    fn benchmark_json_states_the_same_contract() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));

        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                assert!(w.get("why").unwrap().as_str().unwrap().len() <= 200);
                w.get("name").unwrap().as_str().unwrap()
            })
            .collect();
        assert_eq!(names, workloads::NAMES);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
                assert_eq!(j.get("better").unwrap().as_str(), Some(m.better));
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
