//! End-to-end tests over real TCP: wire verbs, admin metrics, protocol
//! robustness, and the graceful-shutdown durability guarantee.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use calc_server::{key_of, Client, KvError, Server};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "calc-server-test-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start_server(dir: &std::path::Path) -> Server {
    let db = calc_server::open_or_recover(dir, |config| {
        config.workers = 2;
    })
    .unwrap();
    Server::start(Arc::new(db), "127.0.0.1:0").unwrap()
}

#[test]
fn wire_verbs_roundtrip() {
    let dir = temp_dir("verbs");
    let server = start_server(&dir);
    let mut c = Client::connect(server.local_addr()).unwrap();

    // PUT → GET → DEL → GET.
    let k = key_of("greeting");
    assert!(c.get(k).unwrap().is_none());
    let seq1 = c.put(k, b"hello").unwrap();
    assert_eq!(c.get(k).unwrap().as_deref(), Some(&b"hello"[..]));
    let seq2 = c.put(k, b"world").unwrap();
    assert!(seq2 > seq1, "commit sequences advance");
    c.del(k).unwrap();
    assert!(c.get(k).unwrap().is_none());
    // Deleting an absent key aborts, typed.
    match c.del(k) {
        Err(KvError::Aborted(reason)) => assert!(reason.contains("no such key")),
        other => panic!("expected abort, got {other:?}"),
    }

    // CAS: insert, conflict, swap, stale.
    let k = key_of("counter");
    c.cas(k, None, b"one").unwrap();
    assert!(matches!(c.cas(k, None, b"two"), Err(KvError::Aborted(_))));
    c.cas(k, Some(b"one"), b"two").unwrap();
    assert!(matches!(
        c.cas(k, Some(b"one"), b"three"),
        Err(KvError::Aborted(_))
    ));
    assert_eq!(c.get(k).unwrap().as_deref(), Some(&b"two"[..]));

    // MPUT commits all pairs under one seq; MGET reads them back aligned.
    let pairs: Vec<(u64, Vec<u8>)> =
        (0..5u64).map(|i| (1000 + i, i.to_le_bytes().to_vec())).collect();
    c.mput(&pairs).unwrap();
    let keys: Vec<u64> = (0..6u64).map(|i| 1000 + i).collect();
    let got = c.mget(&keys).unwrap();
    for (i, v) in got.iter().enumerate().take(5) {
        assert_eq!(v.as_deref(), Some(&(i as u64).to_le_bytes()[..]));
    }
    assert!(got[5].is_none(), "unwritten key reads absent");

    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

#[test]
fn admin_verbs_expose_group_commit_metrics_and_checkpoints() {
    let dir = temp_dir("admin");
    let server = start_server(&dir);
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..20u64 {
        c.put(i, &i.to_le_bytes()).unwrap();
    }

    let fields = c.health_fields().unwrap();
    assert_eq!(fields["committed"], "20");
    assert_eq!(fields["records"], "20");
    // Durable acks mean every commit rode a fsynced batch.
    let batches: u64 = fields["commit_batches"].parse().unwrap();
    assert!(batches >= 1, "at least one group-commit batch: {fields:?}");
    let batch_records: u64 = fields["commit_batch_records"].parse().unwrap();
    assert_eq!(batch_records, 20, "every commit counted in a batch");
    let avg: f64 = fields["avg_batch_size"].parse().unwrap();
    assert!(avg >= 1.0);
    let p99: u64 = fields["fsync_p99_us"].parse().unwrap();
    assert!(p99 > 0, "a real fsync takes measurable time");
    assert_eq!(fields["active_connections"], "1", "just this client");
    let total: u64 = fields["total_connections"].parse().unwrap();
    assert!(total >= 1);
    assert_eq!(fields["degraded"], "false");

    // A second connection is visible while open.
    let mut c2 = Client::connect(server.local_addr()).unwrap();
    let fields = c2.health_fields().unwrap();
    assert_eq!(fields["active_connections"], "2");
    drop(c2);

    // CHECKPOINT triggers a cycle; STATS shows the published chain.
    let line = c.checkpoint().unwrap();
    assert!(line.contains("records=20"), "checkpoint stats line: {line}");
    let stats = c.stats().unwrap();
    assert!(stats.contains("checkpoint kind="), "stats: {stats}");

    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// ROADMAP 5d: `STATS` lists from manifest documents alone, so a corrupt
/// part neither fails the verb nor gets the cycle quarantined (renamed)
/// by a per-request scan racing the merger.
#[test]
fn stats_lists_manifests_without_validating_or_quarantining() {
    let dir = temp_dir("stats-shallow");
    let server = start_server(&dir);
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..20u64 {
        c.put(i, &i.to_le_bytes()).unwrap();
    }
    c.checkpoint().unwrap();

    let ckpts = dir.join("ckpts");
    let names = || {
        let mut names: Vec<String> = std::fs::read_dir(&ckpts)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let before = names();
    let part = before.iter().find(|n| n.contains(".part-")).expect("a part file");
    let mut bytes = std::fs::read(ckpts.join(part)).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(ckpts.join(part), &bytes).unwrap();

    let stats = c.stats().unwrap();
    assert!(
        stats.contains("checkpoint kind=full id=0 records=20"),
        "stats: {stats}"
    );
    let db = server.shutdown();
    assert_eq!(db.checkpoint_dir().quarantined_count(), 0);
    assert_eq!(names(), before, "STATS renamed or removed a file");
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// A command log that exists but cannot be read must fail the boot: an
/// empty tail would open a fresh segment above the survivors and serve a
/// store missing acknowledged writes.
#[test]
fn open_or_recover_propagates_log_read_errors() {
    let dir = temp_dir("log-unreadable");
    let server = start_server(&dir);
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..5u64 {
        c.put(i, b"acked").unwrap();
    }
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();

    // Segment 0 becomes unreadable: a directory under its name.
    let seg0 = dir.join("cmdlog").join("cmdlog-000000.log");
    std::fs::remove_file(&seg0).unwrap();
    std::fs::create_dir(&seg0).unwrap();
    let reopened = calc_server::open_or_recover(&dir, |_| {});
    assert!(
        reopened.is_err(),
        "booted with {} records instead of failing",
        reopened.map(|db| db.record_count()).unwrap_or(0)
    );

    // A missing log directory is still a valid cold start.
    let fresh = calc_server::open_or_recover(&temp_dir("log-missing"), |_| {}).unwrap();
    assert_eq!(fresh.record_count(), 0);
    fresh.shutdown();
}

#[test]
fn malformed_requests_get_bad_request_and_connection_survives() {
    use calc_server::protocol::{read_frame, status, write_frame};
    use std::net::TcpStream;

    let dir = temp_dir("badreq");
    let server = start_server(&dir);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut w = std::io::BufWriter::new(stream);

    // Unknown verb.
    write_frame(&mut w, 0x7f, &[]).unwrap();
    let (st, _) = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(st, status::BAD_REQUEST);
    // Truncated GET payload.
    write_frame(&mut w, calc_server::protocol::verb::GET, &[1, 2]).unwrap();
    let (st, _) = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(st, status::BAD_REQUEST);
    // The connection is still serviceable after both.
    write_frame(
        &mut w,
        calc_server::protocol::verb::GET,
        &7u64.to_le_bytes(),
    )
    .unwrap();
    let (st, body) = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(st, status::OK);
    assert_eq!(body, vec![0u8], "absent key");

    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// The graceful-shutdown contract: shutting down under concurrent write
/// load loses NO acknowledged write. Mirrors the engine's
/// `shutdown_under_load_drains_and_completes`, but through the server and
/// with recovery as the oracle.
#[test]
fn shutdown_under_load_loses_no_acknowledged_write() {
    const WRITERS: usize = 8;
    let dir = temp_dir("shutdown-load");
    let server = start_server(&dir);
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let key = 0xA000 + w as u64;
                let mut c = Client::connect(addr).unwrap();
                let mut last_acked = 0u64;
                let mut counter = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    counter += 1;
                    match c.put(key, &counter.to_le_bytes()) {
                        Ok(_) => last_acked = counter,
                        // Shutdown raced the request: the unacked write
                        // carries no durability promise. Stop writing.
                        Err(KvError::Io(_)) => break,
                        Err(e) => panic!("writer {w}: {e}"),
                    }
                }
                (key, last_acked)
            })
        })
        .collect();

    // Let the writers build real traffic, then pull the plug mid-stream.
    std::thread::sleep(Duration::from_millis(300));
    let db = server.shutdown();
    stop.store(true, Ordering::Relaxed);
    let acked: Vec<(u64, u64)> = writers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        acked.iter().all(|(_, n)| *n > 0),
        "every writer got at least one ack: {acked:?}"
    );
    Arc::try_unwrap(db).unwrap().shutdown();

    // Recovery is the oracle: every acknowledged write must be there.
    // Counters only grow, so "recovered >= last acked" proves no acked
    // write was dropped (a later unacked write may also have landed).
    let recovered = calc_server::open_or_recover(&dir, |c| {
        c.workers = 2;
    })
    .unwrap();
    for (key, last_acked) in acked {
        let v = recovered
            .get(calc_common::types::Key(key))
            .unwrap_or_else(|| panic!("key {key:#x} lost after shutdown"));
        let got = u64::from_le_bytes(v[..8].try_into().unwrap());
        assert!(
            got >= last_acked,
            "key {key:#x}: recovered {got} < acknowledged {last_acked}"
        );
    }
    recovered.shutdown();
}

/// How a golden `HEALTH`/`STATS` value must parse.
#[derive(Debug)]
enum Format {
    Int,
    Bool,
    TwoDecimals,
    OneOf(&'static [&'static str]),
}

/// Every key `HEALTH` printed before the metric table existed (plus
/// `commit_batch_dwell_us`, ISSUE 15), with its value format — the wire
/// contract the table must keep.
const HEALTH_GOLDEN: [(&str, Format); 20] = [
    ("committed", Format::Int),
    ("aborted", Format::Int),
    ("records", Format::Int),
    ("commit_batches", Format::Int),
    ("commit_batch_records", Format::Int),
    ("commit_batch_dwell_us", Format::Int),
    ("avg_batch_size", Format::TwoDecimals),
    ("fsync_p99_us", Format::Int),
    ("active_connections", Format::Int),
    ("total_connections", Format::Int),
    ("degraded", Format::Bool),
    ("checkpoint_failures", Format::Int),
    ("load_level", Format::OneOf(&["idle", "normal", "high", "overload"])),
    ("inflight", Format::Int),
    ("shed_requests", Format::Int),
    ("shed_connections", Format::Int),
    ("capture_yields", Format::Int),
    ("log_read_only", Format::Bool),
    ("log_enospc_entries", Format::Int),
    ("emergency_retention_passes", Format::Int),
];

/// The five totals `STATS` printed after its checkpoint lines.
const STATS_GOLDEN: [&str; 5] = [
    "last_checkpoint_bytes",
    "last_checkpoint_raw_bytes",
    "checkpoints_pruned",
    "log_segments_truncated",
    "log_bytes_truncated",
];

/// Splits `key=value` lines, failing on a key that appears twice.
fn unique_fields(text: &str) -> std::collections::BTreeMap<&str, &str> {
    let mut fields = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with("checkpoint ")) {
        let (k, v) = line.split_once('=').unwrap_or_else(|| panic!("not key=value: {line}"));
        assert!(fields.insert(k, v).is_none(), "key {k} printed twice");
    }
    fields
}

/// The wire is the engine's metric table: every declared metric once, no
/// duplicate keys, the pre-table keys and formats intact, and one value
/// whichever way it is read.
#[test]
fn health_and_stats_print_the_metric_table() {
    use calc_engine::{Metric, MetricValue};

    let dir = temp_dir("metric-table");
    let server = start_server(&dir);
    let mut c = Client::connect(server.local_addr()).unwrap();
    for i in 0..20u64 {
        c.put(i, &i.to_le_bytes()).unwrap();
    }
    c.checkpoint().unwrap();
    server.db().health().add(Metric::retention_failures, 3);

    let health = c.health().unwrap();
    let fields = unique_fields(&health);
    for m in Metric::ALL {
        assert!(fields.contains_key(m.desc().name), "{} missing from HEALTH", m.desc().name);
    }
    for (key, format) in &HEALTH_GOLDEN {
        let value = *fields.get(key).unwrap_or_else(|| panic!("HEALTH lost {key}"));
        let ok = match format {
            Format::Int => value.parse::<u64>().is_ok(),
            Format::Bool => value == "true" || value == "false",
            Format::TwoDecimals => {
                value.parse::<f64>().is_ok() && value.split_once('.').is_some_and(|(_, d)| d.len() == 2)
            }
            Format::OneOf(names) => names.contains(&value),
        };
        assert!(ok, "HEALTH {key}={value} is not {format:?}");
    }

    let stats = c.stats().unwrap();
    assert!(
        stats.starts_with("checkpoint kind=full id=0 records=20 watermark="),
        "stats: {stats}"
    );
    let stats_fields = unique_fields(&stats);
    for key in STATS_GOLDEN {
        assert!(stats_fields[key].parse::<u64>().is_ok(), "STATS {key}={}", stats_fields[key]);
    }
    assert!(stats_fields["last_checkpoint_bytes"].parse::<u64>().unwrap() > 0);
    assert_eq!(stats_fields["last_checkpoint_parts"], fields["last_checkpoint_parts"]);

    // One value, three readers: the engine-level list, the typed getter,
    // the wire. (The server is idle, so the counters are not moving.)
    let db = server.db();
    let list = db.metric_values();
    let listed = |name: &str| list.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!(listed("commit_batch_records"), MetricValue::Int(20));
    assert_eq!(db.health().commit_batch_records(), 20);
    assert_eq!(fields["commit_batch_records"], "20");
    // A lone client on the shipped 2 ms window: a batch is held at most
    // to the pacing point, half a window after the previous fsync
    // started — never for the window itself.
    let batches = db.health().commit_batches();
    let dwell_us = fields["commit_batch_dwell_us"].parse::<u64>().unwrap();
    assert!(
        dwell_us < batches * 1_500,
        "{batches} batches dwelt {dwell_us} us: the window is back on the durable path"
    );
    assert_eq!(listed("retention_failures"), MetricValue::Int(3));
    assert_eq!(db.health().retention_failures(), 3);
    assert_eq!(fields["retention_failures"], "3");
    assert_eq!(listed("degraded"), MetricValue::Flag(db.health().degraded()));
    assert_eq!(fields["degraded"], listed("degraded").to_string());

    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// Retention truncates the log below the oldest surviving full; if that
/// full later turns out corrupt, the surviving log tail is not the whole
/// history. Restart must refuse, not serve the tail over an empty store.
#[test]
fn restart_refuses_log_only_recovery_over_a_truncated_log() {
    use calc_recovery::RecoveryError;

    let dir = temp_dir("corrupt-sole-full");
    let open = || {
        calc_server::open_or_recover(&dir, |config| {
            config.workers = 2;
            config.keep_checkpoints = Some(1);
        })
    };
    // One server lifetime: boot over `dir`, do `work`, shut down cleanly.
    let lifetime = |work: &dyn Fn(&mut Client)| {
        let server = Server::start(Arc::new(open().unwrap()), "127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        work(&mut c);
        drop(c);
        Arc::try_unwrap(server.shutdown()).unwrap().shutdown();
    };
    lifetime(&|c| {
        for i in 0..50u64 {
            c.put(i, b"acked").unwrap();
        }
        c.checkpoint().unwrap();
    });
    // This checkpoint (cycle 1) supersedes cycle 0, and retention deletes
    // the sealed segment 0 that it covers.
    lifetime(&|c| {
        c.checkpoint().unwrap();
        for i in 50..55u64 {
            c.put(i, b"acked").unwrap();
        }
    });
    assert!(!dir.join("cmdlog").join("cmdlog-000000.log").exists());

    let mut flipped = 0;
    for entry in std::fs::read_dir(dir.join("ckpts")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("ckpt-0000000001-full.part-") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped > 0, "cycle 1 is the sole full checkpoint");

    let err = open().expect_err("50 acknowledged writes exist only in the corrupt checkpoint");
    let typed = err.get_ref().and_then(|e| e.downcast_ref::<RecoveryError>());
    match typed {
        Some(RecoveryError::LogTruncated { lowest_segment, quarantined }) => {
            assert!(*lowest_segment > 0);
            assert_eq!(*quarantined, flipped + 1, "the parts and their manifest");
        }
        other => panic!("expected LogTruncated, got {other:?} ({err})"),
    }
}
