//! The `calc-server` binary: recover-then-serve over a durable directory.
//!
//! ```sh
//! calc-server --dir /var/lib/calc [--addr 127.0.0.1:0] [--port-file p]
//! ```
//!
//! Boot recovers any existing state under `--dir` (checkpoint chain +
//! command-log replay), binds the address (port 0 picks an ephemeral
//! port), optionally writes the bound port to `--port-file` (how scripted
//! harnesses and the kill-9 smoke find it), and serves until killed.
//! Every write acknowledged `OK` on the wire has been fsynced with its
//! group-commit batch, so `kill -9` at any moment loses no acknowledged
//! write — the tier-6 kill-9 smoke (`cargo verify-server`) proves
//! exactly that against this binary.

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: calc-server --dir DIR [--addr HOST:PORT] [--port-file PATH]\n\
         \x20                 [--workers N] [--window-us N] [--max-batch N]\n\
         \x20                 [--checkpoint-every-ms N] [--max-connections N]\n\
         \x20                 [--max-inflight N] [--queue-deadline-ms N]\n\
         \x20                 [--frame-timeout-ms N] [--capacity-tps N]\n\
         \x20                 [--no-adaptive-pacing]\n\
         --window-us N  upper bound on how long a commit may wait for company;\n\
         \x20              reached only by batches nobody is waiting on; waited\n\
         \x20              fsyncs start no closer than N/2 apart (default 2000)\n\
         --max-batch N  fsync at once when a batch holds N records; 1 = per-commit fsync"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut dir: Option<std::path::PathBuf> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut window_us: Option<u64> = None;
    let mut max_batch: Option<usize> = None;
    let mut checkpoint_every_ms: Option<u64> = None;
    let mut server_config = calc_server::ServerConfig::default();
    let mut capacity_tps: Option<u64> = None;
    let mut adaptive_pacing = true;

    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--dir" => dir = Some(value().into()),
            "--addr" => addr = value(),
            "--port-file" => port_file = Some(value().into()),
            "--workers" => workers = value().parse().ok(),
            "--window-us" => window_us = value().parse().ok(),
            "--max-batch" => max_batch = value().parse().ok(),
            "--checkpoint-every-ms" => checkpoint_every_ms = value().parse().ok(),
            "--max-connections" => {
                server_config.max_connections = value().parse().unwrap_or_else(|_| usage())
            }
            "--max-inflight" => {
                server_config.max_inflight = value().parse().unwrap_or_else(|_| usage())
            }
            "--queue-deadline-ms" => {
                server_config.queue_deadline =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()))
            }
            "--frame-timeout-ms" => {
                server_config.frame_timeout =
                    Duration::from_millis(value().parse().unwrap_or_else(|_| usage()))
            }
            "--capacity-tps" => capacity_tps = value().parse().ok(),
            "--no-adaptive-pacing" => adaptive_pacing = false,
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    std::fs::create_dir_all(&dir).expect("create --dir");

    let db = calc_server::open_or_recover(&dir, |config| {
        if let Some(w) = workers {
            config.workers = w.max(1);
        }
        if let Some(us) = window_us {
            config.group_commit_window = Duration::from_micros(us);
        }
        if let Some(b) = max_batch {
            config.group_commit_max_batch = b.max(1);
        }
        config.checkpoint_interval = checkpoint_every_ms.map(Duration::from_millis);
        config.adaptive_pacing = adaptive_pacing;
        if let Some(tps) = capacity_tps {
            config.load_capacity_tps = tps;
        }
    })
    .expect("open or recover engine");

    let server = calc_server::Server::start_with(Arc::new(db), &addr, server_config)
        .expect("bind server");
    let bound = server.local_addr();
    if let Some(path) = port_file {
        // Write-then-rename so a watcher never reads a torn port number.
        let tmp = path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp).expect("create port file");
        writeln!(f, "{}", bound.port()).expect("write port file");
        f.sync_all().expect("sync port file");
        std::fs::rename(&tmp, &path).expect("publish port file");
    }
    println!("calc-server listening on {bound}");

    // Serve until killed. The kill-9 smoke depends on acked writes being
    // durable at any instant, which the ack-after-fsync path guarantees.
    loop {
        std::thread::park();
    }
}
