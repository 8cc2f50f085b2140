//! Overload and chaos: the tentpole's end-to-end verification.
//!
//! Three attack surfaces, one invariant — **no acknowledged write is ever
//! lost**, no matter how hard the server sheds:
//!
//! * an overload sweep well past saturation with a tiny in-flight permit
//!   gate and a concurrent checkpoint: `BUSY` sheds must happen, and every
//!   `OK`-acked write must survive shutdown + recovery;
//! * a connection cap that holds under excess connects (typed `BUSY`,
//!   never a silent hang) and releases as connections close;
//! * a seeded fault-injecting TCP proxy (partial frames, mid-request
//!   stalls, surprise disconnects) between client and server.
//!
//! Every random choice is seeded (`CHAOS_SEED` overrides) so CI failures
//! replay deterministically.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use calc_common::rng::SplitMix;
use calc_server::protocol::{read_frame, status};
use calc_server::{Client, ClientConfig, KvError, Server, ServerConfig};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "calc-chaos-test-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn open_db(dir: &std::path::Path) -> calc_engine::Database {
    calc_server::open_or_recover(dir, |c| {
        c.workers = 2;
    })
    .unwrap()
}

/// Overload sweep: 12 writer connections hammering a server whose permit
/// gate admits 2 requests at a time with a 1ms queue deadline — far past
/// saturation — while another connection drives checkpoints. Writers
/// retry `BUSY` (safe: pre-execution shed) until acked. Afterwards the
/// engine is shut down and recovered: every acked key must be there with
/// its exact value, and the health counters must show real shedding.
#[test]
fn overload_sweep_sheds_but_never_loses_acked_writes() {
    let dir = temp_dir("sweep");
    let server = Server::start_with(
        Arc::new(open_db(&dir)),
        "127.0.0.1:0",
        ServerConfig {
            max_inflight: 2,
            queue_deadline: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    const WRITERS: u64 = 12;
    const OPS: u64 = 40;
    let busy_seen = Arc::new(AtomicU64::new(0));
    let stop_ckpt = Arc::new(AtomicBool::new(false));

    // Concurrent checkpoint pressure: CHECKPOINT bypasses the gate.
    let ckpt = {
        let stop = stop_ckpt.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            while !stop.load(Ordering::Relaxed) {
                c.checkpoint().unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let busy_seen = busy_seen.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut acked = Vec::new();
                for i in 0..OPS {
                    let key = 0x0A00_0000 + w * 10_000 + i;
                    let value = (w << 32 | i).to_le_bytes();
                    loop {
                        match c.put(key, &value) {
                            Ok(_seq) => {
                                acked.push((key, value.to_vec()));
                                break;
                            }
                            Err(KvError::Busy(_)) => {
                                busy_seen.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(500));
                            }
                            Err(e) => panic!("writer {w} op {i}: unexpected {e}"),
                        }
                    }
                }
                acked
            })
        })
        .collect();

    let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
    for h in writers {
        acked.extend(h.join().unwrap());
    }
    stop_ckpt.store(true, Ordering::Relaxed);
    ckpt.join().unwrap();
    assert_eq!(acked.len() as u64, WRITERS * OPS);

    // The gate really shed: both client-observed BUSYs and the server's
    // own counter agree. (2 permits / 1ms deadline / 12 writers — if this
    // never sheds, admission control is not wired in.)
    let mut c = Client::connect(addr).unwrap();
    let fields = c.health_fields().unwrap();
    let shed: u64 = fields["shed_requests"].parse().unwrap();
    assert!(shed > 0, "no server-side sheds recorded: {fields:?}");
    assert!(
        busy_seen.load(Ordering::Relaxed) > 0,
        "clients never saw BUSY"
    );
    assert_eq!(fields["inflight"], "0");
    drop(c);

    // Zero acked-write loss: recover from disk and read every acked key.
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
    let server = Server::start(Arc::new(open_db(&dir)), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for (key, value) in &acked {
        assert_eq!(
            c.get(*key).unwrap().as_deref(),
            Some(value.as_slice()),
            "acked write to key {key:#x} lost across recovery"
        );
    }
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// The `--max-connections` cap: excess connects get one typed `BUSY`
/// frame and a close (never a hang), the shed is counted, and closing a
/// live connection frees the slot for the next connect.
#[test]
fn connection_cap_holds_and_releases() {
    let dir = temp_dir("conncap");
    let server = Server::start_with(
        Arc::new(open_db(&dir)),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    assert!(a.get(1).unwrap().is_none());
    assert!(b.get(1).unwrap().is_none());

    // Third connect: accepted at TCP level, then immediately told BUSY
    // and dropped.
    let mut excess = TcpStream::connect(addr).unwrap();
    excess
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut r = std::io::BufReader::new(excess.try_clone().unwrap());
    let (st, msg) = read_frame(&mut r).unwrap().expect("a typed reject frame");
    assert_eq!(st, status::BUSY);
    assert_eq!(msg, b"connection limit reached");
    let mut sink = [0u8; 8];
    assert!(
        matches!(excess.read(&mut sink), Ok(0) | Err(_)),
        "rejected connection must be closed"
    );

    let fields = a.health_fields().unwrap();
    assert!(fields["shed_connections"].parse::<u64>().unwrap() >= 1);

    // Release: close one admitted connection; the slot frees up (the
    // handler needs a moment to observe the close, hence the retry loop).
    drop(b);
    let mut admitted = None;
    for _ in 0..100 {
        let mut c = Client::connect(addr).unwrap();
        match c.get(1) {
            Ok(v) => {
                assert!(v.is_none());
                admitted = Some(c);
                break;
            }
            Err(KvError::Busy(_)) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("unexpected error while waiting for a slot: {e}"),
        }
    }
    assert!(admitted.is_some(), "closed connection never freed its slot");

    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// A seeded fault-injecting TCP proxy: forwards in small chunks with
/// random stalls, and kills a configurable fraction of connections
/// mid-stream. Returns the proxy's listen address and a stop handle.
fn start_fault_proxy(
    upstream: SocketAddr,
    seed: u64,
) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut conn_id = 0u64;
            loop {
                let Ok((client_side, _)) = listener.accept() else {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    continue;
                };
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                conn_id += 1;
                let Ok(server_side) = TcpStream::connect(upstream) else {
                    continue;
                };
                // Per-connection seeded fate: every connection is choppy
                // and slow, and dies after a seeded byte budget — a fixed
                // death sentence (not a coin flip) so every seed actually
                // injects disconnects over a long enough run.
                let mut fate = SplitMix::new(seed ^ conn_id.wrapping_mul(0x9E37_79B9));
                let kill_after = 200 + fate.next_below(1200);
                for (mut from, mut to, dir_seed) in [
                    (client_side.try_clone().unwrap(), server_side.try_clone().unwrap(), 1u64),
                    (server_side, client_side, 2u64),
                ] {
                    let mut rng = SplitMix::new(seed ^ conn_id ^ (dir_seed << 32));
                    std::thread::spawn(move || {
                        let mut moved = 0u64;
                        let mut buf = [0u8; 8];
                        loop {
                            // Tiny chunks force partial frames on both sides.
                            let want = 1 + rng.next_below(buf.len() as u64 - 1) as usize;
                            let n = match from.read(&mut buf[..want]) {
                                Ok(0) | Err(_) => break,
                                Ok(n) => n,
                            };
                            if rng.chance(0.10) {
                                // Mid-request stall.
                                std::thread::sleep(Duration::from_millis(rng.next_below(8)));
                            }
                            if to.write_all(&buf[..n]).is_err() {
                                break;
                            }
                            let _ = to.flush();
                            moved += n as u64;
                            if moved >= kill_after {
                                // Surprise disconnect, both directions.
                                let _ = from.shutdown(Shutdown::Both);
                                let _ = to.shutdown(Shutdown::Both);
                                break;
                            }
                        }
                        let _ = to.shutdown(Shutdown::Write);
                    });
                }
            }
        })
    };
    (addr, stop, handle)
}

/// Writes through the fault proxy: connections die mid-request, frames
/// arrive a few bytes at a time, stalls hit between chunks. The client
/// follows the retry matrix — a transport error on a write is AMBIGUOUS,
/// so it reconnects and moves on without resending (never auto-retry a
/// write after an ambiguous failure). The oracle after recovery: every
/// key the client got an `OK` for must be durable. Unacked keys may or
/// may not be — that ambiguity is the point.
#[test]
fn faulty_proxy_partial_frames_never_lose_acked_writes() {
    let dir = temp_dir("proxy");
    let server = Server::start(Arc::new(open_db(&dir)), "127.0.0.1:0").unwrap();
    let (proxy_addr, proxy_stop, proxy_handle) =
        start_fault_proxy(server.local_addr(), chaos_seed(0xFADE_0003));

    let client_config = ClientConfig {
        read_timeout: Some(Duration::from_secs(5)),
        ..ClientConfig::default()
    };
    let connect = |cfg: &ClientConfig| loop {
        match Client::connect_with(proxy_addr, cfg.clone()) {
            Ok(c) => return c,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let mut c = connect(&client_config);
    let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut transport_failures = 0u64;
    for i in 0..150u64 {
        let key = 0x0B00_0000 + i;
        let value = i.to_le_bytes().to_vec();
        match c.put(key, &value) {
            Ok(_seq) => acked.push((key, value)),
            Err(KvError::Io(_)) => {
                // Ambiguous — do NOT resend this key; fresh connection,
                // next key.
                transport_failures += 1;
                c = connect(&client_config);
            }
            Err(KvError::Busy(_)) => {
                // Pre-execution shed: the one retry that IS safe.
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("op {i}: unexpected {e}"),
        }
    }
    assert!(
        !acked.is_empty(),
        "proxy killed every single attempt — seed produced no signal"
    );
    assert!(
        transport_failures > 0,
        "proxy injected no faults — chaos test tested nothing"
    );

    proxy_stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(proxy_addr); // unblock accept
    proxy_handle.join().unwrap();

    // Recovery oracle: acked ⊆ durable.
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
    let server = Server::start(Arc::new(open_db(&dir)), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for (key, value) in &acked {
        assert_eq!(
            c.get(*key).unwrap().as_deref(),
            Some(value.as_slice()),
            "acked write to key {key:#x} lost (proxy chaos)"
        );
    }
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}
