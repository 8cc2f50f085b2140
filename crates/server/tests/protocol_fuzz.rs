//! Wire-protocol fuzzing over real TCP: seeded garbage, oversized length
//! prefixes, truncated frames, and byte-at-a-time slowloris peers. The
//! invariants under attack:
//!
//! * the server never panics or wedges a handler,
//! * a framing violation costs the *attacker's* connection only — the
//!   server keeps serving well-formed clients,
//! * no admission permit leaks (`inflight` drains back to 0),
//! * a slow peer is bounded by the frame deadline, not tolerated forever.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::rng::SplitMix;
use calc_server::protocol::{read_frame, status, verb, write_frame, MAX_FRAME};
use calc_server::{Client, Server, ServerConfig};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "calc-fuzz-test-{}-{}-{name}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start_server(dir: &std::path::Path, config: ServerConfig) -> Server {
    let db = calc_server::open_or_recover(dir, |c| {
        c.workers = 2;
    })
    .unwrap();
    Server::start_with(Arc::new(db), "127.0.0.1:0", config).unwrap()
}

/// Polls HEALTH until `inflight` returns to 0 — the no-leaked-permit
/// oracle. Panics if it never drains.
fn assert_inflight_drains(addr: std::net::SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let fields = c.health_fields().unwrap();
        if fields["inflight"] == "0" {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "inflight never drained to 0: {fields:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Seeded garbage frames: random opcodes with random payloads, all inside
/// the framing rules. Every one must get a typed response (BAD_REQUEST
/// for junk verbs, anything but a panic for the rest) on a connection
/// that stays serviceable.
#[test]
fn garbage_opcodes_get_typed_responses_and_never_wedge() {
    let dir = temp_dir("garbage");
    let server = start_server(&dir, ServerConfig::default());
    let addr = server.local_addr();
    let mut rng = SplitMix::new(0xFADE_0001);

    let stream = TcpStream::connect(addr).unwrap();
    let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut w = std::io::BufWriter::new(stream);
    for _ in 0..200 {
        // Bias away from well-formed verbs but include them too: a fuzzer
        // that only sends unknown opcodes misses payload-decode panics.
        let op = rng.next_below(256) as u8;
        let len = rng.next_below(64) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        write_frame(&mut w, op, &payload).unwrap();
        let (st, _body) = read_frame(&mut r)
            .expect("server must answer, not die")
            .expect("server must answer, not close on an in-frame request");
        assert!(
            st <= status::BUSY,
            "response status {st:#04x} is not a defined status"
        );
    }
    // The same connection still serves a well-formed request.
    write_frame(&mut w, verb::GET, &7u64.to_le_bytes()).unwrap();
    let (st, body) = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(st, status::OK);
    assert_eq!(body, vec![0u8]);

    assert_inflight_drains(addr);
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// Framing violations — zero length, oversized claims, truncated frames,
/// raw junk bytes — cost the attacker the connection, never the server.
#[test]
fn framing_violations_drop_attacker_but_not_server() {
    let dir = temp_dir("framing");
    let server = start_server(&dir, ServerConfig::default());
    let addr = server.local_addr();

    let attacks: Vec<Vec<u8>> = vec![
        // Zero-length frame.
        0u32.to_le_bytes().to_vec(),
        // Length prefix claiming more than MAX_FRAME.
        (MAX_FRAME + 1).to_le_bytes().to_vec(),
        // u32::MAX claim — must not allocate 4 GiB.
        u32::MAX.to_le_bytes().to_vec(),
        // Truncated frame: claims 100 bytes, sends 3, then EOF.
        {
            let mut v = 100u32.to_le_bytes().to_vec();
            v.extend_from_slice(&[1, 2, 3]);
            v
        },
    ];
    for (i, attack) in attacks.iter().enumerate() {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(attack).unwrap();
        // Half of the runs close abruptly, half shutdown politely.
        if i % 2 == 0 {
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        // The server must drop us: read sees EOF (or reset), never a hang.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut sink = [0u8; 64];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,       // dropped, as specified
                Ok(_) => continue,    // tolerate a late error frame
                Err(_) => break,      // reset also counts as dropped
            }
        }
        // The server survived and still serves well-formed clients.
        let mut c = Client::connect(addr).unwrap();
        assert!(c.get(1).unwrap().is_none());
    }

    assert_inflight_drains(addr);
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// Byte-at-a-time slowloris: a peer that starts a frame and then trickles
/// (or stalls) must be cut off by the frame deadline — bounded per
/// connection, handler freed, no permit leaked.
#[test]
fn slowloris_is_bounded_by_the_frame_deadline() {
    let dir = temp_dir("slowloris");
    let server = start_server(
        &dir,
        ServerConfig {
            frame_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // A well-formed PUT frame, delivered one byte at a time with pauses
    // that overrun the 300ms frame budget long before the frame is done.
    let mut frame = Vec::new();
    write_frame(&mut frame, verb::PUT, &{
        let mut p = 9u64.to_le_bytes().to_vec();
        p.extend_from_slice(b"slow");
        p
    })
    .unwrap();

    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut cut_off = false;
    for b in &frame {
        if stream.write_all(std::slice::from_ref(b)).is_err() {
            cut_off = true; // server already dropped us mid-trickle
            break;
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    if !cut_off {
        // Writes may all have been buffered; the proof is the read side:
        // EOF/reset instead of a response, within the deadline's order of
        // magnitude rather than the 30s client timeout.
        let mut sink = [0u8; 16];
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("server answered a frame that never completed in time"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "slowloris cutoff took {:?} — deadline not enforced",
        started.elapsed()
    );

    // An idle-but-silent connection at a frame BOUNDARY is legitimate and
    // must NOT be cut: open, wait out several frame deadlines, then use it.
    let mut idle = Client::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(900));
    assert!(idle.get(1).unwrap().is_none(), "idle keep-alive survives");

    assert_inflight_drains(addr);
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}

/// Seeded chaos mix: many short-lived connections, each randomly choosing
/// an attack (garbage, truncation, abrupt close, slow bytes) or a real
/// request — interleaved with a well-behaved writer verifying the server
/// keeps acknowledging durable work throughout.
#[test]
fn mixed_fault_storm_leaves_server_healthy() {
    let dir = temp_dir("storm");
    let server = start_server(
        &dir,
        ServerConfig {
            frame_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xFADE_0002u64);
    let mut rng = SplitMix::new(seed);

    let mut well_behaved = Client::connect(addr).unwrap();
    let mut acked = 0u64;
    for round in 0..60u64 {
        match rng.next_below(4) {
            0 => {
                // Garbage opcode on a throwaway connection.
                if let Ok(stream) = TcpStream::connect(addr) {
                    let mut w = std::io::BufWriter::new(stream);
                    let junk: Vec<u8> = (0..rng.next_below(32)).map(|_| rng.next_below(256) as u8).collect();
                    let _ = write_frame(&mut w, 0x7f, &junk);
                }
            }
            1 => {
                // Truncated frame then abrupt close.
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let claim = (rng.next_below(1 << 16) + 2) as u32;
                    let _ = stream.write_all(&claim.to_le_bytes());
                    let _ = stream.write_all(&[0u8; 1]);
                }
            }
            2 => {
                // Mid-request stall: partial length prefix, hold briefly.
                if let Ok(mut stream) = TcpStream::connect(addr) {
                    let _ = stream.write_all(&[5u8, 0]);
                    std::thread::sleep(Duration::from_millis(rng.next_below(30)));
                }
            }
            _ => {
                // Instant connect-disconnect.
                drop(TcpStream::connect(addr));
            }
        }
        // The well-behaved client keeps getting durable acks through it all.
        well_behaved
            .put(0xC0FFEE, &round.to_le_bytes())
            .unwrap_or_else(|e| panic!("round {round}: healthy client failed: {e}"));
        acked += 1;
    }
    assert_eq!(acked, 60);
    assert_eq!(
        well_behaved.get(0xC0FFEE).unwrap().as_deref(),
        Some(&59u64.to_le_bytes()[..])
    );

    assert_inflight_drains(addr);
    let db = server.shutdown();
    Arc::try_unwrap(db).unwrap().shutdown();
}
