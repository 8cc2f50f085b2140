//! The TCP front-end: listener, connection-handler pool, and request
//! dispatch into the engine.
//!
//! Each accepted connection gets a handler thread that decodes frames and
//! calls into the shared [`Database`]. Write verbs go through
//! [`Database::execute_durable`], which runs the transaction on the
//! handler thread itself and then parks it on the commit's [`calc_engine`]
//! durability ticket, so an `OK` on the wire means the commit's
//! group-commit batch has been fsynced: ack-after-fsync. Under load many handlers park concurrently
//! and one batch fsync retires all of them — that is where the group
//! commit throughput win comes from.
//!
//! Overload resilience (admission control): the accept loop enforces a
//! connection cap ([`ServerConfig::max_connections`]) — excess connects
//! get one `BUSY` frame and a close, never a silent hang. Data verbs
//! acquire a permit from a bounded in-flight [`calc_common::Gate`] before
//! touching the engine; a permit that does not free up within
//! [`ServerConfig::queue_deadline`] sheds the request with `BUSY`
//! *before any work happens*, keeping latency bounded for the requests
//! actually admitted. Monitoring verbs (`HEALTH`, `STATS`, `CHECKPOINT`)
//! bypass the gate so operators can see an overloaded server. Frame reads
//! run under a total per-frame deadline ([`ServerConfig::frame_timeout`])
//! once the first byte arrives, so a slowloris peer trickling bytes pins
//! one connection slot, not a handler forever.
//!
//! Graceful shutdown ordering ([`Server::shutdown`]):
//!
//! 1. stop accepting (flag + self-connect to unblock `accept`),
//! 2. half-close live connections (`shutdown(Read)`): each handler
//!    finishes its in-flight request, writes the response, then sees EOF
//!    and exits — no acknowledged write is ever dropped,
//! 3. join the handler pool,
//! 4. flush the final group-commit batch (`sync_command_log`),
//! 5. hand the engine back to the caller, whose `Database::shutdown`
//!    stops the checkpoint daemon before the engine drops.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use calc_common::load::Gate;
use calc_engine::{Database, Metric, SyncError, TxnOutcome};
use calc_txn::proc::params;

use crate::procs;
use crate::protocol::{status, verb, write_frame, Frame, Wire, WireError, MAX_FRAME};

/// Handler threads are plentiful (one per connection) and shallow (decode,
/// one transaction, encode), so they run on small stacks; a frame-sized
/// MPUT commits within one (`server_tests.rs`).
const HANDLER_STACK: usize = 256 << 10;

/// Admission-control and socket-hygiene knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connection cap: accepts beyond this many live connections get one
    /// `BUSY` frame and an immediate close. `0` is unlimited.
    pub max_connections: usize,
    /// In-flight request cap across all connections (the permit gate for
    /// data verbs). Each admitted write runs its transaction on its own
    /// handler thread, so this is the only cap on how many wire
    /// transactions run at once. `0`, the default, is unlimited — the gate
    /// still tracks the inflight gauge for load grading but never sheds.
    pub max_inflight: usize,
    /// How long a data request may queue for an in-flight permit before
    /// being shed with `BUSY`. Bounds queueing delay, which is what keeps
    /// accepted-request p99 flat under overload.
    pub queue_deadline: Duration,
    /// Total deadline for reading one frame once its first byte arrived —
    /// the slowloris bound. Idling *between* frames is unlimited (a quiet
    /// keep-alive connection is legitimate).
    pub frame_timeout: Duration,
    /// Socket write timeout for responses (a peer that stops reading
    /// cannot wedge a handler mid-response).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 1024,
            max_inflight: 0,
            queue_deadline: Duration::from_millis(100),
            frame_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// A running TCP front-end over a shared engine.
pub struct Server {
    db: Arc<Database>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `db` with default admission control
    /// ([`ServerConfig::default`]).
    pub fn start(db: Arc<Database>, addr: &str) -> io::Result<Server> {
        Self::start_with(db, addr, ServerConfig::default())
    }

    /// [`Server::start`] with explicit admission-control knobs.
    pub fn start_with(db: Arc<Database>, addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        // The permit gate shares the engine's load signal, so sheds and
        // the inflight gauge feed the same LoadLevel the checkpoint
        // pacer reads.
        let gate = Gate::new(config.max_inflight, db.load().clone());

        let accept_handle = {
            let db = db.clone();
            let stop = stop.clone();
            let handlers = handlers.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("calc-accept".into())
                .spawn(move || {
                    accept_loop(&listener, &db, &stop, &handlers, &conns, &gate, &config);
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            db,
            local_addr,
            stop,
            accept_handle: Some(accept_handle),
            handlers,
            conns,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// Gracefully stops the server (see the module docs for the ordering)
    /// and returns the engine so the caller can continue embedding it or
    /// shut it down. Every write acknowledged `OK` before this returns is
    /// durable on disk.
    pub fn shutdown(mut self) -> Arc<Database> {
        self.stop_impl();
        self.db.clone()
    }

    fn stop_impl(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop; it observes the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Half-close live connections: the write side stays open so each
        // handler's in-flight response still reaches the client.
        for stream in self.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for h in self.handlers.lock().drain(..) {
            let _ = h.join();
        }
        // Final group-commit flush: belt-and-braces for any fire-and-
        // forget submits sharing this engine (the server's own writes are
        // already fsynced before their acks). A dead logger here is
        // degraded durability, already surfaced per-request as ERR.
        if let Err(e) = self.db.sync_command_log() {
            eprintln!("calc-server: final command-log flush failed: {e}");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    db: &Arc<Database>,
    stop: &Arc<AtomicBool>,
    handlers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    conns: &Arc<Mutex<HashMap<u64, TcpStream>>>,
    gate: &Arc<Gate>,
    config: &ServerConfig,
) {
    let next_id = AtomicU64::new(0);
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if stop.load(Ordering::Acquire) => return,
            Err(_) => continue,
        };
        if stop.load(Ordering::Acquire) {
            return; // the shutdown self-connect (or a raced client)
        }
        let _ = stream.set_nodelay(true);
        // Connection cap: shed with one typed BUSY frame, never a silent
        // hang — the client knows to back off and retry elsewhere/later.
        if config.max_connections > 0 && conns.lock().len() >= config.max_connections {
            db.load().record_shed_connection();
            let mut w = BufWriter::new(stream);
            let _ = write_frame(&mut w, status::BUSY, b"connection limit reached");
            continue; // drop closes the socket
        }
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        let Ok(registry_clone) = stream.try_clone() else {
            continue;
        };
        conns.lock().insert(id, registry_clone);
        db.health().add(Metric::total_connections, 1);
        let handle = {
            let db = db.clone();
            let conns = conns.clone();
            let gate = gate.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("calc-conn-{id}"))
                .stack_size(HANDLER_STACK)
                .spawn(move || {
                    let _ = handle_conn(&db, stream, &gate, &config);
                    conns.lock().remove(&id);
                    db.health().add(Metric::closed_connections, 1);
                })
                .expect("spawn connection handler")
        };
        handlers.lock().push(handle);
    }
}

/// A connection's read side. It keeps the socket's read timeout as it
/// last set it and changes it only when a read will reach the socket —
/// the buffer is empty — and needs another one, so a frame that arrives
/// whole costs no `setsockopt` at all.
struct FrameReader {
    reader: BufReader<TcpStream>,
    /// Whether the socket's read timeout is set (a frame is under way)
    /// rather than blocking (idle at a frame boundary).
    timed: bool,
}

impl FrameReader {
    /// One read into `buf`, blocking if `deadline` is `None`. A read that
    /// reaches the socket mid-frame re-arms the time left to the
    /// deadline, so the bound stays exact however the frame trickles in.
    fn read(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> io::Result<usize> {
        if self.reader.buffer().is_empty() {
            match deadline {
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    self.reader.get_ref().set_read_timeout(Some(left))?;
                    self.timed = true;
                }
                None if self.timed => {
                    self.reader.get_ref().set_read_timeout(None)?;
                    self.timed = false;
                }
                None => {}
            }
        }
        self.reader.read(buf)
    }

    /// Reads exactly `buf.len()` bytes by `deadline`. Returns `TimedOut`
    /// when the deadline passes mid-frame — the slowloris bound.
    fn read_exact_deadline(&mut self, buf: &mut [u8], deadline: Instant) -> io::Result<()> {
        let slow_peer =
            || io::Error::new(io::ErrorKind::TimedOut, "frame deadline passed (slow peer)");
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.read(&mut buf[filled..], Some(deadline)) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Err(slow_peer())
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// [`crate::protocol::read_frame`] with the slowloris bound: idling at
    /// a frame *boundary* is unlimited (a quiet keep-alive connection is
    /// legitimate and half-closed sockets deliver EOF), but once the first
    /// byte of a frame arrives the rest must land within `frame_timeout`.
    fn read_frame_timed(&mut self, frame_timeout: Duration) -> io::Result<Option<(u8, Vec<u8>)>> {
        // Block indefinitely for the first byte of the length prefix.
        let mut len_buf = [0u8; 4];
        loop {
            match self.read(&mut len_buf[..1], None) {
                Ok(0) => return Ok(None), // clean EOF at the boundary
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // A frame has started: everything else is deadline-bounded.
        let deadline = Instant::now() + frame_timeout;
        self.read_exact_deadline(&mut len_buf[1..], deadline)?;
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} outside (0, {MAX_FRAME}]"),
            ));
        }
        let mut body = vec![0u8; len as usize];
        self.read_exact_deadline(&mut body, deadline)?;
        let opcode = body[0];
        body.drain(..1);
        Ok(Some((opcode, body)))
    }
}

/// Whether this verb mutates state (write verbs are rejected while the
/// command log is in read-only degraded mode).
fn is_write_verb(op: u8) -> bool {
    matches!(op, verb::PUT | verb::DEL | verb::CAS | verb::MPUT)
}

/// Whether this verb goes through the in-flight permit gate. Monitoring
/// and checkpoint verbs bypass it: an operator must be able to see (and
/// drain) an overloaded server.
fn is_gated_verb(op: u8) -> bool {
    matches!(
        op,
        verb::GET | verb::PUT | verb::DEL | verb::CAS | verb::MGET | verb::MPUT
    )
}

fn handle_conn(
    db: &Arc<Database>,
    stream: TcpStream,
    gate: &Arc<Gate>,
    config: &ServerConfig,
) -> io::Result<()> {
    stream.set_write_timeout(Some(config.write_timeout))?;
    let mut reader = FrameReader {
        reader: BufReader::new(stream.try_clone()?),
        timed: false,
    };
    let mut writer = BufWriter::new(stream);
    while let Some((op, body)) = reader.read_frame_timed(config.frame_timeout)? {
        let (st, payload) = admit_and_dispatch(db, gate, config, op, &body);
        write_frame(&mut writer, st, &payload)?;
    }
    writer.flush()
}

/// Admission control in front of [`dispatch`]: data verbs take an
/// in-flight permit (shedding with `BUSY` on deadline) and write verbs
/// are shed while the command log is read-only (ENOSPC degradation).
fn admit_and_dispatch(
    db: &Arc<Database>,
    gate: &Arc<Gate>,
    config: &ServerConfig,
    op: u8,
    body: &[u8],
) -> (u8, Vec<u8>) {
    if !is_gated_verb(op) {
        return dispatch(db, op, body);
    }
    let Some(_permit) = gate.try_acquire_for(config.queue_deadline) else {
        return (
            status::BUSY,
            b"server overloaded: no in-flight permit within the queue deadline".to_vec(),
        );
    };
    if is_write_verb(op) && db.log_read_only() {
        db.load().record_shed_request();
        return (
            status::BUSY,
            b"command log read-only (out of disk space): write shed".to_vec(),
        );
    }
    dispatch(db, op, body)
}

/// Decodes and executes one request; returns `(status, payload)`.
fn dispatch(db: &Database, op: u8, body: &[u8]) -> (u8, Vec<u8>) {
    match try_dispatch(db, op, body) {
        Ok(resp) => resp,
        Err(e) => (status::BAD_REQUEST, e.to_string().into_bytes()),
    }
}

fn try_dispatch(db: &Database, op: u8, body: &[u8]) -> Result<(u8, Vec<u8>), WireError> {
    let mut w = Wire::new(body);
    match op {
        verb::GET => {
            // `u8` presence flag, then the value as the trailing field,
            // encoded straight from the store's borrow.
            let key = calc_common::types::Key(w.u64()?);
            let reply = db.get_with(key, |v| Frame::new().u8(1).tail(v).finish());
            Ok((status::OK, reply.unwrap_or_else(|| vec![0])))
        }
        verb::PUT => {
            let key = w.u64()?;
            let value = w.tail();
            let p = params::Writer::new().u64(key).bytes(value).finish();
            Ok(durable_outcome(db.execute_durable(procs::PUT, p)))
        }
        verb::DEL => {
            let key = w.u64()?;
            let p = params::Writer::new().u64(key).finish();
            Ok(durable_outcome(db.execute_durable(procs::DEL, p)))
        }
        verb::CAS => {
            let key = w.u64()?;
            let flag = w.u8()?;
            let mut p = params::Writer::new().u64(key).u64(flag as u64);
            if flag != 0 {
                p = p.bytes(w.bytes()?);
            }
            let p = p.bytes(w.tail()).finish();
            Ok(durable_outcome(db.execute_durable(procs::CAS, p)))
        }
        verb::MGET => {
            // Per key a presence flag, then (if present) the value as a
            // `u32` length-prefixed field — `Frame::bytes`'s layout —
            // encoded straight from the store's borrow.
            let n = w.u32()?;
            let mut out = Frame::new().u32(n).finish();
            for _ in 0..n {
                let key = calc_common::types::Key(w.u64()?);
                let found = db.get_with(key, |v| {
                    out.push(1);
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    out.extend_from_slice(v);
                });
                if found.is_none() {
                    out.push(0);
                }
            }
            Ok((status::OK, out))
        }
        verb::MPUT => {
            let n = w.u32()?;
            let mut p = params::Writer::new().u32(n);
            for _ in 0..n {
                p = p.u64(w.u64()?).bytes(w.bytes()?);
            }
            Ok(durable_outcome(db.execute_durable(procs::MPUT, p.finish())))
        }
        verb::HEALTH => Ok((status::OK, health_text(db).into_bytes())),
        verb::CHECKPOINT => Ok(match db.checkpoint_now() {
            Ok(s) => (
                status::OK,
                format!(
                    "kind={} id={} records={} bytes={} duration_us={} quiesce_us={}",
                    s.kind,
                    s.id,
                    s.records,
                    s.bytes,
                    s.duration.as_micros(),
                    s.quiesce.as_micros()
                )
                .into_bytes(),
            ),
            Err(e) => (status::ERR, format!("checkpoint failed: {e}").into_bytes()),
        }),
        verb::STATS => Ok((status::OK, stats_text(db).into_bytes())),
        other => Err(WireError(match other {
            0x07..=0x0f => "unassigned data verb",
            _ => "unknown verb",
        })),
    }
}

/// Maps a durable execution to a wire response. `OK` is sent only after
/// the commit's batch fsync — the ack-after-fsync guarantee.
fn durable_outcome(result: Result<TxnOutcome, SyncError>) -> (u8, Vec<u8>) {
    match result {
        Ok(TxnOutcome::Committed(seq)) => (status::OK, Frame::new().u64(seq.0).finish()),
        Ok(TxnOutcome::Aborted(reason)) => (status::ABORTED, reason.to_string().into_bytes()),
        // Committed in memory but durability unconfirmed: the client must
        // treat the write as possibly-lost, so it is NOT an OK.
        Err(e) => (status::ERR, format!("durability unconfirmed: {e}").into_bytes()),
    }
}

/// `HEALTH` verb: [`Database::metric_values`], one `key=value` per line.
/// Names and formats come from the engine's metric table; nothing is
/// listed here.
fn health_text(db: &Database) -> String {
    db.metric_values()
        .iter()
        .map(|(name, value)| format!("{name}={value}\n"))
        .collect()
}

/// `STATS` verb: the published checkpoints, then the same list as
/// `HEALTH`. Listed from manifest documents only — a per-request deep
/// scan would re-CRC every part and rename files under the merger's GC.
fn stats_text(db: &Database) -> String {
    let mut out = String::new();
    for m in db.checkpoint_dir().manifests() {
        out.push_str(&format!(
            "checkpoint kind={} id={} records={} watermark={}\n",
            m.kind, m.id, m.records, m.watermark
        ));
    }
    out + &health_text(db)
}
