//! Cheap load signals and admission control.
//!
//! [`LoadSignal`] is a lock-free bundle of gauges and counters (in-flight
//! requests, shed counts, capture yields, the last admission-pressure
//! event) that the server's admission gate and the checkpoint capture
//! path feed. The commit path feeds nothing: commit throughput and
//! latency are counted once, in the engine's `Metrics`.
//! Everything is a relaxed atomic: observations are a handful of
//! instructions, readers never block writers, and a lost update under a
//! race only blurs a signal that is approximate by design.
//!
//! [`Gate`] is the admission-control half: a bounded in-flight permit
//! counter with deadline-bounded acquisition. A request that cannot get a
//! permit before its queue deadline is *shed* — the caller answers
//! "busy" instead of queueing without bound — and the shed is counted on
//! the shared signal so operators and the checkpoint pacer see the
//! pressure.
//!
//! The derived [`LoadLevel`] has one source, the gate: recent pressure
//! reads as overload, otherwise held permits are graded against the
//! gate's capacity. It is what adaptive checkpoint pacing consults:
//! capture workers reduce effective parallelism and yield their scan
//! quanta under [`LoadLevel::High`] and [`LoadLevel::Overload`] so
//! checkpointing costs bounded foreground throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Sentinel for "never recorded" in nanosecond slots.
const NEVER: u64 = u64::MAX;

/// How long after the last admission-pressure event (a shed, or a waiter
/// blocked on a full gate) the signal still reports [`LoadLevel::Overload`].
const PRESSURE_HOLD: Duration = Duration::from_secs(1);

/// Coarse load bands derived from the signal — what the checkpoint pacer
/// and operators consume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadLevel {
    /// No traffic worth pacing around.
    Idle,
    /// Traffic well inside capacity.
    Normal,
    /// Approaching capacity: background work should start yielding.
    High,
    /// At or beyond capacity (or actively shedding): background work
    /// should get out of the way.
    Overload,
}

impl LoadLevel {
    /// Stable lowercase name (used by the HEALTH wire verb).
    pub fn as_str(self) -> &'static str {
        match self {
            LoadLevel::Idle => "idle",
            LoadLevel::Normal => "normal",
            LoadLevel::High => "high",
            LoadLevel::Overload => "overload",
        }
    }
}

impl std::fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shared load signal: an in-flight gauge and a pressure mark fed from
/// the admission gate, and shed/yield counters. See the module docs for
/// the accuracy contract (approximate, race-tolerant, never blocking).
pub struct LoadSignal {
    started: Instant,
    /// Requests currently inside the admission gate.
    inflight: AtomicU64,
    /// The gate's permit capacity (0 = unbounded), which the in-flight
    /// gauge is graded against.
    inflight_capacity: AtomicU64,
    /// Requests shed by the admission gate (deadline expired).
    shed_requests: AtomicU64,
    /// Connections rejected by the connection cap.
    shed_connections: AtomicU64,
    /// Scan quanta the checkpoint capture path yielded under pressure.
    capture_yields: AtomicU64,
    /// Nanos-since-start of the last admission-pressure event.
    last_pressure_nanos: AtomicU64,
}

impl Default for LoadSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadSignal {
    /// Fresh signal: no gate attached, nothing in flight, no pressure.
    pub fn new() -> Self {
        LoadSignal {
            started: Instant::now(),
            inflight: AtomicU64::new(0),
            inflight_capacity: AtomicU64::new(0),
            shed_requests: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            capture_yields: AtomicU64::new(0),
            last_pressure_nanos: AtomicU64::new(NEVER),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos().min((NEVER - 1) as u128) as u64
    }

    /// Sets the admission gate's permit capacity (0 = unbounded), which
    /// [`LoadSignal::level`] grades the in-flight gauge against.
    /// [`Gate::new`] calls this.
    pub fn set_inflight_capacity(&self, cap: u64) {
        self.inflight_capacity.store(cap, Ordering::Relaxed);
    }

    /// A request entered the admission gate.
    pub fn enter_inflight(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// A request left the admission gate.
    pub fn exit_inflight(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently in flight.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// The admission gate shed a request (queue deadline expired).
    pub fn record_shed_request(&self) {
        self.shed_requests.fetch_add(1, Ordering::Relaxed);
        self.note_pressure();
    }

    /// Requests shed by the admission gate, lifetime total.
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests.load(Ordering::Relaxed)
    }

    /// The connection cap rejected a connect.
    pub fn record_shed_connection(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
        self.note_pressure();
    }

    /// Connections rejected by the cap, lifetime total.
    pub fn shed_connections(&self) -> u64 {
        self.shed_connections.load(Ordering::Relaxed)
    }

    /// A checkpoint capture worker yielded one scan quantum to foreground
    /// load.
    pub fn record_capture_yield(&self) {
        self.capture_yields.fetch_add(1, Ordering::Relaxed);
    }

    /// Capture scan quanta yielded under pressure, lifetime total.
    pub fn capture_yields(&self) -> u64 {
        self.capture_yields.load(Ordering::Relaxed)
    }

    /// Marks admission pressure now (a waiter blocked on a full gate or a
    /// shed); the level reads [`LoadLevel::Overload`] for a short hold
    /// window afterwards.
    pub fn note_pressure(&self) {
        self.last_pressure_nanos
            .store(self.now_nanos(), Ordering::Relaxed);
    }

    fn recent_pressure(&self) -> bool {
        match self.last_pressure_nanos.load(Ordering::Relaxed) {
            NEVER => false,
            n => self.now_nanos().saturating_sub(n) <= PRESSURE_HOLD.as_nanos() as u64,
        }
    }

    /// Derives the coarse load band: admission pressure (recent sheds or
    /// blocked waiters) always reads as overload; otherwise the in-flight
    /// gauge is graded against the gate's permit capacity (all permits
    /// held is overload, half is high), or, for an unbounded gate, reads
    /// normal while anything is in flight.
    pub fn level(&self) -> LoadLevel {
        if self.recent_pressure() {
            return LoadLevel::Overload;
        }
        let cap = self.inflight_capacity.load(Ordering::Relaxed);
        let inflight = self.inflight();
        if cap > 0 {
            if inflight >= cap {
                LoadLevel::Overload
            } else if inflight * 2 >= cap {
                LoadLevel::High
            } else if inflight > 0 {
                LoadLevel::Normal
            } else {
                LoadLevel::Idle
            }
        } else if inflight > 0 {
            LoadLevel::Normal
        } else {
            LoadLevel::Idle
        }
    }
}

impl std::fmt::Debug for LoadSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LoadSignal(level={}, inflight={}, shed={})",
            self.level(),
            self.inflight(),
            self.shed_requests(),
        )
    }
}

/// Bounded in-flight admission gate with deadline-bounded acquisition.
/// `max = 0` means unbounded (the gate only maintains the in-flight
/// gauge). Dropping the returned [`Permit`] releases the slot.
pub struct Gate {
    max: usize,
    held: Mutex<usize>,
    freed: Condvar,
    signal: Arc<LoadSignal>,
}

impl Gate {
    /// A gate admitting at most `max` concurrent holders (0 = unbounded),
    /// publishing its gauge and shed counter on `signal`.
    pub fn new(max: usize, signal: Arc<LoadSignal>) -> Arc<Gate> {
        signal.set_inflight_capacity(max as u64);
        Arc::new(Gate {
            max,
            held: Mutex::new(0),
            freed: Condvar::new(),
            signal,
        })
    }

    /// Acquires a permit, waiting at most `deadline` for a slot. `None`
    /// means the request was shed (counted on the signal): answer busy,
    /// do not execute.
    pub fn try_acquire_for(self: &Arc<Self>, deadline: Duration) -> Option<Permit> {
        if self.max == 0 {
            self.signal.enter_inflight();
            return Some(Permit { gate: self.clone() });
        }
        let until = Instant::now() + deadline;
        let mut held = self.held.lock();
        while *held >= self.max {
            self.signal.note_pressure();
            let now = Instant::now();
            if now >= until {
                drop(held);
                self.signal.record_shed_request();
                return None;
            }
            self.freed.wait_for(&mut held, until - now);
        }
        *held += 1;
        drop(held);
        self.signal.enter_inflight();
        Some(Permit { gate: self.clone() })
    }

    /// The permit capacity (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.max
    }

    /// Permits currently held.
    pub fn held(&self) -> usize {
        if self.max == 0 {
            self.signal.inflight() as usize
        } else {
            *self.held.lock()
        }
    }
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gate({}/{})", self.held(), self.max)
    }
}

/// One admitted request's slot in a [`Gate`]; dropping it frees the slot
/// and wakes one waiter.
pub struct Permit {
    gate: Arc<Gate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.signal.exit_inflight();
        if self.gate.max != 0 {
            let mut held = self.gate.held.lock();
            *held = held.saturating_sub(1);
            drop(held);
            self.gate.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inflight_ratio_derivation_without_capacity() {
        let signal = Arc::new(LoadSignal::new());
        let gate = Gate::new(4, signal.clone());
        assert_eq!(signal.level(), LoadLevel::Idle);
        let p1 = gate.try_acquire_for(Duration::from_millis(10)).unwrap();
        assert_eq!(signal.level(), LoadLevel::Normal);
        let _p2 = gate.try_acquire_for(Duration::from_millis(10)).unwrap();
        let _p3 = gate.try_acquire_for(Duration::from_millis(10)).unwrap();
        assert_eq!(signal.level(), LoadLevel::High, "3/4 permits is high");
        drop(p1);
        assert_eq!(signal.inflight(), 2);
    }

    #[test]
    fn gate_sheds_on_deadline_and_releases_on_drop() {
        let signal = Arc::new(LoadSignal::new());
        let gate = Gate::new(2, signal.clone());
        let p1 = gate.try_acquire_for(Duration::from_millis(5)).unwrap();
        let _p2 = gate.try_acquire_for(Duration::from_millis(5)).unwrap();
        assert_eq!(signal.inflight(), 2);
        // Full gate: the third acquisition must shed within its deadline.
        let t = Instant::now();
        assert!(gate.try_acquire_for(Duration::from_millis(20)).is_none());
        assert!(t.elapsed() >= Duration::from_millis(18));
        assert_eq!(signal.shed_requests(), 1);
        assert_eq!(
            signal.level(),
            LoadLevel::Overload,
            "a shed marks admission pressure"
        );
        // A freed permit admits a blocked waiter.
        let gate2 = gate.clone();
        let waiter = std::thread::spawn(move || {
            gate2.try_acquire_for(Duration::from_secs(10)).is_some()
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(p1);
        assert!(waiter.join().unwrap(), "freed slot must admit the waiter");
        assert_eq!(signal.shed_requests(), 1, "the admitted waiter is not a shed");
    }

    #[test]
    fn unbounded_gate_only_tracks_inflight() {
        let signal = Arc::new(LoadSignal::new());
        let gate = Gate::new(0, signal.clone());
        let permits: Vec<_> = (0..64)
            .map(|_| gate.try_acquire_for(Duration::ZERO).unwrap())
            .collect();
        assert_eq!(signal.inflight(), 64);
        drop(permits);
        assert_eq!(signal.inflight(), 0);
        assert_eq!(signal.shed_requests(), 0);
    }

    #[test]
    fn capture_yield_and_shed_connection_counters() {
        let s = LoadSignal::new();
        s.record_capture_yield();
        s.record_capture_yield();
        s.record_shed_connection();
        assert_eq!(s.capture_yields(), 2);
        assert_eq!(s.shed_connections(), 1);
        assert_eq!(s.level(), LoadLevel::Overload, "connection shed is pressure");
    }
}
