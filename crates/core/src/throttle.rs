//! A token-bucket byte throttle modelling bounded disk bandwidth.
//!
//! The paper's evaluation machine writes checkpoints to "a 160GB magnetic
//! disk that delivers approximately 100-150 MB/sec for sequential reads and
//! writes" (§4), and Appendix A notes that "the recording of a checkpoint
//! is limited by disk bandwidth in our system, \[so\] the time to complete a
//! checkpoint is a direct measure of total disk IO." Modern NVMe (or
//! tmpfs) would collapse the checkpoint windows the figures depend on, so
//! the checkpoint writer routes through this throttle, configured to the
//! paper's bandwidth by default and disableable for tests.

use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Token-bucket throttle. `None`-like behaviour (unlimited) when created
/// with [`Throttle::unlimited`].
pub struct Throttle {
    state: Option<Mutex<Bucket>>,
    bytes_per_sec: u64,
}

struct Bucket {
    available: f64,
    capacity: f64,
    last_refill: Instant,
}

impl Throttle {
    /// A throttle at `bytes_per_sec` (burst capacity: 50 ms worth).
    pub fn new(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "use Throttle::unlimited for no limit");
        let capacity = (bytes_per_sec as f64 * 0.05).max(64.0 * 1024.0);
        Throttle {
            state: Some(Mutex::new(Bucket {
                available: capacity,
                capacity,
                last_refill: Instant::now(),
            })),
            bytes_per_sec,
        }
    }

    /// No throttling.
    pub fn unlimited() -> Self {
        Throttle {
            state: None,
            bytes_per_sec: 0,
        }
    }

    /// Configured rate (0 = unlimited).
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Blocks until `n` bytes of budget are available, then consumes them.
    /// Requests larger than the burst capacity are paid off incrementally.
    pub fn consume(&self, n: usize) {
        let Some(state) = &self.state else { return };
        let mut owed = n as f64;
        loop {
            let wait = {
                let mut b = state.lock();
                let now = Instant::now();
                let elapsed = now.duration_since(b.last_refill).as_secs_f64();
                b.last_refill = now;
                b.available = (b.available + elapsed * self.bytes_per_sec as f64).min(b.capacity);
                if b.available >= owed {
                    b.available -= owed;
                    return;
                }
                // Drain what is there and compute how long the rest takes.
                owed -= b.available;
                b.available = 0.0;
                Duration::from_secs_f64((owed.min(b.capacity)) / self.bytes_per_sec as f64)
            };
            std::thread::sleep(wait);
        }
    }
}

impl std::fmt::Debug for Throttle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.state.is_none() {
            write!(f, "Throttle(unlimited)")
        } else {
            write!(f, "Throttle({} B/s)", self.bytes_per_sec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_blocks() {
        let t = Throttle::unlimited();
        let start = Instant::now();
        for _ in 0..1000 {
            t.consume(1 << 20);
        }
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(t.bytes_per_sec(), 0);
    }

    #[test]
    fn limited_rate_is_enforced() {
        // 10 MB/s; push 2 MB; should take ~200 ms (burst credit shaves a
        // little).
        let t = Throttle::new(10 * 1024 * 1024);
        let start = Instant::now();
        for _ in 0..32 {
            t.consume(64 * 1024);
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(100),
            "finished too fast: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(600),
            "throttle too slow: {elapsed:?}"
        );
    }

    #[test]
    fn oversized_request_completes() {
        // A single request bigger than burst capacity must still finish.
        let t = Throttle::new(50 * 1024 * 1024);
        let start = Instant::now();
        t.consume(5 * 1024 * 1024);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(50), "{elapsed:?}");
        assert!(elapsed < Duration::from_millis(500), "{elapsed:?}");
    }
}
