//! Seeded schedule perturbation for concurrency stress tests.
//!
//! The interesting concurrency bugs in a checkpointing engine live in
//! windows a few instructions wide: between a lock grant and the first
//! read, between a live write and its stable-version install, between a
//! phase-transition token and the commits racing past it. Wall-clock
//! scheduling almost never lands a thread inside those windows, so a
//! stress test that merely "runs a lot of threads" explores a tiny,
//! repetitive corner of the interleaving space.
//!
//! This module plants cheap *jitter points* at those windows. When
//! disabled (the default, and the only state production code ever sees)
//! a point is one relaxed atomic load and a predicted-untaken branch.
//! When a conformance test enables perturbation with a seed, each point
//! consults a per-thread splitmix64 stream — keyed off the global seed,
//! a per-thread salt, the site, and a per-thread visit counter — and
//! either does nothing, spins, yields, or briefly sleeps. The *decision
//! sequence* is a pure function of the seed, so a failing run's schedule
//! pressure is reproducible by seed even though the OS scheduler still
//! has the final word on interleaving.
//!
//! The global enable/seed state is process-wide; test harnesses that use
//! it must serialize runs (see `calc-conform`).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
/// Monotone id source for per-thread salts.
static NEXT_THREAD_SALT: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_SALT: Cell<u64> = const { Cell::new(0) };
    static VISITS: Cell<u64> = const { Cell::new(0) };
}

/// A place in the engine where schedule jitter may be injected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Site {
    /// Just after a lock word is granted, before the new holder takes
    /// the next word of its set.
    LockGrant,
    /// Just before a lock word is released (and its waiters granted).
    LockRelease,
    /// Just before a live→stable version copy is installed in the dual
    /// store.
    StableInstall,
    /// Just after a checkpoint phase-transition token is appended.
    PhaseTransition,
}

impl Site {
    #[inline]
    fn salt(self) -> u64 {
        match self {
            Site::LockGrant => 0x9e37_79b9_0000_0001,
            Site::LockRelease => 0x9e37_79b9_0000_0002,
            Site::StableInstall => 0x9e37_79b9_0000_0003,
            Site::PhaseTransition => 0x9e37_79b9_0000_0004,
        }
    }
}

/// Enables perturbation process-wide with the given seed.
pub fn enable(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables perturbation process-wide.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether perturbation is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A jitter point. Call this at a scheduling-sensitive site; it is free
/// (one relaxed load) unless a test has called [`enable`].
#[inline]
pub fn point(site: Site) {
    if ENABLED.load(Ordering::Relaxed) {
        jitter(site);
    }
}

#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cold]
fn jitter(site: Site) {
    let salt = THREAD_SALT.with(|s| {
        if s.get() == 0 {
            s.set(NEXT_THREAD_SALT.fetch_add(1, Ordering::Relaxed));
        }
        s.get()
    });
    let visit = VISITS.with(|v| {
        let n = v.get();
        v.set(n.wrapping_add(1));
        n
    });
    let h = mix(
        SEED.load(Ordering::Relaxed)
            ^ site.salt()
            ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93)
            ^ visit.rotate_left(32),
    );
    // 1/4 yield, 1/8 spin ≤ 256 iterations, 1/32 sleep ≤ 100 µs; the rest
    // fall through untouched. The mix keeps the pressure high enough to
    // shuffle interleavings without collapsing throughput.
    match h & 0x1f {
        0..=7 => std::thread::yield_now(),
        8..=11 => {
            let spins = (h >> 8) & 0xff;
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
        12 => {
            let micros = (h >> 8) % 100;
            std::thread::sleep(std::time::Duration::from_micros(micros));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_are_noops() {
        assert!(!is_enabled());
        for _ in 0..1000 {
            point(Site::LockGrant);
            point(Site::StableInstall);
        }
    }

    #[test]
    fn enable_disable_roundtrip() {
        enable(42);
        assert!(is_enabled());
        for _ in 0..200 {
            point(Site::PhaseTransition);
            point(Site::LockRelease);
        }
        disable();
        assert!(!is_enabled());
    }
}
