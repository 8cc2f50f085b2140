//! Transaction lock words for the deadlock-free ordered 2PL of §4: one
//! 32-bit word per slot of a store's slot table, a shared count plus an
//! exclusive bit, granted and released by one CAS when uncontended. A
//! conflict sets the word's queued bit and parks the requester in a FIFO
//! (one of [`QUEUES`] mutex + condvar pairs). While the bit is set every
//! request queues, so readers cannot starve a writer; a release grants the
//! head, with the shared requests right behind a shared head, as a batch.
//!
//! A key's word is [`LockWords::word_of`], the key hashed onto the array —
//! not the slot the key occupies — so it never moves: not when the key is
//! inserted, deleted or relinked, nor when its freed slot goes to another
//! key while a transaction waits on the word. The executor therefore
//! locks a transaction's whole footprint before it runs, in word order
//! ([`LockWords::lock_all`]), so an executing transaction never waits on
//! a lock, and then resolves each key to its slot once, under the lock,
//! with nothing to re-check. Two keys sharing a word is a false conflict,
//! never a wrong answer.

use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::{Condvar, Mutex};

/// Lock modes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

/// The exclusive bit; the bits below it count shared holders.
const EXCLUSIVE: u32 = 1 << 30;
/// Set while the word has waiters: new requests queue behind them.
const QUEUED: u32 = 1 << 31;
/// Waiter queues per [`LockWords`], picked by word index.
pub const QUEUES: usize = 64;

impl LockMode {
    /// What a grant adds to a word.
    fn grant(self) -> u32 {
        match self {
            LockMode::Shared => 1,
            LockMode::Exclusive => EXCLUSIVE,
        }
    }

    /// Whether a grant fits beside the holders `word` records.
    fn fits(self, word: u32) -> bool {
        match self {
            LockMode::Shared => word & EXCLUSIVE == 0,
            LockMode::Exclusive => word & !QUEUED == 0,
        }
    }
}

/// One FIFO of waiters, shared by the words whose index picks it.
#[derive(Default)]
struct Queue {
    waiting: Mutex<Waiting>,
    granted: Condvar,
}

/// `(word, ticket, mode)` in arrival order, and the next ticket. A
/// waiter is granted when a releaser removes its entry.
#[derive(Default)]
struct Waiting {
    next: u64,
    fifo: Vec<(u32, u64, LockMode)>,
}

/// An array of lock words. See module docs.
pub struct LockWords {
    words: Box<[AtomicU32]>,
    queues: Box<[Queue]>,
}

impl LockWords {
    /// `n` idle words (at least one).
    pub fn new(n: usize) -> Self {
        LockWords {
            words: (0..n.max(1)).map(|_| AtomicU32::new(0)).collect(),
            queues: (0..QUEUES).map(|_| Queue::default()).collect(),
        }
    }

    /// The word of `key`: a multiplicative hash scaled onto the array.
    #[inline]
    pub fn word_of(&self, key: u64) -> u32 {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((u128::from(h) * self.words.len() as u128) >> 64) as u32
    }

    /// Starts loading `word`'s cache line.
    #[inline]
    pub fn prefetch(&self, word: u32) {
        crate::prefetch::line(&self.words[word as usize]);
    }

    /// A grant by one CAS, unless `word` conflicts or has waiters.
    fn try_fast(&self, word: u32, mode: LockMode) -> bool {
        let w = &self.words[word as usize];
        let mut cur = w.load(Ordering::Relaxed);
        while cur & QUEUED == 0 && mode.fits(cur) {
            let next = cur + mode.grant();
            match w.compare_exchange_weak(cur, next, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }

    /// Locks `word` in `mode`, in FIFO order behind earlier waiters.
    pub fn lock(&self, word: u32, mode: LockMode) {
        if self.try_fast(word, mode) {
            return;
        }
        let queue = &self.queues[word as usize % QUEUES];
        let mut waiting = queue.waiting.lock();
        // Under this mutex no one else sets or clears `word`'s QUEUED.
        if self.try_fast(word, mode) {
            return;
        }
        self.words[word as usize].fetch_or(QUEUED, Ordering::Relaxed);
        let ticket = waiting.next;
        waiting.next += 1;
        waiting.fifo.push((word, ticket, mode));
        // The holders may have left between the failed CAS and the bit.
        self.grant(word, queue, &mut waiting.fifo);
        while waiting.fifo.iter().any(|&(_, t, _)| t == ticket) {
            queue.granted.wait(&mut waiting);
        }
    }

    /// Releases one `mode` hold on `word`, granting its waiters if this
    /// was the last holder in their way.
    pub fn unlock(&self, word: u32, mode: LockMode) {
        let w = &self.words[word as usize];
        let blocked = match mode {
            LockMode::Shared => w.fetch_sub(1, Ordering::Release) == QUEUED | 1,
            LockMode::Exclusive => w
                .compare_exchange(EXCLUSIVE, 0, Ordering::Release, Ordering::Relaxed)
                .is_err(),
        };
        if blocked {
            let queue = &self.queues[word as usize % QUEUES];
            let mut waiting = queue.waiting.lock();
            if mode == LockMode::Exclusive {
                w.fetch_and(!EXCLUSIVE, Ordering::Release);
            }
            self.grant(word, queue, &mut waiting.fifo);
        }
    }

    /// Grants `word`'s waiters from the head of the FIFO while each fits,
    /// and clears QUEUED if none is left. Under the queue's mutex; with
    /// QUEUED set only releases race it.
    fn grant(&self, word: u32, queue: &Queue, fifo: &mut Vec<(u32, u64, LockMode)>) {
        let w = &self.words[word as usize];
        let (mut i, mut granted) = (0, false);
        while let Some(&(of, _, mode)) = fifo.get(i) {
            if of != word {
                i += 1;
            } else if mode.fits(w.load(Ordering::Acquire)) {
                w.fetch_add(mode.grant(), Ordering::Acquire);
                fifo.remove(i);
                granted = true;
            } else {
                break;
            }
        }
        if !fifo.iter().any(|&(of, _, _)| of == word) {
            w.fetch_and(!QUEUED, Ordering::Relaxed);
        }
        if granted {
            queue.granted.notify_all();
        }
    }

    /// Sorts `set` by word, keeps the strongest mode per word and locks
    /// the words in that order — the one total order every transaction
    /// follows, so no wait cycle can form. The guard releases them.
    pub fn lock_all<'a>(&'a self, set: &'a mut Vec<(u32, LockMode)>) -> Locked<'a> {
        // Exclusive sorts before Shared for one word; dedup keeps it.
        set.sort_unstable_by_key(|&(w, m)| (w, m == LockMode::Shared));
        set.dedup_by_key(|&mut (w, _)| w);
        #[cfg(feature = "mutation-hooks")]
        if crate::mutation::armed(crate::mutation::Mutation::SkipLock) {
            // Seeded bug: grant everything shared. Writers stop excluding
            // each other and hot-key RMW chains lose updates.
            set.iter_mut().for_each(|l| l.1 = LockMode::Shared);
        }
        for &(word, mode) in set.iter() {
            self.lock(word, mode);
            crate::perturb::point(crate::perturb::Site::LockGrant);
        }
        Locked { words: self, set }
    }

    /// Whether no word is held or waited on.
    pub fn all_idle(&self) -> bool {
        self.words.iter().all(|w| w.load(Ordering::Acquire) == 0)
    }
}

impl std::fmt::Debug for LockWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LockWords({})", self.words.len())
    }
}

/// A set held through [`LockWords::lock_all`]; dropping it releases
/// every word, also when the holder unwinds from a panic.
pub struct Locked<'a> {
    words: &'a LockWords,
    /// The sorted, deduplicated words held.
    set: &'a [(u32, LockMode)],
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        for &(word, mode) in self.set {
            crate::perturb::point(crate::perturb::Site::LockRelease);
            self.words.unlock(word, mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};
    use std::sync::Arc;
    use std::time::Duration;

    use LockMode::{Exclusive, Shared};

    /// Locks `set` on a thread of its own, records `tag` at grant time,
    /// holds for `hold` and releases.
    fn locker(
        words: &Arc<LockWords>,
        order: &Arc<Mutex<Vec<&'static str>>>,
        set: Vec<(u32, LockMode)>,
        tag: &'static str,
        hold: Duration,
    ) -> std::thread::JoinHandle<()> {
        let (words, order) = (words.clone(), order.clone());
        std::thread::spawn(move || {
            let mut set = set;
            let _held = words.lock_all(&mut set);
            order.lock().push(tag);
            std::thread::sleep(hold);
        })
    }

    #[test]
    fn exclusive_locks_serialize_increments() {
        // A load-then-store increment loses updates unless the word
        // excludes the other writers.
        let words = Arc::new(LockWords::new(16));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (words, counter) = (words.clone(), counter.clone());
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        let mut set = vec![(3, Exclusive)];
                        let _held = words.lock_all(&mut set);
                        let v = counter.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        counter.store(v + 1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 16_000);
        assert!(words.all_idle());
    }

    #[test]
    fn shared_locks_are_concurrent() {
        let words = Arc::new(LockWords::new(4));
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (words, concurrent, peak) = (words.clone(), concurrent.clone(), peak.clone());
                std::thread::spawn(move || {
                    let mut set = vec![(1, Shared)];
                    let _held = words.lock_all(&mut set);
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) >= 2, "shared locks never overlapped");
        assert!(words.all_idle());
    }

    #[test]
    fn exclusive_blocks_shared() {
        let words = Arc::new(LockWords::new(4));
        let mut set = vec![(2, Exclusive)];
        let held = words.lock_all(&mut set);
        let order = Arc::new(Mutex::new(Vec::new()));
        let reader = locker(&words, &order, vec![(2, Shared)], "reader", Duration::ZERO);
        std::thread::sleep(Duration::from_millis(50));
        assert!(order.lock().is_empty(), "reader ran under the X lock");
        drop(held);
        reader.join().unwrap();
        assert_eq!(order.lock().as_slice(), &["reader"]);
        assert!(words.all_idle());
    }

    #[test]
    fn writer_not_starved_by_readers() {
        // A reader holds S; a writer queues; a second reader arriving
        // after the writer waits behind it (FIFO), so the writer runs.
        let words = Arc::new(LockWords::new(4));
        let mut set = vec![(1, Shared)];
        let r1 = words.lock_all(&mut set);
        let order = Arc::new(Mutex::new(Vec::new()));
        let writer = locker(&words, &order, vec![(1, Exclusive)], "writer", Duration::ZERO);
        std::thread::sleep(Duration::from_millis(30));
        let reader2 = locker(&words, &order, vec![(1, Shared)], "reader2", Duration::ZERO);
        std::thread::sleep(Duration::from_millis(30));
        drop(r1);
        writer.join().unwrap();
        reader2.join().unwrap();
        assert_eq!(order.lock().as_slice(), &["writer", "reader2"]);
        assert!(words.all_idle());
    }

    #[test]
    fn duplicate_words_deduplicated_with_strongest_mode() {
        let words = LockWords::new(4);
        let mut set = vec![(1, Shared), (1, Exclusive), (1, Shared)];
        let held = words.lock_all(&mut set);
        assert_eq!(held.set, &[(1, Exclusive)]);
        drop(held);
        assert!(words.all_idle());
    }

    #[test]
    fn overlapping_multi_word_sets_sorted_and_deduped() {
        let words = Arc::new(LockWords::new(64));
        let mut set = vec![
            (30, Shared),
            (10, Exclusive),
            (20, Shared),
            (30, Exclusive),
            (10, Shared),
            (20, Shared),
        ];
        let held = words.lock_all(&mut set);
        assert_eq!(held.set, &[(10, Exclusive), (20, Shared), (30, Exclusive)]);
        // An overlapping set from another thread must not deadlock
        // against us and blocks only on the conflicting words.
        let w2 = words.clone();
        let h = std::thread::spawn(move || {
            let mut set = vec![(20, Exclusive), (30, Shared), (20, Shared)];
            let held = w2.lock_all(&mut set);
            assert_eq!(held.set, &[(20, Exclusive), (30, Shared)]);
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        h.join().unwrap();
        assert!(words.all_idle());
    }

    #[test]
    fn no_deadlock_under_random_multi_word_contention() {
        // 8 threads lock random 5-word sets over 10 words; ordered
        // acquisition must prevent deadlock — finishing is the assertion.
        use crate::rng::SplitMix;
        let words = Arc::new(LockWords::new(10));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let words = words.clone();
                std::thread::spawn(move || {
                    let mut rng = SplitMix::new(t);
                    for _ in 0..500 {
                        let mut set: Vec<(u32, LockMode)> = (0..5)
                            .map(|_| {
                                let mode = if rng.chance(0.5) { Exclusive } else { Shared };
                                (rng.next_below(10) as u32, mode)
                            })
                            .collect();
                        let held = words.lock_all(&mut set);
                        std::hint::black_box(held.set);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(words.all_idle());
    }

    #[test]
    fn guard_drop_releases_even_on_unwind() {
        let words = Arc::new(LockWords::new(2));
        {
            let mut set = vec![(1, Exclusive)];
            let _held = words.lock_all(&mut set);
            assert!(!words.all_idle());
        }
        assert!(words.all_idle());
        let w2 = words.clone();
        let panicked = std::thread::spawn(move || {
            let mut set = vec![(0, Exclusive), (1, Shared)];
            let _held = w2.lock_all(&mut set);
            panic!("procedure failed while holding its locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(words.all_idle(), "an unwinding holder leaked its words");
    }

    #[test]
    fn fifo_grant_order_matches_arrival_order() {
        // The holder has X. Queue, in arrival order: W1(X), R1(S), W2(X),
        // R2(S). Grants must follow exactly that order.
        let words = Arc::new(LockWords::new(8));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut set = vec![(7, Exclusive)];
        let holder = words.lock_all(&mut set);
        let hold = Duration::from_millis(10);
        let mut handles = Vec::new();
        for (mode, tag) in [(Exclusive, "W1"), (Shared, "R1"), (Exclusive, "W2"), (Shared, "R2")] {
            handles.push(locker(&words, &order, vec![(7, mode)], tag, hold));
            // Each request is queued before the next arrives.
            std::thread::sleep(Duration::from_millis(40));
        }
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(order.lock().as_slice(), &["W1", "R1", "W2", "R2"]);
        assert!(words.all_idle());
    }

    #[test]
    fn consecutive_shared_waiters_granted_as_a_batch() {
        // The holder has X; three readers queue behind it. On release all
        // three are granted together (their holds overlap).
        let words = Arc::new(LockWords::new(16));
        let mut set = vec![(11, Exclusive)];
        let holder = words.lock_all(&mut set);
        let concurrent = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (words, concurrent, peak) = (words.clone(), concurrent.clone(), peak.clone());
                std::thread::spawn(move || {
                    let mut set = vec![(11, Shared)];
                    let _held = words.lock_all(&mut set);
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(50));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(60));
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak >= 2, "queued readers were granted one at a time (peak {peak})");
        assert!(words.all_idle());
    }

    #[test]
    fn writer_acquires_under_continuous_read_storm() {
        // Four readers re-lock S on one word in a tight loop; a writer
        // arriving mid-storm must get through promptly.
        let words = Arc::new(LockWords::new(16));
        let stop = Arc::new(AtomicUsize::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let (words, stop) = (words.clone(), stop.clone());
                std::thread::spawn(move || {
                    let mut grants = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let mut set = vec![(13, Shared)];
                        let held = words.lock_all(&mut set);
                        std::hint::black_box(held.set);
                        grants += 1;
                    }
                    grants
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        let start = std::time::Instant::now();
        let mut set = vec![(13, Exclusive)];
        drop(words.lock_all(&mut set));
        let waited = start.elapsed();
        stop.store(1, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0);
        assert!(waited < Duration::from_secs(5), "writer starved for {waited:?}");
        assert!(words.all_idle());
    }

    #[test]
    fn keys_spread_over_the_words() {
        let words = LockWords::new(1000);
        let mut hits = vec![0u32; 1000];
        for key in 0..100_000u64 {
            hits[words.word_of(key) as usize] += 1;
        }
        assert!(hits.iter().all(|&n| (50..=150).contains(&n)), "{hits:?}");
    }
}
