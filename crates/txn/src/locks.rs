//! `LockManager`: the old key-level lock table's interface, kept only
//! because perfbench's `txn.lock_pair_ns` probe names `new`, `acquire`
//! and `release`. It is a thin wrapper over [`calc_common::lockword`] and
//! measures nothing the engine runs: the engine locks a transaction's
//! keys in its store's slot-table lock words. It goes at the next
//! perfbench unfreeze.

use calc_common::lockword::LockWords;
use calc_common::types::Key;

pub use calc_common::lockword::LockMode;

/// A standalone array of lock words, addressed by key.
#[derive(Debug)]
pub struct LockManager {
    words: LockWords,
}

impl LockManager {
    /// A manager over `words` lock words (keys may share one).
    pub fn new(words: usize) -> Self {
        LockManager {
            words: LockWords::new(words),
        }
    }

    /// Locks every key of `request` ([`LockWords::lock_all`]) until the
    /// guard is dropped or [`LockSetGuard::release`]d.
    pub fn acquire(&self, request: &[(Key, LockMode)]) -> LockSetGuard<'_> {
        let mut set: Vec<_> = request
            .iter()
            .map(|&(key, mode)| (self.words.word_of(key.0), mode))
            .collect();
        // The guard below owns the sorted set and releases it.
        std::mem::forget(self.words.lock_all(&mut set));
        LockSetGuard {
            words: &self.words,
            set,
        }
    }
}

/// The words a [`LockManager::acquire`] holds; released on drop.
pub struct LockSetGuard<'a> {
    words: &'a LockWords,
    set: Vec<(u32, LockMode)>,
}

impl LockSetGuard<'_> {
    /// Releases every lock.
    pub fn release(self) {}
}

impl Drop for LockSetGuard<'_> {
    fn drop(&mut self) {
        for &(word, mode) in &self.set {
            self.words.unlock(word, mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn a_released_guard_lets_the_next_writer_in() {
        let mgr = Arc::new(LockManager::new(64));
        let g = mgr.acquire(&[(Key(5), LockMode::Exclusive), (Key(9), LockMode::Shared)]);
        let m2 = mgr.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let _g = m2.acquire(&[(Key(5), LockMode::Exclusive)]);
            tx.send(()).unwrap();
        });
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "X granted twice");
        g.release();
        rx.recv_timeout(Duration::from_secs(10)).expect("release did not wake the writer");
        h.join().unwrap();
        drop(mgr.acquire(&[(Key(5), LockMode::Exclusive), (Key(9), LockMode::Exclusive)]));
    }
}
