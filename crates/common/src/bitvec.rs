//! Atomic bit vectors, including the polarity-swapping variant used for
//! CALC's `stable_status` vector.
//!
//! The paper (§2.2.5) observes that after a capture phase completes, every
//! `stable_status` bit has been driven to *available*, but the next rest
//! phase wants every bit to read *not available*. Rather than scanning the
//! whole vector to reset it, CALC swaps the **meaning** of the 0/1 values:
//! in one checkpoint cycle `available` maps to 1, in the next it maps
//! to 0. [`PolarityBitVec`] implements exactly that.

use std::sync::atomic::{AtomicU64, Ordering};

const BITS: usize = 64;

/// A fixed-capacity bit vector with atomic per-bit operations.
///
/// All operations use `SeqCst`-free orderings: individual bits are
/// independent flags, so `AcqRel`/`Acquire` on the containing word is
/// sufficient for the protocols built on top (the surrounding store always
/// pairs bit flips with striped-mutex-protected version updates).
pub struct AtomicBitVec {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl AtomicBitVec {
    /// Creates a vector of `len` bits, all initially 0.
    pub fn new(len: usize) -> Self {
        let n_words = len.div_ceil(BITS);
        let words = (0..n_words).map(|_| AtomicU64::new(0)).collect();
        AtomicBitVec { words, len }
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn locate(&self, idx: usize) -> (&AtomicU64, u64) {
        debug_assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (&self.words[idx / BITS], 1u64 << (idx % BITS))
    }

    /// Reads bit `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        let (word, mask) = self.locate(idx);
        word.load(Ordering::Acquire) & mask != 0
    }

    /// Sets bit `idx` to `value`, returning the previous value. A bit that
    /// already holds `value` is only read: threads setting bits that share
    /// a line (a restart's lanes, workers re-dirtying hot records) then do
    /// not bounce it.
    #[inline]
    pub fn set(&self, idx: usize, value: bool) -> bool {
        let (word, mask) = self.locate(idx);
        if (word.load(Ordering::Acquire) & mask != 0) == value {
            return value;
        }
        let prev = if value {
            word.fetch_or(mask, Ordering::AcqRel)
        } else {
            word.fetch_and(!mask, Ordering::AcqRel)
        };
        prev & mask != 0
    }

    /// Clears every bit. This is the full scan that [`PolarityBitVec`]
    /// exists to avoid on the hot path; it is still used by the partial
    /// checkpointers to clear the *inactive* dirty vector during a
    /// checkpoint period (§2.3), off the critical path.
    pub fn clear_all(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Release);
        }
    }

    /// Sets every bit.
    pub fn set_all(&self) {
        // Bits beyond `len` in the last word are don't-cares.
        for w in self.words.iter() {
            w.store(u64::MAX, Ordering::Release);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        let mut total = 0usize;
        for (i, w) in self.words.iter().enumerate() {
            let mut v = w.load(Ordering::Acquire);
            if (i + 1) * BITS > self.len {
                let valid = self.len - i * BITS;
                if valid < BITS {
                    v &= (1u64 << valid) - 1;
                }
            }
            total += v.count_ones() as usize;
        }
        total
    }

    /// Iterates over the indices of set bits. The snapshot is per-word:
    /// concurrent mutation of other words is tolerated (the capture scan
    /// relies on this).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            let mut v = w.load(Ordering::Acquire);
            if (wi + 1) * BITS > self.len {
                let valid = self.len - wi * BITS;
                if valid < BITS {
                    v &= (1u64 << valid) - 1;
                }
            }
            std::iter::from_fn(move || {
                if v == 0 {
                    None
                } else {
                    let bit = v.trailing_zeros() as usize;
                    v &= v - 1;
                    Some(wi * BITS + bit)
                }
            })
        })
    }

    /// Overwrites this vector with the bitwise complement of `src`
    /// (word-at-a-time). Used by Zig-Zag's checkpoint start, which sets
    /// `MW[k] = ¬MR[k]` for every key at a physical point of consistency
    /// (the system is quiesced, so per-word atomicity suffices).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn store_inverted_from(&self, src: &AtomicBitVec) {
        assert_eq!(self.len, src.len, "bit vector length mismatch");
        for (dst, s) in self.words.iter().zip(src.words.iter()) {
            dst.store(!s.load(Ordering::Acquire), Ordering::Release);
        }
    }

    /// Memory footprint of the bit storage in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<AtomicU64>()
    }
}

impl std::fmt::Debug for AtomicBitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicBitVec(len={}, ones={})", self.len, self.count_ones())
    }
}

/// A bit vector with a global *polarity* bit that decides which raw value
/// means "marked".
///
/// `is_marked(i)` returns `raw_bit(i) == polarity`. Flipping the polarity
/// instantly inverts the interpretation of every bit — an O(1) replacement
/// for an O(n) reset scan, exactly the paper's
/// `SwapAvailableAndNotAvailable()` (§2.2.5).
///
/// Protocol requirement (upheld by CALC's capture phase): a polarity swap
/// may only happen at a moment when *every* bit reads "marked", so the swap
/// makes every bit read "unmarked" and no information is lost.
pub struct PolarityBitVec {
    bits: AtomicBitVec,
    /// Number of polarity swaps so far. The active polarity is derived
    /// from its parity (even = raw `true` means marked), so a swap and
    /// the generation bump are one atomic event — writers can bracket a
    /// mark/unmark with two [`PolarityBitVec::generation`] reads
    /// (seqlock-style) to detect a racing swap and redo the write under
    /// the new polarity.
    generation: AtomicU64,
}

impl PolarityBitVec {
    /// Creates a vector of `len` bits with all bits *unmarked*.
    pub fn new(len: usize) -> Self {
        // All raw bits are 0 and polarity starts at `true` (generation 0,
        // even parity), so nothing is marked.
        PolarityBitVec {
            bits: AtomicBitVec::new(len),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    #[inline]
    fn marked_value(&self) -> bool {
        self.generation.load(Ordering::Acquire) & 1 == 0
    }

    /// Current swap generation: bumped by exactly one on every
    /// [`PolarityBitVec::swap_polarity`]. Reading it before and after a
    /// mark/unmark (seqlock-style) tells a lock-free writer whether a swap
    /// reinterpreted the bit mid-write.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Whether bit `idx` is currently marked under the active polarity.
    #[inline]
    pub fn is_marked(&self, idx: usize) -> bool {
        self.bits.get(idx) == self.marked_value()
    }

    /// Marks bit `idx`. Returns `true` if this call transitioned it from
    /// unmarked to marked.
    #[inline]
    pub fn mark(&self, idx: usize) -> bool {
        let target = self.marked_value();
        self.bits.set(idx, target) != target
    }

    /// Unmarks bit `idx`. Returns `true` if this call transitioned it from
    /// marked to unmarked.
    #[inline]
    pub fn unmark(&self, idx: usize) -> bool {
        let target = self.marked_value();
        self.bits.set(idx, !target) == target
    }

    /// Flips the meaning of marked/unmarked in O(1).
    ///
    /// This is `SwapAvailableAndNotAvailable()`: if all bits currently read
    /// marked (as guaranteed at the end of a CALC capture phase), after the
    /// swap all bits read unmarked, with no scan.
    pub fn swap_polarity(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Number of marked bits (O(n); diagnostic / test use).
    pub fn count_marked(&self) -> usize {
        let ones = self.bits.count_ones();
        if self.marked_value() {
            ones
        } else {
            self.bits.len() - ones
        }
    }

    /// Memory footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.bits.heap_bytes()
    }
}

impl std::fmt::Debug for PolarityBitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PolarityBitVec(len={}, marked={})",
            self.len(),
            self.count_marked()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_get_roundtrip() {
        let bv = AtomicBitVec::new(130);
        assert_eq!(bv.len(), 130);
        assert!(!bv.get(0));
        assert!(!bv.set(0, true));
        assert!(bv.get(0));
        assert!(bv.set(0, false));
        assert!(!bv.get(0));
        // Bits across word boundaries.
        for idx in [63, 64, 65, 127, 128, 129] {
            bv.set(idx, true);
            assert!(bv.get(idx), "bit {idx}");
        }
        assert_eq!(bv.count_ones(), 6);
    }

    #[test]
    fn iter_ones_yields_sorted_indices() {
        let bv = AtomicBitVec::new(200);
        let set = [0usize, 1, 63, 64, 120, 199];
        for &i in &set {
            bv.set(i, true);
        }
        let got: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(got, set);
    }

    #[test]
    fn count_ones_ignores_bits_beyond_len() {
        let bv = AtomicBitVec::new(10);
        bv.set_all();
        assert_eq!(bv.count_ones(), 10);
        assert_eq!(bv.iter_ones().count(), 10);
    }

    #[test]
    fn clear_all_resets() {
        let bv = AtomicBitVec::new(100);
        for i in 0..100 {
            bv.set(i, true);
        }
        bv.clear_all();
        assert_eq!(bv.count_ones(), 0);
    }

    #[test]
    fn polarity_swap_is_constant_time_reset() {
        let pv = PolarityBitVec::new(100);
        assert_eq!(pv.count_marked(), 0);
        for i in 0..100 {
            assert!(pv.mark(i));
        }
        assert_eq!(pv.count_marked(), 100);
        // End of a capture phase: everything marked. Swap → all unmarked.
        pv.swap_polarity();
        assert_eq!(pv.count_marked(), 0);
        for i in 0..100 {
            assert!(!pv.is_marked(i));
        }
        // Works repeatedly across cycles.
        for i in 0..100 {
            pv.mark(i);
        }
        pv.swap_polarity();
        assert_eq!(pv.count_marked(), 0);
    }

    #[test]
    fn polarity_mark_unmark_transitions() {
        let pv = PolarityBitVec::new(8);
        assert!(pv.mark(2));
        assert!(!pv.mark(2), "second mark is a no-op");
        assert!(pv.unmark(2));
        assert!(!pv.unmark(2), "second unmark is a no-op");
    }

    #[test]
    fn store_inverted_from_complements() {
        let mr = AtomicBitVec::new(130);
        let mw = AtomicBitVec::new(130);
        for i in (0..130).step_by(3) {
            mr.set(i, true);
        }
        mw.store_inverted_from(&mr);
        for i in 0..130 {
            assert_eq!(mw.get(i), !mr.get(i), "bit {i}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn store_inverted_from_length_mismatch_panics() {
        AtomicBitVec::new(10).store_inverted_from(&AtomicBitVec::new(11));
    }

    #[test]
    fn concurrent_set_has_exactly_one_winner_per_bit() {
        let bv = Arc::new(AtomicBitVec::new(1024));
        let mut handles = Vec::new();
        let winners = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let bv = bv.clone();
            let winners = winners.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1024 {
                    if !bv.set(i, true) {
                        winners.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::Relaxed), 1024);
        assert_eq!(bv.count_ones(), 1024);
    }

    /// Seed for the seeded property tests below, overridable for replay
    /// with `BITVEC_SEED=<u64>`.
    fn prop_seed() -> u64 {
        match std::env::var("BITVEC_SEED") {
            Ok(s) => {
                let s = s.trim();
                match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                }
                .unwrap_or_else(|_| panic!("BITVEC_SEED not a u64: {s:?}"))
            }
            Err(_) => 0xB17_BEC5_0000,
        }
    }

    /// Property: concurrent `mark` calls conserve counts — the number of
    /// successful (transition-reporting) marks equals `count_marked()`,
    /// no matter how markers overlap, and a polarity swap zeroes it.
    #[test]
    fn concurrent_marks_conserve_counts_seeded() {
        const CASES: u64 = 16;
        for case in 0..CASES {
            let seed = prop_seed() ^ case;
            let len = 64 + (crate::rng::SplitMix::new(seed).next_u64() % 1000) as usize;
            let pv = Arc::new(PolarityBitVec::new(len));
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let pv = pv.clone();
                handles.push(std::thread::spawn(move || {
                    let mut rng = crate::rng::SplitMix::new(seed ^ (t.wrapping_mul(0x9e37)));
                    let mut transitions = 0u64;
                    for _ in 0..len * 2 {
                        let idx = rng.next_below(len as u64) as usize;
                        if pv.mark(idx) {
                            transitions += 1;
                        }
                    }
                    transitions
                }));
            }
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(
                total as usize,
                pv.count_marked(),
                "seed {seed:#x}: transition count != marked count"
            );
            // Polarity swap reinterprets every bit at once: marked and
            // unmarked populations exchange exactly (conservation).
            let marked = pv.count_marked();
            pv.swap_polarity();
            assert_eq!(
                pv.count_marked(),
                len - marked,
                "seed {seed:#x}: swap did not exchange marked/unmarked populations"
            );
        }
    }

    /// Property: `swap_polarity` is a single atomic reinterpretation, so a
    /// reader can never observe a *mixed* state where some bits flipped
    /// and others did not (which a scan-and-clear reset would produce).
    ///
    /// Protocol: a writer thread repeatedly marks every bit, publishes a
    /// "stable: all marked" generation, holds it briefly, retracts it and
    /// swaps. Readers use a seqlock-style double-read of the generation:
    /// if the generation was odd (stable) both before and after a
    /// `count_marked` scan, the count must be exactly `len` — any partial
    /// flip observable mid-swap would break this. The writer asserts the
    /// swapped state reads all-unmarked.
    #[test]
    fn polarity_swap_atomic_under_concurrent_readers_seeded() {
        const ROUNDS: u64 = 40;
        let seed = prop_seed() ^ 0x5a5a;
        let len = 512usize;
        let pv = Arc::new(PolarityBitVec::new(len));
        let generation = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBitVec::new(1));

        let mut readers = Vec::new();
        for r in 0..3u64 {
            let pv = pv.clone();
            let generation = generation.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut rng = crate::rng::SplitMix::new(seed ^ r);
                let mut stable_observations = 0u64;
                while !stop.get(0) {
                    let g1 = generation.load(Ordering::Acquire);
                    let count = pv.count_marked();
                    let sampled = pv.is_marked(rng.next_below(len as u64) as usize);
                    let g2 = generation.load(Ordering::Acquire);
                    assert!(count <= len, "count_marked out of range: {count}");
                    if g1 == g2 && g1 % 2 == 1 {
                        // Stable all-marked window: a swap (or any reset)
                        // racing this scan would have bumped the generation.
                        assert_eq!(
                            count, len,
                            "seed {seed:#x} gen {g1}: reader saw {count}/{len} marked \
                             inside a stable all-marked window (partial swap observed)"
                        );
                        assert!(sampled, "seed {seed:#x} gen {g1}: unmarked bit sampled");
                        stable_observations += 1;
                    }
                }
                stable_observations
            }));
        }

        let mut rng = crate::rng::SplitMix::new(seed);
        for round in 0..ROUNDS {
            // Mark every bit in a seeded random order.
            let mut order: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                order.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut transitions = 0usize;
            for &idx in &order {
                if pv.mark(idx) {
                    transitions += 1;
                }
            }
            assert_eq!(transitions, len, "seed {seed:#x} round {round}");
            assert_eq!(pv.count_marked(), len);
            generation.store(round * 2 + 1, Ordering::Release); // stable: all marked
            std::thread::sleep(std::time::Duration::from_micros(200));
            generation.store(round * 2 + 2, Ordering::Release); // mutation window
            pv.swap_polarity();
            assert_eq!(
                pv.count_marked(),
                0,
                "seed {seed:#x} round {round}: swap did not clear all marks"
            );
        }
        stop.set(0, true);
        let observed: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        // Sanity: the readers actually exercised stable windows.
        assert!(observed > 0, "seed {seed:#x}: readers never saw a stable window");
    }
}
