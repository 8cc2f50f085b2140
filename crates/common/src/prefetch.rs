//! Cache-line prefetch hints, so misses a thread is about to take
//! overlap instead of waiting one after another. This file holds the
//! workspace's only non-test `unsafe` block.

/// Starts loading the cache line holding `ptr`; a no-op off x86-64.
#[inline(always)]
pub fn line<T: ?Sized>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint and never faults: it changes no state
    // the program can observe, and the CPU ignores an invalid address.
    // SSE, which `_mm_prefetch` needs, is in the x86-64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Starts loading every 64-byte cache line `bytes` spans.
#[inline]
pub fn lines(bytes: &[u8]) {
    for offset in (0..bytes.len()).step_by(64) {
        line(bytes.as_ptr().wrapping_add(offset));
    }
}
