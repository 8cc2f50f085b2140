//! `CheckpointReader::verify` is restart's first pass over every part: it
//! must cost CRC bandwidth, not an allocation per record. Pinned with a
//! counting allocator (its own test binary, so nothing else allocates on
//! the measured thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use calc_common::types::{CommitSeq, Key};
use calc_core::file::{CheckpointKind, CheckpointReader, CheckpointWriter};
use calc_core::throttle::Throttle;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the thread under measurement counts (the harness has others).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter and the const-initialised,
// destructor-free thread-local touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn verify_allocates_per_file_not_per_record() {
    const RECORDS: u64 = 30_000; // ≈ 3.3 MB: several read chunks
    let path = std::env::temp_dir().join(format!("calc-verify-alloc-{}.part", std::process::id()));
    let mut w = CheckpointWriter::create(
        &path,
        CheckpointKind::Partial,
        1,
        CommitSeq(1),
        Arc::new(Throttle::unlimited()),
    )
    .unwrap();
    w.write_tombstone(Key(u64::MAX)).unwrap();
    for k in 0..RECORDS {
        w.write_record(Key(k), &[k as u8; 100]).unwrap();
    }
    w.finish().unwrap();

    let reader = CheckpointReader::open(&path).unwrap();
    let verified = allocations_during(|| {
        assert_eq!(reader.verify().unwrap().records, RECORDS + 1);
    });
    assert!(verified <= 4, "verify allocated {verified} times for {RECORDS} records");

    // The counter counts: the copying reader pays one allocation a value.
    let reader = CheckpointReader::open(&path).unwrap();
    let copied = allocations_during(|| {
        assert_eq!(reader.read_all().unwrap().len() as u64, RECORDS + 1);
    });
    assert!(copied as u64 >= RECORDS, "read_all allocated only {copied} times");
    std::fs::remove_file(&path).ok();
}
