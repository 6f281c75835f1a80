//! Counting global allocator: exact allocation counts and byte totals for
//! the `alloc.*` per-layer metrics and `resident_bytes_per_entry`.
//!
//! All counters are statistics that publish no other data, so every access
//! is `Relaxed`. The benchmark drives the pipeline from one thread; the
//! counters stay correct with more, only the attribution to a span would
//! blur.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main.rs`.
pub struct Counting;

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` was returned by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// A reading of the counters; subtract two for the cost of what ran
/// between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocMark {
    /// Allocation calls so far (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested so far.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
}

/// Reads the counters.
pub fn mark() -> AllocMark {
    AllocMark {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// Highest live byte count seen so far.
pub fn peak_live() -> u64 {
    PEAK.load(Relaxed)
}
