//! A global allocator that counts allocations and tracks the peak of
//! live heap bytes, switched on only around the runs that report them.
//!
//! Off, each call costs one relaxed load of a flag that nothing writes
//! during a timed run, so the timed runs (two worker threads on
//! `dense_tcp`) share no contended cache line through the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The counting allocator; installed as `#[global_allocator]` in `main`.
pub struct Tracking;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
// Signed: blocks allocated before tracking started may be freed while
// it is on, which takes the live count below its starting zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// only and never influence which memory is returned.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as-is.
        let p = unsafe { System.alloc(layout) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Ordering::Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `alloc` and `dealloc`; `System` owns `ptr`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if ON.load(Ordering::Relaxed) && !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// What the allocator saw while tracking was on.
#[derive(Debug, Clone, Copy)]
pub struct HeapUse {
    /// Allocations and reallocations.
    pub allocs: u64,
    /// Peak live bytes above the level at which tracking started.
    pub peak_bytes: u64,
}

/// Run `f` with tracking on and return its result with the heap use.
/// Not reentrant: one tracked region at a time.
pub fn tracked<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    ALLOCS.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    let heap = HeapUse {
        allocs: ALLOCS.load(Ordering::SeqCst),
        peak_bytes: PEAK.load(Ordering::SeqCst).max(0) as u64,
    };
    (out, heap)
}
