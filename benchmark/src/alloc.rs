//! A counting wrapper around the system allocator.
//!
//! `peak_heap_mb` is the peak of *live* bytes, which — unlike RSS — is an
//! exact function of the allocation sequence: a single-threaded seeded
//! run allocates the same bytes in the same order every time, so the
//! number repeats. RSS is reported next to it only as a diagnostic.

// simlint: allow-file(D4, reason = "the allocator is process-global, so its counters must be atomics; they only feed reporting, never simulation state")

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The process allocator: `System`, plus four statistics.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// The wrapper only updates statistics (relaxed atomics that publish no
// other data) and never touches the memory it hands through.
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns its result.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
    // `layout`, which is passed to `System.alloc` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract
    // for `layout`, which is passed to `System.alloc_zeroed` as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(layout.size() as u64, Relaxed);
            grew(layout.size() as u64);
        }
        p
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator — that
    // is, from `System` — with this `layout`; both are passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: see above — `ptr` is `System`'s, allocated with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract for
    // `ptr`, `layout` and `new_size`, all passed to `System.realloc` as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                let by = (new_size - layout.size()) as u64;
                BYTES.fetch_add(by, Relaxed);
                grew(by);
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        p
    }
}

/// Allocator statistics at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Heap {
    /// Allocation calls so far (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested so far (growth only for `realloc`).
    pub bytes: u64,
}

/// Reads the counters.
pub fn heap() -> Heap {
    Heap {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size and returns that
/// size: `peak() - restart_peak()` is then the growth above this point.
pub fn restart_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live size seen since the last [`restart_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}

/// Tells glibc's allocator to serve large blocks from its heap and to
/// keep freed memory, instead of mapping every block over 128 KiB afresh
/// and trimming the heap whenever its top is free.
///
/// With the defaults, a workload that allocates and frees megabyte
/// buffers (`san_bulk`: five 1 MiB messages per op, copied at several
/// layers) spends more than half its host time in `mmap`, page faults
/// and `munmap` — kernel work whose cost on a shared virtual machine
/// varied by 6 % between runs — and the benchmark would mostly measure
/// that. This is part of the benchmark's definition, like its build
/// profile: it applies to both sides of every comparison, and the
/// allocation counts the harness reports are not affected by it.
pub fn keep_large_blocks_on_the_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores tunables of the C allocator; it
        // is called once, first thing in `main`, before any other thread
        // exists. A refused value (return 0) leaves the default in place.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
        }
    }
}
