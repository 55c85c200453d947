//! A counting global allocator for the memory metric.
//!
//! The resident set of this multi-threaded program varies by a fifth
//! from run to run with how the system allocator spreads threads over
//! its arenas, so the benchmark reports the heap the program holds
//! instead. Each thread batches its net allocation in a thread-local
//! counter and publishes it to the shared totals only every
//! [`FLUSH`] bytes, which keeps the counting off the measured path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Net bytes a thread allocates or frees before it publishes them.
const FLUSH: isize = 4 << 10;

/// Published live heap bytes.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Highest published value of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let publish = |delta: isize| {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    };
    // The thread-local is const-initialised and has no destructor, so it
    // stays usable for the thread's whole life; the fallback only keeps
    // the count exact should that ever change.
    if PENDING
        .try_with(|pending| {
            let total = pending.get() + delta;
            if total.abs() >= FLUSH {
                pending.set(0);
                publish(total);
            } else {
                pending.set(total);
            }
        })
        .is_err()
    {
        publish(delta);
    }
}

/// The system allocator, counting the bytes it hands out.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counting
// around the calls touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        new
    }
}

/// Starts a new peak window at the current live heap; returns it.
pub fn reset_peak() -> isize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The peak live heap since [`reset_peak`] returned `base`, above
/// `base`, in MiB.
pub fn peak_above_mb(base: isize) -> f64 {
    (PEAK.load(Ordering::Relaxed) - base).max(0) as f64 / (1024.0 * 1024.0)
}
