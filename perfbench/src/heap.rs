//! Heap accounting: a global allocator over the system allocator that
//! keeps the peak of live heap bytes.
//!
//! The peak resident set size of the process (`VmHWM`) moved by up to a
//! fifth between runs of the same work: it depends on how the allocator's
//! per-thread arenas fragment, which differs from process to process.
//! Live heap bytes depend only on what the program allocates, so a
//! single-thread workload reads the same peak on every run.
//!
//! Each thread counts its net allocation in a thread-local cell and adds
//! it to the shared total only once it reaches [`BATCH`] bytes either way:
//! one shared counter updated on every allocation made explore-sweep's two
//! workers 25% slower, the batches about 5%. What a thread has not yet
//! added when it exits (under [`BATCH`] bytes) is lost, so the total is
//! exact to within [`BATCH`] bytes per thread. (Flushing at thread exit
//! would need a thread-local with a destructor, whose registration
//! allocates and so cannot be used from inside the allocator.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Net bytes a thread allocates or frees before it updates the total.
const BATCH: isize = 16 * 1024;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// This thread's net allocation not yet added to `LIVE`.
    static PENDING: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    // `try_with` fails only while the thread is being torn down; the
    // change then goes to the total directly.
    let flush = PENDING
        .try_with(|p| {
            let v = p.get() + delta;
            if v.abs() < BATCH {
                p.set(v);
                0
            } else {
                p.set(0);
                v
            }
        })
        .unwrap_or(delta);
    if flush != 0 {
        // The counters publish no other data, so `Relaxed` suffices.
        let live = LIVE.fetch_add(flush, Ordering::Relaxed) + flush;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

/// The system allocator, counting live bytes.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the block returned or released is exactly the one `System` would
// handle; the bookkeeping only reads the sizes, allocates nothing (the
// thread-local is a const-initialised `Cell` without a destructor), and
// counts a block only when `System` succeeded.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout, which satisfies
        // `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            account(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        account(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`, `layout` and `new_size`
        // meet `GlobalAlloc::realloc`'s contract, which `System` shares.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            account(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Highest total of live heap bytes so far, in MB (0 unless [`Counting`]
/// is the global allocator).
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_net_allocation_in_batches() {
        let before = PEAK.load(Ordering::Relaxed);
        account(BATCH - 1);
        assert_eq!(
            PEAK.load(Ordering::Relaxed),
            before,
            "below a batch stays pending"
        );
        account(-(BATCH - 1));
        // Twenty batches up, then all freed: the peak keeps the high mark.
        let live = LIVE.load(Ordering::Relaxed);
        account(20 * BATCH);
        assert!(PEAK.load(Ordering::Relaxed) >= live + 20 * BATCH);
        account(-20 * BATCH);
        assert!(peak_mb() > 0.0);
    }
}
