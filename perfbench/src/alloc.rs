//! A counting global allocator for the `*_allocs` layer metrics.
//!
//! Like the fuzz harness's allocator it forwards every call to
//! [`System`]; unlike it, it counts allocation *calls* per thread. The
//! benchmark calls the layer under test on its own thread while server,
//! gateway and store threads may run in the background, so a per-thread
//! count charges exactly the calls the measured function made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisation and a `Copy` payload: no lazy init and no
    // destructor, so reading it never allocates and never fails while a
    // thread is being torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The counting allocator: forwards to [`System`], counting successful
/// `alloc`/`realloc` calls on the calling thread.
pub struct CountingAlloc;

fn note() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: defers all allocation to `System`; the bookkeeping touches a
// const-initialised thread-local cell and never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `layout` is forwarded to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note();
        }
        p
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // this `layout`; both are forwarded to `System.dealloc` verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // SAFETY: arguments obey the realloc contract by the caller's
    // guarantee and are forwarded to `System.realloc` unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note();
        }
        p
    }
}

/// Allocation calls made so far by the current thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_allocs();
    let out = f();
    (out, thread_allocs() - before)
}
