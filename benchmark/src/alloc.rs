//! The allocation counter: a delegating global allocator that counts
//! allocations and net bytes **per thread**.
//!
//! Per-thread, not process-wide, so the single-threaded staged replay
//! reads exact counts for its own calls while reactor, broker and test
//! threads allocate beside it.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructors: touching these from inside
    // the allocator never allocates and never registers a TLS destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // `try_with`: the allocator is still called while a thread tears
    // down its TLS; those calls go uncounted instead of panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = NET_BYTES.try_with(|c| c.set(c.get() + bytes));
}

/// The counting allocator installed by `lib.rs`.
pub struct Counting;

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged; the only addition is thread-local counter arithmetic, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and reallocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread allocated minus bytes it freed.
pub fn thread_net_bytes() -> i64 {
    NET_BYTES.with(Cell::get)
}
