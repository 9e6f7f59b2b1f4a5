//! The allocation counter: a delegating global allocator that counts
//! every heap allocation and reallocation, and the bytes currently live.
//! Not part of the library (which forbids `unsafe`): the targets that
//! measure allocations include this file by `#[path]` and install
//! [`Counting`] as their `#[global_allocator]`. The workspace-wide
//! `forbid(unsafe_code)` is relaxed to `deny` for this crate only to
//! admit it (see crates/bench/Cargo.toml).
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Heap allocations (+ reallocations) observed since process start.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Heap bytes requested and not yet freed, process-wide.
pub static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

/// SAFETY: every method delegates directly to [`System`] with the
/// caller's layout unchanged; the only additions are relaxed counter
/// updates, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwards the caller's layout, under `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator with this
        // layout, per `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via this allocator with
        // `layout`, per `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
