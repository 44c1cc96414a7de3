//! The allocation probe behind the harness's "no allocation sized by an
//! unchecked length" contract.
//!
//! A test binary that runs the harness installs the counting allocator
//! once:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: testkit::CountingAlloc = testkit::CountingAlloc;
//! # fn main() { testkit::alloc::assert_installed(); }
//! ```
//!
//! It forwards to the system allocator and remembers, per thread, the
//! largest single request, so a decoder's worst allocation is measured
//! on the thread that ran it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording each thread's largest request.
#[derive(Debug, Clone, Copy)]
pub struct CountingAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f`, returning its result and the largest single allocation it
/// made on this thread (0 when [`CountingAlloc`] is not installed).
pub fn largest_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let outer = LARGEST.with(|largest| largest.replace(0));
    let out = f();
    let inner = LARGEST.with(|largest| largest.replace(outer.max(largest.get())));
    (out, inner)
}

/// Panics unless [`CountingAlloc`] is the global allocator, so a suite
/// cannot pass the allocation contract by not measuring it.
pub fn assert_installed() {
    let (_, largest) = largest_during(|| std::hint::black_box(Vec::<u8>::with_capacity(4096)));
    assert!(
        largest >= 4096,
        "install `testkit::CountingAlloc` as the test binary's #[global_allocator]"
    );
}
