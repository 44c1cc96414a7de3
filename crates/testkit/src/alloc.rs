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
//! on the thread that ran it; and, process-wide, the largest request
//! made off the thread that probes, so the workers a call starts are
//! measured too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording each thread's largest request.
#[derive(Debug, Clone, Copy)]
pub struct CountingAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread runs a [`largest_elsewhere_during`] probe.
    static PROBING: Cell<bool> = const { Cell::new(false) };
}

/// The largest request made on a thread that was not probing.
static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    if !PROBING.try_with(Cell::get).unwrap_or(false) {
        ELSEWHERE.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` touches only
// const-initialised thread-local `Cell`s and an atomic, and never
// allocates.
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

/// Runs `f`, returning its result and the largest single allocation
/// any *other* thread made while it ran (0 when [`CountingAlloc`] is not
/// installed): what the worker threads `f` starts allocate, without the
/// calling thread's own. Threads that `f` did not start count too, so
/// only one probe may run at a time, with nothing else at work in the
/// process.
pub fn largest_elsewhere_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    PROBING.with(|probing| probing.set(true));
    ELSEWHERE.store(0, Ordering::Relaxed);
    let out = f();
    let largest = ELSEWHERE.load(Ordering::Relaxed);
    PROBING.with(|probing| probing.set(false));
    (out, largest)
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
