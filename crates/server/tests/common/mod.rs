//! A counting global allocator for the decoder tests: it records the
//! largest single allocation a thread asks for, and the largest any
//! thread asks for, so a test can bound what a decode reserves —
//! measured, not assumed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The largest single allocation request this thread has made since
    /// the cell was last reset.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

/// The largest single allocation request any thread has made since the
/// value was last reset.
static LARGEST_ANYWHERE: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(size)));
    LARGEST_ANYWHERE.fetch_max(size, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches a `const`-initialised thread-local `Cell` and allocates
// nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch
        // for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, reporting with its result the largest single allocation it
/// asked for on this thread.
#[allow(dead_code)] // not every test binary that shares this module calls it
pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|c| c.set(0));
    let result = f();
    (result, LARGEST_REQUEST.with(Cell::get))
}

/// Runs `f`, reporting with its result the largest single allocation any
/// thread asked for meanwhile — for work done on a thread the test does
/// not own, such as a server's. Only a test binary whose other tests do
/// not run beside it gets a clean reading.
#[allow(dead_code)] // not every test binary that shares this module calls it
pub fn largest_allocation_anywhere<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_ANYWHERE.store(0, Ordering::Relaxed);
    let result = f();
    (result, LARGEST_ANYWHERE.load(Ordering::Relaxed))
}
