//! The counting allocator the server's allocation pins share: every
//! allocation in the process, and those of the calling thread, so a
//! pin can count what the server allocates as the difference. A test
//! binary that declares `mod counting;` installs it as its global
//! allocator, and must hold a single test so no other test's threads
//! allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations (and reallocations) and their bytes: all of
/// them, and per thread.
struct Counting;

static ALL: AtomicUsize = AtomicUsize::new(0);
static ALL_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `(allocations, bytes)` made on this thread.
    static MINE: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn tally(bytes: usize) {
    ALL.fetch_add(1, Ordering::Relaxed);
    ALL_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let _ = MINE.try_with(|m| {
        let (n, b) = m.get();
        m.set((n + 1, b + bytes));
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` made on other threads than this one while
/// `f` runs.
pub fn elsewhere(f: impl FnOnce()) -> (usize, usize) {
    let all = || (ALL.load(Ordering::SeqCst), ALL_BYTES.load(Ordering::SeqCst));
    let ((n0, b0), (m0, c0)) = (all(), MINE.with(Cell::get));
    f();
    let ((n1, b1), (m1, c1)) = (all(), MINE.with(Cell::get));
    ((n1 - n0) - (m1 - m0), (b1 - b0) - (c1 - c0))
}

/// The fewest `(allocations, bytes)` [`elsewhere`] counts for `f` over
/// `rounds` rounds: a thread that allocates once while a round counts
/// (a pool worker still winding down from earlier requests, on a loaded
/// host) inflates that round only.
pub fn fewest_elsewhere(rounds: usize, mut f: impl FnMut()) -> (usize, usize) {
    let counted = (0..rounds).map(|_| elsewhere(&mut f));
    counted.reduce(|a, b| (a.0.min(b.0), a.1.min(b.1))).unwrap()
}
