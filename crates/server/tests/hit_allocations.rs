//! Clock-free pin on the server's binary cache-hit path: the connection
//! thread sends a stored node array from where the cache holds it, so
//! the allocations it makes per hit do not grow with the reply — a
//! 3-label hit and a 10 000-label hit allocate as often, and as many
//! bytes. Server-side
//! allocations are counted as every allocation in the process minus
//! those on the calling thread, which is where a multiplexed client
//! reads its replies. A test binary of its own (and a single test),
//! because it installs a counting global allocator and no other test's
//! threads may allocate while it counts.

use blas::BlasCollection;
use blas_server::{MuxClient, Server, ServerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

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
fn elsewhere(f: impl FnOnce()) -> (usize, usize) {
    let all = || (ALL.load(Ordering::SeqCst), ALL_BYTES.load(Ordering::SeqCst));
    let ((n0, b0), (m0, c0)) = (all(), MINE.with(Cell::get));
    f();
    let ((n1, b1), (m1, c1)) = (all(), MINE.with(Cell::get));
    ((n1 - n0) - (m1 - m0), (b1 - b0) - (c1 - c0))
}

const HITS: usize = 32;
const ROUNDS: usize = 4;

#[test]
fn a_binary_hit_allocates_on_the_server_alike_for_three_labels_and_ten_thousand() {
    // Same query, same-length names: the requests differ only in which
    // document's stored answer they hit.
    let mut coll = BlasCollection::new();
    coll.add("small", "<db><n/><n/><n/></db>").unwrap();
    coll.add("large", &format!("<db>{}</db>", "<n/>".repeat(10_000))).unwrap();
    let server = Server::bind_collection(coll, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    let (small, large) = (mux.on_db("small"), mux.on_db("large"));
    for (client, labels) in [(&small, 3), (&large, 10_000)] {
        let stored = client.query("//n", "auto").unwrap();
        assert_eq!((stored.cached, stored.nodes.len()), (false, labels));
        // One hit each before counting, so nothing is a first time.
        assert!(client.query("//n", "auto").unwrap().cached);
    }

    // The fewest over a few rounds: a thread that allocates once while
    // a round counts (a pool worker still winding down from the misses
    // above, on a loaded host) inflates that round only.
    let hits = |client: &MuxClient| {
        let rounds = (0..ROUNDS).map(|_| {
            elsewhere(|| {
                for _ in 0..HITS {
                    assert!(client.query("//n", "auto").unwrap().cached);
                }
            })
        });
        rounds.reduce(|a, b| (a.0.min(b.0), a.1.min(b.1))).unwrap()
    };
    let (on_small, on_large) = (hits(&small), hits(&large));
    assert_eq!(
        on_small, on_large,
        "{HITS} hits: (allocations, bytes) {on_small:?} for 3 labels, {on_large:?} for 10 000"
    );
    assert!(on_small.0 > 0, "the count must see the server's request decode");
    println!("{HITS} hits: {on_small:?} server (allocations, bytes) per document");
    let stats = server.shutdown();
    let asked = 2 * (ROUNDS * HITS + 1) as u64;
    assert_eq!((stats.cache_hits, stats.cache_misses), (asked, 2));
}
