//! What a database holds, and what loading one costs at its peak,
//! counted by a global allocator. The reference is the store itself:
//! the bytes `NodeStore::build` leaves allocated for Auction ×1. A
//! database built by `load`, `from_document` or `from_snapshot` holds
//! its columns and nothing else — no tree, no per-node label vectors —
//! and `load`'s SAX pass never holds much more than the store it
//! builds. A test binary of its own, with one test, because it
//! installs a counting global allocator and reads process-wide totals.
//! Run it in release: debug builds allocate differently.

use blas::{BlasDb, Document, NodeStore};
use blas_datagen::DatasetId;
use blas_labeling::label_document;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Tracks live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Relaxed),
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `make`, returning what it built, the bytes still allocated
/// after it (above those allocated before it) and its peak above them.
fn measured<T>(make: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = make();
    let held = LIVE.load(Relaxed).saturating_sub(before);
    (out, held, PEAK.load(Relaxed) - before)
}

#[test]
fn a_database_holds_its_store_and_loads_within_half_a_store_more() {
    let xml = DatasetId::Auction.generate(1);
    let (store, store_bytes) = {
        let doc = Document::parse(&xml).unwrap();
        let labels = label_document(&doc).unwrap();
        let (store, bytes, _) = measured(|| NodeStore::build(&doc, &labels));
        (store, bytes)
    };
    let rows = store.len();
    drop(store);
    let limit = |ratio: f64| (store_bytes as f64 * ratio) as usize;

    let (db, held, peak) = measured(|| BlasDb::load(&xml).unwrap());
    assert_eq!(db.store().len(), rows);
    println!("store {store_bytes} B; load holds {held} B, peaks at {peak} B");
    assert!(held <= limit(1.15), "load holds {held} B for a {store_bytes} B store");
    assert!(peak <= limit(1.5), "load peaks at {peak} B for a {store_bytes} B store");
    let snapshot = db.to_snapshot();
    drop(db);

    // The tree is allocated inside the measurement and freed by it.
    let (db, held, _) = measured(|| BlasDb::from_document(Document::parse(&xml).unwrap()).unwrap());
    println!("from_document holds {held} B");
    assert!(held <= limit(1.15), "from_document holds {held} B for a {store_bytes} B store");
    drop(db);

    let (db, held, _) = measured(|| BlasDb::from_snapshot(&snapshot).unwrap());
    println!("from_snapshot holds {held} B");
    assert!(held <= limit(1.15), "from_snapshot holds {held} B for a {store_bytes} B store");
    drop(db);
}
