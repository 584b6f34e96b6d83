//! The server's thread budget, counted from `/proc/self/task`: one
//! acceptor, one thread per live connection, and the server's request
//! pool of `available_parallelism` workers (at least two), started at
//! bind whatever the number of documents served. A query runs start to
//! finish on the thread that asks for it, so neither an in-process
//! query nor a JSON one ever reaches the pool, however wide its scan,
//! and a binary cache hit, or a count the run directory answers for an
//! already-prepared plan, is answered on its connection's thread. The
//! multiplexed client has no thread of its own. Nothing is sized by a
//! configuration bound, nothing is left behind by a closed connection,
//! and nothing outlives the server.
//!
//! A test binary of its own (and a single test) so no other test's
//! server can add threads to the count.
#![cfg(target_os = "linux")]

use blas::{BlasCollection, BlasDb, EngineChoice};
use blas_server::{Client, MuxClient, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements of the one wide tag: well past the 4 096 elements per
/// worker at which scans used to be split over a pool.
const WIDE: usize = 10_000;

/// Threads whose name starts with one of `prefixes` (`comm` truncates
/// to 15 bytes; every server name fits).
fn threads_named(prefixes: &[&str]) -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs is mounted");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| prefixes.iter().any(|p| comm.trim_end().starts_with(p)))
        .count()
}

fn server_threads() -> usize {
    threads_named(&["blas-accept", "blas-conn", "blas-pool-"])
}

fn pool_threads() -> usize {
    threads_named(&["blas-pool-"])
}

/// Wait for the server threads to number `want`: a connection's thread
/// to notice its peer left, or a new thread to name itself.
fn settles_at(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = server_threads();
        if now == want || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Serve `docs` documents, open one JSON and one binary connection, and
/// run a binary miss on every document: the server threads counted
/// then.
fn threads_serving(docs: usize) -> usize {
    let mut coll = BlasCollection::new();
    for i in 0..docs {
        coll.add(&format!("d{i}"), "<db><n/><n/></db>").unwrap();
    }
    let server = Server::bind_collection(coll, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut json = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    assert_eq!(json.query("/db/n", "auto").unwrap().count, 2);
    let mux = MuxClient::connect(addr, Some(Duration::from_secs(10))).unwrap();
    for i in 0..docs {
        assert_eq!(mux.on_db(&format!("d{i}")).query("//n", "auto").unwrap().count, 2);
    }
    assert_eq!(server.stats().pool_tasks, docs as u64, "one binary miss per document");
    let open = server_threads();
    drop((json, mux));
    server.shutdown();
    open
}

#[test]
fn server_threads_are_one_per_live_connection_plus_one_pool() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.max(2);
    let budget = |open: usize| 1 + open + workers;
    let xml = format!("<db>{}</db>", "<n/>".repeat(WIDE));
    let db = Arc::new(BlasDb::load(&xml).unwrap());

    // In process, the wide scan runs on this thread: no thread starts.
    assert_eq!(db.query("//n", EngineChoice::auto()).unwrap().nodes.len(), WIDE);
    assert_eq!(pool_threads(), 0, "an in-process query started a pool");

    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    // A thread names itself once it runs: wait for the ones bind started.
    let started = settles_at(budget(0));
    assert_eq!(started, budget(0), "bind starts the acceptor and {workers} pool workers");

    // A JSON connection runs the same wide query on its own thread, and
    // nothing reaches the pool.
    let mut json = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    assert_eq!(json.query("//n", "auto").unwrap().nodes.len(), WIDE);
    assert_eq!(server.stats().pool_tasks, 0, "a JSON query ran on the pool");
    assert_eq!(server_threads(), budget(1), "acceptor + one JSON connection + the pool");

    // A binary miss is one whole-request task on the server's pool.
    let mux = MuxClient::connect(addr, Some(Duration::from_secs(10))).unwrap();
    assert_eq!(mux.query("/db/n", "auto").unwrap().count, WIDE);
    assert_eq!(server.stats().pool_tasks, 1, "one binary request, one pool task");
    // Repeated, it is a result-cache hit: the connection's own thread
    // answers it, and nothing reaches the pool.
    let hit = mux.query("/db/n", "auto").unwrap();
    assert_eq!((hit.cached, hit.count), (true, WIDE));
    assert_eq!(server.stats().pool_tasks, 1, "a cache hit ran on the pool");
    // Counted without the cache, the prepared linear query is answered
    // off the run directory on the connection's thread too.
    let counted = mux.query_count("/db/n", "auto", false).unwrap();
    assert_eq!((counted.cached, counted.count, counted.elements_visited), (false, WIDE, 0));
    assert_eq!(server.stats().pool_tasks, 1, "a directory count ran on the pool");
    // The multiplexed client reads its replies on the calling thread.
    assert_eq!(threads_named(&["blas-mux-read"]), 0, "a client reader thread is running");
    let open = server_threads();
    assert_eq!(open, budget(2), "acceptor + two connections + {workers} pool workers");
    assert!(open <= 2 * cores + 4, "{open} server threads on {cores} cores");

    drop(mux);
    assert_eq!(settles_at(budget(1)), budget(1), "a closed connection takes its thread along");
    drop(json);
    assert_eq!(settles_at(budget(0)), budget(0), "a closed connection takes its thread along");

    server.shutdown();
    assert_eq!(server_threads(), 0, "a server thread outlived shutdown");

    // The pool is the server's: serving three documents costs the
    // threads one does, and each server leaves none behind.
    assert_eq!(threads_serving(1), budget(2));
    assert_eq!(server_threads(), 0, "a server thread outlived shutdown");
    assert_eq!(threads_serving(3), budget(2), "the thread count grew with the documents");
    assert_eq!(server_threads(), 0, "a server thread outlived shutdown");
}
