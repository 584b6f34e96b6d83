//! The server's thread budget, counted from `/proc/self/task`: one
//! acceptor, one thread per live connection, and — once a binary stream
//! has missed the result cache — the served document's request pool of
//! `available_parallelism` workers (at least two). A query runs start
//! to finish on the thread that asks for it, so neither an in-process
//! query nor a JSON one ever starts a pool thread, however wide its
//! scan, and a binary cache hit is answered on its connection's thread.
//! The multiplexed client has no thread of its own. Nothing is sized by
//! a configuration bound, and nothing is left behind by a closed
//! connection.
//!
//! A test binary of its own (and a single test) so no other test's
//! server can add threads to the count.
#![cfg(target_os = "linux")]

use blas::{BlasDb, EngineChoice};
use blas_server::{Client, MuxClient, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements of the one wide tag: well past the 4 096 elements per
/// worker at which scans used to be split over the pool.
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

/// Wait for a connection's thread to notice its peer left.
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

#[test]
fn server_threads_are_one_per_live_connection_plus_one_pool() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.max(2);
    let xml = format!("<db>{}</db>", "<n/>".repeat(WIDE));
    let db = Arc::new(BlasDb::load(&xml).unwrap());

    // In process, the wide scan runs on this thread: no pool job, no
    // pool thread.
    assert_eq!(db.query("//n", EngineChoice::auto()).unwrap().nodes.len(), WIDE);
    assert_eq!(db.pool().jobs_submitted(), 0, "an in-process query submitted a pool job");
    assert_eq!(pool_threads(), 0, "an in-process query started the pool");

    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // A JSON connection runs the same wide query on its own thread, and
    // still nothing reaches the pool.
    let mut json = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    assert_eq!(json.query("//n", "auto").unwrap().nodes.len(), WIDE);
    assert_eq!(db.pool().jobs_submitted(), 0, "a JSON query submitted a pool job");
    assert_eq!(server_threads(), 2, "acceptor + one JSON connection, and no pool");

    // A binary stream is one whole-request task on the document's pool:
    // the first one starts its workers.
    let mux = MuxClient::connect(addr, Some(Duration::from_secs(10))).unwrap();
    assert_eq!(mux.query("/db/n", "auto").unwrap().count, WIDE);
    assert_eq!(db.pool().jobs_submitted(), 1, "one binary request, one pool task");
    // Repeated, it is a result-cache hit: the connection's own thread
    // answers it, and nothing reaches the pool.
    let hit = mux.query("/db/n", "auto").unwrap();
    assert_eq!((hit.cached, hit.count), (true, WIDE));
    assert_eq!(db.pool().jobs_submitted(), 1, "a cache hit submitted a pool job");
    // The multiplexed client reads its replies on the calling thread.
    assert_eq!(threads_named(&["blas-mux-read"]), 0, "a client reader thread is running");
    let budget = |open: usize| 1 + open + workers;
    let open = server_threads();
    assert_eq!(open, budget(2), "acceptor + two connections + {workers} pool workers");
    assert!(open <= 2 * cores + 4, "{open} server threads on {cores} cores");

    drop(mux);
    assert_eq!(settles_at(budget(1)), budget(1), "a closed connection takes its thread along");
    drop(json);
    assert_eq!(settles_at(budget(0)), budget(0), "a closed connection takes its thread along");

    server.shutdown();
    assert_eq!(server_threads(), workers, "only the document's pool outlives the server");
}
