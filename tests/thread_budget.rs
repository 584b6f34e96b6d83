//! The server's thread budget, counted from `/proc/self/task`: one
//! acceptor, one thread per live connection, and the served document's
//! execution pool of `available_parallelism` workers (at least two) —
//! nothing sized by a configuration bound, and nothing left behind by a
//! closed connection.
//!
//! A test binary of its own (and a single test) so no other test's
//! server can add threads to the count.
#![cfg(target_os = "linux")]

use blas::BlasDb;
use blas_server::{Client, MuxClient, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements of the one wide tag: enough for two scan shards of the
/// executor's default minimum, so a two-core host shards every scan.
const WIDE: usize = 10_000;

/// Threads the server started, by their names (`comm` truncates to 15
/// bytes; every server name fits).
fn server_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs is mounted");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| {
            let name = comm.trim_end();
            name == "blas-accept" || name.starts_with("blas-conn") || name.starts_with("blas-pool-")
        })
        .count()
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
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let budget = |open: usize| 1 + open + workers;

    // A JSON connection runs its query on its own thread; the scan's
    // second shard goes to the document's pool.
    let mut json = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    let jobs = db.pool().jobs_submitted();
    assert_eq!(json.query("//n", "auto").unwrap().count, WIDE);
    if cores >= 2 {
        assert!(db.pool().jobs_submitted() > jobs, "the wide scan must shard");
    }
    // A binary stream runs on that same pool, sharded scan included.
    let mux = MuxClient::connect(addr, Some(Duration::from_secs(10))).unwrap();
    assert_eq!(mux.query("/db/n", "auto").unwrap().count, WIDE);

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
