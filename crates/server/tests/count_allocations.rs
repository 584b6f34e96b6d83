//! Clock-free pin on the server's in-place count: a count-only,
//! cache-bypassing query whose prepared plan the run directory answers
//! is counted on the connection thread in O(intervals · log n), so the
//! allocations the server makes per count do not grow with the answer —
//! a 3-node count and a 40 000-node count allocate as often, and as
//! many bytes. Server-side allocations are counted as in
//! `hit_allocations.rs` ([`counting`]). A test binary of its own (and a
//! single test), because it installs a counting global allocator and
//! no other test's threads may allocate while it counts.

mod counting;

use blas::BlasCollection;
use blas_server::{MuxClient, Server, ServerConfig};
use std::time::Duration;

const COUNTS: usize = 32;
const ROUNDS: usize = 4;

#[test]
fn an_in_place_count_allocates_on_the_server_alike_for_three_nodes_and_forty_thousand() {
    // Same query, same-length names: the requests differ only in which
    // document's run directory answers them.
    let mut coll = BlasCollection::new();
    coll.add("small", "<db><n/><n/><n/></db>").unwrap();
    coll.add("large", &format!("<db>{}</db>", "<n/>".repeat(40_000))).unwrap();
    let server = Server::bind_collection(coll, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    let (small, large) = (mux.on_db("small"), mux.on_db("large"));
    let count = |client: &MuxClient| {
        let reply = client.query_count("//n", "auto", false).unwrap();
        assert_eq!((reply.cached, reply.elements_visited), (false, 0));
        reply.count
    };
    for (client, nodes) in [(&small, 3), (&large, 40_000)] {
        // The first ask prepares the plan on the pool; one in-place
        // count each before counting, so nothing is a first time.
        assert_eq!(count(client), nodes);
        assert_eq!(count(client), nodes);
    }
    assert_eq!(server.stats().pool_tasks, 2, "only the first ask of each reached the pool");

    let counts = |client: &MuxClient| {
        counting::fewest_elsewhere(ROUNDS, || {
            for _ in 0..COUNTS {
                count(client);
            }
        })
    };
    let (on_small, on_large) = (counts(&small), counts(&large));
    assert_eq!(
        on_small, on_large,
        "{COUNTS} counts: (allocations, bytes) {on_small:?} for 3 nodes, {on_large:?} for 40 000"
    );
    assert!(on_small.0 > 0, "the count must see the server's request decode");
    println!("{COUNTS} counts: {on_small:?} server (allocations, bytes) per document");
    let stats = server.shutdown();
    assert_eq!((stats.cache_hits, stats.cache_misses, stats.pool_tasks), (0, 0, 2));
}
