//! Clock-free pin on the server's binary cache-hit path: the connection
//! thread sends a stored node array from where the cache holds it, so
//! the allocations it makes per hit do not grow with the reply — a
//! 3-label hit and a 10 000-label hit allocate as often, and as many
//! bytes. Server-side
//! allocations are counted as every allocation in the process minus
//! those on the calling thread, which is where a multiplexed client
//! reads its replies ([`counting`]). A test binary of its own (and a
//! single test), because it installs a counting global allocator and
//! no other test's threads may allocate while it counts.

mod counting;

use blas::BlasCollection;
use blas_server::{MuxClient, Server, ServerConfig};
use std::time::Duration;

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

    let hits = |client: &MuxClient| {
        counting::fewest_elsewhere(ROUNDS, || {
            for _ in 0..HITS {
                assert!(client.query("//n", "auto").unwrap().cached);
            }
        })
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
