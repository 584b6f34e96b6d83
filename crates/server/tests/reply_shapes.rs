//! What a `query` reply carries, for every way of asking.
//!
//! The server encodes a result only for a reader — nothing for a
//! count-only, uncached request; binary triples for a reply with labels
//! or a stored entry; JSON text when a JSON reply first carries the
//! labels. None of that may show on the wire: for `labels` × `cache` ×
//! {JSON, binary} × {first call, repeat call} the reply's `count`,
//! `elements_visited`, `cached` and node array are exactly what the
//! eager both-encodings server returned, i.e. what [`BlasDb::query`]
//! answers directly.

use blas::{BlasDb, EngineChoice};
use blas_server::wire::Request;
use blas_server::{Client, Json, MuxClient, QueryReply, Server, ServerConfig};
use std::sync::Arc;

const SRC: &str = concat!(
    "<db><e><p><n>cytochrome c</n></p><r><y>2001</y></r></e>",
    "<e><p><n>hemoglobin</n></p><r><y>1999</y></r></e>",
    "<e><p><n>myoglobin</n></p></e></db>"
);
const QUERIES: &[&str] = &["//n", "/db/e[r]/p/n", "//e[p]", "//nothing"];
const ENGINES: &[&str] = &["auto", "rdbms", "twig"];

#[derive(Clone, Copy, Debug)]
enum Wire {
    Json,
    Binary,
}

/// One connection of either kind behind one `ask`.
enum Conn {
    Json(Client),
    Binary(MuxClient),
}

impl Conn {
    fn open(server: &Server, wire: Wire) -> Conn {
        match wire {
            Wire::Json => Conn::Json(Client::connect(server.local_addr(), None).unwrap()),
            Wire::Binary => Conn::Binary(MuxClient::connect(server.local_addr(), None).unwrap()),
        }
    }

    fn ask(&mut self, xpath: &str, engine: &str, labels: bool, cache: bool) -> QueryReply {
        let req = Request::Query {
            db: String::new(),
            xpath: xpath.into(),
            engine: engine.into(),
            labels,
            cache,
            hold_ms: None,
        };
        match self {
            Conn::Binary(mux) => mux.conn().query(&req).unwrap(),
            Conn::Json(client) => {
                let Json::Obj(fields) = req.to_json(&Json::Null) else {
                    unreachable!()
                };
                let params = fields.into_iter().find(|(k, _)| k == "params").unwrap().1;
                let r = client.call("query", params).unwrap();
                let num = |k: &str| r.get(k).and_then(Json::as_u64).unwrap();
                assert_eq!(
                    r.get("nodes").is_some(),
                    labels,
                    "JSON `nodes` present iff asked"
                );
                let nodes = r.get("nodes").and_then(Json::as_arr).unwrap_or_default();
                QueryReply {
                    generation: num("generation"),
                    engine: r.get("engine").and_then(Json::as_str).unwrap().into(),
                    cached: r.get("cached").and_then(Json::as_bool).unwrap(),
                    count: num("count") as usize,
                    elements_visited: num("elements_visited"),
                    nodes: nodes
                        .iter()
                        .map(|t| {
                            let t = t.as_arr().unwrap();
                            let f = |i: usize| t[i].as_u64().unwrap();
                            (f(0) as u32, f(1) as u32, f(2) as u16)
                        })
                        .collect(),
                }
            }
        }
    }
}

/// What the reply to `xpath` must say, straight from the database.
fn expect(db: &BlasDb, xpath: &str, engine: &str, labels: bool, cached: bool) -> QueryReply {
    let choice: EngineChoice = engine.parse().unwrap();
    let result = db.query(xpath, choice).unwrap();
    QueryReply {
        generation: db.generation(),
        engine: engine.into(),
        cached,
        count: result.nodes.len(),
        elements_visited: result.stats.elements_visited,
        nodes: match labels {
            true => result
                .nodes
                .iter()
                .map(|d| (d.start, d.end, d.level))
                .collect(),
            false => Vec::new(),
        },
    }
}

fn serve() -> (Arc<BlasDb>, Server) {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    (db, server)
}

#[test]
fn every_way_of_asking_gets_the_reply_the_database_gives() {
    for wire in [Wire::Json, Wire::Binary] {
        for labels in [false, true] {
            for cache in [false, true] {
                // A server per shape: "first call" means first.
                let (db, server) = serve();
                let mut conn = Conn::open(&server, wire);
                for xpath in QUERIES {
                    for engine in ENGINES {
                        let shape =
                            format!("{wire:?} labels={labels} cache={cache} {xpath} {engine}");
                        let first = conn.ask(xpath, engine, labels, cache);
                        assert_eq!(
                            first,
                            expect(&db, xpath, engine, labels, false),
                            "{shape} first"
                        );
                        let repeat = conn.ask(xpath, engine, labels, cache);
                        assert_eq!(
                            repeat,
                            expect(&db, xpath, engine, labels, cache),
                            "{shape} repeat"
                        );
                    }
                }
                let asked = (QUERIES.len() * ENGINES.len()) as u64;
                let stats = server.shutdown();
                let (hits, misses, entries) = match cache {
                    true => (asked, asked, asked as usize),
                    // `cache:false` neither consults nor fills: not a miss.
                    false => (0, 0, 0),
                };
                assert_eq!(
                    (stats.cache_hits, stats.cache_misses, stats.cache_entries),
                    (hits, misses, entries),
                    "{wire:?} labels={labels} cache={cache}"
                );
            }
        }
    }
}

#[test]
fn a_count_only_entry_answers_a_later_labels_request_as_a_hit_on_both_wires() {
    for populate_over in [Wire::Json, Wire::Binary] {
        let (db, server) = serve();
        let mut populate = Conn::open(&server, populate_over);
        let stored = populate.ask("//n", "auto", false, true);
        assert_eq!(stored, expect(&db, "//n", "auto", false, false));
        for wire in [Wire::Binary, Wire::Json, Wire::Binary] {
            let mut conn = Conn::open(&server, wire);
            let upgraded = conn.ask("//n", "auto", true, true);
            assert_eq!(
                upgraded,
                expect(&db, "//n", "auto", true, true),
                "populated over {populate_over:?}, upgraded over {wire:?}"
            );
            assert_eq!(upgraded.nodes.len(), 3);
        }
        let stats = server.shutdown();
        assert_eq!(
            (stats.cache_hits, stats.cache_misses, stats.cache_entries),
            (3, 1, 1)
        );
    }
}

#[test]
fn a_publish_invalidates_upgraded_entries_like_any_other() {
    let (db, server) = serve();
    let mut json = Conn::open(&server, Wire::Json);
    let mut binary = Conn::open(&server, Wire::Binary);
    // Stored by a count-only request, then upgraded on both wires.
    binary.ask("//n", "auto", false, true);
    assert!(json.ask("//n", "auto", true, true).cached);
    assert!(binary.ask("//n", "auto", true, true).cached);
    json.ask("//y", "rdbms", true, true);

    // Reads interleaved with writes, every reply checked against the
    // database at the generation the reply names.
    let Conn::Binary(writer) = &binary else {
        unreachable!()
    };
    let writer = writer.clone();
    for (step, xml) in [
        "<e><p><n>a</n></p></e>",
        "<e><p><n>b</n></p><r><y>2024</y></r></e>",
    ]
    .into_iter()
    .enumerate()
    {
        let generation = writer.insert_subtree(0, xml).unwrap();
        assert_eq!(generation, step as u64 + 1);
        let stats = server.stats();
        assert_eq!(
            stats.cache_entries, 0,
            "the publish hook pruned every superseded entry"
        );
        assert_eq!(stats.cache_invalidated, 2 * (step as u64 + 1));
        for (conn, labels) in [(&mut json, true), (&mut binary, false)] {
            let fresh = conn.ask("//n", "auto", labels, true);
            let cached = !labels; // the JSON labels request re-stored it first
            assert_eq!(
                fresh,
                expect(&db, "//n", "auto", labels, cached),
                "step {step}"
            );
            assert_eq!(fresh.count, 4 + step);
        }
        assert_eq!(json.ask("//y", "rdbms", true, true).count, 2 + step);
    }
    server.shutdown();
}
