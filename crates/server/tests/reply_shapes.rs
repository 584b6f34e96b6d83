//! What a `query` reply carries, for every way of asking.
//!
//! The server encodes a result only for a reader — and builds none for
//! a count-only, uncached request, which it answers through
//! [`BlasDb::count`]; binary triples for a reply with labels or a stored
//! entry; JSON text when a JSON reply first carries the labels. For
//! `labels` × `cache` × {JSON, binary} × {first call, repeat call} the
//! reply's `count`, `elements_visited`, `cached` and node array are
//! exactly what the database answers directly: `BlasDb::count` for
//! `labels:false, cache:false` (same count, the count path's
//! `elements_visited`), [`BlasDb::query`] for the other three shapes.
//! Over JSON the replies are read twice over: as the generic
//! [`Client::call`] value tree, and through the typed calls
//! ([`Client::query`], [`Client::query_count`]), whose decoder builds no
//! tree.

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
    /// JSON, read by the generic `Client::call`.
    Json,
    /// JSON, read by `Client`'s typed calls.
    JsonTyped,
    Binary,
}

const WIRES: [Wire; 3] = [Wire::Json, Wire::JsonTyped, Wire::Binary];

/// One connection of any kind behind one `ask`.
enum Conn {
    Json(Client),
    JsonTyped(Client),
    Binary(MuxClient),
}

impl Conn {
    fn open(server: &Server, wire: Wire) -> Conn {
        let json = || Client::connect(server.local_addr(), None).unwrap();
        match wire {
            Wire::Json => Conn::Json(json()),
            Wire::JsonTyped => Conn::JsonTyped(json()),
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
            Conn::JsonTyped(client) if labels && cache => client.query(xpath, engine).unwrap(),
            Conn::JsonTyped(client) if !labels => {
                client.query_count(xpath, engine, cache).unwrap()
            }
            // No typed call asks for labels without the cache.
            Conn::Json(client) | Conn::JsonTyped(client) => {
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

/// What a `labels:false, cache:false` reply must say: the count sink's
/// answer, never cached.
fn expect_count(db: &BlasDb, xpath: &str, engine: &str) -> QueryReply {
    let c = db.count(xpath, engine.parse().unwrap()).unwrap();
    QueryReply {
        generation: db.generation(),
        engine: engine.into(),
        cached: false,
        count: c.count,
        elements_visited: c.stats.elements_visited,
        nodes: Vec::new(),
    }
}

fn serve() -> (Arc<BlasDb>, Server) {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    (db, server)
}

#[test]
fn every_way_of_asking_gets_the_reply_the_database_gives() {
    for wire in WIRES {
        for labels in [false, true] {
            for cache in [false, true] {
                // A server per shape: "first call" means first.
                let (db, server) = serve();
                let mut conn = Conn::open(&server, wire);
                for xpath in QUERIES {
                    for engine in ENGINES {
                        let shape =
                            format!("{wire:?} labels={labels} cache={cache} {xpath} {engine}");
                        let want = |cached| match (labels, cache) {
                            (false, false) => expect_count(&db, xpath, engine),
                            _ => expect(&db, xpath, engine, labels, cached),
                        };
                        let first = conn.ask(xpath, engine, labels, cache);
                        assert_eq!(first, want(false), "{shape} first");
                        let repeat = conn.ask(xpath, engine, labels, cache);
                        assert_eq!(repeat, want(cache), "{shape} repeat");
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
    for populate_over in WIRES {
        let (db, server) = serve();
        let mut populate = Conn::open(&server, populate_over);
        let stored = populate.ask("//n", "auto", false, true);
        assert_eq!(stored, expect(&db, "//n", "auto", false, false));
        let upgrades = [Wire::Binary, Wire::Json, Wire::JsonTyped, Wire::Binary];
        for wire in upgrades {
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
            (upgrades.len() as u64, 1, 1)
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

/// A reply of more than ten thousand labels — a generated document, not
/// the toy one — reads back as exactly the database's triples on every
/// wire, the one-pass JSON decoder included.
#[test]
fn a_ten_thousand_label_reply_is_the_database_answer_on_every_wire() {
    let xml = format!("<db>{}</db>", "<e><p><n>x</n></p></e>".repeat(4000));
    let db = Arc::new(BlasDb::load(&xml).unwrap());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    for wire in WIRES {
        let mut conn = Conn::open(&server, wire);
        for xpath in ["//*", "/db/e/p"] {
            let reply = conn.ask(xpath, "auto", true, true);
            let want = expect(&db, xpath, "auto", true, reply.cached);
            assert_eq!(reply, want, "{wire:?} {xpath}");
        }
        assert_eq!(conn.ask("//*", "auto", true, true).nodes.len(), 12_001);
    }
    server.shutdown();
}

/// The served `plan_info` reply, over JSON and binary, for `auto`,
/// `rdbms` and `twig`: exactly `engine`, `translator`, `est_cost_ns`,
/// `ops` and `cached`, each what [`BlasDb::plan_info`] says on a twin
/// database, with `cached` false on the first call and true on the
/// repeat. `auto` answers the relational plan over Unfold, with
/// `rdbms`'s `ops`.
#[test]
fn plan_info_replies_carry_the_resolved_plan_on_both_wires() {
    let twin = BlasDb::load(SRC).unwrap();
    for binary in [false, true] {
        let (_db, server) = serve();
        let mut json = Client::connect(server.local_addr(), None).unwrap();
        let mux = MuxClient::connect(server.local_addr(), None).unwrap();
        for xpath in QUERIES {
            for engine in ENGINES {
                let req = Request::PlanInfo {
                    db: String::new(),
                    xpath: (*xpath).into(),
                    engine: (*engine).into(),
                };
                let mut ask = || match binary {
                    true => match mux.conn().call(&req).unwrap() {
                        blas_server::wire::Response::Info(info) => info,
                        other => panic!("plan_info answered {other:?}"),
                    },
                    false => {
                        let Json::Obj(fields) = req.to_json(&Json::Null) else {
                            unreachable!()
                        };
                        let params = fields.into_iter().find(|(k, _)| k == "params").unwrap().1;
                        json.call("plan_info", params).unwrap()
                    }
                };
                let shape = format!("binary={binary} {xpath} {engine}");
                let want = twin.plan_info(xpath, engine.parse().unwrap()).unwrap();
                for cached in [false, true] {
                    let reply = ask();
                    let Json::Obj(fields) = &reply else {
                        panic!("{shape}: {reply:?}")
                    };
                    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(
                        keys,
                        ["engine", "translator", "est_cost_ns", "ops", "cached"],
                        "{shape}"
                    );
                    let field = |k: &str| reply.get(k).unwrap();
                    assert_eq!(
                        field("engine").as_str(),
                        Some(want.engine.to_string().as_str()),
                        "{shape}"
                    );
                    assert_eq!(field("translator").as_str(), Some("Unfold"), "{shape}");
                    assert_eq!(
                        field("est_cost_ns").as_f64(),
                        Some(want.est_cost_ns),
                        "{shape}"
                    );
                    assert_eq!(field("ops").as_u64(), Some(want.ops as u64), "{shape}");
                    assert_eq!(field("cached").as_bool(), Some(cached), "{shape}");
                }
                if *engine == "auto" {
                    let rdbms = twin.plan_info(xpath, EngineChoice::rdbms()).unwrap();
                    assert_eq!(
                        (want.engine.to_string(), want.ops),
                        ("rdbms".into(), rdbms.ops),
                        "{shape}"
                    );
                }
            }
        }
        server.shutdown();
    }
}
