//! End-to-end suite for binary wire protocol v2 and stream-id
//! multiplexing: eight logical clients share **one** TCP socket
//! ([`MuxClient`] clones over a [`MuxConn`]) and race queries against a
//! mutating server, every answer checked against the same sequential
//! oracle as `server_concurrency.rs` — for exactly the generation the
//! server stamped on it. Plus the v2-specific paths: out-of-order
//! stream completion, per-stream typed `overloaded`, multi-document
//! routing with per-document cache invalidation, protocol gating, the
//! json ≡ binary end-to-end agreement, and the client-side
//! write-timeout poisoning regression.

use blas::{BlasCollection, BlasDb, DLabel, EngineChoice};
use blas_server::{
    Client, ClientError, Json, MuxClient, Proto, ProtoAccept, Server, ServerConfig,
};
use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Logical clients multiplexed onto the single socket.
const CLIENTS: usize = 8;
/// Mutation steps; the suite spans generations `0..=STEPS`.
const STEPS: usize = 9;

const SRC: &str = concat!(
    "<db><e><p><n>cytochrome c</n></p><r><y>2001</y></r></e>",
    "<e><p><n>hemoglobin</n></p><r><y>1999</y></r></e></db>"
);
const QUERIES: &[&str] = &["//n", "//y", "/db/e", "//e[p]"];
const ENGINES: &[&str] = &["auto", "rdbms", "twig", "twigstack"];

/// A recorded mutation, replayable over the wire.
#[derive(Debug, Clone)]
enum Op {
    Insert { parent: u32, xml: String },
    Retag { start: u32, tag: String },
    Delete { start: u32 },
}

/// Replay the deterministic mutation script on the oracle, recording
/// the wire-replayable ops and every query's answer per generation
/// (identical to `server_concurrency.rs`, so both suites hold the
/// server to the same truth).
fn build_script(oracle: &BlasDb) -> (Vec<Op>, Vec<Vec<Vec<DLabel>>>) {
    let answers = |db: &BlasDb| -> Vec<Vec<DLabel>> {
        QUERIES
            .iter()
            .map(|q| db.query(q, EngineChoice::auto()).unwrap().nodes)
            .collect()
    };
    let mut ops = Vec::with_capacity(STEPS);
    let mut expected = vec![answers(oracle)];
    for step in 0..STEPS {
        let snap = oracle.snapshot();
        let op = match step % 3 {
            0 => Op::Insert { parent: 0, xml: "<e><p><n>new</n></p></e>".into() },
            1 => {
                let rec = snap
                    .store()
                    .scan_all()
                    .filter(|(_, r)| r.level == 4)
                    .max_by_key(|(_, r)| r.start)
                    .map(|(_, r)| r)
                    .unwrap();
                let to = if oracle.tags().name(rec.tag) == "n" { "y" } else { "n" };
                Op::Retag { start: rec.start, tag: to.into() }
            }
            _ => {
                let start = snap
                    .store()
                    .scan_all()
                    .filter(|(_, r)| r.level == 2)
                    .max_by_key(|(_, r)| r.start)
                    .map(|(_, r)| r.start)
                    .unwrap();
                Op::Delete { start }
            }
        };
        let generation = match &op {
            Op::Insert { parent, xml } => oracle.insert_subtree(*parent, xml).unwrap(),
            Op::Retag { start, tag } => oracle.retag(*start, tag).unwrap(),
            Op::Delete { start } => oracle.delete(*start).unwrap(),
        };
        assert_eq!(generation, (step + 1) as u64, "oracle script must be deterministic");
        ops.push(op);
        expected.push(answers(oracle));
    }
    (ops, expected)
}

fn as_triples(labels: &[DLabel]) -> Vec<(u32, u32, u16)> {
    labels.iter().map(|d| (d.start, d.end, d.level)).collect()
}

/// Tentpole acceptance: eight logical clients — one replaying the
/// mutation script, seven firing queries across all four engine
/// tokens — interleaved over **one** multiplexed binary socket, with
/// every reply matching the oracle for the generation the server
/// reported. The server must see exactly one connection.
#[test]
fn eight_multiplexed_clients_race_mutations_on_one_socket() {
    let oracle = BlasDb::load(SRC).unwrap();
    let (script, expected) = build_script(&oracle);

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { read_timeout: Some(Duration::from_secs(30)), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let mux = MuxClient::connect(addr, Some(Duration::from_secs(30))).expect("mux connects");
    let done = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);
    let observed: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    // Everyone completes a generation-0 round before the writer
    // starts, so generation 0 is deterministically covered.
    let start = Barrier::new(CLIENTS);

    std::thread::scope(|s| {
        for client_no in 0..CLIENTS - 1 {
            let reader = mux.clone();
            let (expected, done, checked, observed, start) =
                (&expected, &done, &checked, &observed, &start);
            s.spawn(move || {
                let mut round = 0usize;
                let check_round = |round: usize| {
                    for (qi, q) in QUERIES.iter().enumerate() {
                        let engine = ENGINES[(client_no + round + qi) % ENGINES.len()];
                        let reply = reader
                            .query(q, engine)
                            .unwrap_or_else(|e| panic!("{q} on {engine}: {e}"));
                        let generation = reply.generation as usize;
                        assert_eq!(
                            reply.nodes,
                            as_triples(&expected[generation][qi]),
                            "stream {client_no}: {q} on {engine} diverged from the \
                             oracle at generation {generation}"
                        );
                        assert_eq!(reply.count, expected[generation][qi].len());
                        observed.lock().unwrap().insert(reply.generation);
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                };
                check_round(round);
                start.wait();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    round += 1;
                    check_round(round);
                    if finished {
                        break;
                    }
                }
            });
        }

        // The writer stream: replays the script, and after each
        // publish verifies the new generation's answers itself.
        let writer = mux.clone();
        let (script, expected, done, observed, start) =
            (&script, &expected, &done, &observed, &start);
        s.spawn(move || {
            start.wait();
            for (step, op) in script.iter().enumerate() {
                let generation = match op {
                    Op::Insert { parent, xml } => writer.insert_subtree(*parent, xml),
                    Op::Retag { start, tag } => writer.retag(*start, tag),
                    Op::Delete { start } => writer.delete(*start),
                }
                .unwrap_or_else(|e| panic!("step {step} ({op:?}): {e}"));
                assert_eq!(generation, (step + 1) as u64, "wire replay must track the oracle");
                for (qi, q) in QUERIES.iter().enumerate() {
                    let reply = writer.query(q, "auto").unwrap();
                    assert_eq!(
                        reply.generation, generation,
                        "single writer: generation is stable between its steps"
                    );
                    assert_eq!(reply.nodes, as_triples(&expected[generation as usize][qi]));
                }
                observed.lock().unwrap().insert(generation);
            }
            // A structurally invalid mutation is the typed wire error
            // on *its own stream*, not a connection failure.
            let err = writer.delete(9_999).expect_err("deleting a missing node");
            assert!(
                matches!(&err, ClientError::Rpc { code, .. } if code == "mutation"),
                "expected a typed mutation rejection, got {err}"
            );
            done.store(true, Ordering::Release);
        });
    });

    let observed = observed.into_inner().unwrap();
    assert!(
        (0..=STEPS as u64).all(|g| observed.contains(&g)),
        "every generation 0..={STEPS} must have answered queries, saw {observed:?}"
    );
    assert!(checked.load(Ordering::Relaxed) >= (CLIENTS - 1) * 2 * QUERIES.len());
    assert_eq!(db.generation(), STEPS as u64);
    assert!(!mux.conn().is_dead(), "the shared connection must outlive the race");

    let stats = server.shutdown();
    assert_eq!(
        stats.connections_accepted, 1,
        "eight logical clients must multiplex over exactly one connection"
    );
    assert_eq!(stats.overloaded, 0, "nothing should be rejected under the default bound");
    assert!(stats.served as usize >= checked.load(Ordering::Relaxed));
}

/// Streams complete out of order: a held query on one stream must not
/// block a later, faster query on another stream of the same socket.
#[test]
fn streams_complete_out_of_order_on_one_socket() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();

    let held = mux.clone();
    let held_done: Mutex<Option<Instant>> = Mutex::new(None);
    let quick_done = std::thread::scope(|s| {
        let held_done = &held_done;
        let slow = s.spawn(move || {
            let reply = held.query_hold("//n", "auto", 1_500).expect("held query answers");
            *held_done.lock().unwrap() = Some(Instant::now());
            reply
        });
        // Give the held stream time to be admitted first.
        std::thread::sleep(Duration::from_millis(150));
        let reply = mux.query("//y", "auto").expect("quick query answers");
        let quick_done = Instant::now();
        assert!(
            !slow.is_finished(),
            "the held stream must still be in flight when the quick stream answers"
        );
        assert_eq!(reply.count, 2);
        quick_done
    });
    let held_done = held_done.into_inner().unwrap().expect("held stream completed");
    assert!(
        quick_done < held_done,
        "the later stream must complete before the earlier held stream"
    );
    server.shutdown();
}

/// Head of line: a cached hit is answered by the connection's own
/// thread, so it never waits behind a slow stream on the same socket —
/// and the held call, reading for both, hands the hit its reply.
#[test]
fn a_cached_hit_returns_while_a_held_stream_is_in_flight() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    assert!(!mux.query("//n", "auto").unwrap().cached, "the first ask stores the entry");

    let held = mux.clone();
    std::thread::scope(|s| {
        let started = Instant::now();
        let slow = s.spawn(move || held.query_hold("//n", "auto", 600));
        // Give the held stream time to be admitted first.
        std::thread::sleep(Duration::from_millis(100));
        let hit = mux.query("//n", "auto").expect("the hit answers");
        let answered = started.elapsed();
        assert_eq!((hit.cached, hit.count), (true, 2));
        assert!(!slow.is_finished(), "the held stream must still be in flight");
        assert!(answered < Duration::from_millis(600), "the hit waited {answered:?}");
        assert_eq!(slow.join().unwrap().expect("the held stream answers").count, 2);
    });
    let stats = server.shutdown();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
}

/// The miss form of the pin above: a miss sent behind a held stream on
/// the same socket executes beside it and returns first. Run inline on
/// the connection thread, the miss would wait for the held stream, as
/// its frame would not be read until that stream finished.
#[test]
fn a_cache_miss_returns_while_a_held_stream_is_in_flight() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();

    let held = mux.clone();
    std::thread::scope(|s| {
        let started = Instant::now();
        let slow = s.spawn(move || held.query_hold("//n", "auto", 600));
        // Give the held stream time to be admitted first.
        std::thread::sleep(Duration::from_millis(100));
        let miss = mux.query_count("//n", "auto", false).expect("the miss answers");
        let answered = started.elapsed();
        assert_eq!((miss.cached, miss.count), (false, 2));
        assert!(!slow.is_finished(), "the held stream must still be in flight");
        assert!(answered < Duration::from_millis(600), "the miss waited {answered:?}");
        assert_eq!(slow.join().unwrap().expect("the held stream answers").count, 2);
    });
    let stats = server.shutdown();
    assert_eq!((stats.cache_hits, stats.pool_tasks), (0, 2));
}

/// A count-only, cache-bypassing query is answered on the connection
/// thread when its cost is bounded before it runs: its plan is already
/// prepared and the run directory answers it. The first ask of a
/// linear query prepares it on the pool; the repeat is counted in
/// place. A twig is walked, so both of its asks go to the pool. Either
/// way every request counts one plan-cache lookup, and every answer is
/// what the database counts.
#[test]
fn a_directory_count_on_a_prepared_plan_runs_on_the_connection_thread() {
    let oracle = BlasDb::load(SRC).unwrap();
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    // `(pool tasks, plan-cache hits, plan-cache misses)` one count adds.
    let count_adds = |xpath: &str| {
        let before = (server.stats().pool_tasks, db.plan_cache_stats());
        let reply = mux.query_count(xpath, "auto", false).unwrap();
        let after = (server.stats().pool_tasks, db.plan_cache_stats());
        let want = oracle.count(xpath, EngineChoice::auto()).unwrap();
        let got = (reply.generation, reply.cached, reply.count, reply.elements_visited);
        assert_eq!(got, (0, false, want.count, want.stats.elements_visited), "{xpath}");
        let plan = (after.1.hits - before.1.hits, after.1.misses - before.1.misses);
        (after.0 - before.0, plan.0, plan.1)
    };

    assert_eq!(oracle.count("//n", EngineChoice::auto()).unwrap().stats.elements_visited, 0);
    assert_eq!(count_adds("//n"), (1, 0, 1), "the first ask prepares on the pool");
    assert_eq!(count_adds("//n"), (0, 1, 0), "the repeat is counted in place");

    assert!(oracle.count("//e[p]", EngineChoice::auto()).unwrap().stats.elements_visited > 0);
    assert_eq!(count_adds("//e[p]"), (1, 0, 1), "a twig prepares on the pool");
    assert_eq!(count_adds("//e[p]"), (1, 1, 0), "a twig is walked on the pool");

    let stats = server.shutdown();
    assert_eq!((stats.cache_hits, stats.cache_misses, stats.pool_tasks), (0, 0, 3));
}

/// After a write publishes a new generation, an in-place count answers
/// that generation: its plan is prepared once against it (on the pool),
/// then counted off the new run directory, and both answers equal the
/// naive walk of the edited document.
#[test]
fn a_directory_count_after_a_write_answers_the_new_generation() {
    let fragment = "<e><p><n>myoglobin</n></p></e>";
    let edited = SRC.replace("</db>", &format!("{fragment}</db>"));
    let naive = blas_engine::naive::evaluate(
        &blas_xpath::parse("//n").unwrap(),
        &blas_xml::Document::parse(&edited).unwrap(),
    )
    .len();
    assert_eq!(naive, 3);

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    for _ in 0..2 {
        assert_eq!(mux.query_count("//n", "auto", false).unwrap().count, 2);
    }
    assert_eq!(server.stats().pool_tasks, 1);
    assert_eq!(mux.insert_subtree(0, fragment).unwrap(), 1);
    let pool_before = server.stats().pool_tasks;
    for pool_tasks in [1, 1] {
        let reply = mux.query_count("//n", "auto", false).unwrap();
        let got = (reply.generation, reply.count, reply.elements_visited);
        assert_eq!(got, (1, naive, 0));
        assert_eq!(server.stats().pool_tasks - pool_before, pool_tasks);
    }
    server.shutdown();
}

/// Head of line for the in-place count: a directory count on a prepared
/// plan, sent behind a held stream on the same socket, is answered by
/// the connection thread while the held stream is still in flight, and
/// never reaches the pool.
#[test]
fn a_directory_count_returns_while_a_held_stream_is_in_flight() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    assert_eq!(mux.query_count("//n", "auto", false).unwrap().count, 2, "prepares the plan");

    let held = mux.clone();
    std::thread::scope(|s| {
        let started = Instant::now();
        let slow = s.spawn(move || held.query_hold("//y", "auto", 600));
        // Give the held stream time to be admitted first.
        std::thread::sleep(Duration::from_millis(100));
        let counted = mux.query_count("//n", "auto", false).expect("the count answers");
        let answered = started.elapsed();
        assert_eq!((counted.cached, counted.count, counted.elements_visited), (false, 2, 0));
        assert!(!slow.is_finished(), "the held stream must still be in flight");
        assert!(answered < Duration::from_millis(600), "the count waited {answered:?}");
        assert_eq!(slow.join().unwrap().expect("the held stream answers").count, 2);
    });
    let stats = server.shutdown();
    assert_eq!((stats.cache_hits, stats.pool_tasks), (0, 2), "priming and the held stream");
}

/// Admission control is per stream: with one in-flight slot held, a
/// second stream on the same socket is rejected with a typed
/// `overloaded` on *its* stream id — the connection survives, and
/// admission-exempt methods keep working throughout.
#[test]
fn saturated_slot_rejects_sibling_streams_with_typed_overloaded() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_inflight: 1, debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();

    let held = mux.clone();
    std::thread::scope(|s| {
        let slow = s.spawn(move || held.query_hold("//n", "auto", 1_200));
        // Let the held stream win the slot first — binary admission is
        // immediate-reject, so an early probe could bounce *it* instead.
        std::thread::sleep(Duration::from_millis(150));
        let mut rejected = false;
        for _ in 0..50 {
            match mux.query_count("//y", "auto", false) {
                Err(e) if e.is_overloaded() => {
                    rejected = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => panic!("expected overloaded or success, got {e}"),
            }
        }
        assert!(rejected, "a saturated slot must reject sibling streams");
        // Exempt methods bypass admission even while saturated.
        let stats = mux.stats().expect("stats bypasses admission");
        assert_eq!(stats.get("db").and_then(Json::as_str), Some("default"));
        assert!(slow.join().unwrap().is_ok(), "the held stream still answers");
    });
    // The connection is intact: the slot is free again.
    assert!(mux.query_count("//y", "auto", false).is_ok());

    let stats = server.shutdown();
    assert!(stats.overloaded >= 1);
    assert_eq!(stats.connections_accepted, 1);
}

/// Requests carry a database name: one socket reaches every document
/// in the collection, the result cache is keyed per document, and a
/// mutation on one document never invalidates another's entries.
#[test]
fn multiplexed_requests_route_to_named_documents() {
    let mut coll = BlasCollection::new();
    coll.add_shared("alpha", Arc::new(BlasDb::load(SRC).unwrap()));
    coll.add_shared("beta", Arc::new(BlasDb::load("<db><x/><x/><x/></db>").unwrap()));
    let server =
        Server::bind_collection(coll, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(30))).unwrap();
    let alpha = mux.on_db("alpha");
    let beta = mux.on_db("beta");

    // Routing: the same xpath answers differently per document, and
    // the empty name selects the first member (alpha).
    assert_eq!(alpha.query("//n", "auto").unwrap().count, 2);
    assert_eq!(beta.query("//x", "auto").unwrap().count, 3);
    assert_eq!(beta.query("//n", "auto").unwrap().count, 0);
    assert_eq!(mux.query("//n", "auto").unwrap().count, 2);

    // Both documents have warm cache entries now.
    assert!(alpha.query("//n", "auto").unwrap().cached);
    assert!(beta.query("//x", "auto").unwrap().cached);

    // Mutating alpha invalidates alpha's entries only.
    let generation = alpha.insert_subtree(0, "<e><p><n>new</n></p></e>").unwrap();
    assert_eq!(generation, 1);
    let fresh = alpha.query("//n", "auto").unwrap();
    assert_eq!((fresh.generation, fresh.count, fresh.cached), (1, 3, false));
    let kept = beta.query("//x", "auto").unwrap();
    assert_eq!((kept.generation, kept.count, kept.cached), (0, 3, true));

    // Per-document stats see through the same socket.
    let stats = beta.stats().unwrap();
    assert_eq!(stats.get("db").and_then(Json::as_str), Some("beta"));
    assert_eq!(stats.get("documents").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("generation").and_then(Json::as_u64), Some(0));
    let invalidated = stats
        .get("result_cache")
        .and_then(|c| c.get("invalidated"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(invalidated >= 1, "alpha's publish must have dropped its stale entries");

    // An unknown name is a typed error on that stream, not a dead socket.
    let err = mux.on_db("gamma").query("//n", "auto").expect_err("unknown database");
    assert!(matches!(&err, ClientError::Rpc { code, .. } if code == "bad_request"));
    assert_eq!(alpha.query("//n", "auto").unwrap().count, 3);

    // A JSON client reaches the same documents on the same server.
    let mut json_client = Client::connect(server.local_addr(), None).unwrap();
    assert_eq!(json_client.query_on("beta", "//x", "auto").unwrap().count, 3);
    assert_eq!(json_client.query_on("alpha", "//n", "auto").unwrap().count, 3);
    server.shutdown();
}

/// The two encodings agree end to end: a JSON client and a binary
/// client against the same live server get member-for-member identical
/// replies for every query × engine, before and after a mutation.
#[test]
fn binary_and_json_clients_agree_end_to_end() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut json_client = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    let mut bin_client =
        Client::connect_with(addr, Some(Duration::from_secs(10)), Proto::Binary).unwrap();
    assert_eq!(bin_client.proto(), Proto::Binary);

    let agree = |json_client: &mut Client, bin_client: &mut Client| {
        for q in QUERIES {
            for engine in ENGINES {
                // Bypass the cache so `cached` can't differ by arrival order.
                let a = json_client.query_count(q, engine, false).unwrap();
                let b = bin_client.query_count(q, engine, false).unwrap();
                assert_eq!(a, b, "{q} on {engine} must agree across encodings");
                let a = json_client.query(q, engine).unwrap();
                let b = bin_client.query(q, engine).unwrap();
                assert_eq!(
                    (a.generation, a.count, &a.nodes),
                    (b.generation, b.count, &b.nodes),
                    "{q} on {engine}: labeled replies must agree across encodings"
                );
            }
        }
    };
    agree(&mut json_client, &mut bin_client);

    // A mutation through the binary client is visible to both.
    let generation = bin_client.insert_subtree(0, "<e><p><n>new</n></p></e>").unwrap();
    assert_eq!(generation, 1);
    assert_eq!(json_client.query("//n", "auto").unwrap().generation, 1);
    agree(&mut json_client, &mut bin_client);

    // Admin methods have full parity too.
    let a = json_client.stats().unwrap();
    let b = bin_client.stats().unwrap();
    assert_eq!(a.get("db"), b.get("db"));
    assert_eq!(a.get("documents"), b.get("documents"));
    assert_eq!(a.get("generation"), b.get("generation"));
    assert!(bin_client.clear_cache().unwrap() >= 1);
    server.shutdown();
}

/// `ServerConfig::proto` gates each encoding with a typed farewell:
/// a JSON client against a binary-only server gets `bad_request`, and
/// a binary hello against a JSON-only server fails its first call.
#[test]
fn proto_gates_reject_the_other_encoding() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { proto: ProtoAccept::Binary, ..Default::default() },
    )
    .unwrap();
    let mut json_client = Client::connect(server.local_addr(), Some(Duration::from_secs(5)))
        .expect("TCP connect succeeds; the gate answers the first frame");
    let err = json_client.query("//n", "auto").expect_err("JSON is gated off");
    assert!(
        matches!(&err, ClientError::Rpc { code, .. } if code == "bad_request"),
        "expected a typed bad_request farewell, got {err}"
    );
    server.shutdown();

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { proto: ProtoAccept::Json, ..Default::default() },
    )
    .unwrap();
    let mut bin_client =
        Client::connect_with(server.local_addr(), Some(Duration::from_secs(5)), Proto::Binary)
            .unwrap();
    assert!(bin_client.query("//n", "auto").is_err(), "binary is gated off");
    let mux = MuxClient::connect(server.local_addr(), Some(Duration::from_secs(5))).unwrap();
    assert!(mux.query("//n", "auto").is_err(), "mux (binary) is gated off");
    // JSON still works on the same server.
    let mut json_client =
        Client::connect(server.local_addr(), Some(Duration::from_secs(5))).unwrap();
    assert_eq!(json_client.query("//n", "auto").unwrap().count, 2);
    server.shutdown();
}

/// Regression for the write-timeout bugfix: a frame write that times
/// out midway may have left a partial frame on the socket, so the
/// client must poison the connection — the failed call surfaces the
/// transport error and every later call fails fast with `Poisoned`
/// instead of desyncing the stream.
#[test]
fn write_timeout_mid_frame_poisons_the_client() {
    // A peer that accepts and then never reads: the client's write
    // fills the socket buffers and must hit its write timeout.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        // Hold the socket open, unread, long past the client timeout.
        std::thread::sleep(Duration::from_secs(3));
        drop(sock);
    });

    let mut client = Client::connect(addr, Some(Duration::from_millis(300))).unwrap();
    assert!(!client.is_poisoned());
    // Far larger than any kernel send+receive buffer pair, well under
    // the 16 MiB frame bound: the write must block mid-frame.
    let huge = "x".repeat(8 << 20);
    let err = client.query(&huge, "auto").expect_err("the write must time out");
    assert!(matches!(err, ClientError::Io(_)), "expected a transport error, got {err}");
    assert!(client.is_poisoned(), "a mid-frame write failure must poison the connection");
    let err = client.query("//n", "auto").expect_err("poisoned connections fail fast");
    assert!(matches!(err, ClientError::Poisoned), "expected Poisoned, got {err}");
    hold.join().unwrap();
}

/// A peer that answers the first frame of one connection with `reply`,
/// then reads until the client hangs up.
fn single_frame_peer(reply: String) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    use blas_server::{write_frame, FrameReader, ReadEvent};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut frames = FrameReader::new();
        assert!(matches!(frames.poll(&mut sock), Ok(ReadEvent::Frame(_))));
        write_frame(&mut sock, reply.as_bytes()).unwrap();
        while let Ok(ReadEvent::Frame(_)) = frames.poll(&mut sock) {}
    });
    (addr, peer)
}

/// Regression: a JSON response must echo the call's id. One carrying
/// another call's id — or a `null` id on a result — means the stream is
/// misaligned: the call fails `Protocol` and the next one `Poisoned`, on
/// the typed and the generic path alike. A `null` id on an error frame
/// is the server's farewell to a frame it could not attribute, and is
/// the typed error it says.
#[test]
fn a_json_reply_for_another_id_poisons_the_client() {
    let result = concat!(
        r#"{"generation":0,"engine":"auto","cached":false,"count":1,"#,
        r#""elements_visited":1,"nodes":[[1,2,1]]}"#
    );
    let farewell =
        r#"{"id":null,"error":{"code":"overloaded","message":"connection limit reached"}}"#;
    for (reply, typed) in [
        (format!(r#"{{"id":999,"result":{result}}}"#), true),
        (format!(r#"{{"id":999,"result":{result}}}"#), false),
        (format!(r#"{{"result":{result},"id":null}}"#), true),
        (format!(r#"{{"id":"1","result":{result}}}"#), false),
        (farewell.to_string(), true),
        (farewell.to_string(), false),
    ] {
        let (addr, peer) = single_frame_peer(reply.clone());
        let mut client = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
        let ask = |client: &mut Client| match typed {
            true => client.query("//n", "auto").map(|_| ()),
            false => client.call("stats", Json::Obj(Vec::new())).map(|_| ()),
        };
        let err = ask(&mut client).expect_err("no reply here is an answer to the call");
        if reply == farewell {
            assert!(err.is_overloaded(), "{reply}: typed={typed}: {err}");
            assert!(!client.is_poisoned(), "{reply}: a typed error does not poison");
        } else {
            assert!(matches!(err, ClientError::Protocol(_)), "{reply}: typed={typed}: {err}");
            let again = ask(&mut client).expect_err("the connection is poisoned");
            assert!(matches!(again, ClientError::Poisoned), "{reply}: typed={typed}: {again}");
        }
        drop(client);
        peer.join().unwrap();
    }
}

/// Regression: a peer that sends the binary magic and then nothing is
/// held to the idle budget like any other connection — a typed
/// `timeout` on stream 0, then close — instead of keeping its
/// connection slot forever.
#[test]
fn magic_byte_then_silence_gets_a_typed_timeout_then_close() {
    use blas_server::{wire, ErrorCode, FrameReader, ReadEvent, Response};
    use std::io::Write;

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { read_timeout: Some(Duration::from_millis(300)), ..Default::default() },
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A server that never answers fails this test instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(&[wire::MAGIC]).unwrap();
    let mut reader = FrameReader::new();
    let frame = match reader.poll(&mut stream).unwrap() {
        ReadEvent::Frame(f) => f,
        other => panic!("expected a timeout frame within 10 s, got {other:?}"),
    };
    let (sid, resp) = wire::decode_response(&frame).unwrap();
    assert_eq!(sid, 0, "the farewell goes on stream 0");
    assert!(matches!(resp, Response::Error { code: ErrorCode::Timeout, .. }), "{resp:?}");
    assert!(
        matches!(reader.poll(&mut stream), Ok(ReadEvent::Eof) | Err(_)),
        "the connection closes after the farewell"
    );
    assert_eq!(server.shutdown().timeouts, 1);
}

/// Regression: the idle budget runs from the last complete frame, not
/// from the last byte. A peer that trickles a frame in one byte per
/// 100 ms under a 300 ms budget — on either wire — gets the typed
/// `timeout` long before its frame could complete.
#[test]
fn a_frame_trickled_byte_by_byte_still_times_out() {
    use blas_server::{wire, ErrorCode, FrameReader, ReadEvent, Response};
    use std::io::Write;

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { read_timeout: Some(Duration::from_millis(300)), ..Default::default() },
    )
    .unwrap();
    // A 64-byte frame at 10 bytes a second takes 6.8 s to arrive.
    let mut frame = 64u32.to_be_bytes().to_vec();
    frame.resize(4 + 64, b' ');
    for binary in [false, true] {
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        if binary {
            stream.write_all(&[wire::MAGIC, wire::VERSION]).unwrap();
        }
        let mut trickle = stream.try_clone().unwrap();
        let bytes = frame.clone();
        let (hang_up, hung_up) = std::sync::mpsc::channel::<()>();
        let trickler = std::thread::spawn(move || {
            for byte in bytes {
                let pause = Duration::from_millis(100);
                if trickle.write_all(&[byte]).is_err() || hung_up.recv_timeout(pause).is_ok() {
                    return;
                }
            }
        });
        let started = Instant::now();
        let reply = match FrameReader::new().poll(&mut stream).unwrap() {
            ReadEvent::Frame(f) => f,
            other => panic!("expected a timeout frame within 10 s, got {other:?}"),
        };
        let waited = started.elapsed();
        if binary {
            let (sid, resp) = wire::decode_response(&reply).unwrap();
            assert_eq!(sid, 0, "the farewell goes on stream 0");
            assert!(matches!(resp, Response::Error { code: ErrorCode::Timeout, .. }), "{resp:?}");
        } else {
            let resp = blas_server::json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
            let code = resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
            assert_eq!(code, Some("timeout"));
        }
        assert!(waited < Duration::from_secs(3), "binary={binary}: timed out after {waited:?}");
        let _ = hang_up.send(());
        trickler.join().unwrap();
    }
    assert_eq!(server.shutdown().timeouts, 2);
}

/// Graceful drain over the mux: a held stream in flight at shutdown
/// still gets its answer; afterwards the connection reports dead and
/// new calls fail fast.
#[test]
fn mux_connection_drains_on_shutdown() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();
    let mux = MuxClient::connect(addr, Some(Duration::from_secs(30))).unwrap();

    let held = mux.clone();
    let reply = std::thread::scope(|s| {
        let pending = s.spawn(move || held.query_hold("//n", "auto", 600));
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown();
        pending.join().unwrap()
    });
    assert_eq!(reply.expect("in-flight stream answered during drain").count, 2);

    // The drained server is gone: the socket closes and later calls
    // fail fast instead of hanging.
    for _ in 0..100 {
        if mux.conn().is_dead() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(mux.conn().is_dead());
    assert!(mux.query("//n", "auto").is_err());
    assert!(
        Client::connect(addr, Some(Duration::from_millis(200)))
            .and_then(|mut c| c.query("//n", "auto"))
            .is_err(),
        "the listening socket must be gone after shutdown"
    );
}
