//! End-to-end suite for the TCP front door: eight concurrent wire
//! clients racing queries against a single mutating server, every
//! answer checked against a sequential oracle for **exactly** the
//! generation the server reported; plus the typed failure paths —
//! admission rejection (`overloaded`), idle timeout, connection-limit
//! rejection, oversized frames — and graceful drain on shutdown.
//!
//! The CI `server` job runs this file with `RUST_TEST_THREADS=4` on
//! multi-core runners; on a single-core host the tests still validate
//! correctness (admission and drain are deterministic, not timed).

use blas::{BlasDb, DLabel, EngineChoice};
use blas_server::{Client, ClientError, Json, Server, ServerConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// Wire clients racing the server simultaneously (one writer + readers).
const CLIENTS: usize = 8;
/// Mutation steps; each publishes exactly one generation, so the suite
/// spans generations `0..=STEPS` — well past the required three.
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
/// (a) the wire-replayable ops and (b) every query's answer per
/// generation. Targets are derived from the live tree, so the wire
/// replay walks the identical generation sequence.
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
            // Append a fresh subtree under the root (rightmost spine).
            0 => Op::Insert { parent: 0, xml: "<e><p><n>new</n></p></e>".into() },
            // Toggle the tag of the newest level-4 node (n ↔ y).
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
            // Delete the newest <e> subtree.
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

/// Tentpole acceptance: 8 concurrent TCP clients — one replaying the
/// mutation script, the rest firing queries across all four engine
/// tokens — and every reply must match the oracle for the generation
/// the server stamped on it.
#[test]
fn eight_wire_clients_race_mutations_across_generations() {
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

    let done = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);
    let observed: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    // Everyone connects and completes a generation-0 round before the
    // writer starts, so generation 0 is deterministically covered.
    let start = Barrier::new(CLIENTS);

    std::thread::scope(|s| {
        for client_no in 0..CLIENTS - 1 {
            let (expected, done, checked, observed, start) =
                (&expected, &done, &checked, &observed, &start);
            s.spawn(move || {
                let mut client = Client::connect(addr, Some(Duration::from_secs(30)))
                    .expect("reader connects");
                let mut round = 0usize;
                let check_round = |client: &mut Client, round: usize| {
                    for (qi, q) in QUERIES.iter().enumerate() {
                        let engine = ENGINES[(client_no + round + qi) % ENGINES.len()];
                        let reply = client
                            .query(q, engine)
                            .unwrap_or_else(|e| panic!("{q} on {engine}: {e}"));
                        let generation = reply.generation as usize;
                        assert_eq!(
                            reply.nodes,
                            as_triples(&expected[generation][qi]),
                            "client {client_no}: {q} on {engine} diverged from the \
                             oracle at generation {generation}"
                        );
                        assert_eq!(reply.count, expected[generation][qi].len());
                        observed.lock().unwrap().insert(reply.generation);
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                };
                check_round(&mut client, round);
                start.wait();
                loop {
                    let finished = done.load(Ordering::Acquire);
                    round += 1;
                    check_round(&mut client, round);
                    if finished {
                        break;
                    }
                }
            });
        }

        // The writer client: replays the script over the wire, and
        // after each publish verifies the new generation's answers
        // itself — deterministic coverage of every generation 1..=STEPS
        // no matter how the readers are scheduled.
        let (script, expected, done, observed, start) =
            (&script, &expected, &done, &observed, &start);
        s.spawn(move || {
            let mut client =
                Client::connect(addr, Some(Duration::from_secs(30))).expect("writer connects");
            start.wait();
            for (step, op) in script.iter().enumerate() {
                let generation = match op {
                    Op::Insert { parent, xml } => client.insert_subtree(*parent, xml),
                    Op::Retag { start, tag } => client.retag(*start, tag),
                    Op::Delete { start } => client.delete(*start),
                }
                .unwrap_or_else(|e| panic!("step {step} ({op:?}): {e}"));
                assert_eq!(generation, (step + 1) as u64, "wire replay must track the oracle");
                for (qi, q) in QUERIES.iter().enumerate() {
                    let reply = client.query(q, "auto").unwrap();
                    assert_eq!(
                        reply.generation, generation,
                        "single writer: generation is stable between its steps"
                    );
                    assert_eq!(reply.nodes, as_triples(&expected[generation as usize][qi]));
                }
                observed.lock().unwrap().insert(generation);
            }
            // A structurally invalid mutation must come back as the
            // typed wire error, not a transport failure.
            let err = client.delete(9_999).expect_err("deleting a missing node");
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

    let stats = server.shutdown();
    assert_eq!(stats.connections_accepted, CLIENTS as u64);
    assert_eq!(stats.overloaded, 0, "nothing should be rejected under the default bound");
    assert!(stats.served as usize >= checked.load(Ordering::Relaxed));
}

/// Admission control is typed and deterministic: with a zero in-flight
/// bound every query and mutation is answered `overloaded` — the
/// server never queues — while admission-exempt methods keep working.
#[test]
fn zero_inflight_bound_rejects_queries_with_typed_overloaded() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_inflight: 0, ..Default::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr(), Some(Duration::from_secs(10))).unwrap();

    for _ in 0..3 {
        let err = client.query("//n", "auto").expect_err("admission bound is zero");
        assert!(err.is_overloaded(), "expected overloaded, got {err}");
    }
    let err = client.insert_subtree(0, "<e/>").expect_err("mutations are admitted too");
    assert!(err.is_overloaded(), "expected overloaded, got {err}");

    // Admission-exempt methods still answer: the server is overloaded,
    // not dead.
    let stats = client.stats().expect("stats bypasses admission");
    assert_eq!(stats.get("overloaded").and_then(Json::as_u64), Some(4));
    assert_eq!(db.generation(), 0, "rejected mutations must not publish");

    let final_stats = server.shutdown();
    assert_eq!(final_stats.overloaded, 4);
}

/// Admission under real concurrency: one slot, one client holding it —
/// a second concurrent query is rejected `overloaded`, and once the
/// slot frees the same connection is served again.
#[test]
fn saturated_inflight_slot_rejects_concurrent_queries() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_inflight: 1, debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let holder = std::thread::spawn(move || {
        let mut client = Client::connect(addr, Some(Duration::from_secs(30))).unwrap();
        let params = Json::Obj(vec![
            ("xpath".into(), Json::str("//n")),
            ("hold_ms".into(), Json::num(1500.0)),
        ]);
        // The probing client below may transiently hold the one slot;
        // retry until this query is the one admitted.
        loop {
            match client.call("query", params.clone()) {
                Ok(r) => break r,
                Err(e) if e.is_overloaded() => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => panic!("holder: {e}"),
            }
        }
    });

    let mut client = Client::connect(addr, Some(Duration::from_secs(30))).unwrap();
    // Wait until the holder's query actually occupies the slot.
    let mut saw_overloaded = false;
    for _ in 0..100 {
        match client.query("//y", "auto") {
            Err(e) if e.is_overloaded() => {
                saw_overloaded = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }
    assert!(saw_overloaded, "a held slot must reject the concurrent query");

    holder.join().unwrap();
    let reply = client.query("//y", "auto").expect("slot freed after the hold");
    assert_eq!(reply.count, 2);
    assert!(server.shutdown().overloaded >= 1);
}

/// An idle connection is closed with a typed `timeout` frame once the
/// read budget is spent — not silently dropped.
#[test]
fn idle_connection_gets_a_typed_timeout_then_close() {
    use blas_server::{FrameReader, ReadEvent};

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { read_timeout: Some(Duration::from_millis(300)), ..Default::default() },
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = FrameReader::new();
    // Send nothing; the server must speak first.
    let frame = loop {
        match reader.poll(&mut stream).unwrap() {
            ReadEvent::Frame(f) => break f,
            ReadEvent::Idle => continue,
            other => panic!("expected a timeout frame, got {other:?}"),
        }
    };
    let resp = blas_server::json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("timeout")
    );
    // …and then the connection is closed.
    let closed = loop {
        match reader.poll(&mut stream) {
            Ok(ReadEvent::Eof) | Err(_) => break true,
            Ok(ReadEvent::Idle) => continue,
            Ok(other) => panic!("expected EOF after the timeout frame, got {other:?}"),
        }
    };
    assert!(closed);
    assert_eq!(server.shutdown().timeouts, 1);
}

/// The connection bound rejects with one inline `overloaded` frame;
/// admitted connections are unaffected, and a freed slot is reusable.
#[test]
fn connection_limit_rejects_inline_and_slots_are_reusable() {
    use blas_server::{FrameReader, ReadEvent};

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { max_connections: 1, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    // A served request proves the connection occupies the one slot.
    assert_eq!(first.query("//n", "auto").unwrap().count, 2);

    let mut second = std::net::TcpStream::connect(addr).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = FrameReader::new();
    let frame = loop {
        match reader.poll(&mut second).unwrap() {
            ReadEvent::Frame(f) => break f,
            ReadEvent::Idle => continue,
            other => panic!("expected a rejection frame, got {other:?}"),
        }
    };
    let resp = blas_server::json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("overloaded")
    );

    // The admitted connection was never disturbed…
    assert_eq!(first.query("//y", "auto").unwrap().count, 2);
    // …and dropping it frees the slot for a new client.
    drop(first);
    let mut third = loop {
        // The slot frees when the connection's thread reads the close;
        // retry until admission succeeds.
        let mut c = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
        match c.query("//n", "auto") {
            Ok(r) => {
                assert_eq!(r.count, 2);
                break c;
            }
            Err(e) if e.is_overloaded() => std::thread::sleep(Duration::from_millis(20)),
            // A rejection can also surface as a transport error: the
            // server writes the `overloaded` frame and closes, so a
            // racing request write sees EPIPE/ECONNRESET instead.
            Err(ClientError::Io(_)) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("unexpected failure: {e}"),
        }
    };
    assert_eq!(third.query("/db/e", "auto").unwrap().count, 2);

    let stats = server.shutdown();
    assert!(stats.connections_rejected >= 1);
}

/// The result cache: a repeat query is a hit with the identical
/// answer; a publish invalidates; `cache: false` bypasses.
#[test]
fn result_cache_hits_are_identical_and_publishes_invalidate() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server =
        Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr(), Some(Duration::from_secs(10))).unwrap();

    let miss = client.query("//n", "auto").unwrap();
    assert!(!miss.cached);
    let hit = client.query("//n", "auto").unwrap();
    assert!(hit.cached, "a repeat of the same (xpath, engine, generation) must hit");
    let fresh = client.query_count("//n", "auto", false).unwrap();
    assert!(!fresh.cached, "cache: false must bypass");
    assert_eq!((hit.generation, &hit.nodes, hit.count), (miss.generation, &miss.nodes, miss.count));
    assert_eq!(fresh.count, miss.count);

    // Different engine token → different cache key, even for the same
    // query string.
    assert!(!client.query("//n", "rdbms").unwrap().cached);

    // A publish moves the generation: the next query is a miss against
    // the new key, answers the new tree, and the superseded entries
    // are pruned by the publish hook.
    let generation = client.insert_subtree(0, "<e><p><n>new</n></p></e>").unwrap();
    let after = client.query("//n", "auto").unwrap();
    assert!(!after.cached, "a new generation must not hit stale entries");
    assert_eq!(after.generation, generation);
    assert_eq!(after.count, miss.count + 1);

    let stats = client.stats().unwrap();
    let cache = stats.get("result_cache").expect("stats exposes the result cache");
    assert!(cache.get("hits").and_then(Json::as_u64).unwrap() >= 1);
    assert!(
        cache.get("invalidated").and_then(Json::as_u64).unwrap() >= 1,
        "the publish hook must prune superseded generations"
    );

    // clear_cache empties it: the same query misses again.
    assert!(client.query("//n", "auto").unwrap().cached);
    assert!(client.clear_cache().unwrap() >= 1);
    assert!(!client.query("//n", "auto").unwrap().cached);

    server.shutdown();
}

/// Malformed input is answered with typed errors — never a hang, never
/// a crash: bad JSON, an unknown method, a broken XPath, and a hostile
/// length prefix.
#[test]
fn malformed_requests_get_typed_errors() {
    use blas_server::{write_frame, FrameReader, ReadEvent, MAX_FRAME_BYTES};

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server =
        Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr, Some(Duration::from_secs(10))).unwrap();
    // A broken XPath comes back as the typed parser error.
    let err = client.query("/db[", "auto").expect_err("unterminated predicate");
    assert!(matches!(&err, ClientError::Rpc { code, .. } if code == "xpath"), "{err}");
    // An unknown engine token is a bad request, not a crash.
    let err = client.query("//n", "warp").expect_err("unknown engine");
    assert!(matches!(&err, ClientError::Rpc { code, .. } if code == "bad_request"), "{err}");
    // Unknown method, missing params: same story.
    let err = client.call("frobnicate", Json::Obj(vec![])).expect_err("unknown method");
    assert!(matches!(&err, ClientError::Rpc { code, .. } if code == "bad_request"), "{err}");
    let err = client.call("query", Json::Obj(vec![])).expect_err("missing xpath");
    assert!(matches!(&err, ClientError::Rpc { code, .. } if code == "bad_request"), "{err}");
    // The connection survived all of it.
    assert_eq!(client.query("//n", "auto").unwrap().count, 2);

    // Raw non-JSON bytes: typed bad_request.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_frame(&mut raw, b"this is not json").unwrap();
    let mut reader = FrameReader::new();
    let frame = loop {
        match reader.poll(&mut raw).unwrap() {
            ReadEvent::Frame(f) => break f,
            ReadEvent::Idle => continue,
            other => panic!("{other:?}"),
        }
    };
    let resp = blas_server::json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("bad_request")
    );

    // A hostile length prefix: typed frame_too_large, then close —
    // without the server allocating the announced size.
    let mut hostile = std::net::TcpStream::connect(addr).unwrap();
    hostile.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    use std::io::Write;
    hostile
        .write_all(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes())
        .unwrap();
    let mut reader = FrameReader::new();
    let frame = loop {
        match reader.poll(&mut hostile).unwrap() {
            ReadEvent::Frame(f) => break f,
            ReadEvent::Idle => continue,
            other => panic!("{other:?}"),
        }
    };
    let resp = blas_server::json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("frame_too_large")
    );

    server.shutdown();
}

/// Shutdown drains: a query already executing finishes and its client
/// gets the answer; afterwards the port stops accepting.
#[test]
fn shutdown_drains_inflight_queries_before_returning() {
    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let server = Server::bind(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig { debug_hold: true, ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr();

    let started = Arc::new(Barrier::new(2));
    let started_in_thread = Arc::clone(&started);
    let held = std::thread::spawn(move || {
        let mut client = Client::connect(addr, Some(Duration::from_secs(30))).unwrap();
        started_in_thread.wait();
        let params = Json::Obj(vec![
            ("xpath".into(), Json::str("//n")),
            ("hold_ms".into(), Json::num(600.0)),
        ]);
        client.call("query", params)
    });

    started.wait();
    // Give the held query time to be admitted, then shut down under it.
    std::thread::sleep(Duration::from_millis(150));
    let stats = server.shutdown();

    let reply = held.join().unwrap().expect("an in-flight query must be drained, not dropped");
    assert_eq!(reply.get("count").and_then(Json::as_u64), Some(2));
    assert!(stats.served >= 1);

    // The listener is gone: fresh connections are refused (or reset
    // before a response), never served.
    match Client::connect(addr, Some(Duration::from_secs(2))) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.query("//n", "auto").is_err(), "a drained server must not serve");
        }
    }
}
