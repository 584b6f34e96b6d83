//! The traced run: one connection, a fixed op count of the same
//! script, and a span at every layer boundary this package can reach.
//!
//! The system under test has no spans of its own yet, so the children
//! of each `client.call` root are *replays*: after the reply and
//! before the next request, the same request is pushed through the
//! layer's public functions on the same `Arc<BlasDb>` and timed here.
//! A layer's self time is its span minus its children; what the
//! replays cannot explain of the root is `server.envelope` (framing,
//! thread hand-offs, admission, cache probe and insert, socket). Spans stay in
//! memory and are written out when the pass ends.

use crate::load::{rate, WriteKind, Writer};
use crate::oracle::{MarkerModel, Oracle};
use crate::script::{Check, Op, Read, Script, FRAGMENT, RETAG_TO};
use crate::setup::{Conn, Served, SetupSpans};
use crate::spec::{StoreKind, Wire, Workload};
use crate::stats::p50_or_zero;
use blas::{BlasDb, EngineChoice, Translator};
use blas_server::wire::{self, NodesBlob, Request, Response};
use blas_server::{json, Json, QueryReply};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round trips behind each floor measurement.
const FLOOR_ROUND_TRIPS: usize = 1000;

/// Distinct reads (at most) and repetitions in the mapped-vs-owned replay.
const STORE_PAIR_READS: usize = 32;
const STORE_PAIR_REPS: usize = 5;

/// One recorded span. Spans of one operation share `op`; a replayed
/// span happened after its root, on this thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub op: u32,
    pub name: &'static str,
    /// `""` for a root.
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where one op's time went, ns. `root` is the client-observed call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Budget {
    root: f64,
    wire: f64,
    query: f64,
    exec: f64,
    blob: f64,
    prepare: f64,
    write: f64,
    first_read: f64,
}

impl Budget {
    /// What the replays leave unexplained.
    fn envelope(&self) -> f64 {
        self.root - self.wire - self.query - self.blob - self.prepare - self.write - self.first_read
    }
}

/// Fold one op's spans into its budget: each layer's own span, with
/// `engine.exec` reported apart from the `core.query` that contains it.
fn budget_of(spans: &[Span]) -> Budget {
    let mut b = Budget::default();
    for s in spans {
        let d = s.dur_ns() as f64;
        match s.name {
            "client.call" => b.root = d,
            "server.wire" => b.wire = d,
            "core.query" => b.query = d,
            "engine.exec" => b.exec = d,
            "server.blob" => b.blob = d,
            "core.prepare" => b.prepare = d,
            "core.write" => b.write = d,
            "core.first_read_after_publish" => b.first_read = d,
            _ => {}
        }
    }
    b
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        op: u32,
        name: &'static str,
        parent: &'static str,
        t0: Instant,
        t1: Instant,
        replay: bool,
    ) {
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns,
            replay,
        });
    }

    /// Time `f` as a replayed child span.
    fn replay<T>(
        &mut self,
        op: u32,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.push(op, name, parent, t0, t1, true);
        (out, t1 - t0)
    }
}

fn query_request(r: &Read) -> Request {
    Request::Query {
        db: String::new(),
        xpath: r.xpath.clone(),
        engine: r.engine.to_string(),
        labels: r.labels,
        cache: r.cache,
        hold_ms: None,
    }
}

fn query_response(r: &Read, reply: &QueryReply) -> Response {
    Response::Query {
        generation: reply.generation,
        engine: reply.engine.clone(),
        cached: reply.cached,
        count: reply.count as u64,
        elements_visited: reply.elements_visited,
        nodes: r
            .labels
            .then(|| Arc::new(NodesBlob::from_triples(reply.nodes.iter().copied()))),
    }
}

/// Push one request and its reply through the wire's codec, both
/// directions, as the client and the server do around the socket.
/// Returns the reply's size on the wire (frame header included).
fn codec_round_trip(wire_kind: Wire, req: &Request, resp: &Response) -> Result<usize, String> {
    let reply_len = match wire_kind {
        Wire::Binary => {
            let mut frame = Vec::new();
            wire::encode_request(1, req, &mut frame).map_err(|e| e.to_string())?;
            let (sid, body) = wire::split_stream_id(&frame).map_err(|e| e.to_string())?;
            black_box(wire::decode_request_body(body).map_err(|e| e.to_string())?);
            let mut out = Vec::new();
            wire::encode_response(sid, resp, &mut out);
            let (_, decoded) = wire::decode_response(&out).map_err(|e| e.to_string())?;
            if let Response::Query {
                nodes: Some(blob), ..
            } = &decoded
            {
                black_box(blob.triples());
            }
            out.len()
        }
        Wire::Json => {
            let id = Json::uint(1);
            let text = req.to_json(&id).to_string();
            let parsed = json::parse(&text).map_err(|e| e.to_string())?;
            let params = parsed.get("params").ok_or("request lacks params")?;
            black_box(Request::from_json(req.method(), params).map_err(|e| e.1)?);
            let out = resp.to_json(&id).to_string();
            black_box(json::parse(&out).map_err(|e| e.to_string())?);
            out.len()
        }
    };
    Ok(reply_len + 4)
}

/// The translator `Translator::Auto` resolves to under an engine token
/// (Unfold where unions can run, Push-up on the twig engines).
fn translator_for(engine: &str) -> Translator {
    match engine {
        "twig" | "twigstack" => Translator::PushUp,
        _ => Translator::Unfold,
    }
}

/// p50 round trip of a 16-byte echo over a loopback TCP connection
/// inside this process: the sandbox's floor, which no change to the
/// system can beat.
fn loopback_rtt_us() -> Result<f64, String> {
    let io = |e: std::io::Error| format!("loopback echo: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut buf = [0u8; 16];
        while s.read_exact(&mut buf).is_ok() {
            s.write_all(&buf)?;
        }
        Ok(())
    });
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(io)?;
    let mut buf = [7u8; 16];
    let mut us = Vec::with_capacity(FLOOR_ROUND_TRIPS);
    for i in 0..FLOOR_ROUND_TRIPS + 100 {
        let t0 = Instant::now();
        s.write_all(&buf).map_err(io)?;
        s.read_exact(&mut buf).map_err(io)?;
        if i >= 100 {
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(s);
    echo.join()
        .map_err(|_| "the echo thread panicked")?
        .map_err(io)?;
    Ok(p50_or_zero(&us))
}

/// p50 round trip of the admission-bypassing `stats` method.
fn rpc_floor_us(conn: &mut Conn) -> Result<f64, String> {
    let mut us = Vec::with_capacity(FLOOR_ROUND_TRIPS);
    for i in 0..FLOOR_ROUND_TRIPS + 100 {
        let t0 = Instant::now();
        conn.stats().map_err(|e| format!("stats: {e}"))?;
        if i >= 100 {
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    Ok(p50_or_zero(&us))
}

/// The same warm reads against the owned and the mapped database,
/// interleaved: owned time over mapped time (below 1: mapped is slower).
fn mapped_over_owned(owned: &BlasDb, mapped: &BlasDb, script: &Script) -> Result<f64, String> {
    let mut owned_ns = 0.0;
    let mut mapped_ns = 0.0;
    for i in script.first_pass().into_iter().take(STORE_PAIR_READS) {
        let read = &script.reads[i];
        let choice: EngineChoice = read.engine.parse().map_err(|e| format!("{e}"))?;
        let timed = |db: &BlasDb| -> Result<f64, String> {
            let t0 = Instant::now();
            black_box(
                db.query(&read.xpath, choice)
                    .map_err(|e| format!("{}: {e}", read.xpath))?,
            );
            Ok(t0.elapsed().as_nanos() as f64)
        };
        timed(owned)?;
        timed(mapped)?;
        let (mut o, mut m) = (Vec::new(), Vec::new());
        for _ in 0..STORE_PAIR_REPS {
            o.push(timed(owned)?);
            m.push(timed(mapped)?);
        }
        owned_ns += p50_or_zero(&o);
        mapped_ns += p50_or_zero(&m);
    }
    Ok(owned_ns / mapped_ns)
}

/// What the traced run hands back.
pub struct TraceOutcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans_path: PathBuf,
}

/// What the traced pass accumulates besides spans.
#[derive(Default)]
struct Tally {
    budgets: Vec<Budget>,
    parse_us: Vec<f64>,
    translate_us: Vec<f64>,
    opt_us: Vec<f64>,
    /// Indexed by `WriteKind as usize`.
    write_ms: [Vec<f64>; 3],
    compact_ms: Vec<f64>,
    delta_rows: Vec<f64>,
    reply_bytes: usize,
    replies: usize,
    visited: u64,
    results: u64,
    exec_ns: u64,
}

/// The single client of the bare and the traced pass.
struct Tracer<'a> {
    wire: Wire,
    script: &'a Script,
    oracle: &'a Oracle,
    db: Arc<BlasDb>,
    conn: Conn,
    model: Arc<MarkerModel>,
    writer: Option<Writer>,
    /// Position in the cyclic script.
    cursor: usize,
    /// A mutation or compaction published since the last read.
    publish_pending: bool,
    markers: Vec<(u64, u64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    rec: Recorder,
    tally: Tally,
}

/// After a write that asked for a compaction: wait for it, so the next
/// op does not race it, and return when it was seen done.
fn await_compaction(db: &BlasDb, before: u64) -> Result<Instant, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while db.delta_stats().compactions == before {
        if Instant::now() > deadline {
            return Err("a background compaction did not finish in 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok(Instant::now())
}

impl Tracer<'_> {
    fn next_op(&mut self) -> Op {
        let ops = &self.script.per_client[0];
        let op = ops[self.cursor % ops.len()];
        self.cursor += 1;
        self.attempted += 1;
        op
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn check_read(&mut self, read: &Read, reply: &QueryReply) {
        match read.check {
            Check::Count(slot) => {
                if !self.oracle.check(slot, reply.count as u64) {
                    self.fail(format!(
                        "{} [{}]: wrong count {}",
                        read.xpath, read.engine, reply.count
                    ));
                }
            }
            Check::Marker => self.markers.push((reply.generation, reply.count as u64)),
        }
    }

    /// One op with no replays; its latency in µs when it succeeded.
    fn bare_op(&mut self) -> Result<Option<f64>, String> {
        let script = self.script;
        let t0 = Instant::now();
        match self.next_op() {
            Op::Read(i) => match self.conn.read(&script.reads[i]) {
                Ok(reply) => {
                    let us = t0.elapsed().as_nanos() as f64 / 1e3;
                    self.check_read(&script.reads[i], &reply);
                    Ok(Some(us))
                }
                Err(e) => {
                    self.fail(format!("{}: {e}", script.reads[i].xpath));
                    Ok(None)
                }
            },
            Op::Write => {
                let writer = self
                    .writer
                    .as_mut()
                    .expect("a script with writes has a writer");
                let compactions = self.db.delta_stats().compactions;
                match writer.write(&mut self.conn) {
                    Ok(_) => {
                        let us = t0.elapsed().as_nanos() as f64 / 1e3;
                        if writer.compaction_due() {
                            await_compaction(&self.db, compactions)?;
                        }
                        Ok(Some(us))
                    }
                    Err(e) => {
                        self.fail(format!("write: {e}"));
                        Ok(None)
                    }
                }
            }
        }
    }

    /// One op with its root span and every replayed child.
    fn traced_op(&mut self, op_id: u32) -> Result<(), String> {
        let first_span = self.rec.spans.len();
        let script = self.script;
        let completed = match self.next_op() {
            Op::Read(i) => self.traced_read(op_id, &script.reads[i])?,
            Op::Write => self.traced_write(op_id)?,
        };
        if completed {
            self.tally
                .budgets
                .push(budget_of(&self.rec.spans[first_span..]));
        }
        Ok(())
    }

    fn traced_read(&mut self, op_id: u32, read: &Read) -> Result<bool, String> {
        let plan_misses = self.db.plan_cache_stats().misses;
        let t0 = Instant::now();
        let reply = self.conn.read(read);
        let t1 = Instant::now();
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("{}: {e}", read.xpath));
                return Ok(false);
            }
        };
        let plan_missed = self.db.plan_cache_stats().misses > plan_misses;
        self.rec.push(op_id, "client.call", "", t0, t1, false);
        self.check_read(read, &reply);

        let (req, resp) = (query_request(read), query_response(read, &reply));
        let wire = self.wire;
        let (len, wire_time) = self.rec.replay(op_id, "server.wire", "client.call", || {
            codec_round_trip(wire, &req, &resp)
        });
        self.tally.reply_bytes += len?;
        self.tally.replies += 1;

        if std::mem::take(&mut self.publish_pending) {
            // The first read of a generation pays for that generation's
            // lazily rebuilt views; a warm replay cannot reproduce that,
            // so the whole of the call beyond the codec is booked here.
            self.rec.push(
                op_id,
                "core.first_read_after_publish",
                "client.call",
                t0,
                t1 - wire_time,
                false,
            );
            return Ok(true);
        }
        let db = Arc::clone(&self.db);
        let choice: EngineChoice = read.engine.parse().map_err(|e| format!("{e}"))?;
        if !reply.cached {
            let (result, _) = self.rec.replay(op_id, "core.query", "client.call", || {
                db.query(&read.xpath, choice)
            });
            let result = result.map_err(|e| format!("replay {}: {e}", read.xpath))?;
            let q1 = self.rec.epoch
                + Duration::from_nanos(self.rec.spans.last().expect("just pushed").end_ns);
            self.rec.push(
                op_id,
                "engine.exec",
                "core.query",
                q1 - result.stats.elapsed,
                q1,
                true,
            );
            self.tally.visited += result.stats.elements_visited;
            self.tally.results += result.nodes.len() as u64;
            self.tally.exec_ns += result.stats.elapsed.as_nanos() as u64;
            // What the server does with a fresh result before
            // answering: serialize the node array in both encodings,
            // asked for or not.
            self.rec.replay(op_id, "server.blob", "client.call", || {
                black_box(NodesBlob::from_triples(
                    result.nodes.iter().map(|d| (d.start, d.end, d.level)),
                ))
            });
        }
        if plan_missed {
            // A key the plan cache has never seen: the same query text
            // plus insignificant trailing space. (Clearing the cache
            // instead would make the *next* served op's insert cheaper
            // than it is in the untraced run.)
            let fresh = format!("{} ", read.xpath);
            let (info, prepare) = self.rec.replay(op_id, "core.prepare", "client.call", || {
                db.plan_info(&fresh, choice)
            });
            if info
                .map_err(|e| format!("replay plan_info {fresh:?}: {e}"))?
                .cached
            {
                self.rec.spans.pop();
                return Ok(true);
            }
            let (tree, parse) = self.rec.replay(op_id, "xpath.parse", "core.prepare", || {
                blas_xpath::parse(&fresh)
            });
            tree.map_err(|e| format!("replay parse {fresh:?}: {e}"))?;
            let t = Instant::now();
            db.plan(&fresh, translator_for(read.engine))
                .map_err(|e| format!("replay plan {fresh:?}: {e}"))?;
            let translate = t.elapsed().saturating_sub(parse);
            self.rec.push(
                op_id,
                "translate.plan",
                "core.prepare",
                t,
                t + translate,
                true,
            );
            self.tally.parse_us.push(parse.as_nanos() as f64 / 1e3);
            self.tally
                .translate_us
                .push(translate.as_nanos() as f64 / 1e3);
            self.tally
                .opt_us
                .push(prepare.saturating_sub(parse + translate).as_nanos() as f64 / 1e3);
        }
        Ok(true)
    }

    fn traced_write(&mut self, op_id: u32) -> Result<bool, String> {
        let writer = self
            .writer
            .as_mut()
            .expect("a script with writes has a writer");
        let (kind, target) = (writer.next_kind(), writer.next_target());
        let compactions = self.db.delta_stats().compactions;
        let t0 = Instant::now();
        let done = writer.write(&mut self.conn);
        let t1 = Instant::now();
        let due = writer.compaction_due();
        let generation = match done {
            Ok(g) => g,
            Err(e) => {
                self.fail(format!("write: {e}"));
                return Ok(false);
            }
        };
        self.rec.push(op_id, "client.call", "", t0, t1, false);
        let req = match kind {
            WriteKind::Insert => Request::InsertSubtree {
                db: String::new(),
                parent_start: 0,
                xml: FRAGMENT.into(),
            },
            WriteKind::Retag => Request::Retag {
                db: String::new(),
                start: target,
                tag: RETAG_TO.into(),
            },
            WriteKind::Delete => Request::Delete {
                db: String::new(),
                start: target,
            },
        };
        let resp = Response::Generation { generation };
        let wire = self.wire;
        let (len, wire_time) = self.rec.replay(op_id, "server.wire", "client.call", || {
            codec_round_trip(wire, &req, &resp)
        });
        len?;
        // A mutation cannot be replayed without mutating again:
        // everything beyond the codec is booked to core.
        self.rec.push(
            op_id,
            "core.write",
            "client.call",
            t0,
            t1 - wire_time,
            false,
        );
        self.tally.write_ms[kind as usize].push((t1 - t0 - wire_time).as_nanos() as f64 / 1e6);
        let delta = self.db.delta_stats();
        self.tally
            .delta_rows
            .push((delta.inserted + delta.deleted) as f64);
        self.publish_pending = true;
        if due {
            let seen = await_compaction(&self.db, compactions)?;
            self.rec.push(op_id, "core.compact", "", t1, seen, false);
            self.tally
                .compact_ms
                .push((seen - t1).as_nanos() as f64 / 1e6);
        }
        Ok(true)
    }
}

/// Per-layer metrics of the traced pass: `*_us` are p50 over the ops
/// that have the span, `*_share` are Σ self time / Σ `client.call`.
fn layer_metrics(t: &Tally, bare_us: &[f64], m: &mut BTreeMap<&'static str, f64>) {
    let us = |f: fn(&Budget) -> f64, keep: fn(&Budget) -> bool| -> f64 {
        p50_or_zero(
            &t.budgets
                .iter()
                .filter(|b| keep(b))
                .map(|b| f(b) / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let total: f64 = t.budgets.iter().map(|b| b.root).sum();
    let share = |f: fn(&Budget) -> f64| t.budgets.iter().map(f).sum::<f64>() / total;
    let call_us = us(|b| b.root, |_| true);
    m.insert("client.call_us", call_us);
    m.insert("trace_overhead", call_us / p50_or_zero(bare_us));
    m.insert(
        "server.envelope_us",
        us(Budget::envelope, |b| b.write == 0.0 && b.first_read == 0.0),
    );
    m.insert("server.envelope_share", share(Budget::envelope));
    m.insert("server.wire_us", us(|b| b.wire, |_| true));
    m.insert("server.wire_share", share(|b| b.wire));
    m.insert(
        "server.reply_bytes_per_op",
        t.reply_bytes as f64 / t.replies.max(1) as f64,
    );
    m.insert("server.blob_us", us(|b| b.blob, |b| b.query > 0.0));
    m.insert("server.blob_share", share(|b| b.blob));
    m.insert("core.prepare_us", us(|b| b.prepare, |b| b.prepare > 0.0));
    m.insert("core.prepare_share", share(|b| b.prepare));
    m.insert("xpath.parse_us", p50_or_zero(&t.parse_us));
    m.insert("translate.plan_us", p50_or_zero(&t.translate_us));
    m.insert("engine.opt_us", p50_or_zero(&t.opt_us));
    m.insert("core.query_us", us(|b| b.query, |b| b.query > 0.0));
    m.insert("core.query_share", share(|b| b.query - b.exec));
    m.insert("engine.exec_us", us(|b| b.exec, |b| b.query > 0.0));
    m.insert("engine.exec_share", share(|b| b.exec));
    m.insert(
        "engine.elements_visited_per_result",
        t.visited as f64 / t.results.max(1) as f64,
    );
    m.insert(
        "engine.ns_per_element",
        t.exec_ns as f64 / t.visited.max(1) as f64,
    );
    m.insert(
        "core.write_insert_ms",
        p50_or_zero(&t.write_ms[WriteKind::Insert as usize]),
    );
    m.insert(
        "core.write_retag_ms",
        p50_or_zero(&t.write_ms[WriteKind::Retag as usize]),
    );
    m.insert(
        "core.write_delete_ms",
        p50_or_zero(&t.write_ms[WriteKind::Delete as usize]),
    );
    m.insert("core.write_share", share(|b| b.write));
    m.insert(
        "core.first_read_after_publish_ms",
        us(|b| b.first_read, |b| b.first_read > 0.0) / 1e3,
    );
    m.insert("core.first_read_share", share(|b| b.first_read));
    m.insert("core.compact_ms", p50_or_zero(&t.compact_ms));
    m.insert("storage.delta_rows", p50_or_zero(&t.delta_rows));
}

/// Run the traced pass over `served` (one connection, both stores kept).
pub fn run(
    workload: &Workload,
    served: &mut Served,
    setup: &SetupSpans,
    script: &Script,
    oracle: &Oracle,
    seconds: f64,
    dir: &Path,
) -> Result<TraceOutcome, String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("xml.parse_s", setup.xml_parse_s);
    m.insert("core.index_s", setup.index_s);
    m.insert("storage.snapshot_encode_s", setup.snapshot_encode_s);
    m.insert("storage.snapshot_write_s", setup.snapshot_write_s);
    m.insert("storage.open_mapped_s", setup.open_mapped_s);
    m.insert("server.bind_s", setup.bind_s);
    m.insert("server.first_pass_s", setup.first_pass_s);

    let db = Arc::clone(&served.db);
    let other = served
        .other
        .clone()
        .ok_or("the traced run needs both stores")?;
    let (owned, mapped) = match workload.store {
        StoreKind::Owned => (&db, &other),
        StoreKind::Mapped => (&other, &db),
    };
    m.insert(
        "storage.mapped_over_owned",
        mapped_over_owned(owned, mapped, script)?,
    );
    m.insert("os.loopback_rtt_us", loopback_rtt_us()?);
    let mut conn = served.conns.pop().ok_or("no connection")?;
    m.insert("server.rpc_floor_us", rpc_floor_us(&mut conn)?);

    let model = Arc::new(MarkerModel::new(db.generation(), 0));
    let mut tracer = Tracer {
        wire: workload.wire,
        script,
        oracle,
        writer: script
            .has_writes()
            .then(|| Writer::new(Arc::clone(&db), Arc::clone(&model), served.root_end)),
        model,
        db: Arc::clone(&db),
        conn,
        // Start past what the set-up's first pass already sent, so a
        // script too wide for the caches is not met by them.
        cursor: script.first_pass().len() % script.per_client[0].len(),
        publish_pending: false,
        markers: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        rec: Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(workload.traced_ops * 6),
        },
        tally: Tally::default(),
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    // Bare pass: the same single-client loop with no replays. Its p50
    // is what the traced roots are compared with, and its counter
    // movement gives the cache hit rates undisturbed by replays.
    let before = (served.server.stats(), db.plan_cache_stats());
    let mut bare_us = Vec::with_capacity(workload.traced_ops);
    for _ in 0..workload.traced_ops {
        if Instant::now() > deadline {
            break;
        }
        bare_us.extend(tracer.bare_op()?);
    }
    let after = (served.server.stats(), db.plan_cache_stats());
    m.insert(
        "server.result_cache_hit_rate",
        rate(
            after.0.cache_hits - before.0.cache_hits,
            after.0.cache_misses - before.0.cache_misses,
        ),
    );
    m.insert(
        "server.overloaded",
        (after.0.overloaded - before.0.overloaded) as f64,
    );
    m.insert(
        "core.plan_cache_hit_rate",
        rate(
            after.1.hits - before.1.hits,
            after.1.misses - before.1.misses,
        ),
    );

    // Traced pass.
    let compactions_before = db.delta_stats().compactions;
    for op_id in 0..workload.traced_ops as u32 {
        if Instant::now() > deadline {
            break;
        }
        tracer.traced_op(op_id)?;
    }
    m.insert(
        "core.compactions",
        (db.delta_stats().compactions - compactions_before) as f64,
    );

    // Settle the marker replies against the finished model.
    for (generation, count) in std::mem::take(&mut tracer.markers) {
        if tracer.model.count_at(generation) != Some(count) {
            tracer.fail(format!("marker: count {count} at generation {generation}"));
        }
    }
    if tracer.tally.budgets.is_empty() || bare_us.is_empty() {
        return Err("the traced run completed no operation".into());
    }
    layer_metrics(&tracer.tally, &bare_us, &mut m);

    let spans_path = dir.join(format!("trace_{}.jsonl", workload.name));
    write_spans(&spans_path, &tracer.rec.spans)?;
    Ok(TraceOutcome {
        metrics: m,
        attempted: tracer.attempted,
        failed: tracer.failed,
        errors: tracer.errors,
        spans_path,
    })
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    for s in spans {
        writeln!(
            out,
            "{{\"op\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replay\":{}}}",
            s.op, s.name, s.parent, s.start_ns, s.end_ns, s.replay
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            name,
            parent,
            start_ns,
            end_ns,
            replay: !parent.is_empty(),
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_the_rest_is_envelope() {
        let spans = [
            span("client.call", "", 0, 1000),
            span("server.wire", "client.call", 1000, 1100),
            span("core.query", "client.call", 1100, 1500),
            span("engine.exec", "core.query", 1200, 1500),
            span("server.blob", "client.call", 1500, 1550),
            span("core.prepare", "client.call", 1550, 1700),
            span("xpath.parse", "core.prepare", 1650, 1660),
        ];
        let b = budget_of(&spans);
        assert_eq!(b.root, 1000.0);
        assert_eq!(b.wire, 100.0);
        assert_eq!(
            b.query - b.exec,
            100.0,
            "core.query's self time excludes engine.exec"
        );
        assert_eq!(b.exec, 300.0);
        assert_eq!(b.prepare, 150.0);
        assert_eq!(b.envelope(), 1000.0 - 100.0 - 400.0 - 50.0 - 150.0);
    }

    #[test]
    fn codec_round_trips_on_both_wires() {
        let read = Read {
            xpath: "/a/b".into(),
            engine: "auto",
            labels: true,
            cache: true,
            check: Check::Count(0),
        };
        let reply = QueryReply {
            generation: 3,
            engine: "auto".into(),
            cached: true,
            count: 2,
            elements_visited: 9,
            nodes: vec![(1, 2, 2), (3, 4, 2)],
        };
        let (req, resp) = (query_request(&read), query_response(&read, &reply));
        let bin = codec_round_trip(Wire::Binary, &req, &resp).unwrap();
        let json = codec_round_trip(Wire::Json, &req, &resp).unwrap();
        assert!(bin > 4 + 20 && json > bin, "binary {bin} B, JSON {json} B");
        let write = Request::Retag {
            db: String::new(),
            start: 5,
            tag: "x".into(),
        };
        codec_round_trip(
            Wire::Binary,
            &write,
            &Response::Generation { generation: 4 },
        )
        .unwrap();
        codec_round_trip(Wire::Json, &write, &Response::Generation { generation: 4 }).unwrap();
    }

    #[test]
    fn loopback_echo_measures_something() {
        assert!(loopback_rtt_us().unwrap() > 0.0);
    }
}
