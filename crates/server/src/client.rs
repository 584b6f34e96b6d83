//! Blocking clients for the wire protocol — enough for tests, the
//! bench harness, and scripting against `blas-serve`.
//!
//! Two shapes:
//!
//! - [`Client`] — one request at a time, over either encoding
//!   ([`Proto`]); the JSON default is wire-compatible with pre-v2
//!   servers.
//! - [`MuxConn`]/[`MuxClient`] — binary-only, **multiplexed**: one
//!   socket, many concurrent in-flight calls routed back by stream id
//!   from a dedicated reader thread. Clone the [`MuxClient`] per
//!   thread; they share the connection.
//!
//! ## Poisoning
//!
//! A connection whose framing can no longer be trusted — a write that
//! may have left a partial frame on the socket, a timed-out or
//! truncated read — is **poisoned**: the socket is shut down and every
//! later call fails fast with [`ClientError::Poisoned`] instead of
//! desyncing on stale bytes. Typed server errors (`overloaded`,
//! `xpath`, …) never poison; the stream stays aligned.

use crate::json::{self, Json};
use crate::proto::{frame_buf, json_frame, send_frame, FrameReader, ReadEvent};
use crate::wire::{self, Request, Response};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Which encoding a [`Client`] speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proto {
    /// Length-prefixed JSON-RPC (the default; works against any
    /// server version).
    #[default]
    Json,
    /// Binary v2 (magic-negotiated; exact u64s, memcpy node arrays).
    Binary,
}

/// What a call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or the server closed
    /// the connection mid-response).
    Io(io::Error),
    /// The server sent bytes that are not a valid response frame.
    Protocol(String),
    /// The server answered with a typed error; `code` is the wire
    /// token (`"overloaded"`, `"xpath"`, …).
    Rpc { code: String, message: String },
    /// The connection was poisoned by an earlier framing failure (a
    /// partial write or a timed-out read left the stream desynced);
    /// reconnect to continue.
    Poisoned,
}

impl ClientError {
    /// Was this an admission-control rejection (retry with backoff)?
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Rpc { code, .. } if code == "overloaded")
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Rpc { code, message } => write!(f, "{code}: {message}"),
            ClientError::Poisoned => {
                write!(f, "connection poisoned by an earlier framing failure")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Room for a typical binary request (an XPath and a few flags), so
/// encoding one does not regrow its frame buffer.
const REQUEST_HINT: usize = 128;

/// One decoded `query` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Generation the answer was computed against.
    pub generation: u64,
    /// Engine token the server resolved (echoes the request).
    pub engine: String,
    /// Whether the answer came from the server's result cache.
    pub cached: bool,
    /// Match count.
    pub count: usize,
    /// Elements the engine visited computing the answer.
    pub elements_visited: u64,
    /// Matched nodes as `(start, end, level)` D-labels; empty when the
    /// request asked `labels: false`.
    pub nodes: Vec<(u32, u32, u16)>,
}

/// A blocking connection to a BLAS server.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    proto: Proto,
    poisoned: bool,
    next_id: u64,
}

impl Client {
    /// Connect speaking JSON (compatible with every server version),
    /// with an optional overall socket timeout applied to both reads
    /// and writes (`None` blocks indefinitely).
    pub fn connect(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        Self::connect_with(addr, timeout, Proto::Json)
    }

    /// Connect speaking the chosen encoding. A binary connection sends
    /// its magic + version hello immediately.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
        proto: Proto,
    ) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        if proto == Proto::Binary {
            io::Write::write_all(&mut stream, &[wire::MAGIC, wire::VERSION])?;
        }
        Ok(Client { stream, reader: FrameReader::new(), proto, poisoned: false, next_id: 0 })
    }

    /// The encoding this connection negotiated.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// Whether an earlier framing failure poisoned this connection.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Mark the stream desynced: close the socket so the server drops
    /// its half too, and fail every later call fast.
    fn poison(&mut self) {
        self.poisoned = true;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Issue one call and wait for its response. Returns the
    /// response's `result` value, or the typed error the server sent.
    pub fn call(&mut self, method: &str, params: Json) -> Result<Json, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        self.next_id += 1;
        let id = self.next_id;
        let resp = match self.proto {
            Proto::Json => {
                let req = Json::Obj(vec![
                    ("id".into(), Json::num(id as f64)),
                    ("method".into(), Json::str(method)),
                    ("params".into(), params),
                ]);
                self.write_poisoning(json_frame(&req))?;
                let bytes = self.read_frame()?;
                let text = std::str::from_utf8(&bytes).map_err(|_| {
                    self.poison();
                    ClientError::Protocol("response is not UTF-8".into())
                })?;
                json::parse(text).map_err(|e| {
                    self.poison();
                    ClientError::Protocol(format!("bad response JSON: {e}"))
                })?
            }
            Proto::Binary => {
                let req = Request::from_json(method, &params).map_err(|(code, message)| {
                    ClientError::Rpc { code: code.as_str().into(), message }
                })?;
                let mut frame = frame_buf(REQUEST_HINT);
                wire::encode_request(id, &req, &mut frame)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                self.write_poisoning(frame)?;
                let bytes = self.read_frame()?;
                let (sid, resp) = wire::decode_response(&bytes).map_err(|e| {
                    self.poison();
                    ClientError::Protocol(e.to_string())
                })?;
                if sid != id {
                    self.poison();
                    return Err(ClientError::Protocol(format!(
                        "response for stream {sid}, expected {id}"
                    )));
                }
                resp.to_json(&Json::uint(id))
            }
        };
        if let Some(err) = resp.get("error") {
            let code = err
                .get("code")
                .and_then(Json::as_str)
                .unwrap_or("internal")
                .to_string();
            let message = err
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            return Err(ClientError::Rpc { code, message });
        }
        resp.get("result")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("response has neither result nor error".into()))
    }

    /// Send one frame (begun with [`frame_buf`]) in one write; any
    /// failure — including a timeout that may have left a partial frame
    /// on the socket — poisons the connection before surfacing.
    fn write_poisoning(&mut self, mut frame: Vec<u8>) -> Result<(), ClientError> {
        send_frame(&mut self.stream, &mut frame).map_err(|e| {
            self.poison();
            ClientError::Io(e)
        })
    }

    fn read_frame(&mut self) -> Result<Vec<u8>, ClientError> {
        // The client's socket timeout is the whole deadline, so an
        // Idle poll is terminal here (unlike the server's poll loop)
        // — and the pending response could still land later, so the
        // connection is no longer aligned and must be poisoned.
        match self.reader.poll(&mut self.stream) {
            Ok(ReadEvent::Frame(bytes)) => Ok(bytes),
            Ok(ReadEvent::Idle) => {
                self.poison();
                Err(ClientError::Io(io::ErrorKind::TimedOut.into()))
            }
            Ok(ReadEvent::Eof) => {
                self.poison();
                Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()))
            }
            Ok(ReadEvent::TooLarge(n)) => {
                self.poison();
                Err(ClientError::Protocol(format!("{n}-byte response frame")))
            }
            Err(e) => {
                self.poison();
                Err(ClientError::Io(e))
            }
        }
    }

    /// Run `xpath` with the given engine token (`"auto"`, `"rdbms"`,
    /// `"twig"`, `"twigstack"`) and decode the full reply.
    pub fn query(&mut self, xpath: &str, engine: &str) -> Result<QueryReply, ClientError> {
        let params = Json::Obj(vec![
            ("xpath".into(), Json::str(xpath)),
            ("engine".into(), Json::str(engine)),
        ]);
        let r = self.call("query", params)?;
        decode_query_reply(&r)
    }

    /// Like [`Client::query`], addressed to a named database.
    pub fn query_on(
        &mut self,
        db: &str,
        xpath: &str,
        engine: &str,
    ) -> Result<QueryReply, ClientError> {
        let params = Json::Obj(vec![
            ("db".into(), Json::str(db)),
            ("xpath".into(), Json::str(xpath)),
            ("engine".into(), Json::str(engine)),
        ]);
        let r = self.call("query", params)?;
        decode_query_reply(&r)
    }

    /// Count-only query (`labels: false`). With `use_cache: false` the
    /// result cache is neither consulted nor filled and the server
    /// builds no result: the count comes off the run directory when the
    /// plan allows (`elements_visited` 0), from an execution without
    /// the final copy otherwise.
    pub fn query_count(
        &mut self,
        xpath: &str,
        engine: &str,
        use_cache: bool,
    ) -> Result<QueryReply, ClientError> {
        let params = Json::Obj(vec![
            ("xpath".into(), Json::str(xpath)),
            ("engine".into(), Json::str(engine)),
            ("labels".into(), Json::Bool(false)),
            ("cache".into(), Json::Bool(use_cache)),
        ]);
        let r = self.call("query", params)?;
        decode_query_reply(&r)
    }

    /// Insert a rightmost-spine subtree; returns the new generation.
    pub fn insert_subtree(&mut self, parent_start: u32, xml: &str) -> Result<u64, ClientError> {
        let params = Json::Obj(vec![
            ("parent_start".into(), Json::num(parent_start as f64)),
            ("xml".into(), Json::str(xml)),
        ]);
        generation_of(&self.call("insert_subtree", params)?)
    }

    /// Delete the subtree rooted at `start`; returns the new generation.
    pub fn delete(&mut self, start: u32) -> Result<u64, ClientError> {
        let params = Json::Obj(vec![("start".into(), Json::num(start as f64))]);
        generation_of(&self.call("delete", params)?)
    }

    /// Rename the node at `start`; returns the new generation.
    pub fn retag(&mut self, start: u32, tag: &str) -> Result<u64, ClientError> {
        let params = Json::Obj(vec![
            ("start".into(), Json::num(start as f64)),
            ("tag".into(), Json::str(tag)),
        ]);
        generation_of(&self.call("retag", params)?)
    }

    /// The server's counter snapshot as raw JSON.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call("stats", Json::Obj(Vec::new()))
    }

    /// Drop every result-cache entry; returns how many were dropped.
    pub fn clear_cache(&mut self) -> Result<u64, ClientError> {
        cleared_of(&self.call("clear_cache", Json::Obj(Vec::new()))?)
    }
}

fn generation_of(result: &Json) -> Result<u64, ClientError> {
    result
        .get("generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol("reply lacks \"generation\"".into()))
}

fn cleared_of(result: &Json) -> Result<u64, ClientError> {
    result
        .get("cleared")
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Protocol("clear_cache reply lacks \"cleared\"".into()))
}

fn decode_query_reply(r: &Json) -> Result<QueryReply, ClientError> {
    let bad = |what: &str| ClientError::Protocol(format!("query reply lacks {what}"));
    let nodes = match r.get("nodes") {
        None => Vec::new(),
        Some(v) => {
            // A binary-decoded response renders its node array as a
            // pre-serialized `Json::Raw` splice (the server's
            // zero-copy path); parse it before reading triples.
            let parsed;
            let v = match v {
                Json::Raw(text) => {
                    parsed = json::parse(text).map_err(|e| {
                        ClientError::Protocol(format!("bad nodes splice: {e}"))
                    })?;
                    &parsed
                }
                other => other,
            };
            let arr = v.as_arr().ok_or_else(|| bad("a nodes array"))?;
            let mut out = Vec::with_capacity(arr.len());
            for label in arr {
                let t = label.as_arr().ok_or_else(|| bad("label triples"))?;
                let field = |i: usize| t.get(i).and_then(Json::as_u64);
                match (field(0), field(1), field(2)) {
                    (Some(s), Some(e), Some(l)) => {
                        out.push((s as u32, e as u32, l as u16))
                    }
                    _ => return Err(bad("numeric label triples")),
                }
            }
            out
        }
    };
    Ok(QueryReply {
        generation: r.get("generation").and_then(Json::as_u64).ok_or_else(|| bad("generation"))?,
        engine: r
            .get("engine")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("engine"))?
            .to_string(),
        cached: r.get("cached").and_then(Json::as_bool).unwrap_or(false),
        count: r.get("count").and_then(Json::as_u64).ok_or_else(|| bad("count"))? as usize,
        elements_visited: r
            .get("elements_visited")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("elements_visited"))?,
        nodes,
    })
}

struct MuxShared {
    stream: TcpStream,
    write_lock: Mutex<()>,
    pending: Mutex<HashMap<u64, mpsc::Sender<Response>>>,
    dead: AtomicBool,
    next_stream: AtomicU64,
}

impl MuxShared {
    /// The in-flight calls by stream id (a panicked holder leaves the
    /// map usable).
    fn pending(&self) -> std::sync::MutexGuard<'_, HashMap<u64, mpsc::Sender<Response>>> {
        self.pending.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        // Dropping the senders fails every waiting call fast.
        self.pending().clear();
    }
}

/// A multiplexed binary connection: one socket, many concurrent
/// in-flight calls. All methods take `&self`; wrap in an [`Arc`] (or
/// use [`MuxClient`], which does) and call from as many threads as you
/// like — stream ids route each response back to its caller.
pub struct MuxConn {
    shared: Arc<MuxShared>,
    timeout: Option<Duration>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl MuxConn {
    /// Connect, send the binary hello, and start the reader thread.
    /// `timeout` bounds each individual call's wait for its response;
    /// an expired call returns [`ClientError::Io`] (`TimedOut`) but
    /// does **not** poison the connection — the late response is
    /// discarded by stream id when it lands.
    pub fn connect(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<MuxConn, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(timeout)?;
        io::Write::write_all(&mut stream, &[wire::MAGIC, wire::VERSION])?;
        let shared = Arc::new(MuxShared {
            stream,
            write_lock: Mutex::new(()),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            next_stream: AtomicU64::new(0),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("blas-mux-read".into())
            .spawn(move || mux_read_loop(reader_shared))
            .map_err(ClientError::Io)?;
        Ok(MuxConn { shared, timeout, reader: Some(reader) })
    }

    /// Whether the connection has died (server gone, or a framing
    /// failure on the shared socket).
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }

    /// Issue one typed request on a fresh stream id and wait for its
    /// response. Safe to call from many threads at once.
    pub fn call(&self, req: &Request) -> Result<Response, ClientError> {
        let shared = &self.shared;
        if shared.dead.load(Ordering::Acquire) {
            return Err(ClientError::Poisoned);
        }
        let sid = shared.next_stream.fetch_add(1, Ordering::Relaxed) + 1;
        let mut frame = frame_buf(REQUEST_HINT);
        wire::encode_request(sid, req, &mut frame)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        let (tx, rx) = mpsc::channel();
        shared.pending().insert(sid, tx);
        {
            let _guard = shared
                .write_lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Err(e) = send_frame(&mut &shared.stream, &mut frame) {
                // A partial frame poisons the whole shared socket.
                shared.kill();
                return Err(ClientError::Io(e));
            }
        }
        match self.timeout {
            Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => {
                    // Abandon the stream; the reader drops the late
                    // response when (if) it arrives.
                    shared.pending().remove(&sid);
                    ClientError::Io(io::ErrorKind::TimedOut.into())
                }
                mpsc::RecvTimeoutError::Disconnected => ClientError::Poisoned,
            }),
            None => rx.recv().map_err(|_| ClientError::Poisoned),
        }
    }

    /// [`MuxConn::call`] unwrapped to the query shape.
    pub fn query(&self, req: &Request) -> Result<QueryReply, ClientError> {
        reply_of(self.call(req)?)
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        self.shared.kill();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The reader blocks on the socket; [`MuxShared::kill`] shutting the
/// socket down is what wakes it to exit.
fn mux_read_loop(shared: Arc<MuxShared>) {
    let mut reader = FrameReader::new();
    loop {
        match reader.poll(&mut &shared.stream) {
            Ok(ReadEvent::Frame(payload)) => match wire::decode_response(&payload) {
                Ok((sid, resp)) => {
                    let tx = shared.pending().remove(&sid);
                    if let Some(tx) = tx {
                        let _ = tx.send(resp); // receiver may have timed out
                    }
                }
                Err(_) => {
                    // Undecodable response frame: the stream can't be
                    // trusted any further.
                    shared.kill();
                    return;
                }
            },
            Ok(ReadEvent::Eof) | Ok(ReadEvent::Idle) | Ok(ReadEvent::TooLarge(_)) | Err(_) => {
                shared.kill();
                return;
            }
        }
    }
}

/// What a response that is not the expected shape means: the server's
/// typed error, or a protocol failure.
fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Rpc { code: code.as_str().into(), message },
        other => ClientError::Protocol(format!("unexpected response shape: {other:?}")),
    }
}

fn reply_of(resp: Response) -> Result<QueryReply, ClientError> {
    match resp {
        Response::Query { generation, engine, cached, count, elements_visited, nodes } => {
            Ok(QueryReply {
                generation,
                engine,
                cached,
                count: count as usize,
                elements_visited,
                nodes: nodes.map(|b| b.triples()).unwrap_or_default(),
            })
        }
        other => Err(unexpected(other)),
    }
}

fn generation_resp(resp: Response) -> Result<u64, ClientError> {
    match resp {
        Response::Generation { generation } => Ok(generation),
        other => Err(unexpected(other)),
    }
}

fn info_resp(resp: Response) -> Result<Json, ClientError> {
    match resp {
        Response::Info(v) => Ok(v),
        other => Err(unexpected(other)),
    }
}

/// A cheap, cloneable handle over a shared [`MuxConn`], bound to one
/// database name (empty = the server's first document). This is the
/// ergonomic face of multiplexing: clone one per thread, all calls
/// interleave on the same socket.
#[derive(Clone)]
pub struct MuxClient {
    conn: Arc<MuxConn>,
    db: String,
}

impl MuxClient {
    /// Connect and address the server's default document.
    pub fn connect(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<MuxClient, ClientError> {
        Ok(MuxClient { conn: Arc::new(MuxConn::connect(addr, timeout)?), db: String::new() })
    }

    /// A handle over the same connection addressing database `db`.
    pub fn on_db(&self, db: &str) -> MuxClient {
        MuxClient { conn: Arc::clone(&self.conn), db: db.to_string() }
    }

    /// The underlying shared connection.
    pub fn conn(&self) -> &Arc<MuxConn> {
        &self.conn
    }

    fn query_req(&self, xpath: &str, engine: &str, labels: bool, cache: bool) -> Request {
        Request::Query {
            db: self.db.clone(),
            xpath: xpath.to_string(),
            engine: engine.to_string(),
            labels,
            cache,
            hold_ms: None,
        }
    }

    /// Run `xpath` and decode the full reply (labels included).
    pub fn query(&self, xpath: &str, engine: &str) -> Result<QueryReply, ClientError> {
        self.conn.query(&self.query_req(xpath, engine, true, true))
    }

    /// Count-only query (`labels: false`); see [`Client::query_count`]
    /// for what `use_cache: false` does.
    pub fn query_count(
        &self,
        xpath: &str,
        engine: &str,
        use_cache: bool,
    ) -> Result<QueryReply, ClientError> {
        self.conn.query(&self.query_req(xpath, engine, false, use_cache))
    }

    /// Query with an execution hold (only honored by `debug_hold`
    /// servers; admission-control tests). The request is count-only and
    /// uncached; the server holds before counting, inside the
    /// request's admission permit.
    pub fn query_hold(
        &self,
        xpath: &str,
        engine: &str,
        hold_ms: u64,
    ) -> Result<QueryReply, ClientError> {
        let mut req = self.query_req(xpath, engine, false, false);
        if let Request::Query { hold_ms: h, .. } = &mut req {
            *h = Some(hold_ms);
        }
        self.conn.query(&req)
    }

    /// Insert a rightmost-spine subtree; returns the new generation.
    pub fn insert_subtree(&self, parent_start: u32, xml: &str) -> Result<u64, ClientError> {
        generation_resp(self.conn.call(&Request::InsertSubtree {
            db: self.db.clone(),
            parent_start,
            xml: xml.to_string(),
        })?)
    }

    /// Delete the subtree rooted at `start`; returns the new generation.
    pub fn delete(&self, start: u32) -> Result<u64, ClientError> {
        generation_resp(self.conn.call(&Request::Delete { db: self.db.clone(), start })?)
    }

    /// Rename the node at `start`; returns the new generation.
    pub fn retag(&self, start: u32, tag: &str) -> Result<u64, ClientError> {
        generation_resp(self.conn.call(&Request::Retag {
            db: self.db.clone(),
            start,
            tag: tag.to_string(),
        })?)
    }

    /// The server's counter snapshot (for this handle's database).
    pub fn stats(&self) -> Result<Json, ClientError> {
        info_resp(self.conn.call(&Request::Stats { db: self.db.clone() })?)
    }

    /// Drop every result-cache entry; returns how many were dropped.
    pub fn clear_cache(&self) -> Result<u64, ClientError> {
        cleared_of(&info_resp(self.conn.call(&Request::ClearCache)?)?)
    }
}
