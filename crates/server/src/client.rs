//! Blocking clients for the wire protocol — enough for tests, the
//! bench harness, and scripting against `blas-serve`.
//!
//! Two shapes:
//!
//! - [`Client`] — one request at a time, over either encoding
//!   ([`Proto`]); the JSON default is wire-compatible with pre-v2
//!   servers.
//! - [`MuxConn`]/[`MuxClient`] — binary-only, **multiplexed**: one
//!   socket, many concurrent in-flight calls routed back by stream id.
//!   There is no reader thread: callers read their own replies, and
//!   the one reading hands the others theirs. Clone the [`MuxClient`]
//!   per thread; they share the connection.
//!
//! ## Decoding
//!
//! A `query` reply is decoded without a value tree on every path: the
//! typed calls ([`Client::query`], [`Client::query_on`],
//! [`Client::query_count`], [`MuxClient`]'s) read it into a
//! [`QueryReply`] — binary by [`wire::decode_response_triples`], which
//! reads the node array from the frame straight into D-label triples,
//! JSON in one pass by [`wire::decode_json_query_response`], which
//! writes it straight into the canonical binary records. Only the
//! generic [`Client::call`] builds a [`Json`] tree of the whole reply,
//! and hands back its `result` moved out, not copied.
//!
//! ## Poisoning
//!
//! A connection whose framing can no longer be trusted — a write that
//! may have left a partial frame on the socket, a timed-out or
//! truncated read, a response that does not decode or carries another
//! call's id — is **poisoned**: the socket is shut down and every
//! later call fails fast with [`ClientError::Poisoned`] instead of
//! desyncing on stale bytes. Typed server errors (`overloaded`,
//! `xpath`, …) never poison; the stream stays aligned.

use crate::json::{self, Json};
use crate::proto::{frame_buf, json_frame, send_frame, FrameReader, ReadEvent};
use crate::wire::{self, Request, Response, Triples, WireError};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// One decoded `query` response. The typed calls build it without a
/// value tree on either wire (see the module docs); [`Client::call`] is
/// the path that returns the reply as a [`Json`] tree instead.
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

    /// The id for the next call, or `Poisoned`.
    fn next_call(&mut self) -> Result<u64, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        self.next_id += 1;
        Ok(self.next_id)
    }

    /// Issue one call and wait for its response. Returns the
    /// response's `result` value, or the typed error the server sent.
    ///
    /// This is the generic path, and it builds a value tree of the
    /// whole reply: over JSON the frame is parsed into a [`Json`] and
    /// its `result` moved out; over binary the typed response becomes
    /// the same tree, a node array included as `[start, end, level]`
    /// arrays. The typed calls ([`Client::query`] and friends) build no
    /// tree.
    pub fn call(&mut self, method: &str, params: Json) -> Result<Json, ClientError> {
        let id = self.next_call()?;
        match self.proto {
            Proto::Json => {
                let req = Json::Obj(vec![
                    ("id".into(), Json::uint(id)),
                    ("method".into(), Json::str(method)),
                    ("params".into(), params),
                ]);
                self.write_poisoning(json_frame(&req))?;
                let (echoed, result, error) = self.read_reply(|bytes| {
                    let resp = json::parse(utf8(bytes)?).map_err(|e| {
                        ClientError::Protocol(format!("bad response JSON: {e}"))
                    })?;
                    Ok(envelope(resp))
                })?;
                self.check_echo(&echoed, error.is_some(), id)?;
                if let Some(err) = error {
                    let field = |key| err.get(key).and_then(Json::as_str);
                    return Err(ClientError::Rpc {
                        code: field("code").unwrap_or("internal").to_string(),
                        message: field("message").unwrap_or_default().to_string(),
                    });
                }
                result.ok_or_else(|| {
                    ClientError::Protocol("response has neither result nor error".into())
                })
            }
            Proto::Binary => {
                let req = Request::from_json(method, &params).map_err(|(code, message)| {
                    ClientError::Rpc { code: code.as_str().into(), message }
                })?;
                result_tree(self.binary_call(id, &req, wire::decode_response)?)
            }
        }
    }

    /// Send a typed `query` and decode its reply on either wire without
    /// a value tree: JSON through
    /// [`wire::decode_json_query_response`], binary through
    /// [`wire::decode_response_triples`], then the same [`reply_of`] the
    /// [`MuxConn`] uses.
    fn query_call(&mut self, req: &Request) -> Result<QueryReply, ClientError> {
        let id = self.next_call()?;
        let (resp, labels) = match self.proto {
            Proto::Json => {
                self.write_poisoning(json_frame(&req.to_json(&Json::uint(id))))?;
                let (echoed, resp) = self.read_reply(|bytes| {
                    wire::decode_json_query_response(utf8(bytes)?)
                        .map_err(|e| ClientError::Protocol(format!("bad query reply: {e}")))
                })?;
                self.check_echo(&echoed, matches!(resp, Response::Error { .. }), id)?;
                (resp, Vec::new())
            }
            Proto::Binary => self.binary_call(id, req, with_triples)?,
        };
        reply_of(resp, labels)
    }

    /// One binary round trip on stream `id`, its reply read by `decode`.
    fn binary_call<T>(
        &mut self,
        id: u64,
        req: &Request,
        decode: impl FnOnce(&[u8]) -> Result<(u64, T), WireError>,
    ) -> Result<T, ClientError> {
        let mut frame = frame_buf(REQUEST_HINT);
        wire::encode_request(id, req, &mut frame)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.write_poisoning(frame)?;
        self.read_reply(|bytes| {
            let (sid, out) = decode(bytes).map_err(|e| ClientError::Protocol(e.to_string()))?;
            if sid != id {
                return Err(ClientError::Protocol(format!(
                    "response for stream {sid}, expected {id}"
                )));
            }
            Ok(out)
        })
    }

    /// A JSON response must echo the call's `id`. The server answers a
    /// frame it cannot attribute — the connection limit, the idle
    /// timeout, a malformed frame — with a `null` id, so `null` passes
    /// on an error and nowhere else; any other id means the stream is
    /// misaligned, and the connection is poisoned.
    fn check_echo(&mut self, echoed: &Json, is_error: bool, id: u64) -> Result<(), ClientError> {
        let ours = match echoed {
            Json::Null => is_error,
            other => other.as_u64() == Some(id),
        };
        if ours {
            return Ok(());
        }
        self.poison();
        Err(ClientError::Protocol(format!("response for id {echoed}, expected {id}")))
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

    /// Read the next frame and decode it with `decode`, straight from
    /// the reader's buffer. A frame that does not arrive whole — a
    /// timeout, end of stream, an oversized prefix — or that `decode`
    /// rejects poisons the connection; a typed server error is a reply
    /// `decode` returns, and never poisons.
    fn read_reply<T>(
        &mut self,
        decode: impl FnOnce(&[u8]) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        // The client's socket timeout is the whole deadline, so an
        // Idle poll is terminal here (unlike the server's poll loop)
        // — and the pending response could still land later, so the
        // connection is no longer aligned and must be poisoned.
        let out = match self.reader.poll_ref(&mut self.stream) {
            Ok(ReadEvent::Frame(bytes)) => decode(bytes),
            Ok(ReadEvent::Idle) => Err(ClientError::Io(io::ErrorKind::TimedOut.into())),
            Ok(ReadEvent::Eof) => Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into())),
            Ok(ReadEvent::TooLarge(n)) => {
                Err(ClientError::Protocol(format!("{n}-byte response frame")))
            }
            Err(e) => Err(ClientError::Io(e)),
        };
        if out.is_err() {
            self.poison();
        }
        out
    }

    /// Run `xpath` with the given engine token (`"auto"`, `"rdbms"`,
    /// `"twig"`, `"twigstack"`) and decode the full reply.
    pub fn query(&mut self, xpath: &str, engine: &str) -> Result<QueryReply, ClientError> {
        self.query_call(&query_req("", xpath, engine, true, true))
    }

    /// Like [`Client::query`], addressed to a named database.
    pub fn query_on(
        &mut self,
        db: &str,
        xpath: &str,
        engine: &str,
    ) -> Result<QueryReply, ClientError> {
        self.query_call(&query_req(db, xpath, engine, true, true))
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
        self.query_call(&query_req("", xpath, engine, false, use_cache))
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

/// A JSON frame's text.
fn utf8(bytes: &[u8]) -> Result<&str, ClientError> {
    std::str::from_utf8(bytes).map_err(|_| ClientError::Protocol("response is not UTF-8".into()))
}

/// [`wire::decode_response_triples`] in the shape the round trips take:
/// the stream id, then the reply with its labels beside it.
fn with_triples(payload: &[u8]) -> Result<(u64, (Response, Triples)), WireError> {
    wire::decode_response_triples(payload).map(|(sid, resp, labels)| (sid, (resp, labels)))
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

/// A `query` request on either wire.
fn query_req(db: &str, xpath: &str, engine: &str, labels: bool, cache: bool) -> Request {
    Request::Query {
        db: db.to_string(),
        xpath: xpath.to_string(),
        engine: engine.to_string(),
        labels,
        cache,
        hold_ms: None,
    }
}

/// Move a JSON response's `id`, `result` and `error` out of it; the
/// first of a repeated key counts, as [`Json::get`] reads. A missing
/// `id` reads as `null`.
fn envelope(resp: Json) -> (Json, Option<Json>, Option<Json>) {
    let (mut id, mut result, mut error) = (None, None, None);
    if let Json::Obj(fields) = resp {
        for (key, value) in fields {
            let slot = match key.as_str() {
                "id" => &mut id,
                "result" => &mut result,
                "error" => &mut error,
                _ => continue,
            };
            slot.get_or_insert(value);
        }
    }
    (id.unwrap_or(Json::Null), result, error)
}

/// A binary response as the `result` tree the JSON wire carries — what
/// [`Client::call`] returns on either wire — with a node array as
/// `[start, end, level]` arrays.
fn result_tree(mut resp: Response) -> Result<Json, ClientError> {
    if matches!(resp, Response::Error { .. }) {
        return Err(unexpected(resp));
    }
    let nodes = match &mut resp {
        Response::Query { nodes, .. } => nodes.take(),
        _ => None,
    };
    let mut result = envelope(resp.to_json(&Json::Null)).1.unwrap_or(Json::Null);
    if let (Json::Obj(fields), Some(blob)) = (&mut result, nodes) {
        let labels = blob.triples().into_iter().map(|(s, e, l)| {
            Json::Arr(vec![Json::uint(s.into()), Json::uint(e.into()), Json::uint(l.into())])
        });
        fields.push(("nodes".into(), Json::Arr(labels.collect())));
    }
    Ok(result)
}

/// A multiplexed binary connection: one socket, many concurrent
/// in-flight calls. All methods take `&self`; wrap in an [`Arc`] (or
/// use [`MuxClient`], which does) and call from as many threads as you
/// like — stream ids route each response back to its caller.
///
/// There is no reader thread: callers read for each other. A caller
/// waiting for its reply takes the *read role* when nobody holds it,
/// reads frames, hands every other stream's reply to its waiter, and
/// gives the role up when its own reply arrives — decoded straight from
/// the frame buffer. A caller that finds the role taken waits to be
/// handed its reply, or the role.
pub struct MuxConn {
    stream: TcpStream,
    timeout: Option<Duration>,
    write_lock: Mutex<()>,
    /// The read side. Only the holder of the read role locks it, so it
    /// is never contended.
    reader: Mutex<MuxReader>,
    state: Mutex<MuxState>,
    /// Signalled when a reply is handed to its waiter, when the read
    /// role is given up, and when the connection dies.
    wake: Condvar,
    dead: AtomicBool,
    next_stream: AtomicU64,
}

/// The read side of a [`MuxConn`].
struct MuxReader {
    frames: FrameReader,
    /// The socket read timeout in force.
    armed: Option<Duration>,
}

impl MuxReader {
    /// Bound the next socket read by `wait`. A socket timeout that
    /// already ends within a sixteenth of `wait` past it stays, so a
    /// fresh call finds the socket armed and pays no syscall.
    fn arm(&mut self, stream: &TcpStream, wait: Option<Duration>) -> io::Result<()> {
        let armed = match (self.armed, wait) {
            (None, None) => true,
            (Some(a), Some(w)) => a >= w && a - w <= w / 16,
            _ => false,
        };
        if !armed {
            stream.set_read_timeout(wait)?;
            self.armed = wait;
        }
        Ok(())
    }
}

/// The calls of a [`MuxConn`] and who is reading for them.
#[derive(Default)]
struct MuxState {
    /// In-flight calls by stream id: `None` until the holder of the
    /// read role hands the reply's frame over. A call that dies or
    /// times out leaves; a late reply for it is dropped.
    pending: HashMap<u64, Option<Vec<u8>>>,
    /// A caller holds the read role.
    reading: bool,
    /// Callers asleep on [`MuxConn::wake`].
    waiting: usize,
}

impl MuxConn {
    /// Connect and send the binary hello. `timeout` bounds each
    /// individual call's wait for its response; an expired call returns
    /// [`ClientError::Io`] (`TimedOut`) but does **not** poison the
    /// connection — the late response is discarded by stream id when it
    /// lands.
    pub fn connect(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> Result<MuxConn, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(timeout)?;
        stream.set_read_timeout(timeout)?;
        io::Write::write_all(&mut stream, &[wire::MAGIC, wire::VERSION])?;
        Ok(MuxConn {
            stream,
            timeout,
            write_lock: Mutex::new(()),
            reader: Mutex::new(MuxReader { frames: FrameReader::new(), armed: timeout }),
            state: Mutex::new(MuxState::default()),
            wake: Condvar::new(),
            dead: AtomicBool::new(false),
            next_stream: AtomicU64::new(0),
        })
    }

    /// Whether the connection has died (server gone, or a framing
    /// failure on the shared socket). With no call reading, a closed
    /// peer shows only to a read: this takes the free read role and
    /// reads what has already arrived, without waiting.
    pub fn is_dead(&self) -> bool {
        if self.dead.load(Ordering::Acquire) {
            return true;
        }
        let mut state = self.state();
        if !state.reading {
            state.reading = true;
            drop(state);
            self.read_arrived();
            self.give_up_role(None);
        }
        self.dead.load(Ordering::Acquire)
    }

    /// Issue one typed request on a fresh stream id and wait for its
    /// response. Safe to call from many threads at once.
    pub fn call(&self, req: &Request) -> Result<Response, ClientError> {
        self.round_trip(req, wire::decode_response)
    }

    /// [`MuxConn::call`] unwrapped to the query shape, its labels
    /// decoded straight from the reply's frame.
    pub fn query(&self, req: &Request) -> Result<QueryReply, ClientError> {
        let (resp, labels) = self.round_trip(req, with_triples)?;
        reply_of(resp, labels)
    }

    /// The calls' shared state (a panicked holder leaves it usable).
    fn state(&self) -> std::sync::MutexGuard<'_, MuxState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn reader(&self) -> std::sync::MutexGuard<'_, MuxReader> {
        self.reader.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Send `req` on a fresh stream and wait for its reply — read by
    /// this caller or handed over by another — decoded by `decode`.
    fn round_trip<T>(
        &self,
        req: &Request,
        decode: impl FnOnce(&[u8]) -> Result<(u64, T), WireError>,
    ) -> Result<T, ClientError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(ClientError::Poisoned);
        }
        let sid = self.next_stream.fetch_add(1, Ordering::Relaxed) + 1;
        let mut frame = frame_buf(REQUEST_HINT);
        wire::encode_request(sid, req, &mut frame)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        self.state().pending.insert(sid, None);
        {
            let _guard =
                self.write_lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Err(e) = send_frame(&mut &self.stream, &mut frame) {
                // A partial frame poisons the whole shared socket.
                self.kill();
                return Err(ClientError::Io(e));
            }
        }
        // A timeout past the clock's range is no deadline at all.
        let deadline = self.timeout.and_then(|t| Instant::now().checked_add(t));
        let mut state = self.state();
        loop {
            match state.pending.get_mut(&sid) {
                // The connection died and took every call with it.
                None => return Err(ClientError::Poisoned),
                Some(slot) => {
                    if let Some(frame) = slot.take() {
                        state.pending.remove(&sid);
                        drop(state);
                        return self.decode_own(&frame, decode);
                    }
                }
            }
            if !state.reading {
                state.reading = true;
                drop(state);
                return self.lead(sid, deadline, decode);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                // Abandon the stream; the late reply is dropped when
                // (if) it is read.
                state.pending.remove(&sid);
                return Err(ClientError::Io(io::ErrorKind::TimedOut.into()));
            }
            state.waiting += 1;
            state = match deadline {
                None => self.wake.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(d) => {
                    let waited = self.wake.wait_timeout(state, d - now);
                    waited.unwrap_or_else(std::sync::PoisonError::into_inner).0
                }
            };
            state.waiting -= 1;
        }
    }

    /// Hold the read role until stream `sid`'s reply arrives, the
    /// deadline passes or the connection dies, handing every other
    /// stream's reply to its waiter on the way; then give the role up.
    fn lead<T>(
        &self,
        sid: u64,
        deadline: Option<Instant>,
        decode: impl FnOnce(&[u8]) -> Result<(u64, T), WireError>,
    ) -> Result<T, ClientError> {
        let mut reader = self.reader();
        let reader = &mut *reader;
        let out = loop {
            let wait = deadline.map(|d| {
                d.saturating_duration_since(Instant::now()).max(Duration::from_micros(1))
            });
            if let Err(e) = reader.arm(&self.stream, wait) {
                self.kill();
                break Err(ClientError::Io(e));
            }
            match reader.frames.poll_ref(&mut &self.stream) {
                Ok(ReadEvent::Frame(frame)) => match wire::split_stream_id(frame) {
                    Ok((own, _)) if own == sid => break self.decode_own(frame, decode),
                    Ok((other, _)) => self.hand_over(other, frame),
                    Err(e) => {
                        self.kill();
                        break Err(ClientError::Protocol(e.to_string()));
                    }
                },
                Ok(ReadEvent::Idle) if deadline.is_some_and(|d| Instant::now() >= d) => {
                    break Err(ClientError::Io(io::ErrorKind::TimedOut.into()));
                }
                // The socket rounds its timeout down: wait out the rest.
                Ok(ReadEvent::Idle) => {}
                Ok(ReadEvent::Eof) | Ok(ReadEvent::TooLarge(_)) | Err(_) => {
                    self.kill();
                    break Err(ClientError::Poisoned);
                }
            }
        };
        self.give_up_role(Some(sid));
        out
    }

    /// Under the read role: read and hand over every frame that has
    /// already arrived, and notice a peer that has closed.
    fn read_arrived(&self) {
        let mut reader = self.reader();
        let reader = &mut *reader;
        // The shortest wait a socket timeout can express.
        if reader.arm(&self.stream, Some(Duration::from_micros(1))).is_err() {
            self.kill();
            return;
        }
        loop {
            match reader.frames.poll_ref(&mut &self.stream) {
                Ok(ReadEvent::Frame(frame)) => match wire::split_stream_id(frame) {
                    Ok((sid, _)) => self.hand_over(sid, frame),
                    Err(_) => return self.kill(),
                },
                Ok(ReadEvent::Idle) => return,
                Ok(ReadEvent::Eof) | Ok(ReadEvent::TooLarge(_)) | Err(_) => return self.kill(),
            }
        }
    }

    /// Release the read role (and `sid`'s place among the calls), and
    /// wake the waiters so one of them can take it.
    fn give_up_role(&self, sid: Option<u64>) {
        let mut state = self.state();
        state.reading = false;
        if let Some(sid) = sid {
            state.pending.remove(&sid);
        }
        if state.waiting > 0 {
            self.wake.notify_all();
        }
    }

    /// Give `frame`, stream `sid`'s reply, to the caller waiting for it;
    /// a stream nobody waits for any more drops it.
    fn hand_over(&self, sid: u64, frame: &[u8]) {
        let mut state = self.state();
        if let Some(slot) = state.pending.get_mut(&sid) {
            *slot = Some(frame.to_vec());
            if state.waiting > 0 {
                self.wake.notify_all();
            }
        }
    }

    /// Decode this caller's own reply; one that does not decode means
    /// the shared stream cannot be trusted any further.
    fn decode_own<T>(
        &self,
        frame: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<(u64, T), WireError>,
    ) -> Result<T, ClientError> {
        decode(frame).map(|(_, out)| out).map_err(|e| {
            self.kill();
            ClientError::Protocol(e.to_string())
        })
    }

    /// Mark the connection dead, close the socket and fail every
    /// in-flight call fast.
    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.state().pending.clear();
        self.wake.notify_all();
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

/// A query response as a [`QueryReply`]. Its labels are `labels`, as a
/// binary decode read them straight from the frame, or — when the
/// response carries a blob, as a JSON decode's does — the blob's.
fn reply_of(resp: Response, labels: Triples) -> Result<QueryReply, ClientError> {
    match resp {
        Response::Query { generation, engine, cached, count, elements_visited, nodes } => {
            Ok(QueryReply {
                generation,
                engine,
                cached,
                count: count as usize,
                elements_visited,
                nodes: nodes.map_or(labels, |blob| blob.triples()),
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

    /// Run `xpath` and decode the full reply (labels included).
    pub fn query(&self, xpath: &str, engine: &str) -> Result<QueryReply, ClientError> {
        self.conn.query(&query_req(&self.db, xpath, engine, true, true))
    }

    /// Count-only query (`labels: false`); see [`Client::query_count`]
    /// for what `use_cache: false` does.
    pub fn query_count(
        &self,
        xpath: &str,
        engine: &str,
        use_cache: bool,
    ) -> Result<QueryReply, ClientError> {
        self.conn.query(&query_req(&self.db, xpath, engine, false, use_cache))
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
        let mut req = query_req(&self.db, xpath, engine, false, false);
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
