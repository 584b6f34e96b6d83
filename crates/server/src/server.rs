//! The request loop: acceptor thread → pooled connection tasks →
//! per-request dispatch against a shared [`BlasCollection`].
//!
//! ## Protocol negotiation
//!
//! The first byte of a connection picks its encoding: [`wire::MAGIC`]
//! opens binary v2, anything else is the first length-prefix byte of a
//! JSON frame (see [`crate::wire`] for why the two can't collide).
//! Both encodings share the typed [`Request`]/[`Response`] model and
//! one [`dispatch`]; only the envelope differs.
//!
//! ## Request path
//!
//! One OS thread accepts. Each admitted connection becomes a **pool
//! task** ([`PoolHandle::spawn_task`]) on a dedicated connection pool
//! sized exactly [`ServerConfig::max_connections`] — a connection owns
//! its worker for its lifetime, so connection concurrency is bounded
//! by construction and an over-limit accept is *rejected with a typed
//! frame*, never queued.
//!
//! JSON connections handle requests synchronously in arrival order
//! (pipelining is allowed; responses come back in request order).
//! Binary connections are **multiplexed**: every frame carries a
//! stream id, admitted requests run on a shared execution pool while
//! the connection task keeps reading, and responses come back tagged
//! with their stream id in *completion* order — one socket interleaves
//! many logical in-flight requests.
//!
//! ## Admission control
//!
//! Query and mutation execution is bounded by an in-flight semaphore
//! of [`ServerConfig::max_inflight`] permits with **try-acquire**
//! semantics: when the bound is reached the request is answered
//! immediately with [`ErrorCode::Overloaded`] — the server never
//! builds an unbounded queue in front of the database. On a
//! multiplexed connection the permit is acquired *at frame-read time*,
//! before the request is handed to the execution pool, so the
//! rejection is per-stream and the pool's queue stays bounded by the
//! permit count. Cheap admin methods (`stats`, `plan_info`,
//! `clear_cache`) bypass admission.
//!
//! ## Result cache
//!
//! Responses to `query` are cached keyed by
//! `(document, xpath, engine, generation)`. The generation in the key
//! makes staleness impossible; invalidation is therefore purely an
//! occupancy concern: a per-document [`BlasDb::on_publish`] hook
//! prunes that document's superseded generations the moment a new one
//! is published — other documents' entries are untouched — and a
//! capacity bound evicts oldest-first beyond that — the same
//! [`GenCache`] the database's plan cache is.
//!
//! A miss pays for the reply it sends. `labels:false, cache:false`
//! answers with the two counts and encodes nothing. A reply that
//! carries labels, or an entry that is stored, gets the node array's
//! canonical binary triples ([`NodesBlob::encode`], one pre-sized
//! pass). The JSON text is rendered by the first JSON reply that
//! carries the labels and kept on the blob, so from then on a hit
//! replays bytes whichever protocol the connection speaks — and an
//! entry a count-only request stored still answers a later
//! `labels:true` request as a hit.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] stops accepting, then **drains**: every
//! connection task finishes the requests it is executing (multiplexed
//! streams each get their response), answers any just-arrived frame
//! with [`ErrorCode::ShuttingDown`], and exits; the acceptor joins
//! every task handle before shutdown returns.

use crate::json::{self, Json};
use crate::proto::{
    err_response, frame_buf, json_frame, send_frame, ErrorCode, FrameReader, ReadEvent,
};
use crate::wire::{self, NodesBlob, Request, Response};
use blas::{BlasCollection, BlasDb, DocId, EngineChoice, GenCache, GenKey};
use blas_engine::{PoolHandle, TaskHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Socket-level poll tick: connections block at most this long before
/// re-checking the stop flag and their idle budget. Bounds shutdown
/// latency without spinning.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Which wire encodings a server accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtoAccept {
    /// Negotiate per connection (the default).
    #[default]
    Both,
    /// JSON-RPC only; a binary hello gets a typed rejection.
    Json,
    /// Binary v2 only; a JSON frame gets a typed rejection.
    Binary,
}

impl std::str::FromStr for ProtoAccept {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "both" => Ok(ProtoAccept::Both),
            "json" => Ok(ProtoAccept::Json),
            "binary" => Ok(ProtoAccept::Binary),
            other => Err(format!("unknown protocol {other:?} (both|json|binary)")),
        }
    }
}

/// Serving knobs. `Default` is sized for tests and small deployments;
/// the `blas-serve` bin exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queries/mutations executing at once before admission control
    /// answers [`ErrorCode::Overloaded`].
    pub max_inflight: usize,
    /// Concurrent connections; an over-limit accept is rejected with
    /// one [`ErrorCode::Overloaded`] frame and closed.
    pub max_connections: usize,
    /// Idle budget per connection: with no complete request this long
    /// (and, on a multiplexed connection, nothing in flight), the
    /// server sends [`ErrorCode::Timeout`] and closes. `None` waits
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout for responses; a peer that stops reading
    /// past this gets disconnected. `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// Result-cache entry bound (0 disables the cache).
    pub result_cache_cap: usize,
    /// Honor the `hold_ms` test parameter on `query` requests
    /// (deterministic admission-control tests; keep off in
    /// production).
    pub debug_hold: bool,
    /// Which wire encodings to accept.
    pub proto: ProtoAccept,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            result_cache_cap: 4096,
            debug_hold: false,
            proto: ProtoAccept::Both,
        }
    }
}

/// Counting try-acquire semaphore: admission control never waits, so
/// there is no queue and no condvar — a failed acquire is the typed
/// `Overloaded` answer.
struct Semaphore {
    permits: AtomicUsize,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Self { permits: AtomicUsize::new(permits) }
    }

    fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
        let mut cur = self.permits.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return None;
            }
            match self.permits.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(Permit(Arc::clone(self))),
                Err(seen) => cur = seen,
            }
        }
    }

    fn in_use(&self, total: usize) -> usize {
        total.saturating_sub(self.permits.load(Ordering::Acquire))
    }
}

/// RAII permit; releasing is the drop.
struct Permit(Arc<Semaphore>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.permits.fetch_add(1, Ordering::AcqRel);
    }
}

/// One cached query answer: the counts plus the node array's
/// canonical binary triples (its JSON text appears on the blob the
/// first time a JSON reply carries it).
#[derive(Clone)]
struct CachedResult {
    count: u64,
    elements_visited: u64,
    nodes: Arc<NodesBlob>,
}

/// Result-cache key: query string × engine token, scoped by document
/// and generation through [`GenKey`].
type ResultKey = GenKey<(String, String)>;

/// The result cache: the shared bounded [`GenCache`] policy
/// (superseded generations first, then oldest by insertion) under one
/// mutex, plus a count of entries the per-document publish hooks
/// invalidated.
struct ResultCache {
    map: Mutex<GenCache<(String, String), CachedResult>>,
    invalidated: AtomicU64,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        Self { map: Mutex::new(GenCache::new(cap)), invalidated: AtomicU64::new(0) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GenCache<(String, String), CachedResult>> {
        self.map.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn get(&self, key: &ResultKey) -> Option<CachedResult> {
        self.lock().get(key).cloned()
    }

    /// The publish-hook side: a new generation of `doc` supersedes
    /// every entry keyed below it *for that document*.
    fn invalidate_superseded(&self, doc: u32, live_gen: u64) {
        let dropped = self.lock().prune_superseded(doc, live_gen);
        self.invalidated.fetch_add(dropped as u64, Ordering::Relaxed);
    }
}

/// Observable serving counters ([`Server::stats`], and the `stats`
/// method on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests answered with a result (any method).
    pub served: u64,
    /// Requests rejected by query admission control.
    pub overloaded: u64,
    /// Connections accepted into the pool.
    pub connections_accepted: u64,
    /// Connections rejected at the limit.
    pub connections_rejected: u64,
    /// Connections closed for idle timeout.
    pub timeouts: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache entries dropped by publish invalidation.
    pub cache_invalidated: u64,
    /// Result-cache current occupancy.
    pub cache_entries: usize,
}

struct Inner {
    coll: BlasCollection,
    cfg: ServerConfig,
    stop: AtomicBool,
    inflight: Arc<Semaphore>,
    conn_slots: Arc<Semaphore>,
    /// Execution pool for multiplexed requests: admitted binary-stream
    /// requests run here so the connection task can keep reading.
    exec: PoolHandle,
    cache: ResultCache,
    served: AtomicU64,
    overloaded: AtomicU64,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    timeouts: AtomicU64,
}

/// A running server; dropping it shuts down gracefully (prefer calling
/// [`Server::shutdown`] to observe the drain).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<Vec<TaskHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving a single document with `cfg`; the document answers to
    /// the name `"default"` and to requests that name no database.
    pub fn bind(
        db: Arc<BlasDb>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let mut coll = BlasCollection::new();
        coll.add_shared("default", db);
        Self::bind_collection(coll, addr, cfg)
    }

    /// Bind `addr` and front a whole collection: requests route by
    /// database name (`"db"` param / field), an empty or absent name
    /// selects the first member. The returned handle owns the acceptor
    /// thread and the connection pool.
    pub fn bind_collection(
        coll: BlasCollection,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        if coll.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs at least one document",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            inflight: Arc::new(Semaphore::new(cfg.max_inflight)),
            conn_slots: Arc::new(Semaphore::new(cfg.max_connections)),
            // Multiplexed requests need workers of their own (their
            // connection task keeps reading); bounded by the admission
            // permits they hold, clamped to a sane thread count.
            exec: PoolHandle::new(cfg.max_inflight.clamp(1, 16)),
            cache: ResultCache::new(cfg.result_cache_cap),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            coll,
            cfg,
        });
        // Publish → result-cache invalidation, one hook per document
        // so each prunes its own keys. Weak: a database may outlive
        // the server, and the hook list lives as long as the database
        // (an Arc here would cycle db → hook → inner → db).
        for (id, _) in inner.coll.iter() {
            let weak: Weak<Inner> = Arc::downgrade(&inner);
            let doc = id.0;
            inner.coll.doc_shared(id).on_publish(move |generation| {
                if let Some(inner) = weak.upgrade() {
                    inner.cache.invalidate_superseded(doc, generation);
                }
            });
        }
        // One resident pool worker per admissible connection: a
        // connection task occupies its worker for the connection's
        // lifetime, so the pool size *is* the connection bound.
        let pool = PoolHandle::new(inner.cfg.max_connections.max(1));
        let acceptor_inner = Arc::clone(&inner);
        let acceptor = std::thread::Builder::new()
            .name("blas-accept".into())
            .spawn(move || accept_loop(acceptor_inner, listener, pool))?;
        Ok(Server { inner, addr: local, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        let i = &self.inner;
        let cache = i.cache.lock();
        ServerStats {
            served: i.served.load(Ordering::Relaxed),
            overloaded: i.overloaded.load(Ordering::Relaxed),
            connections_accepted: i.conns_accepted.load(Ordering::Relaxed),
            connections_rejected: i.conns_rejected.load(Ordering::Relaxed),
            timeouts: i.timeouts.load(Ordering::Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_invalidated: i.cache.invalidated.load(Ordering::Relaxed),
            cache_entries: cache.len(),
        }
    }

    /// Stop accepting, drain in-flight requests, join every connection
    /// task, and return the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.inner.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Ok(handles) = acceptor.join() {
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(
    inner: Arc<Inner>,
    listener: TcpListener,
    pool: PoolHandle,
) -> Vec<TaskHandle<()>> {
    let mut handles: Vec<TaskHandle<()>> = Vec::new();
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if inner.stop.load(Ordering::SeqCst) {
                break;
            }
            continue;
        };
        if inner.stop.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a late client) — drop it
        }
        // Completed connections release their pool worker; reap their
        // handles so the vector tracks live connections only.
        handles.retain(|h| !h.is_done());
        match inner.conn_slots.try_acquire() {
            Some(permit) => {
                inner.conns_accepted.fetch_add(1, Ordering::Relaxed);
                let conn_inner = Arc::clone(&inner);
                handles.push(pool.spawn_task(move || {
                    serve_connection(conn_inner, stream);
                    drop(permit);
                }));
            }
            None => {
                inner.conns_rejected.fetch_add(1, Ordering::Relaxed);
                let resp = err_response(
                    &Json::Null,
                    ErrorCode::Overloaded,
                    "connection limit reached",
                );
                let mut s = stream;
                let _ = s.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = send_json(&mut s, &resp);
            }
        }
    }
    handles
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Negotiate the connection's protocol from its first byte, then hand
/// off to the matching serve loop.
fn serve_connection(inner: Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let _ = stream.set_write_timeout(inner.cfg.write_timeout);
    let started = Instant::now();
    let mut first = [0u8; 1];
    let first_byte = loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match (&stream).read(&mut first) {
            Ok(0) => return,
            Ok(_) => break first[0],
            Err(e) if is_timeout(&e) => {
                if let Some(budget) = inner.cfg.read_timeout {
                    if started.elapsed() >= budget {
                        // Protocol unknown; the JSON-framed timeout is
                        // the compatible farewell.
                        inner.timeouts.fetch_add(1, Ordering::Relaxed);
                        let resp = err_response(
                            &Json::Null,
                            ErrorCode::Timeout,
                            "connection idle past the read timeout",
                        );
                        let _ = send_json(&mut &stream, &resp);
                        return;
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    };
    if first_byte == wire::MAGIC {
        if inner.cfg.proto == ProtoAccept::Json {
            send_binary_error(
                &stream,
                0,
                ErrorCode::BadRequest,
                "binary protocol disabled on this server",
            );
            return;
        }
        // Version byte follows the magic.
        let version = loop {
            if inner.stop.load(Ordering::SeqCst) {
                return;
            }
            match (&stream).read(&mut first) {
                Ok(0) => return,
                Ok(_) => break first[0],
                Err(e) if is_timeout(&e) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        };
        if version != wire::VERSION {
            send_binary_error(
                &stream,
                0,
                ErrorCode::BadRequest,
                &format!("unsupported protocol version {version}"),
            );
            return;
        }
        serve_binary(inner, stream);
    } else {
        if inner.cfg.proto == ProtoAccept::Binary {
            let resp = err_response(
                &Json::Null,
                ErrorCode::BadRequest,
                "JSON protocol disabled on this server",
            );
            let _ = send_json(&mut &stream, &resp);
            return;
        }
        let mut reader = FrameReader::new();
        reader.prime(first_byte);
        serve_json(inner, stream, reader);
    }
}

/// One JSON frame, one write.
fn send_json(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    send_frame(w, &mut json_frame(msg))
}

/// A binary response frame: encoded straight behind the reserved
/// length prefix of a buffer sized for it.
fn binary_frame(stream_id: u64, resp: &Response) -> Vec<u8> {
    let mut frame = frame_buf(resp.binary_len_hint());
    wire::encode_response(stream_id, resp, &mut frame);
    frame
}

fn serve_json(inner: Arc<Inner>, mut stream: TcpStream, mut reader: FrameReader) {
    let mut idle_since = Instant::now();
    loop {
        let stopping = inner.stop.load(Ordering::SeqCst);
        match reader.poll(&mut stream) {
            Ok(ReadEvent::Frame(bytes)) => {
                idle_since = Instant::now();
                let resp = if stopping {
                    let id = request_id(&bytes);
                    err_response(&id, ErrorCode::ShuttingDown, "server is draining")
                } else {
                    respond(&inner, &bytes)
                };
                if send_json(&mut stream, &resp).is_err() {
                    return;
                }
                if stopping {
                    return;
                }
            }
            Ok(ReadEvent::Idle) => {
                if stopping {
                    return;
                }
                if let Some(budget) = inner.cfg.read_timeout {
                    if idle_since.elapsed() >= budget {
                        inner.timeouts.fetch_add(1, Ordering::Relaxed);
                        let resp = err_response(
                            &Json::Null,
                            ErrorCode::Timeout,
                            "connection idle past the read timeout",
                        );
                        let _ = send_json(&mut stream, &resp);
                        return;
                    }
                }
            }
            Ok(ReadEvent::TooLarge(n)) => {
                let resp = err_response(
                    &Json::Null,
                    ErrorCode::FrameTooLarge,
                    &format!("frame of {n} bytes exceeds the limit"),
                );
                let _ = send_json(&mut stream, &resp);
                return;
            }
            Ok(ReadEvent::Eof) | Err(_) => return,
        }
    }
}

/// The shared write half of a multiplexed connection: response frames
/// from concurrent execution tasks interleave under one lock (a frame
/// is written atomically), and the first write failure marks the
/// connection dead so the read loop stops feeding it.
struct MuxWriter {
    stream: Arc<TcpStream>,
    lock: Mutex<()>,
    dead: AtomicBool,
}

impl MuxWriter {
    fn send(&self, stream_id: u64, resp: &Response) {
        let mut frame = binary_frame(stream_id, resp);
        let _guard = self.lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        if send_frame(&mut &*self.stream, &mut frame).is_err() {
            self.dead.store(true, Ordering::Release);
        }
    }
}

fn send_binary_error(stream: &TcpStream, stream_id: u64, code: ErrorCode, message: &str) {
    let resp = Response::Error { code, message: message.into() };
    let _ = send_frame(&mut &*stream, &mut binary_frame(stream_id, &resp));
}

/// The multiplexed binary serve loop. The connection task reads
/// frames; admission happens here, at read time — an admitted request
/// moves its permit onto the execution pool and the task keeps
/// reading, a rejected one is answered `overloaded` on its own stream.
fn serve_binary(inner: Arc<Inner>, stream: TcpStream) {
    let stream = Arc::new(stream);
    let writer = Arc::new(MuxWriter {
        stream: Arc::clone(&stream),
        lock: Mutex::new(()),
        dead: AtomicBool::new(false),
    });
    let mut reader = FrameReader::new();
    let mut tasks: Vec<TaskHandle<()>> = Vec::new();
    let mut idle_since = Instant::now();
    loop {
        if writer.dead.load(Ordering::Acquire) {
            break;
        }
        let stopping = inner.stop.load(Ordering::SeqCst);
        match reader.poll(&mut &*stream) {
            Ok(ReadEvent::Frame(payload)) => {
                idle_since = Instant::now();
                tasks.retain(|t| !t.is_done());
                let (sid, body) = match wire::split_stream_id(&payload) {
                    Ok(x) => x,
                    Err(e) => {
                        writer.send(
                            0,
                            &Response::Error {
                                code: ErrorCode::BadRequest,
                                message: format!("malformed frame: {e}"),
                            },
                        );
                        continue;
                    }
                };
                if stopping {
                    writer.send(
                        sid,
                        &Response::Error {
                            code: ErrorCode::ShuttingDown,
                            message: "server is draining".into(),
                        },
                    );
                    break;
                }
                let req = match wire::decode_request_body(body) {
                    Ok(r) => r,
                    Err(e) => {
                        writer.send(
                            sid,
                            &Response::Error {
                                code: ErrorCode::BadRequest,
                                message: format!("malformed frame: {e}"),
                            },
                        );
                        continue;
                    }
                };
                if req.needs_admission() {
                    // Per-stream admission at read time: the permit —
                    // not the pool queue — bounds what piles up behind
                    // the executors.
                    match inner.inflight.try_acquire() {
                        Some(permit) => {
                            let task_inner = Arc::clone(&inner);
                            let task_writer = Arc::clone(&writer);
                            tasks.push(inner.exec.spawn_task(move || {
                                let resp = dispatch(&task_inner, &req, Some(permit));
                                task_writer.send(sid, &resp);
                            }));
                        }
                        None => {
                            inner.overloaded.fetch_add(1, Ordering::Relaxed);
                            let (code, message) = overloaded(&inner);
                            writer.send(sid, &Response::Error { code, message });
                        }
                    }
                } else {
                    let resp = dispatch(&inner, &req, None);
                    writer.send(sid, &resp);
                }
            }
            Ok(ReadEvent::Idle) => {
                tasks.retain(|t| !t.is_done());
                if stopping {
                    break;
                }
                if tasks.is_empty() {
                    if let Some(budget) = inner.cfg.read_timeout {
                        if idle_since.elapsed() >= budget {
                            inner.timeouts.fetch_add(1, Ordering::Relaxed);
                            writer.send(
                                0,
                                &Response::Error {
                                    code: ErrorCode::Timeout,
                                    message: "connection idle past the read timeout".into(),
                                },
                            );
                            break;
                        }
                    }
                } else {
                    // In-flight streams count as activity.
                    idle_since = Instant::now();
                }
            }
            Ok(ReadEvent::TooLarge(n)) => {
                writer.send(
                    0,
                    &Response::Error {
                        code: ErrorCode::FrameTooLarge,
                        message: format!("frame of {n} bytes exceeds the limit"),
                    },
                );
                break;
            }
            Ok(ReadEvent::Eof) | Err(_) => break,
        }
    }
    // Drain: every admitted stream gets its response before the
    // connection's pool worker is released.
    for t in tasks {
        let _ = t.join();
    }
}

/// Best-effort id extraction for error responses to frames we will not
/// fully dispatch.
fn request_id(bytes: &[u8]) -> Json {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|s| json::parse(s).ok())
        .and_then(|req| req.get("id").cloned())
        .unwrap_or(Json::Null)
}

/// Parse and dispatch one JSON request frame into a response.
fn respond(inner: &Inner, bytes: &[u8]) -> Json {
    let Ok(text) = std::str::from_utf8(bytes) else {
        return err_response(&Json::Null, ErrorCode::BadRequest, "frame is not UTF-8");
    };
    let req = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            return err_response(
                &Json::Null,
                ErrorCode::BadRequest,
                &format!("malformed JSON: {e}"),
            )
        }
    };
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let Some(method) = req.get("method").and_then(Json::as_str) else {
        return err_response(&id, ErrorCode::BadRequest, "missing \"method\"");
    };
    let empty = Json::Obj(Vec::new());
    let params = req.get("params").unwrap_or(&empty);
    match Request::from_json(method, params) {
        Ok(request) => dispatch(inner, &request, None).to_json(&id),
        Err((code, msg)) => err_response(&id, code, &msg),
    }
}

type MethodResult = Result<Response, (ErrorCode, String)>;

/// Execute one typed request — both protocols land here. `permit` is
/// the admission permit when the caller already acquired it (the
/// multiplexed read loop); `None` makes admission this function's job.
fn dispatch(inner: &Inner, req: &Request, permit: Option<Permit>) -> Response {
    let resp = match dispatch_inner(inner, req, permit) {
        Ok(resp) => resp,
        Err((code, message)) => Response::Error { code, message },
    };
    match &resp {
        Response::Error { code, .. } => {
            if *code == ErrorCode::Overloaded {
                inner.overloaded.fetch_add(1, Ordering::Relaxed);
            }
        }
        _ => {
            inner.served.fetch_add(1, Ordering::Relaxed);
        }
    }
    resp
}

fn dispatch_inner(inner: &Inner, req: &Request, permit: Option<Permit>) -> MethodResult {
    let _permit = if req.needs_admission() && permit.is_none() {
        match inner.inflight.try_acquire() {
            Some(p) => Some(p),
            None => return Err(overloaded(inner)),
        }
    } else {
        permit
    };
    match req {
        Request::Query { db, xpath, engine, labels, cache, hold_ms } => {
            query(inner, db, xpath, engine, *labels, *cache, *hold_ms)
        }
        Request::PlanInfo { db, xpath, engine } => plan_info(inner, db, xpath, engine),
        Request::Stats { db } => {
            let (doc, handle) = resolve(inner, db)?;
            Ok(Response::Info(stats_json(inner, doc, handle)))
        }
        Request::InsertSubtree { db, parent_start, xml } => {
            let (_, handle) = resolve(inner, db)?;
            let generation =
                handle.insert_subtree(*parent_start, xml).map_err(mutation_error)?;
            Ok(Response::Generation { generation })
        }
        Request::Delete { db, start } => {
            let (_, handle) = resolve(inner, db)?;
            let generation = handle.delete(*start).map_err(mutation_error)?;
            Ok(Response::Generation { generation })
        }
        Request::Retag { db, start, tag } => {
            let (_, handle) = resolve(inner, db)?;
            let generation = handle.retag(*start, tag).map_err(mutation_error)?;
            Ok(Response::Generation { generation })
        }
        Request::ClearCache => {
            let cleared = inner.cache.lock().clear();
            Ok(Response::Info(Json::Obj(vec![(
                "cleared".into(),
                Json::uint(cleared as u64),
            )])))
        }
    }
}

/// Route a request's database name to a collection member. An empty
/// name selects the first member (the single-document default).
fn resolve<'a>(
    inner: &'a Inner,
    name: &str,
) -> Result<(u32, &'a Arc<BlasDb>), (ErrorCode, String)> {
    let id = if name.is_empty() {
        DocId(0)
    } else {
        inner.coll.find(name).ok_or_else(|| {
            (ErrorCode::BadRequest, format!("unknown database {name:?}"))
        })?
    };
    Ok((id.0, inner.coll.doc_shared(id)))
}

fn mutation_error(e: blas::BlasError) -> (ErrorCode, String) {
    match &e {
        blas::BlasError::Mutation(_) => (ErrorCode::Mutation, e.to_string()),
        _ => (ErrorCode::BadRequest, e.to_string()),
    }
}

fn overloaded(inner: &Inner) -> (ErrorCode, String) {
    (
        ErrorCode::Overloaded,
        format!(
            "{} requests in flight (the admission bound); retry with backoff",
            inner.cfg.max_inflight
        ),
    )
}

fn query(
    inner: &Inner,
    db: &str,
    xpath: &str,
    engine_tok: &str,
    want_labels: bool,
    use_cache: bool,
    hold_ms: Option<u64>,
) -> MethodResult {
    let (doc, handle) = resolve(inner, db)?;
    let choice: EngineChoice = engine_tok
        .parse()
        .map_err(|e: blas::BlasError| (ErrorCode::BadRequest, e.to_string()))?;
    if inner.cfg.debug_hold {
        if let Some(ms) = hold_ms {
            std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        }
    }

    let snap = handle.snapshot();
    let generation = snap.generation();
    let reply = |cached: bool, count: u64, elements_visited: u64, nodes| Response::Query {
        generation,
        engine: engine_tok.to_string(),
        cached,
        count,
        elements_visited,
        nodes,
    };
    // The key (two string copies) exists only when the cache is in play.
    let key = use_cache.then(|| ResultKey {
        scope: doc,
        key: (xpath.to_string(), engine_tok.to_string()),
        generation,
    });
    if let Some(hit) = key.as_ref().and_then(|key| inner.cache.get(key)) {
        let nodes = want_labels.then_some(hit.nodes);
        return Ok(reply(true, hit.count, hit.elements_visited, nodes));
    }

    let result = snap.query(xpath, choice).map_err(query_error)?;
    let count = result.nodes.len() as u64;
    let elements_visited = result.stats.elements_visited;
    // Encode only for a reader: the reply's labels, or a cache entry
    // (which must be able to answer a later `labels:true` hit).
    let nodes = (want_labels || key.is_some()).then(|| {
        Arc::new(NodesBlob::encode(result.nodes.iter().map(|d| (d.start, d.end, d.level))))
    });
    if let (Some(key), Some(nodes)) = (key, &nodes) {
        let entry = CachedResult { count, elements_visited, nodes: Arc::clone(nodes) };
        inner.cache.lock().insert(key, entry, generation);
    }
    Ok(reply(false, count, elements_visited, nodes.filter(|_| want_labels)))
}

fn query_error(e: blas::BlasError) -> (ErrorCode, String) {
    match &e {
        blas::BlasError::XPath(_) | blas::BlasError::Parse(_) => (ErrorCode::Xpath, e.to_string()),
        _ => (ErrorCode::Internal, e.to_string()),
    }
}

fn plan_info(inner: &Inner, db: &str, xpath: &str, engine_tok: &str) -> MethodResult {
    let (_, handle) = resolve(inner, db)?;
    let choice: EngineChoice = engine_tok
        .parse()
        .map_err(|e: blas::BlasError| (ErrorCode::BadRequest, e.to_string()))?;
    let info = handle.plan_info(xpath, choice).map_err(query_error)?;
    Ok(Response::Info(Json::Obj(vec![
        ("engine".into(), Json::str(info.engine.to_string())),
        ("translator".into(), Json::str(format!("{:?}", info.translator))),
        ("shards".into(), Json::uint(info.shards as u64)),
        ("est_cost_ns".into(), Json::Num(info.est_cost_ns)),
        ("ops".into(), Json::uint(info.ops as u64)),
        ("cached".into(), Json::Bool(info.cached)),
    ])))
}

fn stats_json(inner: &Inner, doc: u32, db: &Arc<BlasDb>) -> Json {
    let delta = db.delta_stats();
    let plan = db.plan_cache_stats();
    let (result_hits, result_misses, result_entries) = {
        let cache = inner.cache.lock();
        (cache.hits(), cache.misses(), cache.len())
    };
    Json::Obj(vec![
        ("db".into(), Json::str(inner.coll.name(DocId(doc)))),
        ("documents".into(), Json::uint(inner.coll.len() as u64)),
        ("generation".into(), Json::uint(db.generation())),
        ("served".into(), Json::uint(inner.served.load(Ordering::Relaxed))),
        (
            "overloaded".into(),
            Json::uint(inner.overloaded.load(Ordering::Relaxed)),
        ),
        (
            "inflight".into(),
            Json::uint(inner.inflight.in_use(inner.cfg.max_inflight) as u64),
        ),
        (
            "connections".into(),
            Json::Obj(vec![
                (
                    "accepted".into(),
                    Json::uint(inner.conns_accepted.load(Ordering::Relaxed)),
                ),
                (
                    "rejected".into(),
                    Json::uint(inner.conns_rejected.load(Ordering::Relaxed)),
                ),
                (
                    "active".into(),
                    Json::uint(inner.conn_slots.in_use(inner.cfg.max_connections) as u64),
                ),
            ]),
        ),
        (
            "result_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::uint(result_hits)),
                ("misses".into(), Json::uint(result_misses)),
                (
                    "invalidated".into(),
                    Json::uint(inner.cache.invalidated.load(Ordering::Relaxed)),
                ),
                ("entries".into(), Json::uint(result_entries as u64)),
            ]),
        ),
        (
            "plan_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::uint(plan.hits)),
                ("misses".into(), Json::uint(plan.misses)),
                ("entries".into(), Json::uint(plan.entries as u64)),
                ("evictions".into(), Json::uint(plan.evictions)),
            ]),
        ),
        (
            "delta".into(),
            Json::Obj(vec![
                ("inserted".into(), Json::uint(delta.inserted as u64)),
                ("deleted".into(), Json::uint(delta.deleted as u64)),
                ("retags".into(), Json::uint(delta.retags as u64)),
                ("compactions".into(), Json::uint(delta.compactions)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, MuxClient};
    use std::sync::Barrier;

    const SRC: &str = "<db><e><n>a</n><n>b</n></e><e><n>c</n></e></db>";

    /// The stored entry for `//n` under `auto` at generation 0.
    fn stored(server: &Server) -> Arc<NodesBlob> {
        let key = ResultKey { scope: 0, key: ("//n".into(), "auto".into()), generation: 0 };
        server.inner.cache.get(&key).expect("entry is stored").nodes
    }

    #[test]
    fn json_text_is_rendered_by_the_first_json_labels_reply_and_racers_share_it() {
        let db = Arc::new(BlasDb::load(SRC).unwrap());
        let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();

        // Stored and sent with labels over the binary wire; hit again
        // over binary; hit count-only over JSON. Nobody needed text.
        let mux = MuxClient::connect(addr, None).unwrap();
        let first = mux.query("//n", "auto").unwrap();
        assert_eq!((first.cached, first.nodes.len()), (false, 3));
        assert!(mux.query("//n", "auto").unwrap().cached);
        let mut json = Client::connect(addr, None).unwrap();
        assert!(json.query_count("//n", "auto", true).unwrap().cached);
        let blob = stored(&server);
        assert!(!blob.json_rendered(), "no JSON labels reply has asked yet");

        // Two JSON connections ask for the labels at once.
        let barrier = Barrier::new(2);
        let replies: Vec<Json> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut client = Client::connect(addr, None).unwrap();
                        let params = Json::Obj(vec![("xpath".into(), Json::str("//n"))]);
                        barrier.wait();
                        client.call("query", params).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(blob.json_rendered());
        for reply in &replies {
            assert_eq!(reply.get("cached"), Some(&Json::Bool(true)));
            assert_eq!(
                reply.get("nodes").map(Json::to_string).as_deref(),
                Some(blob.json().as_str()),
                "both racers got the one rendered text"
            );
        }
        // The same blob, not a re-stored one, and it still answers binary.
        assert!(Arc::ptr_eq(&blob, &stored(&server)));
        assert_eq!(mux.query("//n", "auto").unwrap().nodes, first.nodes);
        server.shutdown();
    }
}
