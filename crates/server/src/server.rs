//! The request loop: acceptor thread → one thread per connection →
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
//! One OS thread accepts. Each admitted connection gets **a thread of
//! its own** (`blas-conn`) that exits with the connection, so threads
//! follow live connections; [`ServerConfig::max_connections`] bounds
//! them, and an over-limit accept is *rejected with a typed frame*,
//! never queued. Sockets block: the idle budget is a deadline for the
//! next complete frame that each read's socket timeout counts down to,
//! and shutdown wakes a blocked reader by shutting its socket's read
//! half — nothing polls.
//!
//! JSON connections handle requests synchronously on their thread, in
//! arrival order (pipelining is allowed; responses come back in
//! request order). Binary connections are **multiplexed**: every frame
//! carries a stream id, and responses come back tagged with their
//! stream id in *completion* order — one socket interleaves many
//! logical in-flight requests. The connection thread probes an
//! admitted `query` itself and answers on the spot every query whose
//! cost is bounded before it runs: a result-cache **hit**, written as
//! the stored node array lies, and a `labels:false, cache:false`
//! **directory count** — a plan already in the plan cache whose answer
//! is one unfiltered clustered scan, counted off the run directory in
//! O(intervals · log n). Everything else — a held, walked, labelled,
//! cache-filling or not-yet-prepared query, and every other admitted
//! request — runs on the server's worker pool while the connection
//! thread keeps reading. An answer in place therefore never waits
//! behind a slow stream, and costs no thread hand-off; nothing is
//! parsed or prepared on a connection thread.
//!
//! The pool is the server's: [`Server::bind`] starts one worker per
//! core (at least two) whatever the number of documents it serves, so
//! the thread budget is fixed at startup — an acceptor, the pool, and
//! one thread per live connection. A query run in process, or over the
//! JSON wire, runs on its caller's thread and never touches it.
//!
//! ## Admission control
//!
//! Query and mutation execution is bounded by an in-flight semaphore
//! of [`ServerConfig::max_inflight`] permits with **try-acquire**
//! semantics: when the bound is reached the request is answered
//! immediately with [`ErrorCode::Overloaded`] — the server never
//! builds an unbounded queue in front of the database. On a
//! multiplexed connection the permit is acquired *at frame-read time*,
//! before the cache is probed or the request is handed to the worker
//! pool, so the rejection is per-stream and the pool's queue stays
//! bounded by the permit count. Cheap admin methods (`stats`,
//! `plan_info`, `clear_cache`) bypass admission.
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
//! builds no result at all: when the probe's
//! [`blas::DbSnapshot::directory_count`] does not answer it, it goes to
//! [`blas::DbSnapshot::count`],
//! which answers a suffix or unfolded path off the run directory
//! (`elements_visited` 0) and any other plan by executing it without
//! the final copy, and encodes nothing. A reply that
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
//! [`Server::shutdown`] stops accepting, shuts the read half of every
//! live socket to wake its thread, then **drains**: every connection
//! finishes the requests it is executing (multiplexed streams each get
//! their response), answers any frame already buffered with
//! [`ErrorCode::ShuttingDown`], and exits; shutdown joins every
//! connection thread, then the pool's workers, before it returns.

use crate::json::{self, Json};
use crate::proto::{
    clear_frame, err_response, frame_buf, is_timeout, json_frame, send_frame, send_frame_parts,
    ErrorCode, FrameReader, ReadEvent,
};
use crate::wire::{self, NodesBlob, Request, Response};
use crate::pool::Pool;
use blas::{BlasCollection, BlasDb, DocId, EngineChoice, GenCache, GenKey, SharedSnapshot};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The farewell of a connection whose idle budget ran out.
const IDLE: &str = "connection idle past the read timeout";

/// Room for a binary reply's envelope: everything but a node array.
const ENVELOPE_HINT: usize = 64;

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
    /// forever; `Some(Duration::ZERO)` expires at the first wait.
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
    /// Connections admitted, each onto a thread of its own.
    pub connections_accepted: u64,
    /// Connections rejected at the limit (or for want of a thread).
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
    /// Binary requests run on the worker pool: every admitted one but
    /// those the probe answers (a result-cache hit, or a count off the
    /// run directory for an already-prepared plan).
    pub pool_tasks: u64,
}

struct Inner {
    coll: BlasCollection,
    cfg: ServerConfig,
    stop: AtomicBool,
    inflight: Arc<Semaphore>,
    conn_slots: Arc<Semaphore>,
    cache: ResultCache,
    served: AtomicU64,
    overloaded: AtomicU64,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    timeouts: AtomicU64,
    pool: Pool,
    pool_tasks: AtomicU64,
}

impl Inner {
    /// How long a `query` carrying `hold_ms` waits before it runs: only
    /// a `debug_hold` server holds at all.
    fn hold(&self, hold_ms: Option<u64>) -> Option<Duration> {
        let ms = hold_ms.filter(|_| self.cfg.debug_hold)?;
        Some(Duration::from_millis(ms.min(10_000)))
    }

    fn stats(&self) -> ServerStats {
        let cache = self.cache.lock();
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            connections_accepted: self.conns_accepted.load(Ordering::Relaxed),
            connections_rejected: self.conns_rejected.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_invalidated: self.cache.invalidated.load(Ordering::Relaxed),
            cache_entries: cache.len(),
            pool_tasks: self.pool_tasks.load(Ordering::Relaxed),
        }
    }
}

/// A running server; dropping it shuts down gracefully (prefer calling
/// [`Server::shutdown`] to observe the drain).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<Vec<Live>>>,
}

/// A live connection as the acceptor tracks it: its thread, and a
/// second handle on its socket through which shutdown wakes the
/// thread's blocked read.
struct Live {
    thread: JoinHandle<()>,
    socket: TcpStream,
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
    /// thread, which owns the connection threads, and the worker pool:
    /// one worker per core, at least two, for every member.
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
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).max(2);
        let pool = Pool::start(workers)?;
        let inner = Arc::new(Inner {
            inflight: Arc::new(Semaphore::new(cfg.max_inflight)),
            conn_slots: Arc::new(Semaphore::new(cfg.max_connections)),
            cache: ResultCache::new(cfg.result_cache_cap),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            pool,
            pool_tasks: AtomicU64::new(0),
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
        let acceptor_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name("blas-accept".into())
            .spawn(move || accept_loop(acceptor_inner, listener));
        match spawned {
            Ok(acceptor) => Ok(Server { inner, addr: local, acceptor: Some(acceptor) }),
            Err(e) => {
                inner.pool.join();
                Err(e)
            }
        }
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }

    /// Stop accepting, drain in-flight requests, join every connection
    /// thread and the worker pool, and return the final counters.
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
        if let Ok(live) = acceptor.join() {
            // A blocked read now sees end-of-stream; what is already
            // buffered still reads, and is answered `shutting_down`.
            for conn in &live {
                let _ = conn.socket.shutdown(Shutdown::Read);
            }
            for conn in live {
                let _ = conn.thread.join();
            }
        }
        // Every connection has waited out its streams: the queue is
        // empty and no worker is busy.
        self.inner.pool.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) -> Vec<Live> {
    let mut live: Vec<Live> = Vec::new();
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
        // Reap finished connections (their panics were caught inside).
        for done in live.extract_if(.., |conn| conn.thread.is_finished()) {
            let _ = done.thread.join();
        }
        match admit(&inner, stream) {
            Ok(conn) => {
                inner.conns_accepted.fetch_add(1, Ordering::Relaxed);
                live.push(conn);
            }
            Err(mut stream) => {
                inner.conns_rejected.fetch_add(1, Ordering::Relaxed);
                let resp = err_response(
                    &Json::Null,
                    ErrorCode::Overloaded,
                    "connection limit reached",
                );
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = send_json(&mut stream, &resp);
            }
        }
    }
    live
}

/// Start a connection's thread, or hand the socket back to be rejected:
/// no slot is free, or no thread is to be had (the permit then drops
/// with the closure the failed spawn discards).
fn admit(inner: &Arc<Inner>, stream: TcpStream) -> Result<Live, TcpStream> {
    let Some(permit) = inner.conn_slots.try_acquire() else {
        return Err(stream);
    };
    let Ok(socket) = stream.try_clone() else {
        return Err(stream);
    };
    let conn_inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new().name("blas-conn".into()).spawn(move || {
        let stream = Arc::new(stream);
        let _ = catch_unwind(AssertUnwindSafe(|| serve_connection(&conn_inner, &stream)));
        // The acceptor's handle keeps the socket open: end it here,
        // panic or not.
        let _ = stream.shutdown(Shutdown::Both);
        drop(permit);
    });
    match spawned {
        Ok(thread) => Ok(Live { thread, socket }),
        Err(_) => Err(socket),
    }
}

/// A connection's read half under its idle budget. The budget is a
/// deadline for the next complete frame, counted from the first read
/// after connect or after [`Budgeted::restart`], and every read waits
/// only for what is left of it: a peer that trickles a frame in byte
/// by byte expires as surely as a silent one. The first read of a
/// frame finds the socket timeout already at the full budget, so only
/// a read in the middle of a frame pays a syscall to shorten it — and
/// behind a [`BufReader`], a frame that arrives whole is one read.
struct Budgeted<'a> {
    stream: &'a TcpStream,
    /// `None`: wait forever.
    budget: Option<Duration>,
    deadline: Option<Instant>,
    /// The socket read timeout in force.
    armed: Option<Duration>,
}

/// A connection's buffered, budgeted input.
type Input<'a> = BufReader<Budgeted<'a>>;

impl<'a> Budgeted<'a> {
    fn input(stream: &'a TcpStream, budget: Option<Duration>) -> Input<'a> {
        // A budget past the clock's range is no deadline at all.
        let budget = budget.filter(|&b| Instant::now().checked_add(b).is_some());
        BufReader::new(Budgeted { stream, budget, deadline: None, armed: None })
    }

    /// Give the next frame a whole budget.
    fn restart(&mut self) {
        self.deadline = None;
    }
}

impl Read for Budgeted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(budget) = self.budget else {
            return self.stream.read(buf);
        };
        loop {
            let now = Instant::now();
            let deadline = *self.deadline.get_or_insert(now + budget);
            // `set_read_timeout` rejects zero; a spent budget still
            // takes what has already arrived, in the shortest wait.
            let wait = deadline.saturating_duration_since(now).max(Duration::from_micros(1));
            if self.armed != Some(wait) {
                self.stream.set_read_timeout(Some(wait))?;
                self.armed = Some(wait);
            }
            match self.stream.read(buf) {
                // The socket rounds its timeout down: wait out the rest.
                Err(e) if is_timeout(&e) && Instant::now() < deadline => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                read => return read,
            }
        }
    }
}

/// Negotiate the connection's protocol from its first byte, then hand
/// off to the matching serve loop. The idle budget applies to the
/// negotiation bytes as to any read (a timeout surfaces as the error).
fn serve_connection(inner: &Arc<Inner>, stream: &Arc<TcpStream>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(inner.cfg.write_timeout);
    let mut input = Budgeted::input(stream, inner.cfg.read_timeout);
    // Peeked, not taken: on a JSON connection it opens the first frame.
    let first_byte = match input.fill_buf() {
        Ok(&[byte, ..]) => byte,
        Ok(_) => return,
        Err(e) => {
            if is_timeout(&e) {
                // Protocol unknown; the JSON-framed timeout is the
                // compatible farewell.
                inner.timeouts.fetch_add(1, Ordering::Relaxed);
                let resp = err_response(&Json::Null, ErrorCode::Timeout, IDLE);
                let _ = send_json(&mut &**stream, &resp);
            }
            return;
        }
    };
    if first_byte == wire::MAGIC {
        if inner.cfg.proto == ProtoAccept::Json {
            send_binary_error(
                stream,
                0,
                ErrorCode::BadRequest,
                "binary protocol disabled on this server",
            );
            return;
        }
        // Version byte follows the magic.
        input.consume(1);
        let mut version = [0u8];
        if let Err(e) = input.read_exact(&mut version) {
            if is_timeout(&e) {
                inner.timeouts.fetch_add(1, Ordering::Relaxed);
                send_binary_error(stream, 0, ErrorCode::Timeout, IDLE);
            }
            return;
        }
        let [version] = version;
        if version != wire::VERSION {
            send_binary_error(
                stream,
                0,
                ErrorCode::BadRequest,
                &format!("unsupported protocol version {version}"),
            );
            return;
        }
        input.get_mut().restart();
        serve_binary(inner, stream, input);
    } else {
        if inner.cfg.proto == ProtoAccept::Binary {
            let resp = err_response(
                &Json::Null,
                ErrorCode::BadRequest,
                "JSON protocol disabled on this server",
            );
            let _ = send_json(&mut &**stream, &resp);
            return;
        }
        serve_json(inner, stream, input);
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

fn serve_json(inner: &Inner, mut stream: &TcpStream, mut input: Input<'_>) {
    let mut reader = FrameReader::new();
    loop {
        match reader.poll_ref(&mut input) {
            Ok(ReadEvent::Frame(bytes)) => {
                if inner.stop.load(Ordering::SeqCst) {
                    let id = request_id(bytes);
                    let resp = err_response(&id, ErrorCode::ShuttingDown, "server is draining");
                    let _ = send_json(&mut stream, &resp);
                    return;
                }
                if send_json(&mut stream, &respond(inner, bytes)).is_err() {
                    return;
                }
                input.get_mut().restart();
            }
            Ok(ReadEvent::Idle) => {
                inner.timeouts.fetch_add(1, Ordering::Relaxed);
                let resp = err_response(&Json::Null, ErrorCode::Timeout, IDLE);
                let _ = send_json(&mut stream, &resp);
                return;
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
/// from the connection thread and from pool tasks interleave under one
/// lock (a frame is written atomically), and the first write failure
/// marks the connection dead so the read loop stops feeding it. It also
/// counts the replies the pool still owes.
struct MuxWriter {
    stream: Arc<TcpStream>,
    lock: Mutex<()>,
    dead: AtomicBool,
    /// Streams handed to the pool whose reply is not yet sent.
    in_flight: Mutex<usize>,
    /// Signalled when `in_flight` falls to zero.
    settled: Condvar,
}

impl MuxWriter {
    fn new(stream: Arc<TcpStream>) -> MuxWriter {
        MuxWriter {
            stream,
            lock: Mutex::new(()),
            dead: AtomicBool::new(false),
            in_flight: Mutex::new(0),
            settled: Condvar::new(),
        }
    }

    /// Send `resp` on `stream_id`. Its envelope is encoded into `head`
    /// (a buffer the caller may reuse), and a query reply's node array
    /// follows it on the wire from where its blob holds it — a cached
    /// reply is sent without copying its labels.
    fn send_with(&self, head: &mut Vec<u8>, stream_id: u64, resp: &Response) {
        clear_frame(head);
        let tail = wire::encode_response_head(stream_id, resp, head);
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if self.dead.load(Ordering::Acquire) {
            return;
        }
        if send_frame_parts(&mut &*self.stream, head, tail).is_err() {
            self.dead.store(true, Ordering::Release);
        }
    }

    fn send(&self, stream_id: u64, resp: &Response) {
        self.send_with(&mut frame_buf(ENVELOPE_HINT), stream_id, resp);
    }

    /// The in-flight count; every update is one add or subtract.
    fn in_flight(&self) -> MutexGuard<'_, usize> {
        self.in_flight.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait until every stream handed to the pool has sent its reply.
    fn settle(&self) {
        let mut open = self.in_flight();
        while *open > 0 {
            open = self.settled.wait(open).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

fn send_binary_error(stream: &TcpStream, stream_id: u64, code: ErrorCode, message: &str) {
    let resp = Response::Error { code, message: message.into() };
    let _ = send_frame(&mut &*stream, &mut binary_frame(stream_id, &resp));
}

/// Run one admitted stream's `body` on `pool` and send its reply. A
/// body that panics is answered [`ErrorCode::Internal`] on its stream,
/// and the worker goes on to its next task.
fn spawn_stream(
    pool: &Pool,
    writer: &Arc<MuxWriter>,
    stream_id: u64,
    body: impl FnOnce() -> Response + Send + 'static,
) {
    *writer.in_flight() += 1;
    let writer = Arc::clone(writer);
    pool.submit(move || {
        let resp = catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|_| Response::Error {
            code: ErrorCode::Internal,
            message: "the request panicked".into(),
        });
        writer.send(stream_id, &resp);
        let mut open = writer.in_flight();
        *open -= 1;
        if *open == 0 {
            writer.settled.notify_all();
        }
    });
}

/// The multiplexed binary serve loop. The connection thread reads
/// frames; admission happens here, at read time. An admitted `query` is
/// probed here too: a result-cache hit (straight from the stored bytes)
/// or a directory count is answered from this thread. Anything else the
/// probe leaves, a held query and every other admitted request move
/// their permit onto the server's pool and the thread keeps reading; a
/// rejected one is answered `overloaded` on its own stream.
fn serve_binary(inner: &Arc<Inner>, stream: &Arc<TcpStream>, mut input: Input<'_>) {
    let writer = Arc::new(MuxWriter::new(Arc::clone(stream)));
    let mut reader = FrameReader::new();
    // The envelope of every reply this thread sends.
    let mut head = frame_buf(ENVELOPE_HINT);
    while !writer.dead.load(Ordering::Acquire) {
        match reader.poll_ref(&mut input) {
            Ok(ReadEvent::Frame(payload)) => {
                input.get_mut().restart();
                let (sid, body) = match wire::split_stream_id(payload) {
                    Ok(x) => x,
                    Err(e) => {
                        let message = format!("malformed frame: {e}");
                        let resp = Response::Error { code: ErrorCode::BadRequest, message };
                        writer.send_with(&mut head, 0, &resp);
                        continue;
                    }
                };
                if inner.stop.load(Ordering::SeqCst) {
                    let message = "server is draining".into();
                    let resp = Response::Error { code: ErrorCode::ShuttingDown, message };
                    writer.send_with(&mut head, sid, &resp);
                    break;
                }
                let req = match wire::decode_request_body(body) {
                    Ok(r) => r,
                    Err(e) => {
                        let message = format!("malformed frame: {e}");
                        let resp = Response::Error { code: ErrorCode::BadRequest, message };
                        writer.send_with(&mut head, sid, &resp);
                        continue;
                    }
                };
                if !req.needs_admission() {
                    writer.send_with(&mut head, sid, &dispatch(inner, &req, None));
                    continue;
                }
                // Per-stream admission at read time: the permit — not
                // the pool queue — bounds what piles up behind the
                // executors.
                let Some(permit) = inner.inflight.try_acquire() else {
                    inner.overloaded.fetch_add(1, Ordering::Relaxed);
                    let (code, message) = overloaded(inner);
                    writer.send_with(&mut head, sid, &Response::Error { code, message });
                    continue;
                };
                let missed = match &req {
                    Request::Query { db, xpath, engine, labels, cache, hold_ms }
                        if inner.hold(*hold_ms).is_none() =>
                    {
                        match probe(inner, db, xpath, engine, *labels, *cache) {
                            Ok(Probed::Miss(probe)) => Some(probe),
                            Ok(Probed::Answered(resp)) => {
                                let resp = account(inner, Ok(resp));
                                writer.send_with(&mut head, sid, &resp);
                                continue;
                            }
                            Err(e) => {
                                writer.send_with(&mut head, sid, &account(inner, Err(e)));
                                continue;
                            }
                        }
                    }
                    _ => None,
                };
                inner.pool_tasks.fetch_add(1, Ordering::Relaxed);
                let task_inner = Arc::clone(inner);
                spawn_stream(&inner.pool, &writer, sid, move || match (missed, &req) {
                    (Some(probe), Request::Query { xpath, engine, labels, .. }) => {
                        let resp = execute(&task_inner, probe, xpath, engine, *labels);
                        drop(permit);
                        account(&task_inner, resp)
                    }
                    _ => dispatch(&task_inner, &req, Some(permit)),
                });
            }
            Ok(ReadEvent::Idle) => {
                if *writer.in_flight() == 0 {
                    inner.timeouts.fetch_add(1, Ordering::Relaxed);
                    let message = IDLE.into();
                    writer.send(0, &Response::Error { code: ErrorCode::Timeout, message });
                    break;
                }
                // In-flight streams count as activity: wait another
                // budget for them — or, when the budget is zero and a
                // re-read would only spin, for the streams themselves.
                if inner.cfg.read_timeout == Some(Duration::ZERO) {
                    writer.settle();
                }
                input.get_mut().restart();
            }
            Ok(ReadEvent::TooLarge(n)) => {
                let message = format!("frame of {n} bytes exceeds the limit");
                writer.send(0, &Response::Error { code: ErrorCode::FrameTooLarge, message });
                break;
            }
            Ok(ReadEvent::Eof) | Err(_) => break,
        }
    }
    // Drain: every admitted stream gets its response before the
    // connection closes.
    writer.settle();
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
    account(inner, dispatch_inner(inner, req, permit))
}

/// A method's outcome as the response it sends, counted in the serving
/// counters.
fn account(inner: &Inner, result: MethodResult) -> Response {
    let resp = match result {
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

/// A `query` resolved up to its result-cache lookup: the document
/// routed, the engine token parsed, one generation pinned and the key
/// built. A miss carries it on to [`execute`], so a request probes the
/// cache once, wherever it runs.
struct Probe {
    snap: SharedSnapshot,
    choice: EngineChoice,
    /// `None`: the request neither consults nor fills the cache.
    key: Option<ResultKey>,
}

/// What a probe found.
enum Probed {
    /// The reply, made on the probing thread: the stored answer for the
    /// pinned generation, or a count the run directory gives — both
    /// bounded before they run, like the lookup itself.
    Answered(Response),
    /// Nothing stored (or the cache is not in play), and no count the
    /// directory can give: execute it.
    Miss(Probe),
}

/// Resolve a `query` up to what can be answered without running it: a
/// result-cache hit, or — for a count that neither reads nor fills the
/// cache — [`blas::DbSnapshot::directory_count`], which answers only
/// when the plan is already prepared and is one unfiltered clustered
/// scan. Nothing here parses or prepares a query.
fn probe(
    inner: &Inner,
    db: &str,
    xpath: &str,
    engine_tok: &str,
    want_labels: bool,
    use_cache: bool,
) -> Result<Probed, (ErrorCode, String)> {
    let (doc, handle) = resolve(inner, db)?;
    let choice: EngineChoice = engine_tok
        .parse()
        .map_err(|e: blas::BlasError| (ErrorCode::BadRequest, e.to_string()))?;
    let snap = handle.shared_snapshot();
    let generation = snap.generation();
    // The key (two string copies) exists only when the cache is in play.
    let key = use_cache.then(|| ResultKey {
        scope: doc,
        key: (xpath.to_string(), engine_tok.to_string()),
        generation,
    });
    if let Some(entry) = key.as_ref().and_then(|key| inner.cache.get(key)) {
        let nodes = want_labels.then_some(entry.nodes);
        let (count, visited) = (entry.count, entry.elements_visited);
        let reply = query_reply(generation, engine_tok, true, count, visited, nodes);
        return Ok(Probed::Answered(reply));
    }
    if !want_labels && key.is_none() {
        if let Some(c) = snap.view().directory_count(xpath, choice) {
            let (count, visited) = (c.count as u64, c.stats.elements_visited);
            let reply = query_reply(generation, engine_tok, false, count, visited, None);
            return Ok(Probed::Answered(reply));
        }
    }
    Ok(Probed::Miss(Probe { snap, choice, key }))
}

fn query_reply(
    generation: u64,
    engine_tok: &str,
    cached: bool,
    count: u64,
    elements_visited: u64,
    nodes: Option<Arc<NodesBlob>>,
) -> Response {
    Response::Query {
        generation,
        engine: engine_tok.to_string(),
        cached,
        count,
        elements_visited,
        nodes,
    }
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
    if let Some(hold) = inner.hold(hold_ms) {
        std::thread::sleep(hold);
    }
    match probe(inner, db, xpath, engine_tok, want_labels, use_cache)? {
        Probed::Answered(resp) => Ok(resp),
        Probed::Miss(probe) => execute(inner, probe, xpath, engine_tok, want_labels),
    }
}

/// Answer a probed miss from its pinned generation, and store the
/// answer when the request fills the cache.
fn execute(
    inner: &Inner,
    probe: Probe,
    xpath: &str,
    engine_tok: &str,
    want_labels: bool,
) -> MethodResult {
    let Probe { snap, choice, key } = probe;
    let generation = snap.generation();
    let snap = snap.view();
    if !want_labels && key.is_none() {
        // Nothing will read the nodes: count them, don't build them.
        let c = snap.count(xpath, choice).map_err(query_error)?;
        let (count, visited) = (c.count as u64, c.stats.elements_visited);
        return Ok(query_reply(generation, engine_tok, false, count, visited, None));
    }
    let result = snap.query(xpath, choice).map_err(query_error)?;
    let count = result.nodes.len() as u64;
    let elements_visited = result.stats.elements_visited;
    // Someone reads the encoding: the reply's labels, or a cache entry
    // (which must be able to answer a later `labels:true` hit).
    let nodes =
        Arc::new(NodesBlob::encode(result.nodes.iter().map(|d| (d.start, d.end, d.level))));
    if let Some(key) = key {
        let entry = CachedResult { count, elements_visited, nodes: Arc::clone(&nodes) };
        inner.cache.lock().insert(key, entry, generation);
    }
    let nodes = want_labels.then_some(nodes);
    Ok(query_reply(generation, engine_tok, false, count, elements_visited, nodes))
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
        ("ops".into(), Json::uint(info.ops as u64)),
        ("cached".into(), Json::Bool(info.cached)),
    ])))
}

fn stats_json(inner: &Inner, doc: u32, db: &Arc<BlasDb>) -> Json {
    let delta = db.delta_stats();
    let plan = db.plan_cache_stats();
    let s = inner.stats();
    Json::Obj(vec![
        ("db".into(), Json::str(inner.coll.name(DocId(doc)))),
        ("documents".into(), Json::uint(inner.coll.len() as u64)),
        ("generation".into(), Json::uint(db.generation())),
        ("served".into(), Json::uint(s.served)),
        ("overloaded".into(), Json::uint(s.overloaded)),
        ("pool_tasks".into(), Json::uint(s.pool_tasks)),
        (
            "inflight".into(),
            Json::uint(inner.inflight.in_use(inner.cfg.max_inflight) as u64),
        ),
        (
            "connections".into(),
            Json::Obj(vec![
                ("accepted".into(), Json::uint(s.connections_accepted)),
                ("rejected".into(), Json::uint(s.connections_rejected)),
                (
                    "active".into(),
                    Json::uint(inner.conn_slots.in_use(inner.cfg.max_connections) as u64),
                ),
            ]),
        ),
        (
            "result_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::uint(s.cache_hits)),
                ("misses".into(), Json::uint(s.cache_misses)),
                ("invalidated".into(), Json::uint(s.cache_invalidated)),
                ("entries".into(), Json::uint(s.cache_entries as u64)),
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

    #[test]
    fn a_panicking_stream_is_answered_internal_and_its_worker_serves_on() {
        let db = Arc::new(BlasDb::load(SRC).unwrap());
        let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        // A connected pair: replies go out on the accepted end, and
        // are read on `far`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        far.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let writer = Arc::new(MuxWriter::new(Arc::new(listener.accept().unwrap().0)));
        // One worker runs both streams, the panicking one first.
        let pool = Pool::start(1).unwrap();
        spawn_stream(&pool, &writer, 1, || panic!("stream boom"));
        let req = Request::Query {
            db: String::new(),
            xpath: "//n".into(),
            engine: "auto".into(),
            labels: false,
            cache: false,
            hold_ms: None,
        };
        let inner = Arc::clone(&server.inner);
        spawn_stream(&pool, &writer, 2, move || dispatch(&inner, &req, None));
        writer.settle();
        pool.join();

        let mut reader = FrameReader::new();
        let mut next = || match reader.poll(&mut far).unwrap() {
            ReadEvent::Frame(f) => wire::decode_response(&f).unwrap(),
            other => panic!("expected a frame, got {other:?}"),
        };
        assert!(matches!(next(), (1, Response::Error { code: ErrorCode::Internal, .. })));
        assert!(matches!(next(), (2, Response::Query { count: 3, .. })));
        server.shutdown();
    }

    #[test]
    fn a_zero_budget_answers_what_arrived_then_expires() {
        let db = Arc::new(BlasDb::load(SRC).unwrap());
        let cfg =
            ServerConfig { read_timeout: Some(Duration::ZERO), debug_hold: true, ..Default::default() };
        let server = Server::bind(db, "127.0.0.1:0", cfg).unwrap();
        // Hello and a held query in one write: all of it has arrived
        // by the first read.
        let mut hello = vec![wire::MAGIC, wire::VERSION];
        let mut frame = frame_buf(0);
        let req = Request::Query {
            db: String::new(),
            xpath: "//n".into(),
            engine: "auto".into(),
            labels: false,
            cache: false,
            hold_ms: Some(200),
        };
        wire::encode_request(7, &req, &mut frame).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        send_frame(&mut hello, &mut frame).unwrap();
        stream.write_all(&hello).unwrap();

        let mut reader = FrameReader::new();
        let mut next = || match reader.poll(&mut stream).unwrap() {
            ReadEvent::Frame(f) => wire::decode_response(&f).unwrap(),
            other => panic!("expected a frame, got {other:?}"),
        };
        // The in-flight stream is answered before the budget closes
        // the connection.
        assert!(matches!(next(), (7, Response::Query { count: 3, .. })));
        assert!(matches!(next(), (0, Response::Error { code: ErrorCode::Timeout, .. })));
        assert_eq!(server.shutdown().timeouts, 1);
    }
}
