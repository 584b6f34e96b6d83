//! Binary wire protocol **v2** — and the protocol-neutral request /
//! response model both encodings share.
//!
//! ## Negotiation
//!
//! Both protocols ride the same 4-byte big-endian length-prefixed
//! frames ([`crate::proto`]). A connection's **first byte** picks the
//! encoding: [`MAGIC`] (`0xB2`) announces binary v2 (followed by one
//! [`VERSION`] byte, then frames); anything else is the first byte of
//! a JSON frame's length prefix — a legal JSON frame is at most
//! [`MAX_FRAME_BYTES`] (16 MiB), so its first prefix byte is `0x00` or
//! `0x01` and can never collide with the magic. Existing JSON clients
//! keep working unchanged.
//!
//! ## Frame payload layout (binary v2, both directions)
//!
//! ```text
//! payload := stream_id:varint  opcode:u8  body
//! ```
//!
//! The **stream id** multiplexes one socket: each request carries a
//! client-chosen id and its response echoes it, so many logical
//! requests can be in flight on one connection and complete out of
//! order. Varints are LEB128 (7 bits per byte, little-endian groups,
//! ≤ 10 bytes); strings are `varint length + UTF-8 bytes`; `u64`
//! fields that must never round (generations) are fixed-width
//! little-endian; result node arrays are raw little-endian
//! `(start:u32, end:u32, level:u16)` triples — 10 bytes per node,
//! sliced straight out of the result cache's pre-serialized
//! [`NodesBlob`] on a hit.
//!
//! Decoding is **total**: every truncated, overlong or mutated payload
//! yields a typed [`WireError`], never a panic, and trailing bytes
//! after a well-formed body are rejected (a desynced peer fails fast
//! instead of smearing state into the next frame).

use crate::json::{Cursor, Json, JsonError};
use crate::proto::{err_response, ok_response, ErrorCode, MAX_FRAME_BYTES};
use std::fmt;
use std::sync::Arc;

/// First byte of a binary-v2 connection. Greater than `0x01`, so it
/// can never be the first length-prefix byte of a legal JSON frame.
pub const MAGIC: u8 = 0xB2;

/// Protocol version byte sent right after [`MAGIC`].
pub const VERSION: u8 = 0x02;

/// Request opcodes (client → server).
const OP_QUERY: u8 = 0x01;
const OP_PLAN_INFO: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_INSERT: u8 = 0x04;
const OP_DELETE: u8 = 0x05;
const OP_RETAG: u8 = 0x06;
const OP_CLEAR_CACHE: u8 = 0x07;

/// Response opcodes (server → client).
const OP_QUERY_OK: u8 = 0x81;
const OP_GENERATION_OK: u8 = 0x82;
const OP_INFO_OK: u8 = 0x83;
const OP_ERROR: u8 = 0xEE;

/// Query-request flag bits.
const QF_LABELS: u8 = 1 << 0;
const QF_CACHE: u8 = 1 << 1;
const QF_HOLD: u8 = 1 << 2;

/// Query-response flag bits.
const RF_CACHED: u8 = 1 << 0;
const RF_NODES: u8 = 1 << 1;

/// Bytes per node in the binary result array: `u32 start`, `u32 end`,
/// `u16 level`, little-endian.
pub const NODE_BYTES: usize = 10;

/// A malformed binary payload — always a typed error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the bytes.
    pub msg: String,
}

impl WireError {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire: {}", self.msg)
    }
}

impl std::error::Error for WireError {}

/// One parsed request, independent of the wire encoding. The JSON path
/// builds it from parsed parameters ([`Request::from_json`]), the
/// binary path from bytes ([`decode_request_body`]); the server
/// dispatches the same value either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run an XPath; the workhorse.
    Query {
        /// Database name; empty selects the collection's first member.
        db: String,
        /// The query text.
        xpath: String,
        /// Engine token (`auto` / `rdbms` / `twig` / `twigstack`).
        engine: String,
        /// Include the matched node labels in the reply.
        labels: bool,
        /// Consult / fill the server's result cache.
        cache: bool,
        /// Test-only execution hold (honored only under
        /// `ServerConfig::debug_hold`).
        hold_ms: Option<u64>,
    },
    /// Optimizer's plan summary for a query.
    PlanInfo {
        /// Database name; empty selects the first member.
        db: String,
        /// The query text.
        xpath: String,
        /// Engine token.
        engine: String,
    },
    /// Serving counters plus the addressed database's caches/delta.
    Stats {
        /// Database name; empty selects the first member.
        db: String,
    },
    /// Append a subtree on the rightmost spine.
    InsertSubtree {
        /// Database name; empty selects the first member.
        db: String,
        /// `start` position of the parent node.
        parent_start: u32,
        /// The fragment to insert.
        xml: String,
    },
    /// Tombstone the subtree rooted at `start`.
    Delete {
        /// Database name; empty selects the first member.
        db: String,
        /// `start` position of the subtree root.
        start: u32,
    },
    /// Rename the node at `start`.
    Retag {
        /// Database name; empty selects the first member.
        db: String,
        /// `start` position of the node.
        start: u32,
        /// The new tag name.
        tag: String,
    },
    /// Drop every result-cache entry (all documents).
    ClearCache,
}

impl Request {
    /// Does this request consume an in-flight admission permit?
    /// Queries and mutations do; cheap admin methods bypass.
    pub fn needs_admission(&self) -> bool {
        matches!(
            self,
            Request::Query { .. }
                | Request::InsertSubtree { .. }
                | Request::Delete { .. }
                | Request::Retag { .. }
        )
    }

    /// The database name the request addresses (empty: the first
    /// member; `clear_cache` addresses none).
    pub fn db(&self) -> &str {
        match self {
            Request::Query { db, .. }
            | Request::PlanInfo { db, .. }
            | Request::Stats { db }
            | Request::InsertSubtree { db, .. }
            | Request::Delete { db, .. }
            | Request::Retag { db, .. } => db,
            Request::ClearCache => "",
        }
    }

    /// The JSON method token for this request.
    pub fn method(&self) -> &'static str {
        match self {
            Request::Query { .. } => "query",
            Request::PlanInfo { .. } => "plan_info",
            Request::Stats { .. } => "stats",
            Request::InsertSubtree { .. } => "insert_subtree",
            Request::Delete { .. } => "delete",
            Request::Retag { .. } => "retag",
            Request::ClearCache => "clear_cache",
        }
    }

    /// Build a request from a JSON method + params object — the JSON
    /// protocol's half of the shared model. Unknown methods and
    /// missing/mistyped parameters are typed `bad_request` errors.
    pub fn from_json(method: &str, params: &Json) -> Result<Request, (ErrorCode, String)> {
        let db = || -> Result<String, (ErrorCode, String)> {
            match params.get("db") {
                None => Ok(String::new()),
                Some(v) => v.as_str().map(str::to_string).ok_or_else(|| {
                    (ErrorCode::BadRequest, "\"db\" must be a string".into())
                }),
            }
        };
        let engine = || -> Result<String, (ErrorCode, String)> {
            match params.get("engine") {
                None => Ok("auto".into()),
                Some(v) => v.as_str().map(str::to_string).ok_or_else(|| {
                    (ErrorCode::BadRequest, "\"engine\" must be a string".into())
                }),
            }
        };
        match method {
            "query" => Ok(Request::Query {
                db: db()?,
                xpath: str_param(params, "xpath")?,
                engine: engine()?,
                labels: params.get("labels").and_then(Json::as_bool).unwrap_or(true),
                cache: params.get("cache").and_then(Json::as_bool).unwrap_or(true),
                hold_ms: params.get("hold_ms").and_then(Json::as_u64),
            }),
            "plan_info" => Ok(Request::PlanInfo {
                db: db()?,
                xpath: str_param(params, "xpath")?,
                engine: engine()?,
            }),
            "stats" => Ok(Request::Stats { db: db()? }),
            "insert_subtree" => Ok(Request::InsertSubtree {
                db: db()?,
                parent_start: u32_param(params, "parent_start")?,
                xml: str_param(params, "xml")?,
            }),
            "delete" => Ok(Request::Delete { db: db()?, start: u32_param(params, "start")? }),
            "retag" => Ok(Request::Retag {
                db: db()?,
                start: u32_param(params, "start")?,
                tag: str_param(params, "tag")?,
            }),
            "clear_cache" => Ok(Request::ClearCache),
            other => Err((ErrorCode::BadRequest, format!("unknown method {other:?}"))),
        }
    }

    /// Render this request as the JSON protocol's full request object
    /// (`{"id", "method", "params"}`) — the client's half, and the
    /// anchor for the json ≡ binary equivalence property.
    pub fn to_json(&self, id: &Json) -> Json {
        let mut params: Vec<(String, Json)> = Vec::new();
        let push_db = |params: &mut Vec<(String, Json)>, db: &str| {
            if !db.is_empty() {
                params.push(("db".into(), Json::str(db)));
            }
        };
        match self {
            Request::Query { db, xpath, engine, labels, cache, hold_ms } => {
                push_db(&mut params, db);
                params.push(("xpath".into(), Json::str(xpath.clone())));
                params.push(("engine".into(), Json::str(engine.clone())));
                params.push(("labels".into(), Json::Bool(*labels)));
                params.push(("cache".into(), Json::Bool(*cache)));
                if let Some(ms) = hold_ms {
                    params.push(("hold_ms".into(), Json::uint(*ms)));
                }
            }
            Request::PlanInfo { db, xpath, engine } => {
                push_db(&mut params, db);
                params.push(("xpath".into(), Json::str(xpath.clone())));
                params.push(("engine".into(), Json::str(engine.clone())));
            }
            Request::Stats { db } => push_db(&mut params, db),
            Request::InsertSubtree { db, parent_start, xml } => {
                push_db(&mut params, db);
                params.push(("parent_start".into(), Json::uint(*parent_start as u64)));
                params.push(("xml".into(), Json::str(xml.clone())));
            }
            Request::Delete { db, start } => {
                push_db(&mut params, db);
                params.push(("start".into(), Json::uint(*start as u64)));
            }
            Request::Retag { db, start, tag } => {
                push_db(&mut params, db);
                params.push(("start".into(), Json::uint(*start as u64)));
                params.push(("tag".into(), Json::str(tag.clone())));
            }
            Request::ClearCache => {}
        }
        Json::Obj(vec![
            ("id".into(), id.clone()),
            ("method".into(), Json::str(self.method())),
            ("params".into(), Json::Obj(params)),
        ])
    }
}

fn str_param(params: &Json, key: &str) -> Result<String, (ErrorCode, String)> {
    params
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| (ErrorCode::BadRequest, format!("missing string param {key:?}")))
}

fn u32_param(params: &Json, key: &str) -> Result<u32, (ErrorCode, String)> {
    params
        .get(key)
        .and_then(Json::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| (ErrorCode::BadRequest, format!("missing u32 param {key:?}")))
}

/// A result node array in the wire's encodings: `bin()` is the
/// canonical form, raw little-endian 10-byte `(start, end, level)`
/// records; `json()` is the same triples as `[[start,end,level],…]`
/// text, spliced into a response via [`Json::Raw`].
///
/// The binary side always exists. The JSON side is rendered **on first
/// use** and kept, so a blob that only ever travels the binary wire —
/// a result-cache entry nobody asked for over JSON, a binary-decoded
/// reply ([`decode_response`]) — never pays for text, while every JSON reply after the first replays it as a
/// memcpy. Concurrent first uses race benignly: one render wins and
/// every caller sees that text. Equality compares the canonical bytes.
#[derive(Debug, Clone)]
pub struct NodesBlob {
    /// Binary encoding: `count × (u32 start, u32 end, u16 level)` LE.
    bin: Vec<u8>,
    /// JSON encoding, rendered on first use and shareable so a hit
    /// splices into the response via [`Json::Raw`] without copying.
    json: std::sync::OnceLock<Arc<String>>,
}

impl PartialEq for NodesBlob {
    fn eq(&self, other: &Self) -> bool {
        self.bin == other.bin
    }
}

impl Eq for NodesBlob {}

impl NodesBlob {
    /// Serialize `(start, end, level)` triples into the canonical
    /// binary form in one pre-sized pass; the JSON side stays
    /// unrendered until [`NodesBlob::json`] is first called. This is
    /// what the server builds for a result it stores or sends.
    pub fn encode(triples: impl Iterator<Item = (u32, u32, u16)>) -> NodesBlob {
        let mut bin = Vec::with_capacity(triples.size_hint().0 * NODE_BYTES);
        for (s, e, l) in triples {
            bin.extend_from_slice(&s.to_le_bytes());
            bin.extend_from_slice(&e.to_le_bytes());
            bin.extend_from_slice(&l.to_le_bytes());
        }
        NodesBlob { bin, json: std::sync::OnceLock::new() }
    }

    /// Serialize triples into **both** encodings eagerly. The server
    /// no longer calls this — it answers from [`NodesBlob::encode`] and
    /// renders JSON when a JSON reply first needs it — but callers that
    /// want the whole cost paid up front (and the benchmark's replay of
    /// it) keep the eager form.
    pub fn from_triples(triples: impl Iterator<Item = (u32, u32, u16)> + Clone) -> NodesBlob {
        let blob = NodesBlob::encode(triples);
        blob.json();
        blob
    }

    /// Wrap already-canonical binary records (the decode path); the
    /// JSON side stays unrendered until someone asks for it.
    pub fn from_bin(bin: Vec<u8>) -> NodesBlob {
        debug_assert_eq!(bin.len() % NODE_BYTES, 0);
        NodesBlob { bin, json: std::sync::OnceLock::new() }
    }

    /// The binary encoding (the canonical bytes).
    pub fn bin(&self) -> &[u8] {
        &self.bin
    }

    /// The JSON encoding, rendered on first use.
    pub fn json(&self) -> &Arc<String> {
        self.json.get_or_init(|| {
            // "[4294967295,4294967295,65535]," is the widest triple.
            let mut json = String::with_capacity(2 + self.len() * 30);
            json.push('[');
            for (i, (s, e, l)) in self.triples().into_iter().enumerate() {
                if i > 0 {
                    json.push(',');
                }
                let _ = fmt::Write::write_fmt(&mut json, format_args!("[{s},{e},{l}]"));
            }
            json.push(']');
            json.shrink_to_fit();
            Arc::new(json)
        })
    }

    /// Whether the JSON side has been rendered yet.
    #[cfg(test)]
    pub(crate) fn json_rendered(&self) -> bool {
        self.json.get().is_some()
    }

    /// Number of nodes in the blob.
    pub fn len(&self) -> usize {
        self.bin.len() / NODE_BYTES
    }

    /// True when the blob holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.bin.is_empty()
    }

    /// Read a JSON node array — the text [`NodesBlob::json`] renders —
    /// straight into the canonical binary form: one pass, no JSON value
    /// per label. Whitespace may sit between any two tokens; anything
    /// but an array of `[start, end, level]` unsigned integer literals
    /// within `u32` / `u32` / `u16` is a typed error.
    pub fn from_json(text: &str) -> Result<NodesBlob, JsonError> {
        let mut cur = Cursor::new(text);
        let blob = NodesBlob::scan_json(&mut cur, None)?;
        cur.finish()?;
        Ok(blob)
    }

    /// Read the node array at `cur` ([`Cursor::node_array`]) into a
    /// blob. `count` pre-sizes the output, capped by the labels the rest
    /// of the text could hold (`[0,0,0],` — 8 bytes — is the shortest),
    /// so a hostile count cannot allocate beyond the frame.
    pub(crate) fn scan_json(
        cur: &mut Cursor<'_>,
        count: Option<u64>,
    ) -> Result<NodesBlob, JsonError> {
        let most = cur.remaining() / 8;
        let labels = count.map_or(most, |c| usize::try_from(c).unwrap_or(most).min(most));
        let mut bin = Vec::with_capacity(labels * NODE_BYTES);
        cur.node_array(&mut bin)?;
        Ok(NodesBlob::from_bin(bin))
    }

    /// Decode the binary side back into `(start, end, level)` triples.
    pub fn triples(&self) -> Vec<(u32, u32, u16)> {
        triples_of(&self.bin)
    }
}

/// Node labels as `(start, end, level)` triples.
pub type Triples = Vec<(u32, u32, u16)>;

/// Canonical binary node records as triples, in one pre-sized pass.
fn triples_of(records: &[u8]) -> Triples {
    records
        .chunks_exact(NODE_BYTES)
        .map(|c| {
            (
                u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                u16::from_le_bytes([c[8], c[9]]),
            )
        })
        .collect()
}

/// One response, independent of the wire encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A `query` answer.
    Query {
        /// Generation the answer was computed against (exact u64).
        generation: u64,
        /// Engine token, echoing the request.
        engine: String,
        /// Whether the result cache answered.
        cached: bool,
        /// Match count.
        count: u64,
        /// Elements the engine visited.
        elements_visited: u64,
        /// The matched labels, pre-serialized; `None` when the request
        /// asked `labels: false`.
        nodes: Option<Arc<NodesBlob>>,
    },
    /// A mutation's new generation.
    Generation {
        /// The generation the mutation published.
        generation: u64,
    },
    /// A structured info object (`stats`, `plan_info`, `clear_cache`).
    Info(Json),
    /// A typed error.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// What to pre-size a frame with before [`encode_response`]: covers
    /// a query reply whole — its node array is the only part that is
    /// ever large — and leaves an info reply's text to `Vec` growth.
    pub(crate) fn binary_len_hint(&self) -> usize {
        // Stream id, opcode and the widest fixed query fields.
        let envelope = 48;
        envelope
            + match self {
                Response::Query { nodes: Some(blob), .. } => blob.bin().len(),
                Response::Error { message, .. } => message.len(),
                _ => 0,
            }
    }

    /// Render as the JSON protocol's response object.
    pub fn to_json(&self, id: &Json) -> Json {
        match self {
            Response::Query { generation, engine, cached, count, elements_visited, nodes } => {
                let mut fields = vec![
                    ("generation".into(), Json::uint(*generation)),
                    ("engine".into(), Json::str(engine.clone())),
                    ("cached".into(), Json::Bool(*cached)),
                    ("count".into(), Json::uint(*count)),
                    ("elements_visited".into(), Json::uint(*elements_visited)),
                ];
                if let Some(blob) = nodes {
                    fields.push(("nodes".into(), Json::Raw(Arc::clone(blob.json()))));
                }
                ok_response(id, Json::Obj(fields))
            }
            Response::Generation { generation } => ok_response(
                id,
                Json::Obj(vec![("generation".into(), Json::uint(*generation))]),
            ),
            Response::Info(v) => ok_response(id, v.clone()),
            Response::Error { code, message } => err_response(id, *code, message),
        }
    }
}

// --- varint / string primitives -------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(b: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for i in 0..10 {
        let Some(&byte) = b.get(*pos) else {
            return Err(WireError::new("truncated varint"));
        };
        *pos += 1;
        let payload = (byte & 0x7f) as u64;
        if i == 9 && payload > 1 {
            return Err(WireError::new("varint exceeds u64"));
        }
        v |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::new("varint longer than 10 bytes"))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(b: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let len = get_varint(b, pos)? as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::new("string length exceeds the frame bound"));
    }
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= b.len())
        .ok_or_else(|| WireError::new("truncated string"))?;
    let s = std::str::from_utf8(&b[*pos..end])
        .map_err(|_| WireError::new("string is not UTF-8"))?
        .to_string();
    *pos = end;
    Ok(s)
}

fn get_u8(b: &[u8], pos: &mut usize) -> Result<u8, WireError> {
    let Some(&byte) = b.get(*pos) else {
        return Err(WireError::new("truncated byte"));
    };
    *pos += 1;
    Ok(byte)
}

fn get_u64_le(b: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let end = *pos + 8;
    if end > b.len() {
        return Err(WireError::new("truncated u64"));
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&b[*pos..end]);
    *pos = end;
    Ok(u64::from_le_bytes(raw))
}

fn get_u32_field(b: &[u8], pos: &mut usize, what: &str) -> Result<u32, WireError> {
    let v = get_varint(b, pos)?;
    u32::try_from(v).map_err(|_| WireError::new(format!("{what} exceeds u32")))
}

fn check_consumed(b: &[u8], pos: usize) -> Result<(), WireError> {
    if pos == b.len() {
        Ok(())
    } else {
        Err(WireError::new(format!("{} trailing bytes after the body", b.len() - pos)))
    }
}

// --- engine-token table ---------------------------------------------

fn engine_code(token: &str) -> Option<u8> {
    match token {
        "auto" => Some(0),
        "rdbms" => Some(1),
        "twig" => Some(2),
        "twigstack" => Some(3),
        _ => None,
    }
}

fn engine_token(code: u8) -> Result<&'static str, WireError> {
    match code {
        0 => Ok("auto"),
        1 => Ok("rdbms"),
        2 => Ok("twig"),
        3 => Ok("twigstack"),
        other => Err(WireError::new(format!("unknown engine code {other}"))),
    }
}

// --- request codec ---------------------------------------------------

/// Split a binary payload into its stream id and body.
pub fn split_stream_id(payload: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let mut pos = 0;
    let sid = get_varint(payload, &mut pos)?;
    Ok((sid, &payload[pos..]))
}

/// Encode one request frame payload (stream id + opcode + body).
/// Fails typed when the engine token has no binary code — the caller
/// surfaces that before anything hits the socket.
pub fn encode_request(stream_id: u64, req: &Request, out: &mut Vec<u8>) -> Result<(), WireError> {
    put_varint(out, stream_id);
    match req {
        Request::Query { db, xpath, engine, labels, cache, hold_ms } => {
            let code = engine_code(engine).ok_or_else(|| {
                WireError::new(format!("engine token {engine:?} has no binary encoding"))
            })?;
            out.push(OP_QUERY);
            put_str(out, db);
            put_str(out, xpath);
            out.push(code);
            let mut flags = 0u8;
            if *labels {
                flags |= QF_LABELS;
            }
            if *cache {
                flags |= QF_CACHE;
            }
            if hold_ms.is_some() {
                flags |= QF_HOLD;
            }
            out.push(flags);
            if let Some(ms) = hold_ms {
                put_varint(out, *ms);
            }
        }
        Request::PlanInfo { db, xpath, engine } => {
            let code = engine_code(engine).ok_or_else(|| {
                WireError::new(format!("engine token {engine:?} has no binary encoding"))
            })?;
            out.push(OP_PLAN_INFO);
            put_str(out, db);
            put_str(out, xpath);
            out.push(code);
        }
        Request::Stats { db } => {
            out.push(OP_STATS);
            put_str(out, db);
        }
        Request::InsertSubtree { db, parent_start, xml } => {
            out.push(OP_INSERT);
            put_str(out, db);
            put_varint(out, *parent_start as u64);
            put_str(out, xml);
        }
        Request::Delete { db, start } => {
            out.push(OP_DELETE);
            put_str(out, db);
            put_varint(out, *start as u64);
        }
        Request::Retag { db, start, tag } => {
            out.push(OP_RETAG);
            put_str(out, db);
            put_varint(out, *start as u64);
            put_str(out, tag);
        }
        Request::ClearCache => out.push(OP_CLEAR_CACHE),
    }
    Ok(())
}

/// Decode a request body (everything after the stream id). Total:
/// typed errors for every malformed byte sequence.
pub fn decode_request_body(b: &[u8]) -> Result<Request, WireError> {
    let mut pos = 0;
    let op = get_u8(b, &mut pos)?;
    let req = match op {
        OP_QUERY => {
            let db = get_str(b, &mut pos)?;
            let xpath = get_str(b, &mut pos)?;
            let engine = engine_token(get_u8(b, &mut pos)?)?.to_string();
            let flags = get_u8(b, &mut pos)?;
            if flags & !(QF_LABELS | QF_CACHE | QF_HOLD) != 0 {
                return Err(WireError::new("unknown query flag bits"));
            }
            let hold_ms = if flags & QF_HOLD != 0 {
                Some(get_varint(b, &mut pos)?)
            } else {
                None
            };
            Request::Query {
                db,
                xpath,
                engine,
                labels: flags & QF_LABELS != 0,
                cache: flags & QF_CACHE != 0,
                hold_ms,
            }
        }
        OP_PLAN_INFO => {
            let db = get_str(b, &mut pos)?;
            let xpath = get_str(b, &mut pos)?;
            let engine = engine_token(get_u8(b, &mut pos)?)?.to_string();
            Request::PlanInfo { db, xpath, engine }
        }
        OP_STATS => Request::Stats { db: get_str(b, &mut pos)? },
        OP_INSERT => {
            let db = get_str(b, &mut pos)?;
            let parent_start = get_u32_field(b, &mut pos, "parent_start")?;
            let xml = get_str(b, &mut pos)?;
            Request::InsertSubtree { db, parent_start, xml }
        }
        OP_DELETE => {
            let db = get_str(b, &mut pos)?;
            let start = get_u32_field(b, &mut pos, "start")?;
            Request::Delete { db, start }
        }
        OP_RETAG => {
            let db = get_str(b, &mut pos)?;
            let start = get_u32_field(b, &mut pos, "start")?;
            let tag = get_str(b, &mut pos)?;
            Request::Retag { db, start, tag }
        }
        OP_CLEAR_CACHE => Request::ClearCache,
        other => return Err(WireError::new(format!("unknown request opcode {other:#04x}"))),
    };
    check_consumed(b, pos)?;
    Ok(req)
}

// --- response codec --------------------------------------------------

/// Encode one response frame payload. Infallible: every [`Response`]
/// has a binary form, and a query reply's node array is appended with
/// one memcpy from its blob.
pub fn encode_response(stream_id: u64, resp: &Response, out: &mut Vec<u8>) {
    let tail = encode_response_head(stream_id, resp, out);
    out.extend_from_slice(tail);
}

/// [`encode_response`] up to a query reply's node array: everything in
/// front of it goes into `out`, and the records that follow it on the
/// wire come back as they lie in the blob (empty for any other reply),
/// so a cached reply can be sent without copying them.
pub(crate) fn encode_response_head<'r>(
    stream_id: u64,
    resp: &'r Response,
    out: &mut Vec<u8>,
) -> &'r [u8] {
    put_varint(out, stream_id);
    match resp {
        Response::Query { generation, engine, cached, count, elements_visited, nodes } => {
            out.push(OP_QUERY_OK);
            out.extend_from_slice(&generation.to_le_bytes());
            // The engine token always resolves here: the server only
            // echoes tokens it accepted, which are exactly the coded
            // four.
            out.push(engine_code(engine).unwrap_or(0));
            let mut flags = 0u8;
            if *cached {
                flags |= RF_CACHED;
            }
            if nodes.is_some() {
                flags |= RF_NODES;
            }
            out.push(flags);
            put_varint(out, *count);
            put_varint(out, *elements_visited);
            if let Some(blob) = nodes {
                return blob.bin();
            }
        }
        Response::Generation { generation } => {
            out.push(OP_GENERATION_OK);
            out.extend_from_slice(&generation.to_le_bytes());
        }
        Response::Info(v) => {
            out.push(OP_INFO_OK);
            put_str(out, &v.to_string());
        }
        Response::Error { code, message } => {
            out.push(OP_ERROR);
            out.push(code.to_u8());
            put_str(out, message);
        }
    }
    &[]
}

/// Decode one response frame payload into its stream id and response.
/// Total over arbitrary bytes.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), WireError> {
    let (sid, mut resp, records) = decode_response_parts(payload)?;
    if let (Response::Query { nodes, .. }, Some(records)) = (&mut resp, records) {
        *nodes = Some(Arc::new(NodesBlob::from_bin(records.to_vec())));
    }
    Ok((sid, resp))
}

/// [`decode_response`] for a caller that wants a query reply's labels
/// as `(start, end, level)` triples: they are read straight from the
/// frame's records, with no [`NodesBlob`] in between. The
/// [`Response::Query`] comes back with `nodes: None`, and the triples
/// beside it — empty when the reply carries no labels, or is not a
/// query reply.
pub fn decode_response_triples(payload: &[u8]) -> Result<(u64, Response, Triples), WireError> {
    let (sid, resp, records) = decode_response_parts(payload)?;
    Ok((sid, resp, records.map(triples_of).unwrap_or_default()))
}

/// Decode a response payload, leaving a query reply's node records in
/// the frame: the response (its `nodes` unset) and the records, when
/// the reply carries them.
fn decode_response_parts(payload: &[u8]) -> Result<(u64, Response, Option<&[u8]>), WireError> {
    let mut pos = 0;
    let sid = get_varint(payload, &mut pos)?;
    let b = payload;
    let op = get_u8(b, &mut pos)?;
    let mut records = None;
    let resp = match op {
        OP_QUERY_OK => {
            let generation = get_u64_le(b, &mut pos)?;
            let engine = engine_token(get_u8(b, &mut pos)?)?.to_string();
            let flags = get_u8(b, &mut pos)?;
            if flags & !(RF_CACHED | RF_NODES) != 0 {
                return Err(WireError::new("unknown query-response flag bits"));
            }
            let count = get_varint(b, &mut pos)?;
            let elements_visited = get_varint(b, &mut pos)?;
            if flags & RF_NODES != 0 {
                let want = usize::try_from(count)
                    .ok()
                    .and_then(|c| c.checked_mul(NODE_BYTES))
                    .filter(|&w| pos.checked_add(w).is_some_and(|e| e <= b.len()))
                    .ok_or_else(|| WireError::new("truncated node array"))?;
                records = Some(&b[pos..pos + want]);
                pos += want;
            }
            Response::Query {
                generation,
                engine,
                cached: flags & RF_CACHED != 0,
                count,
                elements_visited,
                nodes: None,
            }
        }
        OP_GENERATION_OK => Response::Generation { generation: get_u64_le(b, &mut pos)? },
        OP_INFO_OK => {
            let text = get_str(b, &mut pos)?;
            let v = crate::json::parse(&text)
                .map_err(|e| WireError::new(format!("info payload: {e}")))?;
            Response::Info(v)
        }
        OP_ERROR => {
            let code = ErrorCode::from_u8(get_u8(b, &mut pos)?);
            let message = get_str(b, &mut pos)?;
            Response::Error { code, message }
        }
        other => return Err(WireError::new(format!("unknown response opcode {other:#04x}"))),
    };
    check_consumed(b, pos)?;
    Ok((sid, resp, records))
}

/// Decode one JSON-protocol response to a `query` request into its
/// echoed `id` and a [`Response::Query`] or [`Response::Error`] — the
/// inverse of [`Response::to_json`] for those two, in one pass over the
/// frame: the envelope and the reply's fields are walked with the
/// parser's own grammar, and the node array goes straight into its
/// [`NodesBlob`] (see [`NodesBlob::from_json`]), never through a value
/// per label. Fields may come in any order (the first of a repeated key
/// counts, as [`Json::get`] reads) and unknown ones are stepped over; a
/// missing field, a mistyped one, or a node array whose length is not
/// `count` is a typed error. An unknown error code reads as
/// [`ErrorCode::Internal`], as on the binary wire.
pub fn decode_json_query_response(frame: &str) -> Result<(Json, Response), JsonError> {
    let mut cur = Cursor::new(frame);
    let (mut id, mut result, mut error) = (None, None, None);
    cur.object(|cur, key| {
        match &*key {
            "id" if id.is_none() => id = Some(cur.value(1)?),
            "result" if result.is_none() => result = Some(query_result(cur)?),
            "error" if error.is_none() => error = Some(cur.value(1)?),
            _ => {
                cur.value(1)?;
            }
        }
        Ok(())
    })?;
    cur.finish()?;
    let resp = match (error, result) {
        (Some(err), _) => {
            let field = |key| err.get(key).and_then(Json::as_str);
            Response::Error {
                code: (0..=u8::MAX)
                    .map(ErrorCode::from_u8)
                    .find(|code| field("code") == Some(code.as_str()))
                    .unwrap_or(ErrorCode::Internal),
                message: field("message").unwrap_or_default().to_string(),
            }
        }
        (None, Some(query)) => query,
        (None, None) => return Err(cur.err("response has neither result nor error")),
    };
    Ok((id.unwrap_or(Json::Null), resp))
}

/// The `result` object of a JSON `query` reply, at `cur`.
fn query_result(cur: &mut Cursor<'_>) -> Result<Response, JsonError> {
    let (mut generation, mut engine, mut cached) = (None, None, None);
    let (mut count, mut elements_visited, mut nodes) = (None, None, None);
    cur.object(|cur, key| {
        match &*key {
            "generation" if generation.is_none() => generation = Some(cur.uint()?),
            "engine" if engine.is_none() => engine = Some(cur.string()?.into_owned()),
            "cached" if cached.is_none() => {
                let flag = cur.value(2)?.as_bool();
                cached = Some(flag.ok_or_else(|| cur.err("\"cached\" is not a boolean"))?);
            }
            "count" if count.is_none() => count = Some(cur.uint()?),
            "elements_visited" if elements_visited.is_none() => {
                elements_visited = Some(cur.uint()?)
            }
            "nodes" if nodes.is_none() => nodes = Some(NodesBlob::scan_json(cur, count)?),
            _ => {
                cur.value(2)?;
            }
        }
        Ok(())
    })?;
    let lacks = |what: &str| cur.err(&format!("query reply lacks {what}"));
    let count = count.ok_or_else(|| lacks("count"))?;
    if nodes.as_ref().is_some_and(|blob| blob.len() as u64 != count) {
        return Err(cur.err("query reply's node array does not hold `count` labels"));
    }
    Ok(Response::Query {
        generation: generation.ok_or_else(|| lacks("generation"))?,
        engine: engine.ok_or_else(|| lacks("engine"))?,
        cached: cached.unwrap_or(false),
        count,
        elements_visited: elements_visited.ok_or_else(|| lacks("elements_visited"))?,
        nodes: nodes.map(Arc::new),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_and_reject_overlong() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
            assert_eq!(pos, out.len());
        }
        // Overlong: 11 continuation bytes.
        let overlong = vec![0x80u8; 11];
        assert!(get_varint(&overlong, &mut 0).is_err());
        // 10th byte carrying more than the top bit of a u64.
        let mut too_big = vec![0xffu8; 9];
        too_big.push(0x02);
        assert!(get_varint(&too_big, &mut 0).is_err());
        // Truncated.
        assert!(get_varint(&[0x80], &mut 0).is_err());
    }

    #[test]
    fn requests_round_trip_through_the_binary_codec() {
        let reqs = [
            Request::Query {
                db: "aux".into(),
                xpath: "//a[b='c']".into(),
                engine: "twigstack".into(),
                labels: true,
                cache: false,
                hold_ms: Some(250),
            },
            Request::PlanInfo { db: String::new(), xpath: "/x".into(), engine: "auto".into() },
            Request::Stats { db: "aux".into() },
            Request::InsertSubtree { db: String::new(), parent_start: 0, xml: "<e/>".into() },
            Request::Delete { db: "d".into(), start: 42 },
            Request::Retag { db: String::new(), start: 7, tag: "name".into() },
            Request::ClearCache,
        ];
        for (i, req) in reqs.iter().enumerate() {
            let mut payload = Vec::new();
            encode_request(i as u64 + 1, req, &mut payload).unwrap();
            let (sid, body) = split_stream_id(&payload).unwrap();
            assert_eq!(sid, i as u64 + 1);
            assert_eq!(&decode_request_body(body).unwrap(), req, "request {i}");
        }
    }

    #[test]
    fn responses_round_trip_through_the_binary_codec() {
        let blob = Arc::new(NodesBlob::from_triples(
            [(1u32, 8u32, 1u16), (2, 3, 2), (4, 7, 2)].into_iter(),
        ));
        let resps = [
            Response::Query {
                generation: u64::MAX,
                engine: "rdbms".into(),
                cached: true,
                count: 3,
                elements_visited: 99,
                nodes: Some(Arc::clone(&blob)),
            },
            Response::Query {
                generation: 0,
                engine: "auto".into(),
                cached: false,
                count: 12,
                elements_visited: 1,
                nodes: None,
            },
            Response::Generation { generation: (1 << 53) + 1 },
            Response::Info(Json::Obj(vec![("entries".into(), Json::uint(3))])),
            Response::Error { code: ErrorCode::Overloaded, message: "busy".into() },
        ];
        for (i, resp) in resps.iter().enumerate() {
            let mut payload = Vec::new();
            encode_response(i as u64, resp, &mut payload);
            let (sid, decoded) = decode_response(&payload).unwrap();
            assert_eq!(sid, i as u64);
            assert_eq!(&decoded, resp, "response {i}");
        }
        assert_eq!(blob.triples(), vec![(1, 8, 1), (2, 3, 2), (4, 7, 2)]);
        assert_eq!(blob.json().as_str(), "[[1,8,1],[2,3,2],[4,7,2]]");
        assert_eq!(blob.len(), 3);
    }

    #[test]
    fn unknown_engine_token_is_an_encode_error_not_a_frame() {
        let req = Request::Query {
            db: String::new(),
            xpath: "//x".into(),
            engine: "warp".into(),
            labels: true,
            cache: true,
            hold_ms: None,
        };
        let mut out = Vec::new();
        assert!(encode_request(1, &req, &mut out).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Vec::new();
        encode_request(1, &Request::ClearCache, &mut payload).unwrap();
        payload.push(0);
        let (_, body) = split_stream_id(&payload).unwrap();
        assert!(decode_request_body(body).is_err());
    }
}
