//! Property tests for the binary wire codec and its equivalence with
//! the JSON protocol.
//!
//! Three families, per the v2 protocol contract:
//!
//! 1. **json ≡ binary** — every request/response round-trips through
//!    the binary codec into a value whose JSON rendering is
//!    byte-for-byte the one the JSON protocol would have produced, and
//!    the JSON halves (`from_json` / `to_json`) are inverses too.
//! 2. **Exact u64s** — generations and holds at and beyond the f64
//!    2^53 precision cliff survive both encodings digit-exact.
//! 3. **Total decoding** — every truncated or bit-flipped frame yields
//!    a typed [`WireError`], never a panic, and never a silently
//!    different value (mirrors `prop_parser.rs`'s fuzz shapes).
//! 4. **One-pass JSON replies** — the client's `query` reply decoder
//!    ([`decode_json_query_response`]) reads what the generic tree
//!    decode (`json::parse` + a walk) reads, whatever the whitespace and
//!    field order, and rejects every malformed node array with a typed
//!    error.
//! 5. **One node-array grammar** — the byte-level node-array scanner
//!    accepts exactly the texts the generic parser reads as labels
//!    (`json::parse` plus a shape and range check), with equal triples,
//!    across every field width, the integer edges, whitespace, the
//!    frame's last bytes and random single-byte edits.

use blas_server::json::{self, Json};
use blas_server::wire::{
    decode_json_query_response, decode_request_body, decode_response, encode_request,
    encode_response, split_stream_id,
};
use blas_server::{ErrorCode, NodesBlob, QueryReply, Request, Response};
use proptest::prelude::*;
use std::sync::Arc;

const ENGINES: &[&str] = &["auto", "rdbms", "twig", "twigstack"];

/// Text for xpaths, tags, db names, xml fragments: exercises JSON
/// escaping (quotes), multi-byte UTF-8 (`ä`, `☃`) and the empty string.
fn text() -> &'static str {
    "[a-z0-9/@'\"<>=ä☃. ]{0,20}"
}

/// u64s biased toward the interesting cliffs: varint group boundaries
/// and the f64 2^53 precision edge the JSON layer must not round.
fn big_u64() -> impl Strategy<Value = u64> {
    let edges = prop::sample::select(vec![
        0u64,
        1,
        127,
        128,
        16_383,
        16_384,
        (1u64 << 53) - 1,
        1u64 << 53,
        (1u64 << 53) + 1,
        u64::MAX - 1,
        u64::MAX,
    ]);
    (0u64..1 << 20, edges, prop::bool::ANY)
        .prop_map(|(small, edge, pick_edge)| if pick_edge { edge } else { small })
}

fn small_u32() -> impl Strategy<Value = u32> {
    let edges = prop::sample::select(vec![0u32, 1, 127, 128, u32::MAX - 1, u32::MAX]);
    (0u32..1 << 16, edges, prop::bool::ANY)
        .prop_map(|(small, edge, pick_edge)| if pick_edge { edge } else { small })
}

fn engine() -> impl Strategy<Value = &'static str> {
    prop::sample::select(ENGINES.to_vec())
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    prop::sample::select(vec![
        ErrorCode::Overloaded,
        ErrorCode::BadRequest,
        ErrorCode::Xpath,
        ErrorCode::Mutation,
        ErrorCode::Timeout,
        ErrorCode::FrameTooLarge,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ])
}

/// One random request drawn across every variant.
fn request_strategy() -> BoxedStrategy<Request> {
    (
        (0usize..7, text(), text(), engine()),
        (prop::bool::ANY, prop::bool::ANY, prop::option::of(big_u64())),
        (small_u32(), text()),
    )
        .prop_map(|((kind, db, xpath, engine), (labels, cache, hold_ms), (start, extra))| {
            match kind {
                0 => Request::Query {
                    db,
                    xpath,
                    engine: engine.to_string(),
                    labels,
                    cache,
                    hold_ms,
                },
                1 => Request::PlanInfo { db, xpath, engine: engine.to_string() },
                2 => Request::Stats { db },
                3 => Request::InsertSubtree { db, parent_start: start, xml: extra },
                4 => Request::Delete { db, start },
                5 => Request::Retag { db, start, tag: extra },
                _ => Request::ClearCache,
            }
        })
        .boxed()
}

fn nodes_strategy() -> impl Strategy<Value = Arc<NodesBlob>> {
    prop::collection::vec((small_u32(), small_u32(), 0u16..1024), 0..12)
        .prop_map(|triples| Arc::new(NodesBlob::from_triples(triples.into_iter())))
}

/// One random response drawn across every variant. A `Query` carrying
/// nodes keeps `count` consistent with the blob, as the server does.
fn response_strategy() -> BoxedStrategy<Response> {
    (
        (0usize..4, big_u64(), engine(), prop::bool::ANY),
        (nodes_strategy(), prop::bool::ANY, big_u64()),
        (error_code(), text()),
    )
        .prop_map(
            |((kind, big, engine, cached), (blob, with_nodes, visited), (code, msg))| match kind {
                0 => Response::Query {
                    generation: big,
                    engine: engine.to_string(),
                    cached,
                    count: if with_nodes { blob.len() as u64 } else { visited },
                    elements_visited: visited,
                    nodes: if with_nodes { Some(Arc::clone(&blob)) } else { None },
                },
                1 => Response::Generation { generation: big },
                2 => Response::Info(Json::Obj(vec![
                    ("entries".into(), Json::uint(big)),
                    ("label".into(), Json::str(msg.clone())),
                ])),
                _ => Response::Error { code, message: msg },
            },
        )
        .boxed()
}

proptest! {
    /// The two protocol halves agree on every request: the binary
    /// round trip reproduces the request, and its JSON rendering is
    /// byte-identical to what a JSON client would have sent. The JSON
    /// half is its own inverse (`from_json ∘ to_json = id`).
    #[test]
    fn request_json_and_binary_encodings_agree(
        req in request_strategy(),
        sid in big_u64(),
    ) {
        let id = Json::uint(7);
        let json_form = req.to_json(&id);

        // JSON half round-trips.
        let method = json_form.get("method").and_then(Json::as_str).unwrap().to_string();
        let params = json_form.get("params").cloned().unwrap();
        let via_json = Request::from_json(&method, &params)
            .unwrap_or_else(|(c, m)| panic!("from_json(to_json): {c:?}: {m}"));
        prop_assert_eq!(&via_json, &req);

        // Binary half round-trips and lands on the same JSON bytes.
        let mut payload = Vec::new();
        encode_request(sid, &req, &mut payload).unwrap();
        let (got_sid, body) = split_stream_id(&payload).unwrap();
        prop_assert_eq!(got_sid, sid);
        let via_bin = decode_request_body(body).unwrap();
        prop_assert_eq!(&via_bin, &req);
        prop_assert_eq!(via_bin.to_json(&id).to_string(), json_form.to_string());
    }

    /// Same equivalence on the response side: binary decode is exact
    /// (including `Arc<NodesBlob>` members, rebuilt in both encodings)
    /// and renders to the identical JSON response text.
    #[test]
    fn response_json_and_binary_encodings_agree(
        resp in response_strategy(),
        sid in big_u64(),
    ) {
        let id = Json::uint(3);
        let mut payload = Vec::new();
        encode_response(sid, &resp, &mut payload);
        let (got_sid, decoded) = decode_response(&payload).unwrap();
        prop_assert_eq!(got_sid, sid);
        prop_assert_eq!(&decoded, &resp);
        prop_assert_eq!(decoded.to_json(&id).to_string(), resp.to_json(&id).to_string());
    }

    /// Exact u64 generations survive the *JSON text* layer too: what
    /// the binary protocol carries fixed-width, the JSON protocol must
    /// carry digit-exact through serialize + parse.
    #[test]
    fn generations_survive_the_json_text_layer_exactly(generation in big_u64()) {
        let resp = Response::Generation { generation };
        let text = resp.to_json(&Json::uint(1)).to_string();
        let parsed = json::parse(&text).unwrap();
        let back = parsed.get("result").and_then(|r| r.get("generation")).and_then(Json::as_u64);
        prop_assert_eq!(back, Some(generation));
    }

    /// Every proper prefix of a valid request payload is a typed
    /// error — truncation can never produce a different valid request
    /// (strict end-of-body checking), and never panics.
    #[test]
    fn truncated_request_payloads_are_typed_errors(
        req in request_strategy(),
        sid in big_u64(),
    ) {
        let mut payload = Vec::new();
        encode_request(sid, &req, &mut payload).unwrap();
        for cut in 0..payload.len() {
            let decoded = split_stream_id(&payload[..cut])
                .and_then(|(_, body)| decode_request_body(body));
            prop_assert!(decoded.is_err(), "prefix of {} decoded at cut {cut}", payload.len());
        }
    }

    /// Same totality for responses.
    #[test]
    fn truncated_response_payloads_are_typed_errors(
        resp in response_strategy(),
        sid in big_u64(),
    ) {
        let mut payload = Vec::new();
        encode_response(sid, &resp, &mut payload);
        for cut in 0..payload.len() {
            prop_assert!(
                decode_response(&payload[..cut]).is_err(),
                "prefix of {} decoded at cut {cut}",
                payload.len()
            );
        }
    }

    /// Bit-flip fuzz: mutate one bit anywhere in a valid payload and
    /// decode it as both a request and a response. Either may succeed
    /// (the flip can land in string content) but neither may panic,
    /// and a success must still satisfy the strict framing rules
    /// (re-encoding a surviving request reproduces its own bytes).
    #[test]
    fn mutated_frames_decode_totally(
        req in request_strategy(),
        resp in response_strategy(),
        at in 0usize..4096,
        bit in 0u32..8,
    ) {
        let mut req_payload = Vec::new();
        encode_request(9, &req, &mut req_payload).unwrap();
        let mut resp_payload = Vec::new();
        encode_response(9, &resp, &mut resp_payload);

        for payload in [&mut req_payload, &mut resp_payload] {
            let at = at % payload.len();
            payload[at] ^= 1 << bit;
            if let Ok((sid2, survivor)) =
                split_stream_id(payload).and_then(|(s, body)| decode_request_body(body).map(|r| (s, r)))
            {
                let mut re = Vec::new();
                if encode_request(sid2, &survivor, &mut re).is_ok() {
                    prop_assert_eq!(&re, &*payload, "surviving request must re-encode canonically");
                }
            }
            let _ = decode_response(payload);
        }
    }

    /// Arbitrary byte soup never panics either decoder.
    #[test]
    fn random_bytes_never_panic_the_decoders(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let _ = split_stream_id(&bytes).and_then(|(_, body)| decode_request_body(body));
        let _ = decode_response(&bytes);
    }
}

/// The error-code byte table is a bijection on known codes and
/// collapses unknown bytes to `Internal` instead of desyncing.
#[test]
fn error_code_bytes_round_trip() {
    let all = [
        ErrorCode::Overloaded,
        ErrorCode::BadRequest,
        ErrorCode::Xpath,
        ErrorCode::Mutation,
        ErrorCode::Timeout,
        ErrorCode::FrameTooLarge,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];
    for code in all {
        assert_eq!(ErrorCode::from_u8(code.to_u8()), code);
    }
    assert_eq!(ErrorCode::from_u8(0), ErrorCode::Internal);
    assert_eq!(ErrorCode::from_u8(255), ErrorCode::Internal);
}

// --- one-pass JSON query replies ---------------------------------------

/// One label, drawn with the edges both integer widths must carry.
fn label() -> impl Strategy<Value = (u32, u32, u16)> {
    let level_edges = prop::sample::select(vec![0u16, 1, u16::MAX - 1, u16::MAX]);
    let level = (0u16..1024, level_edges, prop::bool::ANY)
        .prop_map(|(small, edge, pick_edge)| if pick_edge { edge } else { small });
    (small_u32(), small_u32(), level)
}

/// JSON whitespace to put between two tokens, most often none.
const GAPS: &[&str] = &["", "", "", " ", "\n", "\t ", "\r\n  "];

/// A `query` reply frame as any JSON writer may lay it out: `gaps`
/// picks the whitespace between every two tokens, `order` ranks the
/// result's fields and `id_last` puts the envelope's `id` after its
/// `result`.
fn reply_frame(
    (generation, engine, cached, visited): (u64, &str, bool, u64),
    labels: &[(u32, u32, u16)],
    gaps: &[usize],
    order: &[u32],
    id_last: bool,
) -> String {
    let mut next_gap = gaps.iter().cycle().map(|&g| GAPS[g % GAPS.len()]);
    // The tokens, each after a gap.
    let mut spaced = |tokens: &[&str]| -> String {
        tokens.iter().map(|t| format!("{}{t}", next_gap.next().unwrap_or(""))).collect()
    };
    let nodes: Vec<String> = labels
        .iter()
        .map(|(s, e, l)| {
            let (s, e, l) = (s.to_string(), e.to_string(), l.to_string());
            spaced(&["[", &s, ",", &e, ",", &l, "]"])
        })
        .collect();
    let mut fields = vec![
        ("generation", generation.to_string()),
        ("engine", format!("\"{engine}\"")),
        ("cached", cached.to_string()),
        ("count", labels.len().to_string()),
        ("elements_visited", visited.to_string()),
        ("nodes", format!("[{}{}", nodes.join(","), spaced(&["]"]))),
    ];
    let mut ranked: Vec<(u32, (&str, String))> =
        order.iter().copied().zip(fields.drain(..)).collect();
    ranked.sort_by_key(|(rank, _)| *rank);
    let result: Vec<String> =
        ranked.into_iter().map(|(_, (k, v))| spaced(&[&format!("\"{k}\""), ":", &v])).collect();
    let id = spaced(&["\"id\"", ":", "7"]);
    let result = spaced(&["\"result\"", ":", "{", &result.join(","), "}"]);
    let (first, second) = if id_last { (result, id) } else { (id, result) };
    spaced(&["{", &first, ",", &second, "}", ""])
}

/// The generic decode a reply used to take: parse the whole frame into
/// a value tree, then walk it.
fn tree_decode(frame: &str) -> (Json, QueryReply) {
    let v = json::parse(frame).unwrap();
    let r = v.get("result").unwrap();
    let num = |k: &str| r.get(k).and_then(Json::as_u64).unwrap();
    let nodes = r.get("nodes").and_then(Json::as_arr).unwrap();
    let reply = QueryReply {
        generation: num("generation"),
        engine: r.get("engine").and_then(Json::as_str).unwrap().to_string(),
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
    };
    (v.get("id").cloned().unwrap(), reply)
}

/// The one-pass decode of the same frame, in `tree_decode`'s shape.
fn one_pass_decode(frame: &str) -> (Json, QueryReply) {
    match decode_json_query_response(frame).unwrap() {
        (id, Response::Query { generation, engine, cached, count, elements_visited, nodes }) => {
            let nodes = nodes.map(|blob| blob.triples()).unwrap_or_default();
            let count = count as usize;
            (id, QueryReply { generation, engine, cached, count, elements_visited, nodes })
        }
        (_, other) => panic!("decoded a query reply as {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass decoder reads exactly what the tree decode reads,
    /// for any label values (0, `u32::MAX`, `u16::MAX` included), any
    /// array length (empty included), any whitespace between tokens and
    /// any field order.
    #[test]
    fn json_one_pass_decode_equals_the_tree_decode(
        fields in (big_u64(), engine(), prop::bool::ANY, big_u64()),
        labels in prop::collection::vec(label(), 0..40),
        gaps in prop::collection::vec(0usize..64, 1..48),
        order in prop::collection::vec(0u32..1000, 6),
        id_last in prop::bool::ANY,
    ) {
        let frame = reply_frame(fields, &labels, &gaps, &order, id_last);
        let one_pass = one_pass_decode(&frame);
        prop_assert_eq!(&one_pass, &tree_decode(&frame), "frame: {}", frame);
        prop_assert_eq!(&one_pass.1.nodes, &labels);
    }

    /// `NodesBlob::from_json` inverts `NodesBlob::json`, and the reply
    /// decoder inverts what the server sends (`Response::to_json`).
    #[test]
    fn json_node_arrays_round_trip(
        labels in prop::collection::vec(label(), 0..40),
        fields in (big_u64(), engine(), prop::bool::ANY, big_u64()),
    ) {
        let blob = NodesBlob::encode(labels.iter().copied());
        prop_assert_eq!(&NodesBlob::from_json(blob.json()).unwrap(), &blob);
        let (generation, engine, cached, visited) = fields;
        let resp = Response::Query {
            generation,
            engine: engine.to_string(),
            cached,
            count: labels.len() as u64,
            elements_visited: visited,
            nodes: Some(Arc::new(blob)),
        };
        let frame = resp.to_json(&Json::uint(9)).to_string();
        prop_assert_eq!(decode_json_query_response(&frame).unwrap(), (Json::uint(9), resp));
    }

    /// Every proper prefix of a JSON query reply is a typed error.
    #[test]
    fn json_truncated_query_replies_are_typed_errors(
        labels in prop::collection::vec(label(), 0..6),
        fields in (big_u64(), engine(), prop::bool::ANY, big_u64()),
    ) {
        let frame = reply_frame(fields, &labels, &[0], &[0, 1, 2, 3, 4, 5], false);
        for cut in (0..frame.len()).filter(|&cut| frame.is_char_boundary(cut)) {
            prop_assert!(
                decode_json_query_response(&frame[..cut]).is_err(),
                "prefix {:?} decoded", &frame[..cut]
            );
        }
    }

    /// One flipped bit anywhere in a JSON query reply never panics the
    /// decoder; a frame that still decodes is still self-consistent.
    #[test]
    fn json_mutated_query_replies_decode_totally(
        labels in prop::collection::vec(label(), 0..6),
        fields in (big_u64(), engine(), prop::bool::ANY, big_u64()),
        at in 0usize..4096,
        bit in 0u32..8,
    ) {
        let mut frame = reply_frame(fields, &labels, &[0], &[0, 1, 2, 3, 4, 5], false).into_bytes();
        let at = at % frame.len();
        frame[at] ^= 1 << bit;
        if let Ok(text) = std::str::from_utf8(&frame) {
            if let Ok((_, Response::Query { count, nodes: Some(blob), .. })) =
                decode_json_query_response(text)
            {
                prop_assert_eq!(blob.len() as u64, count);
            }
        }
    }
}

/// Malformed node arrays are typed errors — through `NodesBlob::from_json`
/// and inside a whole reply — never a panic and never a guess.
#[test]
fn malformed_json_node_arrays_are_typed_errors() {
    for bad in [
        "[[1.5,2,1]]",          // a float
        "[[1,2,1.0]]",          // an integral float is still a float
        "[[1,2,1e0]]",          // so is an exponent
        "[[-1,2,1]]",           // a negative
        "[[4294967296,2,1]]",   // 2^32 as start
        "[[1,4294967296,1]]",   // 2^32 as end
        "[[1,2,65536]]",        // 65536 as level
        "[[1,2]]",              // two fields
        "[[1,2,3,4]]",          // four fields
        "[[1,2,3],]",           // a trailing comma between labels
        "[[1,2,3,]]",           // a trailing comma inside a label
        "[[1,2,3]",             // a missing ]
        "[[1,2,3",              // two missing ]
        "[[[1,2,3]]]",          // nested one level too deep
        "[\"1,2,3\"]",          // a string label
        "[[\"1\",2,3]]",        // a string field
        "[[01,2,3]]",           // a leading zero
        "[[+1,2,3]]",           // a plus sign
        "[[1,2,3]] x",          // trailing input
        "[1,2,3]",              // a bare label
        "{}",                   // not an array
        "",                     // nothing
    ] {
        assert!(NodesBlob::from_json(bad).is_err(), "{bad:?} must not decode");
        let frame = format!(
            concat!(
                r#"{{"id":1,"result":{{"generation":0,"engine":"auto","cached":false,"#,
                r#""count":1,"elements_visited":1,"nodes":{}}}}}"#
            ),
            bad
        );
        assert!(decode_json_query_response(&frame).is_err(), "{frame:?} must not decode");
    }
    // Whitespace is allowed wherever JSON allows it.
    let spaced = NodesBlob::from_json(" [ [ 1 ,\n2,\t3 ] , [4,5,6]\r\n] ").unwrap();
    assert_eq!(spaced.triples(), vec![(1, 2, 3), (4, 5, 6)]);
}

/// The reply around the node array is held to its shape too: each
/// required field present and typed, and `count` equal to the labels
/// carried — a hostile `count` is an error, never an allocation.
#[test]
fn malformed_json_query_replies_are_typed_errors() {
    let fields = r#""generation":3,"engine":"auto","cached":true,"elements_visited":9"#;
    let ok = format!(r#"{{"id":1,"result":{{{fields},"count":1,"nodes":[[1,2,1]]}}}}"#);
    assert!(decode_json_query_response(&ok).is_ok());
    for bad in [
        format!(r#"{{"id":1,"result":{{{fields},"count":2,"nodes":[[1,2,1]]}}}}"#),
        format!(r#"{{"id":1,"result":{{{fields},"count":18446744073709551615,"nodes":[]}}}}"#),
        format!(r#"{{"id":1,"result":{{"nodes":[[1,2,1]],"count":1e100,{fields}}}}}"#),
        format!(r#"{{"id":1,"result":{{{fields},"nodes":[[1,2,1]]}}}}"#),
        format!(r#"{{"id":1,"result":{{{fields},"count":-1}}}}"#),
        r#"{"id":1,"result":{"engine":"auto","count":0,"elements_visited":0}}"#.to_string(),
        r#"{"id":1,"result":{"generation":0,"engine":7,"count":0,"elements_visited":0}}"#
            .to_string(),
        format!(r#"{{"id":1,"result":{{"generation":0,"engine":"auto","cached":1,{}}}}}"#,
            r#""count":0,"elements_visited":0"#),
        r#"{"id":1}"#.to_string(),
        r#"{"id":1,"result":[]}"#.to_string(),
        r#"[]"#.to_string(),
        format!("{ok} {{}}"),
    ] {
        assert!(decode_json_query_response(&bad).is_err(), "{bad:?} must not decode");
    }
    // An error frame decodes to the typed error, `null` id and all.
    let (id, resp) = decode_json_query_response(
        r#"{"id":null,"error":{"code":"overloaded","message":"connection limit reached"}}"#,
    )
    .unwrap();
    assert_eq!(id, Json::Null);
    assert_eq!(
        resp,
        Response::Error { code: ErrorCode::Overloaded, message: "connection limit reached".into() }
    );
}

// --- the node-array scanner against the generic parser -------------------

/// Label fields past the common case: each type's maximum and the value
/// after it, 2^64 (past `u64`) and the widest 10-digit run.
const FIELD_EDGES: &[&str] =
    &["4294967295", "4294967296", "65535", "65536", "18446744073709551616", "9999999999"];

/// Bytes a single-byte edit writes: digits and their ASCII neighbours
/// `/` and `:`, the node array's structure, whitespace, and the starts
/// of floats, signs, strings and garbage.
const EDIT_BYTES: &[u8] = b"0123456789/:,[] \t\n.eE-+\"x";

/// One label field's literal: a value within `max` whose decimal length
/// is drawn uniformly (1–10 digits for `u32`, 1–5 for `u16`), or, one
/// time in 32, an edge from [`FIELD_EDGES`].
fn field_text(max: u64) -> impl Strategy<Value = String> {
    let widest = max.to_string().len() as u32;
    (1..widest + 1, 0..u64::MAX, 0u32..32, prop::sample::select(FIELD_EDGES.to_vec())).prop_map(
        move |(len, raw, roll, edge)| {
            if roll == 0 {
                return edge.to_string();
            }
            let lo = if len == 1 { 0 } else { 10u64.pow(len - 1) };
            let hi = (10u64.pow(len) - 1).min(max);
            (lo + raw % (hi - lo + 1)).to_string()
        },
    )
}

/// A node array as text, whitespace between tokens now and then
/// (`gaps` indexes [`GAPS`] one time in eight) and 0–9 bytes of it
/// after the closing bracket, so the last label ends anywhere in the
/// frame's last 8 bytes.
fn node_array_text() -> impl Strategy<Value = String> {
    let wide = || field_text(u32::MAX.into());
    let label = (wide(), wide(), field_text(u16::MAX.into()));
    (prop::collection::vec(label, 0..12), prop::collection::vec(0usize..56, 1..24), 0usize..10)
        .prop_map(|(labels, gaps, tail)| {
            let mut gap = gaps.iter().cycle().map(|&g| GAPS.get(g).copied().unwrap_or(""));
            let mut text = String::new();
            let mut token = |text: &mut String, t: &str| {
                text.push_str(gap.next().unwrap_or(""));
                text.push_str(t);
            };
            token(&mut text, "[");
            for (i, (s, e, l)) in labels.iter().enumerate() {
                if i > 0 {
                    token(&mut text, ",");
                }
                for t in ["[", s, ",", e, ",", l, "]"] {
                    token(&mut text, t);
                }
            }
            token(&mut text, "]");
            text.push_str(&" ".repeat(tail));
            text
        })
}

/// Apply single-byte edits — `(at, kind, byte)`: replace, insert or
/// delete the byte at `at` modulo the length.
fn edit(text: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, kind, byte) in edits {
        let at = at % (bytes.len() + 1);
        match kind {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    // Every edit byte is ASCII, so the text stays UTF-8.
    String::from_utf8(bytes).unwrap()
}

/// The labels the generic parser reads from `text`: a JSON array of
/// three-element arrays of integers within `u32` / `u32` / `u16`, or
/// `None`. A text whose every value is a number holds `.`, `e`, `E` or
/// `-` only inside a float or a negative literal, so refusing those
/// bytes leaves exactly the unsigned integer literals.
fn reference_nodes(text: &str) -> Option<Vec<(u32, u32, u16)>> {
    let value = json::parse(text).ok()?;
    let nodes = value
        .as_arr()?
        .iter()
        .map(|label| match label.as_arr()? {
            [s, e, l] => Some((
                u32::try_from(s.as_u64()?).ok()?,
                u32::try_from(e.as_u64()?).ok()?,
                u16::try_from(l.as_u64()?).ok()?,
            )),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    (!text.bytes().any(|b| matches!(b, b'.' | b'e' | b'E' | b'-'))).then_some(nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The node-array scanner and the generic parser treat every text
    /// the same way: both accept it with equal triples, or both reject
    /// it — through `NodesBlob::from_json` and inside a whole reply.
    #[test]
    fn json_node_array_scanner_equals_the_generic_parser(
        text in node_array_text(),
        edits in prop::collection::vec(
            (0usize..4096, 0u8..3, prop::sample::select(EDIT_BYTES.to_vec())),
            0..3,
        ),
    ) {
        let text = edit(&text, &edits);
        let want = reference_nodes(&text);
        let got = NodesBlob::from_json(&text).ok().map(|blob| blob.triples());
        prop_assert_eq!(&got, &want, "text: {:?}", text);

        let count = want.as_ref().map_or(0, Vec::len);
        let frame = format!(
            concat!(
                r#"{{"id":1,"result":{{"generation":0,"engine":"auto","cached":true,"#,
                r#""count":{},"elements_visited":0,"nodes":{}}}}}"#
            ),
            count, text
        );
        let got = match decode_json_query_response(&frame) {
            Ok((_, Response::Query { nodes, .. })) => nodes.map(|blob| blob.triples()),
            _ => None,
        };
        prop_assert_eq!(&got, &want, "frame: {:?}", frame);
    }
}
