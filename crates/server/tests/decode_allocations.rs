//! Clock-free pins on the clients' `query` reply decoders: reading a
//! 10 858-label reply into D-label triples allocates a fixed handful of
//! times, never per label, on either wire — the binary one without a
//! copy of the node records — and a hostile `count` allocates no more
//! than the frame could hold. A test binary of its own, because it
//! installs a counting global allocator.

use blas_server::json;
use blas_server::wire::{
    decode_json_query_response, decode_response_triples, encode_response, NodesBlob,
};
use blas_server::{Json, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts allocations (and reallocations) and their bytes on threads
/// that armed it.
struct Counting;

thread_local! {
    /// `(allocations, bytes)` while armed, `None` otherwise.
    static TALLY: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn tally(bytes: usize) {
    let _ = TALLY.try_with(|t| {
        if let Some((n, b)) = t.get() {
            t.set(Some((n + 1, b + bytes)));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its output and the `(allocations, bytes)` it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    TALLY.with(|t| t.set(Some((0, 0))));
    let out = f();
    (out, TALLY.with(|t| t.replace(None)).unwrap())
}

const LABELS: u32 = 10_858;

#[test]
fn a_query_reply_decodes_in_a_fixed_number_of_allocations() {
    let triples: Vec<(u32, u32, u16)> =
        (0..LABELS).map(|i| (3 * i + 1, 3 * i + 2, (i % 12) as u16 + 1)).collect();
    // The server's JSON reply to a cached query, as it goes on the wire.
    let sent = Response::Query {
        generation: 1,
        engine: "twigstack".into(),
        cached: true,
        count: LABELS.into(),
        elements_visited: 123_456,
        nodes: Some(Arc::new(NodesBlob::encode(triples.iter().copied()))),
    };
    let frame = sent.to_json(&Json::uint(42)).to_string();

    // What `Client::query` does with the frame: decode it, then take the
    // triples out — the engine token, the blob's bytes, its `Arc` and
    // the triples are the only allocations.
    let ((id, resp, labels), (allocations, _)) = counted(|| {
        let (id, resp) = decode_json_query_response(&frame).unwrap();
        let labels = match &resp {
            Response::Query { nodes: Some(blob), .. } => blob.triples(),
            other => panic!("not a query reply: {other:?}"),
        };
        (id, resp, labels)
    });
    assert!(allocations <= 4, "decoding {LABELS} labels made {allocations} allocations");
    assert_eq!((id, resp), (Json::uint(42), sent));
    assert_eq!(labels, triples);

    // For contrast, the generic path: a value tree of the frame and a
    // copy of its `result` make at least two allocations per label.
    let (_, (tree_allocations, _)) =
        counted(|| json::parse(&frame).unwrap().get("result").cloned());
    assert!(
        tree_allocations >= 2 * LABELS as usize,
        "the tree decode made only {tree_allocations} allocations"
    );
}

#[test]
fn a_binary_query_reply_decodes_straight_to_triples() {
    let triples: Vec<(u32, u32, u16)> =
        (0..LABELS).map(|i| (3 * i + 1, 3 * i + 2, (i % 12) as u16 + 1)).collect();
    let mut sent = Response::Query {
        generation: 1,
        engine: "twigstack".into(),
        cached: true,
        count: LABELS.into(),
        elements_visited: 123_456,
        nodes: Some(Arc::new(NodesBlob::encode(triples.iter().copied()))),
    };
    let mut frame = Vec::new();
    encode_response(42, &sent, &mut frame);

    // What `MuxClient::query` does with the frame: the engine token and
    // the triples are the only allocations — no blob, no copy of the
    // 10-byte records.
    let (decoded, (allocations, bytes)) = counted(|| decode_response_triples(&frame).unwrap());
    assert_eq!(allocations, 2, "decoding {LABELS} labels made {allocations} allocations");
    let triple_bytes = LABELS as usize * std::mem::size_of::<(u32, u32, u16)>();
    assert!(bytes < triple_bytes + 64, "{bytes} bytes allocated for {triple_bytes} of triples");
    if let Response::Query { nodes, .. } = &mut sent {
        *nodes = None;
    }
    assert_eq!(decoded, (42, sent, triples));
}

#[test]
fn a_hostile_count_allocates_no_more_than_the_frame_holds() {
    let frame = concat!(
        r#"{"id":1,"result":{"generation":0,"engine":"auto","cached":false,"#,
        r#""count":18446744073709551615,"elements_visited":0,"nodes":[[1,2,1]]}}"#
    );
    let (decoded, (_, bytes)) = counted(|| decode_json_query_response(frame));
    assert!(decoded.is_err(), "a count the node array does not hold is an error");
    assert!(bytes <= 2 * frame.len(), "{bytes} bytes allocated for a {}-byte frame", frame.len());
}
