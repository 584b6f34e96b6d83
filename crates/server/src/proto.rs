//! The wire protocol: **length-prefixed JSON-RPC over TCP**.
//!
//! One frame = a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON. Requests are objects
//! `{"id": …, "method": "…", "params": {…}}`; responses echo the `id`
//! and carry either `"result"` or `"error": {"code", "message"}`.
//! Frames above [`MAX_FRAME_BYTES`] are rejected without allocating —
//! a hostile length prefix must not OOM the server.
//!
//! Reading is a resumable state machine ([`FrameReader`]) rather than
//! a blocking `read_exact`: the server polls connections with a short
//! socket timeout so each task can notice idle expiry and shutdown
//! between bytes, and a timeout mid-frame must not lose the bytes
//! already consumed.

use crate::json::Json;
use std::io::{self, Read, Write};

/// Hard bound on one frame's payload.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Bytes of length prefix in front of every payload.
const PREFIX_BYTES: usize = 4;

/// Start a frame: a buffer with the length prefix reserved and room
/// for `payload_hint` more bytes. Append the payload, then hand it to
/// [`send_frame`] — prefix and payload leave in one write, where two
/// writes on a `TCP_NODELAY` socket are two syscalls and two segments.
pub fn frame_buf(payload_hint: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(PREFIX_BYTES + payload_hint);
    frame.extend_from_slice(&[0; PREFIX_BYTES]);
    frame
}

/// [`frame_buf`] holding `msg` rendered as the payload.
pub fn json_frame(msg: &Json) -> Vec<u8> {
    let mut text = String::with_capacity(PREFIX_BYTES + msg.len_hint());
    text.push_str("\0\0\0\0");
    msg.write(&mut text);
    text.into_bytes()
}

/// Fill in the prefix of a frame begun with [`frame_buf`] and send it
/// with a single `write_all`, then flush.
pub fn send_frame(w: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    let len = frame
        .len()
        .checked_sub(PREFIX_BYTES)
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..PREFIX_BYTES].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(frame)?;
    w.flush()
}

/// Write one frame (length prefix + payload) and flush. Copies
/// `payload` behind its prefix first; a caller that can encode straight
/// into a [`frame_buf`] skips the copy.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = frame_buf(payload.len());
    frame.extend_from_slice(payload);
    send_frame(w, &mut frame)
}

/// One step of frame reading.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The socket timed out with **no** complete frame pending — an
    /// idle tick; the caller decides whether the idle budget is spent.
    Idle,
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The peer announced a frame above [`MAX_FRAME_BYTES`]; the
    /// connection cannot be resynchronized and must close (after the
    /// caller sends its typed rejection).
    TooLarge(usize),
}

/// Resumable length-prefixed frame reader: survives socket timeouts at
/// any byte position without losing progress.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_got: usize,
    payload: Vec<u8>,
    payload_len: Option<usize>,
}

impl FrameReader {
    /// A reader at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push back one already-consumed byte as the first length-prefix
    /// byte. Protocol negotiation peeks a connection's first byte to
    /// pick an encoding; when that byte turns out to open a JSON
    /// frame, this hands it to the reader instead of losing it.
    ///
    /// Only valid at a frame boundary (a fresh or between-frames
    /// reader); panics otherwise — priming mid-frame is a server bug,
    /// not a peer-controlled condition.
    pub fn prime(&mut self, byte: u8) {
        assert!(
            self.header_got == 0 && self.payload_len.is_none(),
            "prime() mid-frame"
        );
        self.header[0] = byte;
        self.header_got = 1;
    }

    /// Advance until a frame completes, the stream ends, or the socket
    /// times out. Timeouts (`WouldBlock`/`TimedOut`) surface as
    /// [`ReadEvent::Idle`]; every other error is real.
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<ReadEvent> {
        loop {
            match self.payload_len {
                None => {
                    // Header phase.
                    match r.read(&mut self.header[self.header_got..]) {
                        Ok(0) => {
                            return if self.header_got == 0 {
                                Ok(ReadEvent::Eof)
                            } else {
                                Err(io::ErrorKind::UnexpectedEof.into())
                            };
                        }
                        Ok(n) => {
                            self.header_got += n;
                            if self.header_got == 4 {
                                let len = u32::from_be_bytes(self.header) as usize;
                                if len > MAX_FRAME_BYTES {
                                    return Ok(ReadEvent::TooLarge(len));
                                }
                                self.payload_len = Some(len);
                                self.payload.clear();
                                self.payload.reserve(len);
                            }
                        }
                        Err(e) if is_timeout(&e) => return Ok(ReadEvent::Idle),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                Some(len) => {
                    if self.payload.len() == len {
                        self.header_got = 0;
                        self.payload_len = None;
                        return Ok(ReadEvent::Frame(std::mem::take(&mut self.payload)));
                    }
                    let want = (len - self.payload.len()).min(64 * 1024);
                    let start = self.payload.len();
                    self.payload.resize(start + want, 0);
                    match r.read(&mut self.payload[start..]) {
                        Ok(0) => {
                            return Err(io::ErrorKind::UnexpectedEof.into());
                        }
                        Ok(n) => self.payload.truncate(start + n),
                        Err(e) => {
                            self.payload.truncate(start);
                            if is_timeout(&e) {
                                return Ok(ReadEvent::Idle);
                            }
                            if e.kind() != io::ErrorKind::Interrupted {
                                return Err(e);
                            }
                        }
                    }
                }
            }
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Typed error codes a response's `error.code` field can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control rejected the request: the in-flight bound is
    /// reached (or the connection limit, when sent during accept).
    /// Back off and retry — the server is alive and never queues
    /// beyond its bound.
    Overloaded,
    /// Malformed frame, JSON, parameters, or an unknown method.
    BadRequest,
    /// The XPath failed to parse; `message` carries the typed
    /// parser error.
    Xpath,
    /// A mutation was structurally rejected (unknown tag, off the
    /// rightmost spine, …).
    Mutation,
    /// The connection sat idle past the read timeout; the server
    /// closes it after this response.
    Timeout,
    /// The announced frame length exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// Anything else (a bug — the request was well-formed).
    Internal,
}

impl ErrorCode {
    /// The binary-protocol code byte (see [`crate::wire`]).
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::Xpath => 3,
            ErrorCode::Mutation => 4,
            ErrorCode::Timeout => 5,
            ErrorCode::FrameTooLarge => 6,
            ErrorCode::ShuttingDown => 7,
            ErrorCode::Internal => 8,
        }
    }

    /// Decode a binary code byte; unknown values collapse to
    /// [`ErrorCode::Internal`] so a newer server never desyncs an
    /// older client.
    pub fn from_u8(code: u8) -> ErrorCode {
        match code {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::Xpath,
            4 => ErrorCode::Mutation,
            5 => ErrorCode::Timeout,
            6 => ErrorCode::FrameTooLarge,
            7 => ErrorCode::ShuttingDown,
            _ => ErrorCode::Internal,
        }
    }

    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Xpath => "xpath",
            ErrorCode::Mutation => "mutation",
            ErrorCode::Timeout => "timeout",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// Build a success response.
pub fn ok_response(id: &Json, result: Json) -> Json {
    Json::Obj(vec![("id".into(), id.clone()), ("result".into(), result)])
}

/// Build an error response.
pub fn err_response(id: &Json, code: ErrorCode, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id.clone()),
        (
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::str(code.as_str())),
                ("message".into(), Json::str(message)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "☃☃☃".as_bytes()).unwrap();
        let mut r = FrameReader::new();
        let mut cursor = io::Cursor::new(buf);
        for expect in [&b"hello"[..], b"", "☃☃☃".as_bytes()] {
            match r.poll(&mut cursor).unwrap() {
                ReadEvent::Frame(f) => assert_eq!(f, expect),
                other => panic!("{other:?}"),
            }
        }
        assert!(matches!(r.poll(&mut cursor).unwrap(), ReadEvent::Eof));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = FrameReader::new();
        match r.poll(&mut io::Cursor::new(bytes)).unwrap() {
            ReadEvent::TooLarge(n) => assert_eq!(n, u32::MAX as usize),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_a_frame() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"abcdef").unwrap();
        bytes.truncate(bytes.len() - 2);
        let mut r = FrameReader::new();
        assert!(r.poll(&mut io::Cursor::new(bytes)).is_err());
    }

    /// Counts `write` calls; takes whatever it is given, like a socket
    /// with buffer space.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write_and_the_bytes_are_unchanged() {
        use crate::wire::{self, NodesBlob, Request, Response};
        use std::sync::Arc;

        // What the wire has always carried: BE length, then the payload.
        fn expected(payload: &[u8]) -> Vec<u8> {
            let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(payload);
            bytes
        }

        let mut w = CountingWriter::default();
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!((w.writes, &w.bytes), (1, &expected(b"hello")));

        // The server's JSON reply path.
        let nodes = Arc::new(NodesBlob::from_triples([(1u32, 8u32, 1u16), (2, 3, 2)].into_iter()));
        let resp = Response::Query {
            generation: 3,
            engine: "auto".into(),
            cached: true,
            count: 2,
            elements_visited: 9,
            nodes: Some(nodes),
        };
        let json = resp.to_json(&Json::uint(7));
        let mut w = CountingWriter::default();
        let mut frame = json_frame(&json);
        assert!(frame.capacity() >= frame.len() && json.len_hint() >= json.to_string().len());
        send_frame(&mut w, &mut frame).unwrap();
        assert_eq!((w.writes, &w.bytes), (1, &expected(json.to_string().as_bytes())));

        // The server's binary reply path and the clients' request path.
        let mut payload = Vec::new();
        wire::encode_response(5, &resp, &mut payload);
        let mut w = CountingWriter::default();
        let mut frame = frame_buf(resp.binary_len_hint());
        wire::encode_response(5, &resp, &mut frame);
        assert!(resp.binary_len_hint() >= payload.len());
        send_frame(&mut w, &mut frame).unwrap();
        assert_eq!((w.writes, &w.bytes), (1, &expected(&payload)));

        let req = Request::Stats { db: "aux".into() };
        let mut payload = Vec::new();
        wire::encode_request(1, &req, &mut payload).unwrap();
        let mut w = CountingWriter::default();
        let mut frame = frame_buf(0);
        wire::encode_request(1, &req, &mut frame).unwrap();
        send_frame(&mut w, &mut frame).unwrap();
        assert_eq!((w.writes, &w.bytes), (1, &expected(&payload)));

        // The bound still holds, checked before anything is written.
        let mut w = CountingWriter::default();
        let mut huge = frame_buf(0);
        huge.resize(PREFIX_BYTES + MAX_FRAME_BYTES + 1, 0);
        assert!(send_frame(&mut w, &mut huge).is_err());
        assert_eq!(w.writes, 0);
    }

    /// A reader fed one byte at a time (worst-case fragmentation)
    /// still reassembles the frame.
    #[test]
    fn single_byte_reads_reassemble() {
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"fragmented payload").unwrap();
        let mut r = FrameReader::new();
        match r.poll(&mut OneByte(&bytes)).unwrap() {
            ReadEvent::Frame(f) => assert_eq!(f, b"fragmented payload"),
            other => panic!("{other:?}"),
        }
    }
}
