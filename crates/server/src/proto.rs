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
//! a blocking `read_exact`: a connection's idle budget bounds every
//! socket read, so a read can time out mid-frame, and a reader that
//! survives that must not lose the bytes already consumed.

use crate::json::Json;
use std::io::{self, IoSlice, Read, Write};

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

/// Empty a frame begun with [`frame_buf`] for the next one, keeping its
/// capacity.
pub(crate) fn clear_frame(frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(&[0; PREFIX_BYTES]);
}

/// [`frame_buf`] holding `msg` rendered as the payload.
pub fn json_frame(msg: &Json) -> Vec<u8> {
    let mut text = String::with_capacity(PREFIX_BYTES + msg.len_hint());
    text.push_str("\0\0\0\0");
    msg.write(&mut text);
    text.into_bytes()
}

/// Fill in the prefix of a frame begun with [`frame_buf`] and send it
/// in one write (retried until the socket has taken it all), then
/// flush.
pub fn send_frame(w: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    send_frame_parts(w, frame, &[])
}

/// [`send_frame`] for a frame in two parts: `head`, begun with
/// [`frame_buf`], and a `tail` sent as it lies after it — a cached node
/// array leaves from where it is stored, in one vectored write when the
/// socket takes the frame whole.
pub(crate) fn send_frame_parts(w: &mut impl Write, head: &mut [u8], tail: &[u8]) -> io::Result<()> {
    let len = (head.len() + tail.len())
        .checked_sub(PREFIX_BYTES)
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    head[..PREFIX_BYTES].copy_from_slice(&(len as u32).to_be_bytes());
    let mut parts = [IoSlice::new(head), IoSlice::new(tail)];
    let mut left = &mut parts[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
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

/// One step of frame reading. The frame is owned ([`FrameReader::poll`])
/// or borrowed from the reader's buffer ([`FrameReader::poll_ref`]).
#[derive(Debug)]
pub enum ReadEvent<F = Vec<u8>> {
    /// A complete frame payload.
    Frame(F),
    /// The socket timed out with **no** complete frame pending; the
    /// caller decides what an expired read budget means.
    Idle,
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The peer announced a frame above [`MAX_FRAME_BYTES`]; the
    /// connection cannot be resynchronized and must close (after the
    /// caller sends its typed rejection).
    TooLarge(usize),
}

/// Resumable length-prefixed frame reader: survives socket timeouts at
/// any byte position without losing progress. One payload buffer serves
/// every frame: it grows (zero-filled) to the largest payload seen and
/// is never shrunk, so a steady stream of frames allocates nothing.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 4],
    header_got: usize,
    /// The payload buffer, kept across frames.
    buf: Vec<u8>,
    /// Payload bytes of the current frame read so far.
    got: usize,
    payload_len: Option<usize>,
}

impl FrameReader {
    /// A reader at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`FrameReader::poll_ref`], with the frame copied out of the
    /// reader's buffer.
    pub fn poll(&mut self, r: &mut impl Read) -> io::Result<ReadEvent> {
        Ok(match self.poll_ref(r)? {
            ReadEvent::Frame(frame) => ReadEvent::Frame(frame.to_vec()),
            ReadEvent::Idle => ReadEvent::Idle,
            ReadEvent::Eof => ReadEvent::Eof,
            ReadEvent::TooLarge(n) => ReadEvent::TooLarge(n),
        })
    }

    /// Advance until a frame completes, the stream ends, or the socket
    /// times out, and lend the frame out of the reader's buffer until
    /// the next poll. Timeouts (`WouldBlock`/`TimedOut`) surface as
    /// [`ReadEvent::Idle`]; every other error is real. Each payload
    /// `read` is offered all that is left of the payload, so a payload
    /// that has already arrived is one `read`.
    pub fn poll_ref(&mut self, r: &mut impl Read) -> io::Result<ReadEvent<&[u8]>> {
        let len = loop {
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
                                if len > self.buf.len() {
                                    self.buf.resize(len, 0);
                                }
                                self.got = 0;
                                self.payload_len = Some(len);
                            }
                        }
                        Err(e) if is_timeout(&e) => return Ok(ReadEvent::Idle),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                Some(len) if self.got == len => break len,
                // Bytes read before a timeout stay counted in `got`.
                Some(len) => match r.read(&mut self.buf[self.got..len]) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => self.got += n,
                    Err(e) if is_timeout(&e) => return Ok(ReadEvent::Idle),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                },
            }
        };
        self.header_got = 0;
        self.payload_len = None;
        Ok(ReadEvent::Frame(&self.buf[..len]))
    }
}

/// Did a socket read time out (rather than fail)?
pub(crate) fn is_timeout(e: &io::Error) -> bool {
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

    /// A payload split by a signal (`Interrupted`) and then by a socket
    /// timeout (`WouldBlock`) surfaces as `Idle`, keeps the bytes read
    /// before either, and the next poll returns the exact frame.
    #[test]
    fn a_payload_split_by_interrupted_and_would_block_resumes_exactly() {
        use std::collections::VecDeque;
        /// Hands out its steps in order: bytes (as much as fits) or an
        /// error of a kind.
        struct Scripted(VecDeque<Result<Vec<u8>, io::ErrorKind>>);
        impl Read for Scripted {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.pop_front() {
                    None => Ok(0),
                    Some(Err(kind)) => Err(kind.into()),
                    Some(Ok(mut bytes)) => {
                        let n = bytes.len().min(buf.len());
                        buf[..n].copy_from_slice(&bytes[..n]);
                        if n < bytes.len() {
                            self.0.push_front(Ok(bytes.split_off(n)));
                        }
                        Ok(n)
                    }
                }
            }
        }
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        let (head, rest) = bytes.split_at(PREFIX_BYTES + 1000);
        let (middle, tail) = rest.split_at(70_000);
        for split in [io::ErrorKind::WouldBlock, io::ErrorKind::Interrupted] {
            let mut r = FrameReader::new();
            let mut script = Scripted(VecDeque::from([
                Ok(head.to_vec()),
                Err(split),
                Ok(middle.to_vec()),
                Err(io::ErrorKind::WouldBlock),
                Ok(tail.to_vec()),
            ]));
            if split == io::ErrorKind::WouldBlock {
                assert!(matches!(r.poll(&mut script).unwrap(), ReadEvent::Idle));
            }
            assert!(matches!(r.poll(&mut script).unwrap(), ReadEvent::Idle), "{split:?}");
            match r.poll(&mut script).unwrap() {
                ReadEvent::Frame(f) => assert!(f == payload, "{split:?}: the frame differs"),
                other => panic!("{split:?}: {other:?}"),
            }
            assert!(matches!(r.poll(&mut script).unwrap(), ReadEvent::Eof));
        }
    }

    /// A payload that has already arrived whole is one payload `read`,
    /// offered all of it, and the buffer it lands in serves the next
    /// frame without growing.
    #[test]
    fn a_payload_already_there_is_one_read() {
        /// Records the size of every buffer `read` is offered.
        struct Counting<R>(R, Vec<usize>);
        impl<R: Read> Read for Counting<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1.push(buf.len());
                self.0.read(buf)
            }
        }
        let payload: Vec<u8> = (0..85_000u32).map(|i| (i % 253) as u8).collect();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &payload).unwrap();
        write_frame(&mut bytes, &payload[..45_000]).unwrap();
        let mut src = Counting(io::Cursor::new(bytes), Vec::new());
        let mut r = FrameReader::new();
        match r.poll_ref(&mut src).unwrap() {
            ReadEvent::Frame(f) => assert!(f == payload),
            other => panic!("{other:?}"),
        }
        assert_eq!(src.1, [PREFIX_BYTES, 85_000], "one header read, one payload read");
        let buf = r.buf.as_ptr();
        match r.poll_ref(&mut src).unwrap() {
            ReadEvent::Frame(f) => assert!(f == &payload[..45_000]),
            other => panic!("{other:?}"),
        }
        assert_eq!(src.1[2..], [PREFIX_BYTES, 45_000]);
        assert_eq!(r.buf.as_ptr(), buf, "the second frame reuses the first one's buffer");
    }

    /// A frame sent as head + tail is the bytes [`send_frame`] sends,
    /// and a writer that takes a little at a time still gets all of it.
    #[test]
    fn a_frame_in_two_parts_is_the_frame_in_one() {
        /// Takes at most 7 bytes per call, like a socket whose buffer
        /// is nearly full.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(7);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let tail: Vec<u8> = (0..100u8).collect();
        let mut whole = frame_buf(0);
        whole.extend_from_slice(b"head");
        whole.extend_from_slice(&tail);
        let mut one = Vec::new();
        send_frame(&mut one, &mut whole).unwrap();
        let mut head = frame_buf(0);
        head.extend_from_slice(b"head");
        let mut two = Trickle(Vec::new());
        send_frame_parts(&mut two, &mut head, &tail).unwrap();
        assert_eq!(two.0, one);
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
