//! # blas-server — the network front door for [`BlasDb`](blas::BlasDb)
//!
//! A deliberately small serving layer: **length-prefixed JSON-RPC over
//! TCP** built on `std::net` and the engine crate's worker pool — no
//! async runtime, no serde, no new dependencies.
//!
//! The pieces:
//!
//! - [`proto`] — framing ([`FrameReader`], [`proto::send_frame`]) and the
//!   typed [`ErrorCode`] vocabulary.
//! - [`json`] — a minimal total JSON reader/writer sized for this
//!   protocol.
//! - [`Server`] — acceptor + pooled connection tasks, per-query
//!   admission control (bounded in-flight, typed
//!   [`ErrorCode::Overloaded`] rejection — never an unbounded queue),
//!   per-connection idle/write timeouts, a generation-keyed result
//!   cache invalidated from the database's publish hook, and a
//!   graceful drain on [`Server::shutdown`].
//! - [`Client`] — a blocking client used by the tests, the bench
//!   harness, and the `examples/`.
//!
//! ```no_run
//! use blas::BlasDb;
//! use blas_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(BlasDb::load("<db><e><p/></e></db>").unwrap());
//! let server = Server::bind(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr(), None).unwrap();
//! let reply = client.query("/db/e/p", "auto").unwrap();
//! assert_eq!(reply.count, 1);
//! server.shutdown();
//! ```

pub mod json;
pub mod proto;
pub mod wire;

mod client;
mod server;

pub use client::{Client, ClientError, MuxClient, MuxConn, Proto, QueryReply};
pub use json::Json;
pub use proto::{write_frame, ErrorCode, FrameReader, ReadEvent, MAX_FRAME_BYTES};
pub use server::{ProtoAccept, Server, ServerConfig, ServerStats};
pub use wire::{NodesBlob, Request, Response, WireError};
