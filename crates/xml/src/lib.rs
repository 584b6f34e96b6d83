//! # blas-xml — XML substrate for the BLAS reproduction
//!
//! The BLAS paper (Chen, Davidson, Zheng; SIGMOD 2004) builds its index
//! generator on top of a SAX parser and, for the Unfold translator, on
//! schema (DTD) information. This crate provides that substrate from
//! scratch:
//!
//! * [`sax`] — a streaming, event-based XML parser covering the features
//!   the paper's datasets need (elements, attributes, text, CDATA,
//!   comments, processing instructions, the five predefined entities and
//!   numeric character references).
//! * [`tree`] — an arena-based document tree built from SAX events, with
//!   interned tag names ([`TagInterner`]).
//! * [`escape`] — text escaping/unescaping shared by the parser and the
//!   serializer.
//! * [`serialize`] — writes a [`Document`] back out as XML (used by the
//!   data generators and for parser round-trip property tests).
//! * [`schema`] — the path summary: a document's distinct root-first
//!   tag paths, sorted, inferred from an instance or read off a store;
//!   the simple paths the Unfold translator expands `//` into (§4.1.3).
//! * [`stats`] — per-document statistics reproducing the Fig. 12 table
//!   (size, node count, distinct tags, depth).

pub mod escape;
pub mod error;
pub mod sax;
pub mod schema;
pub mod serialize;
pub mod stats;
pub mod tree;

pub use error::{ParseError, ParseErrorKind};
pub use sax::{feed, ElementSink, SaxEvent, SaxParser};
pub use schema::SchemaGraph;
pub use serialize::serialize_document;
pub use stats::DocStats;
pub use tree::{Document, DocumentBuilder, Node, NodeId, NodeKind, TagId, TagInterner};
