//! # blas-storage — columnar clustered storage for BLAS
//!
//! The paper stores labeled XML in relations inside an RDBMS (DB2 in
//! §5.2), physically clustered as SP `{plabel, start}` for BLAS and SD
//! `{tag, start}` for the D-labeling baseline. This crate is the
//! from-scratch stand-in:
//!
//! * [`relation`] — the columnar [`NodeStore`]: the label/tag/value
//!   columns held in **two physical sort orders** with per-key run
//!   directories (see the module docs for the layout). Every column is
//!   a *column source*: owned memory, a raw borrowed extent of a
//!   read-only snapshot mapping, or one of the [`packed`] compressed
//!   encodings borrowed from a v3 mapping — scans, and therefore the
//!   engines above, cannot tell the difference. Raw clustered scans
//!   still return zero-copy `&[DLabel]` slices; packed ones decode
//!   block-at-a-time through the same [`ScanRun`] interface;
//! * [`delta`] — the mutable layer over the immutable base: inserted,
//!   retagged, and deleted nodes held in small SP/SD-sorted side
//!   columns with their own mini run directories, merged into every
//!   scan at read time (base ⊎ delta) so the engines above see one
//!   logical relation. Includes the checksummed sidecar log format
//!   ([`delta::encode_edits`] / [`delta::decode_edits`]);
//! * [`packed`] — the block-based compressed column codecs
//!   (frame-of-reference planes, delta label planes, bitpacked tags)
//!   plus [`scan`]'s chunked, branch-free filter kernels that operate
//!   on them directly;
//! * [`snapshot`] — the sectioned, page-aligned, checksummed on-disk
//!   format: one aligned little-endian extent per column (both
//!   clusterings, both run directories, the interned-string arena),
//!   with a per-section encoding descriptor (format v3) selecting raw
//!   or packed, so a mapping of the file *is* the store. Two read
//!   paths: full validating decode ([`snapshot::decode`]) and O(1)
//!   zero-decode open (`NodeStore::from_mapped`);
//! * [`mapped`] — the no-dependency read-only file mapping
//!   ([`MappedBytes`]): `mmap` via direct FFI on 64-bit Unix, an
//!   aligned heap read everywhere else;
//! * [`bptree`] — a from-scratch B+ tree, now **lazily derived** from
//!   the columns (never persisted, never built on open): retained for
//!   the paper's index-height accounting and the reference scan path
//!   the columnar layout is tested and benchmarked against.
//!
//! Access-path choice and tuple-visit accounting live in `blas-engine`;
//! this crate only guarantees that every scan yields tuples in exactly
//! the order the corresponding clustered relation would — from either
//! column source.

pub mod bptree;
pub mod delta;
pub mod mapped;
pub mod packed;
pub mod relation;
pub mod scan;
pub mod snapshot;

pub use bptree::BPlusTree;
pub use delta::{decode_edits, encode_edits, DeltaEdits, DeltaError, DeltaStore};
pub use mapped::MappedBytes;
pub use relation::{IndexBuilder, NodeRecord, NodeStore, RecordView, RowId, Run, NO_VALUE};
pub use scan::{PackedRun, ScanFilter, ScanRun};
pub use snapshot::{Snapshot, SnapshotError, SnapshotMeta};
