//! The labeled-node relations of §4/§5.2.1 as **physically clustered
//! columnar storage**.
//!
//! The paper stores one tuple `<plabel, start, end, level, data>` per
//! node in relation **SP** (clustered by `{plabel, start}`) and, for the
//! D-labeling baseline, the same tuples with a `tag` attribute in
//! relation **SD** (clustered by `{tag, start}`). Its whole performance
//! argument rests on those clusterings being *physical*: a P-label
//! range selection is one contiguous sequential read.
//!
//! # Layout
//!
//! [`NodeStore`] keeps the columns once in document (`start`) order —
//! [`DLabel`]s, P-labels, tags, interned data values — plus **two
//! physical permutations** of the label/value columns:
//!
//! ```text
//! document order (RowId):  labels[i], plabels[i], tags[i], value_ids[i]
//!
//! SP clustering:  sp_labels / sp_rows / sp_values   sorted by (plabel, start)
//!                 sp_keys/sp_ends: one (plabel, exclusive end position)
//!                 pair per distinct plabel, sorted by plabel — run i
//!                 covers positions sp_ends[i-1]..sp_ends[i]
//!
//! SD clustering:  sd_labels / sd_rows / sd_values   sorted by (tag, start)
//!                 sd_keys/sd_ends: the same flat run directory keyed
//!                 by tag
//! ```
//!
//! A **run** is the contiguous row range of one distinct clustering-key
//! value; inside a run, rows are `start`-ascending. Scans therefore
//! binary-search the run *directory* (a handful of entries) and return
//! [`ScanRun`]s over borrowed column extents:
//!
//! * [`NodeStore::scan_tag`] — exactly one run, already in document
//!   order;
//! * [`NodeStore::scan_plabel_range`] — the consecutive runs of every
//!   distinct P-label in `[p1, p2]` (the engine merges them back to
//!   document order with a ping-pong buffer merge);
//! * [`NodeStore::scan_plabels`] — the same over a set of disjoint
//!   intervals, one range scan after another (`[p, p]` is the one run
//!   of P-label `p`).
//!
//! # Column sources: owned, mapped-raw, mapped-packed
//!
//! Every column is served from one of three sources. The in-memory
//! build paths ([`IndexBuilder`] / [`NodeStore::from_records`]) own
//! plain `Vec`s. A mapped snapshot ([`NodeStore::from_mapped`])
//! borrows extents of the read-only file mapping — raw little-endian
//! slices for a v2 file, or the **packed encodings** of a v3 file
//! ([`crate::packed`]): D-label columns as three FOR planes, tags
//! bit-packed, document P-labels dictionary-coded against the SP run
//! keys, value ids and permutation rows as FOR planes. Scans are
//! source-agnostic: they return [`ScanRun::Raw`] over raw slices
//! (still zero-copy) or [`ScanRun::Packed`] over the planes, and the
//! engines filter both shapes through the same chunked kernels
//! ([`crate::scan`]).
//!
//! There is **no per-tuple B+ tree traversal on the hot path**. The B+
//! trees are *derived* data, built lazily on first use (so a mapped
//! open stays O(1)) and retained for three colder purposes: the paper's
//! index accounting ([`NodeStore::sp_index_height`]), the `start`
//! primary-key reference lookup, and a reference scan path
//! ([`NodeStore::ref_scan_plabel_range`], [`NodeStore::ref_scan_tag`])
//! that the property tests and the `BENCH_storage.json` kernel bench
//! compare the columnar path against.
//!
//! PCDATA is interned: each distinct string is stored once in a value
//! table and rows carry a `u32` value id, so a `data = 'x'` filter over
//! a run is an integer compare over a contiguous value-id extent.
//! Value-id lookup ([`NodeStore::value_id`]) binary-searches
//! `value_sorted`, the permutation of value ids ordered by their
//! strings — which persists as just another column, keeping the mapped
//! path index-free.

use crate::bptree::BPlusTree;
use crate::delta::{DeltaEdits, DeltaError, DeltaStore};
use crate::mapped::MappedBytes;
use crate::packed::{BitpackCol, LabelPlanesCol, PlaneCol};
use crate::scan::{PackedRun, ScanRun};
use crate::snapshot::{self, SnapshotError, SnapshotMeta};
use blas_labeling::{DLabel, DocumentLabels, LabelError, PInterval, PLabelDomain};
use blas_xml::{Document, ElementSink, TagId, TagInterner};
use std::collections::{BTreeMap, HashMap};
use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

/// Physical row identifier (position in the document-order columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(pub u32);

impl RowId {
    /// Column position.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel value id for rows without PCDATA.
pub const NO_VALUE: u32 = u32::MAX;

/// One column, from either source: owned by the store, or a borrowed
/// extent of the read-only mapping the store keeps alive.
///
/// The `Mapped` variant stores raw slice parts instead of a `&[T]`
/// because the referent is a sibling field (the [`MappedBytes`] in
/// [`NodeStore::source`]); the buffer address is stable for the
/// store's lifetime (mmap regions and page-aligned heap reads are
/// never moved, mutated, or freed before drop), which is what makes
/// reconstructing the slice in [`Col::deref`] sound.
pub(crate) enum Col<T: 'static> {
    Owned(Vec<T>),
    Mapped { ptr: *const T, len: usize },
}

// SAFETY: a mapped column is an immutable view of immutable bytes; the
// raw pointer is only ever read, so sharing follows `&[T]` rules.
unsafe impl<T: Send> Send for Col<T> {}
unsafe impl<T: Sync> Sync for Col<T> {}

impl<T> Col<T> {
    /// Capture a mapped extent as raw parts (see type-level safety
    /// argument).
    pub(crate) fn from_mapped_slice(s: &[T]) -> Self {
        Col::Mapped { ptr: s.as_ptr(), len: s.len() }
    }
}

impl<T> Deref for Col<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Col::Owned(v) => v,
            // SAFETY: ptr/len came from a live slice of the mapping the
            // owning store keeps alive and never mutates.
            Col::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Col[{}; {}]", if matches!(self, Col::Owned(_)) { "owned" } else { "mapped" }, self.len())
    }
}

/// A D-label column: raw [`Col`] extents, or the three FOR planes
/// (`start`, `end − start`, `level`) of a packed v3 snapshot section.
// A handful of these live per store (not per row), so the size skew
// between the variants is irrelevant and boxing would only add a
// pointer chase to every scan.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum LabelColumn {
    Raw(Col<DLabel>),
    Packed(LabelPlanesCol),
}

impl LabelColumn {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Self::Raw(c) => c.len(),
            Self::Packed(p) => p.len(),
        }
    }

    /// Label at position `i` (O(1) block-decoded point read when
    /// packed).
    #[inline]
    fn get(&self, i: usize) -> DLabel {
        match self {
            Self::Raw(c) => c[i],
            Self::Packed(p) => {
                let start = p.starts.as_ref().get(i);
                DLabel {
                    start,
                    end: start.wrapping_add(p.extents.as_ref().get(i)),
                    level: p.levels.as_ref().get(i) as u16,
                }
            }
        }
    }

    /// The whole column, owned (a full plane decode when packed).
    fn to_vec(&self) -> Vec<DLabel> {
        match self {
            Self::Raw(c) => c.to_vec(),
            Self::Packed(p) => {
                let r = p.as_ref();
                let starts = r.starts.decode_all();
                let extents = r.extents.decode_all();
                let levels = r.levels.decode_all();
                (0..starts.len())
                    .map(|i| DLabel {
                        start: starts[i],
                        end: starts[i].wrapping_add(extents[i]),
                        level: levels[i] as u16,
                    })
                    .collect()
            }
        }
    }

    /// `start` of the label at position `i` (one plane read when
    /// packed, where [`LabelColumn::get`] costs three).
    #[inline]
    fn start_at(&self, i: usize) -> u32 {
        match self {
            Self::Raw(c) => c[i].start,
            Self::Packed(p) => p.starts.as_ref().get(i),
        }
    }

    /// First position in `range` whose start is `>= start`, by binary
    /// search (O(log n) point reads when packed). The column must be
    /// start-ascending over `range`: the whole document-order column
    /// is, and so is every single run of a clustered permutation.
    fn lower_bound_start(&self, range: Range<usize>, start: u32) -> usize {
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.start_at(mid) < start {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Position of the label with this `start` in the start-ordered
    /// document column.
    fn search_start(&self, start: u32) -> Option<usize> {
        let at = self.lower_bound_start(0..self.len(), start);
        (at < self.len() && self.start_at(at) == start).then_some(at)
    }
}

/// The document-order P-label column: raw `u128`s, or a FOR plane of
/// indexes into the store's `sp_keys` run directory (which lists every
/// distinct P-label). Resolved by `NodeStore::plabel_at`.
#[derive(Debug)]
pub(crate) enum PlabelColumn {
    Raw(Col<u128>),
    Dict(PlaneCol),
}

/// The tag column: raw `u32`s or a bit-packed plane.
#[derive(Debug)]
pub(crate) enum TagColumn {
    Raw(Col<u32>),
    Packed(BitpackCol),
}

impl TagColumn {
    #[inline]
    fn get(&self, i: usize) -> u32 {
        match self {
            Self::Raw(c) => c[i],
            Self::Packed(b) => b.as_ref().get(i),
        }
    }

    fn to_vec(&self) -> Vec<u32> {
        match self {
            Self::Raw(c) => c.to_vec(),
            Self::Packed(b) => b.as_ref().decode_all(),
        }
    }
}

/// A `u32` column (value ids, permutation rows): raw, or one FOR
/// plane. `sentinel` is the on-disk stand-in for [`NO_VALUE`]
/// (`value_count` for value-id columns, so FOR blocks stay narrow;
/// `u32::MAX` itself — a no-op — for row permutations). Point reads
/// remap it back; the scan kernels compare against plane values
/// directly and never need the remap (see [`crate::scan`]).
#[derive(Debug)]
pub(crate) enum U32Column {
    Raw(Col<u32>),
    Packed { plane: PlaneCol, sentinel: u32 },
}

impl U32Column {
    #[inline]
    fn get(&self, i: usize) -> u32 {
        match self {
            Self::Raw(c) => c[i],
            Self::Packed { plane, sentinel } => {
                let v = plane.as_ref().get(i);
                if v == *sentinel { NO_VALUE } else { v }
            }
        }
    }

    fn to_vec(&self) -> Vec<u32> {
        match self {
            Self::Raw(c) => c.to_vec(),
            Self::Packed { plane, sentinel } => plane
                .as_ref()
                .decode_all()
                .into_iter()
                .map(|v| if v == *sentinel { NO_VALUE } else { v })
                .collect(),
        }
    }
}

/// The interned-PCDATA table, from either source: owned strings, or
/// the snapshot's string arena (an offsets column into a byte column)
/// served in place.
#[derive(Debug)]
pub(crate) enum StrTable {
    Owned(Vec<String>),
    /// `offsets.len() == count + 1`; string `i` is
    /// `bytes[offsets[i]..offsets[i+1]]`. Offsets are validated
    /// monotonic and in-bounds when the snapshot is opened; UTF-8 is
    /// checked per access (each string once per read, not the whole
    /// arena up front).
    Mapped { offsets: Col<u64>, bytes: Col<u8> },
}

impl StrTable {
    fn len(&self) -> usize {
        match self {
            StrTable::Owned(v) => v.len(),
            StrTable::Mapped { offsets, .. } => offsets.len().saturating_sub(1),
        }
    }

    /// String `i`, or `None` when `i` is out of range (or, for a mapped
    /// arena that escaped checksum verification, not valid UTF-8 —
    /// treated as absent rather than a panic).
    fn get(&self, i: usize) -> Option<&str> {
        match self {
            StrTable::Owned(v) => v.get(i).map(String::as_str),
            StrTable::Mapped { offsets, bytes } => {
                let from = *offsets.get(i)? as usize;
                let to = *offsets.get(i + 1)? as usize;
                std::str::from_utf8(bytes.get(from..to)?).ok()
            }
        }
    }
}

/// One tuple in owned form: the paper's `<plabel, start, end, level,
/// data>` plus the `tag` attribute of the SD schema. Used at API
/// boundaries (store construction, snapshot decoding, tests); the
/// store itself holds columns, not records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// P-label of the node (Def. 3.3).
    pub plabel: u128,
    /// D-label `start` — also the primary key.
    pub start: u32,
    /// D-label `end`.
    pub end: u32,
    /// D-label `level` (root = 1).
    pub level: u16,
    /// The node's tag (SD clustering attribute).
    pub tag: TagId,
    /// PCDATA value, if any.
    pub data: Option<String>,
}

impl NodeRecord {
    /// The D-label view of this tuple.
    #[inline]
    pub fn dlabel(&self) -> DLabel {
        DLabel { start: self.start, end: self.end, level: self.level }
    }
}

/// Zero-copy view of one stored tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// P-label of the node.
    pub plabel: u128,
    /// D-label `start`.
    pub start: u32,
    /// D-label `end`.
    pub end: u32,
    /// D-label `level`.
    pub level: u16,
    /// The node's tag.
    pub tag: TagId,
    /// PCDATA value, borrowed from the store's intern table.
    pub data: Option<&'a str>,
}

impl<'a> RecordView<'a> {
    /// The D-label view of this tuple.
    #[inline]
    pub fn dlabel(&self) -> DLabel {
        DLabel { start: self.start, end: self.end, level: self.level }
    }

    /// Clone into an owned record.
    pub fn to_owned(&self) -> NodeRecord {
        NodeRecord {
            plabel: self.plabel,
            start: self.start,
            end: self.end,
            level: self.level,
            tag: self.tag,
            data: self.data.map(str::to_string),
        }
    }
}

/// One contiguous clustered run over **raw** column extents: parallel
/// `labels` / `rows` / `value_ids` slices, `start`-ascending. Packed
/// sources produce [`crate::scan::PackedRun`] instead; scans return
/// both shapes behind [`ScanRun`].
///
/// `rows` is either parallel to `labels` (SP/SD runs: the permuted
/// document-order row of each position) or empty, which signals the
/// **identity-plus-offset** mapping (document-order runs from
/// [`NodeStore::scan_doc`], where position `i` is row `row_base + i`;
/// `row_base` is non-zero only for slices produced by [`Run::slice`]).
/// Use [`Run::row_at`] to resolve positions uniformly instead of
/// zipping `rows` directly.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// D-labels of the run, in document order.
    pub labels: &'a [DLabel],
    /// Document-order row per run position, or empty for identity.
    pub rows: &'a [u32],
    /// Interned value id ([`NO_VALUE`] for no PCDATA) per run position.
    pub value_ids: &'a [u32],
    /// Row offset of position 0 when `rows` is the identity mapping.
    pub row_base: u32,
}

impl<'a> Run<'a> {
    /// Tuples in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the run holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Document-order row of run position `i`, resolving the empty
    /// `rows` slice as the identity(-plus-offset) mapping.
    #[inline]
    pub fn row_at(&self, i: usize) -> RowId {
        debug_assert!(i < self.labels.len());
        if self.rows.is_empty() {
            RowId(self.row_base + i as u32)
        } else {
            RowId(self.rows[i])
        }
    }

    /// The contiguous sub-run of positions `range`. Slices stay
    /// `start`-ascending (they are consecutive positions of a sorted
    /// run), which is the invariant the delta merge relies on.
    pub fn slice(&self, range: Range<usize>) -> Run<'a> {
        Run {
            labels: &self.labels[range.clone()],
            rows: if self.rows.is_empty() { &[] } else { &self.rows[range.clone()] },
            value_ids: &self.value_ids[range.clone()],
            row_base: if self.rows.is_empty() {
                self.row_base + range.start as u32
            } else {
                0
            },
        }
    }

    pub(crate) const EMPTY: Run<'static> =
        Run { labels: &[], rows: &[], value_ids: &[], row_base: 0 };
}

// --- base ⊎ delta merge machinery ----------------------------------
//
// A delta-touched key run is assembled from three start-ordered
// inputs: the base run, the delta's inserted sub-run for the same
// key, and the starts of the key's tombstoned base tuples. Live
// starts are globally unique (an insert may only reuse a tombstoned
// start), so the merge is a deterministic splice: cut the tombstones
// out of the base run, then interleave maximal insert stretches
// between the surviving pieces. The result is a [`ScanRun::Multi`]
// whose pieces still borrow the underlying columns — no tuple is
// copied at merge time.

/// First position `>= from` in the start-ordered `run` whose start is
/// `>= start` (binary search over [`ScanRun::label_at`]).
fn lower_bound_start(run: &ScanRun<'_>, from: usize, start: u32) -> usize {
    let (mut lo, mut hi) = (from, run.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if run.label_at(mid).start < start {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Cut the tombstoned elements out of `base`: each maximal live
/// stretch becomes one piece of `out`. `dels` holds the tombstones'
/// starts, ascending; every one must occur in `base` (tombstone
/// views carry the *base* key of each deleted row, so a tombstone
/// always lands in the run it was clustered into).
fn split_out_deleted<'a>(base: ScanRun<'a>, dels: &[u32], out: &mut Vec<ScanRun<'a>>) {
    if dels.is_empty() {
        if !base.is_empty() {
            out.push(base);
        }
        return;
    }
    let mut cur = 0usize;
    for &s in dels {
        let p = lower_bound_start(&base, cur, s);
        debug_assert!(
            p < base.len() && base.label_at(p).start == s,
            "tombstone start must exist in its base run"
        );
        if p > cur {
            out.push(base.slice(cur..p));
        }
        cur = p + 1;
    }
    if cur < base.len() {
        out.push(base.slice(cur..base.len()));
    }
}

/// Interleave the delta's inserted elements (`dins`, start-ordered)
/// between the live base `pieces`, preserving global start order.
fn interleave_inserts<'a>(pieces: Vec<ScanRun<'a>>, dins: Run<'a>) -> Vec<ScanRun<'a>> {
    let dn = dins.labels.len();
    if dn == 0 {
        return pieces;
    }
    let mut out = Vec::with_capacity(pieces.len() + 1);
    let mut di = 0usize;
    for piece in pieces {
        let plen = piece.len();
        let last = piece.label_at(plen - 1).start;
        let mut cur = 0usize;
        while di < dn && dins.labels[di].start < last {
            let bound = lower_bound_start(&piece, cur, dins.labels[di].start);
            let bstart = piece.label_at(bound).start;
            let dj = di + dins.labels[di..].partition_point(|l| l.start < bstart);
            if bound > cur {
                out.push(piece.slice(cur..bound));
            }
            out.push(ScanRun::Raw(dins.slice(di..dj)));
            cur = bound;
            di = dj;
        }
        if cur == 0 {
            out.push(piece);
        } else {
            out.push(piece.slice(cur..plen));
        }
    }
    if di < dn {
        out.push(ScanRun::Raw(dins.slice(di..dn)));
    }
    out
}

/// Merge one base key run with the delta's inserts and tombstone
/// starts for the same key into one logical start-ordered run.
fn merge_key_run<'a>(base: ScanRun<'a>, dins: Run<'a>, dels: &[u32]) -> ScanRun<'a> {
    let mut pieces = Vec::new();
    split_out_deleted(base, dels, &mut pieces);
    ScanRun::multi(interleave_inserts(pieces, dins))
}

/// Two-source iterator that keeps [`NodeStore::scan_plabel_range`]'s
/// common no-delta path allocation-free.
enum EitherIter<A, B> {
    A(A),
    B(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for EitherIter<A, B> {
    type Item = T;
    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::A(a) => a.next(),
            EitherIter::B(b) => b.next(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Rows this thread has touched through the point-read, seek and
    /// probe paths ([`NodeStore::record`], the live-row walk, the
    /// ancestor probe). Test-only: the cost pins read it to show a
    /// mutation's work does not grow with the base.
    pub(crate) static ROW_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Count one row touched (compiled out of non-test builds).
#[inline(always)]
fn visit_row() {
    #[cfg(test)]
    ROW_VISITS.with(|c| c.set(c.get() + 1));
}

/// The derived B+ tree indexes, built lazily from the columns on first
/// use. Keeping them out of the construction path is what lets a
/// mapped snapshot open in O(1): nothing here is needed by the
/// clustered-scan hot paths.
#[derive(Debug)]
struct RefIndexes {
    sp: BPlusTree<(u128, u32), RowId>,
    sd: BPlusTree<(u32, u32), RowId>,
    start: BPlusTree<u32, RowId>,
}

/// The immutable column set behind one [`NodeStore`]: every physical
/// column of both clusterings plus the lazily derived reference
/// indexes. Generations of a mutating database share one `StoreCols`
/// behind an `Arc` (cloning a store never copies a column); all
/// behavior lives on [`NodeStore`], which derefs here — this type is
/// public only so that deref is nameable, and carries no methods.
#[doc(hidden)]
#[derive(Debug)]
pub struct StoreCols {
    // --- document-order columns (RowId = position) -----------------
    pub(crate) labels: LabelColumn,
    pub(crate) plabels: PlabelColumn,
    pub(crate) tags: TagColumn,
    pub(crate) value_ids: U32Column,
    /// Interned PCDATA table; `value_ids` index into it.
    pub(crate) values: StrTable,
    /// Value ids ordered by their strings (the persistent, mapping-
    /// friendly replacement for a value B-tree): `value_id` lookup is
    /// a binary search over this column.
    pub(crate) value_sorted: Col<u32>,

    // --- SP clustering: permutation sorted by (plabel, start) ------
    pub(crate) sp_labels: LabelColumn,
    pub(crate) sp_rows: U32Column,
    pub(crate) sp_values: U32Column,
    /// Run directory: distinct plabels, ascending. Always raw — it is
    /// tiny, and it doubles as the dictionary of the packed P-label
    /// column.
    pub(crate) sp_keys: Col<u128>,
    /// Exclusive end position of each run; run `i` covers
    /// `sp_ends[i-1]..sp_ends[i]` (0-based start for `i == 0`).
    pub(crate) sp_ends: Col<u32>,

    // --- SD clustering: permutation sorted by (tag, start) ---------
    pub(crate) sd_labels: LabelColumn,
    pub(crate) sd_rows: U32Column,
    pub(crate) sd_values: U32Column,
    pub(crate) sd_keys: Col<u32>,
    pub(crate) sd_ends: Col<u32>,

    // --- lazily derived B+ tree indexes (reference/accounting) -----
    ref_indexes: OnceLock<RefIndexes>,
    /// Keep-alive for the mapping the `Col::Mapped` columns point into.
    #[allow(dead_code)]
    source: Option<MappedBytes>,
}

/// The columnar, doubly clustered store for one labeled document.
///
/// Built three ways: by the index generator ([`IndexBuilder`]), from
/// owned records ([`NodeStore::from_records`]), or directly over
/// a read-only snapshot mapping ([`NodeStore::from_mapped`]) — the
/// zero-decode path, which serves v3 files through their packed
/// column encodings. Scans behave identically across all of them.
///
/// A store is a cheap handle: the immutable columns live in a shared
/// [`StoreCols`] behind an `Arc`, optionally layered with a
/// [`DeltaStore`] of mutations ([`NodeStore::apply_edits`]). Scans on
/// a delta-carrying store transparently splice base and delta at the
/// run level (tombstoned base rows are cut out, inserted tuples are
/// interleaved in start order), so everything above the scan layer —
/// all three engines — sees base ⊎ delta
/// without knowing deltas exist. A store without a delta pays one
/// `Option` check per scan and keeps every zero-copy path.
#[derive(Debug, Clone)]
pub struct NodeStore {
    cols: Arc<StoreCols>,
    delta: Option<Arc<DeltaStore>>,
}

impl Deref for NodeStore {
    type Target = StoreCols;
    #[inline]
    fn deref(&self) -> &StoreCols {
        &self.cols
    }
}

/// The mapped columns of one snapshot, produced inside
/// [`NodeStore::from_mapped`] while the parse borrow is live and then
/// married to the mapping itself.
struct MappedCols {
    labels: LabelColumn,
    plabels: PlabelColumn,
    tags: TagColumn,
    value_ids: U32Column,
    values: StrTable,
    value_sorted: Col<u32>,
    sp_labels: LabelColumn,
    sp_rows: U32Column,
    sp_values: U32Column,
    sp_keys: Col<u128>,
    sp_ends: Col<u32>,
    sd_labels: LabelColumn,
    sd_rows: U32Column,
    sd_values: U32Column,
    sd_keys: Col<u32>,
    sd_ends: Col<u32>,
}

impl NodeStore {
    /// Build the store from a parsed document and its labels: the
    /// reference [`IndexBuilder`] is tested against.
    pub fn build(doc: &Document, labels: &DocumentLabels) -> Self {
        let mut order: Vec<u32> = (0..doc.len() as u32).collect();
        order.sort_unstable_by_key(|&i| labels.dlabels[i as usize].start);
        let mut columns = Columns::with_capacity(doc.len());
        for &i in &order {
            let id = blas_xml::NodeId(i);
            columns.push(
                labels.plabels[i as usize],
                labels.dlabels[i as usize],
                doc.node(id).tag,
                doc.node(id).text.as_deref(),
            );
        }
        columns.into_store()
    }

    /// Build from pre-labeled records (tests, generators, snapshot
    /// restore). Consumes the records; data strings are interned.
    pub fn from_records(mut records: Vec<NodeRecord>) -> Self {
        records.sort_unstable_by_key(|r| r.start);
        let mut columns = Columns::with_capacity(records.len());
        for r in records {
            let d = DLabel { start: r.start, end: r.end, level: r.level };
            columns.push(r.plabel, d, r.tag, r.data.as_deref());
        }
        columns.into_store()
    }

    /// Open a store **directly over a snapshot mapping** with zero
    /// upfront decode: every column — both clusterings, both run
    /// directories, the string arena — is served in place from the
    /// file's sectioned extents, raw (v2) or packed (v3). Validation
    /// is O(header + directory), not O(data); see [`crate::snapshot`]
    /// for what is (and is not) checked on this path.
    ///
    /// Returns the store plus the snapshot's metadata (tag table and
    /// P-label domain parameters), which the caller needs to bind
    /// queries.
    ///
    /// On big-endian targets the sectioned little-endian extents cannot
    /// be served in place; this falls back to a full decode into owned
    /// columns (correct, but O(data) like [`NodeStore::from_records`]).
    pub fn from_mapped(source: MappedBytes) -> Result<(Self, SnapshotMeta), SnapshotError> {
        #[cfg(target_endian = "little")]
        {
            use crate::snapshot::{LabelSection, PlabelSection, TagSection, U32Section};
            let (cols, meta) = {
                let view = snapshot::TypedView::parse(&source)?;
                let meta = view.meta()?;
                // The SP run keys are the document's path summary,
                // decoded digit by digit into tag ids. Validate that
                // here, with the rest of the directory, so every key
                // names a path of the domain's tags.
                let domain = PLabelDomain::with_digits(meta.num_tags as usize, meta.digits)
                    .map_err(|_| SnapshotError::Corrupt("P-label domain overflows u128"))?;
                if view.sp_keys.iter().any(|&key| domain.path_of_plabel(key).is_err()) {
                    return Err(SnapshotError::Corrupt("SP run key is not a node P-label"));
                }
                let vid_sentinel = view.value_count() as u32;
                let label_col = |s: &LabelSection<'_>| match *s {
                    LabelSection::Raw(sl) => LabelColumn::Raw(Col::from_mapped_slice(sl)),
                    LabelSection::Packed(p) => LabelColumn::Packed(LabelPlanesCol::from_ref(p)),
                };
                let u32_col = |s: &U32Section<'_>, sentinel: u32| match *s {
                    U32Section::Raw(sl) => U32Column::Raw(Col::from_mapped_slice(sl)),
                    U32Section::Packed(p) => {
                        U32Column::Packed { plane: PlaneCol::from_ref(p), sentinel }
                    }
                };
                let cols = MappedCols {
                    labels: label_col(&view.doc_labels),
                    plabels: match view.doc_plabels {
                        PlabelSection::Raw(sl) => PlabelColumn::Raw(Col::from_mapped_slice(sl)),
                        PlabelSection::Dict(p) => PlabelColumn::Dict(PlaneCol::from_ref(p)),
                    },
                    tags: match view.doc_tags {
                        TagSection::Raw(sl) => TagColumn::Raw(Col::from_mapped_slice(sl)),
                        TagSection::Packed(p) => TagColumn::Packed(BitpackCol::from_ref(p)),
                    },
                    value_ids: u32_col(&view.doc_value_ids, vid_sentinel),
                    values: StrTable::Mapped {
                        offsets: Col::from_mapped_slice(view.value_offsets),
                        bytes: Col::from_mapped_slice(view.value_bytes),
                    },
                    value_sorted: Col::from_mapped_slice(view.value_sorted),
                    sp_labels: label_col(&view.sp_labels),
                    sp_rows: u32_col(&view.sp_rows, NO_VALUE),
                    sp_values: u32_col(&view.sp_values, vid_sentinel),
                    sp_keys: Col::from_mapped_slice(view.sp_keys),
                    sp_ends: Col::from_mapped_slice(view.sp_ends),
                    sd_labels: label_col(&view.sd_labels),
                    sd_rows: u32_col(&view.sd_rows, NO_VALUE),
                    sd_values: u32_col(&view.sd_values, vid_sentinel),
                    sd_keys: Col::from_mapped_slice(view.sd_keys),
                    sd_ends: Col::from_mapped_slice(view.sd_ends),
                };
                (cols, meta)
            };
            let store = Self::from_cols(StoreCols {
                labels: cols.labels,
                plabels: cols.plabels,
                tags: cols.tags,
                value_ids: cols.value_ids,
                values: cols.values,
                value_sorted: cols.value_sorted,
                sp_labels: cols.sp_labels,
                sp_rows: cols.sp_rows,
                sp_values: cols.sp_values,
                sp_keys: cols.sp_keys,
                sp_ends: cols.sp_ends,
                sd_labels: cols.sd_labels,
                sd_rows: cols.sd_rows,
                sd_values: cols.sd_values,
                sd_keys: cols.sd_keys,
                sd_ends: cols.sd_ends,
                ref_indexes: OnceLock::new(),
                source: Some(source),
            });
            Ok((store, meta))
        }
        #[cfg(not(target_endian = "little"))]
        {
            // Portable fallback: decode the little-endian snapshot into
            // owned, native-endian columns.
            let snap = snapshot::decode(&source)?;
            let meta = SnapshotMeta {
                tag_names: snap.tag_names.clone(),
                num_tags: snap.num_tags,
                digits: snap.digits,
            };
            Ok((Self::from_records(snap.records), meta))
        }
    }

    /// Cluster finished columns, which every caller hands over in
    /// start (document) order. `value_sorted` lists the value ids in
    /// the order of their strings.
    fn from_columns(columns: Columns, value_sorted: Vec<u32>) -> Self {
        let Columns { labels, plabels, tags, value_ids, values, .. } = columns;

        // Both clusterings keep the start-ascending document order
        // inside each run.
        let (sp_perm, sp_keys, sp_ends) = cluster(&plabels);
        let sp_labels: Vec<DLabel> = sp_perm.iter().map(|&i| labels[i as usize]).collect();
        let sp_values: Vec<u32> = sp_perm.iter().map(|&i| value_ids[i as usize]).collect();
        let (sd_perm, sd_keys, sd_ends) = cluster(&tags);
        let sd_labels: Vec<DLabel> = sd_perm.iter().map(|&i| labels[i as usize]).collect();
        let sd_values: Vec<u32> = sd_perm.iter().map(|&i| value_ids[i as usize]).collect();

        Self::from_cols(StoreCols {
            labels: LabelColumn::Raw(Col::Owned(labels)),
            plabels: PlabelColumn::Raw(Col::Owned(plabels)),
            tags: TagColumn::Raw(Col::Owned(tags)),
            value_ids: U32Column::Raw(Col::Owned(value_ids)),
            values: StrTable::Owned(values),
            value_sorted: Col::Owned(value_sorted),
            sp_labels: LabelColumn::Raw(Col::Owned(sp_labels)),
            sp_rows: U32Column::Raw(Col::Owned(sp_perm)),
            sp_values: U32Column::Raw(Col::Owned(sp_values)),
            sp_keys: Col::Owned(sp_keys),
            sp_ends: Col::Owned(sp_ends),
            sd_labels: LabelColumn::Raw(Col::Owned(sd_labels)),
            sd_rows: U32Column::Raw(Col::Owned(sd_perm)),
            sd_values: U32Column::Raw(Col::Owned(sd_values)),
            sd_keys: Col::Owned(sd_keys),
            sd_ends: Col::Owned(sd_ends),
            ref_indexes: OnceLock::new(),
            source: None,
        })
    }

    /// Wrap an assembled column set into a delta-free store handle.
    fn from_cols(cols: StoreCols) -> Self {
        NodeStore { cols: Arc::new(cols), delta: None }
    }

    /// The lazily built reference indexes (see [`RefIndexes`]).
    fn refs(&self) -> &RefIndexes {
        self.ref_indexes.get_or_init(|| {
            let mut sp = BPlusTree::new();
            let mut sd = BPlusTree::new();
            let mut start = BPlusTree::new();
            for i in 0..self.labels.len() {
                let row = RowId(i as u32);
                let label = self.labels.get(i);
                sp.insert((self.plabel_at(i), label.start), row);
                sd.insert((self.tags.get(i), label.start), row);
                start.insert(label.start, row);
            }
            RefIndexes { sp, sd, start }
        })
    }

    /// P-label of row `i`, resolving the dictionary encoding against
    /// `sp_keys` when the column is packed. A corrupt dictionary index
    /// panics on the bounds check — the mapped trust model (see the
    /// [`crate::snapshot`] module docs).
    #[inline]
    fn plabel_at(&self, i: usize) -> u128 {
        match &self.plabels {
            PlabelColumn::Raw(c) => c[i],
            PlabelColumn::Dict(plane) => self.sp_keys[plane.as_ref().get(i) as usize],
        }
    }

    /// True when this store serves its columns from a read-only
    /// snapshot mapping rather than owned memory.
    pub fn is_mapped(&self) -> bool {
        self.source.is_some()
    }

    /// Number of tuples in the **base** columns. A delta-carrying
    /// store keeps reporting its base row count here (global row ids
    /// `>= len()` address delta inserts); use
    /// [`NodeStore::live_len`] for the merged live total.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the base columns hold no tuples.
    pub fn is_empty(&self) -> bool {
        self.labels.len() == 0
    }

    /// Live tuples a full merged scan yields: base rows minus
    /// tombstones plus delta inserts.
    pub fn live_len(&self) -> usize {
        match self.delta.as_deref() {
            None => self.labels.len(),
            Some(d) => self.labels.len() - d.deleted_len() + d.inserted_len(),
        }
    }

    /// The delta layered over this store's base columns, if any.
    pub fn delta(&self) -> Option<&DeltaStore> {
        self.delta.as_deref()
    }

    /// This store's base columns as a delta-free handle (shares the
    /// `Arc`ed columns; never copies).
    pub fn without_delta(&self) -> NodeStore {
        NodeStore { cols: Arc::clone(&self.cols), delta: None }
    }

    /// Layer a mutation log over this store's **base** columns. The
    /// log is cumulative: applying it replaces any delta the handle
    /// already carries rather than stacking on top of it. O(edits),
    /// never O(base) — the base columns are shared untouched.
    pub fn apply_edits(&self, edits: &DeltaEdits) -> Result<NodeStore, DeltaError> {
        let base = self.without_delta();
        let delta = DeltaStore::build(&base, edits)?;
        Ok(NodeStore { cols: Arc::clone(&self.cols), delta: Some(Arc::new(delta)) })
    }

    /// Fetch one tuple by row id (zero-copy view; packed columns
    /// block-decode the one position). Global rows `>= len()` resolve
    /// into the delta's inserted tuples.
    #[inline]
    pub fn record(&self, row: RowId) -> RecordView<'_> {
        visit_row();
        let i = row.index();
        let n = self.labels.len();
        if i >= n {
            let delta = self.delta.as_deref().expect("row beyond the base needs a delta");
            let (plabel, d, tag, vid) = delta.ins_parts(i - n);
            return RecordView {
                plabel,
                start: d.start,
                end: d.end,
                level: d.level,
                tag,
                data: self.value(vid),
            };
        }
        let d = self.labels.get(i);
        RecordView {
            plabel: self.plabel_at(i),
            start: d.start,
            end: d.end,
            level: d.level,
            tag: TagId(self.tags.get(i)),
            data: self.value(self.value_ids.get(i)),
        }
    }

    /// Resolve an interned value id (base table first, then the
    /// delta's extension range).
    #[inline]
    pub fn value(&self, value_id: u32) -> Option<&str> {
        if value_id == NO_VALUE {
            None
        } else if (value_id as usize) < self.values.len() {
            self.values.get(value_id as usize)
        } else {
            self.delta.as_deref()?.value(value_id)
        }
    }

    /// The intern id of a PCDATA string, if any row carries it. Lets a
    /// `data = 'x'` filter run as an integer compare over a run's
    /// value ids. Implemented as a binary search over the
    /// string-ordered `value_sorted` column (plus the delta's sorted
    /// extension view), so it works identically over owned and mapped
    /// stores. Every distinct string has exactly one global id.
    pub fn value_id(&self, value: &str) -> Option<u32> {
        self.value_sorted
            .binary_search_by(|&id| {
                self.values.get(id as usize).unwrap_or("").cmp(value)
            })
            .ok()
            .map(|pos| self.value_sorted[pos])
            .or_else(|| self.delta.as_deref()?.value_id(value))
    }

    /// Value id of one global row ([`NO_VALUE`] for rows without
    /// PCDATA) — the point read behind [`NodeStore::scan_value`].
    #[inline]
    pub fn value_id_of_row(&self, row: RowId) -> u32 {
        let i = row.index();
        let n = self.labels.len();
        if i >= n {
            let delta = self.delta.as_deref().expect("row beyond the base needs a delta");
            return delta.ins_parts(i - n).3;
        }
        self.value_ids.get(i)
    }

    /// Number of distinct interned PCDATA strings (base plus delta
    /// extension).
    pub fn value_count(&self) -> usize {
        self.values.len() + self.delta.as_deref().map_or(0, DeltaStore::value_count)
    }

    /// Global rows of the **live** tuples starting at or after unit
    /// `from`, in start (document) order: base rows minus tombstones,
    /// merged with delta inserts. Seeking costs two binary searches;
    /// the walk itself touches only the rows it yields (and the
    /// tombstones between them).
    fn live_rows_from(&self, from: u32) -> impl Iterator<Item = RowId> + '_ {
        let delta = self.delta.as_deref();
        let n = self.labels.len();
        let dn = delta.map_or(0, DeltaStore::inserted_len);
        let mut bi = self.labels.lower_bound_start(0..n, from);
        let mut di = delta.map_or(0, |d| d.ins_lower_bound(from));
        std::iter::from_fn(move || {
            visit_row();
            if let Some(d) = delta {
                while bi < n && d.is_deleted_row(bi as u32) {
                    bi += 1;
                }
            }
            let base_start = (bi < n).then(|| self.labels.get(bi).start);
            let delta_start = delta.and_then(|d| (di < dn).then(|| d.ins_start(di)));
            match (base_start, delta_start) {
                (None, None) => None,
                (Some(b), d) if d.is_none_or(|ds| b < ds) => {
                    bi += 1;
                    Some(RowId(bi as u32 - 1))
                }
                _ => {
                    di += 1;
                    Some(RowId((n + di - 1) as u32))
                }
            }
        })
    }

    /// All live tuples in start (document) order.
    pub fn scan_all(&self) -> impl Iterator<Item = (RowId, RecordView<'_>)> {
        self.scan_from(0)
    }

    /// The live tuples starting at or after unit `from`, in start
    /// (document) order — a seek, not a scan: a subtree `[s, e]` is
    /// `scan_from(s)` taken while `start <= e`, at a cost independent
    /// of how many tuples precede it.
    pub fn scan_from(&self, from: u32) -> impl Iterator<Item = (RowId, RecordView<'_>)> {
        self.live_rows_from(from).map(move |row| (row, self.record(row)))
    }

    /// The distinct P-labels that have at least one **live** tuple,
    /// ascending: the base run directory with each run's length
    /// adjusted by the delta's tombstones and inserts, plus the
    /// delta-only keys. A P-label is its node's source path, so this is
    /// the generation's path summary, read in O(distinct paths +
    /// |delta|) without visiting a tuple.
    pub fn live_plabels(&self) -> Vec<u128> {
        let Some(d) = self.delta.as_deref().filter(|d| !d.is_noop()) else {
            return self.sp_keys.to_vec();
        };
        let mut out = Vec::with_capacity(self.sp_keys.len() + d.sp_key_count());
        let mut di = 0usize;
        for (i, &key) in self.sp_keys.iter().enumerate() {
            while di < d.sp_key_count() && d.sp_key(di) < key {
                out.push(d.sp_key(di));
                di += 1;
            }
            let mut live = self.sp_run_range(i).len() - d.dels_for_plabel(key).len();
            if di < d.sp_key_count() && d.sp_key(di) == key {
                live += d.sp_run_at(di).len();
                di += 1;
            }
            if live > 0 {
                out.push(key);
            }
        }
        out.extend((di..d.sp_key_count()).map(|i| d.sp_key(i)));
        out
    }

    /// The last live tuple of P-label `p`'s merged SP run that starts
    /// at or before unit `start` — a directory probe plus one binary
    /// search per side, no scan.
    fn last_of_plabel_at_or_before(&self, p: u128, start: u32) -> Option<RowId> {
        let delta = self.delta.as_deref();
        let upper = start.checked_add(1);
        let from_base = self.sp_keys.binary_search(&p).ok().and_then(|at| {
            let run = self.sp_run_range(at);
            let mut pos = upper.map_or(run.end, |u| self.sp_labels.lower_bound_start(run.clone(), u));
            while pos > run.start {
                pos -= 1;
                visit_row();
                let row = self.sp_rows.get(pos);
                if delta.is_none_or(|d| !d.is_deleted_row(row)) {
                    return Some((self.sp_labels.start_at(pos), row));
                }
            }
            None
        });
        let from_delta = delta.and_then(|d| {
            let run = d.sp_run(p);
            let pos = run.labels.partition_point(|l| l.start <= start);
            (pos > 0).then(|| (run.labels[pos - 1].start, run.rows[pos - 1]))
        });
        from_base.max(from_delta).map(|(_, row)| RowId(row))
    }

    /// The live tuple at `row` followed by each of its ancestors,
    /// nearest first, found by running Algorithm 2 **backwards**: a
    /// parent's P-label is its child's with the leading digit shifted
    /// out, and two tuples with the same full source path cannot nest,
    /// so the ancestor at each level is the last tuple of that P-label
    /// starting at or before the node. `depth` directory probes;
    /// `None` when an ancestor is missing (only a store whose labels
    /// contradict each other — e.g. a crafted mapping — can do that).
    pub fn spine_rows(&self, domain: &PLabelDomain, row: RowId) -> Option<Vec<RowId>> {
        let node = self.record(row);
        let mut spine = vec![row];
        let mut plabel = domain.parent_plabel(node.plabel);
        while plabel != 0 {
            spine.push(self.last_of_plabel_at_or_before(plabel, node.start)?);
            plabel = domain.parent_plabel(plabel);
        }
        Some(spine)
    }

    /// The cumulative edit log this store's delta was built from,
    /// recovered from its indexed form: inserted tuples in start order
    /// (so entry `i` is global row `len() + i`), tombstoned rows
    /// ascending. O(|delta|).
    pub fn pending_edits(&self) -> DeltaEdits {
        let Some(d) = self.delta.as_deref() else { return DeltaEdits::new() };
        let n = self.labels.len();
        DeltaEdits {
            inserted: (n..n + d.inserted_len())
                .map(|row| self.record(RowId(row as u32)).to_owned())
                .collect(),
            deleted_rows: d.del_rows().to_vec(),
            retags: d.retag_count(),
        }
    }

    /// Fold the delta into fresh, delta-free base columns holding
    /// exactly the live tuples (what a compaction publishes and what a
    /// snapshot of a mutated database serializes) — column for column
    /// what [`NodeStore::from_records`] builds from the live tuples,
    /// without materializing a record or re-interning a string: every
    /// distinct string already has exactly one global value id, so the
    /// new intern table is a renumbering of the old ids in order of
    /// first live appearance, and its string order is the old tables'
    /// string orders merged. O(live tuples).
    pub fn folded(&self) -> NodeStore {
        /// Marks an old id whose string the arena cannot produce (only a
        /// mapping that escaped its checksum): folded as "no value",
        /// which is how a scan would read it.
        const DROPPED: u32 = NO_VALUE - 1;
        let delta = self.delta.as_deref();
        let n = self.labels.len();
        let mut columns = Columns::with_capacity(self.live_len());
        // Old global id → new id (`NO_VALUE` = not seen yet). Delta
        // ids sit one past the base range (see `DeltaStore`).
        let mut renumbered =
            vec![NO_VALUE; self.values.len() + 1 + delta.map_or(0, DeltaStore::value_count)];
        for row in self.live_rows_from(0) {
            let i = row.index();
            let (plabel, label, tag, old) = match delta {
                Some(d) if i >= n => d.ins_parts(i - n),
                _ => (
                    self.plabel_at(i),
                    self.labels.get(i),
                    TagId(self.tags.get(i)),
                    self.value_ids.get(i),
                ),
            };
            let value_id = match renumbered.get_mut(old as usize) {
                None => NO_VALUE,
                Some(slot) => {
                    if *slot == NO_VALUE {
                        *slot = match self.value(old) {
                            Some(s) => {
                                columns.values.push(s.to_string());
                                columns.values.len() as u32 - 1
                            }
                            None => DROPPED,
                        };
                    }
                    if *slot == DROPPED { NO_VALUE } else { *slot }
                }
            };
            columns.push_columns(plabel, label, tag, value_id);
        }
        // New ids in string order: each old table lists its ids in
        // string order already, so keep the survivors of both and
        // merge the two sequences.
        let survivors = |old: u32| Some(renumbered[old as usize]).filter(|&new| new < DROPPED);
        let mut from_delta =
            delta.into_iter().flat_map(DeltaStore::value_ids_sorted).filter_map(survivors).peekable();
        let mut value_sorted = Vec::with_capacity(columns.values.len());
        for new in self.value_sorted.iter().copied().filter_map(survivors) {
            let s = &columns.values[new as usize];
            while let Some(d) = from_delta.next_if(|&d| columns.values[d as usize] < *s) {
                value_sorted.push(d);
            }
            value_sorted.push(new);
        }
        value_sorted.extend(from_delta);
        Self::from_columns(columns, value_sorted)
    }

    /// The live document-order tuples as one run (the baseline's full
    /// scan). Without a delta this is the base columns verbatim (the
    /// row of position `i` is `i` by construction); with one it is
    /// the merged splice of live base stretches and inserted tuples,
    /// whose pieces carry explicit row mappings. Resolve positions
    /// with [`ScanRun::row_at`].
    pub fn scan_doc(&self) -> ScanRun<'_> {
        let base = match (&self.labels, &self.value_ids) {
            (LabelColumn::Raw(l), U32Column::Raw(v)) => {
                ScanRun::Raw(Run { labels: l, rows: &[], value_ids: v, row_base: 0 })
            }
            (LabelColumn::Packed(l), U32Column::Packed { plane, .. }) => {
                ScanRun::Packed(PackedRun {
                    labels: l.as_ref(),
                    rows: None,
                    values: plane.as_ref(),
                    range: 0..self.labels.len(),
                })
            }
            _ => unreachable!("document columns share one source"),
        };
        let Some(d) = self.delta.as_deref() else { return base };
        if d.is_noop() {
            return base;
        }
        merge_key_run(base, d.doc_run(), d.del_starts())
    }

    /// All **base** D-labels in document order, as an owned vector (a
    /// full plane decode when the store is a packed v3 mapping). The
    /// `*_vec` accessors feed snapshot encoding and ignore any delta;
    /// a delta-carrying store is folded ([`NodeStore::folded`]) first.
    pub fn doc_labels_vec(&self) -> Vec<DLabel> {
        self.labels.to_vec()
    }

    /// All P-labels in document order, as an owned vector.
    pub fn doc_plabels_vec(&self) -> Vec<u128> {
        match &self.plabels {
            PlabelColumn::Raw(c) => c.to_vec(),
            PlabelColumn::Dict(plane) => plane
                .as_ref()
                .decode_all()
                .into_iter()
                .map(|ix| self.sp_keys[ix as usize])
                .collect(),
        }
    }

    /// All tags in document order, owned.
    pub(crate) fn doc_tags_vec(&self) -> Vec<u32> {
        self.tags.to_vec()
    }

    /// All value ids in document order, owned ([`NO_VALUE`] semantics).
    pub(crate) fn doc_value_ids_vec(&self) -> Vec<u32> {
        self.value_ids.to_vec()
    }

    /// The SP-permuted label column, owned.
    pub(crate) fn sp_labels_vec(&self) -> Vec<DLabel> {
        self.sp_labels.to_vec()
    }

    /// The SP row permutation, owned.
    pub(crate) fn sp_rows_vec(&self) -> Vec<u32> {
        self.sp_rows.to_vec()
    }

    /// The SP-permuted value-id column, owned.
    pub(crate) fn sp_values_vec(&self) -> Vec<u32> {
        self.sp_values.to_vec()
    }

    /// The SD-permuted label column, owned.
    pub(crate) fn sd_labels_vec(&self) -> Vec<DLabel> {
        self.sd_labels.to_vec()
    }

    /// The SD row permutation, owned.
    pub(crate) fn sd_rows_vec(&self) -> Vec<u32> {
        self.sd_rows.to_vec()
    }

    /// The SD-permuted value-id column, owned.
    pub(crate) fn sd_values_vec(&self) -> Vec<u32> {
        self.sd_values.to_vec()
    }

    /// The dictionary-coded form of the document-order P-label column:
    /// per row, the index of its P-label in `sp_keys`. A packed store
    /// decodes its plane; raw sources derive it by binary search
    /// (every stored P-label is an SP run key by construction).
    pub(crate) fn plabel_dict_indices(&self) -> Vec<u32> {
        match &self.plabels {
            PlabelColumn::Dict(plane) => plane.as_ref().decode_all(),
            PlabelColumn::Raw(c) => c
                .iter()
                .map(|p| {
                    self.sp_keys
                        .binary_search(p)
                        .expect("every stored P-label is an SP run key") as u32
                })
                .collect(),
        }
    }

    /// Positions `sp_ends[i-1]..sp_ends[i]` of SP run `i`.
    #[inline]
    fn sp_run_range(&self, i: usize) -> Range<usize> {
        let begin = if i == 0 { 0 } else { self.sp_ends[i - 1] as usize };
        begin..self.sp_ends[i] as usize
    }

    /// Positions of SD run `i`.
    #[inline]
    fn sd_run_range(&self, i: usize) -> Range<usize> {
        let begin = if i == 0 { 0 } else { self.sd_ends[i - 1] as usize };
        begin..self.sd_ends[i] as usize
    }

    /// Assemble the scan view of SP positions `r` from whichever
    /// source the clustering's columns share.
    fn sp_scan_run(&self, r: Range<usize>) -> ScanRun<'_> {
        match (&self.sp_labels, &self.sp_rows, &self.sp_values) {
            (LabelColumn::Raw(l), U32Column::Raw(rows), U32Column::Raw(v)) => {
                ScanRun::Raw(Run {
                    labels: &l[r.clone()],
                    rows: &rows[r.clone()],
                    value_ids: &v[r],
                    row_base: 0,
                })
            }
            (
                LabelColumn::Packed(l),
                U32Column::Packed { plane: rows, .. },
                U32Column::Packed { plane: v, .. },
            ) => ScanRun::Packed(PackedRun {
                labels: l.as_ref(),
                rows: Some(rows.as_ref()),
                values: v.as_ref(),
                range: r,
            }),
            _ => unreachable!("SP columns share one source"),
        }
    }

    /// Assemble the scan view of SD positions `r`.
    fn sd_scan_run(&self, r: Range<usize>) -> ScanRun<'_> {
        match (&self.sd_labels, &self.sd_rows, &self.sd_values) {
            (LabelColumn::Raw(l), U32Column::Raw(rows), U32Column::Raw(v)) => {
                ScanRun::Raw(Run {
                    labels: &l[r.clone()],
                    rows: &rows[r.clone()],
                    value_ids: &v[r],
                    row_base: 0,
                })
            }
            (
                LabelColumn::Packed(l),
                U32Column::Packed { plane: rows, .. },
                U32Column::Packed { plane: v, .. },
            ) => ScanRun::Packed(PackedRun {
                labels: l.as_ref(),
                rows: Some(rows.as_ref()),
                values: v.as_ref(),
                range: r,
            }),
            _ => unreachable!("SD columns share one source"),
        }
    }

    /// SP-clustered range scan: one run per distinct live P-label in
    /// `[p1, p2]`, in P-label order. Each run borrows the clustering's
    /// extents (raw slices or packed planes); no per-tuple index
    /// traversal happens. Keys the delta does not touch — checked with
    /// two binary searches over its tiny directories — stream out of
    /// the base unchanged, so an idle delta layer costs one branch per
    /// key.
    pub fn scan_plabel_range(&self, p1: u128, p2: u128) -> impl Iterator<Item = ScanRun<'_>> {
        let from = self.sp_keys.partition_point(|&k| k < p1);
        let to = self.sp_keys.partition_point(|&k| k <= p2);
        match self.delta.as_deref().filter(|d| d.touches_plabel_range(p1, p2)) {
            None => {
                EitherIter::A((from..to).map(move |i| self.sp_scan_run(self.sp_run_range(i))))
            }
            Some(d) => EitherIter::B(self.merged_plabel_range(d, p1, p2, from..to).into_iter()),
        }
    }

    /// Per-key merge walk for a delta-touched SP range: the base
    /// directory keys `base_keys` and the delta's keys in `[p1, p2]`
    /// stream out in ascending P-label order; equal keys merge, and
    /// runs emptied by tombstones are dropped (the engines assume
    /// non-empty runs).
    fn merged_plabel_range<'a>(
        &'a self,
        d: &'a DeltaStore,
        p1: u128,
        p2: u128,
        base_keys: Range<usize>,
    ) -> Vec<ScanRun<'a>> {
        let dspan = d.sp_key_span(p1, p2);
        let mut out = Vec::with_capacity(base_keys.len() + dspan.len());
        let mut bi = base_keys.start;
        let mut di = dspan.start;
        while bi < base_keys.end || di < dspan.end {
            let bkey = (bi < base_keys.end).then(|| self.sp_keys[bi]);
            let dkey = (di < dspan.end).then(|| d.sp_key(di));
            let run = match (bkey, dkey) {
                (Some(b), k) if k.is_none_or(|k| b <= k) => {
                    let base = self.sp_scan_run(self.sp_run_range(bi));
                    bi += 1;
                    let dins = if k == Some(b) {
                        di += 1;
                        d.sp_run(b)
                    } else {
                        Run::EMPTY
                    };
                    let dels: Vec<u32> =
                        d.dels_for_plabel(b).iter().map(|&(_, s)| s).collect();
                    if dins.labels.is_empty() && dels.is_empty() {
                        base
                    } else {
                        merge_key_run(base, dins, &dels)
                    }
                }
                _ => {
                    let run = ScanRun::Raw(d.sp_run_at(di));
                    di += 1;
                    run
                }
            };
            if !run.is_empty() {
                out.push(run);
            }
        }
        out
    }

    /// SP-clustered scan of an interval set (sorted, disjoint): the
    /// range scan of each interval in turn, so the runs still come out
    /// in P-label order, one per distinct live P-label.
    pub fn scan_plabels<'a: 'b, 'b>(
        &'a self,
        intervals: &'b [PInterval],
    ) -> impl Iterator<Item = ScanRun<'a>> + 'b {
        intervals.iter().flat_map(move |iv| self.scan_plabel_range(iv.p1, iv.p2))
    }

    /// SD-clustered scan: the start-ordered run of a tag (what the
    /// D-labeling baseline reads per query tag), merged with the
    /// delta's edits for that tag when it has any.
    pub fn scan_tag(&self, tag: TagId) -> ScanRun<'_> {
        let base = match self.sd_keys.binary_search(&tag.0) {
            Ok(at) => self.sd_scan_run(self.sd_run_range(at)),
            Err(_) => ScanRun::Raw(Run::EMPTY),
        };
        let Some(d) = self.delta.as_deref().filter(|d| d.touches_tag(tag)) else {
            return base;
        };
        let dels: Vec<u32> = d.dels_for_tag(tag).iter().map(|&(_, s)| s).collect();
        merge_key_run(base, d.sd_run(tag), &dels)
    }

    /// Row of the live tuple with the given `start`, by binary search
    /// over the start-ordered column (the "direct start-rank lookup"
    /// the result-fetch path uses instead of a B+ tree descent).
    /// Tombstoned base rows miss; delta inserts resolve to their
    /// global rows.
    pub fn row_of_start(&self, start: u32) -> Option<RowId> {
        if let Some(i) = self.labels.search_start(start) {
            let live = self
                .delta
                .as_deref()
                .is_none_or(|d| !d.is_deleted_row(i as u32));
            if live {
                return Some(RowId(i as u32));
            }
        }
        self.delta.as_deref()?.row_of_start(start).map(RowId)
    }

    /// Point lookup on the primary key `start`.
    pub fn get_by_start(&self, start: u32) -> Option<(RowId, RecordView<'_>)> {
        self.row_of_start(start).map(|row| (row, self.record(row)))
    }

    /// Rows whose `data` equals `value`, in start order: resolve the
    /// value id once (O(log n); an un-interned value returns an empty
    /// iterator without touching the columns), then filter the
    /// document-order value-id column (an O(n) integer sweep — this is
    /// a cold path; hot value predicates are fused into clustered
    /// scans by the engine).
    pub fn scan_value<'a>(
        &'a self,
        value: &str,
    ) -> impl Iterator<Item = (RowId, RecordView<'a>)> + 'a {
        let want = self.value_id(value);
        let take = if want.is_some() { usize::MAX } else { 0 };
        self.live_rows_from(0)
            .take(take)
            .filter(move |&row| Some(self.value_id_of_row(row)) == want)
            .map(move |row| (row, self.record(row)))
    }

    // --- run-directory sizes ------------------------------------------

    /// Tuples the SP range scan of `[p1, p2]` would yield, from the
    /// run directory alone — two binary searches, no run
    /// materialization.
    pub fn plabel_range_size(&self, p1: u128, p2: u128) -> usize {
        let from = self.sp_keys.partition_point(|&k| k < p1);
        let to = self.sp_keys.partition_point(|&k| k <= p2);
        let base = if from >= to {
            0
        } else {
            let begin = if from == 0 { 0 } else { self.sp_ends[from - 1] as usize };
            self.sp_ends[to - 1] as usize - begin
        };
        match self.delta.as_deref() {
            None => base,
            Some(d) => {
                base - d.dels_in_plabel_range(p1, p2).len() + d.sp_size_range(p1, p2)
            }
        }
    }

    /// Tuples [`NodeStore::scan_plabels`] would yield: the sum of the
    /// intervals' directory sizes.
    pub fn plabels_size(&self, intervals: &[PInterval]) -> usize {
        intervals.iter().map(|iv| self.plabel_range_size(iv.p1, iv.p2)).sum()
    }

    /// Tuples [`NodeStore::scan_tag`] would yield (directory lookups
    /// only).
    pub fn tag_size(&self, tag: TagId) -> usize {
        let base = match self.sd_keys.binary_search(&tag.0) {
            Ok(at) => self.sd_run_range(at).len(),
            Err(_) => 0,
        };
        match self.delta.as_deref() {
            None => base,
            Some(d) => base - d.dels_for_tag(tag).len() + d.sd_run(tag).labels.len(),
        }
    }

    // --- reference (B+ tree) scan path ------------------------------

    /// Reference SP range scan through the (lazily built) B+ tree: one
    /// index traversal plus a heap-style column lookup *per tuple*.
    /// This is the access path the seed used everywhere; it is kept as
    /// the oracle the columnar path is property-tested and benchmarked
    /// against. Like all `ref_*`/`*_vec` accessors it reads the
    /// **base** columns only — delta equivalence is tested against a
    /// store rebuilt from scratch instead.
    pub fn ref_scan_plabel_range(
        &self,
        p1: u128,
        p2: u128,
    ) -> impl Iterator<Item = (RowId, DLabel)> + '_ {
        self.refs()
            .sp
            .range(&(p1, 0), &(p2, u32::MAX))
            .map(move |(_, &row)| (row, self.labels.get(row.index())))
    }

    /// Reference SD tag scan through the lazily built B+ tree.
    pub fn ref_scan_tag(&self, tag: TagId) -> impl Iterator<Item = (RowId, DLabel)> + '_ {
        self.refs()
            .sd
            .range(&(tag.0, 0), &(tag.0, u32::MAX))
            .map(move |(_, &row)| (row, self.labels.get(row.index())))
    }

    /// Reference point lookup through the lazily built `start` B+ tree.
    pub fn ref_get_by_start(&self, start: u32) -> Option<(RowId, RecordView<'_>)> {
        self.refs()
            .start
            .get(&start)
            .map(|&row| (row, self.record(row)))
    }

    /// Height of the SP B+ tree (the paper's storage accounting).
    /// Builds the reference indexes if they have not been touched yet.
    pub fn sp_index_height(&self) -> usize {
        self.refs().sp.height()
    }

    /// Number of distinct P-label runs in the SP clustering (equals the
    /// number of distinct source paths in the document).
    pub fn sp_run_count(&self) -> usize {
        self.sp_keys.len()
    }

    /// Number of distinct tag runs in the SD clustering.
    pub fn sd_run_count(&self) -> usize {
        self.sd_keys.len()
    }
}

/// One physical clustering of start-ordered rows by `keys[row]`: the
/// permutation sorted by `(key, start)` plus its run directory
/// (distinct keys ascending, exclusive end position of each run).
///
/// Rows arrive in start order, so a **stable counting scatter** by key
/// *is* that order: one hash probe per row to find its run, then array
/// passes — O(n + k log k) for k distinct keys (a few hundred source
/// paths or tags), where sorting the permutation by comparison pays
/// O(n log n) cache-missing key reads. This is most of what building,
/// loading or folding a store costs.
fn cluster<K: Copy + Ord + std::hash::Hash>(keys: &[K]) -> (Vec<u32>, Vec<K>, Vec<u32>) {
    // Runs are numbered in order of discovery first, ranked after.
    let mut found: HashMap<K, u32> = HashMap::new();
    let mut sizes: Vec<u32> = Vec::new();
    let mut run_of_row: Vec<u32> = Vec::with_capacity(keys.len());
    for &key in keys {
        let run = *found.entry(key).or_insert_with(|| {
            sizes.push(0);
            sizes.len() as u32 - 1
        });
        sizes[run as usize] += 1;
        run_of_row.push(run);
    }
    let mut runs: Vec<(K, u32)> = found.into_iter().collect();
    runs.sort_unstable();
    let mut next = vec![0u32; sizes.len()];
    let mut ends = Vec::with_capacity(runs.len());
    let mut filled = 0u32;
    for &(_, run) in &runs {
        next[run as usize] = filled;
        filled += sizes[run as usize];
        ends.push(filled);
    }
    let mut perm = vec![0u32; keys.len()];
    for (row, &run) in run_of_row.iter().enumerate() {
        let pos = &mut next[run as usize];
        perm[*pos as usize] = row as u32;
        *pos += 1;
    }
    (perm, runs.into_iter().map(|(key, _)| key).collect(), ends)
}

/// Column accumulator shared by the construction paths.
#[derive(Default)]
struct Columns {
    labels: Vec<DLabel>,
    plabels: Vec<u128>,
    tags: Vec<u32>,
    value_ids: Vec<u32>,
    values: Vec<String>,
    intern: BTreeMap<String, u32>,
}

impl Columns {
    fn with_capacity(n: usize) -> Self {
        Self {
            labels: Vec::with_capacity(n),
            plabels: Vec::with_capacity(n),
            tags: Vec::with_capacity(n),
            value_ids: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    fn push(&mut self, plabel: u128, label: DLabel, tag: TagId, data: Option<&str>) {
        let value_id = data.map_or(NO_VALUE, |s| self.intern(s));
        self.push_columns(plabel, label, tag, value_id);
    }

    /// The value id of `s`. Looks up by `&str` first so duplicate
    /// occurrences (the common case interning exists for) allocate
    /// nothing.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.intern.get(s) {
            return id;
        }
        let id = self.values.len() as u32;
        self.intern.insert(s.to_string(), id);
        self.values.push(s.to_string());
        id
    }

    /// Finish a store whose strings went through `intern`: the map
    /// iterates in string order, which is exactly the sorted-value-id
    /// column the binary-search lookup needs. The map's second copy of
    /// every string is freed before the clusterings are built.
    fn into_store(mut self) -> NodeStore {
        self.values.shrink_to_fit();
        let value_sorted = std::mem::take(&mut self.intern).into_values().collect();
        NodeStore::from_columns(self, value_sorted)
    }

    fn push_columns(&mut self, plabel: u128, label: DLabel, tag: TagId, value_id: u32) {
        self.labels.push(label);
        self.plabels.push(plabel);
        self.tags.push(tag.0);
        self.value_ids.push(value_id);
    }
}

/// The index generator of Fig. 6: element events in, a [`NodeStore`]
/// with its tag table and P-label domain out, with no document tree in
/// between. `BlasDb::load` feeds it parse events ([`blas_xml::feed`])
/// and `from_document` a tree walk, a balanced sequence with one root.
///
/// Rows are appended at `open`, which is start order, so nothing is
/// sorted. Each row's source path is interned in a trie, and one
/// P-label is computed per distinct path once the domain is known. A
/// node's text unit sits right after its start tag even when the text
/// arrives after a child (`<p><b/>tail</p>`), so D-labels are assigned
/// only in [`IndexBuilder::finish`], in one pass over the rows.
pub struct IndexBuilder {
    tags: TagInterner,
    /// The row columns. Until `finish`, a row's `plabels` slot holds
    /// its path's index in `paths` and its label only its level.
    columns: Columns,
    /// The path trie as `(parent path, tag)` per distinct source path;
    /// path 0 is the empty path above the root.
    paths: Vec<(u32, u32)>,
    path_ids: HashMap<(u32, u32), u32>,
    /// `(row, path, whether any text arrived)` per open element,
    /// outermost first. Even an empty text takes a D-label unit.
    open: Vec<(u32, u32, bool)>,
    /// The text gathered for each open element, by depth; the buffers
    /// are reused from element to element.
    texts: Vec<String>,
    depth: usize,
}

impl IndexBuilder {
    /// A builder whose tag table starts as `tags` (ids are kept), with
    /// room for `rows` rows. Pass an upper bound: columns grown by
    /// doubling move glibc's dynamic mmap threshold so that server
    /// threads later keep their freed heap (+15–120 % `rss_mb` on the
    /// benchmark's mapped workloads); `finish` trims the slack.
    pub fn with_capacity(tags: TagInterner, rows: usize) -> Self {
        Self {
            tags,
            columns: Columns::with_capacity(rows),
            paths: vec![(0, 0)],
            path_ids: HashMap::new(),
            open: Vec::new(),
            texts: Vec::new(),
            depth: 0,
        }
    }

    /// Open an element (or `@name` attribute node) of tag `tag` under
    /// the innermost open one.
    pub fn open_tag(&mut self, tag: TagId) {
        let parent = self.open.last().map_or(0, |&(_, path, _)| path);
        let fresh = self.paths.len() as u32;
        let path = *self.path_ids.entry((parent, tag.0)).or_insert(fresh);
        if path == fresh {
            self.paths.push((parent, tag.0));
        }
        let row = self.columns.labels.len() as u32;
        let level = self.open.len() + 1;
        self.depth = self.depth.max(level);
        let label = DLabel { start: 0, end: 0, level: level as u16 };
        self.columns.push_columns(u128::from(path), label, tag, NO_VALUE);
        self.open.push((row, path, false));
        if self.texts.len() < level {
            self.texts.push(String::new());
        }
        self.texts[level - 1].clear();
    }

    /// Finish the store: size the P-label domain from the tag count and
    /// the depth (as [`PLabelDomain::for_document`]), label each
    /// distinct path, then one pass over the rows assigns D-labels,
    /// P-labels and value ids in first-occurrence order, so the store
    /// equals [`NodeStore::build`]'s for the same document.
    pub fn finish(mut self) -> Result<(NodeStore, TagInterner, PLabelDomain), LabelError> {
        while !self.open.is_empty() {
            self.close();
        }
        let domain = PLabelDomain::with_digits(self.tags.len(), self.depth as u32 + 1)?;
        // `plabel(child) = (tag+1)·base^(H−1) + plabel(parent)/base`;
        // a trie node always comes after its parent.
        let top = domain.m() / domain.base();
        let mut path_plabels = vec![0u128; self.paths.len()];
        for (i, &(parent, tag)) in self.paths.iter().enumerate().skip(1) {
            let parent = path_plabels[parent as usize];
            path_plabels[i] = u128::from(tag + 1) * top + parent / domain.base();
        }
        let Columns { labels, plabels, tags, value_ids, values, intern } = &mut self.columns;
        // The store keeps these columns as they are: no growth slack.
        labels.shrink_to_fit();
        plabels.shrink_to_fit();
        tags.shrink_to_fit();
        value_ids.shrink_to_fit();
        // Values were interned in close order; the reference numbers
        // them by first row.
        let mut renumber = vec![NO_VALUE; values.len()];
        let mut next_value = 0;
        let mut pos = 0u32;
        let mut ancestors: Vec<usize> = Vec::with_capacity(self.depth);
        for row in 0..labels.len() {
            while ancestors.len() >= usize::from(labels[row].level) {
                let done = ancestors.pop().expect("an open ancestor");
                labels[done].end = pos;
                pos += 1;
            }
            labels[row].start = pos;
            pos += 1;
            let vid = &mut value_ids[row];
            if *vid != NO_VALUE {
                pos += 1;
                let new = &mut renumber[*vid as usize];
                if *new == NO_VALUE {
                    *new = next_value;
                    next_value += 1;
                }
                *vid = *new;
            }
            plabels[row] = path_plabels[plabels[row] as usize];
            ancestors.push(row);
        }
        while let Some(done) = ancestors.pop() {
            labels[done].end = pos;
            pos += 1;
        }
        let mut renumbered = vec![String::new(); values.len()];
        for (old, value) in values.drain(..).enumerate() {
            renumbered[renumber[old] as usize] = value;
        }
        *values = renumbered;
        for id in intern.values_mut() {
            *id = renumber[*id as usize];
        }
        Ok((self.columns.into_store(), self.tags, domain))
    }
}

impl ElementSink for IndexBuilder {
    fn open(&mut self, name: &str) {
        let tag = self.tags.intern(name);
        self.open_tag(tag);
    }

    fn text(&mut self, text: &str) {
        if let Some((_, _, has_text)) = self.open.last_mut() {
            *has_text = true;
            self.texts[self.open.len() - 1].push_str(text);
        }
    }

    /// Interns the element's text.
    fn close(&mut self) {
        if let Some((row, _, true)) = self.open.pop() {
            let id = self.columns.intern(&self.texts[self.open.len()]);
            self.columns.value_ids[row as usize] = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_labeling::label_document;

    fn store(src: &str) -> (Document, NodeStore) {
        let doc = Document::parse(src).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store)
    }

    fn run_labels(run: &ScanRun<'_>) -> Vec<DLabel> {
        let mut out = Vec::new();
        run.decode_labels_into(&mut out);
        out
    }

    fn run_rows(run: &ScanRun<'_>) -> Vec<u32> {
        (0..run.len()).map(|i| run.row_at(i)).collect()
    }

    const SAMPLE: &str = "<db><e><n>a</n></e><x><e><n>b</n></e></x><n>c</n></db>";

    #[test]
    fn build_creates_one_tuple_per_node() {
        let (doc, s) = store(SAMPLE);
        assert_eq!(s.len(), doc.len());
        // Document-order column is start-ordered.
        let starts: Vec<u32> = s.scan_all().map(|(_, r)| r.start).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert!(!s.is_mapped());
    }

    #[test]
    fn scan_tag_returns_one_start_ordered_run() {
        let (doc, s) = store(SAMPLE);
        let n = doc.tags().get("n").unwrap();
        let run = s.scan_tag(n);
        assert_eq!(run.len(), 3);
        let labels = run_labels(&run);
        assert!(labels.windows(2).all(|w| w[0].start < w[1].start));
        assert!(run_rows(&run).iter().all(|&row| s.record(RowId(row)).tag == n));
        assert!(s.scan_tag(TagId(999)).is_empty());
    }

    #[test]
    fn scan_plabel_range_matches_suffix_query() {
        let (doc, s) = store(SAMPLE);
        let labels = label_document(&doc).unwrap();
        let e = doc.tags().get("e").unwrap();
        let n = doc.tags().get("n").unwrap();
        let q = labels.domain.path_interval(false, &[e, n]).unwrap();
        let mut data: Vec<String> = Vec::new();
        for run in s.scan_plabel_range(q.p1, q.p2) {
            for i in 0..run.len() {
                data.push(s.record(RowId(run.row_at(i))).data.unwrap().to_string());
            }
        }
        assert_eq!(data, ["a", "b"]); // not "c" (source path db/n)
    }

    #[test]
    fn columnar_scans_agree_with_reference_btree_scans() {
        let (doc, s) = store(SAMPLE);
        // Tag scans.
        for name in ["db", "e", "n", "x"] {
            let tag = doc.tags().get(name).unwrap();
            let fast: Vec<DLabel> = run_labels(&s.scan_tag(tag));
            let slow: Vec<DLabel> = s.ref_scan_tag(tag).map(|(_, l)| l).collect();
            assert_eq!(fast, slow, "{name}");
        }
        // Full plabel range (all runs, plabel order).
        let fast: Vec<DLabel> = s
            .scan_plabel_range(0, u128::MAX)
            .flat_map(|run| run_labels(&run))
            .collect();
        let slow: Vec<DLabel> = s.ref_scan_plabel_range(0, u128::MAX).map(|(_, l)| l).collect();
        assert_eq!(fast, slow);
        assert_eq!(fast.len(), s.len());
    }

    #[test]
    fn runs_are_contiguous_and_start_sorted() {
        let (_, s) = store(SAMPLE);
        let mut total = 0;
        for run in s.scan_plabel_range(0, u128::MAX) {
            assert!(!run.is_empty());
            let labels = run_labels(&run);
            assert!(labels.windows(2).all(|w| w[0].start < w[1].start));
            // One distinct plabel per run.
            let plabels: Vec<u128> =
                run_rows(&run).iter().map(|&r| s.record(RowId(r)).plabel).collect();
            assert!(plabels.windows(2).all(|w| w[0] == w[1]));
            total += run.len();
        }
        assert_eq!(total, s.len());
        // Distinct source paths of SAMPLE: db, db/e, db/e/n, db/n,
        // db/x, db/x/e, db/x/e/n.
        assert_eq!(s.sp_run_count(), 7);
        // Distinct tags: db, e, n, x.
        assert_eq!(s.sd_run_count(), 4);
    }

    #[test]
    fn value_interning_and_lookup() {
        let (_, s) = store(SAMPLE);
        let rows: Vec<RecordView> = s.scan_value("b").map(|(_, r)| r).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].data, Some("b"));
        assert_eq!(s.scan_value("zzz").count(), 0);
        let id = s.value_id("b").unwrap();
        assert_eq!(s.value(id), Some("b"));
        assert_eq!(s.value_id("zzz"), None);
        assert_eq!(s.value(NO_VALUE), None);
        assert_eq!(s.value_count(), 3);
    }

    #[test]
    fn get_by_start_roundtrip() {
        let (_, s) = store(SAMPLE);
        for (row, r) in s.scan_all().collect::<Vec<_>>() {
            let (row2, r2) = s.get_by_start(r.start).unwrap();
            assert_eq!(row, row2);
            assert_eq!(r, r2);
            // Reference B+ tree path agrees.
            let (row3, r3) = s.ref_get_by_start(r.start).unwrap();
            assert_eq!(row, row3);
            assert_eq!(r, r3);
        }
        assert!(s.get_by_start(10_000).is_none());
    }

    #[test]
    fn scan_doc_row_at_is_identity_and_clustered_rows_resolve() {
        let (_, s) = store(SAMPLE);
        let doc_run = s.scan_doc();
        assert_eq!(doc_run.len(), s.len());
        for i in 0..doc_run.len() {
            assert_eq!(doc_run.row_at(i), i as u32);
        }
        for run in s.scan_plabel_range(0, u128::MAX) {
            for i in 0..run.len() {
                let row = RowId(run.row_at(i));
                assert_eq!(s.record(row).dlabel(), run.label_at(i));
            }
        }
    }

    #[test]
    fn run_slice_preserves_row_resolution() {
        let (_, s) = store(SAMPLE);
        // Identity-mapped document run: slices must offset rows.
        let doc_run = s.scan_doc();
        let piece = doc_run.slice(2..5);
        assert_eq!(piece.len(), 3);
        for i in 0..piece.len() {
            assert_eq!(piece.row_at(i), 2 + i as u32);
            assert_eq!(s.record(RowId(piece.row_at(i))).dlabel(), piece.label_at(i));
        }
        // Explicit-rows clustered run: slices carry the permutation.
        for run in s.scan_plabel_range(0, u128::MAX).filter(|r| r.len() > 1) {
            let piece = run.slice(1..run.len());
            for i in 0..piece.len() {
                assert_eq!(s.record(RowId(piece.row_at(i))).dlabel(), piece.label_at(i));
            }
        }
    }

    #[test]
    fn dlabel_view_consistent() {
        let (_, s) = store(SAMPLE);
        for (_, r) in s.scan_all() {
            let d = r.dlabel();
            assert!(d.is_valid());
            assert_eq!(d.level, r.level);
        }
    }

    #[test]
    fn from_records_interns_duplicate_values() {
        let recs = vec![
            NodeRecord { plabel: 9, start: 0, end: 7, level: 1, tag: TagId(0), data: None },
            NodeRecord { plabel: 5, start: 1, end: 2, level: 2, tag: TagId(1), data: Some("v".into()) },
            NodeRecord { plabel: 5, start: 3, end: 4, level: 2, tag: TagId(1), data: Some("v".into()) },
            NodeRecord { plabel: 6, start: 5, end: 6, level: 2, tag: TagId(1), data: Some("w".into()) },
        ];
        let s = NodeStore::from_records(recs);
        assert_eq!(s.len(), 4);
        assert_eq!(s.value_count(), 2, "duplicate strings share one pool entry");
        let run = s.scan_plabel_range(5, 5).next().expect("one run");
        assert_eq!(run.len(), 2);
        let vids: Vec<u32> =
            run_rows(&run).iter().map(|&r| s.value_id_of_row(RowId(r))).collect();
        assert_eq!(vids[0], vids[1]);
        assert_eq!(s.scan_value("v").count(), 2);
    }

    #[test]
    fn mapped_store_scans_equal_owned_store_scans() {
        use std::io::Write;
        let (doc, owned) = store(SAMPLE);
        let tag_names: Vec<String> =
            doc.tags().iter().map(|(_, n)| n.to_string()).collect();
        let bytes = snapshot::encode_store(&owned, &tag_names, tag_names.len() as u32, 5);
        let path = std::env::temp_dir()
            .join(format!("blas_relation_mapped_{}.snap", std::process::id()));
        std::fs::File::create(&path).unwrap().write_all(&bytes).unwrap();
        let (mapped, meta) = NodeStore::from_mapped(MappedBytes::open(&path).unwrap()).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(meta.tag_names, tag_names);
        assert_eq!(mapped.len(), owned.len());
        // A v3 mapping serves packed document columns.
        assert!(matches!(mapped.labels, LabelColumn::Packed(_)));
        assert!(matches!(mapped.plabels, PlabelColumn::Dict(_)));
        // Every record identical.
        for (row, r) in owned.scan_all() {
            assert_eq!(mapped.record(row), r);
        }
        // Every clustered scan identical.
        for name in ["db", "e", "n", "x"] {
            let tag = doc.tags().get(name).unwrap();
            assert_eq!(run_labels(&mapped.scan_tag(tag)), run_labels(&owned.scan_tag(tag)));
            assert_eq!(run_rows(&mapped.scan_tag(tag)), run_rows(&owned.scan_tag(tag)));
        }
        let a: Vec<DLabel> = owned
            .scan_plabel_range(0, u128::MAX)
            .flat_map(|r| run_labels(&r))
            .collect();
        let b: Vec<DLabel> = mapped
            .scan_plabel_range(0, u128::MAX)
            .flat_map(|r| run_labels(&r))
            .collect();
        assert_eq!(a, b);
        // Point lookups agree across sources (packed binary search).
        for (_, r) in owned.scan_all() {
            assert_eq!(
                mapped.get_by_start(r.start).map(|(row, _)| row),
                owned.get_by_start(r.start).map(|(row, _)| row)
            );
        }
        // Value machinery identical (including the sentinel remap of
        // packed value-id planes).
        assert_eq!(mapped.value_id("b"), owned.value_id("b"));
        assert_eq!(mapped.value_id("zzz"), None);
        assert_eq!(mapped.scan_value("c").count(), 1);
        for (row, _) in owned.scan_all() {
            assert_eq!(mapped.value_id_of_row(row), owned.value_id_of_row(row));
        }
        // Column vector accessors round-trip through the encodings.
        assert_eq!(mapped.doc_labels_vec(), owned.doc_labels_vec());
        assert_eq!(mapped.doc_plabels_vec(), owned.doc_plabels_vec());
        assert_eq!(mapped.plabel_dict_indices(), owned.plabel_dict_indices());
        // Reference indexes build lazily over mapped columns too.
        assert_eq!(mapped.sp_index_height(), owned.sp_index_height());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn v2_mapped_store_serves_raw_columns() {
        use std::io::Write;
        let (doc, owned) = store(SAMPLE);
        let tag_names: Vec<String> =
            doc.tags().iter().map(|(_, n)| n.to_string()).collect();
        let bytes = snapshot::encode_store_v2(&owned, &tag_names, tag_names.len() as u32, 5);
        let path = std::env::temp_dir()
            .join(format!("blas_relation_mapped_v2_{}.snap", std::process::id()));
        std::fs::File::create(&path).unwrap().write_all(&bytes).unwrap();
        let (mapped, _) = NodeStore::from_mapped(MappedBytes::open(&path).unwrap()).unwrap();
        assert!(matches!(mapped.labels, LabelColumn::Raw(_)));
        assert!(matches!(mapped.plabels, PlabelColumn::Raw(_)));
        for (row, r) in owned.scan_all() {
            assert_eq!(mapped.record(row), r);
        }
        for name in ["db", "e", "n", "x"] {
            let tag = doc.tags().get(name).unwrap();
            assert_eq!(run_labels(&mapped.scan_tag(tag)), run_labels(&owned.scan_tag(tag)));
        }
        std::fs::remove_file(path).unwrap();
    }

    /// Comparable owned projection of a [`RecordView`] (row ids differ
    /// between a layered store and a rebuilt one, so records are
    /// compared by content).
    fn fields(r: RecordView<'_>) -> (u128, u32, u32, u16, TagId, Option<String>) {
        (r.plabel, r.start, r.end, r.level, r.tag, r.data.map(str::to_string))
    }

    #[test]
    fn delta_scans_match_a_store_rebuilt_from_the_live_records() {
        let (doc, s) = store(SAMPLE);
        let e = doc.tags().get("e").unwrap();
        let x = doc.tags().get("x").unwrap();
        let base: Vec<NodeRecord> = s
            .scan_all()
            .map(|(_, r)| NodeRecord {
                plabel: r.plabel,
                start: r.start,
                end: r.end,
                level: r.level,
                tag: r.tag,
                data: r.data.map(str::to_string),
            })
            .collect();
        // Tombstone an interior "e" and the "b" leaf; reinsert the
        // leaf's label retagged (same start — legal because it is
        // tombstoned — new tag, new string), then append two fresh
        // tuples past the document: one sharing an existing P-label
        // key, one on a delta-only key and delta-only tag.
        let del_leaf = base.iter().position(|r| r.data.as_deref() == Some("b")).unwrap();
        let del_e = base.iter().position(|r| r.tag == e).unwrap();
        let max_end = base.iter().map(|r| r.end).max().unwrap();
        let shared_plabel = base[del_leaf].plabel;
        let mut edits = DeltaEdits::new();
        edits.deleted_rows = vec![del_leaf as u32, del_e as u32];
        edits.inserted = vec![
            NodeRecord { tag: x, data: Some("zz".into()), ..base[del_leaf].clone() },
            NodeRecord {
                plabel: shared_plabel,
                start: max_end,
                end: max_end + 2,
                level: 3,
                tag: x,
                data: Some("a".into()),
            },
            NodeRecord {
                plabel: u128::MAX / 2,
                start: max_end + 2,
                end: max_end + 4,
                level: 2,
                tag: TagId(97),
                data: None,
            },
        ];
        let layered = s.apply_edits(&edits).unwrap();
        let mut live: Vec<NodeRecord> = base
            .iter()
            .enumerate()
            .filter(|(i, _)| !edits.deleted_rows.contains(&(*i as u32)))
            .map(|(_, r)| r.clone())
            .chain(edits.inserted.iter().cloned())
            .collect();
        live.sort_by_key(|r| r.start);
        let rebuilt = NodeStore::from_records(live);

        assert_eq!(layered.live_len(), rebuilt.len());
        // Folding renumbers value ids instead of re-interning strings;
        // the columns must come out exactly as the rebuild's do (the
        // dropped "b", the delta-only "zz" sorting last, the shared "a").
        let bytes = |s: &NodeStore| snapshot::encode_store(s, &["t".to_string()], 1, 2);
        assert_eq!(bytes(&layered.folded()), bytes(&rebuilt));
        assert_eq!(layered.folded().value_count(), rebuilt.value_count());
        assert_eq!(layered.len(), s.len(), "base row count is delta-independent");
        // Full document-order scan, record by record.
        let got: Vec<_> = layered.scan_all().map(|(_, r)| fields(r)).collect();
        let want: Vec<_> = rebuilt.scan_all().map(|(_, r)| fields(r)).collect();
        assert_eq!(got, want);
        // scan_doc agrees with scan_all through run resolution.
        let doc_run = layered.scan_doc();
        assert_eq!(doc_run.len(), rebuilt.len());
        let via_doc: Vec<_> =
            (0..doc_run.len()).map(|i| fields(layered.record(RowId(doc_run.row_at(i))))).collect();
        assert_eq!(via_doc, want);
        // Tag scans (including the delta-only tag) and their sizes.
        for tag in [doc.tags().get("db").unwrap(), e, doc.tags().get("n").unwrap(), x, TagId(97)]
        {
            let run = layered.scan_tag(tag);
            assert_eq!(run_labels(&run), run_labels(&rebuilt.scan_tag(tag)), "{tag:?}");
            assert_eq!(layered.tag_size(tag), run.len(), "{tag:?}");
        }
        // SP scans: the merged full range equals the rebuilt one.
        let got: Vec<DLabel> = layered
            .scan_plabel_range(0, u128::MAX)
            .flat_map(|r| run_labels(&r))
            .collect();
        let want_labels: Vec<DLabel> = rebuilt
            .scan_plabel_range(0, u128::MAX)
            .flat_map(|r| run_labels(&r))
            .collect();
        assert_eq!(got, want_labels);
        assert_eq!(layered.plabel_range_size(0, u128::MAX), rebuilt.len());
        for p in [shared_plabel, u128::MAX / 2, base[del_e].plabel] {
            assert!(layered.scan_plabel_range(p, p).count() <= 1, "one run per key");
            let run: Vec<DLabel> =
                layered.scan_plabel_range(p, p).flat_map(|r| run_labels(&r)).collect();
            let want: Vec<DLabel> =
                rebuilt.scan_plabel_range(p, p).flat_map(|r| run_labels(&r)).collect();
            assert_eq!(run, want, "{p}");
            assert_eq!(layered.plabels_size(&[PInterval { p1: p, p2: p }]), run.len(), "{p}");
        }
        // Value machinery: the deleted "b" is gone, "zz" is a delta
        // intern, "a" dedups against the base pool.
        assert_eq!(layered.scan_value("b").count(), 0);
        assert_eq!(layered.scan_value("zz").count(), 1);
        assert_eq!(layered.scan_value("a").count(), 2);
        let zz = layered.value_id("zz").unwrap();
        assert!(zz as usize >= s.value_count(), "delta ids extend the base range");
        assert_eq!(layered.value(zz), Some("zz"));
        assert_eq!(layered.value_id("a"), s.value_id("a"), "base strings keep their ids");
        // Point lookups: every live start resolves to the same record;
        // the start of the un-reinserted tombstone misses.
        for (_, r) in rebuilt.scan_all() {
            let (_, got) = layered.get_by_start(r.start).unwrap();
            assert_eq!(fields(got), fields(r));
        }
        assert!(layered.get_by_start(base[del_e].start).is_none());
    }

    #[test]
    fn an_empty_delta_keeps_scans_zero_copy_and_identical() {
        let (doc, s) = store(SAMPLE);
        let layered = s.apply_edits(&DeltaEdits::new()).unwrap();
        assert!(layered.delta().unwrap().is_noop());
        assert_eq!(layered.live_len(), s.len());
        let n = doc.tags().get("n").unwrap();
        // The merge layer is bypassed entirely: clustered runs still
        // expose their raw label slices (zero-copy).
        assert!(layered.scan_tag(n).raw_labels().is_some());
        assert_eq!(run_labels(&layered.scan_tag(n)), run_labels(&s.scan_tag(n)));
        assert_eq!(run_rows(&layered.scan_doc()), run_rows(&s.scan_doc()));
        assert_eq!(layered.value_count(), s.value_count());
        assert_eq!(layered.plabel_range_size(0, u128::MAX), s.len());
        // The base columns are shared behind the Arc, never copied.
        assert!(std::ptr::eq(ptr_of(&layered), ptr_of(&s)));
        // And stripping the delta shares them too.
        assert!(std::ptr::eq(ptr_of(&layered.without_delta()), ptr_of(&s)));
    }

    /// Address of a store's shared column block (sharing assertion).
    fn ptr_of(store: &NodeStore) -> *const StoreCols {
        let cols: &StoreCols = store;
        cols
    }

    #[test]
    fn apply_edits_rejects_invalid_scripts() {
        let (_, s) = store(SAMPLE);
        let rec = |start: u32| NodeRecord {
            plabel: 1,
            start,
            end: start + 1,
            level: 2,
            tag: TagId(0),
            data: None,
        };
        // Colliding with a live base start.
        let mut edits = DeltaEdits::new();
        edits.inserted = vec![rec(0)];
        assert!(matches!(s.apply_edits(&edits), Err(DeltaError::StartCollision(0))));
        // Two inserts on one start.
        let mut edits = DeltaEdits::new();
        edits.inserted = vec![rec(10_000), rec(10_000)];
        assert!(matches!(s.apply_edits(&edits), Err(DeltaError::DuplicateStart(10_000))));
        // Tombstoning a row the base does not have.
        let mut edits = DeltaEdits::new();
        edits.deleted_rows = vec![s.len() as u32];
        assert!(matches!(s.apply_edits(&edits), Err(DeltaError::RowOutOfRange(_))));
        // Inverted interval.
        let mut edits = DeltaEdits::new();
        edits.inserted = vec![NodeRecord { end: 10_000, ..rec(10_001) }];
        assert!(matches!(s.apply_edits(&edits), Err(DeltaError::BadInterval(10_001))));
    }
}
