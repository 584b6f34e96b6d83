//! Source-polymorphic clustered scans and the chunked filter kernels.
//!
//! PR 6 makes the hot scan path operate **directly on compressed
//! columns**: a clustered scan now yields [`ScanRun`]s, each either a
//! zero-copy [`Run`] over raw `&[DLabel]` extents (owned stores, v2
//! snapshots) or a [`PackedRun`] over the v3 snapshot's FOR/bit-packed
//! planes ([`crate::packed`]). The engines treat both uniformly:
//!
//! * **pass-through** raw runs still surface `&[DLabel]` borrows (the
//!   zero-copy contract of the mapped-snapshot work is unchanged);
//! * packed runs decode **per fixed-width block into stack buffers**
//!   inside [`ScanRun::filter_into`] / [`ScanRun::decode_labels_into`]
//!   — never per element — and the filter compaction is branch-free
//!   (`write; advance-by-predicate`), so both paths autovectorize.
//!
//! Both shapes slice the same way ([`ScanRun::slice`]; packed slicing is
//! range arithmetic, and blocks need not align with slice boundaries),
//! which is how the delta merge cuts tombstones out of a base run.

use crate::packed::{LabelPlanesRef, PlaneRef, BLOCK};
use crate::relation::{Run, NO_VALUE};
use blas_labeling::DLabel;
use std::ops::Range;

const ZERO_LABEL: DLabel = DLabel { start: 0, end: 0, level: 0 };

/// Per-tuple stream filter of a selection (`data = 'v'`, `level = k`),
/// resolved against the store's interned value table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanFilter {
    /// Interned id the row's value must equal; `None` = no data filter;
    /// `Some(NO_VALUE)` = the value occurs nowhere in the document, so
    /// nothing passes.
    pub value_id: Option<u32>,
    /// Exact level the label must sit at, when present.
    pub level_eq: Option<u16>,
}

impl ScanFilter {
    /// The no-op filter (scans stay zero-copy under it).
    #[inline]
    pub fn pass_through() -> Self {
        ScanFilter { value_id: None, level_eq: None }
    }

    /// True when no predicate applies.
    #[inline]
    pub fn is_pass_through(&self) -> bool {
        self.value_id.is_none() && self.level_eq.is_none()
    }

    /// Reference semantics for one tuple (the kernels below are the
    /// chunked equivalents, proven identical by the property tests).
    #[inline]
    pub fn admits(&self, label: &DLabel, value_id: u32) -> bool {
        let value_ok = match self.value_id {
            Some(want) => want != NO_VALUE && value_id == want,
            None => true,
        };
        let level_ok = match self.level_eq {
            Some(k) => label.level == k,
            None => true,
        };
        value_ok && level_ok
    }
}

/// One clustered run over compressed (v3-mapped) columns: positions
/// `range` of one clustering permutation, viewed through the packed
/// planes. Slicing is range arithmetic — block boundaries are
/// internal to the decode loops and need not align with runs.
#[derive(Debug, Clone)]
pub struct PackedRun<'a> {
    /// The permutation's label planes (`start` / `end − start` /
    /// `level`).
    pub labels: LabelPlanesRef<'a>,
    /// Row-id plane of the permutation; `None` = identity (the
    /// document-order scan, where position *is* the row).
    pub rows: Option<PlaneRef<'a>>,
    /// Value-id plane of the permutation (`NO_VALUE` rows carry the
    /// store's sentinel remap — never equal to a real queried id).
    pub values: PlaneRef<'a>,
    /// Positions of this run within the permutation.
    pub range: Range<usize>,
}

impl<'a> PackedRun<'a> {
    /// Tuples in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True when the run holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Sub-run of relative positions `r`.
    #[inline]
    pub fn slice(&self, r: Range<usize>) -> PackedRun<'a> {
        debug_assert!(r.end <= self.len());
        PackedRun {
            range: self.range.start + r.start..self.range.start + r.end,
            ..self.clone()
        }
    }

    /// Document-order row id of relative position `i`.
    #[inline]
    pub fn row_at(&self, i: usize) -> u32 {
        let pos = self.range.start + i;
        match &self.rows {
            Some(rows) => rows.get(pos),
            None => pos as u32,
        }
    }

    /// Decode the label at relative position `i`.
    #[inline]
    pub fn label_at(&self, i: usize) -> DLabel {
        let pos = self.range.start + i;
        let start = self.labels.starts.get(pos);
        DLabel {
            start,
            end: start.wrapping_add(self.labels.extents.get(pos)),
            level: self.labels.levels.get(pos) as u16,
        }
    }
}

/// A clustered run from either column source. Scans hand these to the
/// engines; `Raw` preserves the zero-copy `&[DLabel]` path, `Packed`
/// decodes on the fly inside the chunked kernels.
// `Packed` carries the plane views inline (~10 slices). Runs are
// created once per scan — not per element — and never stored in bulk,
// so the variant skew is
// cheaper than a per-run heap allocation would be.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum ScanRun<'a> {
    /// Borrowed raw extents (owned store or v2 snapshot mapping).
    Raw(Run<'a>),
    /// Compressed planes of a v3 snapshot mapping.
    Packed(PackedRun<'a>),
    /// Merge-at-scan pieces: the runs a delta-carrying store produces
    /// when one clustered key has tombstones or inserts. The pieces
    /// are `Raw`/`Packed` only (never nested), non-empty, and
    /// start-disjoint in ascending start order — so concatenating
    /// them preserves the clustered run invariant and every consumer
    /// below treats a `Multi` exactly like the flat run it splices
    /// together. Built by `relation.rs`; engines never construct one.
    Multi(Vec<ScanRun<'a>>),
}

/// Piece holding relative position `i` of a `Multi`, and the position
/// within that piece.
fn multi_locate<'b, 'a>(pieces: &'b [ScanRun<'a>], mut i: usize) -> (&'b ScanRun<'a>, usize) {
    for piece in pieces {
        let n = piece.len();
        if i < n {
            return (piece, i);
        }
        i -= n;
    }
    panic!("position out of bounds for merged run");
}

impl<'a> ScanRun<'a> {
    /// Splice `pieces` into one logical run, collapsing the degenerate
    /// shapes so the zero-copy single-piece path survives a merge that
    /// ends up touching nothing.
    pub(crate) fn multi(mut pieces: Vec<ScanRun<'a>>) -> ScanRun<'a> {
        debug_assert!(
            pieces.iter().all(|p| !matches!(p, ScanRun::Multi(_)) && !p.is_empty()),
            "multi pieces must be non-empty flat runs"
        );
        match pieces.len() {
            0 => ScanRun::Raw(Run::EMPTY),
            1 => pieces.pop().expect("one piece"),
            _ => ScanRun::Multi(pieces),
        }
    }

    /// Tuples in the run.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ScanRun::Raw(r) => r.len(),
            ScanRun::Packed(r) => r.len(),
            ScanRun::Multi(pieces) => pieces.iter().map(ScanRun::len).sum(),
        }
    }

    /// True when the run holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-run of relative positions `r`.
    #[inline]
    pub fn slice(&self, r: Range<usize>) -> ScanRun<'a> {
        match self {
            ScanRun::Raw(run) => ScanRun::Raw(run.slice(r)),
            ScanRun::Packed(run) => ScanRun::Packed(run.slice(r)),
            ScanRun::Multi(pieces) => {
                let mut out = Vec::new();
                let mut skip = r.start;
                let mut need = r.len();
                for piece in pieces {
                    if need == 0 {
                        break;
                    }
                    let n = piece.len();
                    if skip >= n {
                        skip -= n;
                        continue;
                    }
                    let take = (n - skip).min(need);
                    out.push(piece.slice(skip..skip + take));
                    skip = 0;
                    need -= take;
                }
                debug_assert_eq!(need, 0, "slice range out of bounds for merged run");
                ScanRun::multi(out)
            }
        }
    }

    /// Document-order row id of relative position `i`.
    #[inline]
    pub fn row_at(&self, i: usize) -> u32 {
        match self {
            ScanRun::Raw(run) => run.row_at(i).0,
            ScanRun::Packed(run) => run.row_at(i),
            ScanRun::Multi(pieces) => {
                let (piece, j) = multi_locate(pieces, i);
                piece.row_at(j)
            }
        }
    }

    /// The label at relative position `i` (decoding when packed).
    #[inline]
    pub fn label_at(&self, i: usize) -> DLabel {
        match self {
            ScanRun::Raw(run) => run.labels[i],
            ScanRun::Packed(run) => run.label_at(i),
            ScanRun::Multi(pieces) => {
                let (piece, j) = multi_locate(pieces, i);
                piece.label_at(j)
            }
        }
    }

    /// The borrowed label slice, when this run is raw — the engines use
    /// it to keep unfiltered scans zero-copy. Merged runs return `None`
    /// (the splice forces a copy, but only on keys the delta touches).
    #[inline]
    pub fn raw_labels(&self) -> Option<&'a [DLabel]> {
        match self {
            ScanRun::Raw(run) => Some(run.labels),
            ScanRun::Packed(_) | ScanRun::Multi(_) => None,
        }
    }

    /// Append every label of the run to `out` (block-decoded when
    /// packed).
    pub fn decode_labels_into(&self, out: &mut Vec<DLabel>) {
        match self {
            ScanRun::Raw(run) => out.extend_from_slice(run.labels),
            ScanRun::Multi(pieces) => {
                // Pieces are start-ascending and disjoint, so plain
                // concatenation keeps the run sorted.
                for piece in pieces {
                    piece.decode_labels_into(out);
                }
            }
            ScanRun::Packed(run) => {
                let mut starts = [0u32; BLOCK];
                let mut extents = [0u32; BLOCK];
                let mut levels = [0u32; BLOCK];
                out.reserve(run.len());
                let mut pos = run.range.start;
                while pos < run.range.end {
                    let take = (BLOCK - (pos & (BLOCK - 1))).min(run.range.end - pos);
                    run.labels.starts.decode_in_block(pos, &mut starts[..take]);
                    run.labels.extents.decode_in_block(pos, &mut extents[..take]);
                    run.labels.levels.decode_in_block(pos, &mut levels[..take]);
                    // Zipped slices extend in one pass, with no per-slot
                    // bounds check and no zero-fill to overwrite.
                    let planes = starts[..take].iter().zip(&extents[..take]).zip(&levels[..take]);
                    out.extend(planes.map(|((&start, &extent), &level)| DLabel {
                        start,
                        end: start.wrapping_add(extent),
                        level: level as u16,
                    }));
                    pos += take;
                }
            }
        }
    }

    /// The chunked filter kernel: append the labels `filter` admits,
    /// in run order. Equivalent to `admits` per tuple but compiled as
    /// fixed-width, branch-free compaction loops (`write; advance by
    /// predicate`), decoding packed runs block-by-block into stack
    /// buffers.
    pub fn filter_into(&self, filter: ScanFilter, out: &mut Vec<DLabel>) {
        if filter.is_pass_through() {
            self.decode_labels_into(out);
            return;
        }
        if filter.value_id == Some(NO_VALUE) {
            return; // queried value occurs nowhere: nothing passes
        }
        match self {
            ScanRun::Raw(run) => filter_raw(run, filter, out),
            ScanRun::Packed(run) => filter_packed(run, filter, out),
            ScanRun::Multi(pieces) => {
                for piece in pieces {
                    piece.filter_into(filter, out);
                }
            }
        }
    }

    /// Sum of `start` positions — the range/tag-scan bench kernel. The
    /// packed path reads only the `start` plane (~1–3 payload bytes per
    /// element instead of a 12-byte `DLabel`).
    pub fn sum_starts(&self) -> u64 {
        match self {
            ScanRun::Raw(run) => run.labels.iter().map(|l| l.start as u64).sum(),
            ScanRun::Packed(run) => run.labels.starts.sum_range(run.range.clone()),
            ScanRun::Multi(pieces) => pieces.iter().map(ScanRun::sum_starts).sum(),
        }
    }
}

/// Branch-free filter over raw extents: one fixed-shape loop per
/// predicate combination, compaction by predicated advance.
fn filter_raw(run: &Run<'_>, filter: ScanFilter, out: &mut Vec<DLabel>) {
    let n = run.labels.len();
    let base = out.len();
    out.resize(base + n, ZERO_LABEL);
    let dst = &mut out[base..];
    let mut k = 0usize;
    match (filter.value_id, filter.level_eq) {
        (Some(want), None) => {
            for (label, &vid) in run.labels.iter().zip(run.value_ids) {
                dst[k] = *label;
                k += (vid == want) as usize;
            }
        }
        (None, Some(lvl)) => {
            for label in run.labels {
                dst[k] = *label;
                k += (label.level == lvl) as usize;
            }
        }
        (Some(want), Some(lvl)) => {
            for (label, &vid) in run.labels.iter().zip(run.value_ids) {
                dst[k] = *label;
                k += ((vid == want) & (label.level == lvl)) as usize;
            }
        }
        (None, None) => unreachable!("pass-through handled by caller"),
    }
    out.truncate(base + k);
}

/// Branch-free filter over packed planes: decode each block-aligned
/// chunk into stack buffers, then compact with predicated advance.
fn filter_packed(run: &PackedRun<'_>, filter: ScanFilter, out: &mut Vec<DLabel>) {
    let mut starts = [0u32; BLOCK];
    let mut extents = [0u32; BLOCK];
    let mut levels = [0u32; BLOCK];
    let mut values = [0u32; BLOCK];
    let need_values = filter.value_id.is_some();
    let base = out.len();
    out.resize(base + run.len(), ZERO_LABEL);
    let mut k = 0usize;
    let mut pos = run.range.start;
    while pos < run.range.end {
        let take = (BLOCK - (pos & (BLOCK - 1))).min(run.range.end - pos);
        run.labels.starts.decode_in_block(pos, &mut starts[..take]);
        run.labels.extents.decode_in_block(pos, &mut extents[..take]);
        run.labels.levels.decode_in_block(pos, &mut levels[..take]);
        if need_values {
            run.values.decode_in_block(pos, &mut values[..take]);
        }
        let dst = &mut out[base + k..];
        let mut c = 0usize;
        match (filter.value_id, filter.level_eq) {
            (Some(want), None) => {
                for j in 0..take {
                    dst[c] = DLabel {
                        start: starts[j],
                        end: starts[j].wrapping_add(extents[j]),
                        level: levels[j] as u16,
                    };
                    c += (values[j] == want) as usize;
                }
            }
            (None, Some(lvl)) => {
                let lvl = lvl as u32;
                for j in 0..take {
                    dst[c] = DLabel {
                        start: starts[j],
                        end: starts[j].wrapping_add(extents[j]),
                        level: levels[j] as u16,
                    };
                    c += (levels[j] == lvl) as usize;
                }
            }
            (Some(want), Some(lvl)) => {
                let lvl = lvl as u32;
                for j in 0..take {
                    dst[c] = DLabel {
                        start: starts[j],
                        end: starts[j].wrapping_add(extents[j]),
                        level: levels[j] as u16,
                    };
                    c += ((values[j] == want) & (levels[j] == lvl)) as usize;
                }
            }
            (None, None) => unreachable!("pass-through handled by caller"),
        }
        k += c;
        pos += take;
    }
    out.truncate(base + k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{encode_label_planes, encode_plane};

    /// Build a packed run over synthetic labels/values and the same
    /// data as a raw run; both must answer identically.
    struct Fixture {
        labels: Vec<DLabel>,
        value_ids: Vec<u32>,
        label_bytes: Vec<u8>,
        value_bytes: Vec<u8>,
        row_bytes: Vec<u8>,
    }

    fn fixture(n: u32) -> Fixture {
        let labels: Vec<DLabel> = (0..n)
            .map(|i| DLabel {
                start: i * 2,
                end: i * 2 + 1 + (i % 5),
                level: (i % 9) as u16 + 1,
            })
            .collect();
        fixture_of(labels)
    }

    fn fixture_of(labels: Vec<DLabel>) -> Fixture {
        let n = labels.len() as u32;
        let value_ids: Vec<u32> = (0..n).map(|i| if i % 3 == 0 { i % 7 } else { 1000 }).collect();
        let starts: Vec<u32> = labels.iter().map(|l| l.start).collect();
        let extents: Vec<u32> = labels.iter().map(|l| l.end - l.start).collect();
        let levels: Vec<u32> = labels.iter().map(|l| l.level as u32).collect();
        let rows: Vec<u32> = (0..n).rev().collect(); // any permutation
        let mut label_bytes = Vec::new();
        encode_label_planes(&starts, &extents, &levels, &mut label_bytes);
        let mut value_bytes = Vec::new();
        encode_plane(&value_ids, &mut value_bytes);
        let mut row_bytes = Vec::new();
        encode_plane(&rows, &mut row_bytes);
        Fixture { labels, value_ids, label_bytes, value_bytes, row_bytes }
    }

    fn runs_of(f: &Fixture) -> (ScanRun<'_>, ScanRun<'_>) {
        let n = f.labels.len();
        let raw = ScanRun::Raw(Run {
            labels: &f.labels,
            rows: &[],
            value_ids: &f.value_ids,
            row_base: 0,
        });
        let (planes, _) = LabelPlanesRef::parse(&f.label_bytes, n).unwrap();
        let (values, _) = PlaneRef::parse(&f.value_bytes, n).unwrap();
        let (rows, _) = PlaneRef::parse(&f.row_bytes, n).unwrap();
        let packed = ScanRun::Packed(PackedRun {
            labels: planes,
            rows: Some(rows),
            values,
            range: 0..n,
        });
        (raw, packed)
    }

    /// One block per FOR width: in block `w`, each plane's values span
    /// a range that needs exactly `w` bytes per delta (levels stop at 2,
    /// the width of a `u16`).
    fn every_width_fixture() -> Fixture {
        let spread = |w: usize, i: u32| match w {
            0 => 0,
            1 => i % 200,
            2 => i * 50,
            3 => i * 10_000,
            _ => i * 4_000_000,
        };
        let labels = (0..5)
            .flat_map(|w| {
                (0..BLOCK as u32).map(move |i| {
                    let start = spread(w, i);
                    DLabel {
                        start,
                        end: start + spread(w, BLOCK as u32 - 1 - i),
                        level: spread(w.min(2), i) as u16 + 1,
                    }
                })
            })
            .collect();
        fixture_of(labels)
    }

    #[test]
    fn packed_decode_matches_raw() {
        let f = fixture(3000);
        let (raw, packed) = runs_of(&f);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        raw.decode_labels_into(&mut a);
        packed.decode_labels_into(&mut b);
        assert_eq!(a, b);
        assert_eq!(raw.sum_starts(), packed.sum_starts());
        for i in [0, 1, 1023, 1024, 2999] {
            assert_eq!(raw.label_at(i), packed.label_at(i), "label_at({i})");
        }

        // Every FOR width, sub-runs that start and end mid-block, each
        // appended after labels already in `out`.
        let f = every_width_fixture();
        let (_, packed) = runs_of(&f);
        let ScanRun::Packed(run) = &packed else { unreachable!() };
        for (plane, name) in [
            (&run.labels.starts, "starts"),
            (&run.labels.extents, "extents"),
            (&run.labels.levels, "levels"),
        ] {
            let widths: Vec<u8> = (0..5).map(|b| plane.block_meta(b).2 as u8).collect();
            let want: &[u8] = if name == "levels" { &[0, 1, 2, 2, 2] } else { &[0, 1, 2, 3, 4] };
            assert_eq!(widths, want, "{name} widths");
        }
        let prefix = [DLabel { start: 7, end: 9, level: 3 }; 3];
        for r in [0..5 * BLOCK, 5..5, 100..900, 1000..3100, 1023..1025, 2500..4100, 4000..5120] {
            let mut out = prefix.to_vec();
            packed.slice(r.clone()).decode_labels_into(&mut out);
            assert_eq!(out[..3], prefix, "{r:?}: the prefix is kept");
            assert_eq!(out[3..], f.labels[r.clone()], "{r:?}");
        }
    }

    #[test]
    fn packed_filters_match_raw_for_every_predicate_shape() {
        let f = fixture(2600);
        let (raw, packed) = runs_of(&f);
        let filters = [
            ScanFilter::pass_through(),
            ScanFilter { value_id: Some(3), level_eq: None },
            ScanFilter { value_id: None, level_eq: Some(4) },
            ScanFilter { value_id: Some(3), level_eq: Some(4) },
            ScanFilter { value_id: Some(NO_VALUE), level_eq: None },
            ScanFilter { value_id: Some(999_999), level_eq: None },
        ];
        for filter in filters {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            raw.filter_into(filter, &mut a);
            packed.filter_into(filter, &mut b);
            assert_eq!(a, b, "{filter:?}");
            // And both agree with the per-tuple reference semantics.
            let reference: Vec<DLabel> = f
                .labels
                .iter()
                .zip(&f.value_ids)
                .filter(|(l, &v)| filter.admits(l, v))
                .map(|(l, _)| *l)
                .collect();
            assert_eq!(a, reference, "{filter:?} vs reference");
        }
    }

    #[test]
    fn slices_preserve_rows_and_filters() {
        let f = fixture(2048);
        let (raw, packed) = runs_of(&f);
        // Identity rows on the raw side vs an explicit reverse
        // permutation on the packed side: compare against expectations
        // separately.
        for i in [0usize, 5, 2047] {
            assert_eq!(raw.row_at(i), i as u32);
            assert_eq!(packed.row_at(i), (2047 - i) as u32);
        }
        let (ra, pa) = (raw.slice(100..1500), packed.slice(100..1500));
        assert_eq!(ra.len(), 1400);
        assert_eq!(pa.len(), 1400);
        assert_eq!(pa.row_at(0), 2047 - 100);
        let filter = ScanFilter { value_id: None, level_eq: Some(6) };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        ra.filter_into(filter, &mut a);
        pa.filter_into(filter, &mut b);
        assert_eq!(a, b);
        assert_eq!(ra.sum_starts(), pa.sum_starts());
    }

    #[test]
    fn merged_runs_behave_like_their_flat_splice() {
        let f = fixture(3000);
        let (raw, packed) = runs_of(&f);
        // Splice alternating raw/packed pieces of the same underlying
        // positions back together; every reader must see the flat run.
        let multi = ScanRun::multi(vec![
            raw.slice(0..700),
            packed.slice(700..1600),
            raw.slice(1600..3000),
        ]);
        assert!(matches!(multi, ScanRun::Multi(_)));
        assert_eq!(multi.len(), 3000);
        assert!(multi.raw_labels().is_none());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        multi.decode_labels_into(&mut a);
        raw.decode_labels_into(&mut b);
        assert_eq!(a, b);
        assert_eq!(multi.sum_starts(), raw.sum_starts());
        for i in [0usize, 699, 700, 1599, 1600, 2999] {
            assert_eq!(multi.label_at(i), raw.label_at(i), "label_at({i})");
        }
        // Raw pieces carry identity rows; the packed piece holds the
        // fixture's reverse permutation.
        assert_eq!(multi.row_at(0), 0);
        assert_eq!(multi.row_at(700), 2999 - 700);

        let filter = ScanFilter { value_id: Some(3), level_eq: Some(4) };
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        multi.filter_into(filter, &mut fa);
        raw.filter_into(filter, &mut fb);
        assert_eq!(fa, fb);

        // Cross-piece slicing behaves like the flat run.
        let s = multi.slice(500..2000);
        let (mut sa, mut sb) = (Vec::new(), Vec::new());
        s.decode_labels_into(&mut sa);
        raw.slice(500..2000).decode_labels_into(&mut sb);
        assert_eq!(sa, sb);

        // Degenerate shapes collapse back to flat runs.
        assert!(matches!(ScanRun::multi(Vec::new()), ScanRun::Raw(_)));
        assert!(matches!(ScanRun::multi(vec![raw.slice(0..5)]), ScanRun::Raw(_)));
    }
}
