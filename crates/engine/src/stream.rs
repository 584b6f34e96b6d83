//! Zero-copy label streams and the scratch buffers the operators share.
//!
//! The columnar store returns clustered scans as [`ScanRun`]s — either
//! borrowed `&[DLabel]` extents (owned or raw-mapped stores) or packed
//! v3 column runs that decode on the fly (see `blas_storage::scan`).
//! [`Labels`] lets an operator pass raw slices through *without
//! copying* when no filter or reordering applies, and fall back to a
//! pooled owned buffer when one does (packed runs always land in a
//! buffer — one chunked block decode, not a per-element loop).
//! [`ExecBuffers`] owns every scratch allocation of one query
//! execution — operator output buffers are recycled through a pool, the
//! join kernel's flag vectors are reused across joins, and multi-run
//! merges ping-pong between two persistent buffers — so executing a
//! plan allocates O(plan size) buffers total instead of O(operators ×
//! tuples).

use crate::stats::ExecStats;
use crate::stjoin::{merge_segments, JoinScratch, MergeScratch};
use blas_labeling::DLabel;
use blas_storage::{NodeStore, ScanFilter, ScanRun, NO_VALUE};
use blas_translate::BoundSource;
use std::ops::Deref;

/// A start-sorted label stream: borrowed straight from the store's
/// clustered columns, or owned (filtered / merged / joined) in a
/// pooled buffer.
#[derive(Debug)]
pub enum Labels<'a> {
    /// Zero-copy slice of a clustered run.
    Borrowed(&'a [DLabel]),
    /// Materialized stream in a pooled buffer.
    Owned(Vec<DLabel>),
}

impl Deref for Labels<'_> {
    type Target = [DLabel];
    #[inline]
    fn deref(&self) -> &[DLabel] {
        match self {
            Labels::Borrowed(s) => s,
            Labels::Owned(v) => v,
        }
    }
}

impl Labels<'_> {
    /// Materialize into an owned `Vec`, reusing a pooled buffer for the
    /// borrowed case.
    pub fn into_vec(self, bufs: &mut ExecBuffers) -> Vec<DLabel> {
        match self {
            Labels::Borrowed(s) => {
                let mut v = bufs.take();
                v.extend_from_slice(s);
                v
            }
            Labels::Owned(v) => v,
        }
    }
}

/// Scratch state for one query execution.
#[derive(Debug, Default)]
pub struct ExecBuffers {
    pool: Vec<Vec<DLabel>>,
    /// Reused flag/stack storage for the structural-join kernel.
    pub join: JoinScratch,
    /// Reused segment-merge state for multi-run range scans.
    pub merge: MergeScratch,
}

impl ExecBuffers {
    /// Take a cleared buffer from the pool (or allocate the first
    /// time).
    pub fn take(&mut self) -> Vec<DLabel> {
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Return a stream's buffer to the pool, if it owned one.
    pub fn recycle(&mut self, labels: Labels<'_>) {
        if let Labels::Owned(v) = labels {
            self.pool.push(v);
        }
    }
}

/// Resolve a selection's textual predicates (`data = 'v'`,
/// `level = k`) against the store's intern table into the storage
/// crate's [`ScanFilter`], whose chunked kernels run directly over raw
/// or packed runs. An un-interned value becomes `Some(NO_VALUE)`, which
/// admits nothing.
fn resolve_filter(
    value_eq: Option<&str>,
    level_eq: Option<u16>,
    store: &NodeStore,
) -> ScanFilter {
    ScanFilter {
        value_id: value_eq.map(|v| store.value_id(v).unwrap_or(NO_VALUE)),
        level_eq,
    }
}

/// Materialize the stream of one bound selection / twig node: count
/// every scanned tuple in `stats` (the paper's "elements read" — the
/// whole clustered run is read, filters apply after), return the
/// stream start-sorted, borrowing the store's columns whenever no
/// filter or merge forces a copy.
pub fn materialize<'a>(
    source: &BoundSource,
    value_eq: Option<&str>,
    level_eq: Option<u16>,
    store: &'a NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Labels<'a> {
    let filter = resolve_filter(value_eq, level_eq, store);
    match source {
        BoundSource::PLabels(intervals) => {
            multi_run(store.scan_plabels(intervals), filter, stats, bufs)
        }
        BoundSource::Tag(t) => single_run(store.scan_tag(*t), filter, stats, bufs),
        BoundSource::All => single_run(store.scan_doc(), filter, stats, bufs),
        BoundSource::Empty => Labels::Borrowed(&[]),
    }
}

/// Tag and full scans yield one start-sorted run: zero-copy when
/// the run is a raw extent and no filter applies; otherwise one pass
/// of the chunked filter/decode kernel into a pooled buffer.
fn single_run<'a>(
    run: ScanRun<'a>,
    filter: ScanFilter,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Labels<'a> {
    stats.elements_visited += run.len() as u64;
    if filter.is_pass_through() {
        if let Some(labels) = run.raw_labels() {
            return Labels::Borrowed(labels);
        }
    }
    let mut out = bufs.take();
    run.filter_into(filter, &mut out);
    Labels::Owned(out)
}

/// A P-label interval-set scan yields one start-sorted run per distinct
/// live P-label in the set; restore document order by merging the runs
/// with ping-pong rounds between two persistent buffers (no per-run
/// allocation).
fn multi_run<'a>(
    mut runs: impl Iterator<Item = ScanRun<'a>>,
    filter: ScanFilter,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Labels<'a> {
    let Some(head) = runs.next() else {
        return Labels::Borrowed(&[]);
    };
    let Some(second) = runs.next() else {
        // A set selecting a single live P-label stays zero-copy.
        return single_run(head, filter, stats, bufs);
    };
    let mut out = bufs.take();
    bufs.merge.bounds.clear();
    for run in [head, second].into_iter().chain(runs) {
        stats.elements_visited += run.len() as u64;
        let before = out.len();
        run.filter_into(filter, &mut out);
        if out.len() > before {
            bufs.merge.bounds.push(out.len());
        }
    }
    merge_segments(&mut out, &mut bufs.merge);
    Labels::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_labeling::{label_document, PInterval};
    use blas_xml::Document;

    const SAMPLE: &str = "<db><e><n>a</n></e><x><e><n>b</n></e></x><n>c</n></db>";

    fn fixture() -> (Document, NodeStore, blas_labeling::PLabelDomain) {
        let doc = Document::parse(SAMPLE).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store, labels.domain)
    }

    #[test]
    fn tag_scan_is_zero_copy() {
        let (doc, store, _) = fixture();
        let n = doc.tags().get("n").unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::Tag(n),
            None,
            None,
            &store,
            &mut stats,
            &mut bufs,
        );
        assert!(matches!(out, Labels::Borrowed(_)), "unfiltered tag scan must not copy");
        assert_eq!(out.len(), 3);
        assert_eq!(stats.elements_visited, 3);
    }

    #[test]
    fn value_filter_materializes_and_counts_whole_run() {
        let (doc, store, _) = fixture();
        let n = doc.tags().get("n").unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::Tag(n),
            Some("b"),
            None,
            &store,
            &mut stats,
            &mut bufs,
        );
        assert!(matches!(out, Labels::Owned(_)));
        assert_eq!(out.len(), 1);
        assert_eq!(stats.elements_visited, 3, "filters do not reduce elements read");
    }

    #[test]
    fn absent_value_passes_nothing() {
        let (doc, store, _) = fixture();
        let n = doc.tags().get("n").unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::Tag(n),
            Some("no-such-value"),
            None,
            &store,
            &mut stats,
            &mut bufs,
        );
        assert!(out.is_empty());
        assert_eq!(stats.elements_visited, 3);
    }

    #[test]
    fn range_scan_merges_runs_to_start_order() {
        let (_, store, dom) = fixture();
        let _ = dom;
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::PLabels(vec![PInterval { p1: 0, p2: u128::MAX }]),
            None,
            None,
            &store,
            &mut stats,
            &mut bufs,
        );
        assert_eq!(out.len(), store.len());
        assert!(out.windows(2).all(|w| w[0].start < w[1].start));
        assert_eq!(stats.elements_visited, store.len() as u64);
    }

    #[test]
    fn single_run_range_is_zero_copy() {
        let (doc, store, dom) = fixture();
        let db = doc.tags().get("db").unwrap();
        let q = dom.path_interval(true, &[db]).unwrap();
        let mut stats = ExecStats::default();
        let mut bufs = ExecBuffers::default();
        let out = materialize(
            &BoundSource::PLabels(vec![q]),
            None,
            None,
            &store,
            &mut stats,
            &mut bufs,
        );
        assert!(matches!(out, Labels::Borrowed(_)));
        assert_eq!(out.len(), 1);
    }
}
