//! Mutable **delta store**: inserted, retagged and deleted nodes held
//! in small side columns layered over the immutable (owned or mapped)
//! base [`NodeStore`].
//!
//! The base columns never change after load — they may literally be a
//! read-only file mapping — so every mutation lives here instead:
//!
//! * **inserts** (including the re-inserted halves of retags and of
//!   ancestor end-extensions) as document-order columns plus SP- and
//!   SD-sorted views with their own mini run directories, mirroring
//!   the base clusterings at delta scale;
//! * **deletes** as tombstones over base rows, with `(plabel, start)`
//!   and `(tag, start)` sorted views so a scan of one SP or SD key
//!   finds its dead rows with two binary searches over the (tiny)
//!   delta instead of a walk of the base;
//! * **values** as an extension of the base intern table: every
//!   distinct string keeps exactly one global id (base ids first,
//!   delta ids after), so the single-id `ScanFilter` equality keeps
//!   working across the merge.
//!
//! The merge itself happens in `relation.rs` at scan time — base runs
//! are split around tombstones and interleaved with delta runs into
//! [`ScanRun::Multi`](crate::scan::ScanRun) pieces — so nothing above
//! the scan layer knows deltas exist. A delta is **rebuilt from the
//! cumulative [`DeltaEdits`] log on every mutation** (O(delta), not
//! O(base)), which keeps it an immutable value: generations share it
//! behind an `Arc` and readers never observe a half-applied edit.
//!
//! The log itself is the writer's one mutable structure, edited **in
//! place**: the three structural mutations
//! ([`DeltaEdits::insert_under`], [`DeltaEdits::delete_subtree`],
//! [`DeltaEdits::retag_subtree`]) find the tuples they touch by seeking
//! the published store (`depth` directory probes for an ancestor
//! spine, a start-order seek for a subtree), so a write costs
//! O(depth · log n + fragment + |delta|) whatever the base size. After
//! a compaction folded a pinned generation off the writer lock,
//! [`DeltaEdits::rebased`] re-expresses what arrived meanwhile against
//! the folded columns in O(|edits|).

use std::fmt;
use std::ops::Range;

use blas_labeling::{DLabel, PLabelDomain};
use blas_xml::TagId;

use crate::relation::{NodeRecord, NodeStore, RecordView, RowId, Run, NO_VALUE};
use crate::snapshot::SnapshotError;

/// The cumulative mutation log applied against one base store. This
/// is the unit of both [`NodeStore::apply_edits`] and the sidecar
/// serialization ([`encode_edits`] / [`decode_edits`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaEdits {
    /// Live inserted (or re-inserted) tuples, in any order. Starts
    /// must be unique and must not collide with a *live* base start
    /// (colliding with a tombstoned one is how retags re-insert).
    pub inserted: Vec<NodeRecord>,
    /// Tombstoned base rows (document-order row ids), in any order.
    pub deleted_rows: Vec<u32>,
    /// Retags folded into the log. Physically a retag is a tombstone
    /// plus a re-insert; this only keeps the statistic observable.
    pub retags: u32,
}

impl DeltaEdits {
    /// A log with no edits.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the log carries no edits at all.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted_rows.is_empty() && self.retags == 0
    }

    // --- the writer's in-place mutations -----------------------------
    //
    // All three take `store`, the store **built from this log** (the
    // currently published generation), and rows of it. They rely on
    // the alignment `DeltaStore::build` establishes when `inserted` is
    // in start order: global row `store.len() + i` is `inserted[i]`.
    // Each of them leaves `inserted` in start order again, so the next
    // store built from the log is aligned in turn.

    /// Replace the live tuples at `rows` by copies rewritten with `f`:
    /// a pending insert is rewritten where it sits, a base row is
    /// tombstoned and its rewritten copy appended (the caller restores
    /// start order once it is done appending).
    fn rewrite(
        &mut self,
        store: &NodeStore,
        rows: impl IntoIterator<Item = RowId>,
        mut f: impl FnMut(&mut NodeRecord),
    ) {
        let n = store.len();
        for row in rows {
            if row.index() >= n {
                f(&mut self.inserted[row.index() - n]);
            } else {
                let mut rec = store.record(row).to_owned();
                f(&mut rec);
                self.deleted_rows.push(row.0);
                self.inserted.push(rec);
            }
        }
    }

    /// Bring `inserted` — the old start-ordered log followed by what
    /// one mutation appended — back into start order. The stable sort
    /// merges pre-sorted stretches, so this is cheap on what is nearly
    /// sorted already.
    fn restore_start_order(&mut self) {
        self.inserted.sort_by_key(|r| r.start);
    }

    /// Append `fragment` — already labeled, `grown` units wide, placed
    /// at the parent's old end unit — as the last child of the live
    /// tuple at `parent`: the parent and every ancestor stretch by
    /// `grown` units, no other tuple moves. `None` (log untouched)
    /// when the store cannot name the parent's ancestors.
    pub fn insert_under(
        &mut self,
        store: &NodeStore,
        domain: &PLabelDomain,
        parent: RowId,
        grown: u32,
        fragment: Vec<NodeRecord>,
    ) -> Option<()> {
        let spine = store.spine_rows(domain, parent)?;
        self.rewrite(store, spine, |rec| rec.end += grown);
        self.inserted.extend(fragment);
        self.restore_start_order();
        Some(())
    }

    /// Remove the subtree rooted at the live tuple at `root`: base
    /// rows are tombstoned, pending inserts withdrawn.
    pub fn delete_subtree(&mut self, store: &NodeStore, root: RowId) {
        let n = store.len();
        let top = store.record(root);
        // Start order is row order on both sides, so the withdrawn
        // inserts are one contiguous stretch of the log.
        let mut withdrawn: Option<Range<usize>> = None;
        for (row, _) in store.scan_from(top.start).take_while(|(_, r)| r.start <= top.end) {
            match row.index().checked_sub(n) {
                None => self.deleted_rows.push(row.0),
                Some(i) => withdrawn.get_or_insert(i..i).end = i + 1,
            }
        }
        if let Some(stretch) = withdrawn {
            self.inserted.drain(stretch);
        }
    }

    /// Rename the live tuple at `root` to `tag`. A tag is one
    /// positional digit of every descendant's P-label, so the whole
    /// subtree is rewritten: a descendant at distance `d` moves by
    /// `|tag' − tag| · base^(H−1−d)`.
    pub fn retag_subtree(
        &mut self,
        store: &NodeStore,
        domain: &PLabelDomain,
        root: RowId,
        tag: TagId,
    ) {
        let top = store.record(root);
        let (old_digit, new_digit) = (u128::from(top.tag.0) + 1, u128::from(tag.0) + 1);
        // The per-distance digit weights, hoisted out of the row loop.
        let mut scales = vec![domain.base().pow(domain.digits() - 1)];
        for _ in 1..domain.digits() {
            scales.push(scales[scales.len() - 1] / domain.base());
        }
        let rows = store
            .scan_from(top.start)
            .take_while(|(_, r)| r.start <= top.end)
            .filter(|(_, r)| usize::from(r.level.wrapping_sub(top.level)) < scales.len())
            .map(|(row, _)| row);
        self.rewrite(store, rows, |rec| {
            let scale = scales[usize::from(rec.level.wrapping_sub(top.level))];
            rec.plabel = if new_digit >= old_digit {
                rec.plabel + (new_digit - old_digit) * scale
            } else {
                rec.plabel - (old_digit - new_digit) * scale
            };
            if rec.start == top.start {
                rec.tag = tag;
            }
        });
        self.restore_start_order();
        self.retags += 1;
    }

    /// Re-express this log — cumulative against `pinned`'s base
    /// columns — against `folded`, the delta-free fold of `pinned`
    /// (an earlier state of the same log). D-label starts are never
    /// renumbered or reclaimed, so they identify a tuple across the
    /// fold: a tuple pending at pin time that is no longer identically
    /// pending becomes a tombstone of its folded row, a base row
    /// tombstoned since likewise, and every insert not identically
    /// pending at pin time stays an insert. O(|edits|), never O(base).
    pub fn rebased(&self, pinned: &NodeStore, folded: &NodeStore) -> DeltaEdits {
        let Some(pd) = pinned.delta() else { return self.clone() };
        let folded_row = |start: u32| {
            folded.row_of_start(start).expect("a tuple live at pin time is a folded row").0
        };
        let mut out = DeltaEdits { retags: self.retags - pd.retag_count(), ..DeltaEdits::new() };
        for &row in self.deleted_rows.iter().filter(|&&row| !pd.is_deleted_row(row)) {
            out.deleted_rows.push(folded_row(pinned.record(RowId(row)).start));
        }
        let n = pinned.len();
        let mut now = self.inserted.iter().peekable();
        for i in 0..pd.inserted_len() {
            let was = pinned.record(RowId((n + i) as u32));
            while let Some(rec) = now.next_if(|r| r.start < was.start) {
                out.inserted.push(rec.clone());
            }
            match now.next_if(|r| r.start == was.start) {
                Some(rec) if same_tuple(rec, &was) => {}
                changed => {
                    out.deleted_rows.push(folded_row(was.start));
                    out.inserted.extend(changed.cloned());
                }
            }
        }
        out.inserted.extend(now.cloned());
        out
    }
}

fn same_tuple(rec: &NodeRecord, view: &RecordView<'_>) -> bool {
    (rec.plabel, rec.dlabel(), rec.tag, rec.data.as_deref())
        == (view.plabel, view.dlabel(), view.tag, view.data)
}

/// Structural rejection of a [`DeltaEdits`] log against its base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Two inserted tuples share a start position.
    DuplicateStart(u32),
    /// An inserted tuple's start collides with a live base row.
    StartCollision(u32),
    /// A tombstone names a row the base does not have.
    RowOutOfRange(u32),
    /// An inserted tuple's interval is inverted (`start >= end`).
    BadInterval(u32),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateStart(s) => write!(f, "two inserted nodes share start {s}"),
            Self::StartCollision(s) => {
                write!(f, "inserted start {s} collides with a live base node")
            }
            Self::RowOutOfRange(r) => write!(f, "tombstone names row {r} outside the base"),
            Self::BadInterval(s) => write!(f, "inserted node at start {s} has start >= end"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The indexed, immutable form of one [`DeltaEdits`] log: small side
/// columns in document, SP and SD order plus sorted tombstone views.
/// Built by [`NodeStore::apply_edits`]; consumed by the merge logic
/// in `relation.rs`.
#[derive(Debug)]
pub struct DeltaStore {
    /// Rows in the base store; delta tuple `i` is global row
    /// `base_rows + i`.
    base_rows: u32,
    /// Distinct strings in the base intern table. Delta string `i` is
    /// global id `base_values + 1 + i`: the `+ 1` skips the id the
    /// packed columns use as their in-plane no-value sentinel (which
    /// is exactly `base_values`), so a filter for a delta-only string
    /// can never match a packed base row without PCDATA.
    base_values: u32,

    // Inserted tuples, document (start) order.
    ins_labels: Vec<DLabel>,
    ins_plabels: Vec<u128>,
    ins_tags: Vec<TagId>,
    ins_value_ids: Vec<u32>,

    // Intern-table extension: delta-local index `i` ↔ global id
    // `base_values + 1 + i`; `values_sorted` holds local indices in
    // string order for id lookup.
    values: Vec<String>,
    values_sorted: Vec<u32>,

    // SP view of the inserted tuples (plabel, start) with a mini run
    // directory, mirroring the base clustering.
    sp_labels: Vec<DLabel>,
    sp_rows: Vec<u32>,
    sp_values: Vec<u32>,
    sp_keys: Vec<u128>,
    sp_ends: Vec<u32>,

    // SD view (tag, start), same shape.
    sd_labels: Vec<DLabel>,
    sd_rows: Vec<u32>,
    sd_values: Vec<u32>,
    sd_keys: Vec<u32>,
    sd_ends: Vec<u32>,

    // Tombstones over base rows: document-order rows (sorted), their
    // starts (parallel, also sorted — document order is start order),
    // and the per-clustering sorted views.
    del_rows: Vec<u32>,
    del_starts: Vec<u32>,
    del_sp: Vec<(u128, u32)>,
    del_sd: Vec<(u32, u32)>,

    retags: u32,
}

impl DeltaStore {
    /// Index `edits` against `base` (which must itself be delta-free;
    /// the log is always cumulative against the current generation's
    /// base columns).
    pub(crate) fn build(base: &NodeStore, edits: &DeltaEdits) -> Result<DeltaStore, DeltaError> {
        debug_assert!(base.delta().is_none(), "delta logs apply to a delta-free base");
        let base_rows = base.len() as u32;
        let base_values = base.value_count() as u32;

        let mut del_rows = edits.deleted_rows.clone();
        del_rows.sort_unstable();
        del_rows.dedup();
        if let Some(&r) = del_rows.last() {
            if r >= base_rows {
                return Err(DeltaError::RowOutOfRange(r));
            }
        }

        let mut order: Vec<u32> = (0..edits.inserted.len() as u32).collect();
        order.sort_unstable_by_key(|&i| edits.inserted[i as usize].start);
        for w in order.windows(2) {
            if edits.inserted[w[0] as usize].start == edits.inserted[w[1] as usize].start {
                return Err(DeltaError::DuplicateStart(edits.inserted[w[0] as usize].start));
            }
        }

        let n = order.len();
        let mut ins_labels = Vec::with_capacity(n);
        let mut ins_plabels = Vec::with_capacity(n);
        let mut ins_tags = Vec::with_capacity(n);
        let mut ins_value_ids = Vec::with_capacity(n);
        let mut values: Vec<String> = Vec::new();
        let mut intern: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
        for &i in &order {
            let rec = &edits.inserted[i as usize];
            if rec.start >= rec.end {
                return Err(DeltaError::BadInterval(rec.start));
            }
            // Colliding with a tombstoned base start is legal (that is
            // how retags re-insert); colliding with a live one is not.
            if let Some(row) = base.row_of_start(rec.start) {
                if del_rows.binary_search(&row.0).is_err() {
                    return Err(DeltaError::StartCollision(rec.start));
                }
            }
            ins_labels.push(rec.dlabel());
            ins_plabels.push(rec.plabel);
            ins_tags.push(rec.tag);
            let vid = match rec.data.as_deref() {
                None => NO_VALUE,
                Some(s) => match base.value_id(s) {
                    Some(id) => id,
                    None => {
                        let local = *intern.entry(s.to_string()).or_insert_with(|| {
                            values.push(s.to_string());
                            (values.len() - 1) as u32
                        });
                        let vid = base_values + 1 + local;
                        debug_assert!(vid < NO_VALUE, "value id collides with the sentinel");
                        vid
                    }
                },
            };
            ins_value_ids.push(vid);
        }
        // BTreeMap iterates in string order: the sorted view for free,
        // exactly like the base intern table in `from_columns`.
        let values_sorted: Vec<u32> = intern.values().copied().collect();

        let mut sp_perm: Vec<u32> = (0..n as u32).collect();
        sp_perm.sort_unstable_by_key(|&i| (ins_plabels[i as usize], ins_labels[i as usize].start));
        let mut sp_labels = Vec::with_capacity(n);
        let mut sp_rows = Vec::with_capacity(n);
        let mut sp_values = Vec::with_capacity(n);
        let mut sp_keys: Vec<u128> = Vec::new();
        let mut sp_ends: Vec<u32> = Vec::new();
        for (pos, &i) in sp_perm.iter().enumerate() {
            let p = ins_plabels[i as usize];
            match sp_keys.last() {
                Some(&last) if last == p => *sp_ends.last_mut().expect("ends track keys") = pos as u32 + 1,
                _ => {
                    sp_keys.push(p);
                    sp_ends.push(pos as u32 + 1);
                }
            }
            sp_labels.push(ins_labels[i as usize]);
            sp_rows.push(base_rows + i);
            sp_values.push(ins_value_ids[i as usize]);
        }

        let mut sd_perm: Vec<u32> = (0..n as u32).collect();
        sd_perm.sort_unstable_by_key(|&i| (ins_tags[i as usize].0, ins_labels[i as usize].start));
        let mut sd_labels = Vec::with_capacity(n);
        let mut sd_rows = Vec::with_capacity(n);
        let mut sd_values = Vec::with_capacity(n);
        let mut sd_keys: Vec<u32> = Vec::new();
        let mut sd_ends: Vec<u32> = Vec::new();
        for (pos, &i) in sd_perm.iter().enumerate() {
            let t = ins_tags[i as usize].0;
            match sd_keys.last() {
                Some(&last) if last == t => *sd_ends.last_mut().expect("ends track keys") = pos as u32 + 1,
                _ => {
                    sd_keys.push(t);
                    sd_ends.push(pos as u32 + 1);
                }
            }
            sd_labels.push(ins_labels[i as usize]);
            sd_rows.push(base_rows + i);
            sd_values.push(ins_value_ids[i as usize]);
        }

        let mut del_starts = Vec::with_capacity(del_rows.len());
        let mut del_sp = Vec::with_capacity(del_rows.len());
        let mut del_sd = Vec::with_capacity(del_rows.len());
        for &row in &del_rows {
            let r = base.record(RowId(row));
            del_starts.push(r.start);
            del_sp.push((r.plabel, r.start));
            del_sd.push((r.tag.0, r.start));
        }
        debug_assert!(del_starts.windows(2).all(|w| w[0] < w[1]));
        del_sp.sort_unstable();
        del_sd.sort_unstable();

        Ok(DeltaStore {
            base_rows,
            base_values,
            ins_labels,
            ins_plabels,
            ins_tags,
            ins_value_ids,
            values,
            values_sorted,
            sp_labels,
            sp_rows,
            sp_values,
            sp_keys,
            sp_ends,
            sd_labels,
            sd_rows,
            sd_values,
            sd_keys,
            sd_ends,
            del_rows,
            del_starts,
            del_sp,
            del_sd,
            retags: edits.retags,
        })
    }

    /// Inserted tuples in the delta.
    pub fn inserted_len(&self) -> usize {
        self.ins_labels.len()
    }

    /// Tombstoned base rows.
    pub fn deleted_len(&self) -> usize {
        self.del_rows.len()
    }

    /// Retags folded into the log.
    pub fn retag_count(&self) -> u32 {
        self.retags
    }

    /// True when the delta changes nothing (scans may skip the merge
    /// machinery entirely, but the layer's bookkeeping still runs —
    /// this is what the `delta_overhead` bench row measures).
    pub fn is_noop(&self) -> bool {
        self.ins_labels.is_empty() && self.del_rows.is_empty()
    }

    /// Start position of inserted tuple `i` (document order).
    pub(crate) fn ins_start(&self, i: usize) -> u32 {
        self.ins_labels[i].start
    }

    /// Index of the first inserted tuple starting at or after `start`.
    pub(crate) fn ins_lower_bound(&self, start: u32) -> usize {
        self.ins_labels.partition_point(|l| l.start < start)
    }

    /// Raw parts of inserted tuple `i`: (plabel, dlabel, tag,
    /// value id). The caller resolves the value id to a string.
    pub(crate) fn ins_parts(&self, i: usize) -> (u128, DLabel, TagId, u32) {
        (self.ins_plabels[i], self.ins_labels[i], self.ins_tags[i], self.ins_value_ids[i])
    }

    /// Document-order run over all inserted tuples.
    pub(crate) fn doc_run(&self) -> Run<'_> {
        Run {
            labels: &self.ins_labels,
            rows: &[],
            value_ids: &self.ins_value_ids,
            row_base: self.base_rows,
        }
    }

    fn sp_positions(&self, i: usize) -> Range<usize> {
        let lo = if i == 0 { 0 } else { self.sp_ends[i - 1] as usize };
        lo..self.sp_ends[i] as usize
    }

    fn sd_positions(&self, i: usize) -> Range<usize> {
        let lo = if i == 0 { 0 } else { self.sd_ends[i - 1] as usize };
        lo..self.sd_ends[i] as usize
    }

    fn sp_run_at_positions(&self, r: Range<usize>) -> Run<'_> {
        Run {
            labels: &self.sp_labels[r.clone()],
            rows: &self.sp_rows[r.clone()],
            value_ids: &self.sp_values[r],
            row_base: 0,
        }
    }

    /// SP run of inserted tuples with plabel `p` (possibly empty).
    pub(crate) fn sp_run(&self, p: u128) -> Run<'_> {
        match self.sp_keys.binary_search(&p) {
            Ok(i) => self.sp_run_at_positions(self.sp_positions(i)),
            Err(_) => Run::EMPTY,
        }
    }

    /// Indices into the SP key directory with plabel in `[p1, p2]`.
    pub(crate) fn sp_key_span(&self, p1: u128, p2: u128) -> Range<usize> {
        let from = self.sp_keys.partition_point(|&k| k < p1);
        let to = self.sp_keys.partition_point(|&k| k <= p2);
        from..to
    }

    /// Key of SP directory entry `i`.
    pub(crate) fn sp_key(&self, i: usize) -> u128 {
        self.sp_keys[i]
    }

    /// Entries in the SP key directory (distinct inserted P-labels).
    pub(crate) fn sp_key_count(&self) -> usize {
        self.sp_keys.len()
    }

    /// SP run of directory entry `i`.
    pub(crate) fn sp_run_at(&self, i: usize) -> Run<'_> {
        self.sp_run_at_positions(self.sp_positions(i))
    }

    /// Inserted tuples with plabel in `[p1, p2]`.
    pub(crate) fn sp_size_range(&self, p1: u128, p2: u128) -> usize {
        let span = self.sp_key_span(p1, p2);
        if span.is_empty() {
            return 0;
        }
        let lo = self.sp_positions(span.start).start;
        let hi = self.sp_positions(span.end - 1).end;
        hi - lo
    }

    /// SD run of inserted tuples with tag `t` (possibly empty).
    pub(crate) fn sd_run(&self, t: TagId) -> Run<'_> {
        match self.sd_keys.binary_search(&t.0) {
            Ok(i) => {
                let r = self.sd_positions(i);
                Run {
                    labels: &self.sd_labels[r.clone()],
                    rows: &self.sd_rows[r.clone()],
                    value_ids: &self.sd_values[r],
                    row_base: 0,
                }
            }
            Err(_) => Run::EMPTY,
        }
    }

    /// Sorted starts of all tombstoned base rows.
    pub(crate) fn del_starts(&self) -> &[u32] {
        &self.del_starts
    }

    /// All tombstoned base rows, ascending.
    pub(crate) fn del_rows(&self) -> &[u32] {
        &self.del_rows
    }

    /// Tombstoned `(plabel, start)` pairs with plabel exactly `p`.
    pub(crate) fn dels_for_plabel(&self, p: u128) -> &[(u128, u32)] {
        let from = self.del_sp.partition_point(|&(k, _)| k < p);
        let to = self.del_sp.partition_point(|&(k, _)| k <= p);
        &self.del_sp[from..to]
    }

    /// Tombstoned `(plabel, start)` pairs with plabel in `[p1, p2]`.
    pub(crate) fn dels_in_plabel_range(&self, p1: u128, p2: u128) -> &[(u128, u32)] {
        let from = self.del_sp.partition_point(|&(k, _)| k < p1);
        let to = self.del_sp.partition_point(|&(k, _)| k <= p2);
        &self.del_sp[from..to]
    }

    /// Tombstoned `(tag, start)` pairs with tag exactly `t`.
    pub(crate) fn dels_for_tag(&self, t: TagId) -> &[(u32, u32)] {
        let from = self.del_sd.partition_point(|&(k, _)| k < t.0);
        let to = self.del_sd.partition_point(|&(k, _)| k <= t.0);
        &self.del_sd[from..to]
    }

    /// True when base row `row` is tombstoned.
    pub(crate) fn is_deleted_row(&self, row: u32) -> bool {
        self.del_rows.binary_search(&row).is_ok()
    }

    /// Global row of the inserted tuple with start `start`, if any.
    pub(crate) fn row_of_start(&self, start: u32) -> Option<u32> {
        self.ins_labels
            .binary_search_by_key(&start, |l| l.start)
            .ok()
            .map(|i| self.base_rows + i as u32)
    }

    /// Resolve a delta-range global value id to its string.
    pub(crate) fn value(&self, global: u32) -> Option<&str> {
        let local = global.checked_sub(self.base_values + 1)? as usize;
        self.values.get(local).map(String::as_str)
    }

    /// Global id of `s`, if the delta interned it.
    pub(crate) fn value_id(&self, s: &str) -> Option<u32> {
        self.values_sorted
            .binary_search_by(|&i| self.values[i as usize].as_str().cmp(s))
            .ok()
            .map(|pos| self.base_values + 1 + self.values_sorted[pos])
    }

    /// Distinct strings interned by the delta (beyond the base).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Global ids of the delta-interned strings, in string order.
    pub(crate) fn value_ids_sorted(&self) -> impl Iterator<Item = u32> + '_ {
        self.values_sorted.iter().map(|&local| self.base_values + 1 + local)
    }

    /// Does any edit touch SD key `t`?
    pub(crate) fn touches_tag(&self, t: TagId) -> bool {
        self.sd_keys.binary_search(&t.0).is_ok() || !self.dels_for_tag(t).is_empty()
    }

    /// Does any edit touch an SP key in `[p1, p2]`?
    pub(crate) fn touches_plabel_range(&self, p1: u128, p2: u128) -> bool {
        !self.sp_key_span(p1, p2).is_empty() || !self.dels_in_plabel_range(p1, p2).is_empty()
    }
}

// ---------------------------------------------------------------------------
// Sidecar serialization: a delta travels next to its base snapshot as
// a small checksummed log of `DeltaEdits`, replayed on open. Layout
// (all little-endian): magic, version, counts, inline records,
// tombstoned rows, trailing fnv1a-64 of everything before it.
// ---------------------------------------------------------------------------

/// Magic bytes of the delta sidecar format.
pub const DELTA_MAGIC: &[u8; 8] = b"BLASDELT";
/// Current delta sidecar version.
pub const DELTA_VERSION: u32 = 1;

/// Serialize a mutation log for persistence next to its base snapshot.
pub fn encode_edits(edits: &DeltaEdits) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + edits.inserted.len() * 40);
    out.extend_from_slice(DELTA_MAGIC);
    out.extend_from_slice(&DELTA_VERSION.to_le_bytes());
    out.extend_from_slice(&(edits.inserted.len() as u32).to_le_bytes());
    out.extend_from_slice(&(edits.deleted_rows.len() as u32).to_le_bytes());
    out.extend_from_slice(&edits.retags.to_le_bytes());
    for rec in &edits.inserted {
        out.extend_from_slice(&rec.plabel.to_le_bytes());
        out.extend_from_slice(&rec.start.to_le_bytes());
        out.extend_from_slice(&rec.end.to_le_bytes());
        out.extend_from_slice(&u32::from(rec.level).to_le_bytes());
        out.extend_from_slice(&rec.tag.0.to_le_bytes());
        match rec.data.as_deref() {
            None => out.extend_from_slice(&u32::MAX.to_le_bytes()),
            Some(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    for &row in &edits.deleted_rows {
        out.extend_from_slice(&row.to_le_bytes());
    }
    let sum = crate::snapshot::fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let s = self.bytes.get(self.pos..end).ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("16 bytes")))
    }
}

/// Deserialize a mutation log, validating structure and checksum with
/// the same typed errors as the snapshot decoder.
pub fn decode_edits(bytes: &[u8]) -> Result<DeltaEdits, SnapshotError> {
    if bytes.len() < DELTA_MAGIC.len() + 8 {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..DELTA_MAGIC.len()] != DELTA_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if crate::snapshot::fnv1a(body) != want {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut r = Reader { bytes: body, pos: DELTA_MAGIC.len() };
    let version = r.u32()?;
    if version != DELTA_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let n_ins = r.u32()? as usize;
    let n_del = r.u32()? as usize;
    let retags = r.u32()?;
    let mut inserted = Vec::with_capacity(n_ins.min(1 << 20));
    for _ in 0..n_ins {
        let plabel = r.u128()?;
        let start = r.u32()?;
        let end = r.u32()?;
        let level = r.u32()?;
        if level > u32::from(u16::MAX) {
            return Err(SnapshotError::Corrupt("delta record level exceeds u16"));
        }
        let tag = TagId(r.u32()?);
        let data_len = r.u32()?;
        let data = if data_len == u32::MAX {
            None
        } else {
            let raw = r.take(data_len as usize)?;
            Some(std::str::from_utf8(raw).map_err(|_| SnapshotError::BadUtf8)?.to_string())
        };
        if start >= end {
            return Err(SnapshotError::Corrupt("delta record has start >= end"));
        }
        inserted.push(NodeRecord { plabel, start, end, level: level as u16, tag, data });
    }
    let mut deleted_rows = Vec::with_capacity(n_del.min(1 << 20));
    for _ in 0..n_del {
        deleted_rows.push(r.u32()?);
    }
    if r.pos != body.len() {
        return Err(SnapshotError::Corrupt("delta log has trailing bytes"));
    }
    Ok(DeltaEdits { inserted, deleted_rows, retags })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::ROW_VISITS;
    use blas_labeling::label_document;
    use blas_xml::Document;

    /// `<r>` over `groups` `<s>` groups of `<i><v>…</v>×4</i>` items:
    /// every document has depth 4 and the same 4 source paths,
    /// whatever its size.
    fn grouped(groups: usize, items: usize) -> (Document, PLabelDomain, NodeStore) {
        let item = "<i><v>1</v><v>2</v><v>3</v><v>4</v></i>";
        let src = format!("<r>{}</r>", format!("<s>{}</s>", item.repeat(items)).repeat(groups));
        let doc = Document::parse(&src).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, labels.domain, store)
    }

    /// The records of one more `<i>` item appended at unit `at` under a
    /// level-2 parent with P-label `parent`, labeled as `BlasDb` labels
    /// a fragment (Algorithm 2's incremental identity).
    fn item_fragment(doc: &Document, domain: &PLabelDomain, parent: u128, at: u32) -> Vec<NodeRecord> {
        let top = domain.base().pow(domain.digits() - 1);
        let (i, v) = (doc.tags().get("i").unwrap(), doc.tags().get("v").unwrap());
        let i_plabel = (u128::from(i.0) + 1) * top + parent / domain.base();
        let v_plabel = (u128::from(v.0) + 1) * top + i_plabel / domain.base();
        let mut out = vec![rec(i_plabel, at, at + 13, 3, i.0, None)];
        for k in 0..4 {
            let s = at + 1 + 3 * k;
            out.push(NodeRecord { plabel: v_plabel, ..rec(0, s, s + 2, 4, v.0, Some("9")) });
        }
        out
    }

    /// Live tuples of `store`, owned, in document order.
    fn live(store: &NodeStore) -> Vec<NodeRecord> {
        store.scan_all().map(|(_, r)| r.to_owned()).collect()
    }

    /// Run `f` and return how many rows it visited on this thread.
    fn visits(f: impl FnOnce()) -> u64 {
        let before = ROW_VISITS.with(|c| c.get());
        f();
        ROW_VISITS.with(|c| c.get()) - before
    }

    /// Recompute every P-label of `recs` (document order) from the
    /// tags on the path above it: the oracle the incremental retag
    /// arithmetic is checked against.
    fn relabel(recs: &mut [NodeRecord], domain: &PLabelDomain) {
        let mut path: Vec<TagId> = Vec::new();
        for r in recs {
            path.truncate(usize::from(r.level) - 1);
            path.push(r.tag);
            r.plabel = domain.plabel_of_path(&path).unwrap();
        }
    }

    /// The script both tests run: insert an item under the last `<s>`,
    /// retag the first base item, delete the second base item, then
    /// retag and delete the freshly inserted (pending) item — each
    /// committed before the next. Returns the rows each of the five
    /// mutations visited, the final layered store and its log, and
    /// what a from-scratch edit of the tuple list says the result is.
    fn run_script(groups: usize, items: usize) -> ([u64; 5], NodeStore, DeltaEdits, Vec<NodeRecord>) {
        let (doc, domain, base) = grouped(groups, items);
        let s_tag = doc.tags().get("s").unwrap();
        let mut log = DeltaEdits::new();
        let mut store = base.clone();
        let mut oracle = live(&base);
        let mut cost = [0u64; 5];

        // Insert: the last <s> closes one unit before the root does.
        let root_end = oracle[0].end;
        let parent = oracle.iter().rfind(|r| r.level == 2).unwrap().clone();
        assert_eq!(parent.end + 1, root_end);
        let frag = item_fragment(&doc, &domain, parent.plabel, parent.end);
        let row = store.row_of_start(parent.start).unwrap();
        cost[0] = visits(|| log.insert_under(&store, &domain, row, 14, frag.clone()).unwrap());
        store = base.apply_edits(&log).unwrap();
        for r in oracle.iter_mut().filter(|r| r.start <= parent.start && r.end >= parent.end) {
            r.end += 14;
        }
        oracle.extend(frag);

        // Units: r=0, s=1, first item [2, 15], second item [16, 29].
        for (slot, start, delete) in
            [(1, 2, false), (2, 16, true), (3, parent.end, false), (4, parent.end, true)]
        {
            let (row, top) = store.get_by_start(start).map(|(row, r)| (row, r.to_owned())).unwrap();
            assert_eq!(doc.tags().name(top.tag), if slot == 4 { "s" } else { "i" });
            cost[slot] = visits(|| {
                if delete {
                    log.delete_subtree(&store, row);
                } else {
                    log.retag_subtree(&store, &domain, row, s_tag);
                }
            });
            store = base.apply_edits(&log).unwrap();
            if delete {
                oracle.retain(|r| r.start < top.start || r.start > top.end);
            } else {
                oracle.iter_mut().find(|r| r.start == start).unwrap().tag = s_tag;
                relabel(&mut oracle, &domain);
            }
        }
        (cost, store, log, oracle)
    }

    #[test]
    fn in_place_mutations_match_a_from_scratch_edit_and_keep_the_log_aligned() {
        let (_, store, mut log, oracle) = run_script(3, 4);
        assert_eq!(live(&store), oracle);
        // The store's indexed delta and the writer's log are the same
        // edits: recovering the log from the store round-trips, entry
        // for entry (which is what lets a rejected commit roll back).
        log.deleted_rows.sort_unstable();
        assert_eq!(store.pending_edits(), log);
        assert_eq!(log.retags, 2);
        // The seek and the path summary agree with a full scan.
        for from in [0, 1, 17, 30, 1000] {
            let seek: Vec<u32> = store.scan_from(from).map(|(_, r)| r.start).collect();
            let scan: Vec<u32> =
                oracle.iter().map(|r| r.start).filter(|&s| s >= from).collect();
            assert_eq!(seek, scan, "scan_from({from})");
        }
        let mut paths: Vec<u128> = oracle.iter().map(|r| r.plabel).collect();
        paths.sort_unstable();
        paths.dedup();
        assert_eq!(store.live_plabels(), paths);
    }

    #[test]
    fn a_mutation_visits_the_same_rows_on_a_2k_and_a_200k_node_document() {
        let (small, store, ..) = run_script(4, 100);
        assert_eq!(store.live_len(), 2005 - 5);
        let (large, store, ..) = run_script(4, 10_000);
        assert_eq!(store.live_len(), 200_005 - 5);
        // Same depth, same fragment: insert (spine probes), retag and
        // delete of a 5-node base subtree (seek + walk) and of a
        // pending one cost exactly the same whatever lies around them.
        assert_eq!(small, large);
        assert!(small.iter().all(|&v| (1..=40).contains(&v)), "{small:?}");
    }

    fn rec(plabel: u128, start: u32, end: u32, level: u16, tag: u32, data: Option<&str>) -> NodeRecord {
        NodeRecord { plabel, start, end, level, tag: TagId(tag), data: data.map(str::to_string) }
    }

    #[test]
    fn edits_roundtrip_through_the_sidecar() {
        let edits = DeltaEdits {
            inserted: vec![rec(7, 10, 13, 2, 1, Some("hi")), rec(9, 14, 15, 3, 0, None)],
            deleted_rows: vec![3, 1],
            retags: 2,
        };
        let bytes = encode_edits(&edits);
        assert_eq!(decode_edits(&bytes).unwrap(), edits);
    }

    #[test]
    fn sidecar_rejects_corruption_with_typed_errors() {
        let edits =
            DeltaEdits { inserted: vec![rec(7, 10, 13, 2, 1, Some("hi"))], deleted_rows: vec![0], retags: 0 };
        let good = encode_edits(&edits);

        assert_eq!(decode_edits(&good[..4]), Err(SnapshotError::Truncated));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(decode_edits(&bad_magic), Err(SnapshotError::BadMagic));

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(decode_edits(&flipped), Err(SnapshotError::ChecksumMismatch));

        // A truncated body fails the checksum before anything else.
        assert!(decode_edits(&good[..good.len() - 9]).is_err());
    }
}
