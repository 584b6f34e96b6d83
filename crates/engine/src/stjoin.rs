//! Structural-join kernels over start-sorted label lists (the D-join
//! primitive of §3.1 / Al-Khalifa et al.).
//!
//! Both engines reduce to this operation: given ancestor candidates `A`
//! and descendant candidates `D`, decide which elements of each side
//! participate in at least one containment pair
//! (`a.start < d.start ∧ a.end > d.end`, optionally
//! `d.level = a.level + k`). Because all labels come from one document
//! tree, intervals are well nested. Two kernels answer it:
//!
//! * [`one_level_semi_join_into`] — when every ancestor sits on one
//!   level. Same-level intervals of one tree are pairwise disjoint, so
//!   each descendant has at most one candidate ancestor: a two-pointer
//!   sweep with no stack decides it and writes the kept side straight
//!   to the output.
//! * [`structural_match_into`] — the general case, for ancestor sides
//!   that span several levels (recursive tags): one merge pass with an
//!   ancestor stack visits each element O(depth) times and flags the
//!   participants of both sides, which [`filter_flagged_into`] then
//!   copies out.
//!
//! [`is_one_level`] is the rule that picks between them; the executor
//! checks it on the ancestor input of every join.
//!
//! The kernels are allocation-free on the hot path: callers keep a
//! [`JoinScratch`] (flag vectors + ancestor stack) alive across joins
//! via [`structural_match_into`]; the [`structural_match`] wrapper
//! allocates fresh [`MatchFlags`] for one-shot use. Start-order
//! restoration after a multi-run clustered scan likewise reuses one
//! [`MergeScratch`] and ping-pongs between two buffers
//! ([`merge_segments`]) instead of allocating a `Vec` per run.

use blas_labeling::DLabel;
use blas_translate::Side;

/// Which elements of each input participate in a join pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchFlags {
    /// `anc[i]` ⇔ `a[i]` has a matching descendant.
    pub anc: Vec<bool>,
    /// `desc[j]` ⇔ `d[j]` has a matching ancestor.
    pub desc: Vec<bool>,
    /// Number of (a, d) pairs satisfying the predicate — the size of
    /// the intermediate result a pair-producing D-join would build.
    pub pairs: u64,
}

/// Reusable state for [`structural_match_into`]: the participation
/// flags of the last join plus the ancestor stack, so repeated joins
/// allocate nothing once the vectors reach steady-state capacity.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// `anc[i]` ⇔ `a[i]` has a matching descendant (last join).
    pub anc: Vec<bool>,
    /// `desc[j]` ⇔ `d[j]` has a matching ancestor (last join).
    pub desc: Vec<bool>,
    /// Join-pair count of the last join.
    pub pairs: u64,
    stack: Vec<usize>,
}

/// Run the structural join, writing participation flags into `scratch`
/// (cleared and resized; capacity is reused across calls). Inputs must
/// be sorted by `start` (document order); this is the invariant every
/// scan and operator in the engines maintains.
pub fn structural_match_into(
    a: &[DLabel],
    d: &[DLabel],
    level_diff: Option<u16>,
    scratch: &mut JoinScratch,
) {
    debug_assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
    debug_assert!(d.windows(2).all(|w| w[0].start <= w[1].start));
    scratch.anc.clear();
    scratch.anc.resize(a.len(), false);
    scratch.desc.clear();
    scratch.desc.resize(d.len(), false);
    scratch.pairs = 0;
    // Stack of indices into `a` whose intervals contain the current
    // position; nested by construction.
    let stack = &mut scratch.stack;
    stack.clear();
    let mut next_a = 0usize;
    for (j, dj) in d.iter().enumerate() {
        // Admit ancestors starting before this descendant.
        while next_a < a.len() && a[next_a].start < dj.start {
            while let Some(&top) = stack.last() {
                if a[top].end < a[next_a].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(next_a);
            next_a += 1;
        }
        // Retire ancestors that ended before this descendant.
        while let Some(&top) = stack.last() {
            if a[top].end < dj.start {
                stack.pop();
            } else {
                break;
            }
        }
        // Every remaining stack entry contains dj (well-nestedness:
        // start < dj.start and end > dj.start ⇒ end > dj.end).
        for &ai in stack.iter() {
            debug_assert!(a[ai].start < dj.start && a[ai].end > dj.end);
            let level_ok = match level_diff {
                Some(k) => a[ai].level + k == dj.level,
                None => true,
            };
            if level_ok {
                scratch.anc[ai] = true;
                scratch.desc[j] = true;
                scratch.pairs += 1;
            }
        }
    }
}

/// One-shot structural join returning freshly allocated flags (tests
/// and kernel benches; the engines use [`structural_match_into`]).
pub fn structural_match(a: &[DLabel], d: &[DLabel], level_diff: Option<u16>) -> MatchFlags {
    let mut scratch = JoinScratch::default();
    structural_match_into(a, d, level_diff, &mut scratch);
    MatchFlags { anc: scratch.anc, desc: scratch.desc, pairs: scratch.pairs }
}

/// Append the flagged elements to `out` (preserves order).
pub fn filter_flagged_into(items: &[DLabel], flags: &[bool], out: &mut Vec<DLabel>) {
    debug_assert_eq!(items.len(), flags.len());
    out.extend(
        items
            .iter()
            .zip(flags)
            .filter_map(|(item, &keep)| keep.then_some(*item)),
    );
}

/// Whether every label sits on the level of the first — the property
/// that makes a side's intervals pairwise disjoint and lets
/// [`one_level_semi_join_into`] replace the stack kernel. True for an
/// empty side.
pub fn is_one_level(labels: &[DLabel]) -> bool {
    labels.first().is_none_or(|f| labels.iter().all(|l| l.level == f.level))
}

/// The structural semi-join for an ancestor side on one level
/// ([`is_one_level`]): appends to `out` the elements of the `keep` side
/// that take part in at least one containment pair, in start order —
/// exactly what [`structural_match_into`] + [`filter_flagged_into`]
/// keep.
///
/// Same-level intervals are disjoint, so each ancestor owns the
/// descendants that start inside it and no other ancestor does: one
/// sweep over `a` moves a cursor through `d`, skipping what starts
/// before the ancestor and deciding what starts inside it. No stack,
/// no flags, no second pass.
pub fn one_level_semi_join_into(
    a: &[DLabel],
    d: &[DLabel],
    level_diff: Option<u16>,
    keep: Side,
    out: &mut Vec<DLabel>,
) {
    debug_assert!(is_one_level(a));
    debug_assert!(a.windows(2).all(|w| w[0].end < w[1].start), "one-level intervals are disjoint");
    debug_assert!(d.windows(2).all(|w| w[0].start <= w[1].start));
    let Some(first) = a.first() else {
        return;
    };
    // The level a descendant must sit on, if the join constrains it.
    let want = level_diff.map(|k| first.level + k);
    let level_ok = |l: &DLabel| want.is_none_or(|w| l.level == w);
    // The kept side bounds the output: one allocation, no regrowth.
    out.reserve(match keep {
        Side::Anc => a.len(),
        Side::Desc => d.len(),
    });
    let mut j = 0usize;
    for ai in a {
        // Skip the descendants that start before this ancestor.
        while j < d.len() && d[j].start <= ai.start {
            j += 1;
        }
        if j == d.len() {
            break;
        }
        // What starts inside `ai` (start < ai.end) is contained in it.
        match keep {
            Side::Anc => {
                while j < d.len() && d[j].start < ai.end {
                    if level_ok(&d[j]) {
                        out.push(*ai);
                        break;
                    }
                    j += 1;
                }
            }
            Side::Desc => {
                while j < d.len() && d[j].start < ai.end {
                    if level_ok(&d[j]) {
                        out.push(d[j]);
                    }
                    j += 1;
                }
            }
        }
    }
}

/// Reusable state for [`merge_segments`]: the segment boundary lists of
/// the current and next round plus the ping-pong partner buffer.
#[derive(Debug, Default)]
pub struct MergeScratch {
    /// End offset of each start-sorted segment in the buffer being
    /// merged. Callers push one entry per non-empty run.
    pub bounds: Vec<usize>,
    bounds_next: Vec<usize>,
    spare: Vec<DLabel>,
}

/// Restore global start order over a buffer holding the concatenation
/// of start-sorted segments (one per clustered run), delimited by
/// `scratch.bounds` (end offsets, ascending, last = `buf.len()`).
///
/// Merges adjacent segment pairs per round, ping-ponging between `buf`
/// and one spare buffer — two allocations total at steady state, versus
/// the per-run `Vec<Vec<DLabel>>` this replaces. The run count is the
/// number of distinct source paths in a P-label range (a handful), so
/// rounds are few and each is a sequential two-pointer merge.
pub fn merge_segments(buf: &mut Vec<DLabel>, scratch: &mut MergeScratch) {
    debug_assert!(scratch.bounds.windows(2).all(|w| w[0] < w[1]));
    debug_assert_eq!(scratch.bounds.last().copied().unwrap_or(0), buf.len());
    while scratch.bounds.len() > 1 {
        let src: &[DLabel] = buf;
        let dst = &mut scratch.spare;
        dst.clear();
        dst.reserve(src.len());
        scratch.bounds_next.clear();
        let mut seg_start = 0usize;
        let mut i = 0usize;
        while i < scratch.bounds.len() {
            let first_end = scratch.bounds[i];
            if i + 1 < scratch.bounds.len() {
                let second_end = scratch.bounds[i + 1];
                merge_two_into(&src[seg_start..first_end], &src[first_end..second_end], dst);
                seg_start = second_end;
                i += 2;
            } else {
                // Odd segment out: carried to the next round unchanged.
                dst.extend_from_slice(&src[seg_start..first_end]);
                seg_start = first_end;
                i += 1;
            }
            scratch.bounds_next.push(dst.len());
        }
        std::mem::swap(buf, &mut scratch.spare);
        std::mem::swap(&mut scratch.bounds, &mut scratch.bounds_next);
    }
    scratch.bounds.clear();
}

fn merge_two_into(a: &[DLabel], b: &[DLabel], out: &mut Vec<DLabel>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].start <= b[j].start {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Append one start-sorted segment to `buf` for [`merge_segments`]. An
/// empty segment is skipped, and one that continues the order of what
/// `buf` already holds extends the last segment instead of opening
/// another, so inputs that arrive in document order merge for free.
pub fn push_segment(buf: &mut Vec<DLabel>, seg: &[DLabel], scratch: &mut MergeScratch) {
    let Some(first) = seg.first() else {
        return;
    };
    let ordered = buf.last().is_none_or(|l| l.start <= first.start);
    buf.extend_from_slice(seg);
    match scratch.bounds.last_mut() {
        Some(b) if ordered => *b = buf.len(),
        _ => scratch.bounds.push(buf.len()),
    }
}

/// The duplicate-free union of start-sorted `parts`, appended to an
/// empty `out`: one segment merge, then adjacent equal starts (the same
/// node) collapse to one. O(n log k) for `k` parts, O(n) when they
/// arrive in document order.
pub fn union_into<'a>(
    parts: impl IntoIterator<Item = &'a [DLabel]>,
    out: &mut Vec<DLabel>,
    scratch: &mut MergeScratch,
) {
    debug_assert!(out.is_empty());
    scratch.bounds.clear();
    for part in parts {
        push_segment(out, part, scratch);
    }
    merge_segments(out, scratch);
    out.dedup_by_key(|l| l.start);
}

/// Restore start (document) order after a `(plabel, start)`-clustered
/// range scan returned as one flat buffer.
///
/// Such a scan emits one start-sorted run per distinct P-label, so the
/// input is a concatenation of a few ascending runs: detect them and
/// hand the boundaries to [`merge_segments`]. Kept as the standalone
/// entry point for callers (and the ablation bench) that do not track
/// run boundaries themselves; the engines' scan path pushes exact
/// boundaries instead of re-detecting them.
pub fn ensure_start_order(mut input: Vec<DLabel>) -> Vec<DLabel> {
    if input.windows(2).all(|w| w[0].start <= w[1].start) {
        return input;
    }
    let mut scratch = MergeScratch::default();
    for i in 1..input.len() {
        if input[i].start < input[i - 1].start {
            scratch.bounds.push(i);
        }
    }
    scratch.bounds.push(input.len());
    merge_segments(&mut input, &mut scratch);
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The union's merge ≡ concatenate, sort and deduplicate, on
        /// random start-sorted inputs that overlap each other.
        #[test]
        fn union_merge_equals_sort_and_dedup(
            parts in prop::collection::vec(prop::collection::btree_set(0u32..64, 0..24), 0..7),
        ) {
            let parts: Vec<Vec<DLabel>> = parts
                .into_iter()
                .map(|set| set.into_iter().map(|s| l(s, s + 1, 1)).collect())
                .collect();
            let mut want: Vec<DLabel> = parts.concat();
            want.sort_unstable_by_key(|l| l.start);
            want.dedup_by_key(|l| l.start);
            let mut got = Vec::new();
            let mut scratch = MergeScratch::default();
            union_into(parts.iter().map(Vec::as_slice), &mut got, &mut scratch);
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The one-level sweep keeps exactly what the stack kernel
        /// flags, on random well-nested forests: the ancestor side a
        /// random subset of one level, the descendant side a random
        /// subset of every level (so some descendants sit outside
        /// every ancestor), either side possibly empty, under every
        /// level predicate and for either kept side.
        #[test]
        fn one_level_sweep_equals_stack_kernel(
            steps in prop::collection::vec(0u8..4, 0..80),
            level_pick in 0u8..8,
            anc_mask in prop::collection::vec(any::<bool>(), 80),
            desc_mask in prop::collection::vec(any::<bool>(), 80),
            empty in 0u8..8,
            level_diff in prop::option::of(1u16..=3),
            keep_anc in any::<bool>(),
        ) {
            let nodes = forest(&steps);
            let mut levels: Vec<u16> = nodes.iter().map(|n| n.level).collect();
            levels.sort_unstable();
            levels.dedup();
            let level = levels.get(usize::from(level_pick) % levels.len().max(1)).copied();
            let a: Vec<DLabel> = nodes
                .iter()
                .zip(&anc_mask)
                .filter(|&(n, &keep)| keep && Some(n.level) == level && empty != 0)
                .map(|(n, _)| *n)
                .collect();
            let d: Vec<DLabel> = nodes
                .iter()
                .zip(&desc_mask)
                .filter(|&(_, &keep)| keep && empty != 1)
                .map(|(n, _)| *n)
                .collect();
            let keep = if keep_anc { Side::Anc } else { Side::Desc };
            prop_assert!(is_one_level(&a));
            let mut want = Vec::new();
            let mut scratch = JoinScratch::default();
            structural_match_into(&a, &d, level_diff, &mut scratch);
            match keep {
                Side::Anc => filter_flagged_into(&a, &scratch.anc, &mut want),
                Side::Desc => filter_flagged_into(&d, &scratch.desc, &mut want),
            }
            let mut got = Vec::new();
            one_level_semi_join_into(&a, &d, level_diff, keep, &mut got);
            prop_assert_eq!(got, want);
        }
    }

    fn l(start: u32, end: u32, level: u16) -> DLabel {
        DLabel { start, end, level }
    }

    /// A well-nested forest in start order: each step places the next
    /// node in preorder as a child of the previous one (0), its sibling
    /// (1) or an ancestor's sibling (2, 3), at most six levels deep.
    fn forest(steps: &[u8]) -> Vec<DLabel> {
        let mut nodes: Vec<DLabel> = Vec::new();
        let mut open: Vec<usize> = Vec::new();
        let mut clock = 0u32;
        let mut depth = 0u16;
        for &step in steps {
            depth = (depth + 1).saturating_sub(u16::from(step)).clamp(1, 6);
            while open.last().is_some_and(|&i| nodes[i].level >= depth) {
                let i = open.pop().unwrap();
                nodes[i].end = clock;
                clock += 1;
            }
            open.push(nodes.len());
            nodes.push(l(clock, 0, depth));
            clock += 1;
        }
        while let Some(i) = open.pop() {
            nodes[i].end = clock;
            clock += 1;
        }
        nodes
    }

    #[test]
    fn one_level_sweep_keeps_either_side() {
        // a0 [0,10] ⊃ d0 [2,3] (level 3), d1 [5,6] (level 2);
        // a1 [12,20] ⊃ d2 [13,14]; a2 [22,24] has no descendant;
        // d3 [25,26] sits outside every ancestor.
        let a = vec![l(0, 10, 1), l(12, 20, 1), l(22, 24, 1)];
        let d = vec![l(2, 3, 3), l(5, 6, 2), l(13, 14, 2), l(25, 26, 2)];
        let sweep = |level_diff, keep| {
            let mut out = Vec::new();
            one_level_semi_join_into(&a, &d, level_diff, keep, &mut out);
            out
        };
        assert_eq!(sweep(None, Side::Anc), [a[0], a[1]]);
        assert_eq!(sweep(None, Side::Desc), [d[0], d[1], d[2]]);
        assert_eq!(sweep(Some(1), Side::Desc), [d[1], d[2]]);
        assert_eq!(sweep(Some(2), Side::Anc), [a[0]]);
        assert!(sweep(Some(3), Side::Anc).is_empty());
    }

    #[test]
    fn one_level_rule() {
        assert!(is_one_level(&[]));
        assert!(is_one_level(&[l(0, 3, 2), l(4, 9, 2)]));
        assert!(!is_one_level(&[l(0, 9, 1), l(1, 3, 2)]));
    }

    #[test]
    fn basic_containment() {
        // a0 [0,10] contains d0 [2,3] and d1 [5,6]; a1 [12,20] contains d2 [13,14].
        let a = vec![l(0, 10, 1), l(12, 20, 1)];
        let d = vec![l(2, 3, 3), l(5, 6, 2), l(13, 14, 2), l(25, 26, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [true, true]);
        assert_eq!(f.desc, [true, true, true, false]);
        assert_eq!(f.pairs, 3);
    }

    #[test]
    fn level_constraint_filters() {
        let a = vec![l(0, 10, 1)];
        let d = vec![l(2, 3, 3), l(5, 6, 2)];
        let f = structural_match(&a, &d, Some(1));
        assert_eq!(f.anc, [true]);
        assert_eq!(f.desc, [false, true]);
        assert_eq!(f.pairs, 1);
    }

    #[test]
    fn nested_ancestors_all_match() {
        // a0 [0,20] ⊃ a1 [1,10] ⊃ d [2,3].
        let a = vec![l(0, 20, 1), l(1, 10, 2)];
        let d = vec![l(2, 3, 3)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [true, true]);
        assert_eq!(f.pairs, 2);
        // With level+1 only the inner ancestor matches.
        let f = structural_match(&a, &d, Some(1));
        assert_eq!(f.anc, [false, true]);
    }

    #[test]
    fn no_matches() {
        let a = vec![l(0, 3, 1)];
        let d = vec![l(5, 6, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [false]);
        assert_eq!(f.desc, [false]);
        assert_eq!(f.pairs, 0);
    }

    #[test]
    fn empty_inputs() {
        let f = structural_match(&[], &[l(1, 2, 1)], None);
        assert_eq!(f.desc, [false]);
        let f = structural_match(&[l(1, 4, 1)], &[], None);
        assert_eq!(f.anc, [false]);
    }

    #[test]
    fn equal_start_is_not_containment() {
        // Containment is strict: a.start < d.start.
        let a = vec![l(2, 9, 1)];
        let d = vec![l(2, 3, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.pairs, 0);
    }

    #[test]
    fn scratch_reuse_resets_state() {
        let mut scratch = JoinScratch::default();
        let a = vec![l(0, 10, 1)];
        let d = vec![l(2, 3, 2)];
        structural_match_into(&a, &d, None, &mut scratch);
        assert_eq!(scratch.anc, [true]);
        assert_eq!(scratch.pairs, 1);
        // Second join with disjoint inputs must not inherit flags.
        let a2 = vec![l(0, 1, 1), l(4, 5, 1)];
        let d2 = vec![l(7, 8, 2)];
        structural_match_into(&a2, &d2, None, &mut scratch);
        assert_eq!(scratch.anc, [false, false]);
        assert_eq!(scratch.desc, [false]);
        assert_eq!(scratch.pairs, 0);
    }

    #[test]
    fn ensure_start_order_no_op_when_sorted() {
        let v: Vec<DLabel> = (0..100).map(|i| l(i, i + 1, 1)).collect();
        assert_eq!(ensure_start_order(v.clone()), v);
        assert!(ensure_start_order(Vec::new()).is_empty());
    }

    #[test]
    fn ensure_start_order_merges_runs() {
        // Three interleaved ascending runs.
        let mut v = Vec::new();
        for run in 0..3u32 {
            for i in 0..40u32 {
                let s = i * 3 + run;
                v.push(l(s, s + 1, 2));
            }
        }
        let merged = ensure_start_order(v);
        assert_eq!(merged.len(), 120);
        assert!(merged.windows(2).all(|w| w[0].start <= w[1].start));
        let starts: Vec<u32> = merged.iter().map(|x| x.start).collect();
        assert_eq!(starts, (0..120).collect::<Vec<_>>());
    }

    #[test]
    fn ensure_start_order_handles_reverse_input() {
        let v: Vec<DLabel> = (0..50).rev().map(|i| l(i, i + 1, 1)).collect();
        let merged = ensure_start_order(v);
        assert!(merged.windows(2).all(|w| w[0].start <= w[1].start));
        assert_eq!(merged.len(), 50);
    }

    #[test]
    fn merge_segments_handles_odd_counts_and_reuse() {
        let mut scratch = MergeScratch::default();
        for rounds in 1..=5usize {
            // `rounds` interleaved segments of unequal lengths.
            let mut buf: Vec<DLabel> = Vec::new();
            scratch.bounds.clear();
            for seg in 0..rounds {
                for i in 0..(10 + seg as u32) {
                    let s = i * rounds as u32 + seg as u32;
                    buf.push(l(s, s + 1, 1));
                }
                scratch.bounds.push(buf.len());
            }
            let mut expected: Vec<u32> = buf.iter().map(|x| x.start).collect();
            expected.sort_unstable();
            merge_segments(&mut buf, &mut scratch);
            let got: Vec<u32> = buf.iter().map(|x| x.start).collect();
            assert_eq!(got, expected, "{rounds} segments");
        }
    }

    #[test]
    fn ancestors_retired_between_siblings() {
        // a0 [0,4] must be popped before d at 6; a1 [5,9] takes over.
        let a = vec![l(0, 4, 1), l(5, 9, 1)];
        let d = vec![l(1, 2, 2), l(6, 7, 2)];
        let f = structural_match(&a, &d, None);
        assert_eq!(f.anc, [true, true]);
        assert_eq!(f.desc, [true, true]);
        assert_eq!(f.pairs, 2);
    }
}
