//! The shared physical-plan executor: one arena-order walk, start to
//! finish on the calling thread.
//!
//! One operator set executes any [`PhysPlan`] (see [`crate::physical`]
//! for the operator ↔ paper-section map); all three engines —
//! relational, holistic twig, TwigStack — funnel through
//! [`execute_with`] and differ only in how they *lower*. A selection's
//! value and level predicates run inside its [`PhysOp::ClusteredScan`]
//! (the chunked kernels of `blas_storage::scan`); no operator filters
//! another operator's output.
//!
//! # The walk
//!
//! Operators run in arena order (plan order is topological order) on
//! the calling thread. Each result parks in its slot until its last
//! consumer has read it ([`PhysPlan::consumer_counts`]), then its
//! buffer recycles through the caller's [`ExecBuffers`]; a
//! [`PhysOp::Materialize`] that is its input's last consumer moves the
//! buffer instead of copying it. No operator leaves the thread: at
//! BLAS's µs-scale plans a queue round-trip costs more than the work it
//! would overlap. Scans included: splitting one clustered scan over
//! worker threads was measured and deleted (ARCHITECTURE.md has the
//! numbers).
//!
//! # Counting
//!
//! [`count`] answers "how many?" without building the result. Every
//! linear query is one selection over a P-label interval set (a suffix
//! path one interval, an unfolded chain the runs of live keys it
//! matched, §4.1), so for those plans the SP/SD run directory already
//! holds the answer: an unfiltered scan is counted in two binary
//! searches per interval and reads no tuple, on every engine. Every
//! other plan takes the same walk as [`execute_with`] and stops before
//! the root [`PhysOp::Materialize`], whose copy a count never needs.

use crate::physical::{OpId, PhysOp, PhysPlan};
use crate::stats::ExecStats;
use crate::stjoin::{
    filter_flagged_into, is_one_level, one_level_semi_join_into, structural_match_into, union_into,
};
use crate::stream::{materialize, ExecBuffers, Labels};
use crate::twigstack;
use blas_labeling::DLabel;
use blas_storage::NodeStore;
use blas_translate::{BoundSource, Side};
use std::time::Instant;

/// Execute a physical plan, returning the root's output (start-sorted,
/// owned) and filling `stats` (counters, `result_count`, `elapsed`).
pub fn execute(plan: &PhysPlan, store: &NodeStore, stats: &mut ExecStats) -> Vec<DLabel> {
    execute_with(plan, store, stats, &mut ExecBuffers::default())
}

/// Like [`execute`], reusing caller-held scratch buffers across
/// executions (batch drivers, benches).
pub fn execute_with(
    plan: &PhysPlan,
    store: &NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Vec<DLabel> {
    let t0 = Instant::now();
    let result = walk(plan, store, stats, bufs, plan.root()).into_vec(bufs);
    stats.result_count = result.len();
    stats.elapsed = t0.elapsed();
    result
}

/// The count sink: how many nodes [`execute`] would return, without
/// building the result.
///
/// When the answer is an unfiltered [`PhysOp::ClusteredScan`], the run
/// directory's size accessors give the count — they already apply
/// delta inserts and tombstones — and no tuple is read: `stats`
/// reports `elements_visited == 0` and `d_joins == 0`. Every other
/// plan runs the same walk as [`execute`], minus the root
/// [`PhysOp::Materialize`] copy, and reports exactly the counters
/// `execute` reports. Either way `stats.result_count` is the returned
/// count.
pub fn count(plan: &PhysPlan, store: &NodeStore, stats: &mut ExecStats) -> usize {
    let t0 = Instant::now();
    let root = plan.root();
    // The operator whose output length is the answer: a root
    // Materialize only copies its input.
    let answer = match plan.op(root) {
        PhysOp::Materialize { input } if plan.consumer_counts()[root] == 0 => *input,
        _ => root,
    };
    let n = match plan.op(answer) {
        PhysOp::ClusteredScan { source, value_eq: None, level_eq: None } => {
            source_cardinality(store, source)
        }
        _ => walk(plan, store, stats, &mut ExecBuffers::default(), answer).len(),
    };
    stats.result_count = n;
    stats.elapsed = t0.elapsed();
    n
}

/// Exact cardinality of a clustered scan, answered in O(log n) from
/// the SP/SD run directories (two binary searches per interval); the
/// directories apply delta inserts and tombstones.
fn source_cardinality(store: &NodeStore, source: &BoundSource) -> usize {
    match source {
        BoundSource::PLabels(intervals) => store.plabels_size(intervals),
        BoundSource::Tag(t) => store.tag_size(*t),
        BoundSource::All => store.live_len(),
        BoundSource::Empty => 0,
    }
}

/// The one arena-order walk [`execute_with`] and [`count`] share. Runs
/// every operator — except a root that is not `answer` (the root
/// `Materialize` a count skips) — and returns `answer`'s output.
fn walk<'a>(
    plan: &PhysPlan,
    store: &'a NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
    answer: OpId,
) -> Labels<'a> {
    let n = plan.ops().len();
    // Remaining-consumer counts: a slot recycles the moment its last
    // consumer has read it (+1 on the answer so it survives the loop).
    // Seeded from the plan's memoized dependency metadata, so repeated
    // executions skip the dependency walk.
    let mut uses: Vec<usize> = plan.consumer_counts().to_vec();
    uses[answer] += 1;
    let mut results: Vec<Option<Labels<'_>>> = (0..n).map(|_| None).collect();
    for id in (0..n).filter(|&id| id != plan.root() || id == answer) {
        let out = exec_op(plan.op(id), &mut results, &mut uses, store, stats, bufs);
        results[id] = Some(out);
        plan.op(id).for_each_input(|i| release(&mut results, &mut uses, i, bufs));
    }
    let out = results[answer].take().expect("answer present");
    for r in results.into_iter().flatten() {
        bufs.recycle(r);
    }
    out
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

fn release<'a>(
    results: &mut [Option<Labels<'a>>],
    uses: &mut [usize],
    id: usize,
    bufs: &mut ExecBuffers,
) {
    uses[id] = uses[id].saturating_sub(1);
    if uses[id] == 0 {
        if let Some(l) = results[id].take() {
            bufs.recycle(l);
        }
    }
}

/// The parked result of an earlier operator.
fn input<'s, 'a>(results: &'s [Option<Labels<'a>>], id: usize) -> &'s [DLabel] {
    results[id].as_ref().expect("inputs precede consumers")
}

fn exec_op<'a>(
    op: &PhysOp,
    results: &mut [Option<Labels<'a>>],
    uses: &mut [usize],
    store: &'a NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Labels<'a> {
    match op {
        PhysOp::ClusteredScan { source, value_eq, level_eq } => {
            materialize(source, value_eq.as_deref(), *level_eq, store, stats, bufs)
        }
        PhysOp::StructuralJoin { anc, desc, level_diff, keep, tally } => {
            // Structural semi-join, keeping one side: a one-level
            // ancestor side sweeps straight into the output; one that
            // spans levels flags participants on the stack kernel.
            let (a, d) = (input(results, *anc), input(results, *desc));
            if *tally {
                stats.d_joins += 1;
                stats.join_input_tuples += (a.len() + d.len()) as u64;
            }
            let mut out = bufs.take();
            if is_one_level(a) {
                one_level_semi_join_into(a, d, *level_diff, *keep, &mut out);
            } else {
                structural_match_into(a, d, *level_diff, &mut bufs.join);
                match keep {
                    Side::Anc => filter_flagged_into(a, &bufs.join.anc, &mut out),
                    Side::Desc => filter_flagged_into(d, &bufs.join.desc, &mut out),
                }
            }
            Labels::Owned(out)
        }
        PhysOp::Union { inputs } => {
            let mut all = bufs.take();
            union_into(inputs.iter().map(|&i| input(results, i)), &mut all, &mut bufs.merge);
            Labels::Owned(all)
        }
        PhysOp::TwigStackMatch { streams, pattern } => {
            let stream_slices: Vec<&[DLabel]> =
                streams.iter().map(|&s| input(results, s)).collect();
            Labels::Owned(twigstack::run_match(pattern, &stream_slices, stats))
        }
        PhysOp::Materialize { input: inp } => {
            // Move the input when this is its last consumer; copy when
            // it is shared.
            if uses[*inp] == 1 {
                let l = results[*inp].take().expect("input present");
                Labels::Owned(l.into_vec(bufs))
            } else {
                let mut v = bufs.take();
                v.extend_from_slice(input(results, *inp));
                Labels::Owned(v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{lower_plan, lower_twig, lower_twigstack};
    use crate::twig::TwigQuery;
    use blas_labeling::{label_document, PInterval};
    use blas_translate::{
        bind, translate_dlabeling, translate_pushup, translate_split, translate_unfold, BoundPlan,
        BoundSelection, BoundSource,
    };
    use blas_xml::{Document, SchemaGraph};
    use blas_xpath::parse;

    const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>2001</y><t>T1</t></f></r></e>",
        "<e><p><c><s>hb</s></c></p><r><f><a>Smith</a><y>1999</y><t>T2</t></f></r></e>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>1999</y><t>T3</t></f></r></e>",
        "</db>"
    );

    fn fixture(src: &str) -> (Document, NodeStore, blas_labeling::PLabelDomain) {
        let doc = Document::parse(src).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store, labels.domain)
    }

    fn bound(doc: &Document, dom: &blas_labeling::PLabelDomain, xpath: &str) -> BoundPlan {
        let q = parse(xpath).unwrap();
        bind(&translate_pushup(&q).unwrap(), doc.tags(), dom, &[])
    }

    #[test]
    fn source_cardinality_matches_store_directories() {
        let (doc, store, dom) = fixture(SAMPLE);
        // The bound plan's leaf scan must report exactly the matching
        // nodes (three <s> elements down one path).
        let plan = lower_plan(&bound(&doc, &dom, "/db/e/p/c/s"));
        let scan_cards: Vec<usize> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                PhysOp::ClusteredScan { source, .. } => Some(source_cardinality(&store, source)),
                _ => None,
            })
            .collect();
        assert!(!scan_cards.is_empty());
        assert!(scan_cards.iter().all(|&c| c == 3), "{scan_cards:?}");
        assert_eq!(source_cardinality(&store, &BoundSource::All), store.live_len());
        assert_eq!(source_cardinality(&store, &BoundSource::Empty), 0);
    }

    #[test]
    fn execution_on_another_thread_equals_the_calling_thread() {
        // The executor is thread-agnostic: a plan run on another thread
        // — how a server's worker runs a binary request — returns the
        // same labels and counters as on the calling thread.
        let (doc, store, dom) = fixture(SAMPLE);
        for xpath in ["/db/e/r/f/t", "//f", "/db/e[p//s='cyt']/r/f[y='2001']/t", "//s='cyt'"] {
            let plan = lower_plan(&bound(&doc, &dom, xpath));
            let mut seq_stats = ExecStats::default();
            let seq = execute(&plan, &store, &mut seq_stats);
            let (par, mut par_stats) = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut stats = ExecStats::default();
                    (execute(&plan, &store, &mut stats), stats)
                })
                .join()
                .unwrap()
            });
            assert_eq!(par, seq, "{xpath}");
            par_stats.elapsed = seq_stats.elapsed;
            assert_eq!(par_stats, seq_stats, "{xpath}");
        }
    }

    #[test]
    fn all_lowerings_agree_on_one_executor() {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p/c/s]/r/f/t");
        let twig = TwigQuery::from_plan(&b);
        let mut s1 = ExecStats::default();
        let rdbms = execute(&lower_plan(&b), &store, &mut s1);
        let mut s2 = ExecStats::default();
        let semi = execute(&lower_twig(&twig), &store, &mut s2);
        let mut s3 = ExecStats::default();
        let holistic = execute(&lower_twigstack(&twig), &store, &mut s3);
        assert_eq!(rdbms, semi);
        assert_eq!(rdbms, holistic);
        assert_eq!(s2.elements_visited, s3.elements_visited);
    }

    #[test]
    fn union_plan_stays_duplicate_free() {
        let (doc, store, dom) = fixture(SAMPLE);
        let q = parse("//s").unwrap();
        let b = bind(&translate_split(&q).unwrap(), doc.tags(), &dom, &[]);
        let plan = lower_plan(&b);
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &mut stats);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn root_with_a_consumer_is_never_handed_over() {
        use blas_translate::BoundSource;
        // No lowering emits a root that something else consumes, but
        // PhysPlan::from_ops permits it — the walk must keep the root's
        // output alive past its consumer (the root's extra use) instead
        // of recycling it.
        let (_, store, _) = fixture(SAMPLE);
        let ops = vec![
            PhysOp::ClusteredScan { source: BoundSource::All, value_eq: None, level_eq: None },
            PhysOp::Materialize { input: 0 },
        ];
        let plan = PhysPlan::from_ops(ops, 0);
        let out = execute(&plan, &store, &mut ExecStats::default());
        assert_eq!(out.len(), store.live_len(), "the root's slot must hold its real output");
    }

    // --- The count sink ----------------------------------------------

    /// `count` ≡ `execute(..).len()`; a directory-answered count reads
    /// nothing, any other reports `execute`'s counters exactly. Returns
    /// whether the directory answered.
    fn assert_count_matches(plan: &PhysPlan, store: &NodeStore) -> bool {
        let mut q = ExecStats::default();
        let nodes = execute(plan, store, &mut q);
        let mut c = ExecStats::default();
        assert_eq!(count(plan, store, &mut c), nodes.len(), "{plan:?}");
        assert_eq!(c.result_count, nodes.len());
        let from_directory = c.elements_visited == 0 && q.elements_visited > 0;
        if from_directory {
            assert_eq!(c.d_joins, 0);
        } else {
            c.elapsed = q.elapsed;
            assert_eq!(c, q, "a walked count reports the query's counters");
        }
        from_directory
    }

    #[test]
    fn count_matches_execute_on_every_lowering_and_config() {
        let (doc, store, dom) = fixture(SAMPLE);
        let (schema, live) = (SchemaGraph::infer(&doc), store.live_plabels());
        for xpath in
            ["//f", "//s", "/db/e/r/f/t", "//s='cyt'", "/db/e[p//s='cyt']/r/f/t", "/db/e[*]/r", "//zz"]
        {
            let q = parse(xpath).unwrap();
            let mut plans = Vec::new();
            for plan in [
                translate_pushup(&q),
                translate_split(&q),
                translate_dlabeling(&q),
                translate_unfold(&q, &schema),
            ] {
                let b = bind(&plan.unwrap(), doc.tags(), &dom, &live);
                let twig = TwigQuery::from_plan(&b);
                plans.extend([lower_plan(&b), lower_twig(&twig), lower_twigstack(&twig)]);
            }
            for plan in &plans {
                assert_count_matches(plan, &store);
            }
        }
    }

    #[test]
    fn suffix_and_unfolded_paths_count_off_the_directory() {
        let (doc, store, dom) = fixture(SAMPLE);
        let (schema, live) = (SchemaGraph::infer(&doc), store.live_plabels());
        let q = parse("//f").unwrap();
        let range = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom, &[]);
        let unfolded = bind(
            &translate_unfold(&parse("/db/e//s").unwrap(), &schema).unwrap(),
            doc.tags(),
            &dom,
            &live,
        );
        for b in [&range, &unfolded] {
            assert!(matches!(
                b,
                BoundPlan::Select(BoundSelection { source: BoundSource::PLabels(..), .. })
            ));
            let twig = TwigQuery::from_plan(b);
            for plan in [lower_plan(b), lower_twig(&twig), lower_twigstack(&twig)] {
                assert!(assert_count_matches(&plan, &store), "{plan:?}");
            }
        }
        // A filtered scan walks.
        let filtered = lower_plan(&bound(&doc, &dom, "//s='cyt'"));
        assert!(!assert_count_matches(&filtered, &store));
    }

    #[test]
    fn only_unfiltered_scans_count_off_the_directory() {
        let (doc, store, _) = fixture(SAMPLE);
        let (s, f) = (doc.tags().get("s").unwrap(), doc.tags().get("f").unwrap());
        let scan = |source| PhysOp::ClusteredScan { source, value_eq: None, level_eq: None };
        let mut keys = store.live_plabels();
        keys.truncate(5);
        let one = |p: u128| PInterval { p1: p, p2: p };
        let set = BoundSource::PLabels(vec![one(keys[0]), one(keys[2]), one(keys[4])]);
        let with_root =
            |op: PhysOp| PhysPlan::from_ops(vec![op, PhysOp::Materialize { input: 0 }], 1);
        // Answered: every source kind, a multi-interval set included.
        for source in [set.clone(), BoundSource::Tag(s), BoundSource::All] {
            let plan = with_root(scan(source.clone()));
            assert!(assert_count_matches(&plan, &store), "{source:?}");
        }
        // A root that is not a Materialize (only `from_ops` builds one).
        let bare = PhysPlan::from_ops(vec![scan(BoundSource::Tag(s))], 0);
        assert!(assert_count_matches(&bare, &store));
        // Walked: a union deduplicates what a sum would count twice.
        for sources in [vec![set.clone(), set], vec![BoundSource::Tag(s), BoundSource::Tag(f)]] {
            let n = sources.len();
            let mut ops: Vec<PhysOp> = sources.into_iter().map(scan).collect();
            ops.push(PhysOp::Union { inputs: (0..n).collect() });
            ops.push(PhysOp::Materialize { input: n });
            let plan = PhysPlan::from_ops(ops, n + 1);
            assert!(!assert_count_matches(&plan, &store), "{plan:?}");
        }
    }
}
