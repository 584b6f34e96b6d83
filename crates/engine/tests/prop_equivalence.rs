//! The central correctness property of the reproduction: every
//! translator (D-labeling baseline, Split, Push-up, Unfold) executed on
//! either engine (relational, holistic twig) returns exactly the node
//! set of the naive tree-walking evaluator, on random documents and
//! random tree queries.

use blas_engine::exec::execute;
use blas_engine::physical::{lower_plan, lower_twig, lower_twigstack};
use blas_engine::{naive, ExecStats};
use blas_labeling::label_document;
use blas_storage::NodeStore;
use blas_translate::{bind, translate_dlabeling, translate_pushup, translate_split, translate_unfold};
use blas_xml::{Document, SchemaGraph};
use blas_xpath::parse;
use proptest::prelude::*;

const TAGS: &[&str] = &["a", "b", "c", "d"];

/// Random document over a tiny tag alphabet, with occasional text.
fn xml_doc() -> impl Strategy<Value = String> {
    let leaf = (0usize..TAGS.len(), prop::option::of("[xyz]"))
        .prop_map(|(t, txt)| match txt {
            Some(s) => format!("<{0}>{s}</{0}>", TAGS[t]),
            None => format!("<{}/>", TAGS[t]),
        });
    leaf.prop_recursive(4, 60, 4, |inner| {
        (0usize..TAGS.len(), prop::collection::vec(inner, 1..4))
            .prop_map(|(t, kids)| format!("<{0}>{1}</{0}>", TAGS[t], kids.concat()))
    })
}

/// Random tree query: a spine of 1–4 steps with optional predicates and
/// value tests.
fn xpath_query() -> impl Strategy<Value = String> {
    let step = (
        prop::bool::ANY,                       // descendant axis?
        0usize..=TAGS.len(),                   // tag (== len ⇒ wildcard)
        prop::option::of((0usize..TAGS.len(), prop::bool::ANY)), // predicate (tag, deep?)
        prop::option::of("[xyz]"),             // value test
    );
    prop::collection::vec(step, 1..4).prop_map(|steps| {
        let mut out = String::new();
        let last = steps.len() - 1;
        for (i, (deep, tag, pred, value)) in steps.into_iter().enumerate() {
            out.push_str(if deep { "//" } else { "/" });
            out.push_str(TAGS.get(tag).copied().unwrap_or("*"));
            if let Some((ptag, pdeep)) = pred {
                out.push('[');
                if pdeep {
                    out.push_str("//");
                }
                out.push_str(TAGS[ptag]);
                out.push(']');
            }
            if i == last {
                if let Some(v) = value {
                    out.push_str(&format!("='{v}'"));
                }
            }
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn all_strategies_and_engines_agree_with_naive(src in xml_doc(), qsrc in xpath_query()) {
        let doc = Document::parse(&src).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        let schema = SchemaGraph::infer(&doc);
        let q = parse(&qsrc).unwrap();

        // Ground truth: start positions of matching nodes.
        let mut expected: Vec<u32> = naive::evaluate(&q, &doc)
            .into_iter()
            .map(|n| labels.dlabels[n.index()].start)
            .collect();
        expected.sort_unstable();

        // Split/Push-up may legitimately reject some wildcard forms
        // (descendant-axis wildcards need schema information).
        let mut plans = vec![
            ("dlabel", translate_dlabeling(&q).unwrap()),
            ("unfold", translate_unfold(&q, &schema).unwrap()),
        ];
        if let Ok(p) = translate_split(&q) {
            plans.push(("split", p));
        }
        if let Ok(p) = translate_pushup(&q) {
            plans.push(("pushup", p));
        }
        let live = store.live_plabels();
        for (name, plan) in &plans {
            let bound = bind(plan, doc.tags(), &labels.domain, &live);
            let mut stats = ExecStats::default();
            let got: Vec<u32> = execute(&lower_plan(&bound), &store, &mut stats)
                .into_iter()
                .map(|l| l.start)
                .collect();
            prop_assert_eq!(&got, &expected, "rdbms/{} on {} over {}", name, qsrc, src);

            // Twig engines: one twig per union arm.
            for (engine, pplan) in [("twig", lower_twig(&bound)), ("twigstack", lower_twigstack(&bound))] {
                let got: Vec<u32> = execute(&pplan, &store, &mut ExecStats::default())
                    .into_iter()
                    .map(|l| l.start)
                    .collect();
                prop_assert_eq!(&got, &expected, "{}/{} on {} over {}", engine, name, qsrc, src);
            }
        }
    }

    /// Execution is thread-agnostic: for random plans over random
    /// stores, each lowering (relational tree, twig semi-join DAG,
    /// holistic TwigStack) run on another thread — how a server's
    /// worker runs a binary request — returns byte-identical results
    /// and an identical `ExecStats`, every field but the wall clock, to
    /// the calling thread.
    #[test]
    fn execution_on_another_thread_matches_the_calling_thread(src in xml_doc(), qsrc in xpath_query()) {
        let doc = Document::parse(&src).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        let schema = SchemaGraph::infer(&doc);
        let q = parse(&qsrc).unwrap();

        let mut plans = vec![
            ("dlabel", translate_dlabeling(&q).unwrap()),
            ("unfold", translate_unfold(&q, &schema).unwrap()),
        ];
        if let Ok(p) = translate_pushup(&q) {
            plans.push(("pushup", p));
        }
        let untimed = |stats: ExecStats| ExecStats { elapsed: Default::default(), ..stats };
        let live = store.live_plabels();
        for (name, plan) in &plans {
            let bound = bind(plan, doc.tags(), &labels.domain, &live);
            let phys =
                [("rdbms", lower_plan(&bound)), ("twig", lower_twig(&bound)), ("twigstack", lower_twigstack(&bound))];
            for (engine, pplan) in phys {
                let mut seq_stats = ExecStats::default();
                let seq = execute(&pplan, &store, &mut seq_stats);
                let (par, par_stats) = std::thread::scope(|s| {
                    s.spawn(|| {
                        let mut stats = ExecStats::default();
                        (execute(&pplan, &store, &mut stats), stats)
                    })
                    .join()
                    .unwrap()
                });
                prop_assert_eq!(&par, &seq, "{}/{} on {} over {}", engine, name, qsrc, src);
                prop_assert_eq!(
                    untimed(par_stats), untimed(seq_stats),
                    "stats must not depend on the thread: {}/{} on {} over {}",
                    engine, name, qsrc, src
                );
            }
        }
    }

    /// §4.2 claim: the baseline performs `l−1` D-joins; Split and
    /// Push-up perform at most `b + d`.
    #[test]
    fn join_count_bounds(qsrc in xpath_query()) {
        let q = parse(&qsrc).unwrap();
        // Wildcards change the join accounting; the §4.2 bound is
        // stated for wildcard-free tree queries.
        if q.node_ids().any(|n| q.node(n).test == blas_xpath::NodeTest::Wildcard) {
            return Ok(());
        }
        let l = q.step_count() as u32;
        let baseline = translate_dlabeling(&q).unwrap().summary();
        prop_assert_eq!(baseline.d_joins, l - 1);

        // b = non-descendant branch edges at branching points,
        // d = descendant-axis steps (the leading // is a cut only if the
        // paper counts it; it is not — a leading // is part of the
        // suffix path).
        let mut b = 0u32;
        let mut d = 0u32;
        for id in q.node_ids() {
            if id != q.root() && q.node(id).axis == blas_xpath::Axis::Descendant {
                d += 1;
            }
            if q.is_branching(id) {
                b += q
                    .node(id)
                    .children
                    .iter()
                    .filter(|&&c| q.node(c).axis == blas_xpath::Axis::Child)
                    .count() as u32;
            }
        }
        for translate in [translate_split, translate_pushup] {
            let Ok(plan) = translate(&q) else { return Ok(()) };
            let s = plan.summary();
            prop_assert!(s.d_joins <= b + d, "{} joins vs b+d={} for {}", s.d_joins, b + d, qsrc);
            prop_assert!(s.d_joins < l.max(2), "always fewer than baseline steps");
        }
    }
}
