//! The relational query engine: executes bound plans the way the
//! generated SQL of Fig. 11 runs inside an RDBMS (§5.2).
//!
//! Since the physical-plan refactor this module is a *lowering
//! strategy*, not an execution loop: [`crate::physical::lower_plan`]
//! turns the bound plan into the Fig. 11 operator shape —
//! [`PhysOp::ClusteredScan`] `σ` selections over the SP/SD
//! clusterings (with `data =` / `level =` conjuncts fused in),
//! [`PhysOp::StructuralJoin`] semi-join `⋈`s keeping the side the
//! plan projects, duplicate-free [`PhysOp::Union`]s for unfolded
//! alternatives (§4.1.3), and a final [`PhysOp::Materialize`] `π` —
//! and the shared executor in [`crate::exec`] runs it on the calling
//! thread.
//!
//! [`PhysOp::ClusteredScan`]: crate::physical::PhysOp::ClusteredScan
//! [`PhysOp::StructuralJoin`]: crate::physical::PhysOp::StructuralJoin
//! [`PhysOp::Union`]: crate::physical::PhysOp::Union
//! [`PhysOp::Materialize`]: crate::physical::PhysOp::Materialize

use crate::exec;
use crate::physical::lower_plan;
use crate::stats::ExecStats;
use crate::stream::ExecBuffers;
use blas_labeling::DLabel;
use blas_storage::NodeStore;
use blas_translate::BoundPlan;

/// Execute `plan` against `store`, returning the output bindings
/// (start-sorted, duplicate-free) and filling `stats`.
pub fn execute_plan(plan: &BoundPlan, store: &NodeStore, stats: &mut ExecStats) -> Vec<DLabel> {
    let mut bufs = ExecBuffers::default();
    execute_plan_with(plan, store, stats, &mut bufs)
}

/// Like [`execute_plan`], reusing caller-held scratch buffers across
/// executions (batch drivers, benches).
pub fn execute_plan_with(
    plan: &BoundPlan,
    store: &NodeStore,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Vec<DLabel> {
    exec::execute_with(&lower_plan(plan), store, stats, bufs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_labeling::label_document;
    use blas_storage::NodeStore;
    use blas_translate::{
        bind, translate_dlabeling, translate_pushup, translate_split, translate_unfold,
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

    struct Fixture {
        doc: Document,
        store: NodeStore,
        domain: blas_labeling::PLabelDomain,
        schema: SchemaGraph,
    }

    fn fixture() -> Fixture {
        let doc = Document::parse(SAMPLE).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        let schema = SchemaGraph::infer(&doc);
        Fixture { domain: labels.domain, doc, store, schema }
    }

    fn run(fx: &Fixture, xpath: &str, strategy: &str) -> (Vec<DLabel>, ExecStats) {
        let q = parse(xpath).unwrap();
        let plan = match strategy {
            "dlabel" => translate_dlabeling(&q).unwrap(),
            "split" => translate_split(&q).unwrap(),
            "pushup" => translate_pushup(&q).unwrap(),
            "unfold" => translate_unfold(&q, &fx.schema).unwrap(),
            _ => unreachable!(),
        };
        let bound = bind(&plan, fx.doc.tags(), &fx.domain, &fx.store.live_plabels());
        let mut stats = ExecStats::default();
        let out = execute_plan(&bound, &fx.store, &mut stats);
        (out, stats)
    }

    /// Ground truth: evaluate by brute force on the document tree.
    fn texts_of(fx: &Fixture, results: &[DLabel]) -> Vec<String> {
        let labels = label_document(&fx.doc).unwrap();
        let mut out = Vec::new();
        for id in fx.doc.node_ids() {
            let d = labels.dlabels[id.index()];
            if results.iter().any(|r| r.start == d.start) {
                out.push(
                    fx.doc
                        .node(id)
                        .text
                        .clone()
                        .unwrap_or_else(|| fx.doc.tag_name(id).to_string()),
                );
            }
        }
        out
    }

    #[test]
    fn suffix_path_all_strategies_agree() {
        let fx = fixture();
        let expected = ["T1", "T2", "T3"];
        for strat in ["dlabel", "split", "pushup", "unfold"] {
            let (out, _) = run(&fx, "/db/e/r/f/t", strat);
            assert_eq!(texts_of(&fx, &out), expected, "{strat}");
        }
    }

    #[test]
    fn twig_with_value_predicates_agree() {
        let fx = fixture();
        // Entries with superfamily 'cyt' and year '2001' → title T1.
        let q = "/db/e[p//s='cyt']/r/f[y='2001']/t";
        for strat in ["dlabel", "split", "pushup", "unfold"] {
            let (out, _) = run(&fx, q, strat);
            assert_eq!(texts_of(&fx, &out), ["T1"], "{strat}");
        }
    }

    #[test]
    fn interior_descendant_agrees() {
        let fx = fixture();
        for strat in ["dlabel", "split", "pushup", "unfold"] {
            let (out, _) = run(&fx, "/db/e//s", strat);
            assert_eq!(texts_of(&fx, &out), ["cyt", "hb", "cyt"], "{strat}");
        }
    }

    #[test]
    fn blas_reads_fewer_elements_than_dlabeling() {
        let fx = fixture();
        let (_, d) = run(&fx, "/db/e/r/f/t", "dlabel");
        let (_, p) = run(&fx, "/db/e/r/f/t", "pushup");
        assert!(d.elements_visited > p.elements_visited, "{d:?} vs {p:?}");
        assert_eq!(d.d_joins, 4); // l − 1
        assert_eq!(p.d_joins, 0); // single selection
        // Push-up reads exactly the 3 matching tuples.
        assert_eq!(p.elements_visited, 3);
    }

    #[test]
    fn unfold_replaces_joins_with_selections() {
        let fx = fixture();
        let (_, split) = run(&fx, "/db/e//s", "split");
        let (_, unfold) = run(&fx, "/db/e//s", "unfold");
        assert!(unfold.d_joins < split.d_joins);
        assert!(unfold.elements_visited <= split.elements_visited);
    }

    #[test]
    fn output_side_respected() {
        let fx = fixture();
        // Output is the ancestor side: entries having a 2001 reference.
        let (out, _) = run(&fx, "/db/e[r/f/y='2001']", "pushup");
        assert_eq!(out.len(), 1);
        // Output is the descendant side.
        let (out, _) = run(&fx, "/db/e[p]/r/f/a", "pushup");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_results() {
        let fx = fixture();
        for strat in ["dlabel", "split", "pushup", "unfold"] {
            let (out, _) = run(&fx, "/db/e/zzz", strat);
            assert!(out.is_empty(), "{strat}");
            let (out, _) = run(&fx, "/db/e[r/f/y='1850']/r/f/t", strat);
            assert!(out.is_empty(), "{strat}");
        }
    }

    #[test]
    fn results_are_start_sorted_and_unique() {
        let fx = fixture();
        let (out, _) = run(&fx, "//f", "split");
        assert!(out.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn buffer_reuse_across_executions_is_clean() {
        let fx = fixture();
        let q = parse("/db/e[p//s='cyt']/r/f/t").unwrap();
        let bound = bind(&translate_split(&q).unwrap(), fx.doc.tags(), &fx.domain, &[]);
        let mut bufs = ExecBuffers::default();
        let mut first: Option<Vec<DLabel>> = None;
        for _ in 0..3 {
            let mut stats = ExecStats::default();
            let out = execute_plan_with(&bound, &fx.store, &mut stats, &mut bufs);
            match &first {
                None => first = Some(out),
                Some(expect) => assert_eq!(&out, expect),
            }
        }
    }
}
