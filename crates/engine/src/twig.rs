//! The holistic twig-join engine (§5.3): stack-based matching over
//! label streams, in the spirit of TwigStack (Bruno et al., SIGMOD'02).
//!
//! Each union-free arm of a bound plan converts into a *twig query*: one
//! node per selection, one edge per D-join, each edge optionally
//! carrying an exact level offset. Each twig node draws its elements
//! from a start-sorted **stream** — a tag stream for the D-labeling
//! baseline, a P-label interval-set stream for BLAS plans; this
//! stream-size difference is precisely what Figs. 14–18 measure. The
//! paper's prototype ran no unions, so §5.3.1 leaves Unfold out of the
//! twig experiments; here an Unfold plan's rewritings are simply
//! several twig queries, lowered arm by arm under one union, so the
//! twig engines take Unfold like the relational engine does.
//!
//! Matching runs two stack-based merge passes over the streams
//! (bottom-up satisfaction, then top-down reachability), which computes
//! the exact set of output-node bindings that participate in a twig
//! match. Compared to the TwigStack prototype the paper borrowed, we
//! compute the output-binding set instead of enumerating full match
//! tuples — the time and elements-read metrics the paper reports are
//! preserved (each stream is still scanned once per incident edge with
//! O(depth) stack work per element); see ARCHITECTURE.md, "Where this
//! departs from the paper".
//!
//! Since the physical-plan refactor this module owns no execution
//! loop: [`TwigQuery`] is a *lowering strategy*. `crate::physical`'s
//! [`lower_twig`] turns it into a DAG of shared [`PhysOp::ClusteredScan`]
//! streams and [`PhysOp::StructuralJoin`] semi-joins — the two stack
//! passes made explicit — which the one executor in [`crate::exec`]
//! runs, scans and semi-join passes alike, on the calling thread.
//!
//! [`PhysOp::ClusteredScan`]: crate::physical::PhysOp::ClusteredScan
//! [`PhysOp::StructuralJoin`]: crate::physical::PhysOp::StructuralJoin

use crate::exec;
use crate::physical::lower_twig;
use crate::stats::ExecStats;
use blas_labeling::DLabel;
use blas_storage::NodeStore;
use blas_translate::{BoundPlan, BoundSelection, BoundSource, Side};

/// One node of a twig query.
#[derive(Debug, Clone)]
pub struct TwigNode {
    /// Stream source (tag stream or P-label interval-set stream).
    pub source: BoundSource,
    /// Optional `data =` stream filter.
    pub value_eq: Option<String>,
    /// Optional exact-level stream filter (baseline root anchoring).
    pub level_eq: Option<u16>,
    /// Parent node, `None` for the twig root.
    pub parent: Option<usize>,
    /// Exact level offset below the parent (`None` = any descendant).
    pub level_diff: Option<u16>,
    /// Children in plan order.
    pub children: Vec<usize>,
}

/// A twig query: tree of stream nodes plus the output node.
#[derive(Debug, Clone)]
pub struct TwigQuery {
    /// Nodes; `root` and `children` index into this arena.
    pub nodes: Vec<TwigNode>,
    /// The twig root.
    pub root: usize,
    /// The node whose bindings the query returns.
    pub output: usize,
}

impl TwigQuery {
    /// Convert a bound plan into one twig query per union arm
    /// ([`BoundPlan::arms`]): a union-free plan is one twig, an empty
    /// union none.
    ///
    /// # Panics
    ///
    /// On a union nested under a join, which no translator emits.
    pub fn from_plan(plan: &BoundPlan) -> Vec<Self> {
        plan.arms()
            .iter()
            .map(|arm| {
                let mut nodes = Vec::new();
                let conv = conv(arm, &mut nodes);
                TwigQuery { nodes, root: conv.root, output: conv.rep }
            })
            .collect()
    }

    /// Number of twig edges (the joins the holistic pass performs).
    pub fn edge_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Execute against a store: lower into the shared physical-plan
    /// executor — one clustered-scan stream per node, then the two
    /// stack passes as an explicit semi-join DAG.
    pub fn execute(&self, store: &NodeStore, stats: &mut ExecStats) -> Vec<DLabel> {
        exec::execute(&lower_twig(std::slice::from_ref(self)), store, stats)
    }
}

struct Conv {
    root: usize,
    rep: usize,
    /// Depth of `rep` below `root` in child steps, when exactly known.
    rep_depth: Option<u16>,
}

fn conv(plan: &BoundPlan, nodes: &mut Vec<TwigNode>) -> Conv {
    match plan {
        BoundPlan::Select(BoundSelection { source, value_eq, level_eq }) => {
            let id = nodes.len();
            nodes.push(TwigNode {
                source: source.clone(),
                value_eq: value_eq.clone(),
                level_eq: *level_eq,
                parent: None,
                level_diff: None,
                children: Vec::new(),
            });
            Conv { root: id, rep: id, rep_depth: Some(0) }
        }
        BoundPlan::DJoin { anc, desc, level_diff, output } => {
            let a = conv(anc, nodes);
            let d = conv(desc, nodes);
            // The join constrains anc.rep vs desc.rep at offset k; the
            // twig edge runs anc.rep → desc.root, so subtract the
            // depth of desc.rep below its own root.
            let edge = match (level_diff, d.rep_depth) {
                (Some(k), Some(dd)) => {
                    debug_assert!(*k > dd, "representative below its twig root");
                    Some(k - dd)
                }
                _ => None,
            };
            nodes[d.root].parent = Some(a.rep);
            nodes[d.root].level_diff = edge;
            nodes[a.rep].children.push(d.root);
            let (rep, rep_depth) = match output {
                Side::Anc => (a.rep, a.rep_depth),
                Side::Desc => (
                    d.rep,
                    match (a.rep_depth, level_diff) {
                        (Some(ad), Some(k)) => Some(ad + k),
                        _ => None,
                    },
                ),
            };
            Conv { root: a.root, rep, rep_depth }
        }
        BoundPlan::Union(_) => unreachable!("nested unions are not produced by the translators"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::PhysOp;
    use crate::rdbms::execute_plan;
    use blas_labeling::label_document;
    use blas_storage::NodeStore;
    use blas_translate::{bind, translate_dlabeling, translate_pushup, translate_split, translate_unfold};
    use blas_xml::{Document, SchemaGraph};
    use blas_xpath::parse;

    const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>2001</y><t>T1</t></f></r></e>",
        "<e><p><c><s>hb</s></c></p><r><f><a>Smith</a><y>1999</y><t>T2</t></f></r></e>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>1999</y><t>T3</t></f></r></e>",
        "</db>"
    );

    fn fixture() -> (Document, NodeStore, blas_labeling::PLabelDomain) {
        let doc = Document::parse(SAMPLE).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store, labels.domain)
    }

    #[test]
    fn twig_engine_matches_rdbms_engine() {
        let (doc, store, dom) = fixture();
        let queries = [
            "/db/e/r/f/t",
            "//f/t",
            "/db/e//s",
            "/db/e[p//s]/r/f/t",
            "/db/e[p//s='cyt']/r/f[y='2001']/t",
            "/db/e[r/f/a='Evans' and r/f/y='1999']/p/c/s",
        ];
        for src in queries {
            let q = parse(src).unwrap();
            for (name, plan) in [
                ("dlabel", translate_dlabeling(&q).unwrap()),
                ("split", translate_split(&q).unwrap()),
                ("pushup", translate_pushup(&q).unwrap()),
            ] {
                let bound = bind(&plan, doc.tags(), &dom, &[]);
                let mut rs = ExecStats::default();
                let rdbms_out = execute_plan(&bound, &store, &mut rs);
                let twig = TwigQuery::from_plan(&bound).remove(0);
                let mut ts = ExecStats::default();
                let twig_out = twig.execute(&store, &mut ts);
                assert_eq!(rdbms_out, twig_out, "{src} ({name})");
                assert_eq!(
                    rs.elements_visited, ts.elements_visited,
                    "both engines read the same tuples: {src} ({name})"
                );
            }
        }
    }

    #[test]
    fn union_plans_lower_arm_by_arm() {
        let (doc, store, dom) = fixture();
        let schema = SchemaGraph::infer(&doc);
        // The branch `*` unfolds through e/p and e/r: two rewritings.
        let q = parse("/db/e[*]/r/f/t").unwrap();
        let plan = translate_unfold(&q, &schema).unwrap();
        let bound = bind(&plan, doc.tags(), &dom, &store.live_plabels());
        let arms = TwigQuery::from_plan(&bound);
        assert_eq!(arms.len(), 2);
        let mut rs = ExecStats::default();
        let expected = execute_plan(&bound, &store, &mut rs);
        assert_eq!(expected.len(), 3);
        for phys in [lower_twig(&arms), crate::physical::lower_twigstack(&arms)] {
            let unions = phys.ops().iter().filter(|o| matches!(o, PhysOp::Union { .. })).count();
            assert_eq!(unions, 1, "one union over the arms");
            let out = exec::execute(&phys, &store, &mut ExecStats::default());
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn twig_structure_from_plan() {
        let (doc, _, dom) = fixture();
        let q = parse("/db/e[p]/r/f").unwrap();
        let plan = translate_pushup(&q).unwrap();
        let bound = bind(&plan, doc.tags(), &dom, &[]);
        let twig = TwigQuery::from_plan(&bound).remove(0);
        // Nodes: /db/e, /db/e/p, /db/e/r/f.
        assert_eq!(twig.nodes.len(), 3);
        assert_eq!(twig.edge_count(), 2);
        let root = &twig.nodes[twig.root];
        assert_eq!(root.children.len(), 2);
        // Edge offsets: p is 1 below e; f is 2 below e.
        let offsets: Vec<Option<u16>> = root
            .children
            .iter()
            .map(|&c| twig.nodes[c].level_diff)
            .collect();
        assert_eq!(offsets, [Some(1), Some(2)]);
        // Output is the f node.
        assert_eq!(twig.output, root.children[1]);
    }

    #[test]
    fn stream_sizes_drive_visited_counts() {
        let (doc, store, dom) = fixture();
        let q = parse("/db/e/r/f/y").unwrap();
        let d = bind(&translate_dlabeling(&q).unwrap(), doc.tags(), &dom, &[]);
        let p = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom, &[]);
        let mut ds = ExecStats::default();
        TwigQuery::from_plan(&d).remove(0).execute(&store, &mut ds);
        let mut ps = ExecStats::default();
        TwigQuery::from_plan(&p).remove(0).execute(&store, &mut ps);
        // Baseline reads db(1)+e(3)+r(3)+f(3)+y(3)=13; push-up reads 3.
        assert_eq!(ds.elements_visited, 13);
        assert_eq!(ps.elements_visited, 3);
    }

    #[test]
    fn post_order_children_first() {
        let (doc, _, dom) = fixture();
        let q = parse("/db/e[p][r]/r/f").unwrap();
        let bound = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom, &[]);
        let twig = TwigQuery::from_plan(&bound).remove(0);
        // The lowering orders the bottom-up joins by the pattern's
        // post order: children always precede their parents.
        let order = crate::physical::TwigPattern::from_query(&twig).post_order();
        for (pos, &q_) in order.iter().enumerate() {
            for &c in &twig.nodes[q_].children {
                assert!(order.iter().position(|&x| x == c).unwrap() < pos);
            }
        }
    }
}
