//! The cost model behind `EngineChoice::Auto`'s engine race.
//!
//! `blas::BlasDb` translates and binds a query once (Unfold). A plan
//! without a join is one clustered scan and is lowered once,
//! relationally. A plan with joins is also lowered for the twig engine,
//! each twig node's children ordered by [`order_twig_joins`], and
//! [`estimate_plan`] prices both lowerings with [`CostModel`]'s
//! ns/element rates over exact scan cardinalities read off the SP/SD
//! run directories ([`source_cardinality`]); the cheaper runs, and a tie
//! keeps the relational plan. TwigStack is not a candidate: it is the
//! paper's Fig. 14 baseline, reachable only by name.
//!
//! The race stays on measurement rather than on its picks: over 4 328
//! generated twigs it kept the relational plan every time, yet the
//! ordered twig lowering ran more than 10 % faster on 25 of them
//! (ARCHITECTURE.md, "`Auto` and the plan cache"). The alternative it
//! prices has a measured reason to exist; these rates do not yet find
//! it.

use crate::physical::{PhysOp, PhysPlan};
use crate::twig::TwigQuery;
use blas_storage::NodeStore;
use blas_translate::{BoundSource, Side};

/// Exact cardinality of a clustered scan, answered in O(log n) from
/// the SP/SD run directories (two binary searches per interval). This is
/// the optimizer's only statistics source — the physical clustering
/// the paper builds for scan speed doubles as a perfect leaf-level
/// histogram.
pub fn source_cardinality(store: &NodeStore, source: &BoundSource) -> usize {
    match source {
        BoundSource::PLabels(intervals) => store.plabels_size(intervals),
        BoundSource::Tag(t) => store.tag_size(*t),
        BoundSource::All => store.live_len(),
        BoundSource::Empty => 0,
    }
}

/// Per-operator cost rates (ns/element) and selectivity guesses.
///
/// The rates come from the measured kernel and engine rows of
/// `BENCH_storage.json` at Auction ×10 (see each field); they only
/// need to *rank* plans, not predict wall-clock, so rough blends are
/// fine — the decisive gap (twigstack vs everything else) is orders of
/// magnitude wide.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Clustered-scan streaming rate. Measured: raw columns ~0.27
    /// ns/elem, packed v3 ~0.55 ns/elem; we blend since the optimizer
    /// does not know the encoding per run.
    pub scan_ns_per_elem: f64,
    /// `data = 'v'` filtering during a scan (value-id resolution
    /// amortizes; the per-element compare dominates).
    pub value_filter_ns_per_elem: f64,
    /// `level = k` filtering (one integer compare).
    pub level_filter_ns_per_elem: f64,
    /// Copying labels into an owned buffer (materialization).
    pub copy_ns_per_elem: f64,
    /// The structural-join merge over both inputs. Measured:
    /// 66 µs / 40 800 elements ≈ 1.6 ns/elem.
    pub join_ns_per_elem: f64,
    /// Duplicate-free union merge over all inputs.
    pub union_ns_per_elem: f64,
    /// The literal TwigStack match, per stream element. Measured
    /// 300–600 ns/elem on the Fig. 10 suite (O(depth) stack work per
    /// element) — the constant that makes guessing wrong cost 180×.
    pub twigstack_ns_per_elem: f64,
    /// Fixed per-operator overhead (buffer checkout, dispatch).
    pub op_overhead_ns: f64,
    /// Fraction of a stream surviving a `data = 'v'` filter.
    pub value_selectivity: f64,
    /// Fraction surviving an exact-level filter.
    pub level_selectivity: f64,
    /// Fraction of the kept side surviving a structural semi-join.
    pub join_selectivity: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scan_ns_per_elem: 0.45,
            value_filter_ns_per_elem: 4.0,
            level_filter_ns_per_elem: 0.6,
            copy_ns_per_elem: 0.6,
            join_ns_per_elem: 1.7,
            union_ns_per_elem: 1.2,
            twigstack_ns_per_elem: 400.0,
            op_overhead_ns: 250.0,
            value_selectivity: 0.1,
            level_selectivity: 0.3,
            join_selectivity: 0.6,
        }
    }
}

/// What [`estimate_plan`] computes for a candidate plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEstimate {
    /// Total estimated execution cost (ns).
    pub cost_ns: f64,
    /// Estimated result cardinality.
    pub result_card: f64,
}

/// Walk a physical plan once, in execution order, pricing every
/// operator with [`CostModel`] rates over cardinalities estimated from
/// the run directories and propagated selectivities.
pub fn estimate_plan(plan: &PhysPlan, store: &NodeStore, model: &CostModel) -> PlanEstimate {
    let ops = plan.ops();
    let mut card = vec![0.0f64; ops.len()];
    let mut cost = 0.0f64;
    for (id, op) in ops.iter().enumerate() {
        cost += model.op_overhead_ns;
        card[id] = match op {
            PhysOp::ClusteredScan { source, value_eq, level_eq } => {
                let n = source_cardinality(store, source) as f64;
                let (mut filter, mut sel) = (0.0, 1.0);
                if value_eq.is_some() {
                    filter += n * model.value_filter_ns_per_elem;
                    sel *= model.value_selectivity;
                }
                if level_eq.is_some() {
                    filter += n * model.level_filter_ns_per_elem;
                    sel *= model.level_selectivity;
                }
                cost += n * model.scan_ns_per_elem;
                cost += filter;
                n * sel
            }
            PhysOp::StructuralJoin { anc, desc, keep, .. } => {
                let (a, d) = (card[*anc], card[*desc]);
                cost += (a + d) * model.join_ns_per_elem;
                let kept = match keep {
                    Side::Anc => a,
                    Side::Desc => d,
                };
                kept * model.join_selectivity
            }
            PhysOp::Union { inputs } => {
                // Unfolded paths are disjoint (§4.1.3): the union is a
                // k-way merge whose output is the sum of its inputs.
                let total: f64 = inputs.iter().map(|i| card[*i]).sum();
                cost += total * model.union_ns_per_elem;
                total
            }
            PhysOp::TwigStackMatch { streams, pattern } => {
                let total: f64 = streams.iter().map(|i| card[*i]).sum();
                cost += total * model.twigstack_ns_per_elem;
                card[streams[pattern.output]] * model.join_selectivity
            }
            PhysOp::Materialize { input } => {
                cost += card[*input] * model.copy_ns_per_elem;
                card[*input]
            }
        };
    }
    PlanEstimate { cost_ns: cost, result_card: card[plan.root()] }
}

/// Reorder each twig node's child joins by ascending stream
/// cardinality. The bottom-up pass of the twig lowering semi-joins a
/// parent's satisfaction stream against each child in children order;
/// those joins commute (each keeps the parents satisfying one more
/// child), so running the smallest — most selective — stream first
/// shrinks the ancestor side before the expensive children are merged.
pub fn order_twig_joins(q: &TwigQuery, store: &NodeStore) -> TwigQuery {
    let mut q = q.clone();
    let cards: Vec<usize> =
        q.nodes.iter().map(|n| source_cardinality(store, &n.source)).collect();
    for node in &mut q.nodes {
        node.children.sort_by_key(|&c| cards[c]);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{lower_plan, lower_twig, lower_twigstack};
    use blas_labeling::label_document;
    use blas_storage::NodeStore;
    use blas_translate::{bind, BoundPlan};
    use blas_xml::Document;
    use blas_xpath::parse;

    fn fixture(xml: &str) -> (Document, NodeStore) {
        let doc = Document::parse(xml).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store)
    }

    fn bound_for(doc: &Document, xpath: &str) -> BoundPlan {
        let labels = label_document(doc).unwrap();
        let q = parse(xpath).unwrap();
        let plan = blas_translate::translate_pushup(&q).unwrap();
        bind(&plan, doc.tags(), &labels.domain, &[])
    }

    const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><n>alpha</n></p><r><y>2001</y></r></e>",
        "<e><p><n>beta</n></p><r><y>1999</y></r></e>",
        "<e><p><n>gamma</n></p><r><y>2001</y></r></e>",
        "</db>"
    );

    #[test]
    fn source_cardinality_matches_store_directories() {
        let (doc, store) = fixture(SAMPLE);
        let b = bound_for(&doc, "/db/e/p/n");
        // The bound plan's leaf scan must report exactly the matching
        // nodes (three <n> elements down one path).
        let plan = lower_plan(&b);
        let scan_cards: Vec<usize> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                PhysOp::ClusteredScan { source, .. } => {
                    Some(source_cardinality(&store, source))
                }
                _ => None,
            })
            .collect();
        assert!(!scan_cards.is_empty());
        assert!(scan_cards.iter().all(|&c| c == 3), "{scan_cards:?}");
        assert_eq!(source_cardinality(&store, &BoundSource::All), store.live_len());
        assert_eq!(source_cardinality(&store, &BoundSource::Empty), 0);
    }

    #[test]
    fn twigstack_estimates_worse_than_rdbms_and_twig() {
        let (doc, store) = fixture(SAMPLE);
        let model = CostModel::default();
        let b = bound_for(&doc, "/db/e[r/y]/p/n");
        let twigq = TwigQuery::from_plan(&b);
        let rdbms = estimate_plan(&lower_plan(&b), &store, &model);
        let twig = estimate_plan(&lower_twig(&twigq), &store, &model);
        let ts = estimate_plan(&lower_twigstack(&twigq), &store, &model);
        assert!(
            rdbms.cost_ns < ts.cost_ns && twig.cost_ns < ts.cost_ns,
            "twigstack must price worst: rdbms={} twig={} twigstack={}",
            rdbms.cost_ns,
            twig.cost_ns,
            ts.cost_ns
        );
    }

    #[test]
    fn estimate_tracks_scan_extents() {
        let (doc, store) = fixture(SAMPLE);
        let b = bound_for(&doc, "/db/e[r/y]/p/n");
        let model = CostModel::default();
        let est = estimate_plan(&lower_plan(&b), &store, &model);
        // Three e, three y and three n tuples are scanned at least.
        assert!(est.cost_ns > 9.0 * model.scan_ns_per_elem);
        assert!(est.result_card > 0.0);
    }

    #[test]
    fn twig_children_ordered_by_ascending_stream_size() {
        // /db/e has two child branches: [p/n] (narrow) and [r] plus
        // the output path. Build a twig with differently sized child
        // streams and check the smallest joins first.
        let xml = concat!(
            "<db>",
            "<e><p/><r/><r/><r/></e>",
            "<e><p/><r/><r/><r/></e>",
            "</db>"
        );
        let (doc, store) = fixture(xml);
        let b = bound_for(&doc, "/db/e[p][r]");
        let q = TwigQuery::from_plan(&b).remove(0);
        let ordered = order_twig_joins(&q, &store);
        for node in &ordered.nodes {
            let sizes: Vec<usize> = node
                .children
                .iter()
                .map(|&c| source_cardinality(&store, &ordered.nodes[c].source))
                .collect();
            assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        }
        // Reordering must not lose or duplicate children.
        let mut orig: Vec<usize> = q.nodes.iter().flat_map(|n| n.children.clone()).collect();
        let mut reord: Vec<usize> =
            ordered.nodes.iter().flat_map(|n| n.children.clone()).collect();
        orig.sort_unstable();
        reord.sort_unstable();
        assert_eq!(orig, reord);
    }
}
