//! The cost-based optimizer behind `EngineChoice::Auto`.
//!
//! BLAS's Fig. 11 story is plan *selection*: the same query admits
//! several compositions of selections, structural joins and unions,
//! and the measured spread between them is enormous — on the Fig. 10
//! suite the TwigStack engine is 25–180× slower than the relational
//! lowering of the very same bound plan. This module closes the loop
//! the paper leaves to the reader: it prices each candidate lowering
//! and lets the system pick.
//!
//! Three ingredients, all deliberately tiny:
//!
//! 1. **Cardinalities in O(log n)** — every leaf of a physical plan is
//!    a clustered scan whose extent the store's SP/SD run directories
//!    answer with two binary searches per interval
//!    ([`source_cardinality`]: `plabels_size` / `tag_size` / `live_len`).
//!    No histograms, no sampling: the clustering *is* the statistic.
//! 2. **A per-operator cost model** ([`CostModel`]) — ns/element rates
//!    calibrated against the measured kernel rows of
//!    `BENCH_storage.json` (Auction ×10): clustered scans stream at
//!    ~0.3–0.6 ns/elem, the structural-join merge at ~1.6 ns/elem,
//!    and the literal TwigStack match at ~300+ ns/elem (its O(depth)
//!    stack work per element is why the paper's own engines beat it).
//!    Estimated selectivities propagate cardinalities up the DAG.
//! 3. **A plan walk** ([`estimate_plan`]) — one pass over the operator
//!    arena in execution order, producing total estimated cost and the
//!    result cardinality.
//!
//! On top of the estimates sit the two decisions `EngineChoice::Auto`
//! delegates here:
//!
//! * **engine/lowering** — `blas::BlasDb` translates and binds a query
//!   once (Unfold, which every engine lowers); a plan without a join is
//!   one clustered scan and is lowered once, a plan with joins is
//!   lowered for the relational and the twig engine and the cheaper
//!   estimate runs. The literal TwigStack lowering stays
//!   priceable ([`estimate_plan`] handles its match operator) but no
//!   longer races: it prices orders of magnitude worse on every query
//!   the suites pin, so it is reachable only as an explicit engine
//!   choice — the paper's Fig. 14 baseline;
//! * **join order and filter placement** — [`order_twig_joins`] sorts
//!   each twig node's child joins by ascending stream cardinality (the
//!   bottom-up semi-joins against one parent commute, so smallest
//!   stream first shrinks the ancestor side soonest), and
//!   [`lower_plan_costed`] places each pushable filter by comparing
//!   the fused and standalone costs per site.

use crate::physical::{lower_plan_raw, PhysOp, PhysPlan};
use crate::twig::TwigQuery;
use blas_storage::NodeStore;
use blas_translate::{BoundPlan, BoundSource, Side};

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
    /// `data = 'v'` filtering during a scan or over a buffer
    /// (value-id resolution amortizes; the per-element compare
    /// dominates).
    pub value_filter_ns_per_elem: f64,
    /// `level = k` filtering (one integer compare).
    pub level_filter_ns_per_elem: f64,
    /// Copying labels into an owned buffer (standalone filters and
    /// materialization pay this; fused filters skip the unfiltered
    /// copy).
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

impl CostModel {
    /// Estimated cost of filtering `n` elements with the given
    /// predicates, and the estimated surviving fraction.
    fn filter_cost_and_sel(&self, n: f64, value: bool, level: bool) -> (f64, f64) {
        let mut cost = 0.0;
        let mut sel = 1.0;
        if value {
            cost += n * self.value_filter_ns_per_elem;
            sel *= self.value_selectivity;
        }
        if level {
            cost += n * self.level_filter_ns_per_elem;
            sel *= self.level_selectivity;
        }
        (cost, sel)
    }

    /// Should a pushable filter fuse into its scan? Fused, the
    /// predicate runs during the run traversal; standalone, the scan
    /// first materializes an unfiltered copy (`copy_ns_per_elem` per
    /// element) and pays one extra operator dispatch. Under any
    /// physically sensible rates fusion wins — the comparison exists
    /// so the placement is *derived* per site rather than hard-coded,
    /// and flips automatically should a future encoding make fused
    /// filtering more expensive than a copy.
    pub fn fused_filter_is_cheaper(&self, scan_elems: usize, value: bool, level: bool) -> bool {
        let n = scan_elems as f64;
        let (filter, _) = self.filter_cost_and_sel(n, value, level);
        let fused = n * self.scan_ns_per_elem + filter;
        let standalone =
            n * self.scan_ns_per_elem + n * self.copy_ns_per_elem + self.op_overhead_ns + filter;
        fused <= standalone
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
                let nf = source_cardinality(store, source) as f64;
                cost += nf * model.scan_ns_per_elem;
                let (fcost, sel) =
                    model.filter_cost_and_sel(nf, value_eq.is_some(), level_eq.is_some());
                cost += fcost;
                nf * sel
            }
            PhysOp::ValueFilter { input, value_eq, level_eq } => {
                let n = card[*input];
                // A standalone filter reads a materialized copy of its
                // input and writes the survivors.
                cost += n * model.copy_ns_per_elem;
                let (fcost, sel) =
                    model.filter_cost_and_sel(n, value_eq.is_some(), level_eq.is_some());
                cost += fcost;
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

/// Lower a bound plan for the relational engine with **cost-decided
/// filter placement**: the raw lowering keeps scans and filters
/// separate, then every fuseable (scan, filter) pair is fused exactly
/// when [`CostModel::fused_filter_is_cheaper`] says so for that scan's
/// directory-probed cardinality.
pub fn lower_plan_costed(bound: &BoundPlan, store: &NodeStore, model: &CostModel) -> PhysPlan {
    lower_plan_raw(bound).pushdown_filters_if(|scan, filter| {
        let (PhysOp::ClusteredScan { source, .. }, PhysOp::ValueFilter { value_eq, level_eq, .. }) =
            (scan, filter)
        else {
            return true;
        };
        model.fused_filter_is_cheaper(
            source_cardinality(store, source),
            value_eq.is_some(),
            level_eq.is_some(),
        )
    })
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
    use blas_translate::bind;
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
    fn costed_lowering_fuses_filters_under_calibrated_model() {
        // With the calibrated rates a fused filter always beats a
        // standalone one (the standalone path adds a full unfiltered
        // copy plus an operator dispatch), so the cost-decided plan
        // equals the unconditional-pushdown plan.
        let (doc, store) = fixture(SAMPLE);
        let model = CostModel::default();
        let b = bound_for(&doc, "/db/e[r/y='2001']/p/n");
        let costed = lower_plan_costed(&b, &store, &model);
        let unconditional = lower_plan(&b);
        assert_eq!(costed, unconditional);
        assert!(costed.ops().iter().any(
            |op| matches!(op, PhysOp::ClusteredScan { value_eq: Some(_), .. })
        ));
    }

    #[test]
    fn filter_placement_is_per_site_decidable() {
        // The same lowering keeps filters standalone when the
        // placement predicate declines, proving placement is a real
        // decision point, not a hard-coded pass.
        let (doc, _) = fixture(SAMPLE);
        let b = bound_for(&doc, "/db/e[r/y='2001']/p/n");
        let unfused = lower_plan_raw(&b).pushdown_filters_if(|_, _| false);
        assert!(unfused.ops().iter().any(|op| matches!(op, PhysOp::ValueFilter { .. })));
        assert!(!unfused.ops().iter().any(
            |op| matches!(op, PhysOp::ClusteredScan { value_eq: Some(_), .. })
        ));
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
