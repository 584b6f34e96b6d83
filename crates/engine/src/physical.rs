//! The physical-plan IR shared by every BLAS engine.
//!
//! The paper's pipeline is parse → decompose (§4.1) → bind (§4.2) →
//! execute (§5); until this layer existed, each engine re-implemented
//! the last step as its own loop over [`BoundPlan`]. A bound plan is
//! now **lowered** into an explicit physical plan — a flat arena of
//! operators in topological order — and every engine is just a
//! lowering strategy plus an operator configuration over the one
//! executor in [`crate::exec`]:
//!
//! | operator | paper artifact |
//! |---|---|
//! | [`PhysOp::ClusteredScan`] | the `σ` selections of Fig. 11 over the physically clustered SP (`plabel` equality/range) or SD (`tag`) relations — §4.2 / §5.2.1 — with the selection's `data = 'v'` / `level = k` conjuncts applied during the run traversal. Its runs are raw column extents or the packed v3 encodings, filtered by the same chunked kernels (`blas_storage::scan`) either way. |
//! | [`PhysOp::StructuralJoin`] | the `⋈` D-join of Fig. 11 (§3.1), as the structural *semi*-join both engines reduce to — keep one side's participants |
//! | [`PhysOp::Union`] | the duplicate-free `∪` of unfolded paths (§4.1.3) |
//! | [`PhysOp::Materialize`] | the final `π(start)` projection of Fig. 11: force an owned, start-sorted output |
//! | [`PhysOp::TwigStackMatch`] | the holistic stack match of §5.3 (Bruno et al., Algorithm 2) as a single n-ary operator over the per-node label streams |
//!
//! Lowering strategies:
//!
//! * [`lower_plan`] — the relational engine (§5.2): a tree of scans,
//!   semi-joins and unions mirroring the generated SQL's shape.
//! * [`lower_twig`] — the file-system engine (§5.3): one clustered
//!   scan per twig node (the *streams* of §5.3.1), then a DAG of
//!   structural semi-joins — bottom-up satisfaction followed by
//!   top-down reachability — sharing the scan outputs between passes.
//! * [`lower_twigstack`] — the literal TwigStack configuration: the
//!   same per-node streams feeding one [`PhysOp::TwigStackMatch`].
//!
//! All three take the same [`BoundPlan`]. The twig lowerings convert
//! each arm of a union of rewritings (Unfold's output) into a
//! [`TwigPattern`] with [`TwigPattern::from_arm`] and lower the arms one
//! after another under one [`PhysOp::Union`], so every engine runs every
//! translator's plans.
//!
//! The IR is a DAG: operators may be consumed by several later
//! operators (the twig lowering reads each satisfaction stream in both
//! passes), which the arena-with-indices representation models
//! directly. Operators only ever reference *earlier* arena slots, so
//! plan order is execution order.

use blas_translate::{BoundPlan, BoundSelection, BoundSource, Side};

/// Index of an operator in a [`PhysPlan`] arena.
pub type OpId = usize;

/// One physical operator. Inputs are [`OpId`]s of earlier operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysOp {
    /// Clustered scan over the SP (`PLabels`) or SD (`Tag`/`All`)
    /// physical sort order. `value_eq`/`level_eq` are the selection's
    /// predicates, applied during the run traversal; they drop tuples
    /// *after* counting (the paper's "elements read" counts the whole
    /// clustered run).
    ClusteredScan {
        /// Access path (which clustering, which key range).
        source: BoundSource,
        /// `data = 'v'` filter.
        value_eq: Option<String>,
        /// Exact-level filter.
        level_eq: Option<u16>,
    },
    /// Structural semi-join: keep the elements of side `keep` that
    /// participate in at least one containment pair (optionally at an
    /// exact level offset).
    StructuralJoin {
        /// Ancestor-side input.
        anc: OpId,
        /// Descendant-side input.
        desc: OpId,
        /// Exact level offset (`desc.level = anc.level + k`).
        level_diff: Option<u16>,
        /// Side whose participants flow onward.
        keep: Side,
        /// Whether this join counts toward [`ExecStats::d_joins`] /
        /// `join_input_tuples`. The twig lowering's top-down
        /// reachability pass re-walks streams its bottom-up pass
        /// already accounted for; the paper counts each twig edge
        /// once, so those joins carry `tally: false`.
        ///
        /// [`ExecStats::d_joins`]: crate::ExecStats::d_joins
        tally: bool,
    },
    /// Duplicate-free union of start-sorted inputs (§4.1.3: unfolded
    /// paths are disjoint, "the union is very simple").
    Union {
        /// Alternative inputs.
        inputs: Vec<OpId>,
    },
    /// Force an owned, start-sorted output buffer (the plan root).
    Materialize {
        /// Input stream.
        input: OpId,
    },
    /// Holistic TwigStack match (§5.3, Algorithm 2 of Bruno et al.)
    /// over one stream per twig-pattern node.
    TwigStackMatch {
        /// Stream input per pattern node (parallel to `pattern` nodes).
        streams: Vec<OpId>,
        /// Twig shape: edges, level constraints, output node.
        pattern: TwigPattern,
    },
}

impl PhysOp {
    /// Visit the operator's inputs (earlier arena slots).
    pub fn for_each_input(&self, mut f: impl FnMut(OpId)) {
        match self {
            PhysOp::ClusteredScan { .. } => {}
            PhysOp::Materialize { input } => f(*input),
            PhysOp::StructuralJoin { anc, desc, .. } => {
                f(*anc);
                f(*desc);
            }
            PhysOp::Union { inputs } => inputs.iter().copied().for_each(f),
            PhysOp::TwigStackMatch { streams, .. } => streams.iter().copied().for_each(f),
        }
    }
}

/// The structure of a twig query — parents, children, level
/// constraints — with the streams factored out into scan operators.
/// This is what [`PhysOp::TwigStackMatch`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigPattern {
    /// Parent pattern node (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Children per pattern node, in plan order.
    pub children: Vec<Vec<usize>>,
    /// Exact level offset below the parent (`None` = any descendant).
    pub level_diff: Vec<Option<u16>>,
    /// The pattern root.
    pub root: usize,
    /// The node whose bindings the query returns.
    pub output: usize,
}

impl TwigPattern {
    /// Convert one union-free arm of a bound plan ([`BoundPlan::arms`])
    /// into its twig: one pattern node per selection, returned beside
    /// the pattern in node order, and one edge per D-join, carrying the
    /// join's exact level offset when it has one.
    ///
    /// # Panics
    ///
    /// On a union nested under a join, which no translator emits.
    pub fn from_arm(arm: &BoundPlan) -> (TwigPattern, Vec<&BoundSelection>) {
        let mut pattern = TwigPattern {
            parent: Vec::new(),
            children: Vec::new(),
            level_diff: Vec::new(),
            root: 0,
            output: 0,
        };
        let mut sels = Vec::new();
        let conv = conv(arm, &mut pattern, &mut sels);
        pattern.root = conv.root;
        pattern.output = conv.rep;
        (pattern, sels)
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True for a pattern with no nodes (never produced by lowering).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of twig edges.
    pub fn edge_count(&self) -> usize {
        self.len().saturating_sub(1)
    }

    /// Children-before-parents order.
    pub fn post_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![(self.root, false)];
        while let Some((q, expanded)) = stack.pop() {
            if expanded {
                order.push(q);
            } else {
                stack.push((q, true));
                for &c in &self.children[q] {
                    stack.push((c, false));
                }
            }
        }
        order
    }
}

struct Conv {
    root: usize,
    rep: usize,
    /// Depth of `rep` below `root` in child steps, when exactly known.
    rep_depth: Option<u16>,
}

fn conv<'p>(
    plan: &'p BoundPlan,
    pattern: &mut TwigPattern,
    sels: &mut Vec<&'p BoundSelection>,
) -> Conv {
    match plan {
        BoundPlan::Select(sel) => {
            let id = sels.len();
            sels.push(sel);
            pattern.parent.push(None);
            pattern.children.push(Vec::new());
            pattern.level_diff.push(None);
            Conv { root: id, rep: id, rep_depth: Some(0) }
        }
        BoundPlan::DJoin { anc, desc, level_diff, output } => {
            let a = conv(anc, pattern, sels);
            let d = conv(desc, pattern, sels);
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
            pattern.parent[d.root] = Some(a.rep);
            pattern.level_diff[d.root] = edge;
            pattern.children[a.rep].push(d.root);
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

/// A physical plan: operators in topological (execution) order plus
/// the root whose output is the query result.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    ops: Vec<PhysOp>,
    root: OpId,
    /// Memoized [`PhysPlan::consumer_counts`]; excluded from equality
    /// (it is a pure function of `ops`).
    consumer_counts: std::sync::OnceLock<Vec<usize>>,
}

impl PartialEq for PhysPlan {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops && self.root == other.root
    }
}

impl Eq for PhysPlan {}

impl PhysPlan {
    fn empty() -> Self {
        PhysPlan { ops: Vec::new(), root: 0, consumer_counts: std::sync::OnceLock::new() }
    }
    /// The operators in execution order.
    pub fn ops(&self) -> &[PhysOp] {
        &self.ops
    }

    /// One operator.
    pub fn op(&self, id: OpId) -> &PhysOp {
        &self.ops[id]
    }

    /// The root operator.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// Per-operator consuming-edge counts (an operator read twice by
    /// the same join counts twice), memoized: the executor's initial
    /// remaining-consumer credits — a result slot recycles its buffer
    /// the moment its last consumer has read it. Computed once per
    /// plan so repeated executions skip the dependency walk.
    pub fn consumer_counts(&self) -> &[usize] {
        self.consumer_counts.get_or_init(|| {
            let mut counts = vec![0usize; self.ops.len()];
            for op in &self.ops {
                op.for_each_input(|input| counts[input] += 1);
            }
            counts
        })
    }

    /// Assemble a plan from raw operators already in topological
    /// order. This is the escape hatch the lowering strategies do
    /// *not* need — it exists for test harnesses and benchmarks that
    /// exercise operator shapes no lowering emits (operator chains,
    /// roots with consumers, deliberately broken holistic patterns).
    ///
    /// Only the arena invariant is enforced — every input references
    /// an **earlier** slot and `root` is in range; operator payloads
    /// (e.g. a [`TwigPattern`]'s internal consistency) are the
    /// caller's responsibility.
    ///
    /// # Panics
    ///
    /// If an operator references itself or a later slot, or `root >=
    /// ops.len()`.
    pub fn from_ops(ops: Vec<PhysOp>, root: OpId) -> PhysPlan {
        for (id, op) in ops.iter().enumerate() {
            op.for_each_input(|i| {
                assert!(i < id, "op {id} reads slot {i}: inputs must precede the operator");
            });
        }
        assert!(root < ops.len(), "root {root} out of range for {} ops", ops.len());
        PhysPlan { ops, root, consumer_counts: std::sync::OnceLock::new() }
    }

    fn push(&mut self, op: PhysOp) -> OpId {
        #[cfg(debug_assertions)]
        {
            let next = self.ops.len();
            op.for_each_input(|i| debug_assert!(i < next, "inputs must precede the operator"));
        }
        self.ops.push(op);
        self.ops.len() - 1
    }
}

/// Emit the scan for one bound selection, its predicates applied
/// during the run traversal; shared by all lowering strategies.
fn lower_selection(plan: &mut PhysPlan, sel: &BoundSelection) -> OpId {
    plan.push(PhysOp::ClusteredScan {
        source: sel.source.clone(),
        value_eq: sel.value_eq.clone(),
        level_eq: sel.level_eq,
    })
}

/// Lower a bound plan for the **relational engine** (§5.2): the
/// operator tree mirrors the Fig. 11 SQL shape — `σ` selections over
/// SP/SD, semi-join `⋈`s keeping the projected side, `∪` for unfolded
/// alternatives, and a final `π(start)` materialization.
pub fn lower_plan(bound: &BoundPlan) -> PhysPlan {
    let mut plan = PhysPlan::empty();
    let top = lower_plan_rec(bound, &mut plan);
    plan.root = plan.push(PhysOp::Materialize { input: top });
    plan
}

fn lower_plan_rec(bound: &BoundPlan, plan: &mut PhysPlan) -> OpId {
    match bound {
        BoundPlan::Select(sel) => lower_selection(plan, sel),
        BoundPlan::DJoin { anc, desc, level_diff, output } => {
            let a = lower_plan_rec(anc, plan);
            let d = lower_plan_rec(desc, plan);
            plan.push(PhysOp::StructuralJoin {
                anc: a,
                desc: d,
                level_diff: *level_diff,
                keep: *output,
                tally: true,
            })
        }
        BoundPlan::Union(alts) => {
            let inputs: Vec<OpId> = alts.iter().map(|a| lower_plan_rec(a, plan)).collect();
            plan.push(PhysOp::Union { inputs })
        }
    }
}

/// Lower a bound plan for the **holistic semi-join engine** (§5.3):
/// per arm, one clustered scan per twig node (its label *stream*), then
/// the two stack passes expressed as a DAG of structural semi-joins —
/// bottom-up satisfaction (keep ancestors, tallied as the twig's
/// D-joins) and top-down reachability along the root → output path
/// (keep descendants, untallied: the paper counts each twig edge once).
/// It computes the set of output bindings that take part in a match,
/// not the match tuples; each stream is still read once per incident
/// edge, so the paper's elements-read metric is unchanged.
pub fn lower_twig(bound: &BoundPlan) -> PhysPlan {
    lower_arms(bound, |plan, pattern, sels| {
        let mut sat: Vec<OpId> = sels.iter().map(|s| lower_selection(plan, s)).collect();
        for qi in pattern.post_order() {
            for &c in &pattern.children[qi] {
                sat[qi] = plan.push(PhysOp::StructuralJoin {
                    anc: sat[qi],
                    desc: sat[c],
                    level_diff: pattern.level_diff[c],
                    keep: Side::Anc,
                    tally: true,
                });
            }
        }
        // Top-down only along the root → output path: nothing reads a
        // branch node's reachable set.
        let mut path = Vec::new();
        let mut n = pattern.output;
        while let Some(p) = pattern.parent[n] {
            path.push(n);
            n = p;
        }
        let mut alive = sat[pattern.root];
        for &c in path.iter().rev() {
            alive = plan.push(PhysOp::StructuralJoin {
                anc: alive,
                desc: sat[c],
                level_diff: pattern.level_diff[c],
                keep: Side::Desc,
                tally: false,
            });
        }
        alive
    })
}

/// Lower a bound plan for the **TwigStack engine**: per arm, the same
/// per-node streams as [`lower_twig`], feeding the single holistic
/// [`PhysOp::TwigStackMatch`] operator instead of a semi-join DAG.
pub fn lower_twigstack(bound: &BoundPlan) -> PhysPlan {
    lower_arms(bound, |plan, pattern, sels| {
        let streams: Vec<OpId> = sels.iter().map(|s| lower_selection(plan, s)).collect();
        match streams[..] {
            // A one-node twig has no edge to match: its stream is the
            // answer.
            [only] => only,
            _ => plan.push(PhysOp::TwigStackMatch { streams, pattern }),
        }
    })
}

/// Convert each of the plan's arms into a twig ([`TwigPattern::from_arm`]),
/// lower it with `arm`, union the arms' outputs (one arm needs no union;
/// none is the empty union), and materialize.
fn lower_arms(
    bound: &BoundPlan,
    mut arm: impl FnMut(&mut PhysPlan, TwigPattern, &[&BoundSelection]) -> OpId,
) -> PhysPlan {
    let mut plan = PhysPlan::empty();
    let mut outs: Vec<OpId> = bound
        .arms()
        .iter()
        .map(|a| {
            let (pattern, sels) = TwigPattern::from_arm(a);
            arm(&mut plan, pattern, &sels)
        })
        .collect();
    let top = match outs.len() {
        1 => outs.pop().expect("length checked"),
        _ => plan.push(PhysOp::Union { inputs: outs }),
    };
    plan.root = plan.push(PhysOp::Materialize { input: top });
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::fixture::{Fixture, SAMPLE, TRANSLATORS};
    use crate::stats::ExecStats;
    use blas_labeling::DLabel;
    use blas_translate::{bind, DJoinNode, Plan};

    fn run(plan: &PhysPlan, fx: &Fixture) -> (Vec<DLabel>, ExecStats) {
        let mut stats = ExecStats::default();
        let out = execute(plan, &fx.store, &mut stats);
        (out, stats)
    }

    /// Ground truth: the text (or, for an element without text, the
    /// tag) of each result node, in document order.
    fn texts_of(fx: &Fixture, results: &[DLabel]) -> Vec<String> {
        let labels = blas_labeling::label_document(&fx.doc).unwrap();
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

    /// The relational engine's answer and counters for `xpath`.
    fn rdbms(fx: &Fixture, xpath: &str, translator: &str) -> (Vec<DLabel>, ExecStats) {
        run(&lower_plan(&fx.bind(xpath, translator)), fx)
    }

    #[test]
    fn selection_with_value_filter_is_fused_into_scan() {
        let b = Fixture::load("<a><b>x</b></a>").bind("/a/b='x'", "pushup");
        let plan = lower_plan(&b);
        // Scan (filter applied in the scan) + Materialize only.
        assert_eq!(plan.ops().len(), 2);
        match plan.op(0) {
            PhysOp::ClusteredScan { value_eq: Some(v), .. } => assert_eq!(v, "x"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(plan.op(plan.root()), PhysOp::Materialize { .. }));
    }

    #[test]
    fn djoin_lowers_to_semi_join_keeping_output_side() {
        let b = Fixture::load("<a><b><c/></b></a>").bind("/a/b[c]", "pushup");
        let plan = lower_plan(&b);
        let joins: Vec<&PhysOp> = plan
            .ops()
            .iter()
            .filter(|o| matches!(o, PhysOp::StructuralJoin { .. }))
            .collect();
        assert_eq!(joins.len(), 1);
        match joins[0] {
            PhysOp::StructuralJoin { keep, tally, .. } => {
                assert_eq!(*keep, Side::Anc);
                assert!(tally);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn union_plan_lowers_to_union_op() {
        let fx = Fixture::load("<a><b><c/></b><d><c/></d></a>");
        // A twig's rewritings are a union on every engine; a linear
        // query's matching paths are one scan.
        let twig = fx.bind("/a/*[c]", "unfold");
        for phys in [lower_plan(&twig), lower_twig(&twig), lower_twigstack(&twig)] {
            assert_eq!(phys.ops().iter().filter(|o| matches!(o, PhysOp::Union { .. })).count(), 1);
        }
        let linear = lower_plan(&fx.bind("/a//c", "unfold"));
        assert!(!linear.ops().iter().any(|o| matches!(o, PhysOp::Union { .. })));
    }

    #[test]
    fn twig_lowering_builds_two_pass_dag() {
        let b = Fixture::load("<db><e><p/><r><f/></r></e></db>").bind("/db/e[p]/r/f", "pushup");
        let plan = lower_twig(&b);
        let (mut tallied, mut untallied) = (0, 0);
        for op in plan.ops() {
            if let PhysOp::StructuralJoin { tally, .. } = op {
                if *tally { tallied += 1 } else { untallied += 1 }
            }
        }
        // One bottom-up join per twig edge (`db/e`–`p`, `db/e`–`r/f`);
        // top-down only on the root → output path (`db/e`–`r/f`).
        assert_eq!((tallied, untallied), (2, 1));
        // Scan outputs are shared between the passes: the plan is a DAG,
        // so some operator has more than one consumer.
        let mut consumers = vec![0usize; plan.ops().len()];
        for op in plan.ops() {
            op.for_each_input(|i| consumers[i] += 1);
        }
        assert!(consumers.iter().any(|&c| c > 1), "twig lowering must share streams");
    }

    #[test]
    fn twigstack_lowering_uses_holistic_operator() {
        let b = Fixture::load("<db><e><p/></e></db>").bind("/db/e[p]", "pushup");
        let plan = lower_twigstack(&b);
        let m = plan
            .ops()
            .iter()
            .find_map(|o| match o {
                PhysOp::TwigStackMatch { streams, pattern } => Some((streams, pattern)),
                _ => None,
            })
            .expect("holistic operator present");
        assert_eq!(m.0.len(), m.1.len());
        assert_eq!(m.1.edge_count(), 1);
    }

    // --- The twig lowerings over the sample --------------------------

    #[test]
    fn twig_engine_matches_rdbms_engine() {
        let fx = Fixture::sample();
        let queries = [
            "/db/e/r/f/t",
            "//f/t",
            "/db/e//s",
            "/db/e[p//s]/r/f/t",
            "/db/e[p//s='cyt']/r/f[y='2001']/t",
            "/db/e[r/f/a='Evans' and r/f/y='1999']/p/c/s",
        ];
        for src in queries {
            for name in ["dlabel", "split", "pushup"] {
                let bound = fx.bind(src, name);
                let (rdbms_out, rs) = run(&lower_plan(&bound), &fx);
                let (twig_out, ts) = run(&lower_twig(&bound), &fx);
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
        let fx = Fixture::sample();
        // The branch `*` unfolds through e/p and e/r: two rewritings.
        let bound = fx.bind("/db/e[*]/r/f/t", "unfold");
        assert_eq!(bound.arms().len(), 2);
        let (expected, _) = run(&lower_plan(&bound), &fx);
        assert_eq!(expected.len(), 3);
        for phys in [lower_twig(&bound), lower_twigstack(&bound)] {
            let unions = phys.ops().iter().filter(|o| matches!(o, PhysOp::Union { .. })).count();
            assert_eq!(unions, 1, "one union over the arms");
            assert_eq!(run(&phys, &fx).0, expected);
        }
    }

    #[test]
    fn twig_structure_from_plan() {
        let fx = Fixture::sample();
        let bound = fx.bind("/db/e[p]/r/f", "pushup");
        let (twig, sels) = TwigPattern::from_arm(&bound);
        // Nodes: /db/e, /db/e/p, /db/e/r/f, one selection each.
        assert_eq!((twig.len(), sels.len()), (3, 3));
        assert_eq!(twig.edge_count(), 2);
        let children = &twig.children[twig.root];
        assert_eq!(children.len(), 2);
        // Edge offsets: p is 1 below e; f is 2 below e.
        let offsets: Vec<Option<u16>> = children.iter().map(|&c| twig.level_diff[c]).collect();
        assert_eq!(offsets, [Some(1), Some(2)]);
        // Output is the f node.
        assert_eq!(twig.output, children[1]);
    }

    #[test]
    fn stream_sizes_drive_visited_counts() {
        let fx = Fixture::sample();
        let (_, ds) = run(&lower_twig(&fx.bind("/db/e/r/f/y", "dlabel")), &fx);
        let (_, ps) = run(&lower_twig(&fx.bind("/db/e/r/f/y", "pushup")), &fx);
        // Baseline reads db(1)+e(3)+r(3)+f(3)+y(3)=13; push-up reads 3.
        assert_eq!(ds.elements_visited, 13);
        assert_eq!(ps.elements_visited, 3);
    }

    #[test]
    fn post_order_children_first() {
        let fx = Fixture::sample();
        let (twig, _) = TwigPattern::from_arm(&fx.bind("/db/e[p][r]/r/f", "pushup"));
        // The lowering orders the bottom-up joins by the pattern's
        // post order: children always precede their parents.
        let order = twig.post_order();
        for (pos, &q) in order.iter().enumerate() {
            for &c in &twig.children[q] {
                assert!(order.iter().position(|&x| x == c).unwrap() < pos);
            }
        }
    }

    #[test]
    fn level_offset_below_a_nested_joins_root_is_its_own() {
        // `/db/e` joined at +2 to (`//r` joined at +1 to `//f`, output
        // `f`), output `f`. The outer join constrains e vs f; the twig
        // edge runs e → r, so its offset is 2 − (f's depth below r) = 1.
        let join = |anc: Plan, desc: Plan, k| {
            Plan::DJoin(DJoinNode {
                anc: Box::new(anc),
                desc: Box::new(desc),
                level_diff: Some(k),
                output: Side::Desc,
            })
        };
        let plan = join(
            Plan::path(true, &["db", "e"], None),
            join(Plan::path(false, &["r"], None), Plan::path(false, &["f"], None), 1),
            2,
        );
        // One more entry, whose `r` sits one level too deep: the +1 edge
        // must exclude its `f`.
        let fx = Fixture::load(&SAMPLE.replace(
            "</db>",
            "<e><x><r><f><a>Jones</a><y>2002</y><t>T4</t></f></r></x></e></db>",
        ));
        let bound = bind(&plan, fx.doc.tags(), &fx.domain, &[]);
        let (twig, _) = TwigPattern::from_arm(&bound);
        assert_eq!(twig.level_diff, [None, Some(1), Some(1)]);
        assert_eq!((twig.root, twig.children[0].as_slice()), (0, &[1][..]));
        assert_eq!((twig.children[1].as_slice(), twig.output), (&[2][..], 2));
        let f_under_e_r = fx.bind("/db/e/r/f", "pushup");
        let (expected, _) = run(&lower_plan(&f_under_e_r), &fx);
        assert_eq!(expected.len(), 3);
        for phys in [lower_plan(&bound), lower_twig(&bound), lower_twigstack(&bound)] {
            assert_eq!(run(&phys, &fx).0, expected, "{phys:?}");
        }
    }

    // --- The relational lowering over the sample ---------------------

    #[test]
    fn suffix_path_all_strategies_agree() {
        let fx = Fixture::sample();
        for strat in TRANSLATORS {
            let (out, _) = rdbms(&fx, "/db/e/r/f/t", strat);
            assert_eq!(texts_of(&fx, &out), ["T1", "T2", "T3"], "{strat}");
        }
    }

    #[test]
    fn twig_with_value_predicates_agree() {
        let fx = Fixture::sample();
        // Entries with superfamily 'cyt' and year '2001' → title T1.
        let q = "/db/e[p//s='cyt']/r/f[y='2001']/t";
        for strat in TRANSLATORS {
            let (out, _) = rdbms(&fx, q, strat);
            assert_eq!(texts_of(&fx, &out), ["T1"], "{strat}");
        }
    }

    #[test]
    fn interior_descendant_agrees() {
        let fx = Fixture::sample();
        for strat in TRANSLATORS {
            let (out, _) = rdbms(&fx, "/db/e//s", strat);
            assert_eq!(texts_of(&fx, &out), ["cyt", "hb", "cyt"], "{strat}");
        }
    }

    #[test]
    fn blas_reads_fewer_elements_than_dlabeling() {
        let fx = Fixture::sample();
        let (_, d) = rdbms(&fx, "/db/e/r/f/t", "dlabel");
        let (_, p) = rdbms(&fx, "/db/e/r/f/t", "pushup");
        assert!(d.elements_visited > p.elements_visited, "{d:?} vs {p:?}");
        assert_eq!(d.d_joins, 4); // l − 1
        assert_eq!(p.d_joins, 0); // single selection
        // Push-up reads exactly the 3 matching tuples.
        assert_eq!(p.elements_visited, 3);
    }

    #[test]
    fn unfold_replaces_joins_with_selections() {
        let fx = Fixture::sample();
        let (_, split) = rdbms(&fx, "/db/e//s", "split");
        let (_, unfold) = rdbms(&fx, "/db/e//s", "unfold");
        assert!(unfold.d_joins < split.d_joins);
        assert!(unfold.elements_visited <= split.elements_visited);
    }

    #[test]
    fn output_side_respected() {
        let fx = Fixture::sample();
        // Output is the ancestor side: entries having a 2001 reference.
        let (out, _) = rdbms(&fx, "/db/e[r/f/y='2001']", "pushup");
        assert_eq!(out.len(), 1);
        // Output is the descendant side.
        let (out, _) = rdbms(&fx, "/db/e[p]/r/f/a", "pushup");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_results() {
        let fx = Fixture::sample();
        for strat in TRANSLATORS {
            let (out, _) = rdbms(&fx, "/db/e/zzz", strat);
            assert!(out.is_empty(), "{strat}");
            let (out, _) = rdbms(&fx, "/db/e[r/f/y='1850']/r/f/t", strat);
            assert!(out.is_empty(), "{strat}");
        }
    }

    #[test]
    fn results_are_start_sorted_and_unique() {
        let fx = Fixture::sample();
        let (out, _) = rdbms(&fx, "//f", "split");
        assert!(out.windows(2).all(|w| w[0].start < w[1].start));
    }
}
