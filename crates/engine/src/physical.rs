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
//! Both twig lowerings take the arms of a union of rewritings (Unfold's
//! output) and lower them one after another under one [`PhysOp::Union`],
//! so every engine runs every translator's plans.
//!
//! The IR is a DAG: operators may be consumed by several later
//! operators (the twig lowering reads each satisfaction stream in both
//! passes), which the arena-with-indices representation models
//! directly. Operators only ever reference *earlier* arena slots, so
//! plan order is execution order.

use crate::twig::TwigQuery;
use blas_translate::{BoundPlan, BoundSource, Side};

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
    /// Extract the shape of a twig query.
    pub fn from_query(q: &TwigQuery) -> Self {
        TwigPattern {
            parent: q.nodes.iter().map(|n| n.parent).collect(),
            children: q.nodes.iter().map(|n| n.children.clone()).collect(),
            level_diff: q.nodes.iter().map(|n| n.level_diff).collect(),
            root: q.root,
            output: q.output,
        }
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
fn lower_selection(
    plan: &mut PhysPlan,
    source: &BoundSource,
    value_eq: &Option<String>,
    level_eq: Option<u16>,
) -> OpId {
    plan.push(PhysOp::ClusteredScan {
        source: source.clone(),
        value_eq: value_eq.clone(),
        level_eq,
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
        BoundPlan::Select(sel) => {
            lower_selection(plan, &sel.source, &sel.value_eq, sel.level_eq)
        }
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

/// Lower twig queries for the **holistic semi-join engine** (§5.3):
/// per arm, one clustered scan per twig node (its label *stream*), then
/// the two stack passes expressed as a DAG of structural semi-joins —
/// bottom-up satisfaction (keep ancestors, tallied as the twig's
/// D-joins) and top-down reachability along the root → output path
/// (keep descendants, untallied: the paper counts each twig edge once).
pub fn lower_twig(arms: &[TwigQuery]) -> PhysPlan {
    lower_arms(arms, |plan, q| {
        let pattern = TwigPattern::from_query(q);
        let mut sat: Vec<OpId> = q
            .nodes
            .iter()
            .map(|n| lower_selection(plan, &n.source, &n.value_eq, n.level_eq))
            .collect();
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

/// Lower twig queries for the **TwigStack engine**: per arm, the same
/// per-node streams as [`lower_twig`], feeding the single holistic
/// [`PhysOp::TwigStackMatch`] operator instead of a semi-join DAG.
pub fn lower_twigstack(arms: &[TwigQuery]) -> PhysPlan {
    lower_arms(arms, |plan, q| {
        let streams: Vec<OpId> = q
            .nodes
            .iter()
            .map(|n| lower_selection(plan, &n.source, &n.value_eq, n.level_eq))
            .collect();
        match streams[..] {
            // A one-node twig has no edge to match: its stream is the
            // answer.
            [only] => only,
            _ => plan.push(PhysOp::TwigStackMatch { streams, pattern: TwigPattern::from_query(q) }),
        }
    })
}

/// Lower each arm with `arm`, union the arms' outputs (one arm needs no
/// union; none is the empty union), and materialize.
fn lower_arms(arms: &[TwigQuery], mut arm: impl FnMut(&mut PhysPlan, &TwigQuery) -> OpId) -> PhysPlan {
    let mut plan = PhysPlan::empty();
    let mut outs: Vec<OpId> = arms.iter().map(|q| arm(&mut plan, q)).collect();
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
    use blas_labeling::label_document;
    use blas_translate::{bind, translate_pushup, translate_unfold};
    use blas_xml::{Document, SchemaGraph};
    use blas_xpath::parse;

    fn bound(src: &str, xpath: &str) -> (Document, BoundPlan) {
        let doc = Document::parse(src).unwrap();
        let labels = label_document(&doc).unwrap();
        let q = parse(xpath).unwrap();
        let plan = translate_pushup(&q).unwrap();
        let b = bind(&plan, doc.tags(), &labels.domain, &[]);
        (doc, b)
    }

    #[test]
    fn selection_with_value_filter_is_fused_into_scan() {
        let (_, b) = bound("<a><b>x</b></a>", "/a/b='x'");
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
        let (_, b) = bound("<a><b><c/></b></a>", "/a/b[c]");
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
        let doc = Document::parse("<a><b><c/></b><d><c/></d></a>").unwrap();
        let labels = label_document(&doc).unwrap();
        let schema = SchemaGraph::infer(&doc);
        let bound = |xpath: &str| {
            let plan = translate_unfold(&parse(xpath).unwrap(), &schema).unwrap();
            bind(&plan, doc.tags(), &labels.domain, &[])
        };
        // A twig's rewritings are a union on every engine; a linear
        // query's matching paths are one scan.
        let twig = bound("/a/*[c]");
        let twig_arms = TwigQuery::from_plan(&twig);
        for phys in [lower_plan(&twig), lower_twig(&twig_arms), lower_twigstack(&twig_arms)] {
            assert_eq!(phys.ops().iter().filter(|o| matches!(o, PhysOp::Union { .. })).count(), 1);
        }
        let linear = lower_plan(&bound("/a//c"));
        assert!(!linear.ops().iter().any(|o| matches!(o, PhysOp::Union { .. })));
    }

    #[test]
    fn twig_lowering_builds_two_pass_dag() {
        let (doc, b) = bound(
            "<db><e><p/><r><f/></r></e></db>",
            "/db/e[p]/r/f",
        );
        let _ = doc;
        let twig = TwigQuery::from_plan(&b).remove(0);
        let plan = lower_twig(std::slice::from_ref(&twig));
        let (mut tallied, mut untallied) = (0, 0);
        for op in plan.ops() {
            if let PhysOp::StructuralJoin { tally, .. } = op {
                if *tally { tallied += 1 } else { untallied += 1 }
            }
        }
        // One bottom-up join per twig edge (`db/e`–`p`, `db/e`–`r/f`);
        // top-down only on the root → output path (`db/e`–`r/f`).
        assert_eq!((twig.edge_count(), tallied, untallied), (2, 2, 1));
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
        let (_, b) = bound("<db><e><p/></e></db>", "/db/e[p]");
        let twig = TwigQuery::from_plan(&b).remove(0);
        let plan = lower_twigstack(std::slice::from_ref(&twig));
        let m = plan
            .ops()
            .iter()
            .find_map(|o| match o {
                PhysOp::TwigStackMatch { streams, pattern } => Some((streams, pattern)),
                _ => None,
            })
            .expect("holistic operator present");
        assert_eq!(m.0.len(), m.1.len());
        assert_eq!(m.1.edge_count(), twig.edge_count());
    }
}
