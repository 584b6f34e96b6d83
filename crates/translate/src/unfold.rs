//! The Unfold translator (§4.1.3): descendant-axis and wildcard
//! elimination against the path summary.
//!
//! `p//q` is rewritten into the union of `p/r1/…/q`, `p/r2/…/q`, … over
//! the simple paths `//` can stand for — and the [`SchemaGraph`] holds
//! exactly the live ones, sorted, so the paths extending a bound prefix
//! are one contiguous range of it. The query is cut into the maximal
//! chains of steps between branching points (the chains Split and
//! Push-up cut), and each chain is matched as a unit against the paths
//! under its anchor: a `/` step extends the path by one tag, a `//` step
//! by one or more, and `*` matches any tag. Every matching path comes
//! out once, so a linear query becomes **one selection** over the set of
//! live paths it matches ([`SelectSource::Paths`]), which binds to the
//! runs of consecutive live P-labels those paths cover — one clustered
//! scan, no union and no D-join. A twig multiplies rewritings only at
//! its branching points. The rewritten queries contain only child axes
//! and concrete tags and are then translated with Push-up, so every
//! selection is a one-key equality selection and D-joins remain only at
//! branching points.

use crate::decompose::translate_pushup;
use crate::error::TranslateError;
use crate::plan::{Plan, SelectSource, Selection};
use blas_xml::SchemaGraph;
use blas_xpath::{Axis, NodeTest, QNode, QNodeId, QueryTree};

/// Safety cap on the rewritings a twig multiplies at its branching
/// points (`//*[*][*][*]` grows with the cube of the fan-out). A linear
/// query is one path-set selection, never rewritten.
pub const UNFOLD_CAP: usize = 4096;

/// Translate `q` with the Unfold algorithm against `schema`.
///
/// A linear query (one chain of steps) is one [`SelectSource::Paths`]
/// selection over its matching live paths; an empty set means no live
/// path matches. A twig is a [`Plan::Union`] over its unfolded
/// rewritings (a single rewriting is returned unwrapped).
pub fn translate_unfold(q: &QueryTree, schema: &SchemaGraph) -> Result<Plan, TranslateError> {
    let spine = chain(q, q.root());
    let end = q.node(*spine.last().expect("chains are non-empty"));
    if end.children.is_empty() {
        let rw = Rewriter { q, paths: schema.paths(), cap: usize::MAX };
        let paths = rw.chain_ends(&spine, &[]).into_iter().map(<[String]>::to_vec).collect();
        return Ok(Plan::Select(Selection {
            source: SelectSource::Paths(paths),
            value_eq: end.value_eq.clone(),
            level_eq: None,
        }));
    }
    let mut alts = unfold_rewritings(q, schema, UNFOLD_CAP)?
        .iter()
        .map(translate_pushup)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(match alts.len() {
        1 => alts.pop().expect("length checked"),
        _ => Plan::Union(alts),
    })
}

/// Enumerate all `//`- and `*`-free rewritings of `q` over the live
/// paths of `schema`. Past `cap` rewritings it fails with
/// [`TranslateError::TooManyUnfoldings`].
pub fn unfold_rewritings(
    q: &QueryTree,
    schema: &SchemaGraph,
    cap: usize,
) -> Result<Vec<QueryTree>, TranslateError> {
    let rw = Rewriter { q, paths: schema.paths(), cap };
    let mut results = Vec::new();
    let root = WorkItem { orig: q.root(), parent_new: None, anchor: &[] };
    rw.rec(&[root], Build::default(), &mut results)?;
    Ok(results)
}

/// The maximal chain of steps entered at `entry`: it runs on through
/// every step with exactly one child that is neither the output nor
/// value-tested, whatever the axes and node tests.
fn chain(q: &QueryTree, entry: QNodeId) -> Vec<QNodeId> {
    let (mut chain, mut id) = (vec![entry], entry);
    while let [only] = q.node(id).children[..] {
        if id == q.output() || q.node(id).value_eq.is_some() {
            break;
        }
        chain.push(only);
        id = only;
    }
    chain
}

/// Whether `tail` spells `steps`: a `/` step consumes exactly one tag, a
/// `//` step one or more, and the last tag a step consumes passes its
/// node test.
fn spells(q: &QueryTree, steps: &[QNodeId], tail: &[String]) -> bool {
    let passes = |s: QNodeId, tag: &str| q.node(s).test.tag().is_none_or(|t| t == tag);
    match (steps.last(), tail.last()) {
        (None, None) => return true,
        (Some(&s), Some(tag)) if passes(s, tag) => {}
        _ => return false,
    }
    // at[j]: the tags read so far are exactly consumed by steps[..j].
    let mut at = vec![false; steps.len() + 1];
    at[0] = true;
    for tag in tail {
        for j in (0..=steps.len()).rev() {
            let stay = at[j] && steps.get(j).is_some_and(|&s| q.node(s).axis == Axis::Descendant);
            let step = j > 0 && at[j - 1] && passes(steps[j - 1], tag);
            at[j] = stay || step;
        }
    }
    at[steps.len()]
}

#[derive(Clone, Copy)]
struct WorkItem<'a> {
    orig: QNodeId,
    parent_new: Option<u32>,
    /// The live path bound to the step above `orig` (empty at the root).
    anchor: &'a [String],
}

#[derive(Clone, Default)]
struct Build {
    nodes: Vec<QNode>,
    output_new: Option<u32>,
}

impl Build {
    /// Append one child step; returns its index.
    fn push_step(&mut self, tag: &str, parent: Option<u32>) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(QNode {
            axis: Axis::Child,
            test: NodeTest::Tag(tag.to_string()),
            value_eq: None,
            parent: parent.map(QNodeId),
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.nodes[p as usize].children.push(QNodeId(id));
        }
        id
    }
}

struct Rewriter<'a> {
    q: &'a QueryTree,
    /// The summary's sorted live paths.
    paths: &'a [Vec<String>],
    cap: usize,
}

impl<'a> Rewriter<'a> {
    /// The live paths below `anchor` that `steps` can end on, each once.
    /// The leading `/tag` steps fix a longer prefix, whose extensions
    /// are one range of the sorted set; the rest are spelled per path.
    fn chain_ends(&self, steps: &[QNodeId], anchor: &[String]) -> Vec<&'a [String]> {
        let mut prefix = anchor.to_vec();
        prefix.extend(
            steps
                .iter()
                .map(|&s| self.q.node(s))
                .map_while(|n| n.test.tag().filter(|_| n.axis == Axis::Child))
                .map(str::to_string),
        );
        let rest = &steps[prefix.len() - anchor.len()..];
        let lo = self.paths.partition_point(|p| p.as_slice() < prefix.as_slice());
        let hi = lo + self.paths[lo..].partition_point(|p| p.starts_with(&prefix));
        self.paths[lo..hi]
            .iter()
            .filter(|p| spells(self.q, rest, &p[prefix.len()..]))
            .map(Vec::as_slice)
            .collect()
    }

    fn rec(
        &self,
        worklist: &[WorkItem<'a>],
        build: Build,
        out: &mut Vec<QueryTree>,
    ) -> Result<(), TranslateError> {
        let Some((item, rest)) = worklist.split_first() else {
            // Complete rewriting.
            if out.len() >= self.cap {
                return Err(TranslateError::TooManyUnfoldings { cap: self.cap });
            }
            let output = QNodeId(build.output_new.expect("output processed"));
            out.push(QueryTree::from_parts(build.nodes, QNodeId(0), output));
            return Ok(());
        };
        let steps = chain(self.q, item.orig);
        let end = *steps.last().expect("chains are non-empty");
        let end_node = self.q.node(end);
        for path in self.chain_ends(&steps, item.anchor) {
            let mut b = build.clone();
            let mut parent = item.parent_new;
            // The chain becomes the path's new tags, all on child axes
            // (the whole rewriting is anchored at the document root).
            for tag in &path[item.anchor.len()..] {
                parent = Some(b.push_step(tag, parent));
            }
            let new_id = parent.expect("a chain consumes at least one tag");
            b.nodes[new_id as usize].value_eq = end_node.value_eq.clone();
            if end == self.q.output() {
                b.output_new = Some(new_id);
            }
            // Queue the chain end's children under the new node. Prepend
            // so the traversal stays depth-first (children before pending
            // siblings — required so predicate subtrees are complete
            // before the spine continues, preserving child order).
            let mut next: Vec<WorkItem> = end_node
                .children
                .iter()
                .map(|&c| WorkItem { orig: c, parent_new: Some(new_id), anchor: path })
                .collect();
            next.extend_from_slice(rest);
            self.rec(&next, b, out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_xpath::parse;

    /// Protein-like path summary.
    fn protein_schema() -> SchemaGraph {
        SchemaGraph::from_source_paths([
            &["db"][..],
            &["db", "entry"],
            &["db", "entry", "protein"],
            &["db", "entry", "protein", "classification"],
            &["db", "entry", "protein", "classification", "superfamily"],
            &["db", "entry", "reference"],
            &["db", "entry", "reference", "refinfo"],
            &["db", "entry", "reference", "refinfo", "authors"],
            &["db", "entry", "reference", "refinfo", "authors", "author"],
            &["db", "entry", "reference", "refinfo", "year"],
        ])
    }

    /// `r` over an `a` chain and a `b` chain `depth` deep, then `a/b` and
    /// `b/a`: every tag sits on many paths.
    fn two_tag_schema(depth: usize) -> SchemaGraph {
        let mut paths = vec![vec!["r"], vec!["r", "a", "b"], vec!["r", "b", "a"]];
        for tag in ["a", "b"] {
            for k in 1..=depth {
                paths.push(std::iter::once("r").chain(std::iter::repeat_n(tag, k)).collect());
            }
        }
        SchemaGraph::from_source_paths(paths)
    }

    /// The paths of a linear query's one path-set selection.
    fn selected_paths(plan: &Plan) -> Vec<String> {
        match plan {
            Plan::Select(Selection { source: SelectSource::Paths(paths), .. }) => {
                paths.iter().map(|p| format!("/{}", p.join("/"))).collect()
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn unfolds_interior_descendant_to_equality_selection() {
        // Example 4.2: protein//superfamily unfolds through
        // classification.
        let q = parse("/db/entry/protein//superfamily").unwrap();
        let plan = translate_unfold(&q, &protein_schema()).unwrap();
        let s = plan.summary();
        assert_eq!(s.d_joins, 0, "{plan}");
        assert_eq!(s.eq_selections, 1);
        assert_eq!(s.range_selections, 0);
        assert_eq!(selected_paths(&plan), ["/db/entry/protein/classification/superfamily"]);
    }

    #[test]
    fn unfolds_leading_descendant() {
        let q = parse("//authors/author").unwrap();
        let plan = translate_unfold(&q, &protein_schema()).unwrap();
        let s = plan.summary();
        assert_eq!(s.d_joins, 0);
        assert_eq!(s.eq_selections, 1);
        // Unfolded paths are root-anchored.
        assert_eq!(selected_paths(&plan), ["/db/entry/reference/refinfo/authors/author"]);
    }

    #[test]
    fn wildcard_substituted() {
        let q = parse("/db/entry/*").unwrap();
        let plan = translate_unfold(&q, &protein_schema()).unwrap();
        // entry has two possible children → one selection over both.
        let s = plan.summary();
        assert_eq!((s.unions, s.eq_selections), (0, 1));
        assert_eq!(selected_paths(&plan), ["/db/entry/protein", "/db/entry/reference"]);
    }

    #[test]
    fn unsatisfiable_query_yields_empty_union() {
        let plan = translate_unfold(&parse("/db/bogus//author").unwrap(), &protein_schema());
        assert!(selected_paths(&plan.unwrap()).is_empty());
        let twig = translate_unfold(&parse("/db/bogus[x]//author").unwrap(), &protein_schema());
        assert_eq!(twig.unwrap(), Plan::Union(Vec::new()));
    }

    #[test]
    fn recursive_schema_bounded_by_depth() {
        let s = SchemaGraph::from_source_paths([
            &["site"][..],
            &["site", "parlist"],
            &["site", "parlist", "listitem"],
            &["site", "parlist", "listitem", "parlist"],
            &["site", "parlist", "listitem", "parlist", "listitem"],
        ]);
        let q = parse("//listitem").unwrap();
        let plan = translate_unfold(&q, &s).unwrap();
        assert_eq!(
            selected_paths(&plan),
            ["/site/parlist/listitem", "/site/parlist/listitem/parlist/listitem"]
        );
        assert_eq!(plan.summary().d_joins, 0);
    }

    #[test]
    fn each_matching_path_is_one_arm() {
        let s = two_tag_schema(12);
        // A `//` chain that can split one path many ways still names it
        // once, and nothing the summary lacks is invented.
        let unfold = |xpath: &str| translate_unfold(&parse(xpath).unwrap(), &s).unwrap();
        for (xpath, want) in
            [("//a", 13), ("//a//b", 1), ("/r//a/b", 1), ("//*", 27), ("//a//a//a", 10)]
        {
            let plan = unfold(xpath);
            let arms = selected_paths(&plan);
            assert_eq!(arms.len(), want, "{xpath}: {arms:?}");
            let mut distinct = arms.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), arms.len(), "{xpath}");
            assert_eq!(plan.summary().d_joins, 0, "{xpath}");
        }
        assert_eq!(selected_paths(&unfold("/r/*/b")), ["/r/a/b", "/r/b/b"]);
    }

    #[test]
    fn branches_keep_joins_but_selections_become_equalities() {
        let q = parse("/db/entry[reference//author]/protein").unwrap();
        let plan = translate_unfold(&q, &protein_schema()).unwrap();
        let s = plan.summary();
        assert_eq!(s.d_joins, 2, "{plan}"); // entry⋈author-path, entry⋈protein
        assert_eq!(s.range_selections, 0);
        assert_eq!(s.eq_selections, 3);
    }

    #[test]
    fn value_predicates_survive_unfolding() {
        let q = parse("/db/entry//author='X'").unwrap();
        let plan = translate_unfold(&q, &protein_schema()).unwrap();
        let s = plan.summary();
        assert_eq!(s.value_filters, 1);
        assert_eq!(s.d_joins, 0);
    }

    #[test]
    fn cap_enforced() {
        // A twig multiplies: each binding of `*` times its children, twice.
        let s = two_tag_schema(12);
        let err = unfold_rewritings(&parse("//*[*][*]").unwrap(), &s, 4).unwrap_err();
        assert!(matches!(err, TranslateError::TooManyUnfoldings { cap: 4 }));
        // A linear query is one selection over its paths, uncapped.
        assert_eq!(selected_paths(&translate_unfold(&parse("//*").unwrap(), &s).unwrap()).len(), 27);
    }
}
