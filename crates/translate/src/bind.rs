//! Binding symbolic plans to a concrete document: tag names become
//! `TagId`s and every path selection becomes a set of P-label intervals
//! — a suffix path one interval (Algorithm 1), an anchored path one key
//! (Prop. 3.2), and an Unfold path set the maximal runs of consecutive
//! live keys it covers. Also renders bound plans in the
//! relational-algebra style of Fig. 11.

use crate::plan::{Plan, SelectSource, Side};
use blas_labeling::{LabelError, PInterval, PLabelDomain};
use blas_xml::{TagId, TagInterner};
use std::fmt::Write as _;

/// Access path of a bound selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundSource {
    /// `plabel ∈ [p1, p2] ∪ …` over the SP clustering: sorted, disjoint,
    /// non-empty intervals. An anchored path is `[p, p]`, a suffix path
    /// one interval, an unfolded chain one interval per run of
    /// consecutive live keys it matched.
    PLabels(Vec<PInterval>),
    /// `tag = t` over the SD clustering (baseline).
    Tag(TagId),
    /// Full scan (baseline wildcard).
    All,
    /// Provably empty: a tag does not occur in the document, the path
    /// is longer than the document is deep, or no live path matched.
    Empty,
}

/// A bound selection leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundSelection {
    /// Access path.
    pub source: BoundSource,
    /// Optional `data = value` filter.
    pub value_eq: Option<String>,
    /// Optional exact-level filter (baseline root anchoring).
    pub level_eq: Option<u16>,
}

/// A plan ready for execution against one document's store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundPlan {
    /// Indexed read.
    Select(BoundSelection),
    /// Structural join.
    DJoin {
        /// Ancestor-side input.
        anc: Box<BoundPlan>,
        /// Descendant-side input.
        desc: Box<BoundPlan>,
        /// Exact level offset, when known.
        level_diff: Option<u16>,
        /// Side whose bindings flow upward.
        output: Side,
    },
    /// Union of alternatives.
    Union(Vec<BoundPlan>),
}

impl BoundPlan {
    /// The plan's union arms: a top-level union's alternatives, or the
    /// plan itself. Unfold, the one translator that emits unions,
    /// emits them only at the top, so the arms are union-free.
    pub fn arms(&self) -> &[BoundPlan] {
        match self {
            BoundPlan::Union(alts) => alts,
            one => std::slice::from_ref(one),
        }
    }
}

/// Resolve `plan` against a document's tag interner and P-label domain.
/// `live` is the sorted list of P-labels that have a live tuple (the
/// store's path directory, `NodeStore::live_plabels`): an Unfold path
/// set binds to the maximal runs of consecutive entries of it that the
/// set covers. Every other source binds without it.
pub fn bind(plan: &Plan, tags: &TagInterner, domain: &PLabelDomain, live: &[u128]) -> BoundPlan {
    match plan {
        Plan::Select(sel) => {
            let source = match &sel.source {
                SelectSource::Path { anchored, tags: path } => {
                    match path_interval(*anchored, path, tags, domain) {
                        Some(interval) => BoundSource::PLabels(vec![interval]),
                        None => BoundSource::Empty,
                    }
                }
                SelectSource::Paths(paths) => bind_paths(paths, tags, domain, live),
                SelectSource::Tag(name) => match tags.get(name) {
                    Some(id) => BoundSource::Tag(id),
                    None => BoundSource::Empty,
                },
                SelectSource::All => BoundSource::All,
            };
            BoundPlan::Select(BoundSelection {
                source,
                value_eq: sel.value_eq.clone(),
                level_eq: sel.level_eq,
            })
        }
        Plan::DJoin(j) => BoundPlan::DJoin {
            anc: Box::new(bind(&j.anc, tags, domain, live)),
            desc: Box::new(bind(&j.desc, tags, domain, live)),
            level_diff: j.level_diff,
            output: j.output,
        },
        Plan::Union(alts) => {
            BoundPlan::Union(alts.iter().map(|a| bind(a, tags, domain, live)).collect())
        }
    }
}

/// The P-label interval of a path (`[p, p]` when anchored), or `None`
/// when it provably selects nothing.
fn path_interval(
    anchored: bool,
    path: &[String],
    tags: &TagInterner,
    domain: &PLabelDomain,
) -> Option<PInterval> {
    let ids = path.iter().map(|t| tags.get(t)).collect::<Option<Vec<TagId>>>()?;
    match domain.path_interval(anchored, &ids) {
        Ok(interval) if anchored => Some(PInterval { p1: interval.p1, p2: interval.p1 }),
        Ok(interval) => Some(interval),
        // Too long to match anything in this document, or tags beyond
        // the domain: provably empty.
        Err(LabelError::PathTooLong { .. } | LabelError::TagOutOfRange { .. }) => None,
        Err(LabelError::DomainOverflow { .. } | LabelError::NotANodeLabel { .. }) => {
            unreachable!("path_interval neither builds a domain nor decodes a label")
        }
    }
}

/// Coalesce a path set's keys into maximal runs of consecutive `live`
/// entries: no live key lies inside a run that the set does not cover,
/// so the run's interval selects exactly the set's nodes. A key with no
/// live tuple selects nothing and is dropped.
fn bind_paths(
    paths: &[Vec<String>],
    tags: &TagInterner,
    domain: &PLabelDomain,
    live: &[u128],
) -> BoundSource {
    let mut at: Vec<usize> = paths
        .iter()
        .filter_map(|p| path_interval(true, p, tags, domain))
        .filter_map(|key| live.binary_search(&key.p1).ok())
        .collect();
    at.sort_unstable();
    at.dedup();
    let runs: Vec<PInterval> = at
        .chunk_by(|a, b| a + 1 == *b)
        .map(|run| PInterval { p1: live[run[0]], p2: live[run[run.len() - 1]] })
        .collect();
    if runs.is_empty() {
        BoundSource::Empty
    } else {
        BoundSource::PLabels(runs)
    }
}

/// Render a bound plan in the relational-algebra style of Fig. 11:
/// numbered aliases `T1, T2, …`, `σ` selections over `SP`/`SD`, `⋈`
/// with start/end/level predicates, and a final projection of the
/// representative's `start`.
pub fn render_algebra(plan: &BoundPlan, tags: &TagInterner) -> String {
    let mut counter = 0u32;
    let mut body = String::new();
    let rep = render_rec(plan, tags, &mut counter, &mut body, 1);
    format!("π({rep}.start)(\n{body})")
}

/// Returns the representative alias of the subplan.
fn render_rec(
    plan: &BoundPlan,
    tags: &TagInterner,
    counter: &mut u32,
    out: &mut String,
    indent: usize,
) -> String {
    let pad = "  ".repeat(indent);
    match plan {
        BoundPlan::Select(sel) => {
            *counter += 1;
            let alias = format!("T{counter}");
            let (pred, rel) = match &sel.source {
                BoundSource::PLabels(intervals) => (plabel_predicate(intervals), "SP"),
                BoundSource::Tag(t) => (format!("tag='{}'", tags.name(*t)), "SD"),
                BoundSource::All => ("true".to_string(), "SD"),
                BoundSource::Empty => ("false".to_string(), "SP"),
            };
            let value = match &sel.value_eq {
                Some(v) => format!(" ∧ data='{v}'"),
                None => String::new(),
            };
            let level = match sel.level_eq {
                Some(k) => format!(" ∧ level={k}"),
                None => String::new(),
            };
            let _ = writeln!(out, "{pad}ρ({alias}, σ[{pred}{value}{level}]({rel}))");
            alias
        }
        BoundPlan::DJoin { anc, desc, level_diff, output } => {
            let a = render_rec(anc, tags, counter, out, indent + 1);
            let d = render_rec(desc, tags, counter, out, indent + 1);
            let lvl = match level_diff {
                Some(k) => format!(" ∧ {d}.level={a}.level+{k}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{pad}⋈[{a}.start<{d}.start ∧ {a}.end>{d}.end{lvl}]({a}, {d})"
            );
            match output {
                Side::Anc => a,
                Side::Desc => d,
            }
        }
        BoundPlan::Union(alts) => {
            let aliases: Vec<String> = alts
                .iter()
                .map(|alt| render_rec(alt, tags, counter, out, indent + 1))
                .collect();
            let _ = writeln!(out, "{pad}∪({})", aliases.join(", "));
            aliases.first().cloned().unwrap_or_else(|| "∅".to_string())
        }
    }
}

/// `plabel=p`, `plabel≥p1 ∧ plabel≤p2`, or a disjunction of them.
fn plabel_predicate(intervals: &[PInterval]) -> String {
    let one = |iv: &PInterval| match iv.p1 == iv.p2 {
        true => format!("plabel={}", iv.p1),
        false => format!("plabel≥{} ∧ plabel≤{}", iv.p1, iv.p2),
    };
    intervals.iter().map(one).collect::<Vec<_>>().join(" ∨ ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{translate_dlabeling, translate_pushup, translate_split};
    use blas_labeling::label_document;
    use blas_xml::Document;
    use blas_xpath::parse;

    fn setup() -> (Document, PLabelDomain) {
        let doc = Document::parse(
            "<db><e><p><n>x</n></p><r><y>2001</y></r></e><e><p><n>y</n></p></e></db>",
        )
        .unwrap();
        let labels = label_document(&doc).unwrap();
        (doc, labels.domain)
    }

    #[test]
    fn anchored_paths_bind_to_equality() {
        let (doc, dom) = setup();
        let q = parse("/db/e/p/n").unwrap();
        let plan = translate_pushup(&q).unwrap();
        let bound = bind(&plan, doc.tags(), &dom, &[]);
        match bound {
            BoundPlan::Select(BoundSelection { source: BoundSource::PLabels(iv), .. }) => {
                assert!(matches!(iv[..], [PInterval { p1, p2 }] if p1 == p2), "{iv:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unanchored_paths_bind_to_ranges() {
        let (doc, dom) = setup();
        let q = parse("//p/n").unwrap();
        let plan = translate_split(&q).unwrap();
        let bound = bind(&plan, doc.tags(), &dom, &[]);
        match bound {
            BoundPlan::Select(BoundSelection { source: BoundSource::PLabels(iv), .. }) => {
                assert!(matches!(iv[..], [PInterval { p1, p2 }] if p1 < p2), "{iv:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_tag_binds_to_empty() {
        let (doc, dom) = setup();
        let q = parse("/db/zzz").unwrap();
        let bound = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom, &[]);
        assert!(matches!(
            bound,
            BoundPlan::Select(BoundSelection { source: BoundSource::Empty, .. })
        ));
    }

    #[test]
    fn overlong_path_binds_to_empty() {
        let (doc, dom) = setup();
        let q = parse("/db/e/p/n/db/e/p/n/db/e/p/n").unwrap();
        let bound = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom, &[]);
        assert!(matches!(
            bound,
            BoundPlan::Select(BoundSelection { source: BoundSource::Empty, .. })
        ));
    }

    #[test]
    fn render_fig11_style() {
        let (doc, dom) = setup();
        let q = parse("/db/e[p/n]/r/y='2001'").unwrap();
        let plan = translate_pushup(&q).unwrap();
        let bound = bind(&plan, doc.tags(), &dom, &[]);
        let txt = render_algebra(&bound, doc.tags());
        assert!(txt.starts_with("π(T"), "{txt}");
        assert!(txt.contains("σ[plabel="), "{txt}");
        assert!(txt.contains("data='2001'"), "{txt}");
        assert!(txt.contains(".start<"), "{txt}");
        assert!(txt.contains(".level="), "{txt}");
    }

    #[test]
    fn render_baseline_uses_sd() {
        let (doc, dom) = setup();
        let q = parse("/db/e/p").unwrap();
        let bound = bind(&translate_dlabeling(&q).unwrap(), doc.tags(), &dom, &[]);
        let txt = render_algebra(&bound, doc.tags());
        // The baseline anchors the leading `/` step at level 1 (Fig. 11).
        assert!(txt.contains("σ[tag='db' ∧ level=1](SD)"), "{txt}");
        assert_eq!(txt.matches('⋈').count(), 2);
    }
}

#[cfg(test)]
mod path_set_tests {
    use super::*;
    use crate::plan::Selection;
    use blas_labeling::label_document;
    use blas_xml::Document;

    fn paths_select(paths: &[&[&str]]) -> Plan {
        Plan::Select(Selection {
            source: SelectSource::Paths(
                paths.iter().map(|p| p.iter().map(|t| t.to_string()).collect()).collect(),
            ),
            value_eq: None,
            level_eq: None,
        })
    }

    #[test]
    fn path_sets_coalesce_into_runs_of_consecutive_live_keys() {
        let doc = Document::parse("<r><a><c/></a><b><c/></b><c/></r>").unwrap();
        let labels = label_document(&doc).unwrap();
        let key = |path: &[&str]| {
            let ids: Vec<TagId> = path.iter().map(|t| doc.tags().get(t).unwrap()).collect();
            labels.domain.path_interval(true, &ids).unwrap().p1
        };
        let mut live: Vec<u128> = labels.plabels.clone();
        live.sort_unstable();
        live.dedup();
        let bound = |paths: &[&[&str]]| {
            match bind(&paths_select(paths), doc.tags(), &labels.domain, &live) {
                BoundPlan::Select(sel) => sel.source,
                other => panic!("{other:?}"),
            }
        };
        // The three `c` paths are the suffix `c`'s interval and nothing
        // else lives there: one run of consecutive keys, one interval.
        let c_paths: [&[&str]; 3] = [&["r", "c"], &["r", "b", "c"], &["r", "a", "c"]];
        let mut c: Vec<u128> = c_paths.iter().map(|p| key(p)).collect();
        c.sort_unstable();
        let run = |p1, p2| BoundSource::PLabels(vec![PInterval { p1, p2 }]);
        assert_eq!(bound(&c_paths), run(c[0], c[2]));
        // Without the middle key, the outer two are no longer consecutive.
        let outer: Vec<&[&str]> = c_paths.into_iter().filter(|p| key(p) != c[1]).collect();
        let two = BoundSource::PLabels(vec![PInterval { p1: c[0], p2: c[0] }, PInterval { p1: c[2], p2: c[2] }]);
        assert_eq!(bound(&outer), two);
        // Nothing live matched: provably empty.
        assert_eq!(bound(&[&["r", "zz"]]), BoundSource::Empty);
        assert_eq!(bound(&[]), BoundSource::Empty);
    }
}
