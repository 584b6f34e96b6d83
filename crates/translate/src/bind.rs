//! Binding symbolic plans to a concrete document: tag names become
//! `TagId`s, suffix paths become P-label intervals (Algorithm 1), and
//! anchored paths become equality predicates (Prop. 3.2). Also renders
//! bound plans in the relational-algebra style of Fig. 11.

use crate::plan::{Plan, SelectSource, Side};
use blas_labeling::{LabelError, PLabelDomain};
use blas_xml::{TagId, TagInterner};
use std::fmt::Write as _;

/// Access path of a bound selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundSource {
    /// `plabel = p` over the SP clustering (anchored simple path).
    PLabelEq(u128),
    /// `p1 ≤ plabel ≤ p2` over the SP clustering (suffix path).
    PLabelRange(u128, u128),
    /// `tag = t` over the SD clustering (baseline).
    Tag(TagId),
    /// Full scan (baseline wildcard).
    All,
    /// Provably empty: a tag does not occur in the document, or the
    /// path is longer than the document is deep.
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

/// Resolve `plan` against a document's tag interner and P-label domain.
pub fn bind(plan: &Plan, tags: &TagInterner, domain: &PLabelDomain) -> BoundPlan {
    match plan {
        Plan::Select(sel) => {
            let source = match &sel.source {
                SelectSource::Path { anchored, tags: path } => bind_path(*anchored, path, tags, domain),
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
            anc: Box::new(bind(&j.anc, tags, domain)),
            desc: Box::new(bind(&j.desc, tags, domain)),
            level_diff: j.level_diff,
            output: j.output,
        },
        Plan::Union(alts) => {
            BoundPlan::Union(alts.iter().map(|a| bind(a, tags, domain)).collect())
        }
    }
}

fn bind_path(
    anchored: bool,
    path: &[String],
    tags: &TagInterner,
    domain: &PLabelDomain,
) -> BoundSource {
    let ids: Option<Vec<TagId>> = path.iter().map(|t| tags.get(t)).collect();
    let Some(ids) = ids else {
        return BoundSource::Empty;
    };
    match domain.path_interval(anchored, &ids) {
        Ok(interval) if anchored => BoundSource::PLabelEq(interval.p1),
        Ok(interval) => BoundSource::PLabelRange(interval.p1, interval.p2),
        // Too long to match anything in this document, or tags beyond
        // the domain: provably empty.
        Err(LabelError::PathTooLong { .. } | LabelError::TagOutOfRange { .. }) => BoundSource::Empty,
        Err(LabelError::DomainOverflow { .. } | LabelError::NotANodeLabel { .. }) => {
            unreachable!("path_interval neither builds a domain nor decodes a label")
        }
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
                BoundSource::PLabelEq(p) => (format!("plabel={p}"), "SP"),
                BoundSource::PLabelRange(p1, p2) => (format!("plabel≥{p1} ∧ plabel≤{p2}"), "SP"),
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
        let bound = bind(&plan, doc.tags(), &dom);
        match bound {
            BoundPlan::Select(BoundSelection { source: BoundSource::PLabelEq(_), .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unanchored_paths_bind_to_ranges() {
        let (doc, dom) = setup();
        let q = parse("//p/n").unwrap();
        let plan = translate_split(&q).unwrap();
        let bound = bind(&plan, doc.tags(), &dom);
        match bound {
            BoundPlan::Select(BoundSelection {
                source: BoundSource::PLabelRange(p1, p2), ..
            }) => assert!(p1 < p2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_tag_binds_to_empty() {
        let (doc, dom) = setup();
        let q = parse("/db/zzz").unwrap();
        let bound = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom);
        assert!(matches!(
            bound,
            BoundPlan::Select(BoundSelection { source: BoundSource::Empty, .. })
        ));
    }

    #[test]
    fn overlong_path_binds_to_empty() {
        let (doc, dom) = setup();
        let q = parse("/db/e/p/n/db/e/p/n/db/e/p/n").unwrap();
        let bound = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom);
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
        let bound = bind(&plan, doc.tags(), &dom);
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
        let bound = bind(&translate_dlabeling(&q).unwrap(), doc.tags(), &dom);
        let txt = render_algebra(&bound, doc.tags());
        // The baseline anchors the leading `/` step at level 1 (Fig. 11).
        assert!(txt.contains("σ[tag='db' ∧ level=1](SD)"), "{txt}");
        assert_eq!(txt.matches('⋈').count(), 2);
    }
}
