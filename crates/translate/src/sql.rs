//! SQL generation: render a bound plan as the standard SQL the paper's
//! query translator emits (Example 3.1, §4).
//!
//! The output follows the paper's conventions: one aliased reference to
//! `SP` (BLAS) or `SD` (baseline) per selection, `start`/`end`
//! comparisons as join predicates, optional `level` predicates for
//! known offsets, and a final projection of the output side's `start`.
//! Unions become `UNION ALL` blocks (unfolded paths are disjoint, so no
//! duplicate elimination is needed — §4.1.3), one per union-free arm.

use crate::bind::{BoundPlan, BoundSelection, BoundSource};
use crate::plan::Side;
use blas_labeling::PInterval;
use std::fmt::Write as _;

/// Render `plan` as a SQL query string.
pub fn render_sql(plan: &BoundPlan) -> String {
    let arms = plan.arms();
    if arms.is_empty() {
        return "SELECT start FROM SP WHERE 1 = 0".to_string();
    }
    arms.iter().map(render_single).collect::<Vec<_>>().join("\nUNION ALL\n")
}

/// Render one union-free plan as a SELECT.
fn render_single(plan: &BoundPlan) -> String {
    let mut gen = SqlGen::default();
    let output_alias = gen.walk(plan);
    let mut sql = String::new();
    let _ = write!(sql, "SELECT {output_alias}.start");
    let _ = write!(sql, "\nFROM {}", gen.from.join(", "));
    if !gen.predicates.is_empty() {
        let _ = write!(sql, "\nWHERE {}", gen.predicates.join("\n  AND "));
    }
    sql
}

#[derive(Default)]
struct SqlGen {
    from: Vec<String>,
    predicates: Vec<String>,
    counter: u32,
}

impl SqlGen {
    /// Returns the alias carrying the subplan's output bindings.
    fn walk(&mut self, plan: &BoundPlan) -> String {
        match plan {
            BoundPlan::Select(sel) => self.selection(sel),
            BoundPlan::DJoin { anc, desc, level_diff, output } => {
                let a = self.walk(anc);
                let d = self.walk(desc);
                self.predicates.push(format!("{a}.start < {d}.start"));
                self.predicates.push(format!("{a}.end > {d}.end"));
                if let Some(k) = level_diff {
                    self.predicates.push(format!("{d}.level = {a}.level + {k}"));
                }
                match output {
                    Side::Anc => a,
                    Side::Desc => d,
                }
            }
            BoundPlan::Union(_) => unreachable!("nested unions are not produced by the translators"),
        }
    }

    fn selection(&mut self, sel: &BoundSelection) -> String {
        self.counter += 1;
        let alias = format!("T{}", self.counter);
        let rel = match sel.source {
            BoundSource::Tag(_) | BoundSource::All => "SD",
            _ => "SP",
        };
        self.from.push(format!("{rel} {alias}"));
        match &sel.source {
            BoundSource::PLabels(intervals) => {
                let one = |iv: &PInterval| match iv.p1 == iv.p2 {
                    true => format!("{alias}.plabel = {}", iv.p1),
                    false => format!("{alias}.plabel BETWEEN {} AND {}", iv.p1, iv.p2),
                };
                let pred = match &intervals[..] {
                    [iv] => one(iv),
                    _ => format!("({})", intervals.iter().map(one).collect::<Vec<_>>().join(" OR ")),
                };
                self.predicates.push(pred);
            }
            BoundSource::Tag(t) => self.predicates.push(format!("{alias}.tag = {}", t.0)),
            BoundSource::All => {}
            BoundSource::Empty => self.predicates.push("1 = 0".to_string()),
        }
        if let Some(v) = &sel.value_eq {
            self.predicates.push(format!("{alias}.data = '{}'", v.replace('\'', "''")));
        }
        if let Some(k) = sel.level_eq {
            self.predicates.push(format!("{alias}.level = {k}"));
        }
        alias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::bind;
    use crate::decompose::{translate_dlabeling, translate_pushup};
    use crate::unfold::translate_unfold;
    use blas_labeling::label_document;
    use blas_xml::{Document, SchemaGraph};
    use blas_xpath::parse;

    fn setup() -> (Document, blas_labeling::PLabelDomain, SchemaGraph) {
        let doc = Document::parse(
            "<db><e><p><n>x</n></p><r><y>2001</y></r></e><e><x><n>z</n></x></e></db>",
        )
        .unwrap();
        let labels = label_document(&doc).unwrap();
        let schema = SchemaGraph::infer(&doc);
        (doc, labels.domain, schema)
    }

    #[test]
    fn suffix_path_is_a_single_select() {
        let (doc, dom, _) = setup();
        let plan = translate_pushup(&parse("/db/e/p/n").unwrap()).unwrap();
        let sql = render_sql(&bind(&plan, doc.tags(), &dom, &[]));
        assert!(sql.starts_with("SELECT T1.start"), "{sql}");
        assert!(sql.contains("FROM SP T1"), "{sql}");
        assert!(sql.contains("T1.plabel = "), "{sql}");
        assert!(!sql.contains("T2"), "no joins: {sql}");
    }

    #[test]
    fn djoin_emits_example_3_1_predicates() {
        let (doc, dom, _) = setup();
        let plan = translate_pushup(&parse("/db/e[r/y='2001']/p/n").unwrap()).unwrap();
        let sql = render_sql(&bind(&plan, doc.tags(), &dom, &[]));
        assert!(sql.contains("T1.start < T2.start"), "{sql}");
        assert!(sql.contains("T1.end > T2.end"), "{sql}");
        assert!(sql.contains("T2.level = T1.level + 2"), "{sql}");
        assert!(sql.contains("T2.data = '2001'"), "{sql}");
        // Projection is the output (n) side.
        assert!(sql.starts_with("SELECT T3.start"), "{sql}");
    }

    #[test]
    fn baseline_uses_sd_and_level_anchor() {
        let (doc, dom, _) = setup();
        let plan = translate_dlabeling(&parse("/db/e").unwrap()).unwrap();
        let sql = render_sql(&bind(&plan, doc.tags(), &dom, &[]));
        assert!(sql.contains("FROM SD T1, SD T2"), "{sql}");
        assert!(sql.contains("T1.level = 1"), "{sql}");
        assert!(sql.contains("T2.level = T1.level + 1"), "{sql}");
    }

    #[test]
    fn unfold_union_renders_union_all() {
        let (doc, dom, schema) = setup();
        // The branch `*/n` unfolds through both e/p/n and e/x/n.
        let plan = translate_unfold(&parse("/db/e[*/n]").unwrap(), &schema).unwrap();
        let sql = render_sql(&bind(&plan, doc.tags(), &dom, &[]));
        assert_eq!(sql.matches("UNION ALL").count(), 1, "{sql}");
        assert_eq!(sql.matches("SELECT").count(), 2, "{sql}");
    }

    #[test]
    fn empty_plan_renders_contradiction() {
        let (doc, dom, _) = setup();
        let plan = translate_pushup(&parse("/db/zzz").unwrap()).unwrap();
        let sql = render_sql(&bind(&plan, doc.tags(), &dom, &[]));
        assert!(sql.contains("1 = 0"), "{sql}");
    }

    #[test]
    fn quotes_escaped_in_values() {
        use crate::bind::BoundSelection;
        let bound = BoundPlan::Select(BoundSelection {
            source: BoundSource::PLabels(vec![PInterval { p1: 42, p2: 42 }]),
            value_eq: Some("O'Hara".to_string()),
            level_eq: None,
        });
        let sql = render_sql(&bound);
        assert!(sql.contains("'O''Hara'"), "{sql}");
    }
}
