//! The logical plan model: P-label selections composed with D-joins.

use std::fmt;

/// How a selection reads tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectSource {
    /// A suffix path selection over the SP clustering. `anchored`
    /// (leading `/`) compiles to an *equality* selection on P-labels
    /// (Prop. 3.2: a simple path matches exactly one label); unanchored
    /// (leading `//`) compiles to a *range* selection.
    Path {
        /// Leading `/` (true) vs `//` (false).
        anchored: bool,
        /// Tag names, root-most first.
        tags: Vec<String>,
    },
    /// The nodes on any of a set of root-anchored source paths: the
    /// live paths an Unfold chain matched (§4.1.3). It binds to the
    /// P-label interval set of their keys, one clustered scan.
    Paths(Vec<Vec<String>>),
    /// All tuples with one tag, over the SD clustering (baseline).
    Tag(String),
    /// Every tuple (wildcard binding in the baseline).
    All,
}

/// A leaf of the plan: one indexed read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Access path.
    pub source: SelectSource,
    /// Optional `data = value` filter applied to the same tuples.
    pub value_eq: Option<String>,
    /// Optional exact-level filter. The D-labeling baseline uses
    /// `level = 1` to anchor a leading `/` step (Fig. 11:
    /// `σ tag='PLAYS' ∧ level=1`).
    pub level_eq: Option<u16>,
}

/// Which side of a D-join provides the bindings that flow upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The ancestor side (the join filters it).
    Anc,
    /// The descendant side (the join filters it).
    Desc,
}

/// A structural D-join between two sub-plans (§3.1, Example 4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DJoinNode {
    /// Plan producing ancestor-side bindings.
    pub anc: Box<Plan>,
    /// Plan producing descendant-side bindings.
    pub desc: Box<Plan>,
    /// `Some(k)`: descendant must be exactly `k` levels below the
    /// ancestor (known level offset from branch elimination); `None`:
    /// plain ancestor/descendant containment (descendant-axis cut).
    pub level_diff: Option<u16>,
    /// Which side's bindings the join returns.
    pub output: Side,
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Indexed read.
    Select(Selection),
    /// Structural join.
    DJoin(DJoinNode),
    /// Union of alternatives (Unfold). An empty union is the empty
    /// result.
    Union(Vec<Plan>),
}

impl Plan {
    /// Convenience: a path selection leaf.
    pub fn path(anchored: bool, tags: &[&str], value_eq: Option<&str>) -> Plan {
        Plan::Select(Selection {
            source: SelectSource::Path {
                anchored,
                tags: tags.iter().map(|s| s.to_string()).collect(),
            },
            value_eq: value_eq.map(str::to_string),
            level_eq: None,
        })
    }

    /// Count of plan features — the §4.2 / §5.2.2 efficiency metrics.
    pub fn summary(&self) -> PlanSummary {
        let mut s = PlanSummary::default();
        self.accumulate(&mut s);
        s
    }

    fn accumulate(&self, s: &mut PlanSummary) {
        match self {
            Plan::Select(sel) => {
                match &sel.source {
                    SelectSource::Path { anchored: true, .. } | SelectSource::Paths(_) => {
                        s.eq_selections += 1
                    }
                    SelectSource::Path { anchored: false, .. } => s.range_selections += 1,
                    SelectSource::Tag(_) => s.tag_scans += 1,
                    SelectSource::All => s.all_scans += 1,
                }
                if sel.value_eq.is_some() {
                    s.value_filters += 1;
                }
            }
            Plan::DJoin(j) => {
                s.d_joins += 1;
                if j.level_diff.is_some() {
                    s.level_constrained_joins += 1;
                }
                j.anc.accumulate(s);
                j.desc.accumulate(s);
            }
            Plan::Union(alts) => {
                s.unions += 1;
                for alt in alts {
                    alt.accumulate(s);
                }
            }
        }
    }
}

/// Plan-shape metrics: the paper argues efficiency via the number of
/// D-joins and the selection mix (§4.2, §5.2.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Total D-joins in the plan.
    pub d_joins: u32,
    /// D-joins carrying an exact level constraint.
    pub level_constrained_joins: u32,
    /// Equality selections on P-labels: anchored simple paths, and
    /// Unfold's path sets (`plabel ∈ {…}`).
    pub eq_selections: u32,
    /// Range selections on P-labels (suffix paths).
    pub range_selections: u32,
    /// Tag scans (D-labeling baseline).
    pub tag_scans: u32,
    /// Whole-relation scans (wildcards in the baseline).
    pub all_scans: u32,
    /// Union nodes (Unfold).
    pub unions: u32,
    /// Selections with an attached `data =` filter.
    pub value_filters: u32,
}

impl fmt::Display for SelectSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectSource::Path { anchored, tags } => {
                write!(f, "{}", if *anchored { "/" } else { "//" })?;
                write!(f, "{}", tags.join("/"))
            }
            SelectSource::Paths(paths) => {
                let paths: Vec<String> = paths.iter().map(|p| format!("/{}", p.join("/"))).collect();
                write!(f, "{{{}}}", paths.join(", "))
            }
            SelectSource::Tag(t) => write!(f, "tag={t}"),
            SelectSource::All => write!(f, "*"),
        }
    }
}

impl fmt::Display for Plan {
    /// Compact textual plan (indented tree).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(p: &Plan, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match p {
                Plan::Select(sel) => {
                    write!(f, "{pad}select {}", sel.source)?;
                    if let Some(v) = &sel.value_eq {
                        write!(f, " [data = {v:?}]")?;
                    }
                    writeln!(f)
                }
                Plan::DJoin(j) => {
                    let lvl = match j.level_diff {
                        Some(k) => format!(", level+{k}"),
                        None => String::new(),
                    };
                    let out = match j.output {
                        Side::Anc => "anc",
                        Side::Desc => "desc",
                    };
                    writeln!(f, "{pad}d-join (output={out}{lvl})")?;
                    rec(&j.anc, f, indent + 1)?;
                    rec(&j.desc, f, indent + 1)
                }
                Plan::Union(alts) => {
                    writeln!(f, "{pad}union ({} branches)", alts.len())?;
                    for alt in alts {
                        rec(alt, f, indent + 1)?;
                    }
                    Ok(())
                }
            }
        }
        rec(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> Plan {
        Plan::DJoin(DJoinNode {
            anc: Box::new(Plan::path(true, &["a", "b"], None)),
            desc: Box::new(Plan::Union(vec![
                Plan::path(false, &["c"], Some("x")),
                Plan::path(true, &["a", "b", "c"], None),
            ])),
            level_diff: Some(1),
            output: Side::Anc,
        })
    }

    #[test]
    fn summary_counts_features() {
        let s = sample_plan().summary();
        assert_eq!(s.d_joins, 1);
        assert_eq!(s.level_constrained_joins, 1);
        assert_eq!(s.eq_selections, 2);
        assert_eq!(s.range_selections, 1);
        assert_eq!(s.unions, 1);
        assert_eq!(s.value_filters, 1);
        assert_eq!(s.tag_scans, 0);
    }

    #[test]
    fn display_renders_tree() {
        let txt = sample_plan().to_string();
        assert!(txt.contains("d-join (output=anc, level+1)"), "{txt}");
        assert!(txt.contains("select /a/b"), "{txt}");
        assert!(txt.contains("select //c [data = \"x\"]"), "{txt}");
        assert!(txt.contains("union (2 branches)"), "{txt}");
    }
}
