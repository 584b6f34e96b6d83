//! Property tests for the labeling invariants of §3.
//!
//! * Def. 3.1 — D-labels decide ancestor/descendant/child exactly.
//! * Def. 3.2 — P-label intervals of suffix paths are either nested
//!   (iff one path is a suffix of the other, modulo anchoring) or
//!   disjoint.
//! * Def. 3.3 / Prop. 3.2 — a suffix path query selects exactly the
//!   nodes whose source path is contained in it.

use blas_labeling::{assign_dlabels, LabelError, PLabelDomain};
use blas_xml::{Document, TagId};
use proptest::prelude::*;

const NUM_TAGS: usize = 5;
const MAX_DEPTH: u16 = 6;

fn tag_path() -> impl Strategy<Value = Vec<TagId>> {
    prop::collection::vec(0u32..NUM_TAGS as u32, 1..=MAX_DEPTH as usize)
        .prop_map(|v| v.into_iter().map(TagId).collect())
}

/// Is `suffix` a suffix of `path`?
fn is_suffix(path: &[TagId], suffix: &[TagId]) -> bool {
    path.len() >= suffix.len() && &path[path.len() - suffix.len()..] == suffix
}

/// Random small XML document over tags t0..t4.
fn xml_doc() -> impl Strategy<Value = String> {
    let leaf = (0u32..NUM_TAGS as u32).prop_map(|t| format!("<t{t}/>"));
    leaf.prop_recursive(4, 48, 4, |inner| {
        ((0u32..NUM_TAGS as u32), prop::collection::vec(inner, 0..4))
            .prop_map(|(t, kids)| format!("<t{t}>{}</t{t}>", kids.concat()))
    })
}

proptest! {
    /// Containment of suffix-path intervals ⇔ suffix relationship
    /// (both unanchored, Def. 2.3 semantics).
    #[test]
    fn interval_containment_iff_suffix(a in tag_path(), b in tag_path()) {
        let dom = PLabelDomain::new(NUM_TAGS, MAX_DEPTH).unwrap();
        let ia = dom.path_interval(false, &a).unwrap();
        let ib = dom.path_interval(false, &b).unwrap();
        prop_assert_eq!(ib.contains_interval(&ia), is_suffix(&a, &b));
        prop_assert_eq!(ia.contains_interval(&ib), is_suffix(&b, &a));
        // Two suffix paths are either nested or disjoint (§3.2.1).
        let nested = ia.contains_interval(&ib) || ib.contains_interval(&ia);
        prop_assert_eq!(ia.disjoint_from(&ib), !nested);
    }

    /// An anchored path's interval is inside its unanchored version and
    /// never wider.
    #[test]
    fn anchored_within_unanchored(a in tag_path()) {
        let dom = PLabelDomain::new(NUM_TAGS, MAX_DEPTH).unwrap();
        let anchored = dom.path_interval(true, &a).unwrap();
        let floating = dom.path_interval(false, &a).unwrap();
        prop_assert!(floating.contains_interval(&anchored));
        prop_assert!(anchored.is_valid() && floating.is_valid());
    }

    /// Prop. 3.2 on random documents: a suffix query's interval selects
    /// exactly the nodes whose source path has the query as a suffix
    /// (or equals it, when anchored).
    #[test]
    fn query_selects_exactly_matching_nodes(src in xml_doc(), q in tag_path(), anchored in any::<bool>()) {
        let doc = Document::parse(&src).unwrap();
        let dom = PLabelDomain::for_document(&doc).unwrap();
        let plabels = dom.node_plabels(&doc);
        // Remap query tags into the document's interner; unknown tags
        // cannot match anything.
        let mapped: Option<Vec<TagId>> =
            q.iter().map(|t| doc.tags().get(&format!("t{}", t.0))).collect();
        let Some(mapped) = mapped else { return Ok(()); };
        let Ok(interval) = dom.path_interval(anchored, &mapped) else { return Ok(()); };
        for id in doc.node_ids() {
            let sp = doc.source_path(id);
            let expected = if anchored { sp == mapped } else { is_suffix(&sp, &mapped) };
            prop_assert_eq!(
                interval.contains_label(plabels[id.index()]),
                expected,
                "node {:?} sp {:?} query {:?}", id, sp, &mapped
            );
        }
    }

    /// Def. 3.1 on random documents: D-labels decide ancestry exactly,
    /// and the child property singles out parents.
    #[test]
    fn dlabels_decide_ancestry(src in xml_doc()) {
        let doc = Document::parse(&src).unwrap();
        let labels = assign_dlabels(&doc);
        for a in doc.node_ids() {
            for b in doc.node_ids() {
                if a == b { continue; }
                let mut cur = doc.node(b).parent;
                let mut anc = false;
                while let Some(p) = cur {
                    if p == a { anc = true; break; }
                    cur = doc.node(p).parent;
                }
                let la = labels[a.index()];
                let lb = labels[b.index()];
                prop_assert_eq!(la.is_ancestor_of(&lb), anc);
                prop_assert_eq!(la.is_parent_of(&lb), doc.node(b).parent == Some(a));
                prop_assert_eq!(la.disjoint_from(&lb), !anc && !lb.is_ancestor_of(&la));
            }
        }
    }

    /// Incremental Algorithm-2 labeling agrees with per-path Algorithm 1.
    #[test]
    fn node_plabels_equal_source_path_labels(src in xml_doc()) {
        let doc = Document::parse(&src).unwrap();
        let dom = PLabelDomain::for_document(&doc).unwrap();
        let plabels = dom.node_plabels(&doc);
        for id in doc.node_ids() {
            let sp = doc.source_path(id);
            prop_assert_eq!(plabels[id.index()], dom.plabel_of_path(&sp).unwrap());
        }
    }

    /// `path_of_plabel` is the exact inverse of `plabel_of_path` over
    /// random alphabets and depths: every anchored path round-trips.
    #[test]
    fn path_of_plabel_inverts_plabel_of_path(
        num_tags in 1usize..40,
        max_depth in 1u16..9,
        picks in prop::collection::vec(0u32..1000, 0..9),
    ) {
        let dom = PLabelDomain::new(num_tags, max_depth).unwrap();
        let path: Vec<TagId> = picks
            .iter()
            .take(max_depth as usize)
            .map(|p| TagId(p % num_tags as u32))
            .collect();
        let plabel = dom.plabel_of_path(&path).unwrap();
        prop_assert_eq!(dom.path_of_plabel(plabel).unwrap(), path.clone());
        // Shifting the leading digit out names the parent's path.
        if let Some((_, parent)) = path.split_last() {
            prop_assert_eq!(dom.parent_plabel(plabel), dom.plabel_of_path(parent).unwrap());
        }
    }

    /// Every number in a small domain either decodes to a path that
    /// re-encodes to itself or is rejected with the typed error — never
    /// a panic, never a lossy decode.
    #[test]
    fn path_of_plabel_is_total_and_exact(num_tags in 0usize..5, digits in 1u32..5) {
        let dom = PLabelDomain::with_digits(num_tags, digits).unwrap();
        for p in 0..dom.m() + 3 {
            match dom.path_of_plabel(p) {
                Ok(path) => prop_assert_eq!(dom.plabel_of_path(&path).unwrap(), p),
                Err(e) => prop_assert!(
                    matches!(e, LabelError::NotANodeLabel { plabel, .. } if plabel == p),
                    "{:?}", e
                ),
            }
        }
    }
}
