//! P-labeling (§3.2): path-containment labels for suffix path queries.
//!
//! With uniform ratios `r_i = 1/(n+1)` the recursive interval partition
//! of §3.2.2 is exactly positional arithmetic in base `n+1`: writing a
//! P-label as `H` digits (most significant first), the interval of the
//! suffix path `//t1/…/tk` fixes digits `1..k` to
//! `(tk+1, t(k-1)+1, …, t1+1)` — *last tag first* — and lets the
//! remaining digits range freely; a leading `/` additionally fixes digit
//! `k+1` to `0` (the `/` ratio slot). A node's P-label is `p1` of its
//! source-path interval (Def. 3.3), i.e. the digit string of its
//! reversed source path padded with zeros.
//!
//! This digit view lets us run Algorithms 1 and 2 in exact `u128`
//! arithmetic with no overflow surprises: all interval lengths are powers
//! of `n+1`.

use crate::error::LabelError;
use blas_xml::{Document, NodeId, TagId};

/// An integer interval `<p1, p2>` (a P-label of a suffix path, Def. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PInterval {
    /// Inclusive lower end.
    pub p1: u128,
    /// Inclusive upper end.
    pub p2: u128,
}

impl PInterval {
    /// Validation property: `p1 ≤ p2`.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.p1 <= self.p2
    }

    /// Whether a node P-label falls in this interval (Prop. 3.2).
    #[inline]
    pub fn contains_label(&self, plabel: u128) -> bool {
        self.p1 <= plabel && plabel <= self.p2
    }

    /// Interval containment — path containment (Def. 3.2 Containment).
    #[inline]
    pub fn contains_interval(&self, other: &PInterval) -> bool {
        self.p1 <= other.p1 && other.p2 <= self.p2
    }

    /// Nonintersection property.
    #[inline]
    pub fn disjoint_from(&self, other: &PInterval) -> bool {
        self.p2 < other.p1 || other.p2 < self.p1
    }

    /// An equality interval (`p1 == p2`), produced for simple paths of
    /// maximal specificity — these compile to equality selections.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.p1 == self.p2
    }
}

/// The P-label number domain `[0, m−1]`, `m = (n+1)^H`.
///
/// `n` is the number of distinct tags and `H = h + 1` where `h` is the
/// deepest level the instance can reach. Shared between node labeling
/// (Algorithm 2) and query labeling (Algorithm 1): both sides must use
/// the same domain or containment tests are meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PLabelDomain {
    /// `n + 1`: one ratio slot per tag plus one for `/`.
    base: u128,
    /// Number of base-`base` digits `H`.
    digits: u32,
    /// `base^digits`.
    m: u128,
    /// Number of distinct tags `n`.
    num_tags: usize,
}

impl PLabelDomain {
    /// Domain for `num_tags` distinct tags and instances of depth at most
    /// `max_depth` levels (root = 1). Uses `H = max_depth + 1` digits.
    pub fn new(num_tags: usize, max_depth: u16) -> Result<Self, LabelError> {
        Self::with_digits(num_tags, u32::from(max_depth) + 1)
    }

    /// Domain with an explicit digit count `H` (used by tests that mirror
    /// the paper's Fig. 5 example, which fixes `m = 10^12`).
    pub fn with_digits(num_tags: usize, digits: u32) -> Result<Self, LabelError> {
        let base = num_tags as u128 + 1;
        let mut m: u128 = 1;
        for _ in 0..digits {
            m = m
                .checked_mul(base)
                .ok_or(LabelError::DomainOverflow { num_tags, digits })?;
        }
        Ok(Self { base, digits, m, num_tags })
    }

    /// Domain sized for one document: its distinct tags and actual depth.
    pub fn for_document(doc: &Document) -> Result<Self, LabelError> {
        Self::new(doc.tags().len(), doc.depth())
    }

    /// The domain size `m` (labels live in `[0, m−1]`).
    pub fn m(&self) -> u128 {
        self.m
    }

    /// The partition base `n + 1`.
    pub fn base(&self) -> u128 {
        self.base
    }

    /// Digits `H`.
    pub fn digits(&self) -> u32 {
        self.digits
    }

    /// Number of tags `n`.
    pub fn num_tags(&self) -> usize {
        self.num_tags
    }

    /// Longest path (in tags) a query or node may have: `H − 1` for
    /// anchored paths (one digit reserved for `/`), `H` for unanchored.
    pub fn max_path_len(&self, anchored: bool) -> usize {
        if anchored {
            self.digits as usize - 1
        } else {
            self.digits as usize
        }
    }

    fn check_tag(&self, tag: TagId) -> Result<(), LabelError> {
        if tag.index() >= self.num_tags {
            return Err(LabelError::TagOutOfRange {
                tag_index: tag.index(),
                num_tags: self.num_tags,
            });
        }
        Ok(())
    }

    /// `base^(digits − 1 − offset)`: the weight of digit `offset + 1`.
    fn weight(&self, offset: u32) -> u128 {
        let mut w = 1u128;
        for _ in 0..(self.digits - 1 - offset) {
            w *= self.base;
        }
        w
    }

    /// **Algorithm 1** — the P-label interval of a suffix path query
    /// `α t1/t2/…/tk` with `α ∈ {/, //}` (`anchored` ⇔ `α = /`).
    ///
    /// Digits `1..k` are fixed to the reversed tag sequence; an anchored
    /// path also fixes digit `k+1` to the `/` slot (0).
    pub fn path_interval(&self, anchored: bool, tags: &[TagId]) -> Result<PInterval, LabelError> {
        let fixed = tags.len() + usize::from(anchored);
        if fixed > self.digits as usize {
            return Err(LabelError::PathTooLong {
                len: tags.len(),
                max: self.max_path_len(anchored),
            });
        }
        let mut p1: u128 = 0;
        for (i, &tag) in tags.iter().rev().enumerate() {
            self.check_tag(tag)?;
            p1 += (tag.index() as u128 + 1) * self.weight(i as u32);
        }
        // Anchored: digit k+1 is the `/` slot, value 0 — contributes
        // nothing to p1 but shrinks the free-digit range by one digit.
        let free_digits = self.digits - fixed as u32;
        let mut free_len = 1u128;
        for _ in 0..free_digits {
            free_len *= self.base;
        }
        Ok(PInterval { p1, p2: p1 + free_len - 1 })
    }

    /// The P-label of an XML *node* whose source path is `tags`
    /// (root-first): `p1` of the anchored interval (Def. 3.3).
    pub fn plabel_of_path(&self, tags: &[TagId]) -> Result<u128, LabelError> {
        Ok(self.path_interval(true, tags)?.p1)
    }

    /// The exact inverse of [`PLabelDomain::plabel_of_path`]: decode a
    /// node P-label digit by digit (most significant first: the node's
    /// own tag, then its parent's, … down to the root, then zeros
    /// only) into its root-first source path. Because a P-label *is*
    /// its node's source path, the distinct P-labels of a document are
    /// its path summary — this is how a schema graph is read off the
    /// SP run directory without touching a tree.
    pub fn path_of_plabel(&self, plabel: u128) -> Result<Vec<TagId>, LabelError> {
        if plabel >= self.m {
            return Err(LabelError::NotANodeLabel { plabel, reason: "outside the domain" });
        }
        let mut path = Vec::new();
        let mut weight = self.weight(0);
        let mut rest = plabel;
        for _ in 0..self.digits {
            let digit = rest / weight;
            rest %= weight;
            weight /= self.base;
            if digit != 0 {
                path.push(TagId(digit as u32 - 1));
            } else if rest != 0 {
                return Err(LabelError::NotANodeLabel {
                    plabel,
                    reason: "non-zero digit after a zero",
                });
            } else {
                path.reverse();
                return Ok(path);
            }
        }
        Err(LabelError::NotANodeLabel { plabel, reason: "no digit left for the / slot" })
    }

    /// Algorithm 2 run backwards: the P-label of a node's **parent**
    /// is the node's own with its leading digit shifted out (0 — the
    /// empty path — for the root).
    pub fn parent_plabel(&self, plabel: u128) -> u128 {
        (plabel % self.weight(0)) * self.base
    }

    /// **Algorithm 2** — label every node of `doc` by one DFS, using the
    /// incremental identity
    /// `plabel(child) = (tag+1)·base^(H−1) + plabel(parent)/base`
    /// (the division is exact: a node at level `d` has `H−d` zero
    /// digits). Panics if the document does not fit the domain; size the
    /// domain with [`PLabelDomain::for_document`].
    pub fn node_plabels(&self, doc: &Document) -> Vec<u128> {
        let top_weight = self.weight(0);
        let mut plabels = vec![0u128; doc.len()];
        // Iterative DFS carrying the parent plabel.
        let mut stack: Vec<(NodeId, u128)> = vec![(doc.root(), 0)];
        while let Some((id, parent_plabel)) = stack.pop() {
            let node = doc.node(id);
            assert!(
                (node.level as u32) < self.digits,
                "node at level {} exceeds domain depth {}",
                node.level,
                self.digits - 1
            );
            assert!(
                node.tag.index() < self.num_tags,
                "tag {} outside domain",
                node.tag.index()
            );
            let plabel = (node.tag.index() as u128 + 1) * top_weight + parent_plabel / self.base;
            plabels[id.index()] = plabel;
            for &child in &node.children {
                stack.push((child, plabel));
            }
        }
        plabels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_xml::TagInterner;

    /// The paper's Fig. 5 example: 99 tags, `m = 10^12` (base 100, 6
    /// digits), tag order `/`, ProteinDatabase, ProteinEntry, protein,
    /// name → indices 0..3.
    #[test]
    fn fig5_protein_example_exact() {
        let dom = PLabelDomain::with_digits(99, 6).unwrap();
        assert_eq!(dom.m(), 1_000_000_000_000);
        let mut tags = TagInterner::new();
        let pdb = tags.intern("ProteinDatabase");
        let pe = tags.intern("ProteinEntry");
        let protein = tags.intern("protein");
        let name = tags.intern("name");

        let e10 = 10_000_000_000u128; // 10^10
        // //name = <4·10^10, 5·10^10 − 1>
        let i = dom.path_interval(false, &[name]).unwrap();
        assert_eq!(i, PInterval { p1: 4 * e10, p2: 5 * e10 - 1 });
        // //protein/name = <4.03·10^10, 4.04·10^10 − 1>
        let i = dom.path_interval(false, &[protein, name]).unwrap();
        assert_eq!(i, PInterval { p1: 40_300_000_000, p2: 40_400_000_000 - 1 });
        // //ProteinEntry/protein/name = <4.0302·10^10, 4.0303·10^10 − 1>
        let i = dom.path_interval(false, &[pe, protein, name]).unwrap();
        assert_eq!(i, PInterval { p1: 40_302_000_000, p2: 40_303_000_000 - 1 });
        // //ProteinDatabase/ProteinEntry/protein/name
        let full = [pdb, pe, protein, name];
        let i = dom.path_interval(false, &full).unwrap();
        assert_eq!(i, PInterval { p1: 40_302_010_000, p2: 40_302_020_000 - 1 });
        // /ProteinDatabase/ProteinEntry/protein/name = <4.030201·10^10, 4.03020101·10^10 − 1>
        let i = dom.path_interval(true, &full).unwrap();
        assert_eq!(i, PInterval { p1: 40_302_010_000, p2: 40_302_010_100 - 1 });
        // Every node reachable by the path gets P-label 4.030201·10^10.
        assert_eq!(dom.plabel_of_path(&full).unwrap(), 40_302_010_000);
    }

    #[test]
    fn whole_domain_for_descendant_root() {
        let dom = PLabelDomain::with_digits(9, 4).unwrap();
        let i = dom.path_interval(false, &[]).unwrap();
        assert_eq!(i, PInterval { p1: 0, p2: dom.m() - 1 });
    }

    #[test]
    fn containment_iff_suffix() {
        let dom = PLabelDomain::with_digits(4, 5).unwrap();
        let t = |i: u32| TagId(i);
        // //b/c ⊇ //a/b/c
        let bc = dom.path_interval(false, &[t(1), t(2)]).unwrap();
        let abc = dom.path_interval(false, &[t(0), t(1), t(2)]).unwrap();
        assert!(bc.contains_interval(&abc));
        assert!(!abc.contains_interval(&bc));
        // //b/c ⊇ /b/c
        let slash_bc = dom.path_interval(true, &[t(1), t(2)]).unwrap();
        assert!(bc.contains_interval(&slash_bc));
        // //a/c and //b/c disjoint
        let ac = dom.path_interval(false, &[t(0), t(2)]).unwrap();
        assert!(ac.disjoint_from(&bc) && bc.disjoint_from(&ac));
        // //c and //b: disjoint (different last tag)
        let c = dom.path_interval(false, &[t(2)]).unwrap();
        let b = dom.path_interval(false, &[t(1)]).unwrap();
        assert!(c.disjoint_from(&b));
        assert!(c.contains_interval(&bc));
    }

    #[test]
    fn anchored_full_depth_path_is_point() {
        // H = depth + 1, so a full-depth anchored simple path pins every
        // digit: the interval collapses to a point (equality selection).
        let dom = PLabelDomain::new(3, 3).unwrap(); // H = 4
        let path = [TagId(0), TagId(1), TagId(2)];
        let i = dom.path_interval(true, &path).unwrap();
        assert!(i.is_point());
    }

    #[test]
    fn path_too_long_rejected() {
        let dom = PLabelDomain::with_digits(3, 3).unwrap();
        let path = [TagId(0), TagId(1), TagId(2)];
        assert!(matches!(
            dom.path_interval(true, &path),
            Err(LabelError::PathTooLong { .. })
        ));
        assert!(dom.path_interval(false, &path).is_ok());
    }

    #[test]
    fn tag_out_of_range_rejected() {
        let dom = PLabelDomain::with_digits(2, 3).unwrap();
        assert!(matches!(
            dom.path_interval(false, &[TagId(5)]),
            Err(LabelError::TagOutOfRange { .. })
        ));
    }

    #[test]
    fn domain_overflow_detected() {
        assert!(matches!(
            PLabelDomain::new(1000, 50),
            Err(LabelError::DomainOverflow { .. })
        ));
    }

    #[test]
    fn node_plabels_match_source_paths() {
        let doc = Document::parse(
            "<db><e><p><n>x</n></p></e><e><r><y>2001</y></r></e></db>",
        )
        .unwrap();
        let dom = PLabelDomain::for_document(&doc).unwrap();
        let plabels = dom.node_plabels(&doc);
        for id in doc.node_ids() {
            let sp = doc.source_path(id);
            assert_eq!(
                plabels[id.index()],
                dom.plabel_of_path(&sp).unwrap(),
                "node {} plabel mismatch",
                doc.tag_name(id)
            );
        }
    }

    #[test]
    fn suffix_query_selects_exactly_matching_nodes() {
        let doc =
            Document::parse("<db><e><n>a</n></e><x><e><n>b</n></e></x><n>c</n></db>").unwrap();
        let dom = PLabelDomain::for_document(&doc).unwrap();
        let plabels = dom.node_plabels(&doc);
        let tags = doc.tags();
        let e = tags.get("e").unwrap();
        let n = tags.get("n").unwrap();
        // //e/n matches both <n>a</n> and <n>b</n> but not <n>c</n>.
        let q = dom.path_interval(false, &[e, n]).unwrap();
        let matched: Vec<&str> = doc
            .node_ids()
            .filter(|&id| q.contains_label(plabels[id.index()]))
            .map(|id| doc.node(id).text.as_deref().unwrap_or(""))
            .collect();
        assert_eq!(matched, ["a", "b"]);
        // /db/n matches only <n>c</n>.
        let db = tags.get("db").unwrap();
        let q = dom.path_interval(true, &[db, n]).unwrap();
        let matched: Vec<&str> = doc
            .node_ids()
            .filter(|&id| q.contains_label(plabels[id.index()]))
            .map(|id| doc.node(id).text.as_deref().unwrap_or(""))
            .collect();
        assert_eq!(matched, ["c"]);
    }

    #[test]
    fn path_of_plabel_rejects_what_no_node_can_carry() {
        // Base 3 (tags 0 and 1), 3 digits: labels are d1·9 + d2·3 + d3.
        let dom = PLabelDomain::with_digits(2, 3).unwrap();
        let t = |i: u32| TagId(i);
        // /t0/t1 → digits (t1+1, t0+1, 0) = (2, 1, 0).
        assert_eq!(dom.path_of_plabel(2 * 9 + 3).unwrap(), [t(0), t(1)]);
        assert_eq!(dom.path_of_plabel(0).unwrap(), []);
        let reason = |p| match dom.path_of_plabel(p) {
            Err(LabelError::NotANodeLabel { plabel, reason }) if plabel == p => reason,
            other => panic!("{p}: {other:?}"),
        };
        // A digit above the tag count can only come from outside [0, m).
        assert_eq!(reason(27), "outside the domain");
        assert_eq!(reason(u128::MAX), "outside the domain");
        // (1, 0, 2): a tag below the `/` slot.
        assert_eq!(reason(9 + 2), "non-zero digit after a zero");
        // (0, 1, 0): the node's own digit is missing.
        assert_eq!(reason(3), "non-zero digit after a zero");
        // (1, 1, 1): three tags leave no `/` digit in a 3-digit domain.
        assert_eq!(reason(13), "no digit left for the / slot");
    }

    #[test]
    fn intervals_for_same_tag_nest_by_specificity() {
        let dom = PLabelDomain::with_digits(9, 5).unwrap();
        let t = |i: u32| TagId(i);
        let i1 = dom.path_interval(false, &[t(3)]).unwrap();
        let i2 = dom.path_interval(false, &[t(2), t(3)]).unwrap();
        let i3 = dom.path_interval(false, &[t(1), t(2), t(3)]).unwrap();
        assert!(i1.contains_interval(&i2) && i2.contains_interval(&i3));
        assert!(i1.p2 - i1.p1 > i2.p2 - i2.p1);
    }
}
