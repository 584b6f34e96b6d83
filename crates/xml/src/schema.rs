//! The path summary: the schema information the Unfold translator uses.
//!
//! §4.1.3 of the paper unfolds `p//q` into the union of all simple paths
//! `//` can stand for. A document already says exactly which those are:
//! its distinct root-first source paths, one per live P-label. The
//! summary holds that set, sorted, so the paths extending any prefix are
//! one contiguous range of it ([`SchemaGraph::paths`]); the tag graph a
//! DTD would draw — roots, child tags, depth — is a view over it.

use crate::tree::Document;
use std::collections::BTreeSet;

/// A document's path summary: its distinct root-first tag paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaGraph {
    /// Sorted, distinct.
    paths: Vec<Vec<String>>,
}

impl SchemaGraph {
    /// Empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The summary of one document instance: the source path of every
    /// node.
    pub fn infer(doc: &Document) -> Self {
        let paths: BTreeSet<_> = doc.node_ids().map(|id| doc.source_path(id)).collect();
        Self::from_source_paths(
            paths.iter().map(|p| p.iter().map(|&t| doc.tags().name(t)).collect::<Vec<_>>()),
        )
    }

    /// The summary of a set of root-first source paths, in any order and
    /// with repeats — for the path set of a document this is exactly
    /// [`SchemaGraph::infer`] of that document, at a cost independent of
    /// its node count.
    pub fn from_source_paths<'a, P>(paths: impl IntoIterator<Item = P>) -> Self
    where
        P: AsRef<[&'a str]>,
    {
        let mut schema = Self {
            paths: paths
                .into_iter()
                .map(|p| p.as_ref().iter().map(|t| t.to_string()).collect())
                .collect(),
        };
        schema.normalize();
        schema
    }

    fn normalize(&mut self) {
        self.paths.sort_unstable();
        self.paths.dedup();
    }

    /// Merge another summary into this one (union of the path sets).
    /// Used when a database holds several documents.
    pub fn merge(&mut self, other: &SchemaGraph) {
        self.paths.extend_from_slice(&other.paths);
        self.normalize();
    }

    /// The distinct root-first tag paths, sorted lexicographically — so
    /// the paths extending any prefix form one contiguous range.
    pub fn paths(&self) -> &[Vec<String>] {
        &self.paths
    }

    /// The longest path (levels; root = 1), 0 when empty.
    pub fn depth_bound(&self) -> u16 {
        self.paths.iter().map(Vec::len).max().unwrap_or(0) as u16
    }

    /// Root tags: the one-tag paths.
    pub fn roots(&self) -> impl Iterator<Item = &str> {
        self.paths.iter().filter_map(|p| match p.as_slice() {
            [root] => Some(root.as_str()),
            _ => None,
        })
    }

    /// Tags that appear as a child of `parent` on some path, sorted.
    pub fn children_of(&self, parent: &str) -> impl Iterator<Item = &str> {
        let kids: BTreeSet<&str> = self
            .paths
            .iter()
            .flat_map(|p| p.windows(2))
            .filter(|pair| pair[0] == parent)
            .map(|pair| pair[1].as_str())
            .collect();
        kids.into_iter()
    }

    /// Whether `tag` occurs on any path.
    pub fn contains(&self, tag: &str) -> bool {
        self.paths.iter().flatten().any(|t| t == tag)
    }

    /// Every tag on some path, sorted.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        let tags: BTreeSet<&str> = self.paths.iter().flatten().map(String::as_str).collect();
        tags.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SchemaGraph {
        // db → entry → {protein → name, reference → {author, year}}
        SchemaGraph::from_source_paths([
            &["db"][..],
            &["db", "entry"],
            &["db", "entry", "protein"],
            &["db", "entry", "protein", "name"],
            &["db", "entry", "reference"],
            &["db", "entry", "reference", "author"],
            &["db", "entry", "reference", "year"],
        ])
    }

    fn strings(path: &[&str]) -> Vec<String> {
        path.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn declared_edges_queryable() {
        let s = sample();
        assert!(s.contains("protein"));
        assert!(!s.contains("bogus"));
        let kids: Vec<_> = s.children_of("entry").collect();
        assert_eq!(kids, ["protein", "reference"]);
        assert_eq!(s.roots().collect::<Vec<_>>(), ["db"]);
        assert_eq!(s.tags().count(), 7);
        assert_eq!(s.depth_bound(), 4);
    }

    #[test]
    fn infer_from_document() {
        let doc = Document::parse("<a><b><c/></b><b><d/></b></a>").unwrap();
        let s = SchemaGraph::infer(&doc);
        assert_eq!(s.roots().collect::<Vec<_>>(), ["a"]);
        let kids: Vec<_> = s.children_of("b").collect();
        assert_eq!(kids, ["c", "d"]);
        assert_eq!(s.depth_bound(), 3);
        // Two `b` nodes, one path.
        let want: Vec<_> = [&["a"][..], &["a", "b"], &["a", "b", "c"], &["a", "b", "d"]]
            .into_iter()
            .map(strings)
            .collect();
        assert_eq!(s.paths(), want);
    }

    #[test]
    fn from_source_paths_equals_infer() {
        let doc = Document::parse("<a><b><c/></b><b><d><b/></d></b><c/></a>").unwrap();
        let mut paths: Vec<Vec<&str>> = doc
            .node_ids()
            .map(|id| doc.source_path(id).into_iter().map(|t| doc.tags().name(t)).collect())
            .collect();
        paths.reverse(); // order and repeats must not matter
        assert_eq!(SchemaGraph::from_source_paths(&paths), SchemaGraph::infer(&doc));
        assert_eq!(SchemaGraph::from_source_paths(Vec::<Vec<&str>>::new()), SchemaGraph::new());
    }

    #[test]
    fn recursive_detection() {
        // A recursive DTD (XMark's parlist/listitem) shows as a cycle in
        // the child view and a repeated tag on one path.
        let doc = Document::parse(
            "<site><parlist><listitem><parlist><listitem/></parlist></listitem></parlist></site>",
        )
        .unwrap();
        let s = SchemaGraph::infer(&doc);
        assert!(s.children_of("parlist").any(|c| c == "listitem"));
        assert!(s.children_of("listitem").any(|c| c == "parlist"));
        let repeats = |p: &Vec<String>| p.iter().collect::<BTreeSet<_>>().len() < p.len();
        assert!(s.paths().iter().any(repeats));
        assert!(!sample().paths().iter().any(repeats));
    }

    #[test]
    fn recursive_paths_bounded() {
        // However the tags nest, the summary holds only the instance's
        // paths: nothing deeper than the document.
        let doc = Document::parse("<r><p><l><p><l/></p></l></p></r>").unwrap();
        let s = SchemaGraph::infer(&doc);
        assert_eq!(s.paths().len(), 5);
        assert_eq!(s.depth_bound(), 5);
        assert_eq!(s.paths().last().unwrap(), &strings(&["r", "p", "l", "p", "l"]));
    }

    #[test]
    fn extensions_of_a_prefix_are_one_range() {
        let s = sample();
        let prefix = strings(&["db", "entry", "reference"]);
        let under: Vec<_> = s.paths().iter().filter(|p| p.starts_with(&prefix)).collect();
        let at = s.paths().iter().position(|p| p == &prefix).unwrap();
        assert_eq!(under, s.paths()[at..at + 3].iter().collect::<Vec<_>>());
        assert!(s.paths().windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
    }

    #[test]
    fn roots_are_the_one_tag_paths() {
        let mut s = sample();
        s.merge(&SchemaGraph::from_source_paths([["other"]]));
        assert_eq!(s.roots().collect::<Vec<_>>(), ["db", "other"]);
        assert!(s.children_of("db").all(|c| c == "entry"));
    }

    #[test]
    fn merge_unions_edges() {
        let mut a = sample();
        let b = SchemaGraph::from_source_paths([
            &["db"][..],
            &["db", "entry"],
            &["db", "entry", "comment"],
            &["db", "entry", "comment", "x", "y", "z", "w", "v", "u"],
        ]);
        a.merge(&b);
        assert!(a.children_of("entry").any(|c| c == "comment"));
        assert_eq!(a.depth_bound(), 9);
        assert_eq!(a.paths().len(), 7 + 2);
    }
}
