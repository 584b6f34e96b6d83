//! Schema graph: the DTD abstraction used by the Unfold translator.
//!
//! §4.1.3 of the paper unfolds `p//q` into the union of all simple paths
//! the schema allows between `p`'s leaf and `q`. For non-recursive
//! schemas this enumeration is finite; for recursive schemas the paper
//! unfolds "to the depth of the XML tree" using instance statistics.
//! [`SchemaGraph`] supports both: it records tag adjacency (who can be a
//! child of whom), the possible root tags, and a depth bound.

use crate::tree::Document;
use std::collections::{BTreeMap, BTreeSet};

/// A directed graph over tag names: `parent → child` edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaGraph {
    children: BTreeMap<String, BTreeSet<String>>,
    roots: BTreeSet<String>,
    /// Upper bound on instance depth (levels, root = 1). For recursive
    /// schemas this is the unfolding bound (§4.1.3).
    depth_bound: u16,
}

impl SchemaGraph {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare `root` as a possible document root tag.
    pub fn declare_root(&mut self, root: &str) {
        self.roots.insert(root.to_string());
        self.children.entry(root.to_string()).or_default();
        self.depth_bound = self.depth_bound.max(1);
    }

    /// Declare that `child` may appear as a child of `parent`.
    pub fn declare_edge(&mut self, parent: &str, child: &str) {
        self.children
            .entry(parent.to_string())
            .or_default()
            .insert(child.to_string());
        self.children.entry(child.to_string()).or_default();
    }

    /// Set the unfolding depth bound (levels; root = 1).
    pub fn set_depth_bound(&mut self, depth: u16) {
        self.depth_bound = depth;
    }

    /// The unfolding depth bound.
    pub fn depth_bound(&self) -> u16 {
        self.depth_bound
    }

    /// Build a schema by scanning one document instance.
    pub fn infer(doc: &Document) -> Self {
        let mut schema = Self::new();
        schema.declare_root(doc.tag_name(doc.root()));
        for id in doc.node_ids() {
            let node = doc.node(id);
            if let Some(parent) = node.parent {
                schema.declare_edge(doc.tag_name(parent), doc.tag_name(id));
            }
        }
        schema.set_depth_bound(doc.depth());
        schema
    }

    /// Build a schema from a document's **path summary**: its distinct
    /// root-first source paths, in any order. Edges are the adjacent
    /// pairs of every path, the root is the tag of every one-tag path,
    /// and the depth bound is the longest path — for the path set of a
    /// document this is exactly [`SchemaGraph::infer`] of that
    /// document, at a cost independent of its node count.
    pub fn from_source_paths<'a, P>(paths: impl IntoIterator<Item = P>) -> Self
    where
        P: AsRef<[&'a str]>,
    {
        let mut schema = Self::new();
        for path in paths {
            let path = path.as_ref();
            if let [root] = path {
                schema.declare_root(root);
            }
            for pair in path.windows(2) {
                schema.declare_edge(pair[0], pair[1]);
            }
            schema.depth_bound = schema.depth_bound.max(path.len() as u16);
        }
        schema
    }

    /// Merge another schema into this one (union of edges/roots, max of
    /// depth bounds). Used when a database holds several documents.
    pub fn merge(&mut self, other: &SchemaGraph) {
        for root in &other.roots {
            self.declare_root(root);
        }
        for (parent, kids) in &other.children {
            for child in kids {
                self.declare_edge(parent, child);
            }
        }
        self.depth_bound = self.depth_bound.max(other.depth_bound);
    }

    /// Possible root tags.
    pub fn roots(&self) -> impl Iterator<Item = &str> {
        self.roots.iter().map(String::as_str)
    }

    /// Tags that may appear as children of `parent`.
    pub fn children_of(&self, parent: &str) -> impl Iterator<Item = &str> {
        self.children
            .get(parent)
            .into_iter()
            .flat_map(|set| set.iter().map(String::as_str))
    }

    /// Whether `tag` occurs anywhere in the schema.
    pub fn contains(&self, tag: &str) -> bool {
        self.children.contains_key(tag)
    }

    /// All known tags.
    pub fn tags(&self) -> impl Iterator<Item = &str> {
        self.children.keys().map(String::as_str)
    }

    /// True if the schema graph has a cycle (a recursive DTD, like
    /// XMark's `parlist/listitem`).
    pub fn is_recursive(&self) -> bool {
        // Iterative three-color DFS over the tag graph.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let idx: BTreeMap<&str, usize> = self
            .children
            .keys()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i))
            .collect();
        let mut color = vec![Color::White; idx.len()];
        for start in self.children.keys() {
            if color[idx[start.as_str()]] != Color::White {
                continue;
            }
            // Stack of (tag, next-child cursor as iterator snapshot index).
            let mut stack: Vec<(&str, Vec<&str>, usize)> = Vec::new();
            color[idx[start.as_str()]] = Color::Gray;
            let kids: Vec<&str> = self.children_of(start).collect();
            stack.push((start, kids, 0));
            while let Some((tag, kids, cursor)) = stack.last_mut() {
                if let Some(&next) = kids.get(*cursor) {
                    *cursor += 1;
                    match color[idx[next]] {
                        Color::Gray => return true,
                        Color::White => {
                            color[idx[next]] = Color::Gray;
                            let nk: Vec<&str> = self.children_of(next).collect();
                            stack.push((next, nk, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[idx[*tag]] = Color::Black;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Enumerate all downward tag paths `from → … → to` (excluding
    /// `from`, including `to`) of length ≥ 1 and at most `max_len` steps.
    ///
    /// This is the core of unfold descendant-axis elimination: `x//q`
    /// becomes the union over every returned path. Recursion is handled
    /// by the length bound.
    pub fn paths_between(&self, from: &str, to: &str, max_len: u16) -> Vec<Vec<String>> {
        let mut results = Vec::new();
        let mut path: Vec<String> = Vec::new();
        self.paths_between_rec(from, to, max_len, &mut path, &mut results);
        results
    }

    fn paths_between_rec(
        &self,
        at: &str,
        to: &str,
        remaining: u16,
        path: &mut Vec<String>,
        results: &mut Vec<Vec<String>>,
    ) {
        if remaining == 0 {
            return;
        }
        let kids: Vec<String> = self.children_of(at).map(str::to_string).collect();
        for child in kids {
            path.push(child.clone());
            if child == to {
                results.push(path.clone());
            }
            // Keep descending even through a match: deeper occurrences of
            // `to` are distinct unfoldings (recursive schemas).
            self.paths_between_rec(&child, to, remaining - 1, path, results);
            path.pop();
        }
    }

    /// Enumerate all root-anchored tag paths ending in `tag`, at most
    /// `max_len` tags long (including the root). Used to unfold a leading
    /// `//tag`.
    pub fn root_paths_to(&self, tag: &str, max_len: u16) -> Vec<Vec<String>> {
        let mut results = Vec::new();
        for root in self.roots.clone() {
            if root == tag {
                results.push(vec![root.clone()]);
            }
            if max_len > 1 {
                let mut sub = self.paths_between(&root, tag, max_len - 1);
                for p in &mut sub {
                    p.insert(0, root.clone());
                }
                results.append(&mut sub);
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SchemaGraph {
        // db → entry → {protein → name, reference → {author, year}}
        let mut s = SchemaGraph::new();
        s.declare_root("db");
        s.declare_edge("db", "entry");
        s.declare_edge("entry", "protein");
        s.declare_edge("protein", "name");
        s.declare_edge("entry", "reference");
        s.declare_edge("reference", "author");
        s.declare_edge("reference", "year");
        s.set_depth_bound(4);
        s
    }

    #[test]
    fn declared_edges_queryable() {
        let s = sample();
        assert!(s.contains("protein"));
        assert!(!s.contains("bogus"));
        let kids: Vec<_> = s.children_of("entry").collect();
        assert_eq!(kids, ["protein", "reference"]);
        assert_eq!(s.roots().collect::<Vec<_>>(), ["db"]);
    }

    #[test]
    fn infer_from_document() {
        let doc = Document::parse("<a><b><c/></b><b><d/></b></a>").unwrap();
        let s = SchemaGraph::infer(&doc);
        assert_eq!(s.roots().collect::<Vec<_>>(), ["a"]);
        let kids: Vec<_> = s.children_of("b").collect();
        assert_eq!(kids, ["c", "d"]);
        assert_eq!(s.depth_bound(), 3);
        assert!(!s.is_recursive());
    }

    #[test]
    fn from_source_paths_equals_infer() {
        let doc = Document::parse("<a><b><c/></b><b><d><b/></d></b><c/></a>").unwrap();
        let mut paths: Vec<Vec<&str>> = doc
            .node_ids()
            .map(|id| doc.source_path(id).into_iter().map(|t| doc.tags().name(t)).collect())
            .collect();
        paths.sort();
        paths.dedup();
        paths.reverse(); // order must not matter
        assert_eq!(SchemaGraph::from_source_paths(&paths), SchemaGraph::infer(&doc));
        assert_eq!(SchemaGraph::from_source_paths(Vec::<Vec<&str>>::new()), SchemaGraph::new());
    }

    #[test]
    fn recursive_detection() {
        let mut s = SchemaGraph::new();
        s.declare_root("site");
        s.declare_edge("site", "parlist");
        s.declare_edge("parlist", "listitem");
        s.declare_edge("listitem", "parlist");
        assert!(s.is_recursive());
        assert!(!sample().is_recursive());
    }

    #[test]
    fn paths_between_basic() {
        let s = sample();
        let paths = s.paths_between("db", "name", 4);
        assert_eq!(paths, vec![vec!["entry".to_string(), "protein".into(), "name".into()]]);
        // Direct child counts as a 1-step path.
        let paths = s.paths_between("protein", "name", 4);
        assert_eq!(paths, vec![vec!["name".to_string()]]);
        // Nothing upward.
        assert!(s.paths_between("name", "db", 4).is_empty());
    }

    #[test]
    fn paths_between_respects_bound() {
        let s = sample();
        assert!(s.paths_between("db", "name", 2).is_empty());
        assert_eq!(s.paths_between("db", "name", 3).len(), 1);
    }

    #[test]
    fn recursive_paths_bounded() {
        let mut s = SchemaGraph::new();
        s.declare_root("r");
        s.declare_edge("r", "p");
        s.declare_edge("p", "l");
        s.declare_edge("l", "p");
        // r//l with bound 6: r/p/l, r/p/l/p/l.
        let paths = s.paths_between("r", "l", 5);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0], vec!["p".to_string(), "l".into()]);
        assert_eq!(paths[1], vec!["p".to_string(), "l".into(), "p".into(), "l".into()]);
    }

    #[test]
    fn root_paths_to_includes_root_itself() {
        let s = sample();
        let paths = s.root_paths_to("db", 4);
        assert_eq!(paths, vec![vec!["db".to_string()]]);
        let paths = s.root_paths_to("year", 4);
        assert_eq!(
            paths,
            vec![vec!["db".to_string(), "entry".into(), "reference".into(), "year".into()]]
        );
    }

    #[test]
    fn merge_unions_edges() {
        let mut a = sample();
        let mut b = SchemaGraph::new();
        b.declare_root("db");
        b.declare_edge("entry", "comment");
        b.set_depth_bound(9);
        a.merge(&b);
        assert!(a.children_of("entry").any(|c| c == "comment"));
        assert_eq!(a.depth_bound(), 9);
    }
}
