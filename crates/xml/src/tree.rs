//! Arena-based document tree with interned tag names.
//!
//! The BLAS labeling schemes need a per-document notion of "distinct
//! tags" with a stable ordering (§3.2.2 assigns each tag a slice of the
//! P-label domain in tag order). [`TagInterner`] provides that: tags are
//! numbered in first-appearance order, and attribute nodes are mapped to
//! the pseudo-tag `@name` so they participate in labeling exactly like
//! element nodes (the paper counts "element and attribute nodes" in
//! Fig. 12).

use crate::error::ParseError;
use crate::sax::{feed, ElementSink};
use std::collections::HashMap;
use std::fmt;

/// Interned tag identifier; dense, starting at 0, in first-appearance order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub u32);

impl TagId {
    /// The dense index of this tag.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Bidirectional tag-name ↔ [`TagId`] mapping.
#[derive(Debug, Default, Clone)]
pub struct TagInterner {
    names: Vec<String>,
    ids: HashMap<String, TagId>,
}

impl TagInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = TagId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Look up an already-interned tag.
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.ids.get(name).copied()
    }

    /// The tag name for `id`.
    pub fn name(&self, id: TagId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct tags interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(TagId, name)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (TagId(i as u32), n.as_str()))
    }
}

/// Index of a node in a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a tree node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An element node.
    Element,
    /// An attribute node (pseudo-tag `@name`).
    Attribute,
}

/// One node of the document tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Element tag or attribute pseudo-tag.
    pub tag: TagId,
    /// Element vs attribute.
    pub kind: NodeKind,
    /// Parent node; `None` for the root.
    pub parent: Option<NodeId>,
    /// Children in document order (attributes first, then sub-elements).
    pub children: Vec<NodeId>,
    /// Concatenated immediate text content, if any (the `data` column of
    /// the paper's storage tuple).
    pub text: Option<String>,
    /// Depth: the root has level 1 (paper: "length of the path from the
    /// root", counting the root itself as the first step).
    pub level: u16,
}

/// An XML document as an arena of [`Node`]s plus its [`TagInterner`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    tags: TagInterner,
    root: NodeId,
}

impl Document {
    /// Parse `input` into a tree.
    ///
    /// Attributes become child nodes with pseudo-tag `@name` and their
    /// value as text, matching the labeling treatment described in the
    /// crate docs.
    pub fn parse(input: &str) -> Result<Self, ParseError> {
        let mut builder = DocumentBuilder::new();
        feed(input, &mut builder)?;
        Ok(builder.finish().expect("the parser guarantees one root and balanced tags"))
    }

    /// The root element.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Total number of nodes (elements + attributes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a document with no nodes (cannot happen after `parse`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The tag interner.
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// Tag name of a node.
    pub fn tag_name(&self, id: NodeId) -> &str {
        self.tags.name(self.node(id).tag)
    }

    /// Iterate all node ids in arena (document) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Depth-first pre-order traversal from the root.
    pub fn dfs(&self) -> Dfs<'_> {
        Dfs { doc: self, stack: vec![self.root] }
    }

    /// The simple path of tag ids from the root down to `id` (inclusive) —
    /// the node's *source path* SP(n) from Def. 2.4.
    pub fn source_path(&self, id: NodeId) -> Vec<TagId> {
        let mut path = Vec::with_capacity(self.node(id).level as usize);
        let mut cur = Some(id);
        while let Some(n) = cur {
            path.push(self.node(n).tag);
            cur = self.node(n).parent;
        }
        path.reverse();
        path
    }

    /// Maximum node level (the `Depth` row of Fig. 12).
    pub fn depth(&self) -> u16 {
        self.nodes.iter().map(|n| n.level).max().unwrap_or(0)
    }
}

/// Programmatic document construction: what [`Document::parse`] feeds,
/// and what rebuilds a tree from stored tuples without reparsing XML.
///
/// ```
/// use blas_xml::tree::DocumentBuilder;
/// let mut b = DocumentBuilder::new();
/// b.open("db");
/// b.open("e");
/// b.text("x");
/// b.close();
/// b.close();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DocumentBuilder {
    nodes: Vec<Node>,
    tags: TagInterner,
    stack: Vec<NodeId>,
    root: Option<NodeId>,
    error: Option<&'static str>,
}

impl DocumentBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open an element (tags starting with `@` become attribute nodes).
    pub fn open(&mut self, tag: &str) -> NodeId {
        let kind = if tag.starts_with('@') { NodeKind::Attribute } else { NodeKind::Element };
        let tag = self.tags.intern(tag);
        let id = NodeId(self.nodes.len() as u32);
        let level = self.stack.len() as u16 + 1;
        self.nodes.push(Node {
            tag,
            kind,
            parent: self.stack.last().copied(),
            children: Vec::new(),
            text: None,
            level,
        });
        match self.stack.last() {
            Some(&parent) => self.nodes[parent.index()].children.push(id),
            None if self.root.is_none() => self.root = Some(id),
            None => self.error = Some("multiple roots"),
        }
        self.stack.push(id);
        id
    }

    /// Attach text to the currently open element.
    pub fn text(&mut self, text: &str) {
        match self.stack.last() {
            Some(&id) => match &mut self.nodes[id.index()].text {
                Some(existing) => existing.push_str(text),
                slot @ None => *slot = Some(text.to_string()),
            },
            None => self.error = Some("text outside any element"),
        }
    }

    /// Close the innermost open element.
    pub fn close(&mut self) {
        if self.stack.pop().is_none() {
            self.error = Some("close without open");
        }
    }

    /// Finish, validating that the tree is complete.
    pub fn finish(self) -> Result<Document, &'static str> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.stack.is_empty() {
            return Err("unclosed elements");
        }
        let root = self.root.ok_or("no root element")?;
        Ok(Document { nodes: self.nodes, tags: self.tags, root })
    }
}

impl ElementSink for DocumentBuilder {
    fn open(&mut self, name: &str) {
        DocumentBuilder::open(self, name);
    }

    fn text(&mut self, text: &str) {
        DocumentBuilder::text(self, text);
    }

    fn close(&mut self) {
        DocumentBuilder::close(self);
    }
}

/// Pre-order DFS iterator (see [`Document::dfs`]).
pub struct Dfs<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl<'a> Iterator for Dfs<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let node = self.doc.node(id);
        self.stack.extend(node.children.iter().rev());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "<db><entry id=\"e1\"><name>cyt c</name><year>2001</year></entry><entry id=\"e2\"><name>hb</name></entry></db>";

    #[test]
    fn interner_is_stable_and_dense() {
        let mut t = TagInterner::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_eq!(t.intern("a"), a);
        assert_eq!(a, TagId(0));
        assert_eq!(b, TagId(1));
        assert_eq!(t.name(b), "b");
        assert_eq!(t.get("b"), Some(b));
        assert_eq!(t.get("zzz"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn parse_builds_expected_shape() {
        let doc = Document::parse(SAMPLE).unwrap();
        // db, 2×entry, 2×@id, 2×name, 1×year = 8 nodes.
        assert_eq!(doc.len(), 8);
        let root = doc.root();
        assert_eq!(doc.tag_name(root), "db");
        assert_eq!(doc.node(root).level, 1);
        let entries = &doc.node(root).children;
        assert_eq!(entries.len(), 2);
        let e1 = doc.node(entries[0]);
        assert_eq!(e1.level, 2);
        // @id attribute child first.
        assert_eq!(doc.tag_name(e1.children[0]), "@id");
        assert_eq!(doc.node(e1.children[0]).text.as_deref(), Some("e1"));
        assert_eq!(doc.node(e1.children[0]).kind, NodeKind::Attribute);
    }

    #[test]
    fn text_attached_to_enclosing_element() {
        let doc = Document::parse("<a>x<b>y</b>z</a>").unwrap();
        let root = doc.node(doc.root());
        assert_eq!(root.text.as_deref(), Some("xz"));
        assert_eq!(doc.node(root.children[0]).text.as_deref(), Some("y"));
    }

    #[test]
    fn source_path_matches_ancestry() {
        let doc = Document::parse(SAMPLE).unwrap();
        let year = doc
            .node_ids()
            .find(|&n| doc.tag_name(n) == "year")
            .unwrap();
        let sp: Vec<&str> = doc
            .source_path(year)
            .into_iter()
            .map(|t| doc.tags().name(t))
            .collect();
        assert_eq!(sp, ["db", "entry", "year"]);
    }

    #[test]
    fn dfs_is_preorder_document_order() {
        let doc = Document::parse(SAMPLE).unwrap();
        let order: Vec<&str> = doc.dfs().map(|n| doc.tag_name(n)).collect();
        assert_eq!(
            order,
            ["db", "entry", "@id", "name", "year", "entry", "@id", "name"]
        );
    }

    #[test]
    fn depth_is_max_level() {
        let doc = Document::parse("<a><b><c><d/></c></b></a>").unwrap();
        assert_eq!(doc.depth(), 4);
    }

    #[test]
    fn parse_error_propagates() {
        assert!(Document::parse("<a><b></a>").is_err());
    }
}
