//! A from-scratch in-memory B+ tree with range scans.
//!
//! The paper's index generator "builds B+ tree indexes on start, plabel
//! and data to facilitate searches" (§4). This is that structure: an
//! arena-based B+ tree (internal nodes hold separator keys; leaves hold
//! key/value pairs and are linked left-to-right for range scans).
//!
//! Keys are unique; the storage layer uses composite keys such as
//! `(plabel, start)` which are unique per tuple.

/// Maximum entries per node before a split. 32 keeps internal nodes
/// around a cache line multiple for the key sizes we use.
const MAX_ENTRIES: usize = 32;
/// Entries moved to the new right sibling on split.
const SPLIT_AT: usize = MAX_ENTRIES / 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeIdx(u32);

#[derive(Debug)]
enum Node<K, V> {
    Internal {
        /// `keys[i]` is the smallest key reachable under `children[i+1]`.
        keys: Vec<K>,
        children: Vec<NodeIdx>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
        next: Option<NodeIdx>,
    },
}

/// An in-memory B+ tree mapping unique keys to values.
#[derive(Debug)]
pub struct BPlusTree<K, V> {
    arena: Vec<Node<K, V>>,
    root: NodeIdx,
    len: usize,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Empty tree.
    pub fn new() -> Self {
        Self {
            arena: vec![Node::Leaf { keys: Vec::new(), values: Vec::new(), next: None }],
            root: NodeIdx(0),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, idx: NodeIdx) -> &Node<K, V> {
        &self.arena[idx.0 as usize]
    }

    fn node_mut(&mut self, idx: NodeIdx) -> &mut Node<K, V> {
        &mut self.arena[idx.0 as usize]
    }

    fn alloc(&mut self, node: Node<K, V>) -> NodeIdx {
        let idx = NodeIdx(self.arena.len() as u32);
        self.arena.push(node);
        idx
    }

    /// Insert `key → value`. Returns the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.insert_rec(self.root, key, value) {
            InsertResult::Done(old) => {
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
            InsertResult::Split { sep, right } => {
                let old_root = self.root;
                let new_root = self.alloc(Node::Internal {
                    keys: vec![sep],
                    children: vec![old_root, right],
                });
                self.root = new_root;
                self.len += 1;
                None
            }
        }
    }

    fn insert_rec(&mut self, at: NodeIdx, key: K, value: V) -> InsertResult<K, V> {
        match self.node_mut(at) {
            Node::Leaf { keys, values, .. } => {
                match keys.binary_search(&key) {
                    Ok(i) => {
                        let old = std::mem::replace(&mut values[i], value);
                        return InsertResult::Done(Some(old));
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        values.insert(i, value);
                    }
                }
                if keys.len() <= MAX_ENTRIES {
                    return InsertResult::Done(None);
                }
                // Split the leaf.
                let (right_keys, right_values, old_next) = match self.node_mut(at) {
                    Node::Leaf { keys, values, next } => {
                        (keys.split_off(SPLIT_AT), values.split_off(SPLIT_AT), *next)
                    }
                    Node::Internal { .. } => unreachable!(),
                };
                let sep = right_keys[0].clone();
                let right = self.alloc(Node::Leaf {
                    keys: right_keys,
                    values: right_values,
                    next: old_next,
                });
                if let Node::Leaf { next, .. } = self.node_mut(at) {
                    *next = Some(right);
                }
                InsertResult::Split { sep, right }
            }
            Node::Internal { keys, children } => {
                // Child i covers keys < keys[i]; child i+1 covers ≥ keys[i].
                let slot = keys.partition_point(|k| *k <= key);
                let child = children[slot];
                match self.insert_rec(child, key, value) {
                    InsertResult::Done(old) => InsertResult::Done(old),
                    InsertResult::Split { sep, right } => {
                        let (keys, children) = match self.node_mut(at) {
                            Node::Internal { keys, children } => (keys, children),
                            Node::Leaf { .. } => unreachable!(),
                        };
                        keys.insert(slot, sep);
                        children.insert(slot + 1, right);
                        if keys.len() <= MAX_ENTRIES {
                            return InsertResult::Done(None);
                        }
                        // Split the internal node: middle key moves up.
                        let mid = SPLIT_AT;
                        let up = keys[mid].clone();
                        let right_keys: Vec<K> = keys.drain(mid + 1..).collect();
                        keys.pop(); // remove `up`
                        let right_children: Vec<NodeIdx> = children.drain(mid + 1..).collect();
                        let right = self.alloc(Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        });
                        InsertResult::Split { sep: up, right }
                    }
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut at = self.root;
        loop {
            match self.node(at) {
                Node::Internal { keys, children } => {
                    let slot = keys.partition_point(|k| k <= key);
                    at = children[slot];
                }
                Node::Leaf { keys, values, .. } => {
                    return keys.binary_search(key).ok().map(|i| &values[i]);
                }
            }
        }
    }

    /// Iterate entries with `lo ≤ key ≤ hi` in key order.
    pub fn range(&self, lo: &K, hi: &K) -> RangeIter<'_, K, V> {
        // Descend to the leaf that may contain `lo`.
        let mut at = self.root;
        loop {
            match self.node(at) {
                Node::Internal { keys, children } => {
                    let slot = keys.partition_point(|k| k <= lo);
                    at = children[slot];
                }
                Node::Leaf { keys, .. } => {
                    let pos = keys.partition_point(|k| k < lo);
                    return RangeIter { tree: self, leaf: Some(at), pos, hi: hi.clone() };
                }
            }
        }
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> AllIter<'_, K, V> {
        let mut at = self.root;
        loop {
            match self.node(at) {
                Node::Internal { children, .. } => at = children[0],
                Node::Leaf { .. } => return AllIter { tree: self, leaf: Some(at), pos: 0 },
            }
        }
    }

    /// Height of the tree (1 for a lone leaf). Exposed for tests and
    /// `bench_storage`'s index accounting (ARCHITECTURE.md, "Clustered
    /// storage").
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut at = self.root;
        loop {
            match self.node(at) {
                Node::Internal { children, .. } => {
                    h += 1;
                    at = children[0];
                }
                Node::Leaf { .. } => return h,
            }
        }
    }
}

enum InsertResult<K, V> {
    Done(Option<V>),
    Split { sep: K, right: NodeIdx },
}

/// Iterator over a key range (see [`BPlusTree::range`]).
pub struct RangeIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: Option<NodeIdx>,
    pos: usize,
    hi: K,
}

impl<'a, K: Ord + Clone, V> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            match self.tree.node(leaf) {
                Node::Leaf { keys, values, next } => {
                    if self.pos < keys.len() {
                        let k = &keys[self.pos];
                        if *k > self.hi {
                            self.leaf = None;
                            return None;
                        }
                        let v = &values[self.pos];
                        self.pos += 1;
                        return Some((k, v));
                    }
                    self.leaf = *next;
                    self.pos = 0;
                }
                Node::Internal { .. } => unreachable!("leaf chain points to leaves"),
            }
        }
    }
}

/// Iterator over all entries (see [`BPlusTree::iter`]).
pub struct AllIter<'a, K, V> {
    tree: &'a BPlusTree<K, V>,
    leaf: Option<NodeIdx>,
    pos: usize,
}

impl<'a, K: Ord + Clone, V> Iterator for AllIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            match self.tree.node(leaf) {
                Node::Leaf { keys, values, next } => {
                    if self.pos < keys.len() {
                        let i = self.pos;
                        self.pos += 1;
                        return Some((&keys[i], &values[i]));
                    }
                    self.leaf = *next;
                    self.pos = 0;
                }
                Node::Internal { .. } => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: BPlusTree<u32, u32> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.range(&0, &100).count(), 0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(2, "b"), None);
        assert_eq!(t.insert(1, "a"), None);
        assert_eq!(t.insert(3, "c"), None);
        assert_eq!(t.get(&1), Some(&"a"));
        assert_eq!(t.get(&2), Some(&"b"));
        assert_eq!(t.get(&3), Some(&"c"));
        assert_eq!(t.get(&4), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn insert_replaces() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(7, 1), None);
        assert_eq!(t.insert(7, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&7), Some(&2));
    }

    #[test]
    fn many_inserts_ascending_and_descending() {
        for order in ["asc", "desc"] {
            let mut t = BPlusTree::new();
            let keys: Vec<u32> = if order == "asc" {
                (0..5000).collect()
            } else {
                (0..5000).rev().collect()
            };
            for &k in &keys {
                t.insert(k, k * 10);
            }
            assert_eq!(t.len(), 5000);
            assert!(t.height() > 1, "tree should have split");
            for k in 0..5000 {
                assert_eq!(t.get(&k), Some(&(k * 10)), "{order} {k}");
            }
            let all: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
            assert_eq!(all, (0..5000).collect::<Vec<_>>());
        }
    }

    #[test]
    fn range_scan_bounds_inclusive() {
        let mut t = BPlusTree::new();
        for k in (0..100u32).step_by(2) {
            t.insert(k, ());
        }
        let got: Vec<u32> = t.range(&10, &20).map(|(k, _)| *k).collect();
        assert_eq!(got, [10, 12, 14, 16, 18, 20]);
        // Bounds not present in the tree.
        let got: Vec<u32> = t.range(&11, &19).map(|(k, _)| *k).collect();
        assert_eq!(got, [12, 14, 16, 18]);
        // Degenerate and empty ranges.
        let got: Vec<u32> = t.range(&14, &14).map(|(k, _)| *k).collect();
        assert_eq!(got, [14]);
        assert_eq!(t.range(&15, &15).count(), 0);
        assert_eq!(t.range(&200, &300).count(), 0);
    }

    #[test]
    fn range_spans_leaves() {
        let mut t = BPlusTree::new();
        for k in 0..2000u32 {
            t.insert(k, k);
        }
        let got: Vec<u32> = t.range(&500, &1500).map(|(k, _)| *k).collect();
        assert_eq!(got.len(), 1001);
        assert_eq!(got[0], 500);
        assert_eq!(*got.last().unwrap(), 1500);
    }

    #[test]
    fn composite_keys() {
        let mut t: BPlusTree<(u128, u32), u32> = BPlusTree::new();
        t.insert((5, 1), 0);
        t.insert((5, 9), 1);
        t.insert((6, 0), 2);
        t.insert((4, 7), 3);
        let got: Vec<u32> = t.range(&(5, 0), &(5, u32::MAX)).map(|(_, v)| *v).collect();
        assert_eq!(got, [0, 1]);
    }
}
