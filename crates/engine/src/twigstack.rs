//! A faithful implementation of **TwigStack** (Bruno, Koudas,
//! Srivastava: "Holistic Twig Joins: Optimal XML Pattern Matching",
//! SIGMOD 2002, Algorithm 2) — the exact algorithm the BLAS paper's
//! file-system engine uses (§5.3, citation \[6\]).
//!
//! TwigStack processes one start-sorted stream per twig node with one
//! stack per twig node (entries point into the parent's stack),
//! emitting *root-to-leaf path solutions* as it goes; a merge phase
//! then combines path solutions into full twig matches. Its `getNext`
//! routine skips stream elements that provably cannot participate in a
//! solution, which makes it I/O optimal for ancestor-descendant-only
//! twigs.
//!
//! Parent-child (exact level) edges are handled the standard way: the
//! stack phase filters with ancestor-descendant semantics only (which
//! preserves completeness) and the level constraints are enforced on
//! the enumerated path solutions.
//!
//! The algorithm is packaged as the crate-internal `run_match`, the
//! implementation of the [`PhysOp::TwigStackMatch`] operator.
//! [`lower_twigstack`] is the engine: per-node
//! [`PhysOp::ClusteredScan`] streams feeding the one holistic operator,
//! run by the shared executor in [`crate::exec`]. The per-node streams
//! load one after another in arena order, and the match operator runs
//! after the last of them. [`lower_twig`] computes the same answer with
//! a semi-join DAG; the `ablation` Criterion bench compares the two.
//!
//! [`lower_twigstack`]: crate::physical::lower_twigstack
//! [`lower_twig`]: crate::physical::lower_twig
//! [`PhysOp::TwigStackMatch`]: crate::physical::PhysOp::TwigStackMatch
//! [`PhysOp::ClusteredScan`]: crate::physical::PhysOp::ClusteredScan

use crate::physical::TwigPattern;
use crate::stats::ExecStats;
use blas_labeling::DLabel;
use std::collections::{HashMap, HashSet};

const INF: u32 = u32::MAX;

/// The [`PhysOp::TwigStackMatch`] operator: match `pattern` over one
/// start-sorted stream per pattern node, tallying pushed elements into
/// `join_input_tuples` and the twig's edges into `d_joins`.
///
/// [`PhysOp::TwigStackMatch`]: crate::physical::PhysOp::TwigStackMatch
pub(crate) fn run_match(
    pattern: &TwigPattern,
    streams: &[&[DLabel]],
    stats: &mut ExecStats,
) -> Vec<DLabel> {
    let mut ts = TwigStack::new(pattern, streams);
    ts.run(stats);
    ts.merge_solutions()
}

/// A stack entry: the element plus the index of the topmost entry of
/// the parent's stack at push time (−1 when the parent stack was empty
/// or for the root).
#[derive(Debug, Clone, Copy)]
struct Entry {
    label: DLabel,
    parent_top: isize,
}

/// One root-to-leaf path solution: `(twig node, label)` pairs from root
/// to leaf.
type PathSolution = Vec<(usize, DLabel)>;

struct TwigStack<'a> {
    q: &'a TwigPattern,
    streams: &'a [&'a [DLabel]],
    cursor: Vec<usize>,
    stacks: Vec<Vec<Entry>>,
    /// Path solutions per leaf twig node.
    solutions: HashMap<usize, Vec<PathSolution>>,
    /// Root-to-node paths, precomputed.
    path_to: Vec<Vec<usize>>,
}

impl<'a> TwigStack<'a> {
    fn new(q: &'a TwigPattern, streams: &'a [&'a [DLabel]]) -> Self {
        let n = q.len();
        debug_assert_eq!(streams.len(), n, "one stream per pattern node");
        let path_to: Vec<Vec<usize>> = (0..n)
            .map(|id| {
                let mut path = vec![id];
                let mut cur = q.parent[id];
                while let Some(p) = cur {
                    path.push(p);
                    cur = q.parent[p];
                }
                path.reverse();
                path
            })
            .collect();
        Self {
            q,
            streams,
            cursor: vec![0; n],
            stacks: vec![Vec::new(); n],
            solutions: HashMap::new(),
            path_to,
        }
    }

    fn next_start(&self, q: usize) -> u32 {
        self.streams[q].get(self.cursor[q]).map_or(INF, |l| l.start)
    }

    fn next_end(&self, q: usize) -> u32 {
        self.streams[q].get(self.cursor[q]).map_or(INF, |l| l.end)
    }

    fn advance(&mut self, q: usize) {
        if self.cursor[q] < self.streams[q].len() {
            self.cursor[q] += 1;
        }
    }

    fn is_leaf(&self, q: usize) -> bool {
        self.q.children[q].is_empty()
    }

    /// Algorithm 2's `getNext`: the next node whose head element is
    /// safe to process.
    ///
    /// Exhausted subtrees need care: once any branch below `q` has no
    /// elements left, no *future* element of `q` can participate in a
    /// twig match (it would have to contain a branch element that lies
    /// entirely in the past), so `q`'s stream is drained — but live
    /// sibling branches keep running, because their remaining elements
    /// can still combine with entries already on the stacks.
    fn get_next(&mut self, q: usize) -> usize {
        if self.is_leaf(q) {
            return q;
        }
        let children = self.q.children[q].clone();
        let mut live: Vec<usize> = Vec::with_capacity(children.len());
        let mut any_dead = false;
        let mut max_child_start: u32 = 0;
        for &c in &children {
            let r = self.get_next(c);
            if self.next_start(r) == INF {
                any_dead = true;
                continue;
            }
            if r != c {
                return r;
            }
            max_child_start = max_child_start.max(self.next_start(c));
            live.push(c);
        }
        if any_dead {
            // Future q elements cannot complete the dead branch.
            while self.next_start(q) != INF {
                self.advance(q);
            }
        } else {
            // Skip elements of q that end before the latest child
            // head: they cannot contain all children heads.
            while self.next_end(q) < max_child_start {
                self.advance(q);
            }
        }
        let nmin = live.into_iter().min_by_key(|&c| self.next_start(c));
        match nmin {
            Some(c) if self.next_start(q) >= self.next_start(c) => c,
            Some(_) | None if self.next_start(q) < INF => q,
            Some(c) => c,
            None => q,
        }
    }

    /// Pop entries that ended before `start`.
    fn clean_stack(&mut self, q: usize, start: u32) {
        while let Some(top) = self.stacks[q].last() {
            if top.label.end < start {
                self.stacks[q].pop();
            } else {
                break;
            }
        }
    }

    /// The main loop of Algorithm 2.
    fn run(&mut self, stats: &mut ExecStats) {
        loop {
            let q = self.get_next(self.q.root);
            if self.next_start(q) == INF {
                break;
            }
            let parent = self.q.parent[q];
            if let Some(p) = parent {
                self.clean_stack(p, self.next_start(q));
            }
            let parent_has_match = match parent {
                None => true,
                Some(p) => !self.stacks[p].is_empty(),
            };
            if parent_has_match {
                self.clean_stack(q, self.next_start(q));
                let label = self.streams[q][self.cursor[q]];
                let parent_top = parent.map_or(-1, |p| self.stacks[p].len() as isize - 1);
                self.stacks[q].push(Entry { label, parent_top });
                self.advance(q);
                stats.join_input_tuples += 1;
                if self.is_leaf(q) {
                    self.show_solutions(q);
                    self.stacks[q].pop();
                }
            } else {
                // No potential ancestor match: skip the element.
                self.advance(q);
            }
        }
        stats.d_joins += self.q.edge_count() as u32;
    }

    /// Emit every root-to-leaf solution ending at the just-pushed top
    /// entry of leaf `q` (Algorithm 2's `showSolutionsWithBlocking`).
    fn show_solutions(&mut self, leaf: usize) {
        let path = self.path_to[leaf].clone();
        let mut current: PathSolution = Vec::with_capacity(path.len());
        let leaf_pos = path.len() - 1;
        let top = self.stacks[leaf].len() - 1;
        let mut out = Vec::new();
        self.enumerate(&path, leaf_pos, top as isize, &mut current, &mut out);
        if !out.is_empty() {
            self.solutions.entry(leaf).or_default().extend(out);
        }
    }

    /// Recursive enumeration from the leaf upward: at `path[pos]`, any
    /// stack entry with index ≤ `max_idx` is a valid ancestor choice;
    /// its own `parent_top` bounds the next level up. Level (parent-
    /// child) constraints are checked here, on concrete label pairs.
    fn enumerate(
        &self,
        path: &[usize],
        pos: usize,
        max_idx: isize,
        current: &mut PathSolution,
        out: &mut Vec<PathSolution>,
    ) {
        let q = path[pos];
        for idx in 0..=max_idx {
            if idx < 0 {
                continue;
            }
            let entry = self.stacks[q][idx as usize];
            // Edge constraint vs the child choice already in `current`
            // (the last pushed pair, which is q's twig child).
            if let Some(&(child_q, child_label)) = current.last() {
                let ok_struct = entry.label.is_ancestor_of(&child_label);
                let ok_level = match self.q.level_diff[child_q] {
                    Some(k) => entry.label.level + k == child_label.level,
                    None => true,
                };
                if !ok_struct || !ok_level {
                    continue;
                }
            }
            current.push((q, entry.label));
            if pos == 0 {
                let mut solution = current.clone();
                solution.reverse();
                out.push(solution);
            } else {
                self.enumerate(path, pos - 1, entry.parent_top, current, out);
            }
            current.pop();
        }
    }

    /// Merge path solutions into twig matches and return the output
    /// node's bindings. For tree patterns, per-edge semi-join reduction
    /// over the solution pair sets is exact.
    fn merge_solutions(&self) -> Vec<DLabel> {
        let n = self.q.len();
        let leaves: Vec<usize> = (0..n).filter(|&q| self.is_leaf(q)).collect();
        // A leaf with no solutions ⇒ no twig match at all.
        if leaves.iter().any(|l| !self.solutions.contains_key(l)) {
            return Vec::new();
        }
        // Per-edge support pairs (parent start → child start) and
        // per-node candidate labels.
        let mut pairs: HashMap<(usize, usize), HashSet<(u32, u32)>> = HashMap::new();
        let mut cand: Vec<HashMap<u32, DLabel>> = vec![HashMap::new(); n];
        for sols in self.solutions.values() {
            for sol in sols {
                for pair in sol.windows(2) {
                    let (pq, pl) = pair[0];
                    let (cq, cl) = pair[1];
                    pairs.entry((pq, cq)).or_default().insert((pl.start, cl.start));
                }
                for &(q, l) in sol {
                    cand[q].insert(l.start, l);
                }
            }
        }
        // Bottom-up then top-down reduction over the twig tree.
        let order = self.q.post_order();
        let mut alive: Vec<HashSet<u32>> =
            cand.iter().map(|m| m.keys().copied().collect()).collect();
        for &q in &order {
            for &c in &self.q.children[q] {
                let empty = HashSet::new();
                let edge = pairs.get(&(q, c)).unwrap_or(&empty);
                let keep: HashSet<u32> = edge
                    .iter()
                    .filter(|(_, cs)| alive[c].contains(cs))
                    .map(|&(ps, _)| ps)
                    .collect();
                alive[q].retain(|s| keep.contains(s));
            }
        }
        for &q in order.iter().rev() {
            for &c in &self.q.children[q] {
                let empty = HashSet::new();
                let edge = pairs.get(&(q, c)).unwrap_or(&empty);
                let keep: HashSet<u32> = edge
                    .iter()
                    .filter(|(ps, _)| alive[q].contains(ps))
                    .map(|&(_, cs)| cs)
                    .collect();
                alive[c].retain(|s| keep.contains(s));
            }
        }
        let mut result: Vec<DLabel> = alive[self.q.output]
            .iter()
            .map(|s| cand[self.q.output][s])
            .collect();
        result.sort_unstable_by_key(|l| l.start);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::fixture::Fixture;
    use crate::physical::{lower_twig, lower_twigstack};

    #[test]
    fn twigstack_matches_semijoin_engine() {
        let fx = Fixture::sample();
        for src in [
            "/db/e/r/f/t",
            "//f/t",
            "/db/e//s",
            "/db/e[p//s]/r/f/t",
            "/db/e[p/c/s][r/f/y]/r/f/a",
            "//e[r]",
        ] {
            for translator in ["dlabel", "split", "pushup"] {
                let bound = fx.bind(src, translator);
                let mut s1 = ExecStats::default();
                let expect = execute(&lower_twig(&bound), &fx.store, &mut s1);
                let mut s2 = ExecStats::default();
                let got = execute(&lower_twigstack(&bound), &fx.store, &mut s2);
                assert_eq!(got, expect, "{src}");
                assert_eq!(
                    s1.elements_visited, s2.elements_visited,
                    "both scan the same streams: {src}"
                );
            }
        }
    }

    #[test]
    fn getnext_skips_hopeless_elements() {
        // Baseline plan for //e/t on data where most `e`s have no `t`:
        // TwigStack should push strictly fewer elements than it reads.
        let fx = Fixture::sample();
        let bound = fx.bind("/db/e[p/c/s='cyt']/r/f/t", "dlabel");
        let mut stats = ExecStats::default();
        let out = execute(&lower_twigstack(&bound), &fx.store, &mut stats);
        assert_eq!(out.len(), 2, "T1 and T3 both have s='cyt'");
        assert!(
            stats.join_input_tuples < stats.elements_visited,
            "pushed {} of {} read",
            stats.join_input_tuples,
            stats.elements_visited
        );
    }

    #[test]
    fn empty_stream_short_circuits() {
        let fx = Fixture::sample();
        let bound = fx.bind("/db/e/zzz", "dlabel");
        let mut stats = ExecStats::default();
        assert!(execute(&lower_twigstack(&bound), &fx.store, &mut stats).is_empty());
    }
}
