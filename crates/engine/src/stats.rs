//! Per-query execution statistics.
//!
//! Every operator tallies into the one `&mut ExecStats` of the
//! executing thread. The only work that leaves that thread is a
//! sharded scan's pool sub-jobs, and no `&mut ExecStats` is ever
//! shared with them: each shard tallies into its own private
//! `ExecStats`, and the scan [`absorb`]s the shards once at its join
//! point, asserting the absorbed `elements_visited` equals the scan's
//! total tuple count — so a tuple can never be counted twice. Every
//! field is a query-semantic count: the equivalence property suite
//! checks that sharded and sequential execution agree on all of them,
//! plan for plan, across {1, 2, 4, 7} pool threads.
//!
//! [`absorb`]: ExecStats::absorb

use std::time::Duration;

/// Counters reported for every executed query; the evaluation figures
/// plot `elements_visited` (Figs. 14–18 b) and wall-clock time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples pulled from storage (selections and stream scans). The
    /// paper's "number of elements read". A count the run directory
    /// answers ([`crate::exec::count`]) reads no tuple and reports 0;
    /// a count that walks the plan reads what the query reads.
    pub elements_visited: u64,
    /// Structural D-joins executed.
    pub d_joins: u32,
    /// Total tuples entering join operators (intermediate-result size).
    pub join_input_tuples: u64,
    /// Tuples produced by the final plan operator.
    pub result_count: usize,
    /// Wall-clock execution time (selections + joins, excluding
    /// index-build time, matching §5.2.3's measurement scope).
    pub elapsed: Duration,
}

impl ExecStats {
    /// Merge counters from a sub-execution: staged plans, or one
    /// shard's private accumulator at the parallel-scan join point
    /// (call it exactly once per shard).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.elements_visited += other.elements_visited;
        self.d_joins += other.d_joins;
        self.join_input_tuples += other.join_input_tuples;
        self.elapsed += other.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_counters() {
        let mut a = ExecStats {
            elements_visited: 10,
            d_joins: 1,
            join_input_tuples: 5,
            result_count: 3,
            elapsed: Duration::from_millis(2),
        };
        let b = ExecStats {
            elements_visited: 7,
            d_joins: 2,
            join_input_tuples: 1,
            result_count: 9,
            elapsed: Duration::from_millis(1),
        };
        a.absorb(&b);
        assert_eq!(a.elements_visited, 17);
        assert_eq!(a.d_joins, 3);
        assert_eq!(a.join_input_tuples, 6);
        assert_eq!(a.result_count, 3, "result_count is not merged");
        assert_eq!(a.elapsed, Duration::from_millis(3));
    }
}
