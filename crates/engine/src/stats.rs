//! Per-query execution statistics.
//!
//! A query executes on one thread, and every operator tallies into that
//! thread's one `&mut ExecStats`. Every field but `elapsed` is a
//! query-semantic count, so the same plan over the same store reports
//! the same counters however often it runs.

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
