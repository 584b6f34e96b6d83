//! The shared physical-plan executor: one arena-order walk on the
//! calling thread, with clustered scans sharded across the persistent
//! worker pool ([`crate::pool`]) when parallelism is configured.
//!
//! One operator set executes any [`PhysPlan`] (see [`crate::physical`]
//! for the operator ↔ paper-section map); all three engines —
//! relational, holistic twig, TwigStack — funnel through
//! [`execute_with`] and differ only in how they *lower*.
//!
//! # The walk
//!
//! Operators run in arena order (plan order is topological order) on
//! the calling thread. Each result parks in its slot until its last
//! consumer has read it ([`PhysPlan::consumer_counts`]), then its
//! buffer recycles through the caller's [`ExecBuffers`]; a
//! [`PhysOp::Materialize`] that is its input's last consumer moves the
//! buffer instead of copying it. Joins, unions and twig branches never
//! leave the thread: at BLAS's µs-scale plans a queue round-trip per
//! operator costs more than the work it would overlap.
//!
//! # Counting
//!
//! [`count`] answers "how many?" without building the result. Every
//! linear query is one selection over a P-label interval set (a suffix
//! path one interval, an unfolded chain the runs of live keys it
//! matched, §4.1), so for those plans the SP/SD run directory already
//! holds the answer: an unfiltered scan is counted in two binary
//! searches per interval and reads no tuple, on every engine. Every
//! other plan takes the same walk as [`execute_with`] and stops before
//! the root [`PhysOp::Materialize`], whose copy a count never needs.
//!
//! # Sharded scans
//!
//! Parallelism is data partitioning inside one operator. With
//! [`ExecConfig::shards`] `> 1`, every [`PhysOp::ClusteredScan`] at
//! least `min_shard_elems` per shard wide fans out over
//! [`ExecConfig::pool`]:
//!
//! 1. storage partitions the scan's clustered runs into balanced
//!    groups of zero-copy pieces (`blas_storage::shard_runs`,
//!    splitting oversized runs);
//! 2. under one [`pool::scope`], groups 1… become pool sub-jobs
//!    ([`pool::Scope::spawn_job`]) and the calling thread scans group
//!    0 itself, **helping the pool while it waits** (so even a
//!    zero-worker pool cannot deadlock); each group filters its pieces
//!    into a private buffer, restores start order among *its own*
//!    pieces with the ping-pong segment merge of [`crate::stjoin`],
//!    and tallies tuples into a private per-shard [`ExecStats`]
//!    accumulator — no shared counters, so no double-count risk;
//! 3. the scan merges the per-shard accumulators **once**, asserts
//!    every tuple was counted exactly once, and restores global start
//!    order across shard outputs with one final segment merge
//!    (coalescing shard boundaries that are already ordered, the
//!    common case for single-run scans).
//!
//! A fanned-out scan therefore submits exactly `groups − 1` pool jobs
//! and every other operator submits none. Because starts are unique
//! within a document and every kernel is deterministic in its inputs,
//! sharded execution is byte-identical to sequential — same labels,
//! same order, same counters — which the equivalence property suite
//! checks across {1, 2, 4, 7} pool threads on all three engines.

use crate::opt::source_cardinality;
use crate::physical::{OpId, PhysOp, PhysPlan};
use crate::pool::{self, PoolHandle};
use crate::stats::ExecStats;
use crate::stjoin::{
    filter_flagged_into, merge_segments, push_segment, structural_match_into, union_into,
    MergeScratch,
};
use crate::stream::{materialize, resolve_filter, ExecBuffers, Filter, Labels};
use crate::twigstack;
use blas_labeling::DLabel;
use blas_storage::{NodeStore, ScanRun, NO_VALUE};
use blas_translate::{BoundSource, Side};
use std::sync::OnceLock;
use std::time::Instant;

/// Tuples a shard must at least receive before a scan is parallelized;
/// below `2 ×` this, job fan-out costs more than it saves.
pub const DEFAULT_MIN_SHARD_ELEMS: usize = 4096;

/// Executor configuration: how many ways to split clustered scans, and
/// which persistent worker pool runs the scan shards.
///
/// `shards == 1` (the default) is the **sequential** configuration:
/// nothing is ever submitted to the pool, and the carried pool is the
/// zero-worker [`PoolHandle::inline`]. With `shards > 1` the plan still
/// walks on the calling thread, but wide clustered scans fan out over
/// [`ExecConfig::pool`] — which should be a long-lived pool shared
/// across queries (see [`ExecConfig::on_pool`]); [`ExecConfig::sharded`]
/// spins up a private pool for one-off use. Pool sizing guidance lives
/// on [`PoolHandle`]: one worker per core is the default, because a
/// server runs whole requests on the same pool as their shards.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker count sharded scans split into; `1` never fans out.
    pub shards: usize,
    /// Minimum tuples per shard before a scan fans out; tests force
    /// the sharded path on tiny stores by setting this to 1.
    pub min_shard_elems: usize,
    /// The persistent pool scan shards run on. Ignored when
    /// `shards == 1`.
    pub pool: PoolHandle,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecConfig {
    /// Sequential execution (the default): `shards == 1`, a
    /// zero-worker inline pool, no jobs submitted. The inline pool is
    /// one process-wide shared handle (it owns no threads and is never
    /// pushed to on this path), so constructing a sequential config
    /// per query costs one `Arc` clone.
    pub fn sequential() -> Self {
        static INLINE: OnceLock<PoolHandle> = OnceLock::new();
        Self {
            shards: 1,
            min_shard_elems: DEFAULT_MIN_SHARD_ELEMS,
            pool: INLINE.get_or_init(PoolHandle::inline).clone(),
        }
    }

    /// Sharded scans on an existing (typically long-lived,
    /// query-spanning) pool, splitting scans `shards` ways.
    /// `shards <= 1` degenerates to [`ExecConfig::sequential`].
    pub fn on_pool(pool: PoolHandle, shards: usize) -> Self {
        if shards <= 1 {
            return Self::sequential();
        }
        Self { shards, min_shard_elems: DEFAULT_MIN_SHARD_ELEMS, pool }
    }

    /// Sharded scans on a **private** pool with `shards − 1` workers
    /// (the calling thread scans the remaining shard). This is a pure
    /// value constructor — the pool's OS threads spawn lazily on the
    /// first job submission. Handy for tests and one-shot tools;
    /// long-lived callers should share one pool across queries via
    /// [`ExecConfig::on_pool`], since a private pool's spawn cost
    /// recurs per configuration rather than per database.
    pub fn sharded(shards: usize) -> Self {
        if shards <= 1 {
            return Self::sequential();
        }
        Self::on_pool(PoolHandle::new(shards - 1), shards)
    }

    /// Replace the pool.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Override the per-shard minimum (tests set 1 to force fan-out on
    /// tiny stores).
    pub fn with_min_shard_elems(mut self, min_shard_elems: usize) -> Self {
        self.min_shard_elems = min_shard_elems;
        self
    }
}

/// Execute a physical plan, returning the root's output (start-sorted,
/// owned) and filling `stats` (counters, `result_count`, `elapsed`).
pub fn execute(
    plan: &PhysPlan,
    store: &NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
) -> Vec<DLabel> {
    let mut bufs = ExecBuffers::default();
    execute_with(plan, store, config, stats, &mut bufs)
}

/// Like [`execute`], reusing caller-held scratch buffers across
/// executions (batch drivers, benches).
pub fn execute_with(
    plan: &PhysPlan,
    store: &NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Vec<DLabel> {
    let t0 = Instant::now();
    let result = walk(plan, store, config, stats, bufs, plan.root()).into_vec(bufs);
    stats.result_count = result.len();
    stats.elapsed = t0.elapsed();
    result
}

/// The count sink: how many nodes [`execute`] would return, without
/// building the result.
///
/// When the answer is an unfiltered [`PhysOp::ClusteredScan`], the run
/// directory's size accessors give the count — they already apply
/// delta inserts and tombstones — and no tuple is read: `stats`
/// reports `elements_visited == 0` and `d_joins == 0`. Every other
/// plan runs the same walk as [`execute`], minus the root
/// [`PhysOp::Materialize`] copy, and reports exactly the counters
/// `execute` reports. Either way `stats.result_count` is the returned
/// count.
pub fn count(
    plan: &PhysPlan,
    store: &NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
) -> usize {
    let t0 = Instant::now();
    let root = plan.root();
    // The operator whose output length is the answer: a root
    // Materialize only copies its input.
    let answer = match plan.op(root) {
        PhysOp::Materialize { input } if plan.consumer_counts()[root] == 0 => *input,
        _ => root,
    };
    let n = match plan.op(answer) {
        PhysOp::ClusteredScan { source, value_eq: None, level_eq: None } => {
            source_cardinality(store, source)
        }
        _ => walk(plan, store, config, stats, &mut ExecBuffers::default(), answer).len(),
    };
    stats.result_count = n;
    stats.elapsed = t0.elapsed();
    n
}

/// The one arena-order walk [`execute_with`] and [`count`] share. Runs
/// every operator — except a root that is not `answer` (the root
/// `Materialize` a count skips) — and returns `answer`'s output.
fn walk<'a>(
    plan: &PhysPlan,
    store: &'a NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
    answer: OpId,
) -> Labels<'a> {
    let n = plan.ops().len();
    // Remaining-consumer counts: a slot recycles the moment its last
    // consumer has read it (+1 on the answer so it survives the loop).
    // Seeded from the plan's memoized dependency metadata, so repeated
    // executions skip the dependency walk.
    let mut uses: Vec<usize> = plan.consumer_counts().to_vec();
    uses[answer] += 1;
    let mut results: Vec<Option<Labels<'_>>> = (0..n).map(|_| None).collect();
    for id in (0..n).filter(|&id| id != plan.root() || id == answer) {
        let out = exec_op(plan.op(id), &mut results, &mut uses, store, config, stats, bufs);
        results[id] = Some(out);
        plan.op(id).for_each_input(|i| release(&mut results, &mut uses, i, bufs));
    }
    let out = results[answer].take().expect("answer present");
    for r in results.into_iter().flatten() {
        bufs.recycle(r);
    }
    out
}

// ---------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------

/// Standalone filter over a non-scan stream, run as a chunked
/// pushdown: the value predicate resolves to one interned id up front
/// (an un-interned value admits nothing without touching the rows);
/// each fixed-width block gathers its value ids through the start
/// rank, then compacts with a predicated-advance cursor — no
/// per-element branch in the compaction loop, so the common level-only
/// case autovectorizes and the value case keeps the gather and the
/// compare in separate tight loops.
fn eval_value_filter(
    input: &[DLabel],
    value_eq: Option<&str>,
    level_eq: Option<u16>,
    store: &NodeStore,
    out: &mut Vec<DLabel>,
) {
    const ZERO: DLabel = DLabel { start: 0, end: 0, level: 0 };
    const CHUNK: usize = 64;
    let filter = resolve_filter(value_eq, level_eq, store);
    if filter.is_pass_through() {
        out.extend_from_slice(input);
        return;
    }
    if filter.value_id == Some(NO_VALUE) {
        return; // queried value occurs nowhere in the document
    }
    let base = out.len();
    out.resize(base + input.len(), ZERO);
    let mut k = base;
    let mut vids = [NO_VALUE; CHUNK];
    for chunk in input.chunks(CHUNK) {
        if filter.value_id.is_some() {
            for (i, l) in chunk.iter().enumerate() {
                vids[i] = store
                    .row_of_start(l.start)
                    .map(|row| store.value_id_of_row(row))
                    .unwrap_or(NO_VALUE);
            }
        }
        match (filter.value_id, filter.level_eq) {
            (Some(want), None) => {
                for (i, l) in chunk.iter().enumerate() {
                    out[k] = *l;
                    k += (vids[i] == want) as usize;
                }
            }
            (None, Some(lv)) => {
                for l in chunk {
                    out[k] = *l;
                    k += (l.level == lv) as usize;
                }
            }
            (Some(want), Some(lv)) => {
                for (i, l) in chunk.iter().enumerate() {
                    out[k] = *l;
                    k += (vids[i] == want && l.level == lv) as usize;
                }
            }
            (None, None) => unreachable!("pass-through handled above"),
        }
    }
    out.truncate(k);
}

fn release<'a>(
    results: &mut [Option<Labels<'a>>],
    uses: &mut [usize],
    id: usize,
    bufs: &mut ExecBuffers,
) {
    uses[id] = uses[id].saturating_sub(1);
    if uses[id] == 0 {
        if let Some(l) = results[id].take() {
            bufs.recycle(l);
        }
    }
}

/// The parked result of an earlier operator.
fn input<'s, 'a>(results: &'s [Option<Labels<'a>>], id: usize) -> &'s [DLabel] {
    results[id].as_ref().expect("inputs precede consumers")
}

fn exec_op<'a>(
    op: &PhysOp,
    results: &mut [Option<Labels<'a>>],
    uses: &mut [usize],
    store: &'a NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Labels<'a> {
    match op {
        PhysOp::ClusteredScan { source, value_eq, level_eq } => {
            let (value_eq, level_eq) = (value_eq.as_deref(), *level_eq);
            scan_sharded(source, value_eq, level_eq, store, config, stats, bufs)
                .unwrap_or_else(|| materialize(source, value_eq, level_eq, store, stats, bufs))
        }
        PhysOp::ValueFilter { input: inp, value_eq, level_eq } => {
            // Scans carry their value filters fused (pushdown), so this
            // operator usually sees only a level predicate.
            let mut out = bufs.take();
            eval_value_filter(input(results, *inp), value_eq.as_deref(), *level_eq, store, &mut out);
            Labels::Owned(out)
        }
        PhysOp::StructuralJoin { anc, desc, level_diff, keep, tally } => {
            // Structural semi-join: flag participants, keep one side.
            let (a, d) = (input(results, *anc), input(results, *desc));
            if *tally {
                stats.d_joins += 1;
                stats.join_input_tuples += (a.len() + d.len()) as u64;
            }
            structural_match_into(a, d, *level_diff, &mut bufs.join);
            let mut out = bufs.take();
            match keep {
                Side::Anc => filter_flagged_into(a, &bufs.join.anc, &mut out),
                Side::Desc => filter_flagged_into(d, &bufs.join.desc, &mut out),
            }
            Labels::Owned(out)
        }
        PhysOp::Union { inputs } => {
            let mut all = bufs.take();
            union_into(inputs.iter().map(|&i| input(results, i)), &mut all, &mut bufs.merge);
            Labels::Owned(all)
        }
        PhysOp::TwigStackMatch { streams, pattern } => {
            let stream_slices: Vec<&[DLabel]> =
                streams.iter().map(|&s| input(results, s)).collect();
            Labels::Owned(twigstack::run_match(pattern, &stream_slices, stats))
        }
        PhysOp::Materialize { input: inp } => {
            // Move the input when this is its last consumer; copy when
            // it is shared.
            if uses[*inp] == 1 {
                let l = results[*inp].take().expect("input present");
                Labels::Owned(l.into_vec(bufs))
            } else {
                let mut v = bufs.take();
                v.extend_from_slice(input(results, *inp));
                Labels::Owned(v)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sharded scans
// ---------------------------------------------------------------------

/// Sharded scan path; `None` when the configuration does not shard
/// or the scan is too small to (the caller falls back to the
/// sequential kernel).
fn scan_sharded<'a>(
    source: &BoundSource,
    value_eq: Option<&str>,
    level_eq: Option<u16>,
    store: &'a NodeStore,
    config: &ExecConfig,
    stats: &mut ExecStats,
    bufs: &mut ExecBuffers,
) -> Option<Labels<'a>> {
    if config.shards <= 1 {
        return None;
    }
    // Size the scan from the run directory first (two binary
    // searches): point queries fall back to the sequential kernel
    // without ever materializing shard groups — at µs scale that
    // preparation would be a measurable fraction of the query.
    let total = source_cardinality(store, source);
    // Respect the per-shard minimum by coalescing adjacent groups
    // (each group holds consecutive pieces, so merging neighbours
    // keeps the partition order-preserving and balanced).
    let desired = config.shards.min(total / config.min_shard_elems.max(1));
    if desired < 2 {
        return None;
    }
    // Storage owns shard-aware run iteration: one balanced group of
    // zero-copy run pieces per prospective worker.
    let groups: Vec<Vec<ScanRun<'a>>> = match source {
        BoundSource::PLabels(intervals) => store.shard_plabels(intervals, config.shards),
        BoundSource::Tag(t) => store.shard_tag(*t, config.shards),
        BoundSource::All => store.shard_doc(config.shards),
        BoundSource::Empty => unreachable!("an empty scan has no shard to fill"),
    };
    debug_assert_eq!(
        groups.iter().flatten().map(ScanRun::len).sum::<usize>(),
        total,
        "directory size must agree with the materialized runs"
    );
    if groups.len() < 2 {
        return None;
    }
    let groups = coalesce_groups(groups, desired);
    let filter = resolve_filter(value_eq, level_eq, store);

    // Fan out: sub-jobs take groups 1…, this thread scans group 0
    // itself and then joins the sub-jobs, helping the pool while
    // it waits. Each sub-job owns its output buffer and its
    // ExecStats accumulator.
    let shard_out = pool::scope(&config.pool, |scope| {
        let mut groups = groups.into_iter();
        let first = groups.next().expect("at least two groups");
        let handles: Vec<_> = groups
            .map(|group| scope.spawn_job(move || scan_shard(&group, filter)))
            .collect();
        let mut shard_out = Vec::with_capacity(handles.len() + 1);
        shard_out.push(scan_shard(&first, filter));
        for handle in handles {
            match handle.join() {
                Ok(out) => shard_out.push(out),
                // A shard panic (a bug, not a data condition)
                // unwinds to the caller once the scope barrier has
                // passed; the pool survives.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        shard_out
    });

    // Merge the per-shard accumulators exactly once, and check that
    // the partition counted every tuple of the scan exactly once.
    let mut shard_total = ExecStats::default();
    for (_, s) in &shard_out {
        shard_total.absorb(s);
    }
    debug_assert_eq!(
        shard_total.elements_visited, total as u64,
        "sharded scan must count each tuple exactly once"
    );
    stats.absorb(&shard_total);

    // Restore global start order: per-shard outputs are already
    // sorted, so they form segments for one final ping-pong merge.
    // Consecutive shards that are already ordered (single-run scans
    // split into consecutive pieces) coalesce into one segment,
    // making the merge a no-op for that common case.
    let mut out = bufs.take();
    bufs.merge.bounds.clear();
    for (shard, _) in &shard_out {
        push_segment(&mut out, shard, &mut bufs.merge);
    }
    merge_segments(&mut out, &mut bufs.merge);
    Some(Labels::Owned(out))
}

/// Merge adjacent shard groups until at most `desired` remain (the
/// per-shard minimum asked for fewer workers than storage prepared).
fn coalesce_groups<'a>(groups: Vec<Vec<ScanRun<'a>>>, desired: usize) -> Vec<Vec<ScanRun<'a>>> {
    if groups.len() <= desired {
        return groups;
    }
    let per_bucket = groups.len().div_ceil(desired);
    let mut out: Vec<Vec<ScanRun<'a>>> = Vec::with_capacity(desired);
    for (i, group) in groups.into_iter().enumerate() {
        if i % per_bucket == 0 {
            out.push(group);
        } else {
            out.last_mut().expect("bucket opened").extend(group);
        }
    }
    out
}

/// One sub-job's share of a sharded scan: filter its run pieces and
/// restore start order among them, tallying into a private
/// accumulator.
fn scan_shard(runs: &[ScanRun<'_>], filter: Filter) -> (Vec<DLabel>, ExecStats) {
    let mut stats = ExecStats::default();
    let mut out = Vec::new();
    let mut scratch = MergeScratch::default();
    for run in runs {
        stats.elements_visited += run.len() as u64;
        let before = out.len();
        run.filter_into(filter, &mut out);
        if out.len() > before {
            scratch.bounds.push(out.len());
        }
    }
    merge_segments(&mut out, &mut scratch);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{lower_plan, lower_twig, lower_twigstack};
    use crate::twig::TwigQuery;
    use blas_labeling::{label_document, PInterval};
    use blas_translate::{
        bind, translate_dlabeling, translate_pushup, translate_split, translate_unfold, BoundPlan,
        BoundSelection,
    };
    use blas_xml::{Document, SchemaGraph};
    use blas_xpath::parse;

    const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>2001</y><t>T1</t></f></r></e>",
        "<e><p><c><s>hb</s></c></p><r><f><a>Smith</a><y>1999</y><t>T2</t></f></r></e>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>1999</y><t>T3</t></f></r></e>",
        "</db>"
    );

    fn fixture(src: &str) -> (Document, NodeStore, blas_labeling::PLabelDomain) {
        let doc = Document::parse(src).unwrap();
        let labels = label_document(&doc).unwrap();
        let store = NodeStore::build(&doc, &labels);
        (doc, store, labels.domain)
    }

    fn bound(doc: &Document, dom: &blas_labeling::PLabelDomain, xpath: &str) -> BoundPlan {
        let q = parse(xpath).unwrap();
        bind(&translate_pushup(&q).unwrap(), doc.tags(), dom, &[])
    }

    fn forced_parallel(shards: usize) -> ExecConfig {
        ExecConfig::sharded(shards).with_min_shard_elems(1)
    }

    #[test]
    fn pooled_execution_equals_sequential() {
        let (doc, store, dom) = fixture(SAMPLE);
        for xpath in ["/db/e/r/f/t", "//f", "/db/e[p//s='cyt']/r/f[y='2001']/t", "//s='cyt'"] {
            let b = bound(&doc, &dom, xpath);
            let plan = lower_plan(&b);
            let mut seq_stats = ExecStats::default();
            let seq = execute(&plan, &store, &ExecConfig::default(), &mut seq_stats);
            for shards in [2, 3, 7] {
                let mut par_stats = ExecStats::default();
                let par = execute(&plan, &store, &forced_parallel(shards), &mut par_stats);
                assert_eq!(par, seq, "{xpath} @ {shards}");
                par_stats.elapsed = seq_stats.elapsed;
                assert_eq!(par_stats, seq_stats, "{xpath} @ {shards}");
            }
        }
    }

    #[test]
    fn one_pool_serves_repeated_queries() {
        let (doc, store, dom) = fixture(SAMPLE);
        let pool = PoolHandle::new(2);
        let config = ExecConfig::on_pool(pool.clone(), 4).with_min_shard_elems(1);
        let b = bound(&doc, &dom, "/db/e[p//s='cyt']/r/f/t");
        let plan = lower_plan(&b);
        let mut first: Option<Vec<DLabel>> = None;
        let mut per_query = Vec::new();
        for _ in 0..5 {
            let before = pool.jobs_submitted();
            let mut stats = ExecStats::default();
            let out = execute(&plan, &store, &config, &mut stats);
            per_query.push(pool.jobs_submitted() - before);
            match &first {
                None => first = Some(out),
                Some(expect) => assert_eq!(&out, expect),
            }
        }
        // Every execution fanned its scans out over the same persistent
        // pool — no per-query or per-scan thread spawns — and the same
        // plan submits the same number of shard jobs every time.
        assert!(per_query[0] > 0, "some scan must fan out");
        assert!(per_query.iter().all(|&n| n == per_query[0]), "{per_query:?}");
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn all_lowerings_agree_on_one_executor() {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p/c/s]/r/f/t");
        let twig = TwigQuery::from_plan(&b);
        let mut s1 = ExecStats::default();
        let rdbms = execute(&lower_plan(&b), &store, &ExecConfig::default(), &mut s1);
        let mut s2 = ExecStats::default();
        let semi = execute(&lower_twig(&twig), &store, &ExecConfig::default(), &mut s2);
        let mut s3 = ExecStats::default();
        let holistic = execute(&lower_twigstack(&twig), &store, &ExecConfig::default(), &mut s3);
        assert_eq!(rdbms, semi);
        assert_eq!(rdbms, holistic);
        assert_eq!(s2.elements_visited, s3.elements_visited);
    }

    #[test]
    fn small_scans_fall_back_to_sequential() {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "//f");
        let plan = lower_plan(&b);
        let mut stats = ExecStats::default();
        // Default min_shard_elems (4096) far exceeds this store's size,
        // so the sharded config must not fan any scan out: the plan
        // submits nothing to the pool.
        let config = ExecConfig::sharded(4);
        let out = execute(&plan, &store, &config, &mut stats);
        assert_eq!(out.len(), 3);
        assert_eq!(config.pool.jobs_submitted(), 0);
    }

    #[test]
    fn standalone_value_filter_executes_over_shared_scan() {
        use crate::physical::PhysOp;
        use blas_translate::BoundSource;
        // Hand-build the DAG pushdown refuses to fuse: one scan feeding
        // both a ValueFilter and a join, so the filter runs standalone.
        let (_, store, _) = fixture(SAMPLE);
        let ops = vec![
            PhysOp::ClusteredScan {
                source: BoundSource::All,
                value_eq: None,
                level_eq: None,
            },
            PhysOp::ValueFilter { input: 0, value_eq: Some("cyt".into()), level_eq: None },
            PhysOp::StructuralJoin {
                anc: 0,
                desc: 1,
                level_diff: None,
                keep: blas_translate::Side::Desc,
                tally: true,
            },
            PhysOp::Materialize { input: 2 },
        ];
        let plan = plan_from(ops, 3);
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &ExecConfig::default(), &mut stats);
        assert_eq!(out.len(), 2, "two s-nodes carry 'cyt'");
        // Level-only standalone filter.
        let ops = vec![
            PhysOp::ClusteredScan {
                source: BoundSource::All,
                value_eq: None,
                level_eq: None,
            },
            PhysOp::ValueFilter { input: 0, value_eq: None, level_eq: Some(1) },
            PhysOp::StructuralJoin {
                anc: 0,
                desc: 1,
                level_diff: None,
                keep: blas_translate::Side::Desc,
                tally: false,
            },
            PhysOp::Materialize { input: 2 },
        ];
        let plan = plan_from(ops, 3);
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &ExecConfig::default(), &mut stats);
        assert!(out.is_empty(), "the root has no ancestor to join with");
    }

    fn plan_from(ops: Vec<crate::physical::PhysOp>, root: usize) -> crate::physical::PhysPlan {
        // These hand-built DAGs are already fusion-free, so no
        // pushdown pass is wanted.
        crate::physical::PhysPlan::from_ops(ops, root)
    }

    #[test]
    fn sharded_union_plan_stays_duplicate_free() {
        let (doc, store, dom) = fixture(SAMPLE);
        let q = parse("//s").unwrap();
        let b = bind(&translate_split(&q).unwrap(), doc.tags(), &dom, &[]);
        let plan = lower_plan(&b);
        let mut stats = ExecStats::default();
        let out = execute(&plan, &store, &forced_parallel(4), &mut stats);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].start < w[1].start));
    }

    #[test]
    fn root_with_a_consumer_is_never_handed_over() {
        use blas_translate::BoundSource;
        // No lowering emits a root that something else consumes, but
        // PhysPlan::from_ops permits it — the walk must keep the root's
        // output alive past its consumer (the root's extra use) instead
        // of recycling it.
        let (_, store, _) = fixture(SAMPLE);
        let ops = vec![
            PhysOp::ClusteredScan { source: BoundSource::All, value_eq: None, level_eq: None },
            PhysOp::ValueFilter { input: 0, value_eq: Some("cyt".into()), level_eq: None },
        ];
        let plan = plan_from(ops, 0);
        let mut seq_stats = ExecStats::default();
        let seq = execute(&plan, &store, &ExecConfig::default(), &mut seq_stats);
        assert_eq!(seq.len(), store.live_len(), "the root scan's full output");
        let mut stats = ExecStats::default();
        let par = execute(&plan, &store, &forced_parallel(2), &mut stats);
        assert_eq!(par, seq, "the root's slot must hold its real output");
    }

    // --- The count sink ----------------------------------------------

    /// `count` ≡ `execute(..).len()`; a directory-answered count reads
    /// nothing and submits no job, any other reports `execute`'s
    /// counters exactly. Returns whether the directory answered.
    fn assert_count_matches(plan: &PhysPlan, store: &NodeStore, config: &ExecConfig) -> bool {
        let mut q = ExecStats::default();
        let nodes = execute(plan, store, config, &mut q);
        let before = config.pool.jobs_submitted();
        let mut c = ExecStats::default();
        assert_eq!(count(plan, store, config, &mut c), nodes.len(), "{plan:?}");
        assert_eq!(c.result_count, nodes.len());
        let from_directory = c.elements_visited == 0 && q.elements_visited > 0;
        if from_directory {
            assert_eq!(c.d_joins, 0);
            assert_eq!(config.pool.jobs_submitted(), before, "a directory count submits no job");
        } else {
            c.elapsed = q.elapsed;
            assert_eq!(c, q, "a walked count reports the query's counters");
        }
        from_directory
    }

    #[test]
    fn count_matches_execute_on_every_lowering_and_config() {
        let (doc, store, dom) = fixture(SAMPLE);
        let (schema, live) = (SchemaGraph::infer(&doc), store.live_plabels());
        for xpath in
            ["//f", "//s", "/db/e/r/f/t", "//s='cyt'", "/db/e[p//s='cyt']/r/f/t", "/db/e[*]/r", "//zz"]
        {
            let q = parse(xpath).unwrap();
            let mut plans = Vec::new();
            for plan in [
                translate_pushup(&q),
                translate_split(&q),
                translate_dlabeling(&q),
                translate_unfold(&q, &schema),
            ] {
                let b = bind(&plan.unwrap(), doc.tags(), &dom, &live);
                let twig = TwigQuery::from_plan(&b);
                plans.extend([lower_plan(&b), lower_twig(&twig), lower_twigstack(&twig)]);
            }
            for plan in &plans {
                for config in [ExecConfig::default(), forced_parallel(2), forced_parallel(4)] {
                    assert_count_matches(plan, &store, &config);
                }
            }
        }
    }

    #[test]
    fn suffix_and_unfolded_paths_count_off_the_directory() {
        let (doc, store, dom) = fixture(SAMPLE);
        let (schema, live) = (SchemaGraph::infer(&doc), store.live_plabels());
        let q = parse("//f").unwrap();
        let range = bind(&translate_pushup(&q).unwrap(), doc.tags(), &dom, &[]);
        let unfolded = bind(
            &translate_unfold(&parse("/db/e//s").unwrap(), &schema).unwrap(),
            doc.tags(),
            &dom,
            &live,
        );
        for b in [&range, &unfolded] {
            assert!(matches!(
                b,
                BoundPlan::Select(BoundSelection { source: BoundSource::PLabels(..), .. })
            ));
            let twig = TwigQuery::from_plan(b);
            for plan in [lower_plan(b), lower_twig(&twig), lower_twigstack(&twig)] {
                assert!(assert_count_matches(&plan, &store, &forced_parallel(4)), "{plan:?}");
            }
        }
        // A filtered scan walks.
        let filtered = lower_plan(&bound(&doc, &dom, "//s='cyt'"));
        assert!(!assert_count_matches(&filtered, &store, &ExecConfig::default()));
    }

    #[test]
    fn only_unfiltered_scans_count_off_the_directory() {
        let (doc, store, _) = fixture(SAMPLE);
        let (s, f) = (doc.tags().get("s").unwrap(), doc.tags().get("f").unwrap());
        let scan = |source| PhysOp::ClusteredScan { source, value_eq: None, level_eq: None };
        let mut keys = store.live_plabels();
        keys.truncate(5);
        let one = |p: u128| PInterval { p1: p, p2: p };
        let set = BoundSource::PLabels(vec![one(keys[0]), one(keys[2]), one(keys[4])]);
        let with_root = |op: PhysOp| plan_from(vec![op, PhysOp::Materialize { input: 0 }], 1);
        // Answered: every source kind, a multi-interval set included.
        for source in [set.clone(), BoundSource::Tag(s), BoundSource::All] {
            let plan = with_root(scan(source.clone()));
            assert!(assert_count_matches(&plan, &store, &ExecConfig::default()), "{source:?}");
        }
        // A root that is not a Materialize (only `from_ops` builds one).
        let bare = plan_from(vec![scan(BoundSource::Tag(s))], 0);
        assert!(assert_count_matches(&bare, &store, &ExecConfig::default()));
        // Walked: a union deduplicates what a sum would count twice.
        for sources in [vec![set.clone(), set], vec![BoundSource::Tag(s), BoundSource::Tag(f)]] {
            let n = sources.len();
            let mut ops: Vec<PhysOp> = sources.into_iter().map(scan).collect();
            ops.push(PhysOp::Union { inputs: (0..n).collect() });
            ops.push(PhysOp::Materialize { input: n });
            let plan = plan_from(ops, n + 1);
            assert!(!assert_count_matches(&plan, &store, &ExecConfig::default()), "{plan:?}");
        }
    }

    // --- Fan-out pins -------------------------------------------------

    /// One scan operator run on its own: how many tuples its clustered
    /// run holds (the sequential `elements_visited`) and how many pool
    /// jobs it submits under `config`.
    fn scan_alone(op: &PhysOp, store: &NodeStore, config: &ExecConfig) -> (u64, u64) {
        let plan = plan_from(vec![op.clone()], 0);
        let mut seq = ExecStats::default();
        execute(&plan, store, &ExecConfig::default(), &mut seq);
        let before = config.pool.jobs_submitted();
        execute(&plan, store, config, &mut ExecStats::default());
        (seq.elements_visited, config.pool.jobs_submitted() - before)
    }

    /// The single-walk contract, exactly: with two shards and no
    /// per-shard minimum, a scan of `n ≥ 2` tuples splits into exactly
    /// two groups (`shard_runs` targets `⌈n/2⌉` per group) and so
    /// submits exactly one pool job, a one-tuple scan submits none,
    /// and the whole plan submits the sum — every join, union, filter,
    /// materialize and twig match adds 0. Under the default per-shard
    /// minimum nothing in this tiny store fans out at all.
    fn assert_fan_out_pin(plan: &PhysPlan, store: &NodeStore, name: &str) {
        let pool = PoolHandle::new(1);
        let config = ExecConfig::on_pool(pool.clone(), 2).with_min_shard_elems(1);
        let mut expected = 0;
        for op in plan.ops().iter().filter(|op| matches!(op, PhysOp::ClusteredScan { .. })) {
            let (tuples, jobs) = scan_alone(op, store, &config);
            assert_eq!(jobs, u64::from(tuples >= 2), "{name}: {op:?} over {tuples} tuples");
            expected += jobs;
        }
        assert!(expected > 0, "{name}: the pin must exercise at least one fan-out");

        let mut seq_stats = ExecStats::default();
        let seq = execute(plan, store, &ExecConfig::default(), &mut seq_stats);
        let before = pool.jobs_submitted();
        let mut stats = ExecStats::default();
        let out = execute(plan, store, &config, &mut stats);
        assert_eq!(pool.jobs_submitted() - before, expected, "{name}: non-scan operators submit 0");
        assert_eq!(out, seq, "{name}");
        stats.elapsed = seq_stats.elapsed;
        assert_eq!(stats, seq_stats, "{name}: every counter agrees");

        let unsharded = ExecConfig::on_pool(pool.clone(), 2);
        let before = pool.jobs_submitted();
        execute(plan, store, &unsharded, &mut ExecStats::default());
        assert_eq!(pool.jobs_submitted(), before, "{name}: narrow scans never fan out");
    }

    fn pin_query() -> (Document, NodeStore, TwigQuery, BoundPlan) {
        let (doc, store, dom) = fixture(SAMPLE);
        let b = bound(&doc, &dom, "/db/e[p//s='cyt']/r/f[y='2001']/t");
        let twig = TwigQuery::from_plan(&b).remove(0);
        (doc, store, twig, b)
    }

    #[test]
    fn rdbms_plan_submits_one_job_per_fanned_out_scan() {
        let (_, store, _, b) = pin_query();
        assert_fan_out_pin(&lower_plan(&b), &store, "rdbms");
    }

    #[test]
    fn twig_plan_submits_one_job_per_fanned_out_scan() {
        let (_, store, twig, _) = pin_query();
        assert_fan_out_pin(&lower_twig(&[twig]), &store, "twig");
    }

    #[test]
    fn twigstack_plan_submits_one_job_per_fanned_out_scan() {
        let (_, store, twig, _) = pin_query();
        assert_fan_out_pin(&lower_twigstack(&[twig]), &store, "twigstack");
    }
}
