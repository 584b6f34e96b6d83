//! # blas-engine — the query engines of the BLAS system (§4, §5)
//!
//! Every engine is a **lowering strategy plus an operator
//! configuration** over one shared physical-plan executor:
//!
//! * [`physical`] — the physical-plan IR: explicit operators
//!   (`ClusteredScan{SP|SD}`, `ValueFilter`, `StructuralJoin`,
//!   `Union`, `Materialize`, `TwigStackMatch`) in a flat arena DAG,
//!   plus the three lowering strategies and the filter-pushdown pass.
//! * [`exec`] — the one executor: runs any physical plan in arena
//!   order on the calling thread with pooled buffers. Parallelism is
//!   data partitioning inside one operator: under a sharded
//!   [`ExecConfig`] a wide clustered scan splits its runs into shard
//!   groups scanned as sub-jobs on the persistent worker pool and
//!   merged back into start order; every other operator stays on the
//!   calling thread.
//! * [`opt`] — the cost-based optimizer behind `EngineChoice::Auto`:
//!   O(log n) cardinalities from the SP/SD run directories, per-operator
//!   ns/elem rates calibrated against the measured kernels, and the
//!   engine/join-order/filter-placement/shard decisions derived from
//!   them.
//! * [`pool`] — the persistent worker pool scan shards run on: fixed
//!   threads, one injector queue, scoped submission, helping joins and
//!   panic propagation. One pool (typically owned by `blas::BlasDb`)
//!   serves every sharded scan across repeated queries.
//! * [`rdbms`] — the relational engine (§5.2): lowers a [`BoundPlan`]
//!   into the Fig. 11 operator shape (selections, semi-join D-joins,
//!   unions).
//! * [`twig`] — the file-system engine (§5.3): lowers a plan into a
//!   twig query over label *streams* and expresses the holistic
//!   bottom-up/top-down stack passes as a semi-join DAG. An Unfold
//!   plan's rewritings become one twig query each, lowered under one
//!   union.
//! * [`twigstack`] — the literal TwigStack algorithm (Bruno et al.,
//!   SIGMOD'02) packaged as the executor's holistic match operator.
//! * [`stjoin`] — the structural-join kernel: one merge pass with an
//!   ancestor stack decides, for two start-sorted label lists, which
//!   ancestors/descendants participate in a containment (or
//!   exact-level) pair.
//! * [`stream`] — zero-copy label streams over the columnar store's
//!   clustered runs, plus the pooled scratch buffers
//!   ([`ExecBuffers`]) every operator of one execution shares.
//!
//! Every tuple pulled from storage increments
//! [`ExecStats::elements_visited`]; this is the deterministic
//! "Number of elements read" metric of Figs. 14–18. Sharded scans
//! tally into per-shard accumulators merged once, so the counts are
//! identical to sequential execution.
//!
//! [`BoundPlan`]: blas_translate::BoundPlan
//! [`ExecConfig::shards`]: exec::ExecConfig

pub mod exec;
pub mod naive;
pub mod opt;
pub mod physical;
pub mod pool;
pub mod rdbms;
pub mod stats;
pub mod stjoin;
pub mod stream;
pub mod twig;
pub mod twigstack;

pub use exec::{ExecConfig, DEFAULT_MIN_SHARD_ELEMS};
pub use opt::{
    choose_shards, estimate_plan, lower_plan_costed, order_twig_joins, source_cardinality,
    CostModel, PlanEstimate,
};
pub use pool::{JobHandle, PoolHandle, Scope, TaskHandle};
pub use physical::{
    lower_plan, lower_plan_raw, lower_twig, lower_twigstack, PhysOp, PhysPlan, TwigPattern,
};
pub use rdbms::{execute_plan, execute_plan_config, execute_plan_with};
pub use stats::ExecStats;
pub use stream::{ExecBuffers, Labels};
pub use twig::TwigQuery;
pub use twigstack::execute_twigstack;
