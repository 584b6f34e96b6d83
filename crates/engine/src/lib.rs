//! # blas-engine — the query engines of the BLAS system (§4, §5)
//!
//! Every engine is a **lowering strategy plus an operator
//! configuration** over one shared physical-plan executor:
//!
//! * [`physical`] — the physical-plan IR: explicit operators
//!   (`ClusteredScan{SP|SD}` with its selection's predicates,
//!   `StructuralJoin`, `Union`, `Materialize`, `TwigStackMatch`) in a
//!   flat arena DAG, plus the three lowering strategies.
//! * [`exec`] — the one executor: runs any physical plan in arena
//!   order, start to finish on the calling thread, with pooled buffers,
//!   and counts an unfiltered scan off the SP/SD run directories.
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
//! * [`stjoin`] — the structural-join kernels: for two start-sorted
//!   label lists, which ancestors/descendants participate in a
//!   containment (or exact-level) pair. A stackless sweep when every
//!   ancestor sits on one level, one merge pass with an ancestor stack
//!   otherwise.
//! * [`stream`] — zero-copy label streams over the columnar store's
//!   clustered runs, plus the pooled scratch buffers
//!   ([`ExecBuffers`]) every operator of one execution shares.
//!
//! Every tuple pulled from storage increments
//! [`ExecStats::elements_visited`]; this is the deterministic
//! "Number of elements read" metric of Figs. 14–18.
//!
//! [`BoundPlan`]: blas_translate::BoundPlan

pub mod exec;
pub mod naive;
pub mod physical;
pub mod rdbms;
pub mod stats;
pub mod stjoin;
pub mod stream;
pub mod twig;
pub mod twigstack;

pub use physical::{lower_plan, lower_twig, lower_twigstack, PhysOp, PhysPlan, TwigPattern};
pub use rdbms::{execute_plan, execute_plan_with};
pub use stats::ExecStats;
pub use stream::{ExecBuffers, Labels};
pub use twig::TwigQuery;
pub use twigstack::execute_twigstack;
