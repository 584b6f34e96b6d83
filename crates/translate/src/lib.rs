//! # blas-translate — the BLAS query translator (§4.1)
//!
//! Translates a tree query ([`blas_xpath::QueryTree`]) into a logical
//! plan of P-label selections glued by D-joins, via four strategies:
//!
//! * [`translate_dlabeling`] — the baseline: one tag scan per query
//!   step, one D-join per edge (`l − 1` joins for `l` steps).
//! * [`translate_split`] — Algorithm 3 + 4: descendant-axis elimination
//!   then branch elimination; branch children become *unanchored* suffix
//!   path selections (`//q_i`).
//! * [`translate_pushup`] — Algorithm 5: branch elimination carries the
//!   full prefix, producing maximally specific (anchored where possible)
//!   selections.
//! * [`translate_unfold`] — §4.1.3: against the document's path
//!   summary, every descendant edge (and every wildcard) is unfolded
//!   into the union of the live simple paths it matches, each once, then
//!   Push-up runs on each unfolding. All selections become equality
//!   selections; D-joins remain only at branching points.
//!
//! Plans are *symbolic* (tag names); [`bind()`](bind::bind) resolves them against a
//! concrete document's tag interner and P-label domain, yielding
//! [`BoundPlan`]s ready for execution or Fig.-11-style rendering.
//!
//! One deliberate deviation from the paper's Fig. 11: our Split keeps
//! the level predicate on branch-elimination joins (as its own
//! Example 4.1 does) because dropping it is unsound when a suffix path
//! can match deeper than the branch requires. Fig. 11 elides the
//! predicate; Example 4.1 and correctness both keep it. See
//! ARCHITECTURE.md, "Where this departs from the paper".

pub mod bind;
pub mod decompose;
pub mod error;
pub mod plan;
pub mod sql;
pub mod unfold;

pub use bind::{bind, render_algebra, BoundPlan, BoundSelection, BoundSource};
pub use decompose::{translate_dlabeling, translate_pushup, translate_split};
pub use error::TranslateError;
pub use plan::{DJoinNode, Plan, PlanSummary, SelectSource, Selection, Side};
pub use sql::render_sql;
pub use unfold::translate_unfold;
