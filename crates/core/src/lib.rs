//! # blas — Bi-LAbeling based System for XPath processing
//!
//! A from-scratch reproduction of *BLAS: An Efficient XPath Processing
//! System* (Chen, Davidson, Zheng; SIGMOD 2004). The system stores XML
//! with two labels per node — **D-labels** `<start, end, level>` for
//! descendant-axis navigation and **P-labels** (source-path interval
//! codes) for whole chains of child-axis steps — translates tree-shaped
//! XPath queries into plans of P-label selections glued by structural
//! D-joins (Split / Push-up / Unfold translators), and executes them on
//! either a relational-style engine or a holistic twig-join engine.
//!
//! ## Quick start
//!
//! One call runs the whole pipeline — parse → decompose → bind →
//! lower → execute on the shared physical-plan executor:
//!
//! ```
//! use blas::{BlasDb, EngineChoice, Translator};
//!
//! let db = BlasDb::load("<db><e><n>cytochrome c</n></e><e><n>hb</n></e></db>").unwrap();
//! let result = db.query("/db/e/n", EngineChoice::auto()).unwrap();
//! assert_eq!(result.nodes.len(), 2);
//! assert_eq!(db.texts(&result)[0].as_deref(), Some("cytochrome c"));
//!
//! // Explicit engine / translator / scan-parallelism configurations:
//! let baseline = db
//!     .query("/db/e/n", EngineChoice::rdbms().with_translator(Translator::DLabeling))
//!     .unwrap();
//! assert_eq!(baseline.nodes, result.nodes);
//! assert!(baseline.stats.d_joins > result.stats.d_joins);
//! let sharded = db.query("/db/e/n", EngineChoice::parallel(4)).unwrap();
//! assert_eq!(sharded.nodes, result.nodes);
//! ```

mod collection;
mod db;
mod error;
mod gen_cache;

pub use collection::{BlasCollection, DocId};
pub use db::{
    BlasDb, DbSnapshot, DeltaStats, Engine, EngineChoice, PlanCacheStats, PlanInfo, QueryResult,
    Translator,
};
pub use error::BlasError;
pub use gen_cache::{GenCache, GenKey};

// Re-export the executor configuration and the persistent worker pool
// for callers that drive the engine crates directly.
pub use blas_engine::{ExecConfig, PoolHandle};

// Re-export the building blocks for advanced use.
pub use blas_engine::{ExecStats, TwigQuery};
pub use blas_labeling::{DLabel, DocumentLabels, PInterval, PLabelDomain};
pub use blas_storage::{DeltaEdits, NodeRecord, NodeStore, RecordView};
pub use blas_translate::{BoundPlan, Plan, PlanSummary};
pub use blas_xml::{DocStats, Document, SchemaGraph};
pub use blas_xpath::QueryTree;
