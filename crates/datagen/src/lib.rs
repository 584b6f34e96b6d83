//! # blas-datagen — synthetic reproductions of the paper's datasets (§5.1.1)
//!
//! The paper evaluates on three corpora we cannot redistribute:
//!
//! | paper dataset | DTD shape | size | nodes | tags | depth | here |
//! |---|---|---|---|---|---|---|
//! | Shakespeare (Bosak) | graph | 1.3 MB | 31 975 | 19 | 7 | [`shakespeare()`] |
//! | Protein (Georgetown PIR) | tree | 3.5 MB | 113 831 | 66 | 7 | [`protein()`] |
//! | Auction (XMark) | recursive | 3.4 MB | 61 890 | 77 | 12 | [`auction()`] |
//!
//! Each generator is seeded and deterministic, reproduces the DTD
//! *shape* (tag inventory, fan-out, recursion, depth) and the features
//! the Fig. 10 queries rely on (e.g. a scene literally titled
//! `SCENE III. A public place.`, authors named `Daniel, M.`, items with
//! and without `shipping`). A `scale` factor replicates the top-level
//! entries, mirroring the paper's "repeating the original data set N
//! times" (§5.3.2, §5.3.4).
//!
//! [`queries`] holds the Fig. 10 query sets and the XPath renderings of
//! the XMark benchmark queries used in Fig. 15; [`evaluation_queries`]
//! lists both with their datasets.

pub mod auction;
pub mod protein;
pub mod queries;
pub mod shakespeare;
pub mod writer;

pub use auction::auction;
pub use protein::protein;
pub use queries::{evaluation_queries, query_set, xmark_benchmark, BenchQuery, QueryKind};
pub use shakespeare::shakespeare;

/// The three datasets, for harness iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetId {
    /// Shakespeare plays (graph DTD).
    Shakespeare,
    /// Protein sequence database (tree DTD).
    Protein,
    /// XMark auction (recursive DTD).
    Auction,
}

impl DatasetId {
    /// All datasets in paper order.
    pub const ALL: [DatasetId; 3] = [DatasetId::Shakespeare, DatasetId::Protein, DatasetId::Auction];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::Shakespeare => "Shakespeare",
            DatasetId::Protein => "Protein",
            DatasetId::Auction => "Auction",
        }
    }

    /// Generate this dataset's XML at the given scale (1 = paper base
    /// size) with the default seed.
    pub fn generate(self, scale: u32) -> String {
        match self {
            DatasetId::Shakespeare => shakespeare(scale, 42),
            DatasetId::Protein => protein(scale, 42),
            DatasetId::Auction => auction(scale, 42),
        }
    }
}
