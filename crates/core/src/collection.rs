//! Multi-document collections.
//!
//! §3 of the paper: "The algorithm can be easily extended to multiple
//! documents by introducing document id information into the labeling
//! scheme." That is exactly what this module does: each document keeps
//! its own label space (D-label positions and a P-label domain sized to
//! its own tag set and depth) and the document id qualifies every
//! result. Queries fan out across members; per-document path summaries
//! keep Unfold precise, while [`BlasCollection::merged_schema`] exposes
//! their union for cross-corpus reasoning.

use crate::db::{BlasDb, Engine, EngineChoice, QueryResult, Translator};
use crate::error::BlasError;
use blas_xml::SchemaGraph;
use blas_xpath::QueryTree;
use std::sync::Arc;

/// Identifies one document inside a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl DocId {
    /// Dense index of this document.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of independently labeled, jointly queryable documents.
///
/// Members are held behind [`Arc`] so long-lived consumers — the
/// serving front door routes requests by document name — can share a
/// member with the collection without cloning its stores.
#[derive(Debug, Default)]
pub struct BlasCollection {
    names: Vec<String>,
    dbs: Vec<Arc<BlasDb>>,
}

impl BlasCollection {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse, label and index one more document.
    pub fn add(&mut self, name: &str, xml: &str) -> Result<DocId, BlasError> {
        let db = BlasDb::load(xml)?;
        Ok(self.add_shared(name, Arc::new(db)))
    }

    /// Adopt an already-loaded document under `name`. The caller keeps
    /// its own handle; the collection and the caller observe the same
    /// mutations and generations.
    pub fn add_shared(&mut self, name: &str, db: Arc<BlasDb>) -> DocId {
        let id = DocId(self.dbs.len() as u32);
        self.names.push(name.to_string());
        self.dbs.push(db);
        id
    }

    /// Look a member up by name.
    pub fn find(&self, name: &str) -> Option<DocId> {
        self.names.iter().position(|n| n == name).map(|i| DocId(i as u32))
    }

    /// Number of member documents.
    pub fn len(&self) -> usize {
        self.dbs.len()
    }

    /// True when the collection has no members.
    pub fn is_empty(&self) -> bool {
        self.dbs.is_empty()
    }

    /// Member access.
    pub fn doc(&self, id: DocId) -> &BlasDb {
        &self.dbs[id.index()]
    }

    /// Member access as a shareable handle.
    pub fn doc_shared(&self, id: DocId) -> &Arc<BlasDb> {
        &self.dbs[id.index()]
    }

    /// Member name.
    pub fn name(&self, id: DocId) -> &str {
        &self.names[id.index()]
    }

    /// Iterate members.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &BlasDb)> {
        self.dbs
            .iter()
            .enumerate()
            .map(|(i, db)| (DocId(i as u32), db.as_ref()))
    }

    /// Run `xpath` over every member under one [`EngineChoice`],
    /// returning per-document results. Documents where the query binds
    /// nothing still appear, with empty results — callers often want
    /// the zeros.
    pub fn query(
        &self,
        xpath: &str,
        choice: EngineChoice,
    ) -> Result<Vec<(DocId, QueryResult)>, BlasError> {
        // Parse once; bind per document.
        let query = blas_xpath::parse(xpath)?;
        self.run(&query, choice)
    }

    /// Run `xpath` over every member with explicit translator × engine
    /// (sequential scans).
    pub fn query_with(
        &self,
        xpath: &str,
        translator: Translator,
        engine: Engine,
    ) -> Result<Vec<(DocId, QueryResult)>, BlasError> {
        self.query(xpath, EngineChoice { engine, translator })
    }

    /// Run a parsed query over every member.
    pub fn run(
        &self,
        query: &QueryTree,
        choice: EngineChoice,
    ) -> Result<Vec<(DocId, QueryResult)>, BlasError> {
        self.iter()
            .map(|(id, db)| Ok((id, db.run(query, choice)?)))
            .collect()
    }

    /// Total matches of a query across the collection.
    pub fn count(&self, xpath: &str) -> Result<usize, BlasError> {
        Ok(self
            .query(xpath, EngineChoice::auto())?
            .iter()
            .map(|(_, r)| r.stats.result_count)
            .sum())
    }

    /// The union of all member path summaries.
    pub fn merged_schema(&self) -> SchemaGraph {
        let mut merged = SchemaGraph::new();
        for db in &self.dbs {
            merged.merge(db.schema());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BlasCollection {
        let mut c = BlasCollection::new();
        c.add("alpha", "<db><e><n>cyt</n></e><e><n>hb</n></e></db>").unwrap();
        c.add("beta", "<db><e><n>cyt</n></e></db>").unwrap();
        c.add("gamma", "<other><x/></other>").unwrap();
        c
    }

    #[test]
    fn add_and_access() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert_eq!(c.name(DocId(1)), "beta");
        assert_eq!(c.doc(DocId(2)).document().tag_name(c.doc(DocId(2)).document().root()), "other");
    }

    #[test]
    fn query_fans_out_with_doc_ids() {
        let c = sample();
        let results = c.query("/db/e/n", EngineChoice::auto()).unwrap();
        assert_eq!(results.len(), 3);
        let counts: Vec<usize> = results.iter().map(|(_, r)| r.stats.result_count).collect();
        assert_eq!(counts, [2, 1, 0]);
        assert_eq!(c.count("/db/e/n").unwrap(), 3);
    }

    #[test]
    fn per_document_label_spaces_are_independent() {
        let c = sample();
        // Same tag can have different TagIds / domains per document; a
        // query still works against each member independently.
        let a = c.doc(DocId(0)).domain().m();
        let b = c.doc(DocId(2)).domain().m();
        assert_ne!(a, b, "domains sized per document");
        for (_, r) in c.query("//n='cyt'", EngineChoice::auto()).unwrap() {
            for t in c.dbs[0].texts(&r).into_iter().flatten() {
                assert_eq!(t, "cyt");
            }
        }
    }

    #[test]
    fn merged_schema_is_union() {
        let c = sample();
        let schema = c.merged_schema();
        assert!(schema.contains("db") && schema.contains("other"));
        let roots: Vec<&str> = schema.roots().collect();
        assert_eq!(roots, ["db", "other"]);
    }

    #[test]
    fn translator_choice_applies_per_member() {
        let c = sample();
        let split = c.query_with("/db/e/n", Translator::Split, Engine::Rdbms).unwrap();
        let unfold = c.query_with("/db/e/n", Translator::Unfold, Engine::Rdbms).unwrap();
        for ((_, s), (_, u)) in split.iter().zip(&unfold) {
            assert_eq!(s.nodes, u.nodes);
        }
    }

    #[test]
    fn shared_members_observe_the_same_mutations() {
        let mut c = BlasCollection::new();
        let db = Arc::new(BlasDb::load("<db><e/></db>").unwrap());
        let id = c.add_shared("live", Arc::clone(&db));
        assert_eq!(c.find("live"), Some(id));
        assert_eq!(c.find("absent"), None);
        assert!(Arc::ptr_eq(c.doc_shared(id), &db));
        let root = {
            let snap = db.snapshot();
            let label = snap.query("/db", crate::db::EngineChoice::auto()).unwrap().nodes[0];
            label.start
        };
        db.insert_subtree(root, "<e/>").unwrap();
        // The collection's view sees the published generation.
        assert_eq!(c.count("/db/e").unwrap(), 2);
    }

    #[test]
    fn bad_document_rejected_without_corrupting_collection() {
        let mut c = sample();
        assert!(c.add("broken", "<a><b></a>").is_err());
        assert_eq!(c.len(), 3);
        assert_eq!(c.count("/db/e/n").unwrap(), 3);
    }
}
