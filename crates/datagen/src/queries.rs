//! The evaluation query sets: Fig. 10 (QS/QP/QA) and the XMark
//! benchmark queries of Fig. 15.
//!
//! The paper's benchmark queries Q1–Q6 are XMark *XQuery* queries; the
//! paper states it used "a set of benchmark queries provided by XMark
//! which only contains '/', '//' and branches" (§5.1.2) and, for the
//! twig-engine runs, stripped value predicates (§5.3.1). We therefore
//! render each benchmark query's navigational core as a tree query; Q3
//! is omitted exactly as in Fig. 15 (the paper reports Q1, Q2, Q4, Q5,
//! Q6 only).

use crate::DatasetId;

/// Query type per §5.1.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Type 1: suffix path query (descendant axis only at the start, no
    /// branches).
    SuffixPath,
    /// Type 2: path query (descendant axis anywhere, no branches).
    Path,
    /// Type 3: general tree (twig) query.
    Tree,
}

/// One evaluation query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchQuery {
    /// Name as used in the paper ("QS1", …, "Q6").
    pub id: &'static str,
    /// XPath text (Fig. 10 syntax).
    pub xpath: &'static str,
    /// Query type.
    pub kind: QueryKind,
}

/// The Fig. 10 query set for a dataset.
pub fn query_set(dataset: DatasetId) -> [BenchQuery; 3] {
    match dataset {
        DatasetId::Shakespeare => [
            BenchQuery {
                id: "QS1",
                xpath: "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE",
                kind: QueryKind::SuffixPath,
            },
            BenchQuery {
                id: "QS2",
                xpath: "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR",
                kind: QueryKind::Path,
            },
            BenchQuery {
                id: "QS3",
                xpath: "/PLAYS/PLAY/ACT/SCENE[TITLE='SCENE III. A public place.']//LINE",
                kind: QueryKind::Tree,
            },
        ],
        DatasetId::Protein => [
            BenchQuery {
                id: "QP1",
                xpath: "/ProteinDatabase/ProteinEntry/protein/name",
                kind: QueryKind::SuffixPath,
            },
            BenchQuery {
                id: "QP2",
                xpath: "/ProteinDatabase/ProteinEntry//authors/author='Daniel, M.'",
                kind: QueryKind::Path,
            },
            BenchQuery {
                id: "QP3",
                xpath: "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name",
                kind: QueryKind::Tree,
            },
        ],
        DatasetId::Auction => [
            BenchQuery {
                id: "QA1",
                xpath: "//category/description/parlist/listitem",
                kind: QueryKind::SuffixPath,
            },
            BenchQuery {
                id: "QA2",
                xpath: "/site/regions//item/description",
                kind: QueryKind::Path,
            },
            BenchQuery {
                id: "QA3",
                xpath: "/site/regions/asia/item[shipping]/description",
                kind: QueryKind::Tree,
            },
        ],
    }
}

/// XPath renderings of the XMark benchmark queries used in Fig. 15
/// (navigational cores; value predicates already stripped per §5.3.1).
pub fn xmark_benchmark() -> [BenchQuery; 5] {
    [
        // Q1: the name of a person (XMark: person with a given id).
        BenchQuery { id: "Q1", xpath: "/site/people/person/name", kind: QueryKind::SuffixPath },
        // Q2: bid increases of open auctions.
        BenchQuery {
            id: "Q2",
            xpath: "/site/open_auctions/open_auction/bidder/increase",
            kind: QueryKind::SuffixPath,
        },
        // Q4: reserves of auctions that have a bidder (XMark: ordering
        // condition between bidders; navigational core = the branch).
        BenchQuery {
            id: "Q4",
            xpath: "/site/open_auctions/open_auction[bidder/personref]/reserve",
            kind: QueryKind::Tree,
        },
        // Q5: prices of closed auctions.
        BenchQuery {
            id: "Q5",
            xpath: "/site/closed_auctions/closed_auction/price",
            kind: QueryKind::SuffixPath,
        },
        // Q6: all items anywhere under regions.
        BenchQuery { id: "Q6", xpath: "/site/regions//item", kind: QueryKind::Path },
    ]
}

/// Every query of the paper's evaluation with the dataset it runs on:
/// the Fig. 10 sets of the three datasets, then the Fig. 15 XMark
/// queries on Auction — the rows of §5's table.
pub fn evaluation_queries() -> impl Iterator<Item = (DatasetId, BenchQuery)> {
    DatasetId::ALL
        .into_iter()
        .flat_map(|ds| query_set(ds).into_iter().map(move |q| (ds, q)))
        .chain(xmark_benchmark().into_iter().map(|q| (DatasetId::Auction, q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_xpath::parse;

    #[test]
    fn all_queries_parse() {
        for ds in DatasetId::ALL {
            for q in query_set(ds) {
                parse(q.xpath).unwrap_or_else(|e| panic!("{}: {e}", q.id));
            }
        }
        for q in xmark_benchmark() {
            parse(q.xpath).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        }
    }

    #[test]
    fn kinds_match_structure() {
        for ds in DatasetId::ALL {
            for q in query_set(ds) {
                let tree = parse(q.xpath).unwrap();
                match q.kind {
                    QueryKind::SuffixPath => {
                        assert!(!tree.has_interior_descendant(), "{}", q.id);
                        assert!(tree.node_ids().all(|n| tree.node(n).children.len() <= 1));
                    }
                    QueryKind::Path => {
                        assert!(tree.node_ids().all(|n| tree.node(n).children.len() <= 1));
                    }
                    QueryKind::Tree => {
                        assert!(tree.node_ids().any(|n| tree.is_branching(n)), "{}", q.id);
                    }
                }
            }
        }
    }

    #[test]
    fn queries_yield_results_on_generated_data() {
        use blas_engine::naive;
        use blas_xml::Document;
        for ds in DatasetId::ALL {
            let doc = Document::parse(&ds.generate(1)).unwrap();
            for q in query_set(ds) {
                let tree = parse(q.xpath).unwrap();
                let n = naive::evaluate(&tree, &doc).len();
                assert!(n > 0, "{} returns nothing on {}", q.id, ds.name());
            }
        }
        let doc = Document::parse(&DatasetId::Auction.generate(1)).unwrap();
        for q in xmark_benchmark() {
            let tree = parse(q.xpath).unwrap();
            assert!(!naive::evaluate(&tree, &doc).is_empty(), "{}", q.id);
        }
    }
}
