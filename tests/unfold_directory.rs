//! Unfold against the path directory on a document whose two tags nest
//! in themselves and in each other: `<r>`, an `a` chain and a `b` chain
//! each 12 deep, then `<a><b/></a><b><a/></b>` — 29 nodes on 27 live
//! source paths. A tag graph admits 2^k paths of length k here; the
//! live path set admits 27, so every `//` query unfolds into at most 27
//! arms and answers exactly like the naive tree walker, under `Auto`
//! and under an explicit Unfold.

use blas::{BlasDb, EngineChoice, Plan, Translator};
use blas_engine::naive;
use blas_xpath::parse;

fn two_tag_document() -> String {
    let chain = |t: &str| format!("<{t}>").repeat(12) + &format!("</{t}>").repeat(12);
    format!("<r>{}{}<a><b/></a><b><a/></b></r>", chain("a"), chain("b"))
}

#[test]
fn recursive_two_tag_queries_unfold_within_the_live_keys() {
    let db = BlasDb::load(&two_tag_document()).unwrap();
    let keys = db.store().live_plabels().len();
    assert_eq!((db.document().len(), keys), (29, 27));
    let unfold = EngineChoice::rdbms().with_translator(Translator::Unfold);
    for (xpath, want) in [("//*", 29), ("//a", 14), ("//a//b", 1), ("/r//a/b", 1)] {
        let mut expected: Vec<u32> = naive::evaluate(&parse(xpath).unwrap(), db.document())
            .into_iter()
            .map(|n| db.labels().dlabels[n.index()].start)
            .collect();
        expected.sort_unstable();
        assert_eq!(expected.len(), want, "{xpath}");
        for choice in [EngineChoice::auto(), unfold] {
            let got: Vec<u32> = db
                .query(xpath, choice)
                .unwrap()
                .nodes
                .iter()
                .map(|l| l.start)
                .collect();
            assert_eq!(got, expected, "{xpath} under {choice:?}");
            assert_eq!(
                db.count(xpath, choice).unwrap().count,
                want,
                "{xpath} under {choice:?}"
            );
        }
        let arms = match db.plan(xpath, Translator::Unfold).unwrap() {
            Plan::Union(alts) => alts.len(),
            _ => 1,
        };
        assert!(arms <= keys, "{xpath}: {arms} arms for {keys} live keys");
    }
}
