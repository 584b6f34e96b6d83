//! Cross-crate integration tests: the full pipeline (generate → parse →
//! label → store → translate → execute) on all three paper datasets,
//! with every translator × engine combination agreeing and the paper's
//! qualitative claims holding.

use blas::{BlasDb, Engine, EngineChoice, Translator};
use blas_datagen::{query_set, xmark_benchmark, DatasetId};
use blas_xpath::parse;

/// Small scale keeps CI fast while exercising every code path.
fn load(ds: DatasetId) -> BlasDb {
    // Use a reduced instance: scale 1 is the paper's full base size,
    // fine for release benches but slow for debug tests. The generators
    // only accept integral scales, so generate scale 1 once per test
    // binary run (still < a few seconds in debug).
    BlasDb::load(&ds.generate(1)).expect("generator output is well-formed")
}

#[test]
fn fig10_queries_agree_across_strategies_and_engines() {
    for ds in DatasetId::ALL {
        let db = load(ds);
        for q in query_set(ds) {
            let reference = db
                .query_with(q.xpath, Translator::DLabeling, Engine::Rdbms)
                .unwrap();
            assert!(reference.stats.result_count > 0, "{} empty", q.id);
            for t in [Translator::Split, Translator::PushUp, Translator::Unfold] {
                let got = db.query_with(q.xpath, t, Engine::Rdbms).unwrap();
                assert_eq!(got.nodes, reference.nodes, "{} rdbms/{t:?}", q.id);
            }
            for t in [Translator::DLabeling, Translator::Split, Translator::PushUp] {
                // Twig engine runs the value-stripped form (§5.3.1), so
                // compare against the rdbms run of the same stripped
                // query.
                let stripped = parse(q.xpath).unwrap().without_value_predicates();
                let want = db
                    .run(&stripped, EngineChoice::rdbms().with_translator(Translator::DLabeling))
                    .unwrap();
                let got = db.run(&stripped, EngineChoice::twig().with_translator(t)).unwrap();
                assert_eq!(got.nodes, want.nodes, "{} twig/{t:?}", q.id);
            }
        }
    }
}

#[test]
fn xmark_benchmark_queries_agree() {
    let db = load(DatasetId::Auction);
    for q in xmark_benchmark() {
        let reference = db
            .query_with(q.xpath, Translator::DLabeling, Engine::Twig)
            .unwrap();
        assert!(reference.stats.result_count > 0, "{} empty", q.id);
        for t in [Translator::Split, Translator::PushUp] {
            let got = db.query_with(q.xpath, t, Engine::Twig).unwrap();
            assert_eq!(got.nodes, reference.nodes, "{} {t:?}", q.id);
        }
    }
}

#[test]
fn blas_translators_never_read_more_than_baseline() {
    for ds in DatasetId::ALL {
        let db = load(ds);
        for q in query_set(ds) {
            let base = db
                .query_with(q.xpath, Translator::DLabeling, Engine::Rdbms)
                .unwrap()
                .stats;
            for t in [Translator::Split, Translator::PushUp, Translator::Unfold] {
                let s = db.query_with(q.xpath, t, Engine::Rdbms).unwrap().stats;
                assert!(
                    s.elements_visited <= base.elements_visited,
                    "{} {t:?}: {} > baseline {}",
                    q.id,
                    s.elements_visited,
                    base.elements_visited
                );
                assert!(s.d_joins <= base.d_joins, "{} {t:?} joins", q.id);
            }
        }
    }
}

#[test]
fn suffix_path_queries_read_only_matching_tuples() {
    // §4.2 claim 2: for /t1/…/tn BLAS accesses only tuples whose
    // P-label is contained in the query's — bounded by the result size
    // (no value predicates here).
    let db = load(DatasetId::Shakespeare);
    let r = db
        .query_with("/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE", Translator::PushUp, Engine::Rdbms)
        .unwrap();
    assert_eq!(r.stats.elements_visited as usize, r.stats.result_count);
    assert_eq!(r.stats.d_joins, 0);
}

#[test]
fn pushup_beats_split_on_twigs() {
    // §5.2.3: Push-up's selections are more specific than Split's on
    // branching queries.
    let db = load(DatasetId::Auction);
    let split = db
        .query_with(
            "/site/regions/asia/item[shipping]/description",
            Translator::Split,
            Engine::Rdbms,
        )
        .unwrap()
        .stats;
    let pushup = db
        .query_with(
            "/site/regions/asia/item[shipping]/description",
            Translator::PushUp,
            Engine::Rdbms,
        )
        .unwrap()
        .stats;
    assert!(pushup.elements_visited < split.elements_visited, "{pushup:?} vs {split:?}");
    assert_eq!(pushup.d_joins, split.d_joins);
}

#[test]
fn unfold_eliminates_descendant_joins() {
    let db = load(DatasetId::Protein);
    let q = "/ProteinDatabase/ProteinEntry//authors/author";
    let pushup = db.query_with(q, Translator::PushUp, Engine::Rdbms).unwrap().stats;
    let unfold = db.query_with(q, Translator::Unfold, Engine::Rdbms).unwrap().stats;
    assert!(unfold.d_joins < pushup.d_joins);
    assert_eq!(unfold.result_count, pushup.result_count);
}

#[test]
fn attribute_queries_work_end_to_end() {
    let db = load(DatasetId::Auction);
    let r = db.query("/site/people/person/@id", EngineChoice::auto()).unwrap();
    assert!(r.stats.result_count > 0);
    assert!(db.texts(&r).iter().flatten().all(|t| t.starts_with("person")));
}

#[test]
fn storage_is_bounded_like_the_paper_claims() {
    // §7: "the space used to represent an XML document is comparable to
    // the size of the original document" — 4 numbers + data per node.
    let xml = DatasetId::Shakespeare.generate(1);
    let db = BlasDb::load(&xml).unwrap();
    let per_node = std::mem::size_of::<u128>() + 2 * std::mem::size_of::<u32>() + std::mem::size_of::<u16>();
    let label_bytes = db.store().len() * per_node;
    assert!(
        label_bytes < 2 * xml.len(),
        "label storage {} vs document {}",
        label_bytes,
        xml.len()
    );
}
