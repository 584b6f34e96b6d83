//! `EngineChoice::Auto` end-to-end: it is the relational plan over
//! Unfold — byte-identical answers to every manual engine on random
//! documents and queries (owned *and* mapped stores), and `rdbms()`'s
//! plan on every query of the paper's evaluation — and the plan cache's
//! counters prove repeat queries skip preparation.

use blas::{BlasDb, Engine, EngineChoice, Translator};
use blas_datagen::{query_set, DatasetId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const TAGS: &[&str] = &["a", "b", "c", "d"];

/// Random document over a tiny tag alphabet, with occasional text.
fn xml_doc() -> impl Strategy<Value = String> {
    let leaf = (0usize..TAGS.len(), prop::option::of("[xyz]")).prop_map(|(t, txt)| match txt {
        Some(s) => format!("<{0}>{s}</{0}>", TAGS[t]),
        None => format!("<{}/>", TAGS[t]),
    });
    leaf.prop_recursive(4, 60, 4, |inner| {
        (0usize..TAGS.len(), prop::collection::vec(inner, 1..4))
            .prop_map(|(t, kids)| format!("<{0}>{1}</{0}>", TAGS[t], kids.concat()))
    })
}

/// Random tree query: a spine of 1–4 steps with optional predicates
/// and value tests.
fn xpath_query() -> impl Strategy<Value = String> {
    let step = (
        prop::bool::ANY,
        0usize..=TAGS.len(),
        prop::option::of((0usize..TAGS.len(), prop::bool::ANY)),
        prop::option::of("[xyz]"),
    );
    prop::collection::vec(step, 1..4).prop_map(|steps| {
        let mut out = String::new();
        let last = steps.len() - 1;
        for (i, (deep, tag, pred, value)) in steps.into_iter().enumerate() {
            out.push_str(if deep { "//" } else { "/" });
            out.push_str(TAGS.get(tag).copied().unwrap_or("*"));
            if let Some((ptag, pdeep)) = pred {
                out.push('[');
                if pdeep {
                    out.push_str("//");
                }
                out.push_str(TAGS[ptag]);
                out.push(']');
            }
            if i == last {
                if let Some(v) = value {
                    out.push_str(&format!("='{v}'"));
                }
            }
        }
        out
    })
}

/// Snapshot `db` to a unique temp file and reopen it mapped.
fn mapped_twin(db: &BlasDb) -> (BlasDb, std::path::PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "blas_optimizer_auto_{}_{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, db.to_snapshot()).unwrap();
    let mapped = BlasDb::open_mapped(&path).unwrap();
    assert!(mapped.store().is_mapped());
    (mapped, path)
}

/// The manual engine choices Auto must agree with (the translator is
/// the recommended one per engine; D-labeling is the baseline oracle).
const MANUAL: [EngineChoice; 4] = [
    EngineChoice::rdbms(),
    EngineChoice::rdbms().with_translator(Translator::DLabeling),
    EngineChoice::twig(),
    EngineChoice::twigstack(),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Auto returns byte-identical nodes to every manual engine that
    /// accepts the query, on the owned store and on a mapped snapshot
    /// of the same document — and the two Auto runs agree with each
    /// other (the optimizer sees identical cardinalities either way).
    #[test]
    fn auto_matches_every_manual_engine_owned_and_mapped(
        src in xml_doc(),
        qsrc in xpath_query(),
    ) {
        let db = BlasDb::load(&src).unwrap();
        let (mapped, path) = mapped_twin(&db);

        let auto_owned = db.query(&qsrc, EngineChoice::auto()).unwrap();
        let auto_mapped = mapped.query(&qsrc, EngineChoice::auto()).unwrap();
        prop_assert_eq!(&auto_owned.nodes, &auto_mapped.nodes, "owned vs mapped on {}", qsrc);

        for choice in MANUAL {
            // A twig past `UNFOLD_CAP` rewritings is refused by every
            // Unfold choice, Auto included; none occurs at this size.
            let (Ok(owned), Ok(m)) = (db.query(&qsrc, choice), mapped.query(&qsrc, choice))
            else {
                continue;
            };
            prop_assert_eq!(&auto_owned.nodes, &owned.nodes, "{} owned {:?}", qsrc, choice);
            prop_assert_eq!(&auto_mapped.nodes, &m.nodes, "{} mapped {:?}", qsrc, choice);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Auto with an explicit translator answers what the relational
    /// engine answers under that translator.
    #[test]
    fn auto_with_explicit_translator_agrees(src in xml_doc(), qsrc in xpath_query()) {
        let db = BlasDb::load(&src).unwrap();
        let expected = db
            .query(&qsrc, EngineChoice::rdbms().with_translator(Translator::DLabeling))
            .unwrap();
        let auto = db
            .query(&qsrc, EngineChoice::auto().with_translator(Translator::DLabeling))
            .unwrap();
        prop_assert_eq!(&auto.nodes, &expected.nodes, "{}", qsrc);
    }
}

/// On every query of the paper's evaluation (Fig. 10 and the XMark
/// set), Auto resolves to the relational plan over Unfold: the same
/// engine, translator and operator count as `rdbms()`, and the same
/// nodes and `elements_visited` / `d_joins` as `rdbms()` and `twig()`.
#[test]
fn fig10_choices_are_pinned_and_correct() {
    let mut loaded: Option<(DatasetId, BlasDb)> = None;
    for (ds, q) in blas_datagen::evaluation_queries() {
        if loaded.as_ref().map(|(d, _)| *d) != Some(ds) {
            loaded = Some((ds, BlasDb::load(&ds.generate(1)).unwrap()));
        }
        let db = &loaded.as_ref().unwrap().1;
        let auto = db.plan_info(q.xpath, EngineChoice::auto()).unwrap();
        let rdbms = db.plan_info(q.xpath, EngineChoice::rdbms()).unwrap();
        assert_eq!(
            (auto.engine, auto.translator, auto.ops),
            (rdbms.engine, rdbms.translator, rdbms.ops),
            "{}",
            q.id
        );
        assert_eq!((auto.engine, auto.translator), (Engine::Rdbms, Translator::Unfold), "{}", q.id);

        let a = db.query(q.xpath, EngineChoice::auto()).unwrap();
        for other in [EngineChoice::rdbms(), EngineChoice::twig()] {
            let r = db.query(q.xpath, other).unwrap();
            assert_eq!(a.nodes, r.nodes, "{} {other}", q.id);
            assert_eq!(
                (a.stats.elements_visited, a.stats.d_joins),
                (r.stats.elements_visited, r.stats.d_joins),
                "{} {other}",
                q.id
            );
        }
    }
}

/// QA1 (a suffix path) resolves to the relational lowering.
#[test]
fn qa1_suffix_path_picks_the_relational_lowering() {
    let db = BlasDb::load(&DatasetId::Auction.generate(1)).unwrap();
    let qa1 = query_set(DatasetId::Auction)[0];
    assert_eq!(qa1.id, "QA1");
    let info = db.plan_info(qa1.xpath, EngineChoice::auto()).unwrap();
    assert_eq!(info.engine, Engine::Rdbms, "{info:?}");
}

/// The plan cache, counter-verified: the second identical query hits;
/// a different choice or a cleared cache misses.
#[test]
fn plan_cache_hits_are_counted() {
    let db = BlasDb::load("<db><e><n>x</n></e><e><n>y</n></e></db>").unwrap();
    let s0 = db.plan_cache_stats();
    assert_eq!((s0.hits, s0.misses, s0.entries), (0, 0, 0));

    let first = db.query("/db/e/n", EngineChoice::auto()).unwrap();
    let s1 = db.plan_cache_stats();
    assert_eq!((s1.hits, s1.misses, s1.entries), (0, 1, 1));

    let second = db.query("/db/e/n", EngineChoice::auto()).unwrap();
    assert_eq!(first.nodes, second.nodes);
    let s2 = db.plan_cache_stats();
    assert_eq!((s2.hits, s2.misses), (1, 1));

    // plan_info resolves through the same cache.
    let info = db.plan_info("/db/e/n", EngineChoice::auto()).unwrap();
    assert!(info.cached);
    assert_eq!(db.plan_cache_stats().hits, 2);

    // A different choice is a different plan.
    let _ = db.query("/db/e/n", EngineChoice::twig()).unwrap();
    let s3 = db.plan_cache_stats();
    assert_eq!((s3.hits, s3.misses, s3.entries), (2, 2, 2));

    // Clearing drops entries but keeps the counters accumulating.
    db.clear_plan_cache();
    assert_eq!(db.plan_cache_stats().entries, 0);
    let _ = db.query("/db/e/n", EngineChoice::auto()).unwrap();
    let s4 = db.plan_cache_stats();
    assert_eq!((s4.hits, s4.misses, s4.entries), (2, 3, 1));
    assert!(s4.hit_rate() > 0.0 && s4.hit_rate() < 1.0);

    // An unparsable query errors without poisoning the cache.
    assert!(db.query("e/n", EngineChoice::auto()).is_err());
    assert_eq!(db.plan_cache_stats().entries, 1);
}

/// Satellite of the delta-store tentpole: the plan-cache key carries
/// the generation number, so a mutation is a cache **miss** that
/// re-prepares the query against the new generation's run directories, the
/// superseded entry is pruned, and `clear_plan_cache` keeps working
/// across generations.
#[test]
fn mutations_invalidate_the_plan_cache_by_generation() {
    let db = BlasDb::load("<db><e><n>x</n></e><e><n>y</n></e></db>").unwrap();
    let q = "/db/e/n";
    let before = db.query(q, EngineChoice::auto()).unwrap();
    assert_eq!(before.nodes.len(), 2);
    let _ = db.query(q, EngineChoice::auto()).unwrap();
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));

    // A mutation publishes generation 1; the cached generation-0 plan
    // no longer applies.
    db.insert_subtree(0, "<e><n>z</n></e>").unwrap();
    assert_eq!(db.generation(), 1);
    let after = db.query(q, EngineChoice::auto()).unwrap();
    assert_eq!(after.nodes.len(), 3, "the re-prepared plan sees the insert");
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (1, 2), "a new generation is a miss, not a stale hit");
    assert_eq!(s.entries, 1, "the superseded generation's entry was pruned");

    // The re-prepared plan is fully resolved, cached, and hit on repeat.
    let info = db.plan_info(q, EngineChoice::auto()).unwrap();
    assert!(info.cached);
    assert_ne!(info.engine, Engine::Auto);
    let _ = db.query(q, EngineChoice::auto()).unwrap();
    assert_eq!(db.plan_cache_stats().hits, 3);

    // Compaction folds the delta into fresh columns — also a new
    // generation, also a miss, same answer.
    db.compact();
    let folded = db.query(q, EngineChoice::auto()).unwrap();
    assert_eq!(folded.nodes, after.nodes);
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.entries), (3, 3, 1));

    // `clear_plan_cache` still empties the (generation-keyed) cache.
    db.clear_plan_cache();
    assert_eq!(db.plan_cache_stats().entries, 0);
    let _ = db.query(q, EngineChoice::auto()).unwrap();
    assert_eq!(db.plan_cache_stats().entries, 1);
}

/// `run` (pre-parsed trees) has no string key and must bypass the
/// cache entirely.
#[test]
fn run_bypasses_the_plan_cache() {
    let db = BlasDb::load("<db><e><n>x</n></e></db>").unwrap();
    let q = blas_xpath::parse("/db/e/n").unwrap();
    let r1 = db.run(&q, EngineChoice::auto()).unwrap();
    let r2 = db.run(&q, EngineChoice::auto()).unwrap();
    assert_eq!(r1.nodes, r2.nodes);
    let s = db.plan_cache_stats();
    assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
}

/// The engine-name round-trip a server request's `engine` field relies on.
#[test]
fn engine_choice_parses_and_displays() {
    for (token, choice) in [
        ("auto", EngineChoice::auto()),
        ("rdbms", EngineChoice::rdbms()),
        ("twig", EngineChoice::twig()),
        ("twigstack", EngineChoice::twigstack()),
    ] {
        let parsed: EngineChoice = token.parse().unwrap();
        assert_eq!(parsed, choice);
        assert_eq!(parsed.to_string(), token);
    }
    assert!("".parse::<EngineChoice>().is_err());
    assert!("Auto".parse::<EngineChoice>().is_err(), "tokens are lowercase");
    assert!("sql".parse::<EngineChoice>().is_err());
}
