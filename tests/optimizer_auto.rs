//! `EngineChoice::Auto` end-to-end: its engine race must be a pure
//! performance feature — byte-identical answers to every manual engine
//! on random documents and queries (owned *and* mapped stores) — and it
//! resolves every Fig. 10 query to the relational plan. The measured
//! counterexample that keeps the race (a twig the ordered twig lowering
//! runs faster) is pinned, and the plan cache's counters prove repeat
//! queries skip preparation.

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

/// On every Fig. 10 query of the three datasets, Auto resolves to the
/// relational plan over Unfold: the same engine, translator, operator
/// count and estimate as `rdbms()`, the same nodes and the same
/// `elements_visited` / `d_joins`.
#[test]
fn fig10_choices_are_pinned_and_correct() {
    for ds in DatasetId::ALL {
        let db = BlasDb::load(&ds.generate(1)).unwrap();
        for q in query_set(ds) {
            let auto = db.plan_info(q.xpath, EngineChoice::auto()).unwrap();
            let rdbms = db.plan_info(q.xpath, EngineChoice::rdbms()).unwrap();
            assert_eq!(
                (auto.engine, auto.translator, auto.ops, auto.est_cost_ns),
                (Engine::Rdbms, Translator::Unfold, rdbms.ops, rdbms.est_cost_ns),
                "{}",
                q.id
            );
            assert!(auto.est_cost_ns > 0.0, "{}", q.id);

            let a = db.query(q.xpath, EngineChoice::auto()).unwrap();
            let r = db.query(q.xpath, EngineChoice::rdbms()).unwrap();
            assert_eq!(a.nodes, r.nodes, "{}", q.id);
            assert_eq!(
                (a.stats.elements_visited, a.stats.d_joins),
                (r.stats.elements_visited, r.stats.d_joins),
                "{}",
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

/// The counterexample that keeps the engine race. On this twig the
/// race's twig lowering (children ordered by stream size) ran more than
/// 10 % faster than the relational plan at Auction ×1 and ×10 (median
/// of 201 interleaved `count` runs; ARCHITECTURE.md has the probe). The
/// reason is deterministic: both plans read the same elements, but the
/// twig lowering semi-joins `person` with its smallest child stream
/// first, so its D-joins take fewer input tuples. The cost model still
/// prices it above the relational plan, so Auto keeps `rdbms`; a model
/// that catches it flips the last assertion.
#[test]
fn twig_lowering_counterexample_is_pinned() {
    use blas_engine::{exec, lower_plan, lower_twig, order_twig_joins, ExecStats, TwigQuery};
    use blas_translate::{bind, translate_unfold};

    let xpath = "/site/people/person[address][creditcard]/homepage";
    let db = BlasDb::load(&DatasetId::Auction.generate(1)).unwrap();
    let plan = translate_unfold(&blas_xpath::parse(xpath).unwrap(), db.schema()).unwrap();
    let bound = bind(&plan, db.tags(), db.domain(), &db.store().live_plabels());
    let arms: Vec<TwigQuery> =
        TwigQuery::from_plan(&bound).iter().map(|q| order_twig_joins(q, db.store())).collect();
    let run = |phys| {
        let mut stats = ExecStats::default();
        (exec::execute(&phys, db.store(), &mut stats), stats)
    };
    let (rdbms_nodes, rdbms) = run(lower_plan(&bound));
    let (twig_nodes, twig) = run(lower_twig(&arms));
    assert_eq!(twig_nodes, rdbms_nodes);
    assert_eq!(rdbms_nodes, db.query(xpath, EngineChoice::twig()).unwrap().nodes);
    assert_eq!((twig.elements_visited, twig.d_joins), (rdbms.elements_visited, rdbms.d_joins));
    assert!(
        twig.join_input_tuples < rdbms.join_input_tuples,
        "twig {} vs rdbms {} join input tuples",
        twig.join_input_tuples,
        rdbms.join_input_tuples
    );
    assert_eq!(db.plan_info(xpath, EngineChoice::auto()).unwrap().engine, Engine::Rdbms);
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
