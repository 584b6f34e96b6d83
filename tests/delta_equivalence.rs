//! Differential mutation suite for the delta store: random documents
//! take random mutation scripts through the public `BlasDb` API —
//! inserts on the rightmost spine, subtree deletes, retags — and the
//! delta-layered database must answer **byte-identically** to a store
//! rebuilt from scratch from its own folded snapshot, across every
//! engine and both column sources
//! (owned base and a memory-mapped v3 snapshot with packed columns,
//! each carrying the same delta).
//!
//! The same script is applied to the owned and the mapped twin in
//! lockstep, so any divergence between the two delta layers — not just
//! against the rebuild — fails the test too.
//!
//! The count differential rides along: `BlasDb::count` must agree with
//! `BlasDb::query`'s length for every engine × translator, on both
//! twins, before and after the script and after a
//! compaction, on flat and on recursive (`parlist`/`listitem`)
//! documents.

use blas::{BlasDb, BoundPlan, Engine, EngineChoice, Translator};
use blas_translate::{bind, BoundSelection, BoundSource};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One document family: its tag alphabet and the fragments inserts
/// draw from (a fragment whose tag is absent from the document's tag
/// table is rejected by the API, which the test treats as a no-op on
/// both twins).
struct Family {
    tags: &'static [&'static str],
    fragments: &'static [&'static str],
}

const TAGS: &[&str] = &["a", "b", "c", "d"];

const FLAT: Family = Family {
    tags: TAGS,
    fragments: &["<a/>", "<b>x</b>", "<c><d>y</d></c>", "<a><b/><c>z</c></a>"],
};

const RECURSIVE: Family = Family {
    tags: &["parlist", "listitem", "text", "bold"],
    fragments: &[
        "<text>q</text>",
        "<parlist/>",
        "<listitem><parlist><listitem><text>r</text></listitem></parlist></listitem>",
        "<parlist><listitem><bold/></listitem></parlist>",
    ],
};

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

/// XMark-style recursive text: `parlist` and `listitem` nest in each
/// other to a random depth, so one tag sits on many source paths.
fn recursive_doc() -> impl Strategy<Value = String> {
    let leaf = prop::sample::select(vec!["<text>w</text>", "<bold/>", "<text>v</text>"])
        .prop_map(str::to_string);
    leaf.prop_recursive(5, 60, 3, |inner| {
        (any::<bool>(), prop::collection::vec(inner, 1..4)).prop_map(|(list, kids)| {
            let tag = if list { "parlist" } else { "listitem" };
            format!("<{tag}>{}</{tag}>", kids.concat())
        })
    })
    .prop_map(|body| format!("<parlist>{body}<listitem><text>t</text><bold/></listitem></parlist>"))
}

/// An abstract mutation script: `(kind, pick, detail)` triples resolved
/// against whatever the database looks like when each op runs.
fn scripts() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..3, 0usize..64, 0usize..8), 1..8)
}

/// [`scripts`] with compactions mixed in.
fn compacting_scripts() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..4, 0usize..64, 0usize..8), 1..8)
}

/// Live `(start, end, level)` triples of the current generation, in
/// document order (row 0 is the root).
fn live(db: &BlasDb) -> Vec<(u32, u32, u16)> {
    let snap = db.snapshot();
    let rows: Vec<(u32, u32, u16)> =
        snap.store().scan_all().map(|(_, r)| (r.start, r.end, r.level)).collect();
    rows
}

/// Apply one abstract op through the public mutation API. Returns a
/// description of what happened (including rejections), so the caller
/// can assert the owned and mapped twins stayed in lockstep.
fn apply(db: &BlasDb, family: &Family, (kind, pick, detail): (u8, usize, usize)) -> String {
    let nodes = live(db);
    let watermark = nodes[0].1;
    match kind {
        0 => {
            // Insert a fragment under a node of the rightmost spine.
            let spine: Vec<u32> = nodes
                .iter()
                .filter(|&&(_, e, l)| watermark - e == u32::from(l - 1))
                .map(|&(s, _, _)| s)
                .collect();
            let target = spine[pick % spine.len()];
            let frag = family.fragments[detail % family.fragments.len()];
            match db.insert_subtree(target, frag) {
                Ok(g) => format!("insert {frag} under {target} -> gen {g}"),
                Err(e) => format!("insert {frag} under {target} rejected: {e}"),
            }
        }
        1 => {
            // Delete a non-root subtree (no-op once only the root is left).
            if nodes.len() == 1 {
                return "delete skipped: root only".to_string();
            }
            let target = nodes[1 + pick % (nodes.len() - 1)].0;
            match db.delete(target) {
                Ok(g) => format!("delete {target} -> gen {g}"),
                Err(e) => format!("delete {target} rejected: {e}"),
            }
        }
        2 => {
            // Retag any live node (rejected if the tag is not in the
            // document's table; a same-tag retag publishes nothing).
            let target = nodes[pick % nodes.len()].0;
            let tag = family.tags[detail % family.tags.len()];
            match db.retag(target, tag) {
                Ok(g) => format!("retag {target} -> {tag} -> gen {g}"),
                Err(e) => format!("retag {target} -> {tag} rejected: {e}"),
            }
        }
        _ => format!("compact -> gen {}", db.compact()),
    }
}

/// Snapshot `db` to a unique temp file and reopen it mapped (v3 layout:
/// packed label/tag/value planes served straight from the mapping).
fn mapped_twin(db: &BlasDb) -> (BlasDb, std::path::PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "blas_delta_equivalence_{}_{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, db.to_snapshot()).unwrap();
    let mapped = BlasDb::open_mapped(&path).unwrap();
    assert!(mapped.store().is_mapped());
    (mapped, path)
}

/// Unanchored queries every engine accepts, exercising tag scans,
/// child and descendant steps, predicates and value tests.
const QUERIES: &[&str] = &[
    "//a",
    "//b",
    "//c",
    "//d",
    "//a/b",
    "//b//c",
    "//a[b]",
    "//c[d]//a",
    "//b='x'",
];

/// The engines the mutated databases must agree on.
fn choices() -> [EngineChoice; 4] {
    [EngineChoice::auto(), EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack()]
}

/// Count-differential queries on flat documents: [`QUERIES`] (tag and
/// range scans, joins, the value-filtered `//b='x'`), plus root-anchored
/// paths (level-filtered scans under the D-labeling translator), absent
/// tags (`Empty` sources) and double descendant steps (chains that
/// split one path several ways, each key still named once).
const FLAT_COUNTS: &[&str] =
    &["/a", "/a/b", "/b//c", "//zz", "//a//zz", "//a//b", "//b//b//c", "//a//a"];

/// Count-differential queries on recursive documents.
const RECURSIVE_COUNTS: &[&str] = &[
    "//listitem",
    "//text",
    "//parlist//text",
    "//listitem//listitem",
    "//listitem//parlist//text",
    "//listitem[bold]",
    "//text='w'",
    "/parlist/listitem",
    "/parlist//bold",
];

/// Every engine × translator.
fn count_choices() -> Vec<EngineChoice> {
    let engines = [Engine::Auto, Engine::Rdbms, Engine::Twig, Engine::TwigStack];
    let translators = [
        Translator::Auto,
        Translator::DLabeling,
        Translator::Split,
        Translator::PushUp,
        Translator::Unfold,
    ];
    let mut out = Vec::new();
    for engine in engines {
        for translator in translators {
            out.push(EngineChoice { engine, translator });
        }
    }
    out
}

/// `count(x).count == query(x).nodes.len()` for every query × choice.
/// A count the run directory answers reads nothing (`elements_visited`
/// and `d_joins` 0); any other reports exactly `query`'s counters. A
/// choice the query rejects rejects the count the same way.
fn assert_counts(db: &BlasDb, queries: &[&str], what: &str) -> Result<(), TestCaseError> {
    for q in queries {
        for choice in count_choices() {
            match (db.query(q, choice), db.count(q, choice)) {
                (Ok(r), Ok(c)) => {
                    prop_assert_eq!(c.count, r.nodes.len(), "{} {} {:?}", what, q, choice);
                    prop_assert_eq!(c.stats.result_count, c.count);
                    let mut expect = r.stats;
                    expect.elapsed = c.stats.elapsed;
                    if c.stats != expect {
                        // Only the directory may differ, by reading nothing.
                        expect.elements_visited = 0;
                        expect.d_joins = 0;
                        expect.join_input_tuples = 0;
                        prop_assert_eq!(c.stats, expect, "{} {} {:?} stats", what, q, choice);
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "{} {} {:?}: {:?} vs {:?}", what, q, choice, a, b),
            }
        }
    }
    Ok(())
}

/// The count differential over one family: owned and mapped twins at
/// the base state, after `script` (applied in lockstep), and after a
/// final compaction.
fn check_counts(
    family: &Family,
    src: &str,
    script: &[(u8, usize, usize)],
    queries: &[&str],
) -> Result<(), TestCaseError> {
    let owned = BlasDb::load(src).unwrap();
    let (mapped, path) = mapped_twin(&owned);
    for (db, twin) in [(&owned, "owned"), (&mapped, "mapped")] {
        assert_counts(db, queries, &format!("{twin} base"))?;
    }
    for &op in script {
        let a = apply(&owned, family, op);
        let b = apply(&mapped, family, op);
        prop_assert_eq!(&a, &b, "owned and mapped twins diverged on {:?}", op);
    }
    for (db, twin) in [(&owned, "owned"), (&mapped, "mapped")] {
        assert_counts(db, queries, &format!("{twin} after {script:?}"))?;
        db.compact();
        assert_counts(db, queries, &format!("{twin} compacted"))?;
    }
    std::fs::remove_file(&path).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Count ≡ query on flat documents.
    #[test]
    fn counts_match_query_lengths_on_flat_documents(
        src in xml_doc(),
        script in compacting_scripts(),
    ) {
        let queries: Vec<&str> = QUERIES.iter().chain(FLAT_COUNTS).copied().collect();
        check_counts(&FLAT, &src, &script, &queries)?;
    }

    /// Count ≡ query on recursive `parlist`/`listitem` documents.
    #[test]
    fn counts_match_query_lengths_on_recursive_documents(
        src in recursive_doc(),
        script in compacting_scripts(),
    ) {
        check_counts(&RECURSIVE, &src, &script, RECURSIVE_COUNTS)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property: after an arbitrary mutation script,
    /// base ⊎ delta ≡ a database rebuilt from scratch on the folded
    /// snapshot — for every engine × column source.
    #[test]
    fn mutated_databases_answer_like_their_folded_rebuild(
        src in xml_doc(),
        script in scripts(),
    ) {
        let owned = BlasDb::load(&src).unwrap();
        let (mapped, path) = mapped_twin(&owned);

        for op in script {
            let a = apply(&owned, &FLAT, op);
            let b = apply(&mapped, &FLAT, op);
            prop_assert_eq!(&a, &b, "owned and mapped twins diverged on {:?}", op);
        }
        prop_assert_eq!(owned.generation(), mapped.generation());

        // Folding the delta is source-independent…
        let folded = owned.to_snapshot();
        prop_assert_eq!(&folded, &mapped.to_snapshot(), "snapshots of the twins differ");
        // …and `from_snapshot`'s eager tree rebuild validates that the
        // mutated intervals still nest consistently.
        let rebuilt = BlasDb::from_snapshot(&folded).unwrap();

        for q in QUERIES {
            let expect = rebuilt.query(q, EngineChoice::rdbms()).unwrap();
            let expect_texts = rebuilt.texts(&expect);
            for choice in choices() {
                let a = owned.query(q, choice).unwrap();
                prop_assert_eq!(&a.nodes, &expect.nodes, "owned {} under {:?}", q, choice);
                let b = mapped.query(q, choice).unwrap();
                prop_assert_eq!(&b.nodes, &expect.nodes, "mapped {} under {:?}", q, choice);
            }
            prop_assert_eq!(owned.texts(&expect), expect_texts, "texts {}", q);
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Compaction is invisible: fold the delta in place and every
    /// query answers exactly as before, on both column sources.
    #[test]
    fn compaction_preserves_every_answer(
        src in xml_doc(),
        script in scripts(),
    ) {
        let owned = BlasDb::load(&src).unwrap();
        let (mapped, path) = mapped_twin(&owned);
        for op in script {
            let a = apply(&owned, &FLAT, op);
            let b = apply(&mapped, &FLAT, op);
            prop_assert_eq!(&a, &b, "owned and mapped twins diverged on {:?}", op);
        }
        let before: Vec<_> = QUERIES
            .iter()
            .map(|q| owned.query(q, EngineChoice::auto()).unwrap().nodes)
            .collect();
        owned.compact();
        mapped.compact();
        prop_assert_eq!(
            owned.delta_stats().inserted + owned.delta_stats().deleted,
            0,
            "compaction empties the delta"
        );
        for (q, expect) in QUERIES.iter().zip(&before) {
            for db in [&owned, &mapped] {
                for choice in [EngineChoice::auto(), EngineChoice::rdbms()] {
                    let got = db.query(q, choice).unwrap();
                    prop_assert_eq!(&got.nodes, expect, "{} under {:?}", q, choice);
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// A deterministic end-to-end script on a hand-checked document, so a
/// failure here localizes without shrinking: grow, prune, rename, then
/// verify against the folded rebuild.
#[test]
fn pinned_script_matches_rebuild_everywhere() {
    // D-label units (start tag, text datum and end tag are one unit
    // each): <a>=[0,12], <b>x</b>=[1,3], <c>=[4,11], <d>y</d>=[5,7],
    // <b>z</b>=[8,10].
    let db = BlasDb::load("<a><b>x</b><c><d>y</d><b>z</b></c></a>").unwrap();
    db.delete(5).unwrap(); // the <d>y</d> under <c>
    db.retag(8, "d").unwrap(); // the <b>z</b> under <c> becomes <d>z</d>
    // A 2-deep fragment under <c> (level 2, still on the spine here)
    // would put a node at level 4, past the domain's H − 1 = 3 levels —
    // rejected, not mislabeled.
    assert!(db.insert_subtree(4, "<b><a/></b>").is_err());
    db.insert_subtree(0, "<b><a>w</a></b>").unwrap(); // appended inside the root
    db.insert_subtree(0, "<c/>").unwrap(); // appended inside the root
    assert_eq!(db.generation(), 4);

    let rebuilt = BlasDb::from_snapshot(&db.to_snapshot()).unwrap();
    for q in QUERIES {
        let expect = rebuilt.query(q, EngineChoice::rdbms()).unwrap();
        for choice in choices() {
            let got = db.query(q, choice).unwrap();
            assert_eq!(got.nodes, expect.nodes, "{q} under {choice:?}");
        }
    }
    // Semantic spot checks of the final tree.
    let d = db.query("//d", EngineChoice::auto()).unwrap();
    assert_eq!(db.texts(&d), [Some("z".to_string())]);
    let w = db.query("//b/a", EngineChoice::auto()).unwrap();
    assert_eq!(db.texts(&w), [Some("w".to_string())]);
    assert_eq!(db.query("//c", EngineChoice::auto()).unwrap().nodes.len(), 2);
}

/// Count ≡ query ≡ the D-labeling baseline on Unfold's interval sets
/// while the delta edits keys inside them — a key it inserts into, one
/// it creates, one it tombstones away, one a retag moves — on the owned
/// store and on mapped raw (v2) and packed (v3) snapshots, under the
/// stock engines, and again after compaction.
#[test]
fn interval_sets_over_delta_touched_keys_count_like_they_query() {
    let xml = concat!(
        "<site><b><parlist><listitem><text>p</text><bold/></listitem></parlist><text>q</text></b>",
        "<c><text>r</text><x/></c>",
        "<a><x><y><z/></y></x><text>t</text><parlist><listitem><text>s</text></listitem></parlist></a>",
        "</site>"
    );
    let owned = BlasDb::load(xml).unwrap();
    let tag_names: Vec<String> = owned.tags().iter().map(|(_, n)| n.to_string()).collect();
    let domain = owned.domain();
    let v2 = blas_storage::snapshot::encode_store_v2(
        owned.store(),
        &tag_names,
        domain.num_tags() as u32,
        domain.digits(),
    );
    let raw_path = std::env::temp_dir()
        .join(format!("blas_delta_equivalence_raw_{}.snap", std::process::id()));
    std::fs::write(&raw_path, v2).unwrap();
    let raw = BlasDb::open_mapped(&raw_path).unwrap();
    let (packed, packed_path) = mapped_twin(&owned);
    let twins = [("owned", &owned), ("raw", &raw), ("packed", &packed)];
    let queries = ["/site/a//text", "/site/*/parlist//text", "//parlist//text", "/site/*/text", "/site//x//*"];
    let first = |xpath: &str, last: bool| {
        let nodes = owned.query(xpath, EngineChoice::rdbms()).unwrap().nodes;
        if last { nodes.last().unwrap().start } else { nodes[0].start }
    };
    let (listitem, a) = (first("/site/a/parlist/listitem", true), first("/site/a", false));
    let (b_text, c_text) = (first("/site/b/text", false), first("/site/c/text", false));
    let edits: [&dyn Fn(&BlasDb) -> u64; 4] = [
        &|db| db.insert_subtree(listitem, "<text>u</text>").unwrap(),
        &|db| db.insert_subtree(a, "<x><text>v</text></x>").unwrap(),
        &|db| db.delete(b_text).unwrap(),
        &|db| db.retag(c_text, "bold").unwrap(),
    ];
    let mut widest = 0;
    let mut check = |what: &str| {
        let reference = EngineChoice::rdbms().with_translator(Translator::DLabeling);
        for (twin, db) in twins {
            let live = db.snapshot().store().live_plabels();
            for xpath in queries {
                let expect = db.query(xpath, reference).unwrap().nodes;
                let plan = db.plan(xpath, Translator::Unfold).unwrap();
                match bind(&plan, db.tags(), db.domain(), &live) {
                    BoundPlan::Select(BoundSelection { source: BoundSource::PLabels(iv), .. }) => {
                        widest = widest.max(iv.len())
                    }
                    other => panic!("{xpath}: {other:?}"),
                }
                for choice in choices() {
                    let got = db.query(xpath, choice).unwrap();
                    assert_eq!(got.nodes, expect, "{what} {twin} {xpath} {choice:?}");
                    let c = db.count(xpath, choice).unwrap();
                    assert_eq!(c.count, expect.len(), "{what} {twin} {xpath} {choice:?}");
                    assert_eq!(c.stats.elements_visited, 0, "{what} {twin} {xpath} {choice:?}");
                }
            }
        }
    };
    check("base");
    for (i, edit) in edits.iter().enumerate() {
        let gens: Vec<u64> = twins.iter().map(|(_, db)| edit(db)).collect();
        assert!(gens.windows(2).all(|w| w[0] == w[1]), "twins in lockstep");
        check(&format!("after edit {i}"));
    }
    for (_, db) in twins {
        db.compact();
    }
    check("compacted");
    assert!(widest >= 2, "some path set spans several runs of live keys");
    for path in [raw_path, packed_path] {
        std::fs::remove_file(path).unwrap();
    }
}
