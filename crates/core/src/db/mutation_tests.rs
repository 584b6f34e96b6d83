//! The mutation path's white-box suite: compaction split into its two
//! steps so a test can place mutations *between* the fold and the
//! install deterministically, the writer log's alignment and rollback
//! invariants, and the pins that nothing on the query path builds a
//! `Document`.

use super::*;
use proptest::prelude::*;

const TAGS: &[&str] = &["a", "b", "c", "d"];
const FRAGMENTS: &[&str] = &["<a/>", "<b>x</b>", "<c><d>y</d></c>", "<a><b/><c>z</c></a>"];
const QUERIES: &[&str] = &["//a", "//b", "//c", "//d", "//a/b", "//b//c", "//a[b]", "//b='x'"];

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

/// `(kind, pick, detail)` triples resolved against whatever the
/// database looks like when each op runs.
fn script(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..3, 0usize..64, 0usize..8), len)
}

/// Apply one abstract op; returns what happened, rejections included.
fn apply(db: &BlasDb, (kind, pick, detail): (u8, usize, usize)) -> String {
    let nodes: Vec<(u32, u32, u16)> =
        db.snapshot().store().scan_all().map(|(_, r)| (r.start, r.end, r.level)).collect();
    let watermark = nodes[0].1;
    match kind {
        0 => {
            let spine: Vec<u32> = nodes
                .iter()
                .filter(|&&(_, e, l)| watermark - e == u32::from(l - 1))
                .map(|&(s, _, _)| s)
                .collect();
            let target = spine[pick % spine.len()];
            format!("{:?}", db.insert_subtree(target, FRAGMENTS[detail % FRAGMENTS.len()]))
        }
        1 if nodes.len() > 1 => format!("{:?}", db.delete(nodes[1 + pick % (nodes.len() - 1)].0)),
        1 => "root only".to_string(),
        _ => format!("{:?}", db.retag(nodes[pick % nodes.len()].0, TAGS[detail % TAGS.len()])),
    }
}

/// The writer's log and the published store are the same edits, entry
/// for entry — the alignment every in-place mutation relies on.
fn assert_log_aligned(db: &BlasDb) {
    let ws = lock_recover(&db.writer);
    let mut log = ws.edits.clone();
    log.deleted_rows.sort_unstable();
    assert_eq!(db.current_gen().store.pending_edits(), log);
}

/// `db` (which compacted somewhere along the way) and `twin` (which
/// never did) hold the same document.
fn assert_same_state(db: &BlasDb, twin: &BlasDb) {
    assert_eq!(db.to_snapshot(), twin.to_snapshot(), "folded bytes differ");
    for q in QUERIES {
        for choice in [EngineChoice::auto(), EngineChoice::twig(), EngineChoice::rdbms().with_shards(3)] {
            assert_eq!(
                db.query(q, choice).unwrap().nodes,
                twin.query(q, choice).unwrap().nodes,
                "{q} under {choice:?}"
            );
        }
    }
    assert_eq!(db.snapshot().schema(), twin.snapshot().schema());
    assert_log_aligned(db);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// fold(pin) → k mutations → install ≡ the same script with no
    /// compaction at all, for k = 0, 1 and many; and the re-based log
    /// keeps taking in-place edits afterwards.
    #[test]
    fn mutations_between_fold_and_install_survive_the_swap(
        src in xml_doc(),
        before in script(0..6),
        during in script(0..7),
        after in script(0..4),
    ) {
        let db = BlasDb::load(&src).unwrap();
        let twin = BlasDb::load(&src).unwrap();
        for &op in &before {
            prop_assert_eq!(apply(&db, op), apply(&twin, op));
        }
        let pinned = db.snapshot();
        let pinned_answers: Vec<_> =
            QUERIES.iter().map(|q| pinned.query(q, EngineChoice::auto()).unwrap().nodes).collect();

        let fold = db.fold();
        for &op in &during {
            // Generation numbers match until the install adds one.
            prop_assert_eq!(apply(&db, op), apply(&twin, op));
        }
        let folded = fold.is_some();
        if let Some(fold) = fold {
            let before_install = db.generation();
            prop_assert_eq!(db.install(fold), before_install + 1);
        }
        prop_assert_eq!(db.generation(), twin.generation() + u64::from(folded));
        prop_assert_eq!(db.delta_stats().compactions, u64::from(folded));
        assert_same_state(&db, &twin);
        if folded && during.is_empty() {
            prop_assert_eq!(db.delta_stats().inserted + db.delta_stats().deleted, 0);
        }

        // The view pinned before the fold answers as it did then.
        for (q, expect) in QUERIES.iter().zip(&pinned_answers) {
            prop_assert_eq!(&pinned.query(q, EngineChoice::auto()).unwrap().nodes, expect);
        }

        // Life goes on over the re-based log (generation numbers now
        // differ by one, so compare outcomes, not messages).
        for &op in &after {
            let (a, b) = (apply(&db, op), apply(&twin, op));
            prop_assert_eq!(a.starts_with("Ok"), b.starts_with("Ok"), "{} vs {}", a, b);
        }
        assert_same_state(&db, &twin);
        db.compact();
        assert_same_state(&db, &twin);
    }
}

// D-label units of PINNED: r=[0,16], a¹=[1,5] (b=[2,4] "x"),
// a²=[6,15] (b=[7,9] "y", c=[10,14] (d=[11,13] "z")).
const PINNED: &str = "<r><a><b>x</b></a><a><b>y</b><c><d>z</d></c></a></r>";

/// Every mutation kind placed between fold and install, one at a time
/// and all together, against a state where the root and a whole
/// subtree were already pending at pin time.
#[test]
fn each_mutation_kind_between_fold_and_install() {
    type Step = fn(&BlasDb) -> u64;
    let during: [(&str, Step); 7] = [
        ("stretch the subtree pending at pin", |db| db.insert_subtree(16, "<c/>").unwrap()),
        ("a second stretch of the root", |db| db.insert_subtree(0, "<a><b>w</b></a>").unwrap()),
        ("retag the subtree pending at pin", |db| db.retag(16, "c").unwrap()),
        ("retag a base subtree", |db| db.retag(6, "c").unwrap()),
        ("delete a base subtree", |db| db.delete(1).unwrap()),
        ("delete inside the pending subtree", |db| db.delete(17).unwrap()),
        ("delete the subtree pending at pin", |db| db.delete(16).unwrap()),
    ];
    let run = |steps: &[(&str, Step)]| {
        let (db, twin) = (BlasDb::load(PINNED).unwrap(), BlasDb::load(PINNED).unwrap());
        for d in [&db, &twin] {
            // Pending at pin: the stretched root and <a><b>v</b></a> at
            // [16, 20] (b=[17,19]).
            assert_eq!(d.insert_subtree(0, "<a><b>v</b></a>").unwrap(), 1);
        }
        let fold = db.fold().expect("a pending insert is something to fold");
        for (what, step) in steps {
            assert_eq!(step(&db), step(&twin), "{what}");
        }
        let g = db.generation();
        assert_eq!(db.install(fold), g + 1);
        assert_same_state(&db, &twin);
        let stats = db.delta_stats();
        assert_eq!(stats.compactions, 1);
        if steps.is_empty() {
            assert_eq!((stats.inserted, stats.deleted, stats.retags), (0, 0, 0));
        }
        // The re-based delta folds away in turn.
        assert_eq!(db.compact(), g + 1 + u64::from(!steps.is_empty()));
        assert_same_state(&db, &twin);
    };
    run(&[]);
    for step in during {
        run(&[step]);
    }
    run(&during);
}

/// A log the store rejects is rolled back to the published one: the
/// generation, the answers and the writer's next mutation are all as
/// if the rejected edit had never been tried.
#[test]
fn a_rejected_commit_restores_the_log() {
    let db = BlasDb::load(PINNED).unwrap();
    db.insert_subtree(0, "<a><b>v</b></a>").unwrap();
    db.delete(1).unwrap();
    {
        let mut ws = lock_recover(&db.writer);
        let gen = db.current_gen();
        // Two inserted tuples sharing a start: no store can index that.
        let dup = ws.edits.inserted[0].clone();
        ws.edits.inserted.push(dup);
        ws.edits.deleted_rows.push(3);
        assert!(matches!(db.commit(&mut ws, &gen), Err(BlasError::Mutation(_))));
    }
    assert_eq!(db.generation(), 2);
    assert_log_aligned(&db);
    assert_eq!(db.retag(16, "c").unwrap(), 3);
    assert_eq!(db.query("/r/c/b", EngineChoice::auto()).unwrap().nodes.len(), 1);
    assert_log_aligned(&db);
}

/// Nothing reachable from `query` / `plan` / `explain` builds a
/// `Document`: on a mapped database, and on a freshly published
/// generation, the generation-0 tree stays unbuilt.
#[test]
fn the_query_path_never_builds_a_document() {
    let path = std::env::temp_dir().join(format!("blas_db_nodoc_{}.snap", std::process::id()));
    std::fs::write(&path, BlasDb::load(PINNED).unwrap().to_snapshot()).unwrap();
    let db = BlasDb::open_mapped(&path).unwrap();
    let drive = |db: &BlasDb| {
        for choice in [
            EngineChoice::auto(),
            EngineChoice::rdbms().with_translator(Translator::Unfold),
            EngineChoice::rdbms().with_translator(Translator::Auto),
        ] {
            assert_eq!(db.query("//a//d", choice).unwrap().nodes.len(), 1);
        }
        db.plan("/r//b", Translator::Unfold).unwrap();
        db.explain("//c/d", Translator::Auto).unwrap();
        db.explain_sql("//c/d", Translator::Unfold).unwrap();
        assert!(db.snapshot().schema().contains("d"));
    };
    drive(&db);
    db.insert_subtree(0, "<a><b>v</b></a>").unwrap();
    drive(&db);
    db.retag(1, "c").unwrap();
    db.delete(7).unwrap();
    db.compact();
    assert_eq!(db.query("//c/b", EngineChoice::auto()).unwrap().nodes.len(), 1);
    assert!(db.base_doc.get().is_none() && db.base_labels.get().is_none());
    // The explicit accessors still work, and still describe generation 0.
    assert_eq!(db.document().len(), 7);
    assert_eq!(db.labels().dlabels.len(), 7);
    assert!(db.base_doc.get().is_some());
    std::fs::remove_file(&path).unwrap();
}
