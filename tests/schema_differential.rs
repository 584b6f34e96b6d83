//! Schema differential: the schema graph a generation **reads off its
//! SP path directory** must equal `SchemaGraph::infer` of the document
//! rebuilt from that generation's tuples — edges, roots and depth
//! bound — after **every** step of a random insert / delete / retag /
//! compact script, on flat and on recursive (`parlist`/`listitem`)
//! documents, for an owned database and its memory-mapped twin.
//!
//! The oracle side deliberately goes the long way round: fold the
//! generation (`to_snapshot`), decode it (`from_snapshot` rebuilds the
//! tree from the stored D-labels), infer from the tree. Nothing on it
//! touches a P-label.

use blas::{BlasDb, EngineChoice, Translator};
use blas_xml::SchemaGraph;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// One document family: its tag alphabet and the fragments inserts draw
/// from (a fragment whose tag the document never used is rejected by
/// the API — identically on both twins).
struct Family {
    tags: &'static [&'static str],
    fragments: &'static [&'static str],
}

const FLAT: Family = Family {
    tags: &["a", "b", "c", "d"],
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

fn flat_doc() -> impl Strategy<Value = String> {
    let leaf = (0usize..4, prop::option::of("[xyz]")).prop_map(|(t, txt)| match txt {
        Some(s) => format!("<{0}>{s}</{0}>", FLAT.tags[t]),
        None => format!("<{}/>", FLAT.tags[t]),
    });
    leaf.prop_recursive(4, 60, 4, |inner| {
        (0usize..4, prop::collection::vec(inner, 1..4))
            .prop_map(|(t, kids)| format!("<{0}>{1}</{0}>", FLAT.tags[t], kids.concat()))
    })
}

/// XMark-style recursive text: `parlist` and `listitem` nest in each
/// other to a random depth, so one tag sits on many source paths and
/// the schema graph has a cycle.
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

/// `(kind, pick, detail)`: insert, delete, retag or compact, resolved
/// against the database's state when the op runs.
fn scripts() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((0u8..4, 0usize..64, 0usize..8), 1..10)
}

fn apply(db: &BlasDb, family: &Family, (kind, pick, detail): (u8, usize, usize)) -> String {
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
            let frag = family.fragments[detail % family.fragments.len()];
            format!("insert {:?}", db.insert_subtree(spine[pick % spine.len()], frag))
        }
        1 if nodes.len() > 1 => {
            format!("delete {:?}", db.delete(nodes[1 + pick % (nodes.len() - 1)].0))
        }
        1 => "delete skipped: root only".to_string(),
        // Any live node, the root included.
        2 => format!(
            "retag {:?}",
            db.retag(nodes[pick % nodes.len()].0, family.tags[detail % family.tags.len()])
        ),
        _ => format!("compact {}", db.compact()),
    }
}

fn mapped_twin(db: &BlasDb) -> (BlasDb, std::path::PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "blas_schema_differential_{}_{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, db.to_snapshot()).unwrap();
    (BlasDb::open_mapped(&path).unwrap(), path)
}

/// The schema of `db`'s current generation, inferred the slow way.
fn inferred(db: &BlasDb) -> SchemaGraph {
    SchemaGraph::infer(BlasDb::from_snapshot(&db.to_snapshot()).unwrap().document())
}

fn check_script(
    family: &Family,
    src: &str,
    script: &[(u8, usize, usize)],
) -> Result<(), TestCaseError> {
    let owned = BlasDb::load(src).unwrap();
    let (mapped, path) = mapped_twin(&owned);
    prop_assert_eq!(owned.schema(), &inferred(&owned), "generation 0");
    prop_assert_eq!(mapped.schema(), owned.schema());
    for (step, &op) in script.iter().enumerate() {
        let a = apply(&owned, family, op);
        prop_assert_eq!(&a, &apply(&mapped, family, op), "twins diverged at step {}", step);
        let want = inferred(&owned);
        for db in [&owned, &mapped] {
            let snap = db.snapshot();
            prop_assert_eq!(snap.schema(), &want, "after step {} ({}) of {:?}", step, &a, script);
            prop_assert_eq!(snap.schema().depth_bound(), want.depth_bound());
        }
    }
    // The generation-0 accessor still describes generation 0.
    prop_assert_eq!(owned.schema(), &SchemaGraph::infer(owned.document()));
    std::fs::remove_file(&path).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn derived_schema_equals_inferred_schema_on_flat_documents(
        src in flat_doc(),
        script in scripts(),
    ) {
        check_script(&FLAT, &src, &script)?;
    }

    #[test]
    fn derived_schema_equals_inferred_schema_on_recursive_documents(
        src in recursive_doc(),
        script in scripts(),
    ) {
        check_script(&RECURSIVE, &src, &script)?;
    }
}

const SITE: &str = concat!(
    "<site><regions><item><quantity>1</quantity></item></regions>",
    "<item><name>a</name><price>9</price></item></site>"
);

/// The named corner cases, one step at a time, so a failure localizes
/// without shrinking.
#[test]
fn pinned_schema_corner_cases() {
    // D-label units: site=[0,16], regions=[1,7], item=[2,6],
    // quantity=[3,5], item=[8,15], name=[9,11], price=[12,14].
    let db = BlasDb::load(SITE).unwrap();
    let schema = |db: &BlasDb| db.snapshot().schema().clone();
    let kids = |s: &SchemaGraph, tag: &str| -> Vec<String> {
        s.children_of(tag).map(str::to_string).collect()
    };
    assert_eq!(kids(&schema(&db), "item"), ["name", "price", "quantity"]);

    // An insert that creates a path the base never had:
    // /site/item/quantity (quantity only ever sat under regions/item).
    assert!(db.query("/site/item/quantity", EngineChoice::auto()).unwrap().nodes.is_empty());
    db.insert_subtree(8, "<quantity>2</quantity>").unwrap();
    assert_eq!(schema(&db), inferred(&db));
    for t in [Translator::Unfold, Translator::Auto] {
        let hit = db.query("/site/item/quantity", EngineChoice::rdbms().with_translator(t)).unwrap();
        assert_eq!(hit.nodes.len(), 1, "{t:?} must unfold against the new path");
    }
    assert_eq!(db.query("/site//quantity", EngineChoice::auto()).unwrap().nodes.len(), 2);

    // Deleting a tag's last occurrence removes it from the graph.
    assert!(schema(&db).contains("price"));
    db.delete(12).unwrap();
    let s = schema(&db);
    assert!(!s.contains("price") && !s.tags().any(|t| t == "price"));
    assert_eq!(kids(&s, "item"), ["name", "quantity"]);
    assert_eq!(s, inferred(&db));

    // Retagging the root renames the root and every edge out of it.
    db.retag(0, "regions").unwrap();
    let s = schema(&db);
    assert_eq!(s.roots().collect::<Vec<_>>(), ["regions"]);
    assert!(!s.contains("site"));
    assert_eq!(kids(&s, "regions"), ["item", "regions"]);
    assert!(s.is_recursive());
    assert_eq!(s, inferred(&db));
    assert_eq!(db.query("/regions/regions/item", EngineChoice::auto()).unwrap().nodes.len(), 1);

    // Deleting the deepest subtree lowers the depth bound; folding
    // changes nothing.
    assert_eq!(s.depth_bound(), 4);
    db.delete(1).unwrap();
    assert_eq!(schema(&db).depth_bound(), 3);
    let before = schema(&db);
    db.compact();
    assert_eq!(schema(&db), before);
    assert_eq!(before, inferred(&db));
    // Generation 0 is still what it was.
    assert_eq!(db.schema(), &SchemaGraph::infer(db.document()));
    assert!(db.schema().contains("price") && db.schema().contains("site"));
}
