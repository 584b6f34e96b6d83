//! The DOM-free load is exact. `BlasDb::load` (SAX events into the
//! index builder) and `BlasDb::from_document` (a tree walk into the same
//! builder) must produce the very snapshot bytes the reference path —
//! `label_document` + `NodeStore::build` over the parsed tree — does,
//! must fail on malformed XML exactly as `Document::parse` does, and a
//! database's statistics come off its columns. `from_snapshot`, which
//! no longer rebuilds the tree, still refuses labels that do not nest
//! as one tree.

use blas::{BlasDb, BlasError, DocStats, Document, NodeRecord, NodeStore};
use blas_datagen::DatasetId;
use blas_labeling::label_document;
use blas_storage::snapshot;
use blas_xml::TagId;

/// The snapshot of the tree path: parse, label, build, encode.
fn reference_snapshot(xml: &str) -> Vec<u8> {
    let doc = Document::parse(xml).unwrap();
    let labels = label_document(&doc).unwrap();
    let store = NodeStore::build(&doc, &labels);
    let names: Vec<String> = doc.tags().iter().map(|(_, n)| n.to_string()).collect();
    snapshot::encode_store(&store, &names, labels.domain.num_tags() as u32, labels.domain.digits())
}

fn assert_exact(xml: &str) -> Vec<u8> {
    let reference = reference_snapshot(xml);
    let loaded = BlasDb::load(xml).unwrap().to_snapshot();
    assert!(loaded == reference, "load differs from the reference on {xml:.200}");
    let walked = BlasDb::from_document(Document::parse(xml).unwrap()).unwrap().to_snapshot();
    assert!(walked == reference, "from_document differs from the reference on {xml:.200}");
    reference
}

#[test]
fn load_matches_the_reference_on_the_datasets() {
    for id in DatasetId::ALL {
        assert_exact(&id.generate(1));
    }
}

#[test]
fn load_matches_the_golden_fixtures() {
    // The source of `tiny_base_v3.snap` and `tiny_v2.snap`.
    let xml = "<db><e><n>a</n></e><x><e><n>b</n></e></x><n>c</n></db>";
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/tiny_base_v3.snap"
    ))
    .unwrap();
    assert_eq!(assert_exact(xml), golden);
}

#[test]
fn load_matches_the_reference_on_small_documents() {
    for xml in [
        "<a/>",
        "<a>t</a>",
        // Mixed content: the text unit follows the start tag even when
        // the text arrives after a child, and the pieces concatenate.
        "<p><b/>tail</p>",
        "<a>x<b>y</b>z<c/>w</a>",
        "<a><b><c/>deep</b>mid<b>2</b></a>",
        // Value ids are numbered by first row, not by close order.
        "<a><b>2</b>1<c>1</c><d>3</d>2</a>",
        // Attributes: `@name` children with their value, empty or not.
        "<a id=\"1\" k=''><b x=\"&amp;\"/><b x='1'>1</b></a>",
        "<r><e a=\"v\">t<f/>u</e></r>",
        // CDATA, also empty, and entities / character references.
        "<a><![CDATA[<x>&]]></a>",
        "<a><![CDATA[]]><b/></a>",
        "<a>&lt;&#65;&#x42;&gt;<b>&quot;&apos;</b></a>",
        // Self-closing tags, comments, PIs, whitespace.
        "<?xml version=\"1.0\"?><!-- c --><a><b/><b/><?pi x?><c></c></a>",
        "<a>\n  <b> x </b>\n</a>",
        "<a><a><a><a>deep</a></a></a></a>",
    ] {
        assert_exact(xml);
    }
}

/// Random documents: recursive tags, attributes, text pieces before,
/// between and after children, repeated values.
#[test]
fn load_matches_the_reference_on_random_documents() {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    for _ in 0..300 {
        let mut xml = String::new();
        let mut open = Vec::new();
        let mut budget = 1 + next(40);
        loop {
            let can_open = budget > 0 && open.len() < 6;
            let action = if open.is_empty() { 0 } else { next(4) };
            if action == 0 && can_open {
                let tag = ["a", "b", "c"][next(3) as usize];
                xml.push('<');
                xml.push_str(tag);
                if next(3) == 0 {
                    xml.push_str(&format!(" k=\"{}\"", next(3)));
                }
                if next(4) == 0 {
                    xml.push_str("/>");
                } else {
                    xml.push('>');
                    open.push(tag);
                }
                budget -= 1;
            } else if action == 1 {
                xml.push_str(["v", "w", "1", "&amp;"][next(4) as usize]);
            } else if let Some(tag) = open.pop() {
                xml.push_str(&format!("</{tag}>"));
            }
            if open.is_empty() && !xml.is_empty() {
                break;
            }
        }
        assert_exact(&xml);
    }
}

#[test]
fn malformed_xml_fails_load_as_it_fails_the_parser() {
    let mut inputs: Vec<String> = [
        "",
        "<",
        "text",
        "<a>",
        "<a",
        "<a></b>",
        "</a>",
        "<a/><b/>",
        "<a>x</a>y",
        "<a b='1' b='2'/>",
        "<a b=1/>",
        "<a b='1/>",
        "<a>&foo;</a>",
        "<a>&#xZZ;</a>",
        "<a><!-- x -- y --></a>",
        "<a><![CDATA[x</a>",
        "<1a/>",
        "<a><b></a></b>",
    ]
    .map(String::from)
    .to_vec();
    // Every proper prefix of a document that uses each construct.
    let full = "<?xml version=\"1.0\"?><r a=\"1\"><b>x&amp;y</b><![CDATA[z]]><c/><!--k--></r>";
    inputs.extend((0..full.len()).filter(|&i| full.is_char_boundary(i)).map(|i| full[..i].to_string()));
    for xml in &inputs {
        let want = Document::parse(xml).expect_err(xml);
        match BlasDb::load(xml) {
            Err(BlasError::Parse(got)) => assert_eq!(got, want, "{xml:?}"),
            other => panic!("{xml:?}: expected {want:?}, got {:?}", other.map(|_| "a database")),
        }
    }
}

#[test]
fn stats_come_off_the_columns_for_owned_and_mapped_databases() {
    for id in DatasetId::ALL {
        let xml = id.generate(1);
        let want = DocStats::from_str(&xml).unwrap();
        let owned = BlasDb::load(&xml).unwrap();
        assert_eq!(owned.stats(xml.len()), want, "{id:?} owned");
        let path = std::env::temp_dir()
            .join(format!("blas_columnar_load_{id:?}_{}.snap", std::process::id()));
        std::fs::write(&path, owned.to_snapshot()).unwrap();
        let mapped = BlasDb::open_mapped(&path).unwrap();
        assert_eq!(mapped.stats(xml.len()), want, "{id:?} mapped");
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
    }
}

/// A checksum-valid snapshot of `records` over the tags `a`, `b`.
fn crafted(records: Vec<NodeRecord>) -> Vec<u8> {
    snapshot::encode(&snapshot::Snapshot {
        records,
        tag_names: vec!["a".into(), "b".into()],
        num_tags: 2,
        digits: 3,
    })
}

fn record(tag: u32, start: u32, end: u32, level: u16) -> NodeRecord {
    // `/a` and `/b` are 9 and 18, `/a/b` is 18 + 9 / 3 in base 3.
    let plabel = if level == 1 { 9 * (u128::from(tag) + 1) } else { 21 };
    NodeRecord { plabel, start, end, level, tag: TagId(tag), data: None }
}

fn assert_inconsistent_tree(bytes: &[u8]) {
    match BlasDb::from_snapshot(bytes) {
        Err(BlasError::Snapshot(msg)) => {
            assert!(msg.starts_with("inconsistent snapshot tree: "), "{msg}")
        }
        other => panic!("expected an inconsistent tree, got {:?}", other.map(|_| "a database")),
    }
}

#[test]
fn from_snapshot_rejects_labels_that_are_not_one_tree() {
    // The well-formed twin opens.
    assert!(BlasDb::from_snapshot(&crafted(vec![record(0, 0, 3, 1), record(1, 1, 2, 2)])).is_ok());
    // Two roots.
    assert_inconsistent_tree(&crafted(vec![record(0, 0, 1, 1), record(1, 2, 3, 1)]));
    // A child still open when its parent ends.
    assert_inconsistent_tree(&crafted(vec![record(0, 0, 3, 1), record(1, 1, 5, 2)]));
}
