//! The mapped open path is indistinguishable from the decoding one —
//! and malformed snapshot files fail with typed errors, never panics.
//!
//! Acceptance for the mmap snapshot work: `BlasDb::open_mapped` must
//! answer the Auction Fig. 10 queries **byte-identically** to the
//! owned `BlasDb::from_snapshot` path, across every engine — and
//! `BlasDb::count` must agree with both.

use blas::{BlasDb, EngineChoice, Translator};
use blas_datagen::{query_set, DatasetId};
use blas_storage::snapshot::{self, SnapshotError};
use std::path::PathBuf;

fn snapshot_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("blas_equiv_{tag}_{}.snap", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// The acceptance check: mapped answers ≡ owned answers on the Auction
/// Fig. 10 queries, for all three engines.
#[test]
fn mapped_answers_fig10_queries_byte_identically_to_owned() {
    let xml = DatasetId::Auction.generate(1);
    let bytes = BlasDb::load(&xml).unwrap().to_snapshot();

    let owned = BlasDb::from_snapshot(&bytes).unwrap();
    let path = snapshot_file("fig10", &bytes);
    let mapped = BlasDb::open_mapped(&path).unwrap();
    assert!(mapped.store().is_mapped());
    assert!(!owned.store().is_mapped());

    let choices = [
        EngineChoice::auto(),
        EngineChoice::rdbms().with_translator(Translator::PushUp),
        EngineChoice::twig(),
        EngineChoice::twigstack(),
        EngineChoice::rdbms().with_translator(Translator::DLabeling),
    ];
    for q in query_set(DatasetId::Auction) {
        for choice in choices {
            let a = owned.query(q.xpath, choice).unwrap();
            let b = mapped.query(q.xpath, choice).unwrap();
            assert_eq!(a.nodes, b.nodes, "{} {choice:?}", q.id);
            assert_eq!(
                a.stats.elements_visited, b.stats.elements_visited,
                "{} {choice:?} visits",
                q.id
            );
            assert_eq!(owned.texts(&a), mapped.texts(&b), "{} {choice:?} texts", q.id);
            // The count sink agrees with the query on both column
            // sources, and the two sources count at the same cost.
            let ca = owned.count(q.xpath, choice).unwrap();
            let cb = mapped.count(q.xpath, choice).unwrap();
            assert_eq!((ca.count, cb.count), (a.nodes.len(), b.nodes.len()), "{} {choice:?}", q.id);
            assert_eq!(
                ca.stats.elements_visited, cb.stats.elements_visited,
                "{} {choice:?} count visits",
                q.id
            );
            assert!(
                [0, a.stats.elements_visited].contains(&ca.stats.elements_visited),
                "{} {choice:?}: a count reads nothing or what the query reads",
                q.id
            );
            assert_eq!(
                owned.tag_names(&a),
                mapped.tag_names(&b),
                "{} {choice:?} tags",
                q.id
            );
        }
        // Plans bind identically (same domain, same tag ids).
        assert_eq!(
            owned.explain_sql(q.xpath, Translator::PushUp).unwrap(),
            mapped.explain_sql(q.xpath, Translator::PushUp).unwrap(),
            "{}",
            q.id
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_header_is_a_typed_error() {
    let bytes = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap().to_snapshot();
    // Flip a byte inside the header's count fields: the O(1) header
    // checksum must catch it on both paths.
    let mut corrupt = bytes.clone();
    corrupt[25] ^= 0xff;
    assert_eq!(snapshot::decode(&corrupt), Err(SnapshotError::ChecksumMismatch));
    let path = snapshot_file("hdr", &corrupt);
    assert!(matches!(
        BlasDb::open_mapped(&path),
        Err(blas::BlasError::Snapshot(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_file_is_a_typed_error() {
    let bytes = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap().to_snapshot();
    for cut in [0, 7, 600, 4096, bytes.len() / 2, bytes.len() - 3] {
        let err = snapshot::decode(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::ChecksumMismatch),
            "cut {cut}: {err:?}"
        );
        let path = snapshot_file(&format!("cut{cut}"), &bytes[..cut]);
        assert!(
            matches!(BlasDb::open_mapped(&path), Err(blas::BlasError::Snapshot(_))),
            "cut {cut}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn wrong_version_is_a_typed_error() {
    let bytes = BlasDb::load("<a><b>x</b></a>").unwrap().to_snapshot();
    let mut wrong = bytes.clone();
    wrong[8] = 77; // version low byte — checked before any checksum
    assert_eq!(snapshot::decode(&wrong), Err(SnapshotError::BadVersion(77)));
    let path = snapshot_file("ver", &wrong);
    let err = BlasDb::open_mapped(&path);
    match err {
        Err(blas::BlasError::Snapshot(msg)) => {
            assert!(msg.contains("version 77"), "{msg}");
        }
        other => panic!("expected snapshot error, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bad_body_checksum_is_a_typed_error_on_the_verifying_paths() {
    let bytes = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap().to_snapshot();
    let mut corrupt = bytes.clone();
    let body_at = 4096 + (corrupt.len() - 4096) / 2;
    corrupt[body_at] ^= 0x01;
    // The verifying paths reject it…
    assert_eq!(snapshot::verify_checksum(&corrupt), Err(SnapshotError::ChecksumMismatch));
    assert_eq!(snapshot::decode(&corrupt), Err(SnapshotError::ChecksumMismatch));
    assert!(BlasDb::from_snapshot(&corrupt).is_err());
    // …and the intact original passes end-to-end verification.
    assert!(snapshot::verify_checksum(&bytes).is_ok());
}

#[test]
fn duplicate_tag_table_is_a_typed_error() {
    // A checksum-valid snapshot whose tag table repeats a name: the
    // interner would collapse the duplicates, leaving records pointing
    // at a dangling id — both open paths must refuse, not panic.
    use blas_storage::NodeRecord;
    use blas_xml::TagId;
    let snap = snapshot::Snapshot {
        records: vec![
            NodeRecord { plabel: 1, start: 0, end: 3, level: 1, tag: TagId(0), data: None },
            NodeRecord { plabel: 2, start: 1, end: 2, level: 2, tag: TagId(1), data: None },
        ],
        tag_names: vec!["a".into(), "a".into()],
        num_tags: 2,
        digits: 3,
    };
    let bytes = snapshot::encode(&snap);
    assert!(matches!(
        BlasDb::from_snapshot(&bytes),
        Err(blas::BlasError::Snapshot(_))
    ));
    let path = snapshot_file("duptags", &bytes);
    assert!(matches!(
        BlasDb::open_mapped(&path),
        Err(blas::BlasError::Snapshot(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

/// Owned and mapped Auction stores agree — query, count and the
/// D-labeling baseline — on `/P//S` interval sets after a delta inserts
/// into, creates and tombstones keys inside them, under the stock
/// engines.
#[test]
fn interval_sets_agree_owned_and_mapped_over_a_delta() {
    let bytes = BlasDb::load(&DatasetId::Auction.generate(1)).unwrap().to_snapshot();
    let owned = BlasDb::from_snapshot(&bytes).unwrap();
    let path = snapshot_file("delta_sets", &bytes);
    let mapped = BlasDb::open_mapped(&path).unwrap();
    let queries = [
        "/site/regions/africa//text",
        "/site/regions/*/item/description//listitem/text",
        "//listitem//listitem/text",
    ];
    let check = |what: &str| {
        let reference = EngineChoice::rdbms().with_translator(Translator::DLabeling);
        for xpath in queries {
            let expect = owned.query(xpath, reference).unwrap().nodes;
            assert!(!expect.is_empty(), "{xpath}");
            for choice in [EngineChoice::auto(), EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack()] {
                for (twin, db) in [("owned", &owned), ("mapped", &mapped)] {
                    let got = db.query(xpath, choice).unwrap().nodes;
                    assert_eq!(got, expect, "{what} {twin} {xpath} {choice:?}");
                    let c = db.count(xpath, choice).unwrap();
                    assert_eq!((c.count, c.stats.elements_visited), (expect.len(), 0), "{what} {twin} {xpath}");
                }
            }
        }
    };
    check("base");
    // Existing listitem/text keys gain a node; `item/shipping/text` is a
    // key no node had.
    let fragment = concat!(
        "<regions><africa><item><description><parlist><listitem><text>x</text></listitem>",
        "</parlist></description><shipping><text>y</text></shipping></item></africa></regions>"
    );
    for db in [&owned, &mapped] {
        db.insert_subtree(0, fragment).unwrap();
    }
    check("after the insert");
    let first = owned.query("/site/regions/africa/item", EngineChoice::rdbms()).unwrap().nodes[0].start;
    for db in [&owned, &mapped] {
        db.delete(first).unwrap();
    }
    check("after the delete");
    std::fs::remove_file(&path).unwrap();
}

/// The SP run directory is the document's path summary — the schema
/// graph is decoded from its keys — and the mapped open does not
/// stream the footer checksum. A crafted key (one that is no node's
/// P-label, so decoding it would name a tag the table does not have)
/// must therefore fail the O(directory) validation at open, typed,
/// rather than panic inside the first `Unfold` query.
#[test]
fn crafted_sp_run_key_is_a_typed_error() {
    // Tags a=0, b=1 → base 3, H = 3 digits, m = 27. Keys: /a = (1,0,0)
    // = 9, /a/b = (2,1,0) = 21, ascending in section 8 (SP_KEYS).
    let bytes = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap().to_snapshot();
    let at = 64 + 7 * 24;
    assert_eq!(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()), 8);
    let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
    let key = |i: usize| u128::from_le_bytes(bytes[off + 16 * i..off + 16 * (i + 1)].try_into().unwrap());
    assert_eq!((key(0), key(1)), (9, 21));
    // Each stays ascending, so only the key check can object: (2,2,2)
    // leaves no `/` digit, (2,0,2) has a tag below a zero, and the last
    // is outside [0, m) altogether.
    for (i, evil_key) in [26u128, 20, u128::MAX].into_iter().enumerate() {
        let mut evil = bytes.clone();
        evil[off + 16..off + 32].copy_from_slice(&evil_key.to_le_bytes());
        let path = snapshot_file(&format!("spkey{i}"), &evil);
        match BlasDb::open_mapped(&path) {
            Err(blas::BlasError::Snapshot(msg)) => assert!(msg.contains("SP run key"), "{msg}"),
            other => panic!("key {evil_key}: expected a snapshot error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
    // The intact file opens and unfolds.
    let path = snapshot_file("spkeyok", &bytes);
    let db = BlasDb::open_mapped(&path).unwrap();
    let unfold = EngineChoice::rdbms().with_translator(Translator::Unfold);
    assert_eq!(db.query("//b", unfold).unwrap().nodes.len(), 2);
    std::fs::remove_file(&path).unwrap();
}

/// A P-label domain declaring more tags than the tag table names would
/// let a label decode to an unnameable tag: refused on both open paths.
#[test]
fn domain_wider_than_the_tag_table_is_a_typed_error() {
    use blas_storage::NodeRecord;
    use blas_xml::TagId;
    let snap = snapshot::Snapshot {
        records: vec![
            NodeRecord { plabel: 4 * 125, start: 0, end: 3, level: 1, tag: TagId(0), data: None },
        ],
        tag_names: vec!["a".into()],
        num_tags: 4,
        digits: 4,
    };
    let bytes = snapshot::encode(&snap);
    assert!(matches!(BlasDb::from_snapshot(&bytes), Err(blas::BlasError::Snapshot(_))));
    let path = snapshot_file("widedomain", &bytes);
    assert!(matches!(BlasDb::open_mapped(&path), Err(blas::BlasError::Snapshot(_))));
    std::fs::remove_file(&path).unwrap();
}

/// Parse the v3 section table (19 entries of 24 bytes at offset 64:
/// id u32, encoding u32, offset u64, length u64) and return the
/// `(offset, len)` of the first section with a plane-led packed
/// encoding (FOR = 1, label planes = 2, dictionary = 3 — all of which
/// start with a FOR plane header, which the corruption test targets).
fn first_packed_section(bytes: &[u8]) -> (usize, usize) {
    for i in 0..19 {
        let at = 64 + i * 24;
        let enc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if (1..=3).contains(&enc) {
            let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
            return (off, len);
        }
    }
    panic!("a v3 snapshot of a non-empty document has packed sections");
}

#[test]
fn corrupt_packed_v3_section_is_a_typed_error() {
    let bytes = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap().to_snapshot();
    assert_eq!(bytes[8], 3, "current snapshots are version 3");
    let (off, _) = first_packed_section(&bytes);
    // Clobber the first block's width descriptor (plane layout: n,
    // payload_len, mins, offs, then widths — +16 for a one-block
    // plane) with an impossible value. The mapped open validates the
    // packed structure in its O(header) parse and must fail typed; the
    // decoding path catches the same byte via the body checksum.
    let mut evil = bytes.clone();
    evil[off + 16] = 9;
    assert_eq!(snapshot::decode(&evil), Err(SnapshotError::ChecksumMismatch));
    let path = snapshot_file("packedcorrupt", &evil);
    assert!(matches!(
        BlasDb::open_mapped(&path),
        Err(blas::BlasError::Snapshot(_))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncation_inside_a_packed_v3_section_is_a_typed_error() {
    let bytes = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap().to_snapshot();
    let (off, len) = first_packed_section(&bytes);
    for cut in [off + 2, off + len / 2, off + len - 1] {
        let err = snapshot::decode(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::ChecksumMismatch),
            "cut {cut}: {err:?}"
        );
        let path = snapshot_file(&format!("packedcut{cut}"), &bytes[..cut]);
        assert!(
            matches!(BlasDb::open_mapped(&path), Err(blas::BlasError::Snapshot(_))),
            "cut {cut}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn not_a_snapshot_is_a_typed_error() {
    assert_eq!(snapshot::decode(b"hello"), Err(SnapshotError::Truncated));
    assert_eq!(
        snapshot::decode(&[0x55u8; 8192]),
        Err(SnapshotError::BadMagic)
    );
    let path = snapshot_file("noise", &[0x55u8; 8192]);
    assert!(matches!(
        BlasDb::open_mapped(&path),
        Err(blas::BlasError::Snapshot(_))
    ));
    std::fs::remove_file(&path).unwrap();
}
