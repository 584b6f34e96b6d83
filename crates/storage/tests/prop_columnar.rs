//! Property tests for the columnar SP/SD clustered layout: on random
//! small documents, the run-directory scans must yield *identical*
//! tuple sequences to (a) a naive filtered full scan sorted by the
//! clustering key and (b) the retained B+-tree reference path, and a
//! snapshot round-trip through `encode_store` must reproduce the store
//! byte-for-byte at the scan level.

use blas_labeling::{label_document, DLabel};
use blas_storage::{snapshot, MappedBytes, NodeRecord, NodeStore, RowId, ScanRun};
use blas_xml::{Document, TagId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const NUM_TAGS: u32 = 5;

/// Random small XML document over tags t0..t4 with occasional text
/// drawn from a tiny value alphabet (forcing intern collisions).
fn xml_doc() -> impl Strategy<Value = String> {
    let leaf = (0u32..NUM_TAGS, prop::option::of("[uvw]")).prop_map(|(t, txt)| match txt {
        Some(s) => format!("<t{t}>{s}</t{t}>"),
        None => format!("<t{t}/>"),
    });
    leaf.prop_recursive(4, 48, 4, |inner| {
        ((0u32..NUM_TAGS), prop::collection::vec(inner, 0..4))
            .prop_map(|(t, kids)| format!("<t{t}>{}</t{t}>", kids.concat()))
    })
}

fn build(src: &str) -> (Document, NodeStore) {
    let doc = Document::parse(src).unwrap();
    let labels = label_document(&doc).unwrap();
    let store = NodeStore::build(&doc, &labels);
    (doc, store)
}

/// One scan element, fully resolved so sequence comparison covers every
/// column (label, row identity, data value).
type Row = (u32, DLabel, Option<String>);

fn resolve(store: &NodeStore, row: u32, label: DLabel, value_id: u32) -> Row {
    (row, label, store.value(value_id).map(str::to_string))
}

/// Naive oracle: full scan, filter by plabel interval, sort by
/// (plabel, start).
fn naive_plabel_range(store: &NodeStore, p1: u128, p2: u128) -> Vec<Row> {
    let mut hits: Vec<(u128, Row)> = store
        .scan_all()
        .filter(|(_, r)| p1 <= r.plabel && r.plabel <= p2)
        .map(|(row, r)| (r.plabel, (row.0, r.dlabel(), r.data.map(str::to_string))))
        .collect();
    hits.sort_by_key(|(plabel, (_, d, _))| (*plabel, d.start));
    hits.into_iter().map(|(_, row)| row).collect()
}

/// Naive oracle: full scan, filter by tag, sort by start.
fn naive_tag(store: &NodeStore, tag: TagId) -> Vec<Row> {
    let mut hits: Vec<Row> = store
        .scan_all()
        .filter(|(_, r)| r.tag == tag)
        .map(|(row, r)| (row.0, r.dlabel(), r.data.map(str::to_string)))
        .collect();
    hits.sort_by_key(|(_, d, _)| d.start);
    hits
}

/// Resolve every position of a scan run (raw or packed) through the
/// store: row identity via `row_at`, labels via the decode kernel,
/// value ids via the document-order column.
fn resolve_run(store: &NodeStore, run: &ScanRun<'_>) -> Vec<Row> {
    let mut labels = Vec::new();
    run.decode_labels_into(&mut labels);
    (0..run.len())
        .map(|i| {
            let row = run.row_at(i);
            resolve(store, row, labels[i], store.value_id_of_row(RowId(row)))
        })
        .collect()
}

fn columnar_plabel_range(store: &NodeStore, p1: u128, p2: u128) -> Vec<Row> {
    store
        .scan_plabel_range(p1, p2)
        .flat_map(|run| resolve_run(store, &run))
        .collect()
}

fn columnar_tag(store: &NodeStore, tag: TagId) -> Vec<Row> {
    resolve_run(store, &store.scan_tag(tag))
}

proptest! {
    /// The SP run-directory scan equals the naive filtered scan and the
    /// B+-tree reference scan, for ranges anchored at actual P-labels.
    #[test]
    fn plabel_range_scan_matches_naive_and_reference(src in xml_doc(), a in 0usize..64, b in 0usize..64) {
        let (_, store) = build(&src);
        let plabels: Vec<u128> = store.scan_all().map(|(_, r)| r.plabel).collect();
        let (mut p1, mut p2) = (plabels[a % plabels.len()], plabels[b % plabels.len()]);
        if p1 > p2 {
            std::mem::swap(&mut p1, &mut p2);
        }
        let fast = columnar_plabel_range(&store, p1, p2);
        prop_assert_eq!(&fast, &naive_plabel_range(&store, p1, p2));
        let reference: Vec<(u32, DLabel)> =
            store.ref_scan_plabel_range(p1, p2).map(|(row, l)| (row.0, l)).collect();
        let fast_rl: Vec<(u32, DLabel)> = fast.iter().map(|(row, l, _)| (*row, *l)).collect();
        prop_assert_eq!(fast_rl, reference);
        // Full-domain range covers every tuple exactly once.
        prop_assert_eq!(
            columnar_plabel_range(&store, 0, u128::MAX).len(),
            store.len()
        );
    }

    /// The SD run-directory scan equals the naive filtered scan and the
    /// B+-tree reference scan, for every tag (plus an absent tag).
    #[test]
    fn tag_scan_matches_naive_and_reference(src in xml_doc()) {
        let (doc, store) = build(&src);
        for (tag, _) in doc.tags().iter() {
            let fast = columnar_tag(&store, tag);
            prop_assert_eq!(&fast, &naive_tag(&store, tag));
            let reference: Vec<(u32, DLabel)> =
                store.ref_scan_tag(tag).map(|(row, l)| (row.0, l)).collect();
            let fast_rl: Vec<(u32, DLabel)> = fast.iter().map(|(row, l, _)| (*row, *l)).collect();
            prop_assert_eq!(fast_rl, reference);
        }
        prop_assert!(columnar_tag(&store, TagId(NUM_TAGS + 9)).is_empty());
    }

    /// Equality scans are single contiguous runs in start order, and
    /// `row_of_start` resolves every scanned label.
    #[test]
    fn eq_scans_are_contiguous_start_ordered(src in xml_doc()) {
        let (_, store) = build(&src);
        let mut seen = 0usize;
        for (_, r) in store.scan_all().collect::<Vec<_>>() {
            let run = store.scan_plabel_range(r.plabel, r.plabel).next().expect("a live key's run");
            prop_assert!(!run.is_empty());
            let mut labels = Vec::new();
            run.decode_labels_into(&mut labels);
            prop_assert!(labels.windows(2).all(|w| w[0].start < w[1].start));
            for label in &labels {
                let row = store.row_of_start(label.start).expect("label resolves");
                prop_assert_eq!(store.record(row).dlabel(), *label);
            }
            seen += 1;
        }
        prop_assert_eq!(seen, store.len());
    }

    /// Snapshot → restore through `encode_store` reproduces identical
    /// scan sequences (the columnar persistence path end to end).
    #[test]
    fn snapshot_roundtrip_preserves_scans(src in xml_doc()) {
        let (doc, store) = build(&src);
        let tag_names: Vec<String> =
            doc.tags().iter().map(|(_, n)| n.to_string()).collect();
        let bytes = snapshot::encode_store(&store, &tag_names, 7, 3);
        let snap = snapshot::decode(&bytes).unwrap();
        prop_assert_eq!(&snap.tag_names, &tag_names);
        let restored = NodeStore::from_records(snap.records);
        prop_assert_eq!(restored.len(), store.len());
        prop_assert_eq!(
            columnar_plabel_range(&restored, 0, u128::MAX),
            columnar_plabel_range(&store, 0, u128::MAX)
        );
        for (tag, _) in doc.tags().iter() {
            prop_assert_eq!(columnar_tag(&restored, tag), columnar_tag(&store, tag));
        }
        // Encoding the restored store is byte-identical (stable format).
        let bytes2 = snapshot::encode_store(&restored, &tag_names, 7, 3);
        prop_assert_eq!(bytes, bytes2);
    }

    /// Mapped-vs-owned equivalence: a store served in place from its
    /// snapshot mapping yields the same records, the same clustered
    /// scan sequences (both clusterings) and the same value lookups as the owned store it was written
    /// from — over random documents.
    #[test]
    fn mapped_store_equals_owned_store(src in xml_doc()) {
        let (doc, owned) = build(&src);
        let tag_names: Vec<String> =
            doc.tags().iter().map(|(_, n)| n.to_string()).collect();
        // The mapped open decodes every SP run key against the declared
        // domain, so declare the one the labels were computed in.
        let domain = blas_labeling::PLabelDomain::for_document(&doc).unwrap();
        let bytes = snapshot::encode_store(
            &owned,
            &tag_names,
            domain.num_tags() as u32,
            domain.digits(),
        );
        let (mapped, path) = open_mapped_store(&bytes);
        prop_assert_eq!(mapped.len(), owned.len());
        prop_assert_eq!(mapped.sp_run_count(), owned.sp_run_count());
        prop_assert_eq!(mapped.sd_run_count(), owned.sd_run_count());
        // Every record, via both the row and the start-rank path.
        for (row, r) in owned.scan_all() {
            prop_assert_eq!(mapped.record(row), r);
            prop_assert_eq!(mapped.row_of_start(r.start), Some(row));
        }
        // Clustered scans: identical rows, labels and value ids.
        prop_assert_eq!(
            columnar_plabel_range(&mapped, 0, u128::MAX),
            columnar_plabel_range(&owned, 0, u128::MAX)
        );
        for (tag, _) in doc.tags().iter() {
            prop_assert_eq!(columnar_tag(&mapped, tag), columnar_tag(&owned, tag));
        }
        // Value interning machinery.
        for v in ["u", "v", "w", "absent"] {
            prop_assert_eq!(mapped.value_id(v), owned.value_id(v));
            prop_assert_eq!(mapped.scan_value(v).count(), owned.scan_value(v).count());
        }
        drop(mapped);
        std::fs::remove_file(path).unwrap();
    }
}

/// Write snapshot bytes to a unique temp file and open them mapped.
fn open_mapped_store(bytes: &[u8]) -> (NodeStore, std::path::PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "blas_prop_mapped_{}_{}.snap",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let (store, _meta) = NodeStore::from_mapped(MappedBytes::open(&path).unwrap()).unwrap();
    assert!(store.is_mapped());
    (store, path)
}

/// Non-property regression: records built out of start order cluster
/// correctly (from_records sorts).
#[test]
fn from_records_out_of_order_input() {
    let recs = vec![
        NodeRecord { plabel: 3, start: 4, end: 5, level: 2, tag: TagId(1), data: None },
        NodeRecord { plabel: 9, start: 0, end: 7, level: 1, tag: TagId(0), data: Some("x".into()) },
        NodeRecord { plabel: 3, start: 1, end: 2, level: 2, tag: TagId(1), data: Some("x".into()) },
    ];
    let store = NodeStore::from_records(recs);
    let starts: Vec<u32> = (0..store.len()).map(|i| store.record(RowId(i as u32)).start).collect();
    assert_eq!(starts, [0, 1, 4]);
    let run = store.scan_plabel_range(3, 3).next().expect("one run");
    assert_eq!(run.len(), 2);
    assert!(run.label_at(0).start < run.label_at(1).start);
}
