//! Every stock engine choice answers `/P//S` like the naive tree walk.
//!
//! Split and Push-up join a descendant entry to its ancestor without a
//! level gap, so on a recursive schema they return nodes whose `S`
//! match overlaps `P` (ROADMAP item 1). The four stock choices —
//! `auto()`, `rdbms()`, `twig()` and `twigstack()`, no translator named —
//! all translate with Unfold, which binds each chain to the live source
//! paths it matches and cannot make that mistake. Each case is checked
//! on the owned store and on a mapped snapshot, by `query` and `count`.
//! Explicit Split / Push-up choices are the paper's baselines and are
//! not pinned here either way.

use blas::{BlasDb, EngineChoice};
use blas_datagen::DatasetId;
use blas_engine::naive;
use blas_xpath::parse;

const STOCK: [EngineChoice; 4] =
    [EngineChoice::auto(), EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack()];

/// `xpath` on `xml` under every stock choice, owned and mapped, against
/// the naive walk; returns the naive count.
fn assert_stock_choices_match_naive(tag: &str, xml: &str, xpath: &str) -> usize {
    let db = BlasDb::load(xml).unwrap();
    let mut expected: Vec<u32> = naive::evaluate(&parse(xpath).unwrap(), db.document())
        .into_iter()
        .map(|n| db.labels().dlabels[n.index()].start)
        .collect();
    expected.sort_unstable();
    let path = std::env::temp_dir()
        .join(format!("blas_default_choices_{tag}_{}.snap", std::process::id()));
    std::fs::write(&path, db.to_snapshot()).unwrap();
    let mapped = BlasDb::open_mapped(&path).unwrap();
    for (store, db) in [("owned", &db), ("mapped", &mapped)] {
        for choice in STOCK {
            let got: Vec<u32> =
                db.query(xpath, choice).unwrap().nodes.iter().map(|l| l.start).collect();
            assert_eq!(got, expected, "{xpath} under {choice} ({store})");
            let count = db.count(xpath, choice).unwrap().count;
            assert_eq!(count, expected.len(), "{xpath} counted under {choice} ({store})");
        }
    }
    std::fs::remove_file(&path).unwrap();
    expected.len()
}

#[test]
fn a_listitem_below_a_listitem_is_not_its_own_descendant() {
    let xml = "<parlist><listitem><text/><parlist><listitem><text/></listitem></parlist></listitem></parlist>";
    let n = assert_stock_choices_match_naive("minimal", xml, "/parlist/listitem//listitem/text");
    assert_eq!(n, 1);
}

#[test]
fn auction_africa_listitem_text_matches_the_naive_walk() {
    let xml = DatasetId::Auction.generate(1);
    let xpath = "/site/regions/africa/item/description/parlist/listitem//listitem/text";
    let n = assert_stock_choices_match_naive("africa", &xml, xpath);
    assert!(n > 0, "{xpath} selects something");
}
