//! Domain example: analytics over the XMark-shaped auction site —
//! recursive DTD, attribute nodes, deep `parlist` nesting — including
//! the XMark benchmark queries the paper uses in Fig. 15.
//!
//! ```sh
//! cargo run --release --example auction_analytics
//! ```

use blas::{BlasDb, EngineChoice, Translator};
use blas_datagen::{auction, xmark_benchmark};

fn main() {
    let xml = auction(1, 42);
    println!("Generating + indexing Auction dataset ({:.1} MB)…", xml.len() as f64 / 1e6);
    let db = BlasDb::load(&xml).expect("generator output is well-formed");
    let stats = db.stats(xml.len());
    println!(
        "Indexed {} nodes, {} tags, {} distinct source paths, depth {}\n",
        stats.nodes,
        stats.tags,
        db.schema().paths().len(),
        stats.depth
    );

    // Items per continent — child-axis chains are single selections.
    println!("Items per continent:");
    for continent in ["africa", "asia", "australia", "europe", "namerica", "samerica"] {
        let q = format!("/site/regions/{continent}/item");
        let r = db.query(&q, EngineChoice::auto()).unwrap();
        println!("  {continent:<10} {:>6}", r.stats.result_count);
    }

    // Deep recursion: listitems at any depth under category descriptions
    // (QA1). Unfold names each live unrolling of the recursive DTD once.
    let qa1 = db.query("//category/description/parlist/listitem", EngineChoice::auto()).unwrap();
    println!(
        "\nQA1 listitems under category descriptions: {} in {:?}",
        qa1.stats.result_count, qa1.stats.elapsed
    );

    // Items with shipping available in Asia (QA3 twig).
    let qa3 = db
        .query("/site/regions/asia/item[shipping]/description", EngineChoice::auto())
        .unwrap();
    println!("QA3 shippable Asian item descriptions: {}", qa3.stats.result_count);

    // Attribute nodes are first-class: auction references to people.
    let sellers = db
        .query("/site/open_auctions/open_auction/seller/@person", EngineChoice::auto())
        .unwrap();
    println!("Auctions with a seller attribute: {}", sellers.stats.result_count);

    // The XMark benchmark queries of Fig. 15 across translators (twig
    // engine, value predicates pre-stripped, like §5.3).
    println!(
        "\n{:<4} {:<50} {:>9} {:>9} {:>9}",
        "id", "xpath", "D-label", "Split", "Push-up"
    );
    for bq in xmark_benchmark() {
        let mut cells = Vec::new();
        for t in [Translator::DLabeling, Translator::Split, Translator::PushUp] {
            let r = db.query(bq.xpath, EngineChoice::twig().with_translator(t)).unwrap();
            cells.push(r.stats.elements_visited);
        }
        println!(
            "{:<4} {:<50} {:>9} {:>9} {:>9}",
            bq.id, bq.xpath, cells[0], cells[1], cells[2]
        );
    }
    println!("(cells = elements read; BLAS translators read fewer than the baseline)");
}
