//! Domain example: one `BlasCollection` over heterogeneous corpora —
//! the multi-document extension §3 sketches ("introducing document id
//! information into the labeling scheme").
//!
//! ```sh
//! cargo run --release --example multi_corpus
//! ```

use blas::{BlasCollection, Engine, EngineChoice, Translator};
use blas_datagen::DatasetId;

fn main() {
    let mut collection = BlasCollection::new();
    println!("Building a three-corpus collection…");
    for ds in DatasetId::ALL {
        let xml = ds.generate(1);
        let id = collection.add(ds.name(), &xml).expect("well-formed");
        let db = collection.doc(id);
        let stats = db.stats(xml.len());
        println!(
            "  [{}] {:<12} {:>7} nodes, {:>2} tags, depth {:>2}, m = {}",
            id.0,
            ds.name(),
            stats.nodes,
            stats.tags,
            stats.depth,
            db.domain().m()
        );
    }

    // Cross-corpus structural queries: each document keeps its own
    // label space; the collection fans out and qualifies results.
    println!("\nCross-corpus queries (matches per document):");
    for q in [
        "//name",              // protein names, item names, person names
        "//description",       // auction + protein descriptions
        "//TITLE",             // Shakespeare only
        "//author",            // protein references + auction annotations
    ] {
        let results = collection.query(q, EngineChoice::auto()).expect("valid query");
        let cells: Vec<String> = results
            .iter()
            .map(|(id, r)| format!("{}={}", collection.name(*id), r.stats.result_count))
            .collect();
        println!("  {:<16} {}", q, cells.join("  "));
    }

    // The merged path summary spans all corpora.
    let schema = collection.merged_schema();
    println!(
        "\nMerged schema: {} tags, {} distinct source paths, depth {}, roots = [{}]",
        schema.tags().count(),
        schema.paths().len(),
        schema.depth_bound(),
        schema.roots().collect::<Vec<_>>().join(", ")
    );

    // Engines and translators still apply per member.
    let per_engine: Vec<usize> = [Engine::Rdbms, Engine::Twig, Engine::TwigStack]
        .into_iter()
        .map(|e| {
            collection
                .query_with("//author", Translator::PushUp, e)
                .unwrap()
                .iter()
                .map(|(_, r)| r.stats.result_count)
                .sum()
        })
        .collect();
    println!(
        "//author totals per engine (rdbms/twig/twigstack): {:?} — identical by construction",
        per_engine
    );
    assert!(per_engine.windows(2).all(|w| w[0] == w[1]));
}
