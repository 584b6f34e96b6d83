//! Domain example: the paper's §1 motivating scenario — a biologist
//! searching a protein repository for papers about the "cytochrome c"
//! family — on a full-size synthetic Protein dataset.
//!
//! ```sh
//! cargo run --release --example protein_search
//! ```

use blas::{BlasDb, Engine, EngineChoice, Translator};
use blas_datagen::protein;

fn main() {
    let xml = protein(1, 42);
    println!("Generating + indexing Protein dataset ({:.1} MB)…", xml.len() as f64 / 1e6);
    let db = BlasDb::load(&xml).expect("generator output is well-formed");
    let stats = db.stats(xml.len());
    println!(
        "Indexed {} nodes, {} tags, depth {}\n",
        stats.nodes, stats.tags, stats.depth
    );

    // 1. All protein names (QP1, a suffix path query → one equality
    //    selection on P-labels).
    let names = db
        .query("/ProteinDatabase/ProteinEntry/protein/name", EngineChoice::auto())
        .unwrap();
    println!(
        "QP1  protein names: {} results, {} elements read, {} joins",
        names.stats.result_count, names.stats.elements_visited, names.stats.d_joins
    );

    // 2. Papers by a specific author (QP2, path with interior //).
    let by_daniel = db
        .query(
            "/ProteinDatabase/ProteinEntry//authors/author='Daniel, M.'",
            EngineChoice::auto(),
        )
        .unwrap();
    println!(
        "QP2  papers by Daniel, M.: {} results, {} elements read",
        by_daniel.stats.result_count, by_daniel.stats.elements_visited
    );

    // 3. Names of proteins whose references carry both citation and
    //    year (QP3, a twig).
    let qp3 = "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name";
    let full = db.query(qp3, EngineChoice::auto()).unwrap();
    println!("QP3  fully-cited proteins: {} results", full.stats.result_count);

    // 4. The biologist's query from the introduction (Fig. 2 shape):
    //    titles of cytochrome c papers by a remembered author. (The
    //    paper's exact year predicate is kept in `quickstart`; here we
    //    relax it so the synthetic corpus reliably has hits.)
    let fig2 = "/ProteinDatabase/ProteinEntry[protein//superfamily='cytochrome c']\
                /reference/refinfo[//author='Daniel, M.']/title";
    let result = db.query(fig2, EngineChoice::auto()).unwrap();
    println!("\nFig. 2-style query → {} title(s):", result.stats.result_count);
    for t in db.texts(&result).into_iter().flatten().take(3) {
        println!("  → {t}");
    }

    // Show why BLAS wins: same twig on all translator/engine combos.
    println!(
        "\n{:<12} {:<7} {:>10} {:>12} {:>10}",
        "translator", "engine", "d-joins", "elements", "time"
    );
    for (name, t) in [
        ("D-labeling", Translator::DLabeling),
        ("Split", Translator::Split),
        ("Push-up", Translator::PushUp),
        ("Unfold", Translator::Unfold),
    ] {
        for (ename, e) in [("rdbms", Engine::Rdbms), ("twig", Engine::Twig)] {
            let choice = EngineChoice::auto().with_engine(e).with_translator(t);
            let r = db.query(qp3, choice).expect("every translator runs on every engine");
            println!(
                "{:<12} {:<7} {:>10} {:>12} {:>9.2?}",
                name, ename, r.stats.d_joins, r.stats.elements_visited, r.stats.elapsed
            );
        }
    }
}
