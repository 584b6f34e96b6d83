//! Fig. 14 a,b — the holistic twig engine on all nine queries over the
//! three datasets replicated ×20 (§5.3.2), reporting execution time and
//! the number of elements read. Value predicates are stripped (§5.3.1)
//! and Unfold is left out as in the paper (its prototype ran no unions).

use blas::EngineChoice;
use blas_bench::{arg_str, arg_value, bench_query, load_dataset, secs, TWIG_TRANSLATORS};
use blas_datagen::{query_set, DatasetId};

fn main() {
    let scale = arg_value("--scale").unwrap_or(20);
    // `--engine auto|rdbms|twig|twigstack` swaps the engine under the
    // same translator sweep. Note: auto and rdbms run the full query
    // (value predicates kept); the twig engines strip them (§5.3.1).
    let base: EngineChoice = arg_str("--engine")
        .unwrap_or_else(|| "twig".into())
        .parse()
        .expect("--engine expects auto|rdbms|twig|twigstack");
    println!("Fig. 14 — {base} engine (holistic default: twig), datasets ×{scale}\n");
    println!(
        "{:<5} {:>12} {:>12} {:>12}   {:>10} {:>10} {:>10}",
        "query", "D-label(s)", "Split(s)", "PushUp(s)", "elems(D)", "elems(S)", "elems(P)"
    );
    for ds in DatasetId::ALL {
        let (db, _) = load_dataset(ds, scale);
        for q in query_set(ds) {
            let mut times = Vec::new();
            let mut elems = Vec::new();
            for (_, t) in TWIG_TRANSLATORS {
                let (elapsed, stats) = bench_query(&db, q.xpath, base.with_translator(t));
                times.push(elapsed);
                elems.push(stats.elements_visited / 1000);
            }
            println!(
                "{:<5} {:>12} {:>12} {:>12}   {:>9}K {:>9}K {:>9}K",
                q.id,
                secs(times[0]),
                secs(times[1]),
                secs(times[2]),
                elems[0],
                elems[1],
                elems[2]
            );
        }
    }
    println!("\nexpected shape (paper Fig. 14): BLAS translators beat D-labeling on");
    println!("every query; element counts drop the most for suffix-path queries.");
}
