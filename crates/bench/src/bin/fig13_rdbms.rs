//! Fig. 13 a–c — query processing time on the relational engine for
//! the nine Fig. 10 queries under the four translators.
//!
//! The paper's absolute times (DB2 on a 2004 Pentium 4, cold cache)
//! cannot be matched; the comparison of interest is the *ratio*
//! between D-labeling and the BLAS translators, and the ordering
//! Split ≥ Push-up ≥ Unfold.

use blas::EngineChoice;
use blas_bench::{arg_str, arg_value, bench_query, load_dataset, secs, RDBMS_TRANSLATORS};
use blas_datagen::{query_set, DatasetId};

fn main() {
    let scale = arg_value("--scale").unwrap_or(1);
    // `--engine auto|rdbms|twig|twigstack` swaps the engine under the
    // same translator sweep (auto = cost-based selection per query).
    let base: EngineChoice = arg_str("--engine")
        .unwrap_or_else(|| "rdbms".into())
        .parse()
        .expect("--engine expects auto|rdbms|twig|twigstack");
    println!("Fig. 13 — {base} engine, query time in seconds (avg of 8/10 runs)\n");
    for ds in DatasetId::ALL {
        let (db, _) = load_dataset(ds, scale);
        println!("({}) {}", ds.name().chars().next().unwrap().to_lowercase(), ds.name());
        println!(
            "{:<5} {:>12} {:>12} {:>12} {:>12}   {:>10} {:>9}",
            "query", "D-labeling", "Split", "Push Up", "Unfold", "elems(D)", "elems(U)"
        );
        for q in query_set(ds) {
            let mut times = Vec::new();
            let mut elems = Vec::new();
            for (_, t) in RDBMS_TRANSLATORS {
                let (elapsed, stats) = bench_query(&db, q.xpath, base.with_translator(t));
                times.push(elapsed);
                elems.push(stats.elements_visited);
            }
            println!(
                "{:<5} {:>12} {:>12} {:>12} {:>12}   {:>10} {:>9}",
                q.id,
                secs(times[0]),
                secs(times[1]),
                secs(times[2]),
                secs(times[3]),
                elems[0],
                elems[3]
            );
        }
        println!();
    }
    println!("expected shape (paper): suffix paths ~100× faster than D-labeling;");
    println!("type-2/3: Unfold ≤ Push Up ≤ Split < D-labeling (3–7× on twigs).");
}
