//! The paper's evaluation (§5) in one run:
//!
//! - Fig. 5: the P-labels of the protein suffix paths;
//! - Fig. 11: the four translators' plans for QS3;
//! - Fig. 12: the datasets next to the paper's;
//! - §5's table (Figs. 13–15): every Fig. 10 and Fig. 15 query, in full
//!   and value-stripped (§5.3.1), under each translator on each engine —
//!   result count, elements visited, D-joins and time;
//! - Figs. 16–18: QA1–QA3 on the twig engine as the auction data grows.
//!
//! Counts, visits and D-joins are deterministic:
//! `tests/plan_shapes.rs::paper_evaluation_table_is_pinned` pins the
//! table's rows at ×1 and asserts the paper's claims on them. Times are
//! the trimmed mean of 10 runs (§5.1).
//!
//! Usage: `cargo run --release -p blas-bench --bin paper -- [--scale N] [--max-scale M]`
//! runs the table on the datasets ×N (default 1) and the sweep on
//! Auction ×N, ×2N, … up to ×M (default 2N).

use blas::{BlasDb, EngineChoice, ExecStats, PLabelDomain};
use blas_bench::{arg_value, bench_query, load_dataset, TRANSLATORS};
use blas_datagen::{evaluation_queries, query_set, DatasetId};
use blas_xml::{DocStats, TagInterner};
use blas_xpath::parse;
use std::time::Duration;

const QS3: &str = "/PLAYS/PLAY/ACT/SCENE[TITLE='SCENE III. A public place.']//LINE";

fn main() {
    let scale = arg_value("--scale").unwrap_or(1).max(1);
    let max_scale = arg_value("--max-scale").unwrap_or(2 * scale);
    fig05();
    fig11();
    fig12();
    table(scale);
    sweep(scale, max_scale);
}

fn fig05() {
    let dom = PLabelDomain::with_digits(99, 6).expect("domain fits");
    let names = ["ProteinDatabase", "ProteinEntry", "protein", "name"];
    let mut tags = TagInterner::new();
    let full = names.map(|t| tags.intern(t));
    println!("Fig. 5 — P-labels for suffix path expressions (m = {}, 99 tags)\n", dom.m());
    println!("{:<45} {:>15} {:>15}", "path expression", "p1", "p2");
    for k in (0..full.len()).rev() {
        let iv = dom.path_interval(false, &full[k..]).expect("within domain");
        println!("{:<45} {:>15} {:>15}", format!("//{}", names[k..].join("/")), iv.p1, iv.p2);
    }
    let iv = dom.path_interval(true, &full).expect("within domain");
    println!("{:<45} {:>15} {:>15}", format!("/{}", names.join("/")), iv.p1, iv.p2);
    let label = dom.plabel_of_path(&full).expect("within domain");
    println!("every node the last path reaches has P-label {label}\n");
}

fn fig11() {
    let (db, _) = load_dataset(DatasetId::Shakespeare, 1);
    println!("Fig. 11 — plans for QS3 = {QS3}\n");
    for (name, t) in TRANSLATORS {
        let s = db.plan(QS3, t).expect("translates").summary();
        println!("=== {name} ===");
        println!(
            "d-joins: {}   eq-selections: {}   range-selections: {}   tag-scans: {}",
            s.d_joins, s.eq_selections, s.range_selections, s.tag_scans
        );
        println!("{}\n", db.explain(QS3, t).expect("binds"));
    }
}

fn fig12() {
    println!("Fig. 12 — XML data sets (ours vs paper)\n");
    println!(
        "{:<12} {:>9} {:>8} {:>5} {:>6}   {:>9} {:>8} {:>5} {:>6}",
        "", "size", "nodes", "tags", "depth", "(paper)", "nodes", "tags", "depth"
    );
    let paper = [("1.3MB", 31_975, 19, 7), ("3.5MB", 113_831, 66, 7), ("3.4MB", 61_890, 77, 12)];
    for (ds, (size, nodes, tags, depth)) in DatasetId::ALL.into_iter().zip(paper) {
        let s = DocStats::from_str(&ds.generate(1)).expect("well-formed");
        println!(
            "{:<12} {:>9} {:>8} {:>5} {:>6}   {:>9} {:>8} {:>5} {:>6}",
            ds.name(),
            s.size_display(),
            s.nodes,
            s.tags,
            s.depth,
            size,
            nodes,
            tags,
            depth
        );
    }
    println!();
}

/// Per translator, `xpath`'s time and stats under `engine`.
fn time_translators(db: &BlasDb, xpath: &str, engine: EngineChoice) -> Vec<(Duration, ExecStats)> {
    TRANSLATORS.iter().map(|&(_, t)| bench_query(db, xpath, engine.with_translator(t))).collect()
}

/// Each translator's elements visited, then each one's time in µs.
fn cells(runs: &[(Duration, ExecStats)]) -> String {
    let visits: Vec<String> = runs.iter().map(|(_, s)| format!("{:>8}", s.elements_visited)).collect();
    let times: Vec<String> = runs.iter().map(|(d, _)| format!("{:>8.1}", d.as_secs_f64() * 1e6)).collect();
    format!("{} | {}", visits.join(" "), times.join(" "))
}

/// §5's rows: one line per query × form × engine.
fn table(scale: u32) {
    let engines = [EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack(), EngineChoice::auto()];
    println!("§5 — every evaluation query on every engine, datasets ×{scale}");
    println!("translators D-labeling / Split / Push-up / Unfold; time in µs\n");
    println!(
        "{:<4} {:<5} {:<9} {:>7} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8} | d-joins",
        "", "form", "engine", "count", "visit D", "S", "P", "U", "µs D", "S", "P", "U"
    );
    let mut loaded: Option<(DatasetId, BlasDb)> = None;
    for (ds, q) in evaluation_queries() {
        if loaded.as_ref().map(|(d, _)| *d) != Some(ds) {
            loaded = Some((ds, load_dataset(ds, scale).0));
        }
        let db = &loaded.as_ref().expect("loaded above").1;
        for stripped in [false, true] {
            let tree = parse(q.xpath).expect("query parses");
            let xpath = if stripped { tree.without_value_predicates() } else { tree }.to_string();
            for engine in engines {
                let runs = time_translators(db, &xpath, engine);
                let joins: Vec<String> = runs.iter().map(|(_, s)| s.d_joins.to_string()).collect();
                println!(
                    "{:<4} {:<5} {:<9} {:>7} | {} | {}",
                    q.id,
                    if stripped { "strip" } else { "full" },
                    engine.to_string(),
                    runs[0].1.result_count,
                    cells(&runs),
                    joins.join("/")
                );
            }
        }
    }
    println!();
}

/// Figs. 16–18: QA1–QA3 on the twig engine over Auction ×`scale`,
/// ×2`scale`, … ×`max_scale`.
fn sweep(scale: u32, max_scale: u32) {
    println!("Figs. 16–18 — QA1–QA3 on the twig engine as the auction data grows");
    println!("translators D-labeling / Split / Push-up / Unfold; time in µs\n");
    println!(
        "{:<4} {:>6} {:>9} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8}",
        "", "scale", "size(MB)", "visit D", "S", "P", "U", "µs D", "S", "P", "U"
    );
    for s in (scale..=max_scale).step_by(scale as usize) {
        let (db, bytes) = load_dataset(DatasetId::Auction, s);
        for q in query_set(DatasetId::Auction) {
            let runs = time_translators(&db, q.xpath, EngineChoice::twig());
            println!("{:<4} {:>6} {:>9.1} | {}", q.id, format!("×{s}"), bytes as f64 / 1e6, cells(&runs));
        }
    }
}
