//! # blas-bench — harness reproducing every table and figure of §5
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig05_plabels` | Fig. 5 — P-labels of suffix path expressions |
//! | `fig11_plans` | Fig. 11 — relational algebra for QS3, 4 translators |
//! | `fig12_datasets` | Fig. 12 — dataset characteristics table |
//! | `fig13_rdbms` | Fig. 13 a–c — RDBMS engine query times |
//! | `fig14_holistic` | Fig. 14 a,b — twig engine times + elements read (×20) |
//! | `fig15_benchmark` | Fig. 15 a,b — XMark benchmark queries (×20) |
//! | `fig16_scal_qa1` | Fig. 16 a,b — scalability, suffix path QA1 |
//! | `fig17_scal_qa2` | Fig. 17 a,b — scalability, path QA2 |
//! | `fig18_scal_qa3` | Fig. 18 a,b — scalability, twig QA3 |
//!
//! Criterion micro/kernel benches live in `benches/`.

use blas::{BlasDb, Engine, EngineChoice, ExecStats, Translator};
use blas_datagen::DatasetId;
use blas_xpath::parse;
use std::time::{Duration, Instant};

/// Repetitions per measurement. The paper repeats 10× and averages
/// after dropping min and max (§5.1); we do the same.
pub const REPS: usize = 10;

/// Run `f` [`REPS`] times, drop min and max, return the mean of the
/// rest (the paper's measurement protocol).
pub fn measure<F: FnMut() -> Duration>(mut f: F) -> Duration {
    let mut samples: Vec<Duration> = (0..REPS).map(|_| f()).collect();
    samples.sort_unstable();
    let trimmed = &samples[1..samples.len() - 1];
    trimmed.iter().sum::<Duration>() / trimmed.len() as u32
}

/// One timed query execution through the one-call API: returns
/// wall-clock and the engine stats.
pub fn run_once(db: &BlasDb, xpath: &str, choice: EngineChoice) -> (Duration, ExecStats) {
    let t0 = Instant::now();
    let result = match choice.engine {
        // The twig engines run value-stripped queries (§5.3.1).
        Engine::Twig | Engine::TwigStack => {
            let q = parse(xpath).expect("query parses").without_value_predicates();
            db.run(&q, choice)
        }
        // Auto takes the cache-keyed full-query path like Rdbms: the
        // optimizer itself decides which engine's plan runs.
        Engine::Rdbms | Engine::Auto => db.query(xpath, choice),
    }
    .expect("query executes");
    (t0.elapsed(), result.stats)
}

/// Timed measurement following the paper's protocol.
pub fn bench_query(db: &BlasDb, xpath: &str, choice: EngineChoice) -> (Duration, ExecStats) {
    let (_, stats) = run_once(db, xpath, choice);
    let elapsed = measure(|| run_once(db, xpath, choice).0);
    (elapsed, stats)
}

/// Generate + index one dataset at a replication scale, reporting build
/// time on stderr so tables stay clean.
pub fn load_dataset(ds: DatasetId, scale: u32) -> (BlasDb, usize) {
    let t0 = Instant::now();
    let xml = ds.generate(scale);
    let bytes = xml.len();
    let db = BlasDb::load(&xml).expect("generator output is well-formed");
    eprintln!(
        "[setup] {} ×{scale}: {:.1} MB, {} nodes, indexed in {:.2?}",
        ds.name(),
        bytes as f64 / 1e6,
        db.store().len(),
        t0.elapsed()
    );
    (db, bytes)
}

/// The translators compared on the RDBMS engine (Fig. 13).
pub const RDBMS_TRANSLATORS: [(&str, Translator); 4] = [
    ("D-labeling", Translator::DLabeling),
    ("Split", Translator::Split),
    ("Push Up", Translator::PushUp),
    ("Unfold", Translator::Unfold),
];

/// The translators compared on the twig engine (Figs. 14–18). The
/// paper's twig prototype ran no unions, so its figures leave Unfold
/// out (§5.3.1); the twig engines here take it like every other.
pub const TWIG_TRANSLATORS: [(&str, Translator); 3] = [
    ("D-labeling", Translator::DLabeling),
    ("Split", Translator::Split),
    ("Push Up", Translator::PushUp),
];

/// Format a duration in seconds like the paper's tables.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// The Fig. 16–18 scalability sweep: replicate the auction data
/// ×10…×`max_scale`, run one query per scale on the twig engine under
/// the three translators, print time and elements-read series.
pub fn scalability_sweep(figure: &str, query_id: &str, xpath: &str, max_scale: u32) {
    let scales: Vec<u32> = (10..=max_scale).step_by(10).collect();
    println!("{figure} — scalability of {query_id} = {xpath} (twig engine)\n");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12}   {:>10} {:>10} {:>10}",
        "scale", "size(MB)", "D-label(s)", "Split(s)", "PushUp(s)", "elems(D)", "elems(S)", "elems(P)"
    );
    for scale in scales {
        let (db, bytes) = load_dataset(DatasetId::Auction, scale);
        let mut times = Vec::new();
        let mut elems = Vec::new();
        for (_, t) in TWIG_TRANSLATORS {
            let (elapsed, stats) =
                bench_query(&db, xpath, EngineChoice::twig().with_translator(t));
            times.push(elapsed);
            elems.push(stats.elements_visited / 1000);
        }
        println!(
            "×{:<9} {:>10.1} {:>12} {:>12} {:>12}   {:>9}K {:>9}K {:>9}K",
            scale,
            bytes as f64 / 1e6,
            secs(times[0]),
            secs(times[1]),
            secs(times[2]),
            elems[0],
            elems[1],
            elems[2]
        );
    }
    println!("\nexpected shape (paper): D-labeling grows linearly with file size;");
    println!("the gap to Split/Push Up widens as the data grows.");
}

/// Parse an optional `--max-scale N` / `--scale N` CLI override.
pub fn arg_value(name: &str) -> Option<u32> {
    arg_str(name).and_then(|v| v.parse().ok())
}

/// Fetch an optional string-valued CLI flag (e.g. `--engine auto`).
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_trims_extremes() {
        let mut calls = 0;
        let d = measure(|| {
            calls += 1;
            // One outlier sample must not dominate.
            if calls == 1 {
                Duration::from_secs(100)
            } else {
                Duration::from_millis(10)
            }
        });
        assert_eq!(calls, REPS);
        assert!(d < Duration::from_secs(1), "{d:?}");
    }

    #[test]
    fn bench_query_returns_stats() {
        let (db, _) = {
            let xml = "<a><b><c>x</c></b></a>";
            (BlasDb::load(xml).unwrap(), xml.len())
        };
        let (elapsed, stats) = bench_query(
            &db,
            "/a/b/c",
            EngineChoice::rdbms().with_translator(Translator::PushUp),
        );
        assert_eq!(stats.result_count, 1);
        assert!(elapsed.as_nanos() > 0);
    }
}
