//! # blas-bench — harness reproducing the tables and figures of §5
//!
//! Two binaries:
//!
//! | binary | what it prints |
//! |---|---|
//! | `paper` | the paper's evaluation: Fig. 5's P-labels, Fig. 11's QS3 plans, Fig. 12's datasets, §5's table of every Fig. 10 / Fig. 15 query under every translator × engine (Figs. 13–15), and the Figs. 16–18 scalability sweep |
//! | `bench_storage` | the storage kernel and engine suite; writes `BENCH_storage.json` |
//!
//! The counts `paper` prints are pinned by
//! `tests/plan_shapes.rs::paper_evaluation_table_is_pinned`.
//! Criterion micro/kernel benches live in `benches/`.

use blas::{BlasDb, EngineChoice, ExecStats, Translator};
use blas_datagen::DatasetId;
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
    let result = db.query(xpath, choice).expect("query executes");
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

/// The four translators in §5's column order.
pub const TRANSLATORS: [(&str, Translator); 4] = [
    ("D-labeling", Translator::DLabeling),
    ("Split", Translator::Split),
    ("Push Up", Translator::PushUp),
    ("Unfold", Translator::Unfold),
];

/// Parse an optional `--max-scale N` / `--scale N` CLI override.
pub fn arg_value(name: &str) -> Option<u32> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1)?.parse().ok()
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
