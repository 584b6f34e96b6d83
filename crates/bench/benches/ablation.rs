//! Ablation benches for design choices ARCHITECTURE.md describes:
//!
//! * **twig matcher**: semi-join reduction vs the literal TwigStack
//!   algorithm (path-solution enumeration + merge);
//! * **start-order restoration**: run-merge (`ensure_start_order`) vs a
//!   full `sort_unstable` on P-label range scans;
//! * **level constraints on branch joins**: Example 4.1's constrained
//!   D-join vs the unconstrained containment join on the kernel level.

use blas::{BlasDb, Engine, Translator};
use blas_datagen::DatasetId;
use blas_engine::stjoin::{ensure_start_order, structural_match};
use blas_labeling::DLabel;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn twig_matchers(c: &mut Criterion) {
    let xml = DatasetId::Auction.generate(1);
    let db = BlasDb::load(&xml).expect("well-formed");
    let mut g = c.benchmark_group("ablation/twig_matcher");
    for (qid, xpath) in [
        ("QA1", "//category/description/parlist/listitem"),
        ("QA2", "/site/regions//item/description"),
        ("QA3", "/site/regions/asia/item[shipping]/description"),
    ] {
        for (name, engine) in [("semijoin", Engine::Twig), ("twigstack", Engine::TwigStack)] {
            g.bench_with_input(BenchmarkId::new(qid, name), &engine, |b, &e| {
                b.iter(|| {
                    db.query_with(xpath, Translator::PushUp, e)
                        .unwrap()
                        .stats
                        .result_count
                })
            });
        }
    }
    g.finish();
}

fn start_order_restoration(c: &mut Criterion) {
    // Synthetic scan output: 6 start-sorted runs of 20k labels each
    // (what a //LINE-style range scan over 6 source paths produces).
    let mut input = Vec::new();
    for run in 0..6u32 {
        for i in 0..20_000u32 {
            let start = i * 7 + run; // interleaved across runs
            input.push(DLabel { start, end: start + 1, level: 5 });
        }
    }
    let mut g = c.benchmark_group("ablation/start_order");
    g.bench_function("run_merge", |b| {
        b.iter(|| ensure_start_order(input.clone()).len())
    });
    g.bench_function("full_sort", |b| {
        b.iter(|| {
            let mut v = input.clone();
            v.sort_unstable_by_key(|l| l.start);
            v.len()
        })
    });
    g.finish();
}

fn level_constraint_kernel(c: &mut Criterion) {
    let mut anc = Vec::new();
    let mut desc = Vec::new();
    for i in 0..2_000u32 {
        let base = i * 100;
        anc.push(DLabel { start: base, end: base + 90, level: 2 });
        for j in 0..20u32 {
            desc.push(DLabel {
                start: base + 2 + j * 4,
                end: base + 3 + j * 4,
                level: if j % 2 == 0 { 3 } else { 4 },
            });
        }
    }
    let mut g = c.benchmark_group("ablation/djoin_level");
    g.bench_function("containment_only", |b| {
        b.iter(|| structural_match(&anc, &desc, None).pairs)
    });
    g.bench_function("level_constrained", |b| {
        b.iter(|| structural_match(&anc, &desc, Some(1)).pairs)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(200));
    targets = twig_matchers, start_order_restoration, level_constraint_kernel
}
criterion_main!(benches);
