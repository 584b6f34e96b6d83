//! Storage kernel + engine-level suite: measures the columnar
//! clustered-scan hot paths against the retained B+-tree reference on
//! Auction ×10, then the three engines (rdbms vs twig vs twigstack)
//! on the Fig. 13/14 Auction queries, then the **cold-start comparison** (full `from_snapshot` decode vs
//! `open_mapped` zero-decode open, gated ≥10× at the acceptance
//! scale) with mapped-vs-owned query-latency rows, and writes
//! everything to `BENCH_storage.json`, so kernel, translator/engine
//! *and* persistence regressions are caught.
//!
//! Kernels:
//! * `plabel_range_scan` — a P-label range selection (suffix-path
//!   query) summed over its contiguous runs, columnar vs B+ tree;
//! * `tag_scan` — one SD tag run, columnar vs B+ tree;
//! * `structural_join` — the stack-merge D-join kernel over two tag
//!   streams, with reused vs per-call-allocated flag buffers; then the
//!   one-level sweep vs the stack kernel on Q4's first join;
//! * `twig_count` — `BlasDb::count` of the two `scan_heavy` twigs (QA3,
//!   Q4), owned vs mapped store.
//!
//! The `wire_decode` rows price a hot read's client decode per wire:
//! the eight hot replies with their labels, decoded from the JSON text
//! (`wire/json_nodes_decode`) and from the binary payload
//! (`wire/bin_nodes_decode`), in ns per reply byte and ns per label.
//!
//! Engine-level (Unfold, the translator every stock choice runs): per
//! Fig. 10 auction query, trimmed-mean wall-clock on each engine.
//! Each query row also records `EngineChoice::Auto`: its wall-clock,
//! the engine it resolves to, and the `auto_vs_best`
//! ratio against the best manual engine (interleaved pairs, medians),
//! gated at ≤ 1.1× **unconditionally** — an engine that beats the
//! relational plan blows the bound at any scale, so the CI scale-1
//! smoke asserts it too. The
//! `plan_cache` row shows what a repeat query saves (cache-cleared vs
//! cache-hit medians) plus the whole-run hit rate.
//! The `delta_overhead` row prices mutability for read-only
//! workloads: both scan kernels over a store carrying an **empty**
//! mutation log vs the plain store, gated at ≤ 1.05× — the merge
//! path's per-run delta predicates must stay invisible.
//!
//! Usage: `cargo run --release --bin bench_storage [--scale N]`
//! (default scale 10, the acceptance configuration).

use blas::{BlasDb, Engine, EngineChoice};
use blas_bench::bench_query;
use blas_bench::arg_value;
use blas_datagen::query_set;
use blas_engine::stjoin::{
    filter_flagged_into, is_one_level, one_level_semi_join_into, structural_match,
    structural_match_into, JoinScratch,
};
use blas_labeling::DLabel;
use blas_server::wire::{decode_json_query_response, decode_response, encode_response};
use blas_server::{Client, Json, MuxClient, NodesBlob, Response, Server, ServerConfig};
use blas_translate::Side;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Samples per kernel; the median is reported.
const REPS: usize = 21;

struct KernelResult {
    name: &'static str,
    median_ns: f64,
    elements_per_op: u64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn measure(mut op: impl FnMut() -> u64) -> f64 {
    // Warm-up (also keeps the optimizer honest via the checksum).
    black_box(op());
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(op());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// Interleaved A/B measurement: both closures sampled back-to-back per
/// iteration so both populations see the same ambient noise, compared
/// by median, with the side that runs first alternating every rep so
/// neither inherits the other's warm caches more often. This is the
/// protocol for any row that *compares* two variants (the
/// sequentially-measured version of the scratch-reuse row once reported
/// the reused-buffer kernel as slower than the allocating one purely
/// from clock drift between the two blocks).
fn measure_pair(reps: usize, mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> (f64, f64) {
    black_box(a());
    black_box(b());
    let mut a_ns = Vec::with_capacity(reps);
    let mut b_ns = Vec::with_capacity(reps);
    let time = |op: &mut dyn FnMut() -> u64, into: &mut Vec<f64>| {
        let t0 = Instant::now();
        black_box(op());
        into.push(t0.elapsed().as_nanos() as f64);
    };
    for rep in 0..reps {
        if rep % 2 == 0 {
            time(&mut a, &mut a_ns);
            time(&mut b, &mut b_ns);
        } else {
            time(&mut b, &mut b_ns);
            time(&mut a, &mut a_ns);
        }
    }
    (median(&mut a_ns), median(&mut b_ns))
}

fn main() {
    let scale = arg_value("--scale").unwrap_or(10);
    if scale == 0 {
        eprintln!("bench_storage: --scale must be at least 1");
        std::process::exit(2);
    }
    eprintln!("[bench_storage] generating Auction ×{scale}…");
    let xml = blas_datagen::auction(scale, 42);
    let db = BlasDb::load(&xml).expect("generator output is well-formed");
    let store = db.store();
    let tags = db.tags();
    let domain = db.domain();
    eprintln!(
        "[bench_storage] {} nodes, {} source-path runs, {} tag runs, SP B+ tree height {}",
        store.len(),
        store.sp_run_count(),
        store.sd_run_count(),
        store.sp_index_height()
    );

    let mut results: Vec<KernelResult> = Vec::new();

    // --- kernel 1: P-label range scan (suffix path //listitem) -------
    // A one-tag suffix path covers every source path ending in the
    // tag: a multi-run range selection, the paper's bread and butter.
    let listitem = tags.get("listitem").expect("auction has listitem");
    let interval = domain
        .path_interval(false, &[listitem])
        .expect("interval fits the domain");
    let (p1, p2) = (interval.p1, interval.p2);

    let range_elems: u64 = store.scan_plabel_range(p1, p2).map(|r| r.len() as u64).sum();
    assert!(range_elems > 0, "kernel must scan real data");
    results.push(KernelResult {
        name: "plabel_range_scan/columnar",
        median_ns: measure(|| {
            let mut acc = 0u64;
            for run in store.scan_plabel_range(p1, p2) {
                acc = acc.wrapping_add(run.sum_starts());
            }
            acc
        }),
        elements_per_op: range_elems,
    });
    results.push(KernelResult {
        name: "plabel_range_scan/bptree_reference",
        median_ns: measure(|| {
            let mut acc = 0u64;
            for (_, l) in store.ref_scan_plabel_range(p1, p2) {
                acc = acc.wrapping_add(u64::from(l.start));
            }
            acc
        }),
        elements_per_op: range_elems,
    });

    // --- kernel 2: SD tag scan (//item) ------------------------------
    let item = tags.get("item").expect("auction has item");
    let tag_elems = store.scan_tag(item).len() as u64;
    assert!(tag_elems > 0);
    results.push(KernelResult {
        name: "tag_scan/columnar",
        median_ns: measure(|| store.scan_tag(item).sum_starts()),
        elements_per_op: tag_elems,
    });
    results.push(KernelResult {
        name: "tag_scan/bptree_reference",
        median_ns: measure(|| {
            let mut acc = 0u64;
            for (_, l) in store.ref_scan_tag(item) {
                acc = acc.wrapping_add(u64::from(l.start));
            }
            acc
        }),
        elements_per_op: tag_elems,
    });

    // --- kernel 3: structural join over two tag streams --------------
    // `item ⋉ description` is one-to-one (each item holds exactly one
    // description), so the stack kernel's admit/retire branches predict
    // perfectly: this row is its best case (≈ 0.7 ns per element at ×10
    // on an idle 2-core host). A join with a random fan-out (Q4's
    // bidders per auction, below) costs the same kernel several times
    // more per element.
    let description = tags.get("description").expect("auction has description");
    let mut anc: Vec<DLabel> = Vec::new();
    store.scan_tag(item).decode_labels_into(&mut anc);
    let mut desc: Vec<DLabel> = Vec::new();
    store.scan_tag(description).decode_labels_into(&mut desc);
    let join_elems = (anc.len() + desc.len()) as u64;
    let mut scratch = JoinScratch::default();
    // Interleaved pairs: the two variants differ only by buffer
    // allocation, a fixed cost far below ambient drift over ~20
    // sequential samples — measured block-after-block this row once
    // reported scratch reuse as *slower* than allocating.
    const JOIN_REPS: usize = 33;
    let (scratch_reuse_ns, fresh_alloc_ns) = measure_pair(
        JOIN_REPS,
        || {
            structural_match_into(&anc, &desc, None, &mut scratch);
            scratch.pairs
        },
        || structural_match(&anc, &desc, None).pairs,
    );
    results.push(KernelResult {
        name: "structural_join/scratch_reuse",
        median_ns: scratch_reuse_ns,
        elements_per_op: join_elems,
    });
    results.push(KernelResult {
        name: "structural_join/fresh_alloc",
        median_ns: fresh_alloc_ns,
        elements_per_op: join_elems,
    });

    // --- kernel 3b: Q4's first join, one-level sweep vs stack --------
    // `open_auction[bidder/personref]`: every open_auction sits on
    // level 3 and every personref two below it, a random number per
    // auction. The executor picks the sweep for this one-level ancestor
    // side; the stack row is what it ran before — flag, then copy the
    // kept side out.
    let open_auction = tags.get("open_auction").expect("auction has open_auction");
    let personref = tags.get("personref").expect("auction has personref");
    let mut q4_anc: Vec<DLabel> = Vec::new();
    store.scan_tag(open_auction).decode_labels_into(&mut q4_anc);
    let mut q4_desc: Vec<DLabel> = Vec::new();
    store.scan_tag(personref).decode_labels_into(&mut q4_desc);
    assert!(is_one_level(&q4_anc), "Q4's ancestor side sits on one level");
    let q4_elems = (q4_anc.len() + q4_desc.len()) as u64;
    let (mut sweep_out, mut stack_out) = (Vec::new(), Vec::new());
    let (sweep_ns, stack_ns) = measure_pair(
        JOIN_REPS,
        || {
            sweep_out.clear();
            one_level_semi_join_into(&q4_anc, &q4_desc, Some(2), Side::Anc, &mut sweep_out);
            sweep_out.len() as u64
        },
        || {
            stack_out.clear();
            structural_match_into(&q4_anc, &q4_desc, Some(2), &mut scratch);
            filter_flagged_into(&q4_anc, &scratch.anc, &mut stack_out);
            stack_out.len() as u64
        },
    );
    assert_eq!(sweep_out, stack_out, "both kernels keep the same open_auctions");
    results.push(KernelResult {
        name: "structural_join/one_level_sweep",
        median_ns: sweep_ns,
        elements_per_op: q4_elems,
    });
    results.push(KernelResult {
        name: "structural_join/stack",
        median_ns: stack_ns,
        elements_per_op: q4_elems,
    });

    // --- delta-overhead row: empty delta vs no delta ------------------
    // The incremental-update tax on read-only workloads: a store that
    // carries an **empty** mutation log must scan at the plain store's
    // speed. The merge-at-scan machinery guards every key run with
    // `touches_*` checks against the delta's side columns, so an empty
    // delta costs one predicate per run — gated at ≤ 1.05× on both
    // scan kernels (interleaved pairs, medians, like every comparison
    // row).
    let delta_store = store
        .apply_edits(&blas::DeltaEdits::new())
        .expect("an empty edit log always applies");
    assert!(delta_store.delta().is_some(), "the empty log must still go through the delta path");
    const DELTA_REPS: usize = 33;
    let (delta_range_ns, plain_range_ns) = measure_pair(
        DELTA_REPS,
        || {
            let mut acc = 0u64;
            for run in delta_store.scan_plabel_range(p1, p2) {
                acc = acc.wrapping_add(run.sum_starts());
            }
            acc
        },
        || {
            let mut acc = 0u64;
            for run in store.scan_plabel_range(p1, p2) {
                acc = acc.wrapping_add(run.sum_starts());
            }
            acc
        },
    );
    let (delta_tag_ns, plain_tag_ns) = measure_pair(
        DELTA_REPS,
        || delta_store.scan_tag(item).sum_starts(),
        || store.scan_tag(item).sum_starts(),
    );
    let delta_range_ratio = delta_range_ns / plain_range_ns;
    let delta_tag_ratio = delta_tag_ns / plain_tag_ns;
    drop(delta_store);

    // --- engine-level Fig. 13/14 numbers ------------------------------
    // Every engine runs Unfold, the translator `auto()` runs, so the
    // rows compare engines only: rdbms vs twig vs twigstack, and
    // `auto_vs_best` is Auto's plan against the fastest of them.
    //
    // The Fig. 10 auction queries are joined by two *range-scan-heavy*
    // suffix paths (every listitem / text anywhere): at ×10 their SP
    // range scans cover tens of thousands of tuples across ~a hundred
    // runs.
    struct EngineRow {
        id: &'static str,
        kind: &'static str,
        rdbms_ns: f64,
        twig_ns: f64,
        twigstack_ns: f64,
        auto_ns: f64,
        chosen_engine: String,
        auto_med_ns: f64,
        best_med_ns: f64,
        elements: u64,
    }
    impl EngineRow {
        fn auto_vs_best(&self) -> f64 {
            self.auto_med_ns / self.best_med_ns
        }
    }
    let manual = |e: Engine| EngineChoice::auto().with_engine(e);
    let mut queries: Vec<(&'static str, &'static str, &'static str)> = Vec::new();
    for q in query_set(blas_datagen::DatasetId::Auction) {
        queries.push((
            q.id,
            q.xpath,
            match q.kind {
                blas_datagen::QueryKind::SuffixPath => "suffix_path",
                blas_datagen::QueryKind::Path => "path",
                blas_datagen::QueryKind::Tree => "tree",
            },
        ));
    }
    queries.push(("QH1", "//listitem", "range_scan_heavy"));
    queries.push(("QH2", "//text", "range_scan_heavy"));
    let mut engine_rows: Vec<EngineRow> = Vec::new();
    eprintln!("[bench_storage] engine-level queries (Fig. 13/14, Auction ×{scale})…");
    // Interleaved pairs for the Auto-vs-best gate: the gate compares
    // two ~µs medians, so it gets a tail-robust protocol — many
    // interleaved sample pairs, both populations seeing the same
    // ambient noise, compared by median — instead of two
    // separately-timed trimmed means.
    const AUTO_PAIR_REPS: usize = 33;
    for (id, xpath, kind) in queries {
        // Warm every configuration once before measuring any of them,
        // so the comparison is not biased by which run paged the
        // columns in first.
        for choice in [
            manual(Engine::Rdbms),
            manual(Engine::Twig),
            manual(Engine::TwigStack),
            EngineChoice::auto(),
        ] {
            let _ = blas_bench::run_once(&db, xpath, choice);
        }
        let (rdbms, stats) = bench_query(&db, xpath, manual(Engine::Rdbms));
        let (twig, _) = bench_query(&db, xpath, manual(Engine::Twig));
        let (twigstack, _) = bench_query(&db, xpath, manual(Engine::TwigStack));
        let (auto, _) = bench_query(&db, xpath, EngineChoice::auto());
        let info = db
            .plan_info(xpath, EngineChoice::auto())
            .expect("Fig. 10 queries plan under Auto");
        // The optimizer gate: Auto within 1.1x of the best manual
        // engine, both sides sampled in alternating interleaved pairs
        // and compared by median. Auto runs the relational plan, so
        // when the relational engine ranks fastest this times one plan
        // against itself and the row reads the host's noise; the gate
        // fails only if a manual engine beats the relational plan by
        // more than 10 %. `best` is whichever manual configuration the
        // trimmed means above rank fastest.
        let best_choice = [
            (rdbms, manual(Engine::Rdbms)),
            (twig, manual(Engine::Twig)),
            (twigstack, manual(Engine::TwigStack)),
        ]
        .into_iter()
        .min_by(|a, b| a.0.cmp(&b.0))
        .expect("three candidates")
        .1;
        let (auto_med, best_med) = measure_pair(
            AUTO_PAIR_REPS,
            || blas_bench::run_once(&db, xpath, EngineChoice::auto()).0.as_nanos() as u64,
            || blas_bench::run_once(&db, xpath, best_choice).0.as_nanos() as u64,
        );
        engine_rows.push(EngineRow {
            id,
            kind,
            rdbms_ns: rdbms.as_nanos() as f64,
            twig_ns: twig.as_nanos() as f64,
            twigstack_ns: twigstack.as_nanos() as f64,
            auto_ns: auto.as_nanos() as f64,
            chosen_engine: format!("{}", info.engine),
            auto_med_ns: auto_med,
            best_med_ns: best_med,
            elements: stats.elements_visited,
        });
    }

    let qa1 = query_set(blas_datagen::DatasetId::Auction)
        .into_iter()
        .find(|q| q.id == "QA1")
        .expect("Fig. 10 has QA1");

    // --- plan-cache row (QA1 under Auto) ------------------------------
    // What a repeat query saves: the uncached side re-pays parse,
    // translation, binding and lowering (QA1 is linear: one scan)
    // every sample by clearing the cache first; the cached
    // side runs the same query as a pure cache hit. Interleaved pairs,
    // medians.
    const CACHE_REPS: usize = 33;
    let (cache_cold_ns, cache_warm_ns) = measure_pair(
        CACHE_REPS,
        || {
            db.clear_plan_cache();
            blas_bench::run_once(&db, qa1.xpath, EngineChoice::auto()).0.as_nanos() as u64
        },
        || blas_bench::run_once(&db, qa1.xpath, EngineChoice::auto()).0.as_nanos() as u64,
    );
    let plan_cache_speedup = cache_cold_ns / cache_warm_ns;

    // --- cold start: full decode vs mapped open -----------------------
    // The mmap acceptance row: restoring via `from_snapshot` decodes
    // and re-clusters every column (O(data)); `open_mapped` validates
    // the header page and run directories and serves the columns in
    // place (O(1)). Both produce byte-identical answers (asserted by
    // the `mapped_equivalence` test suite; spot-checked here).
    eprintln!("[bench_storage] cold start: snapshot decode vs mapped open…");
    let snap_bytes = db.to_snapshot();
    let snap_path = std::env::temp_dir().join(format!(
        "blas_bench_storage_{}_x{scale}.snap",
        std::process::id()
    ));
    std::fs::write(&snap_path, &snap_bytes).expect("write snapshot file");
    const OPEN_REPS: usize = 7;
    let measure_open = |op: &mut dyn FnMut() -> u64| {
        let mut samples: Vec<f64> = (0..OPEN_REPS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(op());
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    };
    let decode_ns = measure_open(&mut || {
        BlasDb::from_snapshot(&snap_bytes).expect("snapshot decodes").store().len() as u64
    });
    let mapped_open_ns = measure_open(&mut || {
        BlasDb::open_mapped(&snap_path).expect("snapshot maps").store().len() as u64
    });
    let open_speedup = decode_ns / mapped_open_ns;

    // Mapped-vs-owned query latency on the two workload extremes: the
    // most selective Fig. 10 tree query and the heaviest range scan.
    // Measured like the Auto-vs-best pairs: both sides warmed, then
    // many *interleaved* owned/mapped sample pairs compared by median,
    // so both populations see the same ambient noise — the earlier
    // protocol measured the owned side cold and reported a spurious
    // mapped "speedup".
    let mapped_db = BlasDb::open_mapped(&snap_path).expect("snapshot maps");
    struct MappedRow {
        id: &'static str,
        owned_ns: f64,
        mapped_ns: f64,
    }
    const MAPPED_REPS: usize = 33;
    let mut mapped_rows: Vec<MappedRow> = Vec::new();
    for (id, xpath) in [
        ("QA3", "/site/regions/asia/item[shipping]/description"),
        ("QH1", "//listitem"),
    ] {
        let choice = manual(Engine::Rdbms);
        // Verify equivalence, then warm both stores before timing.
        let a = blas_bench::run_once(&db, xpath, choice);
        let b = blas_bench::run_once(&mapped_db, xpath, choice);
        assert_eq!(a.1.result_count, b.1.result_count, "mapped answers differ on {id}");
        for _ in 0..4 {
            let _ = blas_bench::run_once(&db, xpath, choice);
            let _ = blas_bench::run_once(&mapped_db, xpath, choice);
        }
        let mut owned_ns = Vec::with_capacity(MAPPED_REPS);
        let mut mapped_ns = Vec::with_capacity(MAPPED_REPS);
        for _ in 0..MAPPED_REPS {
            owned_ns.push(blas_bench::run_once(&db, xpath, choice).0.as_nanos() as f64);
            mapped_ns.push(blas_bench::run_once(&mapped_db, xpath, choice).0.as_nanos() as f64);
        }
        mapped_rows.push(MappedRow {
            id,
            owned_ns: median(&mut owned_ns),
            mapped_ns: median(&mut mapped_ns),
        });
    }

    // The `scan_heavy` twigs, counted in process the way the workload
    // asks for them (`BlasDb::count` under Auto): owned vs mapped store,
    // interleaved pairs. Their joins are all of what they cost beyond
    // three single-key scans.
    for (owned_name, mapped_name, xpath) in [
        (
            "twig_count/qa3_owned",
            "twig_count/qa3_mapped",
            "/site/regions/asia/item[shipping]/description",
        ),
        (
            "twig_count/q4_owned",
            "twig_count/q4_mapped",
            "/site/open_auctions/open_auction[bidder/personref]/reserve",
        ),
    ] {
        let auto = EngineChoice::auto();
        let owned = db.count(xpath, auto).expect("twig counts");
        let mapped = mapped_db.count(xpath, auto).expect("twig counts");
        assert_eq!(owned.count, mapped.count, "mapped counts differ on {xpath}");
        let (owned_ns, mapped_ns) = measure_pair(
            MAPPED_REPS,
            || db.count(xpath, auto).map_or(0, |c| c.count as u64),
            || mapped_db.count(xpath, auto).map_or(0, |c| c.count as u64),
        );
        let elements_per_op = owned.stats.elements_visited;
        results.push(KernelResult { name: owned_name, median_ns: owned_ns, elements_per_op });
        results.push(KernelResult { name: mapped_name, median_ns: mapped_ns, elements_per_op });
    }

    // The packed-kernel rows: the same two scan kernels as rows 1-2,
    // but over the mapped v3 store, where the runs are delta/bitpacked
    // planes and the kernels decode-and-sum block-wise. The elems/op
    // match the raw rows, so the ns/elem columns compare directly.
    {
        let mstore = mapped_db.store();
        let m_range: u64 = mstore.scan_plabel_range(p1, p2).map(|r| r.len() as u64).sum();
        assert_eq!(m_range, range_elems, "mapped store scans the same tuples");
        results.push(KernelResult {
            name: "plabel_range_scan/columnar_packed",
            median_ns: measure(|| {
                let mut acc = 0u64;
                for run in mstore.scan_plabel_range(p1, p2) {
                    acc = acc.wrapping_add(run.sum_starts());
                }
                acc
            }),
            elements_per_op: range_elems,
        });
        results.push(KernelResult {
            name: "tag_scan/columnar_packed",
            median_ns: measure(|| mstore.scan_tag(item).sum_starts()),
            elements_per_op: tag_elems,
        });
    }
    drop(mapped_db);
    std::fs::remove_file(&snap_path).ok();

    // --- serving front door: wire latency under concurrent clients ---
    // Client-observed latency through the TCP front door — framing,
    // JSON, admission control and execution — for a QA1-class cached
    // point query, p50/p99 pooled across SERVE_CLIENTS concurrent
    // connections; then the result-cache hit-vs-miss pair on the
    // heaviest range scan (count-only replies so the wire cost is the
    // same small constant on both sides), interleaved samples compared
    // by median. The miss side clears the cache over the wire *before*
    // starting its timer, so the sample prices exactly one uncached
    // execution plus one round trip.
    const SERVE_CLIENTS: usize = 8;
    const SERVE_ROUNDS: usize = 40;
    const SERVE_PAIR_REPS: usize = 21;
    const SERVE_HEAVY: &str = "//listitem";
    eprintln!("[bench_storage] serve: wire latency under {SERVE_CLIENTS} clients…");
    let serve_db = Arc::new(BlasDb::from_snapshot(&snap_bytes).expect("snapshot decodes"));
    let server = Server::bind(Arc::clone(&serve_db), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral port");
    let serve_addr = server.local_addr();
    let serve_point = qa1.xpath;
    let mut serve_ns: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut client =
                        Client::connect(serve_addr, None).expect("serve client connects");
                    // Warm connection, plan cache and result cache.
                    let expect = client.query_count(serve_point, "auto", true).unwrap().count;
                    (0..SERVE_ROUNDS)
                        .map(|_| {
                            let t0 = Instant::now();
                            let got = client.query_count(serve_point, "auto", true).unwrap();
                            assert_eq!(got.count, expect);
                            t0.elapsed().as_nanos() as f64
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("serve client thread"))
            .collect()
    });
    serve_ns.sort_by(|a, b| a.total_cmp(b));
    let serve_p50 = serve_ns[serve_ns.len() / 2];
    let serve_p99 = serve_ns[serve_ns.len() * 99 / 100];

    let mut miss_client = Client::connect(serve_addr, None).expect("miss client connects");
    let mut hit_client = Client::connect(serve_addr, None).expect("hit client connects");
    // Warm both paths once (and the plan cache for the heavy query).
    let heavy_count = miss_client.query_count(SERVE_HEAVY, "rdbms", true).unwrap().count;
    assert!(heavy_count > 0, "the heavy serve query must move real tuples");
    let mut serve_miss_samples = Vec::with_capacity(SERVE_PAIR_REPS);
    let mut serve_hit_samples = Vec::with_capacity(SERVE_PAIR_REPS);
    for _ in 0..SERVE_PAIR_REPS {
        miss_client.clear_cache().expect("clear the result cache");
        let t0 = Instant::now();
        let miss = miss_client.query_count(SERVE_HEAVY, "rdbms", true).unwrap();
        serve_miss_samples.push(t0.elapsed().as_nanos() as f64);
        assert!(!miss.cached, "the cleared cache must miss");
        let t0 = Instant::now();
        let hit = hit_client.query_count(SERVE_HEAVY, "rdbms", true).unwrap();
        serve_hit_samples.push(t0.elapsed().as_nanos() as f64);
        assert!(hit.cached, "the repeat must hit the result cache");
        assert_eq!((miss.count, hit.count), (heavy_count, heavy_count));
    }
    let serve_miss_ns = median(&mut serve_miss_samples);
    let serve_hit_ns = median(&mut serve_hit_samples);
    let serve_hit_speedup = serve_miss_ns / serve_hit_ns;

    // json vs binary-v2 cached hits, interleaved pairs: the same
    // labeled result-cache entry for the heavy query, replayed to a
    // JSON client (pre-serialized text splice + client parse) and to a
    // multiplexed binary client (raw 10-byte triples, memcpy out of
    // the same entry). Labels on, so the node-array encoding — the
    // part v2 exists for — dominates both sides; client-observed, so
    // each sample prices one full round trip including decode.
    const SERVE_PROTO_REPS: usize = 100;
    let mut json_full = Client::connect(serve_addr, None).expect("json pair client connects");
    let bin_full = MuxClient::connect(serve_addr, None).expect("binary pair client connects");
    let warm_json = json_full.query(SERVE_HEAVY, "rdbms").unwrap();
    let warm_bin = bin_full.query(SERVE_HEAVY, "rdbms").unwrap();
    assert_eq!(warm_json.nodes, warm_bin.nodes, "both encodings must decode the same labels");
    assert_eq!(warm_json.count, heavy_count);
    let mut serve_json_ns = Vec::with_capacity(SERVE_PROTO_REPS);
    let mut serve_bin_ns = Vec::with_capacity(SERVE_PROTO_REPS);
    for _ in 0..SERVE_PROTO_REPS {
        let t0 = Instant::now();
        let a = json_full.query(SERVE_HEAVY, "rdbms").unwrap();
        serve_json_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        let b = bin_full.query(SERVE_HEAVY, "rdbms").unwrap();
        serve_bin_ns.push(t0.elapsed().as_nanos() as f64);
        assert!(a.cached && b.cached, "pair samples must both replay the cache entry");
        assert_eq!((a.nodes.len(), b.nodes.len()), (heavy_count, heavy_count));
    }
    serve_json_ns.sort_by(|a, b| a.total_cmp(b));
    serve_bin_ns.sort_by(|a, b| a.total_cmp(b));
    let serve_json_p50 = serve_json_ns[serve_json_ns.len() / 2];
    let serve_json_p99 = serve_json_ns[serve_json_ns.len() * 99 / 100];
    let serve_bin_p50 = serve_bin_ns[serve_bin_ns.len() / 2];
    let serve_bin_p99 = serve_bin_ns[serve_bin_ns.len() * 99 / 100];
    let serve_proto_ratio = serve_bin_p50 / serve_json_p50;
    drop(bin_full);

    let serve_stats = server.shutdown();
    drop(serve_db);

    // --- a hot read's client decode, per wire --------------------------
    // The replies `serve_hot_json` / `serve_hot_bin` carry: the
    // benchmark's eight hot queries (`HOT` in `benchmark/src/script.rs`)
    // answered with labels and framed as the server sends them, decoded
    // as the clients decode them. One op decodes all eight replies;
    // interleaved pairs, medians.
    const HOT: [&str; 8] = [
        "//category/description/parlist/listitem",
        "/site/people/person/name",
        "/site/open_auctions/open_auction/bidder/increase",
        "/site/closed_auctions/closed_auction/price",
        "/site/regions/asia/item[shipping]/description",
        "/site/regions/europe/item/name",
        "/site/people/person/address/city",
        "/site/categories/category/name",
    ];
    const WIRE_REPS: usize = 33;
    let hot_replies: Vec<Response> = HOT
        .iter()
        .map(|xpath| {
            let result = db.query(xpath, EngineChoice::auto()).expect("hot queries run");
            let nodes = NodesBlob::encode(result.nodes.iter().map(|d| (d.start, d.end, d.level)));
            Response::Query {
                generation: 1,
                engine: "auto".into(),
                cached: true,
                count: nodes.len() as u64,
                elements_visited: result.stats.elements_visited,
                nodes: Some(Arc::new(nodes)),
            }
        })
        .collect();
    let json_replies: Vec<String> =
        hot_replies.iter().map(|r| r.to_json(&Json::uint(7)).to_string()).collect();
    let bin_replies: Vec<Vec<u8>> = hot_replies
        .iter()
        .map(|r| {
            let mut payload = Vec::new();
            encode_response(7, r, &mut payload);
            payload
        })
        .collect();
    for ((resp, text), payload) in hot_replies.iter().zip(&json_replies).zip(&bin_replies) {
        assert_eq!(decode_json_query_response(text).expect("json reply decodes").1, *resp);
        assert_eq!(decode_response(payload).expect("binary reply decodes").1, *resp);
    }
    let labels_of = |resp: Response| match resp {
        Response::Query { nodes: Some(blob), .. } => blob.len() as u64,
        other => panic!("a hot reply decoded as {other:?}"),
    };
    let (json_decode_ns, bin_decode_ns) = measure_pair(
        WIRE_REPS,
        || json_replies.iter().map(|t| labels_of(decode_json_query_response(t).unwrap().1)).sum(),
        || bin_replies.iter().map(|p| labels_of(decode_response(p).unwrap().1)).sum(),
    );
    let hot_labels: u64 = hot_replies.iter().cloned().map(labels_of).sum();
    let json_bytes: usize = json_replies.iter().map(String::len).sum();
    let bin_bytes: usize = bin_replies.iter().map(Vec::len).sum();
    let wire_rows = [
        ("wire/json_nodes_decode", json_decode_ns, json_bytes),
        ("wire/bin_nodes_decode", bin_decode_ns, bin_bytes),
    ];

    // --- report -------------------------------------------------------
    println!(
        "{:<38} {:>14} {:>12} {:>10}",
        "kernel", "median ns/op", "elems/op", "ns/elem"
    );
    for r in &results {
        println!(
            "{:<38} {:>14.0} {:>12} {:>10.2}",
            r.name,
            r.median_ns,
            r.elements_per_op,
            r.median_ns / r.elements_per_op as f64
        );
    }
    let speedup = |fast: &str, slow: &str| {
        let get = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .expect("kernel present")
                .median_ns
        };
        get(slow) / get(fast)
    };
    let range_speedup = speedup("plabel_range_scan/columnar", "plabel_range_scan/bptree_reference");
    let tag_speedup = speedup("tag_scan/columnar", "tag_scan/bptree_reference");
    println!("\ncolumnar vs B+-tree reference speedup:");
    println!("  plabel_range_scan  {range_speedup:.2}x");
    println!("  tag_scan           {tag_speedup:.2}x");

    println!(
        "\ndelta overhead (empty mutation log vs plain store, median of {DELTA_REPS} \
         interleaved pairs, ceiling 1.05x):"
    );
    println!(
        "  plabel_range_scan  plain {plain_range_ns:>10.0} ns   empty-delta \
         {delta_range_ns:>10.0} ns   ratio {delta_range_ratio:>5.2}x"
    );
    println!(
        "  tag_scan           plain {plain_tag_ns:>10.0} ns   empty-delta \
         {delta_tag_ns:>10.0} ns   ratio {delta_tag_ratio:>5.2}x"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\nengine-level (Fig. 13/14, Unfold, Auction ×{scale}, {cores} core(s)):");
    println!(
        "{:<5} {:<12} {:>12} {:>12} {:>12} {:>12} {:>7} {:>9}",
        "query", "kind", "rdbms ns", "twig ns", "twigstack", "auto ns", "chose", "auto/best"
    );
    for r in &engine_rows {
        println!(
            "{:<5} {:<12} {:>12.0} {:>12.0} {:>12.0} {:>12.0} {:>7} {:>8.2}x",
            r.id,
            r.kind,
            r.rdbms_ns,
            r.twig_ns,
            r.twigstack_ns,
            r.auto_ns,
            r.chosen_engine,
            r.auto_vs_best()
        );
    }

    let cache_stats = db.plan_cache_stats();
    println!(
        "\nplan cache (QA1, auto, median of {CACHE_REPS} interleaved pairs): \
         uncached {cache_cold_ns:.0} ns, cached {cache_warm_ns:.0} ns, \
         speedup {plan_cache_speedup:.2}x; run totals: {} hits / {} misses \
         ({:.0}% hit rate)",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_rate() * 100.0
    );

    let snapshot_bytes_per_xml_byte = snap_bytes.len() as f64 / xml.len() as f64;
    println!(
        "\ncold start (snapshot {} bytes, {:.2} B per XML byte, median of {OPEN_REPS}):",
        snap_bytes.len(),
        snapshot_bytes_per_xml_byte
    );
    println!("  from_snapshot (full decode)  {decode_ns:>14.0} ns");
    println!("  open_mapped   (zero decode)  {mapped_open_ns:>14.0} ns");
    println!("  open speedup                 {open_speedup:>13.1}x");
    println!("\nmapped vs owned query latency (rdbms, Unfold):");
    for r in &mapped_rows {
        println!(
            "  {:<5} owned {:>12.0} ns   mapped {:>12.0} ns   ratio {:>5.2}x",
            r.id,
            r.owned_ns,
            r.mapped_ns,
            r.owned_ns / r.mapped_ns
        );
    }

    println!(
        "\nserving front door ({SERVE_CLIENTS} concurrent clients, {SERVE_ROUNDS} rounds each, \
         cached {} over TCP):",
        qa1.id
    );
    println!("  p50 {serve_p50:>12.0} ns   p99 {serve_p99:>12.0} ns");
    println!(
        "  result cache on {SERVE_HEAVY} (median of {SERVE_PAIR_REPS} interleaved pairs): \
         miss {serve_miss_ns:.0} ns, hit {serve_hit_ns:.0} ns, speedup {serve_hit_speedup:.1}x \
         ({} wire hits / {} misses this run)",
        serve_stats.cache_hits, serve_stats.cache_misses
    );
    println!(
        "  json vs binary-v2 cached hit, labels on ({SERVE_PROTO_REPS} interleaved pairs): \
         json p50 {serve_json_p50:.0} ns / p99 {serve_json_p99:.0} ns, \
         binary p50 {serve_bin_p50:.0} ns / p99 {serve_bin_p99:.0} ns, \
         p50 ratio {serve_proto_ratio:.2}x (ceiling 0.6x at scale >= 10)"
    );

    println!(
        "\na hot read's client decode ({} replies, {hot_labels} labels, median of {WIRE_REPS} \
         interleaved pairs):",
        HOT.len()
    );
    for (name, ns, bytes) in wire_rows {
        println!(
            "  {name:<24} {ns:>12.0} ns/op {bytes:>10} B/op {:>7.3} ns/byte {:>7.2} ns/label",
            ns / bytes as f64,
            ns / hot_labels as f64
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"dataset\": \"Auction\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"nodes\": {},", store.len());
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    json.push_str("  \"kernels\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"median_ns_per_op\": {:.0}, \"elements_per_op\": {}}}{}",
            r.name, r.median_ns, r.elements_per_op, comma
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"engine_queries\": {\n");
    for (i, r) in engine_rows.iter().enumerate() {
        let comma = if i + 1 == engine_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"kind\": \"{}\", \"elements_visited\": {}, \"rdbms_ns\": {:.0}, \
             \"twig_ns\": {:.0}, \"twigstack_ns\": {:.0}, \"auto_ns\": {:.0}, \
             \"chosen_engine\": \"{}\", \"auto_vs_best\": {:.2}}}{}",
            r.id,
            r.kind,
            r.elements,
            r.rdbms_ns,
            r.twig_ns,
            r.twigstack_ns,
            r.auto_ns,
            r.chosen_engine,
            r.auto_vs_best(),
            comma
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"plan_cache\": {\n");
    let _ = writeln!(json, "    \"query\": \"{}\",", qa1.id);
    let _ = writeln!(json, "    \"uncached_ns\": {cache_cold_ns:.0},");
    let _ = writeln!(json, "    \"cached_ns\": {cache_warm_ns:.0},");
    let _ = writeln!(json, "    \"speedup\": {plan_cache_speedup:.2},");
    let _ = writeln!(json, "    \"run_hits\": {},", cache_stats.hits);
    let _ = writeln!(json, "    \"run_misses\": {},", cache_stats.misses);
    let _ = writeln!(json, "    \"run_hit_rate\": {:.2}", cache_stats.hit_rate());
    json.push_str("  },\n");
    json.push_str("  \"cold_start\": {\n");
    let _ = writeln!(json, "    \"snapshot_bytes\": {},", snap_bytes.len());
    let _ = writeln!(json, "    \"xml_bytes\": {},", xml.len());
    let _ = writeln!(
        json,
        "    \"snapshot_bytes_per_xml_byte\": {snapshot_bytes_per_xml_byte:.2},"
    );
    let _ = writeln!(json, "    \"from_snapshot_decode_ns\": {decode_ns:.0},");
    let _ = writeln!(json, "    \"open_mapped_ns\": {mapped_open_ns:.0},");
    let _ = writeln!(json, "    \"open_speedup\": {open_speedup:.1}");
    json.push_str("  },\n");
    json.push_str("  \"mapped_vs_owned_query\": {\n");
    for (i, r) in mapped_rows.iter().enumerate() {
        let comma = if i + 1 == mapped_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"owned_ns\": {:.0}, \"mapped_ns\": {:.0}, \"ratio\": {:.2}}}{}",
            r.id,
            r.owned_ns,
            r.mapped_ns,
            r.owned_ns / r.mapped_ns,
            comma
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"delta_overhead\": {\n");
    let _ = writeln!(json, "    \"plabel_range_scan_plain_ns\": {plain_range_ns:.0},");
    let _ = writeln!(json, "    \"plabel_range_scan_empty_delta_ns\": {delta_range_ns:.0},");
    let _ = writeln!(json, "    \"plabel_range_scan_ratio\": {delta_range_ratio:.2},");
    let _ = writeln!(json, "    \"tag_scan_plain_ns\": {plain_tag_ns:.0},");
    let _ = writeln!(json, "    \"tag_scan_empty_delta_ns\": {delta_tag_ns:.0},");
    let _ = writeln!(json, "    \"tag_scan_ratio\": {delta_tag_ratio:.2}");
    json.push_str("  },\n");
    json.push_str("  \"serve_latency\": {\n");
    let _ = writeln!(json, "    \"clients\": {SERVE_CLIENTS},");
    let _ = writeln!(json, "    \"rounds_per_client\": {SERVE_ROUNDS},");
    let _ = writeln!(json, "    \"point_query\": \"{}\",", qa1.id);
    let _ = writeln!(json, "    \"p50_ns\": {serve_p50:.0},");
    let _ = writeln!(json, "    \"p99_ns\": {serve_p99:.0},");
    let _ = writeln!(json, "    \"heavy_query\": \"{SERVE_HEAVY}\",");
    let _ = writeln!(json, "    \"cache_miss_ns\": {serve_miss_ns:.0},");
    let _ = writeln!(json, "    \"cache_hit_ns\": {serve_hit_ns:.0},");
    let _ = writeln!(json, "    \"cache_hit_speedup\": {serve_hit_speedup:.1},");
    let _ = writeln!(json, "    \"proto_pair_reps\": {SERVE_PROTO_REPS},");
    let _ = writeln!(json, "    \"json_hit_p50_ns\": {serve_json_p50:.0},");
    let _ = writeln!(json, "    \"json_hit_p99_ns\": {serve_json_p99:.0},");
    let _ = writeln!(json, "    \"binary_hit_p50_ns\": {serve_bin_p50:.0},");
    let _ = writeln!(json, "    \"binary_hit_p99_ns\": {serve_bin_p99:.0},");
    let _ = writeln!(json, "    \"binary_vs_json_p50_ratio\": {serve_proto_ratio:.2}");
    json.push_str("  },\n");
    json.push_str("  \"wire_decode\": {\n");
    let _ = writeln!(json, "    \"replies\": {},", HOT.len());
    let _ = writeln!(json, "    \"labels_per_op\": {hot_labels},");
    for (i, (name, ns, bytes)) in wire_rows.iter().enumerate() {
        let comma = if i + 1 == wire_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{name}\": {{\"median_ns_per_op\": {ns:.0}, \"bytes_per_op\": {bytes}, \
             \"ns_per_byte\": {:.3}, \"ns_per_label\": {:.2}}}{comma}",
            ns / *bytes as f64,
            ns / hot_labels as f64
        );
    }
    json.push_str("  },\n");
    json.push_str("  \"speedup_columnar_vs_bptree\": {\n");
    let _ = writeln!(json, "    \"plabel_range_scan\": {range_speedup:.2},");
    let _ = writeln!(json, "    \"tag_scan\": {tag_speedup:.2}");
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_storage.json", &json).expect("write BENCH_storage.json");
    eprintln!("[bench_storage] wrote BENCH_storage.json");

    assert!(
        range_speedup >= 2.0 && tag_speedup >= 2.0,
        "columnar scan kernels must beat the B+-tree reference by >=2x \
         (got range {range_speedup:.2}x, tag {tag_speedup:.2}x)"
    );
    // Compression gate: the packed v3 encodings (delta/FOR label
    // planes, bitpacked tags, dictionary-coded plabels) must keep the
    // snapshot at most ~1.1x the source XML — the raw v2 layout sat
    // at ~2.1x. Unconditional on purpose: the ratio holds from scale
    // 1 up (1.08 at ×1), so the CI scale-1 smoke asserts it too.
    assert!(
        snapshot_bytes_per_xml_byte <= 1.1,
        "compressed snapshot must stay <=1.1 bytes per XML byte \
         (got {snapshot_bytes_per_xml_byte:.2})"
    );
    // Scan-kernel non-regression gate: compression must not slow the
    // hot range-scan kernel. The raw-column baseline on the reference
    // host was ~0.34 ns/element (median, Auction x10); the ceiling
    // leaves ~3x headroom for host noise while still catching a
    // per-element-branch regression (the B+-tree path is ~19 ns/elem).
    if scale >= 10 {
        let per_elem = |name: &str| {
            let r = results.iter().find(|r| r.name == name).expect("kernel present");
            r.median_ns / r.elements_per_op as f64
        };
        let raw = per_elem("plabel_range_scan/columnar");
        let packed = per_elem("plabel_range_scan/columnar_packed");
        assert!(
            raw <= 1.0 && packed <= 4.0,
            "range-scan kernels regressed: raw {raw:.2} ns/elem (ceiling 1.0), \
             packed {packed:.2} ns/elem (ceiling 4.0)"
        );
    }
    // Delta-overhead gate (the incremental-update acceptance
    // criterion): a store carrying an empty mutation log must scan
    // within 1.05x of the plain store on both kernels — the merge
    // machinery's per-run `touches_*` predicates are the only cost a
    // read-only workload may pay for mutability. Unconditional, with
    // the same small absolute allowance as the optimizer gate so
    // timer granularity cannot fail the sub-µs scale-1 scans.
    assert!(
        delta_range_ns <= plain_range_ns * 1.05 + 200.0,
        "empty-delta range scan must stay within 1.05x of the plain store \
         (plain {plain_range_ns:.0} ns vs empty-delta {delta_range_ns:.0} ns \
         = {delta_range_ratio:.2}x)"
    );
    assert!(
        delta_tag_ns <= plain_tag_ns * 1.05 + 200.0,
        "empty-delta tag scan must stay within 1.05x of the plain store \
         (plain {plain_tag_ns:.0} ns vs empty-delta {delta_tag_ns:.0} ns \
         = {delta_tag_ratio:.2}x)"
    );
    // Cold-start gate (the mmap acceptance criterion): at the
    // acceptance scale, opening the snapshot mapped must beat the full
    // decode by at least an order of magnitude — the decode path pays
    // O(data) for record materialization plus two clustering sorts,
    // while the mapped path validates one header page.
    if scale >= 10 {
        assert!(
            open_speedup >= 10.0,
            "mapped open must beat full decode by >=10x at scale >=10 \
             (got {open_speedup:.1}x)"
        );
    }
    // Binary-protocol gate (the wire-v2 acceptance criterion): a
    // labeled cached hit over binary v2 must come back in at most
    // 0.6x the JSON path's p50 — the node array is the bulk of the
    // reply, and v2 moves it as raw 10-byte triples both ends memcpy
    // instead of serializing and re-parsing `[[s,e,l],…]` text. Gated
    // at scale >= 10 where the heavy query returns enough nodes for
    // encoding cost to dominate the round trip; at scale 1 the ~µs
    // socket latency drowns the difference and the ratio is recorded
    // without being asserted.
    if scale >= 10 {
        assert!(
            serve_proto_ratio <= 0.6,
            "a labeled cached hit over binary v2 must cost at most 0.6x the JSON \
             path's p50 (json {serve_json_p50:.0} ns vs binary {serve_bin_p50:.0} ns \
             = {serve_proto_ratio:.2}x)"
        );
    }
    // Optimizer gate (the EngineChoice::Auto acceptance criterion):
    // on every Fig. 13/14 query, Auto must stay within 1.1x of the
    // best manual engine, interleaved-pairs medians. Unconditional on
    // purpose: Auto is the relational plan, so a failure means another
    // engine beats that plan on a Fig. 10 query — a property of the
    // plans, not of throughput, which shows at any scale, so the CI
    // scale-1 smoke asserts it too. The 200 ns absolute allowance only matters for
    // the sub-µs point queries (QA1 measures ~400 ns at scale 1),
    // where a 10% relative margin is smaller than timer granularity;
    // on every other query it is noise against the 1.1x bound.
    for r in &engine_rows {
        assert!(
            r.auto_med_ns <= r.best_med_ns * 1.1 + 200.0,
            "Auto must stay within 1.1x of the best manual engine on every query \
             ({}: auto {:.0} ns vs best {:.0} ns = {:.2}x, chose {})",
            r.id,
            r.auto_med_ns,
            r.best_med_ns,
            r.auto_vs_best(),
            r.chosen_engine
        );
    }
    // Plan-cache gate: a repeat query must actually be cheaper than
    // re-running parse, translation, binding and lowering. Like the
    // gates above, medians of interleaved pairs make this stable
    // enough to assert everywhere.
    assert!(
        plan_cache_speedup >= 1.1,
        "cached plans must beat re-preparation by >=1.1x \
         (uncached {cache_cold_ns:.0} ns vs cached {cache_warm_ns:.0} ns)"
    );
    // Scratch-reuse gate: with the interleaved protocol the reused
    // flag buffers can no longer *lose* to per-call allocation by more
    // than noise; hold the line so the row stays honest.
    assert!(
        scratch_reuse_ns <= fresh_alloc_ns * 1.1,
        "scratch reuse must not be slower than fresh allocation \
         (reuse {scratch_reuse_ns:.0} ns vs fresh {fresh_alloc_ns:.0} ns)"
    );
    // Serving-cache gate (the front-door acceptance criterion): a
    // result-cache hit on the heaviest range scan must beat the
    // uncached execution by ≥10× *as observed by a wire client* —
    // count-only replies keep the round trip a small shared constant,
    // so the ratio isolates execution-vs-replay. Only at the
    // acceptance scale: at scale 1 the heavy scan itself is only a few
    // µs, comparable to one loopback round trip, and the ratio would
    // measure the kernel's TCP stack instead of the cache.
    if scale >= 10 {
        assert!(
            serve_hit_speedup >= 10.0,
            "a served result-cache hit must beat the uncached execution by >=10x \
             (miss {serve_miss_ns:.0} ns vs hit {serve_hit_ns:.0} ns \
             = {serve_hit_speedup:.1}x)"
        );
    }
}
