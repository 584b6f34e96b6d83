//! Concurrency stress suite for the persistent worker pool: one
//! `BlasDb` — one pool — hammered by many OS threads at once, with
//! every answer checked against the single-threaded baseline, plus
//! panic-isolation: a panicking job must surface as an error and leave
//! the pool fully usable.
//!
//! The CI `concurrency` job runs this file with `RUST_TEST_THREADS=4`
//! on multi-core runners so the schedules here are genuinely
//! contended; on a single-core host the tests still validate
//! correctness (the pool's helping rule keeps every configuration
//! live at any core count).

use blas::{BlasDb, DLabel, EngineChoice};
use blas_datagen::{query_set, DatasetId};
use blas_engine::pool::{self, PoolHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// OS threads firing queries at the shared database simultaneously.
const CLIENT_THREADS: usize = 8;
/// Query rounds per client thread.
const ROUNDS: usize = 4;

fn auction_db() -> BlasDb {
    BlasDb::load(&blas_datagen::auction(2, 42)).expect("generator output is well-formed")
}

/// The engine mix the clients rotate through: all three engines, all
/// parallel, plus one sequential configuration so pool and non-pool
/// executions interleave on the same store.
fn choices() -> [EngineChoice; 4] {
    [
        EngineChoice::rdbms().with_shards(4),
        EngineChoice::twig().with_shards(4),
        EngineChoice::twigstack().with_shards(3),
        EngineChoice::rdbms(),
    ]
}

#[test]
fn auction_queries_from_many_threads_share_one_pool() {
    let db = auction_db();
    let queries = query_set(DatasetId::Auction);

    // Single-threaded sequential baseline per query.
    let baselines: Vec<(&str, Vec<DLabel>)> = queries
        .iter()
        .map(|q| (q.xpath, db.query(q.xpath, EngineChoice::auto()).unwrap().nodes))
        .collect();

    // Force pool creation now so every client observes the same
    // instance, and remember it to prove nobody replaced it.
    let pool_before = db.pool().clone();
    let jobs_before = pool_before.jobs_submitted();
    let executed = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for client in 0..CLIENT_THREADS {
            let db = &db;
            let baselines = &baselines;
            let executed = &executed;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let choice = choices()[(client + round) % choices().len()];
                    for (xpath, expected) in baselines {
                        let got = db
                            .query(xpath, choice)
                            .unwrap_or_else(|e| panic!("{xpath} under {choice:?}: {e}"));
                        assert_eq!(
                            &got.nodes, expected,
                            "client {client} round {round}: {xpath} under {choice:?} \
                             diverged from the sequential baseline"
                        );
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        executed.load(Ordering::Relaxed),
        CLIENT_THREADS * ROUNDS * baselines.len()
    );
    // Every parallel query ran as jobs on the one persistent pool: the
    // handle is the same instance and its monotone job counter moved
    // (no per-query or per-scan thread pools were created).
    assert!(
        db.pool().jobs_submitted() > jobs_before,
        "parallel queries must submit jobs to the shared pool"
    );
    assert_eq!(db.pool().threads(), pool_before.threads());
}

#[test]
fn panicking_job_surfaces_as_error_without_poisoning_the_pool() {
    let db = auction_db();
    let q = "/site/regions/asia/item/description";
    let expected = db.query(q, EngineChoice::auto()).unwrap().nodes;

    // Warm the pool with a real parallel query.
    let first = db.query(q, EngineChoice::parallel(4)).unwrap();
    assert_eq!(first.nodes, expected);
    let pool = db.pool().clone();

    // A handle-carried job that panics: the panic is *delivered* as an
    // Err, not re-raised, and the worker that ran it survives.
    let joined = pool::scope(&pool, |s| s.spawn_job(|| -> u32 { panic!("injected failure") }).join());
    let payload = joined.expect_err("a panicking job must surface as an error");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("injected failure")
    );

    // A fire-and-forget job that panics: scope re-raises it after its
    // barrier, which a caller observes as an unwind-shaped error.
    let raised = catch_unwind(AssertUnwindSafe(|| {
        pool::scope(&pool, |s| s.spawn(|| panic!("injected failure 2")))
    }));
    assert!(raised.is_err());

    // The pool is not poisoned: the same database keeps answering
    // parallel queries correctly on the same pool instance.
    for _ in 0..3 {
        let again = db.query(q, EngineChoice::parallel(4)).unwrap();
        assert_eq!(again.nodes, expected, "pool must survive a panicked job");
    }
    assert_eq!(db.pool().threads(), pool.threads());
}

#[test]
fn chain_heavy_pipelines_collapse_under_contention() {
    // Satellite of the chain-collapsing tentpole: long linear
    // pipelines (scan → pass-through filters → materialize) fired from
    // 8 OS threads at one shared pool. However contended the pool, a
    // pure chain must cost exactly one queue job — every non-root
    // operator rides inline — and one scratch checkout, while staying
    // byte-identical to sequential execution.
    use blas_engine::exec::{execute, ExecConfig, ExecProbe, ProbeEvent};
    use blas_engine::physical::{PhysOp, PhysPlan};
    use blas_engine::ExecStats;
    use blas_translate::BoundSource;

    let db = auction_db();
    let store = db.store();
    let item = db.tags().get("item").expect("auction has item");
    const FILTERS: usize = 8;
    let mut ops = vec![PhysOp::ClusteredScan {
        source: BoundSource::Tag(item),
        value_eq: None,
        level_eq: None,
    }];
    for i in 0..FILTERS {
        // A pass-through filter: a real operator hop that keeps the
        // stream intact, so the chain stays long and checkable.
        ops.push(PhysOp::ValueFilter { input: i, value_eq: None, level_eq: None });
    }
    ops.push(PhysOp::Materialize { input: FILTERS });
    let root = ops.len() - 1;
    let plan = PhysPlan::from_ops(ops, root);

    let mut seq_stats = ExecStats::default();
    let seq = execute(&plan, store, &ExecConfig::default(), &mut seq_stats);
    assert!(!seq.is_empty(), "the workload must move real tuples");

    let pool = PoolHandle::new(3);
    let jobs_before = pool.jobs_submitted();
    const ROUNDS_PER_CLIENT: usize = 6;
    std::thread::scope(|s| {
        for _ in 0..CLIENT_THREADS {
            let (plan, seq, seq_stats, pool) = (&plan, &seq, &seq_stats, &pool);
            s.spawn(move || {
                let probe = ExecProbe::new();
                for round in 0..ROUNDS_PER_CLIENT {
                    probe.clear();
                    // min_shard_elems = MAX: keep even the tag scan
                    // whole, so the chain is the entire execution.
                    let config = ExecConfig::on_pool(pool.clone(), 4)
                        .with_min_shard_elems(usize::MAX)
                        .with_probe(probe.clone());
                    let mut stats = ExecStats::default();
                    let out = execute(plan, store, &config, &mut stats);
                    assert_eq!(&out, seq, "round {round}");
                    assert_eq!(stats.elements_visited, seq_stats.elements_visited);
                    let events = probe.events();
                    assert_eq!(
                        events.iter().filter(|e| matches!(e, ProbeEvent::Submitted(_))).count(),
                        1,
                        "a pure chain pays exactly one queue job: {events:?}"
                    );
                    assert_eq!(
                        events.iter().filter(|e| matches!(e, ProbeEvent::Inlined(_))).count(),
                        plan.ops().len() - 1,
                        "every non-root operator runs inline: {events:?}"
                    );
                    assert_eq!(stats.scratch_checkouts, 1, "one checkout per queue job");
                }
            });
        }
    });
    assert_eq!(
        pool.jobs_submitted() - jobs_before,
        (CLIENT_THREADS * ROUNDS_PER_CLIENT) as u64,
        "one queue job per pipeline execution, even from 8 clients"
    );
}

#[test]
fn panic_inside_inlined_continuation_surfaces_and_pool_survives() {
    // A continuation that panics unwinds the producer's pool job; the
    // scope barrier must still re-raise it to the caller as an error,
    // and the worker that ran it must survive to serve more queries.
    use blas_engine::exec::{execute, ExecConfig, ExecProbe, ProbeEvent};
    use blas_engine::physical::{PhysOp, PhysPlan, TwigPattern};
    use blas_engine::ExecStats;
    use blas_translate::BoundSource;

    let db = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap();
    let store = db.store();
    // A deliberately inconsistent holistic pattern (root index out of
    // range): `PhysPlan::from_ops` only enforces the arena invariant,
    // so the plan builds — and the match operator panics the moment it
    // runs, which is *inline*, as the sole consumer of its stream.
    let pattern = TwigPattern {
        parent: vec![None],
        children: vec![vec![]],
        level_diff: vec![None],
        root: 7,
        output: 0,
    };
    let ops = vec![
        PhysOp::ClusteredScan { source: BoundSource::All, value_eq: None, level_eq: None },
        PhysOp::TwigStackMatch { streams: vec![0], pattern },
        PhysOp::Materialize { input: 1 },
    ];
    let plan = PhysPlan::from_ops(ops, 2);

    let pool = PoolHandle::new(2);
    let probe = ExecProbe::new();
    let config = ExecConfig::on_pool(pool.clone(), 2).with_probe(probe.clone());
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut stats = ExecStats::default();
        execute(&plan, store, &config, &mut stats)
    }));
    assert!(unwound.is_err(), "the inlined panic must surface as an error to the caller");
    let events = probe.events();
    assert!(
        events.contains(&ProbeEvent::Inlined(1)),
        "the failing op must have been a chain-collapsed continuation: {events:?}"
    );
    assert!(
        events.contains(&ProbeEvent::Started(1)) && !events.contains(&ProbeEvent::Finished(1)),
        "the failing op started but never finished: {events:?}"
    );

    // No worker died with the panic: the same pool instance keeps
    // executing healthy plans, byte-identical to sequential.
    let healthy = PhysPlan::from_ops(
        vec![
            PhysOp::ClusteredScan { source: BoundSource::All, value_eq: None, level_eq: None },
            PhysOp::ValueFilter { input: 0, value_eq: Some("y".into()), level_eq: None },
            PhysOp::Materialize { input: 1 },
        ],
        2,
    );
    let mut seq_stats = ExecStats::default();
    let seq = execute(&healthy, store, &ExecConfig::default(), &mut seq_stats);
    assert_eq!(seq.len(), 1);
    for _ in 0..3 {
        let mut stats = ExecStats::default();
        let again = execute(
            &healthy,
            store,
            &ExecConfig::on_pool(pool.clone(), 2),
            &mut stats,
        );
        assert_eq!(again, seq, "pool must survive a panicked continuation");
    }
}

/// Satellite of the delta-store tentpole: OS reader threads hammer
/// queries through pinned [`blas::DbSnapshot`]s while one writer
/// mutates the database and folds the delta — synchronously and on the
/// shared pool. Every answer must match the oracle for **exactly** the
/// generation the reader pinned, and a snapshot pinned at the start
/// must keep answering its own generation after a dozen publishes.
#[test]
fn readers_pin_generations_while_a_writer_mutates_and_compacts() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    const SRC: &str = concat!(
        "<db><e><p><n>cytochrome c</n></p><r><y>2001</y></r></e>",
        "<e><p><n>hemoglobin</n></p><r><y>1999</y></r></e></db>"
    );
    const QUERIES: &[&str] = &["//n", "//y", "/db/e", "//e[p]"];
    /// Mutation steps: insert → compact → retag → delete, three times
    /// over. Each publishes exactly one generation.
    const STEPS: usize = 12;

    // One deterministic mutation step; targets are derived from the
    // current live tree, so the oracle and the contended database walk
    // the same generation sequence.
    fn mutate(db: &BlasDb, step: usize) -> u64 {
        let snap = db.snapshot();
        match step % 4 {
            // Append a fresh subtree under the root (always on the
            // rightmost spine).
            0 => db.insert_subtree(0, "<e><p><n>new</n></p></e>").unwrap(),
            // Fold the delta; the tree is unchanged.
            1 => db.compact(),
            // Toggle the tag of the newest level-4 node (n ↔ y).
            2 => {
                let rec = snap
                    .store()
                    .scan_all()
                    .filter(|(_, r)| r.level == 4)
                    .max_by_key(|(_, r)| r.start)
                    .map(|(_, r)| r)
                    .unwrap();
                let to = if db.tags().name(rec.tag) == "n" { "y" } else { "n" };
                db.retag(rec.start, to).unwrap()
            }
            // Delete the newest <e> subtree (there is always one: the
            // source has two and each cycle nets +1 until its delete).
            _ => {
                let target = snap
                    .store()
                    .scan_all()
                    .filter(|(_, r)| r.level == 2)
                    .max_by_key(|(_, r)| r.start)
                    .map(|(_, r)| r.start)
                    .unwrap();
                db.delete(target).unwrap()
            }
        }
    }

    // Oracle pass: replay the script sequentially and record every
    // query's answer per generation. The trailing entry is the
    // background compaction's generation (same answers: the last step
    // is a delete, so the delta is non-empty and the fold publishes).
    let oracle = BlasDb::load(SRC).unwrap();
    let answers_for = |db: &BlasDb| -> Vec<Vec<DLabel>> {
        QUERIES
            .iter()
            .map(|q| db.query(q, EngineChoice::auto()).unwrap().nodes)
            .collect()
    };
    let mut expected: Vec<Vec<Vec<DLabel>>> = vec![answers_for(&oracle)];
    for step in 0..STEPS {
        assert_eq!(mutate(&oracle, step), (step + 1) as u64);
        expected.push(answers_for(&oracle));
    }
    assert_eq!(oracle.compact(), (STEPS + 1) as u64);
    expected.push(answers_for(&oracle));
    let final_gen = (STEPS + 1) as u64;

    let db = Arc::new(BlasDb::load(SRC).unwrap());
    let done = AtomicBool::new(false);
    let checked = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for client in 0..CLIENT_THREADS {
            let (db, done, checked, expected) = (&db, &done, &checked, &expected);
            s.spawn(move || {
                let engines =
                    [EngineChoice::auto(), EngineChoice::rdbms().with_shards(4), EngineChoice::twig()];
                // Pin one snapshot up front; it must stay valid and
                // generation-consistent through every publish below.
                let early = db.snapshot();
                let early_gen = early.generation();
                let mut rounds = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = db.snapshot();
                    let gen = snap.generation() as usize;
                    let choice = engines[(client + rounds) % engines.len()];
                    for (qi, q) in QUERIES.iter().enumerate() {
                        let got = snap
                            .query(q, choice)
                            .unwrap_or_else(|e| panic!("{q} at gen {gen}: {e}"));
                        // The generation pinned *before* the first
                        // query answers *all* of them: one consistent
                        // tree per round, never a torn read across a
                        // concurrent publish.
                        assert_eq!(
                            got.nodes, expected[gen][qi],
                            "client {client}: {q} diverged from the oracle at generation {gen}"
                        );
                        checked.fetch_add(1, Ordering::Relaxed);
                    }
                    rounds += 1;
                    if finished {
                        break;
                    }
                }
                // After the writer retired (and compaction folded the
                // delta), the snapshot loop must have reached the
                // final generation…
                assert_eq!(db.snapshot().generation(), final_gen);
                // …while the generation pinned at the start still
                // answers exactly as it did then.
                for (qi, q) in QUERIES.iter().enumerate() {
                    let got = early.query(q, EngineChoice::auto()).unwrap();
                    assert_eq!(
                        got.nodes, expected[early_gen as usize][qi],
                        "client {client}: pinned generation {early_gen} drifted"
                    );
                }
            });
        }

        // The writer: paced mutations, then a pool-side compaction.
        let (db, done) = (&db, &done);
        s.spawn(move || {
            for step in 0..STEPS {
                assert_eq!(mutate(db, step), (step + 1) as u64);
                std::thread::sleep(Duration::from_millis(1));
            }
            db.compact_in_background();
            while db.generation() < final_gen {
                std::thread::sleep(Duration::from_millis(1));
            }
            done.store(true, Ordering::Release);
        });
    });

    assert!(checked.load(Ordering::Relaxed) >= CLIENT_THREADS * QUERIES.len());
    let stats = db.delta_stats();
    assert_eq!((stats.inserted, stats.deleted), (0, 0), "the background fold emptied the delta");
    assert_eq!(stats.compactions, 4, "three synchronous folds plus the background one");
}

/// Off-lock compaction under contention: one writer mutates while two
/// threads call `compact()` in a loop and readers pin snapshots across
/// the swaps. The fold runs without the writer lock, so mutations land
/// *during* folds and must be re-based onto the folded columns:
/// generations advance by exactly one per publication, no edit is lost
/// or applied twice (the final tree equals a sequential replay that
/// never compacted), `compactions` counts exactly the folds that
/// published, and a pinned view answers the same before and after any
/// number of swaps.
#[test]
fn concurrent_compactions_rebase_a_writers_edits_without_losing_any() {
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier, Mutex};

    const WRITES: usize = 120;
    const QUERIES: &[&str] = &["//n", "//y", "/db/e", "//e[p]", "//e/p/n"];

    // Insert → retag the newest <n> → delete the oldest added <e>,
    // round robin; targets come from the live tree, which compactions
    // never change, so the contended run and the replay walk the same
    // states.
    fn mutate(db: &BlasDb, step: usize) {
        let snap = db.snapshot();
        match step % 3 {
            0 => db.insert_subtree(0, "<e><p><n>new</n></p><r><y>2024</y></r></e>").unwrap(),
            1 => {
                let newest = snap
                    .store()
                    .scan_all()
                    .filter(|(_, r)| r.level == 4 && db.tags().name(r.tag) == "n")
                    .last()
                    .map(|(_, r)| r.start)
                    .unwrap();
                db.retag(newest, "y").unwrap()
            }
            _ => {
                let third = snap.store().scan_all().filter(|(_, r)| r.level == 2).nth(2);
                db.delete(third.map(|(_, r)| r.start).unwrap()).unwrap()
            }
        };
    }
    let xml = {
        let e = "<e><p><n>cytochrome c</n></p><r><y>2001</y></r></e>";
        format!("<db>{}</db>", e.repeat(400))
    };
    let answers = |snap: &blas::DbSnapshot<'_>| -> Vec<Vec<DLabel>> {
        QUERIES.iter().map(|q| snap.query(q, EngineChoice::auto()).unwrap().nodes).collect()
    };

    let replay = BlasDb::load(&xml).unwrap();
    for step in 0..WRITES {
        mutate(&replay, step);
    }

    let db = Arc::new(BlasDb::load(&xml).unwrap());
    let published = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&published);
    db.on_publish(move |g| sink.lock().unwrap().push(g));
    let done = AtomicBool::new(false);
    let start = Barrier::new(1 + 2 + 2);

    std::thread::scope(|s| {
        let (db, done, start) = (&db, &done, &start);
        s.spawn(move || {
            start.wait();
            for step in 0..WRITES {
                mutate(db, step);
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(move || {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    db.compact();
                }
            });
        }
        for _ in 0..2 {
            s.spawn(move || {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let pinned = db.snapshot();
                    let (gen, before) = (pinned.generation(), answers(&pinned));
                    // Let at least one publication go by, then ask the
                    // pinned view again.
                    while db.generation() == gen && !done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    assert_eq!(pinned.generation(), gen);
                    assert_eq!(answers(&pinned), before, "pinned generation {gen} drifted");
                    let stats = db.delta_stats();
                    assert!(stats.compactions <= stats.generation);
                }
            });
        }
    });
    db.compact();

    // Strictly monotone, gap-free generation numbers.
    let published = published.lock().unwrap();
    assert!(published.windows(2).all(|w| w[1] == w[0] + 1), "{published:?}");
    assert_eq!(published.first(), Some(&1));
    assert_eq!(published.last(), Some(&db.generation()));
    // Every publication is one of the writer's mutations or a fold
    // that really published.
    let stats = db.delta_stats();
    assert_eq!(stats.compactions as usize, published.len() - WRITES);
    assert!(stats.compactions >= 1);
    assert_eq!((stats.inserted, stats.deleted), (0, 0));
    // No edit lost, none applied twice.
    assert_eq!(db.to_snapshot(), replay.to_snapshot());
    assert_eq!(answers(&db.snapshot()), answers(&replay.snapshot()));
}

#[test]
fn external_pool_can_be_shared_across_databases() {
    // Two stores, one externally owned pool, driven through the
    // engine-level API: the pool outlives both databases' executions
    // and serves them interleaved from multiple threads.
    use blas::ExecConfig;
    use blas_engine::{exec, lower_plan, ExecStats};
    use blas_translate::{bind, translate_pushup};

    let xml_a = blas_datagen::auction(1, 7);
    let xml_b = blas_datagen::auction(1, 8);
    let db_a = BlasDb::load(&xml_a).unwrap();
    let db_b = BlasDb::load(&xml_b).unwrap();
    let pool = PoolHandle::new(3);

    let run = |db: &BlasDb, shards: usize| -> Vec<DLabel> {
        let q = blas_xpath::parse("/site/regions/asia/item[shipping]/description").unwrap();
        let bound = bind(&translate_pushup(&q).unwrap(), db.tags(), db.domain());
        let plan = lower_plan(&bound);
        let mut stats = ExecStats::default();
        let config = if shards > 1 {
            ExecConfig::on_pool(pool.clone(), shards).with_min_shard_elems(1)
        } else {
            ExecConfig::sequential()
        };
        exec::execute(&plan, db.store(), &config, &mut stats)
    };

    let seq_a = run(&db_a, 1);
    let seq_b = run(&db_b, 1);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..3 {
                    assert_eq!(run(&db_a, 4), seq_a);
                    assert_eq!(run(&db_b, 3), seq_b);
                }
            });
        }
    });
    assert!(pool.jobs_submitted() > 0);
}
