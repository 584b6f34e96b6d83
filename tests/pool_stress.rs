//! Concurrency stress suite: one `BlasDb` hammered by many OS threads
//! at once — directly, and as whole queries each on a thread of its
//! own, the way a server's workers run binary requests — with every
//! answer checked against the single-threaded baseline, plus panic
//! isolation: a query thread that panics must surface as an error at
//! its join and leave the database fully usable.
//!
//! The CI `concurrency` job runs this file with `RUST_TEST_THREADS=4`
//! on multi-core runners so the schedules here are genuinely
//! contended; on a single-core host the tests still validate
//! correctness.

use blas::{BlasDb, DLabel, EngineChoice};
use blas_datagen::{query_set, DatasetId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// OS threads firing queries at the shared database simultaneously.
const CLIENT_THREADS: usize = 8;
/// Query rounds per client thread.
const ROUNDS: usize = 4;

fn auction_db() -> Arc<BlasDb> {
    Arc::new(BlasDb::load(&blas_datagen::auction(2, 42)).expect("generator output is well-formed"))
}

/// The engine mix the clients rotate through.
fn choices() -> [EngineChoice; 4] {
    [EngineChoice::auto(), EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack()]
}

/// Run `xpath` start to finish on a thread of its own, the way a
/// server's worker runs a binary request, and wait for it.
fn query_on_thread(db: &BlasDb, xpath: &str, choice: EngineChoice) -> Vec<DLabel> {
    std::thread::scope(|s| s.spawn(|| db.query(xpath, choice).unwrap().nodes).join())
        .unwrap_or_else(|_| panic!("{xpath:?} under {choice:?} panicked"))
}

#[test]
fn auction_queries_from_many_threads_match_one_thread() {
    let db = auction_db();
    let queries = query_set(DatasetId::Auction);

    // Single-threaded baseline per query, `//text` (≈ 9 k tuples) among
    // them.
    let baselines: Vec<(&str, Vec<DLabel>)> = queries
        .iter()
        .map(|q| q.xpath)
        .chain(["//text"])
        .map(|xpath| (xpath, db.query(xpath, EngineChoice::auto()).unwrap().nodes))
        .collect();

    // Every client alternates direct calls with whole queries on
    // threads of their own, so both kinds of execution interleave on
    // the same store.
    let executed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENT_THREADS {
            let (db, baselines, executed) = (&db, &baselines, &executed);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let choice = choices()[(client + round) % choices().len()];
                    for (xpath, expected) in baselines {
                        let got = if round % 2 == 0 {
                            query_on_thread(db, xpath, choice)
                        } else {
                            db.query(xpath, choice).unwrap().nodes
                        };
                        assert_eq!(
                            &got, expected,
                            "client {client} round {round}: {xpath} under {choice:?} \
                             diverged from the sequential baseline"
                        );
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(executed.load(Ordering::Relaxed), CLIENT_THREADS * ROUNDS * baselines.len());
}

#[test]
fn panicking_query_thread_surfaces_as_error_without_poisoning_the_db() {
    let db = auction_db();
    let q = "/site/regions/asia/item/description";
    let expected = db.query(q, EngineChoice::auto()).unwrap().nodes;
    assert_eq!(query_on_thread(&db, q, EngineChoice::auto()), expected);

    // A query thread that panics while it holds a pinned generation:
    // the panic is *delivered* as an Err at the join, not re-raised.
    let joined = std::thread::scope(|s| {
        s.spawn(|| -> u32 {
            let snap = db.snapshot();
            assert_eq!(snap.query(q, EngineChoice::auto()).unwrap().nodes, expected);
            panic!("injected failure")
        })
        .join()
    });
    let payload = joined.expect_err("a panicking query thread must surface as an error");
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("injected failure"));

    // Nothing is poisoned: the same database keeps answering queries
    // correctly, on this thread and on others.
    for _ in 0..3 {
        assert_eq!(query_on_thread(&db, q, EngineChoice::auto()), expected);
        assert_eq!(db.query(q, EngineChoice::auto()).unwrap().nodes, expected);
    }
}

#[test]
fn panicking_operator_surfaces_and_the_store_serves_on() {
    // An operator that panics mid-plan on a query thread must reach
    // the joiner as an error, and the same store must keep executing
    // healthy plans byte-identical to a direct call.
    use blas_engine::exec::execute;
    use blas_engine::physical::{PhysOp, PhysPlan, TwigPattern};
    use blas_engine::ExecStats;
    use blas_translate::BoundSource;

    let db = BlasDb::load("<a><b>x</b><b>y</b></a>").unwrap();
    // A deliberately inconsistent holistic pattern (root index out of
    // range): `PhysPlan::from_ops` only enforces the arena invariant,
    // so the plan builds — and the match operator panics the moment it
    // runs, right after its stream's scan.
    let pattern = TwigPattern {
        parent: vec![None],
        children: vec![vec![]],
        level_diff: vec![None],
        root: 7,
        output: 0,
    };
    let broken = PhysPlan::from_ops(
        vec![
            PhysOp::ClusteredScan { source: BoundSource::All, value_eq: None, level_eq: None },
            PhysOp::TwigStackMatch { streams: vec![0], pattern },
            PhysOp::Materialize { input: 1 },
        ],
        2,
    );
    let healthy = PhysPlan::from_ops(
        vec![
            PhysOp::ClusteredScan {
                source: BoundSource::All,
                value_eq: Some("y".into()),
                level_eq: None,
            },
            PhysOp::Materialize { input: 0 },
        ],
        1,
    );
    let run = |plan: &PhysPlan| {
        std::thread::scope(|s| {
            s.spawn(|| execute(plan, db.store(), &mut ExecStats::default())).join()
        })
    };

    assert!(run(&broken).is_err(), "the operator's panic must surface at the join");
    let mut direct_stats = ExecStats::default();
    let direct = execute(&healthy, db.store(), &mut direct_stats);
    assert_eq!(direct.len(), 1);
    // Nothing died with the panic: the same store keeps executing
    // healthy plans on other threads.
    for _ in 0..3 {
        assert_eq!(run(&healthy).unwrap(), direct, "the store must survive a panicked operator");
    }
}

#[test]
fn chain_heavy_pipelines_collapse_under_contention() {
    // Long linear pipelines (scan → a chain of materializations)
    // executed from 8 OS threads at once over one store. However
    // contended, every execution is byte-identical to a lone one and
    // counts the same elements.
    use blas_engine::exec::execute;
    use blas_engine::physical::{PhysOp, PhysPlan};
    use blas_engine::ExecStats;
    use blas_translate::BoundSource;

    let db = auction_db();
    let store = db.store();
    let item = db.tags().get("item").expect("auction has item");
    const HOPS: usize = 8;
    let mut ops = vec![PhysOp::ClusteredScan {
        source: BoundSource::Tag(item),
        value_eq: None,
        level_eq: None,
    }];
    for i in 0..=HOPS {
        // A materialization: a real operator hop that keeps the stream
        // intact, so the chain stays long and checkable.
        ops.push(PhysOp::Materialize { input: i });
    }
    let root = ops.len() - 1;
    let plan = PhysPlan::from_ops(ops, root);

    let mut seq_stats = ExecStats::default();
    let seq = execute(&plan, store, &mut seq_stats);
    assert!(!seq.is_empty(), "the workload must move real tuples");
    std::thread::scope(|s| {
        for _ in 0..CLIENT_THREADS {
            let (plan, seq, seq_stats) = (&plan, &seq, &seq_stats);
            s.spawn(move || {
                for round in 0..6 {
                    let mut stats = ExecStats::default();
                    let out = execute(plan, store, &mut stats);
                    assert_eq!(&out, seq, "round {round}");
                    assert_eq!(stats.elements_visited, seq_stats.elements_visited);
                }
            });
        }
    });
}

/// Satellite of the delta-store tentpole: OS reader threads hammer
/// queries through pinned [`blas::DbSnapshot`]s while one writer
/// mutates the database and folds the delta — synchronously and on the
/// background compactor. Every answer must match the oracle for **exactly** the
/// generation the reader pinned, and a snapshot pinned at the start
/// must keep answering its own generation after a dozen publishes.
#[test]
fn readers_pin_generations_while_a_writer_mutates_and_compacts() {
    use std::sync::atomic::AtomicBool;
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
                let engines = [EngineChoice::auto(), EngineChoice::rdbms(), EngineChoice::twig()];
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

        // The writer: paced mutations, then a background compaction.
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
    use std::sync::{Barrier, Mutex};

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
fn two_databases_queried_from_many_threads_interleave() {
    // Two databases queried whole from several threads at once, each
    // query on a thread of its own: they interleave and answer exactly
    // what a direct call does.
    let xpath = "/site/regions/asia/item[shipping]/description";
    let db_a = BlasDb::load(&blas_datagen::auction(1, 7)).unwrap();
    let db_b = BlasDb::load(&blas_datagen::auction(1, 8)).unwrap();
    let seq_a = db_a.query(xpath, EngineChoice::auto()).unwrap().nodes;
    let seq_b = db_b.query(xpath, EngineChoice::auto()).unwrap().nodes;
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..3 {
                    assert_eq!(query_on_thread(&db_a, xpath, EngineChoice::rdbms()), seq_a);
                    assert_eq!(query_on_thread(&db_b, xpath, EngineChoice::twig()), seq_b);
                }
            });
        }
    });
}
