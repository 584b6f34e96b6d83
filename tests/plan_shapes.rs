//! Golden plan-shape tests: for every Fig. 10 query, pin the exact
//! join/selection mix each translator produces. These are the §4.2 and
//! §5.2.2 accounting claims, frozen so a translator regression is
//! caught immediately. Beside them, §5's evaluation as one table of
//! pinned counts and visits, the rows the `paper` binary prints. Then
//! which shapes a count answers off the run directory, so a change
//! that loses that shortcut fails here instead of quietly costing the
//! count-only path its speed, and Unfold's exactness: a linear query
//! selects exactly its matching live keys, bound to runs of
//! consecutive keys — one scan on every engine.

use blas::{BlasDb, EngineChoice, Plan, PlanSummary, Translator};
use blas_datagen::DatasetId;
use blas_engine::naive;
use blas_translate::{bind, BoundPlan, BoundSelection, BoundSource, SelectSource, Selection};
use blas_xpath::{parse, Axis};
use std::path::PathBuf;

/// (query id, xpath, per-translator (d_joins, eq_sel, range_sel, tag_scans)).
struct Golden {
    id: &'static str,
    xpath: &'static str,
    dlabel: (u32, u32, u32, u32),
    split: (u32, u32, u32, u32),
    pushup: (u32, u32, u32, u32),
}

fn shape(s: PlanSummary) -> (u32, u32, u32, u32) {
    (s.d_joins, s.eq_selections, s.range_selections, s.tag_scans)
}

#[test]
fn fig10_plan_shapes_are_pinned() {
    let goldens = [
        Golden {
            id: "QS1",
            xpath: "/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE",
            dlabel: (5, 0, 0, 6),
            split: (0, 1, 0, 0),
            pushup: (0, 1, 0, 0),
        },
        Golden {
            id: "QS2",
            xpath: "/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR",
            dlabel: (4, 0, 0, 5),
            split: (1, 1, 1, 0),
            pushup: (1, 1, 1, 0),
        },
        Golden {
            id: "QS3",
            xpath: "/PLAYS/PLAY/ACT/SCENE[TITLE='SCENE III. A public place.']//LINE",
            dlabel: (5, 0, 0, 6),
            split: (2, 1, 2, 0),
            pushup: (2, 2, 1, 0),
        },
        Golden {
            id: "QP1",
            xpath: "/ProteinDatabase/ProteinEntry/protein/name",
            dlabel: (3, 0, 0, 4),
            split: (0, 1, 0, 0),
            pushup: (0, 1, 0, 0),
        },
        Golden {
            id: "QP2",
            xpath: "/ProteinDatabase/ProteinEntry//authors/author='Daniel, M.'",
            dlabel: (3, 0, 0, 4),
            split: (1, 1, 1, 0),
            pushup: (1, 1, 1, 0),
        },
        Golden {
            id: "QP3",
            xpath: "/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name",
            dlabel: (7, 0, 0, 8),
            // Branch joins: refinfo-chain, citation, year, protein/name.
            split: (4, 1, 4, 0),
            pushup: (4, 5, 0, 0),
        },
        Golden {
            id: "QA1",
            xpath: "//category/description/parlist/listitem",
            dlabel: (3, 0, 0, 4),
            split: (0, 0, 1, 0),
            pushup: (0, 0, 1, 0),
        },
        Golden {
            id: "QA2",
            xpath: "/site/regions//item/description",
            dlabel: (3, 0, 0, 4),
            split: (1, 1, 1, 0),
            pushup: (1, 1, 1, 0),
        },
        Golden {
            id: "QA3",
            xpath: "/site/regions/asia/item[shipping]/description",
            dlabel: (5, 0, 0, 6),
            split: (2, 1, 2, 0),
            pushup: (2, 3, 0, 0),
        },
    ];

    // Any document suffices — plans are symbolic before binding.
    let db = BlasDb::load("<x/>").unwrap();
    for g in goldens {
        let d = shape(db.plan(g.xpath, Translator::DLabeling).unwrap().summary());
        assert_eq!(d, g.dlabel, "{} dlabel", g.id);
        let s = shape(db.plan(g.xpath, Translator::Split).unwrap().summary());
        assert_eq!(s, g.split, "{} split", g.id);
        let p = shape(db.plan(g.xpath, Translator::PushUp).unwrap().summary());
        assert_eq!(p, g.pushup, "{} pushup", g.id);
        // Cross-checks from §4.2: baseline = l−1 joins; BLAS ≤ baseline.
        assert!(s.0 <= d.0 && p.0 <= d.0, "{}", g.id);
        // Push-up is at least as anchored as Split.
        assert!(p.1 >= s.1, "{} eq-selections", g.id);
    }
}

/// The translators in §5's column order.
const TRANSLATORS: [Translator; 4] =
    [Translator::DLabeling, Translator::Split, Translator::PushUp, Translator::Unfold];

/// §5 as one table at ×1. Each row is a query of the evaluation
/// (Fig. 10's nine, Fig. 15's five) in full or value-stripped (§5.3.1),
/// pinned as its result count and, per translator, elements visited
/// and D-joins. Every engine gives the row's triple, every translator
/// returns as many nodes as the naive tree walk, and visits keep the
/// order Unfold ≤ Push-up ≤ Split ≤ D-labeling. Figs. 16–18: each
/// translator's visits on QA1–QA3 double with the data.
#[test]
fn paper_evaluation_table_is_pinned() {
    // (id, stripped, count, [visited; D, S, P, U], [d_joins; D, S, P, U]).
    type Row = (&'static str, bool, usize, [u64; 4], [u32; 4]);
    let table: [Row; 28] = [
        ("QS1", false, 14_634, [21_351, 14_634, 14_634, 14_634], [5, 0, 0, 0]),
        ("QS1", true, 14_634, [21_351, 14_634, 14_634, 14_634], [5, 0, 0, 0]),
        ("QS2", false, 11, [16_212, 901, 901, 11], [4, 1, 1, 0]),
        ("QS2", true, 11, [16_212, 901, 901, 11], [4, 1, 1, 0]),
        ("QS3", false, 397, [16_301, 16_102, 15_851, 15_804], [5, 2, 2, 2]),
        ("QS3", true, 14_634, [16_301, 16_102, 15_851, 15_804], [5, 2, 2, 2]),
        ("QP1", false, 3_700, [11_101, 3_700, 3_700, 3_700], [3, 0, 0, 0]),
        ("QP1", true, 3_700, [11_101, 3_700, 3_700, 3_700], [3, 0, 0, 0]),
        ("QP2", false, 40, [20_453, 14_892, 14_892, 11_192], [3, 1, 1, 0]),
        ("QP2", true, 11_192, [20_453, 14_892, 14_892, 11_192], [3, 1, 1, 0]),
        ("QP3", false, 2_987, [31_679, 22_418, 22_418, 22_418], [7, 4, 4, 4]),
        ("QP3", true, 2_987, [31_679, 22_418, 22_418, 22_418], [7, 4, 4, 4]),
        ("QA1", false, 168, [9_804, 168, 168, 168], [3, 0, 0, 0]),
        ("QA1", true, 168, [9_804, 168, 168, 168], [3, 0, 0, 0]),
        ("QA2", false, 1_320, [4_082, 1_321, 1_321, 1_320], [3, 1, 1, 0]),
        ("QA2", true, 1_320, [4_082, 1_321, 1_321, 1_320], [3, 1, 1, 0]),
        ("QA3", false, 133, [4_863, 3_760, 573, 573], [5, 2, 2, 2]),
        ("QA3", true, 133, [4_863, 3_760, 573, 573], [5, 2, 2, 2]),
        ("Q1", false, 850, [3_262, 850, 850, 850], [3, 0, 0, 0]),
        ("Q1", true, 850, [3_262, 850, 850, 850], [3, 0, 0, 0]),
        ("Q2", false, 1_120, [2_962, 1_120, 1_120, 1_120], [4, 0, 0, 0]),
        ("Q2", true, 1_120, [2_962, 1_120, 1_120, 1_120], [4, 0, 0, 0]),
        ("Q4", false, 275, [3_327, 2_205, 2_205, 2_205], [5, 2, 2, 2]),
        ("Q4", true, 275, [3_327, 2_205, 2_205, 2_205], [5, 2, 2, 2]),
        ("Q5", false, 480, [962, 480, 480, 480], [3, 0, 0, 0]),
        ("Q5", true, 480, [962, 480, 480, 480], [3, 0, 0, 0]),
        ("Q6", false, 1_320, [1_322, 1_321, 1_321, 1_320], [2, 1, 1, 0]),
        ("Q6", true, 1_320, [1_322, 1_321, 1_321, 1_320], [2, 1, 1, 0]),
    ];
    let engines =
        [EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack(), EngineChoice::auto()];
    let mut pins = table.iter();
    let mut loaded: Option<(DatasetId, BlasDb)> = None;
    for (ds, q) in blas_datagen::evaluation_queries() {
        if loaded.as_ref().map(|(d, _)| *d) != Some(ds) {
            loaded = Some((ds, BlasDb::load(&ds.generate(1)).unwrap()));
        }
        let db = &loaded.as_ref().unwrap().1;
        for stripped in [false, true] {
            let &(id, pinned_stripped, count, visited, d_joins) = pins.next().expect("a pin per row");
            assert_eq!((id, pinned_stripped), (q.id, stripped), "table order");
            let full = parse(q.xpath).unwrap();
            let tree = if stripped { full.without_value_predicates() } else { full };
            assert_eq!(naive::evaluate(&tree, db.document()).len(), count, "{id} stripped={stripped}");
            assert!(visited.windows(2).all(|w| w[0] >= w[1]), "{id}: D ≥ S ≥ P ≥ U: {visited:?}");
            let xpath = tree.to_string();
            for (t, (&visited, &d_joins)) in TRANSLATORS.into_iter().zip(visited.iter().zip(&d_joins)) {
                for engine in engines {
                    let r = db.query(&xpath, engine.with_translator(t)).unwrap();
                    let got = (r.nodes.len(), r.stats.elements_visited, r.stats.d_joins);
                    assert_eq!(got, (count, visited, d_joins), "{id} stripped={stripped} {t:?} on {engine}");
                }
            }
        }
    }
    assert!(pins.next().is_none(), "a row per pin");

    // Figs. 16–18 on the twig engine, ×1 → ×2: each ratio measured
    // 1.988–2.024.
    let x2 = BlasDb::load(&DatasetId::Auction.generate(2)).unwrap();
    for q in blas_datagen::query_set(DatasetId::Auction) {
        let &(.., visited, _) = table.iter().find(|r| r.0 == q.id).unwrap();
        for (t, x1) in TRANSLATORS.into_iter().zip(visited) {
            let x2 = x2.query(q.xpath, EngineChoice::twig().with_translator(t)).unwrap();
            let ratio = x2.stats.elements_visited as f64 / x1 as f64;
            assert!((1.95..=2.05).contains(&ratio), "{} {t:?}: ×2 / ×1 = {ratio:.3}", q.id);
        }
    }
}

#[test]
fn unfold_has_no_range_selections_on_fig10() {
    for ds in DatasetId::ALL {
        let db = BlasDb::load(&ds.generate(1)).unwrap();
        for q in blas_datagen::query_set(ds) {
            let s = db.plan(q.xpath, Translator::Unfold).unwrap().summary();
            assert_eq!(s.range_selections, 0, "{}", q.id);
            assert_eq!(s.tag_scans, 0, "{}", q.id);
        }
    }
}

/// Whether `path` spells `steps` — `(descendant?, tag or "*")` — by
/// trying every split: the slow, obviously right reference.
fn spells(steps: &[(bool, &str)], path: &[&str]) -> bool {
    let Some((&(deep, test), rest)) = steps.split_first() else {
        return path.is_empty();
    };
    let longest = if deep { path.len() } else { path.len().min(1) };
    (1..=longest).any(|k| (test == "*" || test == path[k - 1]) && spells(rest, &path[k..]))
}

/// Unfold is exact on linear queries: on Auction ×1 its one selection
/// names the live keys a brute-force matcher picks — each once, none
/// the directory lacks — so a count reads no element and joins nothing.
#[test]
fn unfold_arms_are_exactly_the_matching_live_keys() {
    let db = BlasDb::load(&DatasetId::Auction.generate(1)).unwrap();
    let keys: Vec<Vec<&str>> = db
        .store()
        .live_plabels()
        .into_iter()
        .map(|p| {
            let path = db.domain().path_of_plabel(p).unwrap();
            path.into_iter().map(|t| db.tags().name(t)).collect()
        })
        .collect();
    let unfold = EngineChoice::rdbms().with_translator(Translator::Unfold);
    for xpath in [
        "//listitem",
        "//text",
        "//listitem//listitem",
        "//parlist//text",
        "/site//parlist/listitem",
        "//*",
    ] {
        let q = parse(xpath).unwrap();
        let steps: Vec<(bool, &str)> = q
            .spine()
            .into_iter()
            .map(|s| (q.node(s).axis == Axis::Descendant, q.node(s).test.tag().unwrap_or("*")))
            .collect();
        let mut want: Vec<String> = keys
            .iter()
            .filter(|k| spells(&steps, k))
            .map(|k| format!("/{}", k.join("/")))
            .collect();
        want.sort();
        let mut arms: Vec<String> = match db.plan(xpath, Translator::Unfold).unwrap() {
            Plan::Select(Selection { source: SelectSource::Paths(paths), .. }) => {
                paths.iter().map(|p| format!("/{}", p.join("/"))).collect()
            }
            other => panic!("{xpath}: {other}"),
        };
        arms.sort();
        assert_eq!(arms, want, "{xpath}: arms = the matching live keys, each once");
        let c = db.count(xpath, unfold).unwrap();
        assert_eq!(c.count, db.query(xpath, unfold).unwrap().nodes.len(), "{xpath}");
        assert_eq!((c.stats.elements_visited, c.stats.d_joins), (0, 0), "{xpath}");
    }
}

/// The P-label intervals a linear query's Unfold selection binds to on
/// `db`, and how many live keys it matched.
fn intervals_and_keys(db: &BlasDb, xpath: &str) -> (usize, usize) {
    let plan = db.plan(xpath, Translator::Unfold).unwrap();
    let Plan::Select(Selection { source: SelectSource::Paths(paths), .. }) = &plan else {
        panic!("{xpath}: not one selection: {plan}");
    };
    let bound = bind(&plan, db.tags(), db.domain(), &db.store().live_plabels());
    let intervals = match bound {
        BoundPlan::Select(BoundSelection { source: BoundSource::PLabels(iv), .. }) => iv.len(),
        BoundPlan::Select(BoundSelection { source: BoundSource::Empty, .. }) => 0,
        other => panic!("{xpath}: {other:?}"),
    };
    (intervals, paths.len())
}

/// Every linear Fig. 10 / Fig. 15 query binds to no more intervals
/// than it matched keys, and the two suffix scans of `scan_heavy` are
/// one interval each.
#[test]
fn linear_chains_bind_to_runs_of_consecutive_live_keys() {
    for ds in DatasetId::ALL {
        let db = BlasDb::load(&ds.generate(1)).unwrap();
        let mut queries: Vec<&str> = blas_datagen::query_set(ds).iter().map(|q| q.xpath).collect();
        if ds == DatasetId::Auction {
            queries.extend(blas_datagen::xmark_benchmark().iter().map(|q| q.xpath));
        }
        for xpath in queries {
            if let Plan::Select(_) = db.plan(xpath, Translator::Unfold).unwrap() {
                let (intervals, keys) = intervals_and_keys(&db, xpath);
                assert!(0 < intervals && intervals <= keys, "{xpath}: {intervals} for {keys}");
            }
        }
    }
    let db = BlasDb::load(&DatasetId::Auction.generate(1)).unwrap();
    for xpath in ["//listitem", "//text"] {
        let (intervals, keys) = intervals_and_keys(&db, xpath);
        assert_eq!(intervals, 1, "{xpath}: {keys} keys");
        assert!(keys > 1, "{xpath}");
    }
}

/// Unfolding against the live paths never reads more than unfolding
/// against the tag graph did: each Fig. 10 query's `elements_visited`
/// under Unfold at ×1, at most the figure the graph-walking translator
/// recorded. The twig engine, which ran Push-up until it took Unfold,
/// never reads more than it did then either, and a `/P//S` query reads
/// no more labels than it returns.
#[test]
fn unfold_reads_no_more_than_the_graph_walk_on_fig10() {
    // (id, graph-walking Unfold, Push-up under `twig()`).
    let recorded = [
        ("QS1", 14_634, 14_634),
        ("QS2", 11, 901),
        ("QS3", 15_804, 15_851),
        ("QP1", 3_700, 3_700),
        ("QP2", 11_192, 14_892),
        ("QP3", 22_418, 22_418),
        ("QA1", 168, 168),
        ("QA2", 1_320, 1_321),
        ("QA3", 573, 573),
    ];
    let unfold = EngineChoice::rdbms().with_translator(Translator::Unfold);
    for ds in DatasetId::ALL {
        let db = BlasDb::load(&ds.generate(1)).unwrap();
        for q in blas_datagen::query_set(ds) {
            let (_, before, twig_before) = recorded.iter().find(|(id, ..)| *id == q.id).unwrap();
            let visited = db.query(q.xpath, unfold).unwrap().stats.elements_visited;
            assert!(visited <= *before, "{}: {visited} > {before}", q.id);
            let twig = db.query(q.xpath, EngineChoice::twig()).unwrap().stats.elements_visited;
            assert!(twig <= *twig_before, "{}: twig {twig} > {twig_before}", q.id);
        }
        if ds == DatasetId::Auction {
            // Push-up read all 4 709 `text` labels here, for 362 nodes.
            let xpath = "/site/regions/asia/item/description//text";
            let r = db.query(xpath, EngineChoice::twig()).unwrap();
            assert!(r.stats.elements_visited as usize <= r.nodes.len(), "{xpath}: {:?}", r.stats);
        }
    }
}

/// A linear query's count reads no tuple on either twig engine: its
/// plan is one unfiltered scan there too.
#[test]
fn twig_counts_of_linear_queries_read_nothing() {
    let db = BlasDb::load(&DatasetId::Auction.generate(1)).unwrap();
    for choice in [EngineChoice::twig(), EngineChoice::twigstack()] {
        for xpath in ["//listitem", "/site/regions//item", "/site/regions/asia/item/description//text"] {
            let c = db.count(xpath, choice).unwrap();
            assert_eq!(c.count, db.query(xpath, choice).unwrap().nodes.len(), "{xpath}");
            assert_eq!((c.stats.elements_visited, c.stats.d_joins), (0, 0), "{xpath} {choice:?}");
        }
    }
}

/// Auction at `scale` and the workload's default seed, snapshotted to
/// a temp file and reopened mapped (packed v3 columns), the form the
/// `scan_heavy` workload queries.
fn mapped_auction(scale: u32) -> (BlasDb, PathBuf) {
    let bytes = BlasDb::load(&blas_datagen::auction(scale, 1)).unwrap().to_snapshot();
    let path = std::env::temp_dir()
        .join(format!("blas_plan_shapes_x{scale}_{}.snap", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let db = BlasDb::open_mapped(&path).unwrap();
    assert!(db.store().is_mapped());
    (db, path)
}

/// The six `scan_heavy` queries (Fig. 10's QA2, QA3, Q4, Q6 and the
/// range-scan-heavy QH1/QH2) on the workload's Auction ×10, and
/// whether `Auto` counts them off the run directory: the suffix and
/// unfolded paths do, the twigs need their joins. A count that walks
/// reads exactly what the query reads. The twigs' answers and costs
/// are pinned on every engine: each of their joins has a one-level
/// ancestor side, so the stackless sweep runs them, and it must answer
/// and count exactly what the stack kernel did.
#[test]
fn auto_counts_scan_heavy_paths_off_the_directory_and_walks_twigs() {
    let (db, path) = mapped_auction(10);
    let auto = EngineChoice::auto();
    for (id, xpath, from_directory) in [
        ("QA2", "/site/regions//item/description", true),
        ("Q6", "/site/regions//item", true),
        ("QH1", "//listitem", true),
        ("QH2", "//text", true),
        ("QA3", "/site/regions/asia/item[shipping]/description", false),
        ("Q4", "/site/open_auctions/open_auction[bidder/personref]/reserve", false),
    ] {
        let q = db.query(xpath, auto).unwrap();
        let c = db.count(xpath, auto).unwrap();
        assert_eq!(c.count, q.nodes.len(), "{id}");
        assert!(q.stats.elements_visited > 0, "{id}");
        if from_directory {
            assert_eq!((c.stats.elements_visited, c.stats.d_joins), (0, 0), "{id}");
        } else {
            assert!(q.stats.d_joins > 0, "{id}");
            let mut expect = q.stats.clone();
            expect.elapsed = c.stats.elapsed;
            assert_eq!(c.stats, expect, "{id}: a walked count costs what the query costs");
        }
    }
    // (count, elements_visited, d_joins, join_input_tuples) as the
    // stack kernel recorded them, and TwigStack's own tuple tally.
    for (id, xpath, pin, twigstack_tuples) in [
        ("QA3", "/site/regions/asia/item[shipping]/description", (1306, 5706, 2, 7012), 3918),
        (
            "Q4",
            "/site/open_auctions/open_auction[bidder/personref]/reserve",
            (2721, 21658, 2, 27080),
            10906,
        ),
    ] {
        for choice in [EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack()] {
            let mut want = pin;
            if choice == EngineChoice::twigstack() {
                want.3 = twigstack_tuples;
            }
            let q = db.query(xpath, choice).unwrap();
            let c = db.count(xpath, choice).unwrap();
            for (n, s) in [(q.nodes.len(), &q.stats), (c.count, &c.stats)] {
                let got = (n, s.elements_visited, s.d_joins, s.join_input_tuples);
                assert_eq!(got, want, "{id} under {choice}");
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// Both join kernels answer like the naive tree walker on one twig,
/// `//listitem[text]` on Auction ×1, where `listitem` nests in itself
/// through `parlist` on several levels. Unfold binds it to one arm per
/// live `listitem` path, each join's ancestor side on one level (the
/// sweep); Push-up joins one `listitem` range that spans every level
/// (the stack kernel).
#[test]
fn one_level_and_multi_level_joins_answer_like_naive() {
    let db = BlasDb::load(&DatasetId::Auction.generate(1)).unwrap();
    let xpath = "//listitem[text]";
    let listitems = db.query("//listitem", EngineChoice::auto()).unwrap().nodes;
    let mut levels: Vec<u16> = listitems.iter().map(|l| l.level).collect();
    levels.sort_unstable();
    levels.dedup();
    assert!(levels.len() > 1, "listitem must span several levels: {levels:?}");
    let mut expected: Vec<u32> = naive::evaluate(&parse(xpath).unwrap(), db.document())
        .into_iter()
        .map(|n| db.labels().dlabels[n.index()].start)
        .collect();
    expected.sort_unstable();
    assert!(!expected.is_empty());
    for (translator, d_joins) in [(Translator::Unfold, 23), (Translator::PushUp, 1)] {
        for choice in [EngineChoice::rdbms(), EngineChoice::twig(), EngineChoice::twigstack()] {
            let choice = choice.with_translator(translator);
            let r = db.query(xpath, choice).unwrap();
            let got: Vec<u32> = r.nodes.iter().map(|l| l.start).collect();
            assert_eq!(got, expected, "{xpath} under {choice:?}");
            assert_eq!(r.stats.d_joins, d_joins, "{xpath} under {choice:?}");
        }
    }
}

/// Clock-free cost pins on a mapped Auction ×1, with every count issued
/// from four threads at once: directory counts read no element, and
/// the QA3 and Q4 counts read what their queries read.
#[test]
fn parallel_directory_counts_read_nothing() {
    let (db, path) = mapped_auction(1);
    let auto = EngineChoice::auto();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for xpath in ["//text", "//listitem", "/site/regions//item"] {
                    let expect = db.query(xpath, auto).unwrap().nodes.len();
                    let c = db.count(xpath, auto).unwrap();
                    assert_eq!((c.count, c.stats.elements_visited), (expect, 0), "{xpath}");
                }
                for xpath in [
                    "/site/regions/asia/item[shipping]/description",
                    "/site/open_auctions/open_auction[bidder/personref]/reserve",
                ] {
                    let q = db.query(xpath, auto).unwrap();
                    let c = db.count(xpath, auto).unwrap();
                    assert_eq!(c.count, q.nodes.len(), "{xpath}");
                    assert_eq!(c.stats.elements_visited, q.stats.elements_visited, "{xpath}");
                    assert!(c.stats.elements_visited > 0, "{xpath}");
                }
            });
        }
    });
    std::fs::remove_file(&path).unwrap();
}
