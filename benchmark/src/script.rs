//! Seeded request scripts: what each client sends, in which order.
//!
//! `--seed` drives data generation, pool shuffles and op order; the
//! system under test sees only the generated requests.

use crate::spec::{self, Workload};
use blas_xml::Document;
use std::collections::{BTreeMap, BTreeSet};

/// SplitMix64: small, seedable, and good enough to shuffle a script.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How a reply's count is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Against the oracle slot of this index (shared by every engine
    /// token of one XPath, so the tokens must agree with each other).
    Count(usize),
    /// Against the generation → marker-count model of `mixed_rw`.
    Marker,
}

/// One distinct read request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    pub xpath: String,
    pub engine: &'static str,
    /// Ask for the matched labels (`false` = count-only).
    pub labels: bool,
    /// Let the server's result cache answer.
    pub cache: bool,
    pub check: Check,
}

/// One step of a client's script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `reads[i]`.
    Read(usize),
    /// The next mutation of the writer's insert → retag → delete cycle.
    Write,
}

/// A workload's traffic: the distinct reads, the XPath behind each
/// oracle slot, and the cyclic op order(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub reads: Vec<Read>,
    /// `slots[i]` is the XPath whose count `Check::Count(i)` checks.
    pub slots: Vec<String>,
    /// Slots the oracle evaluates up front; the rest are pinned by the
    /// first reply and must then agree across engine tokens.
    pub oracle_slots: Vec<usize>,
    /// Client threads (and connections) the script is written for.
    pub clients: usize,
    /// One cyclic op order per client — or a single order that all
    /// clients draw from in turn, when `shared`.
    pub per_client: Vec<Vec<Op>>,
    /// Clients take their next op from one shared position in
    /// `per_client[0]`, so the op mix is fixed per *operation
    /// completed*, not per client: a client stalled behind a publish
    /// cannot be out-run by another one spinning on cache hits.
    pub shared: bool,
}

/// Fig. 10 / Fig. 15 point and suffix-path queries plus three more of
/// the same shape: small plans, answers of a few hundred to ~10 k nodes.
const HOT: [&str; 8] = [
    "//category/description/parlist/listitem",          // QA1
    "/site/people/person/name",                         // Q1
    "/site/open_auctions/open_auction/bidder/increase", // Q2
    "/site/closed_auctions/closed_auction/price",       // Q5
    "/site/regions/asia/item[shipping]/description",    // QA3
    "/site/regions/europe/item/name",
    "/site/people/person/address/city",
    "/site/categories/category/name",
];

/// Scan-bound queries: interior `//`, twigs, and two whole-tag scans.
const HEAVY: [&str; 6] = [
    "/site/regions//item/description",                            // QA2
    "/site/regions/asia/item[shipping]/description",              // QA3
    "/site/open_auctions/open_auction[bidder/personref]/reserve", // Q4
    "/site/regions//item",                                        // Q6
    "//listitem",                                                 // QH1
    "//text",                                                     // QH2
];

/// The subtree `mixed_rw` inserts under the root, the query that sees
/// it, and the tag the retag step renames its root to. None of the
/// [`HOT`] queries can match inside it, before or after the retag, so
/// their expected counts hold across generations.
pub const FRAGMENT: &str = "<item><location>bench</location><quantity>1</quantity></item>";
pub const MARKER_XPATH: &str = "/site/item/quantity";
pub const RETAG_TO: &str = "mailbox";

/// In `mixed_rw`, every this-many-th op of the shared stream is a
/// write: 2 % of all ops, whoever draws it. Each write makes about
/// three heavy ops (itself and each client's first read of the new
/// generation), 6 % of the stream, so `p99_us` sits inside the heavy
/// mode, not on its edge.
pub const WRITE_EVERY: usize = 50;

/// Distinct XPaths in the `plan_wide` pool, each sent under every one
/// of [`ENGINE_TOKENS`]. Sized so that one client's share of the keys
/// exceeds the server's result-cache capacity on its own: a cyclic
/// walk then never finds its own earlier entry, whatever the other
/// client does (checked against the live `ServerConfig` at start).
pub const PLAN_WIDE_XPATHS: usize = 2880;
pub const ENGINE_TOKENS: [&str; 3] = ["auto", "rdbms", "twig"];

/// Reads in a set-up's first pass at most: enough to fill every cache
/// a cache-friendly script can fill, and a bounded taste of one that
/// cannot (`plan_wide`), so set-up stays set-up.
pub const FIRST_PASS_MAX: usize = 1024;

/// `plan_wide` XPaths evaluated by the oracle up front.
pub const PLAN_WIDE_ORACLE_SAMPLE: usize = 256;

fn hot_read(slot: usize, xpath: &str) -> Read {
    Read {
        xpath: xpath.into(),
        engine: "auto",
        labels: true,
        cache: true,
        check: Check::Count(slot),
    }
}

/// A script over a fixed list of queries, every one of them checked
/// against the oracle (slot `i` is `queries[i]`).
fn fixed_script(
    queries: &[&str],
    reads: Vec<Read>,
    clients: usize,
    per_client: Vec<Vec<Op>>,
    shared: bool,
) -> Script {
    Script {
        reads,
        slots: queries.iter().map(|x| x.to_string()).collect(),
        oracle_slots: (0..queries.len()).collect(),
        clients,
        per_client,
        shared,
    }
}

/// `rounds` seeded permutations of `0..n`, concatenated: every read
/// equally often, in an order the seed decides.
fn shuffled_rounds(rng: &mut Rng, n: usize, rounds: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n * rounds);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut round);
        ops.extend(round.into_iter().map(Op::Read));
    }
    ops
}

/// Every distinct XPath the document's schema suggests: each
/// root-to-node tag path, its `//` suffixes, the path with one interior
/// `//` step, and `[child]` / `[sibling]` branch variants. Sorted
/// cheapest first — by the number of nodes the query selects (exact
/// for the linear variants, from a census of source paths) plus, for a
/// branch, the nodes its predicate must visit — with ties by text, so
/// the pool depends on the document alone.
///
/// One class is left out: `/P//S` where a tail of `P` is also a head
/// of `S` (possible because `parlist`/`listitem` recurse). At the
/// commit this benchmark was written against, the Split and Push-up
/// translators answer those with nodes whose `S` match overlaps `P`
/// (the D-join lacks the level gap), so `twig` disagrees with `auto`,
/// `rdbms` and the naive oracle; a workload must not contain
/// operations that fail.
pub fn schema_xpaths(doc: &Document) -> Vec<String> {
    let mut census: BTreeMap<Vec<&str>, u64> = BTreeMap::new();
    for n in doc.node_ids() {
        let path: Vec<&str> = doc
            .source_path(n)
            .iter()
            .map(|&t| doc.tags().name(t))
            .collect();
        *census.entry(path).or_default() += 1;
    }
    let mut children: BTreeMap<&[&str], Vec<&str>> = BTreeMap::new();
    for path in census.keys() {
        let (last, parent) = path
            .split_last()
            .expect("a source path names at least the node");
        children.entry(parent).or_default().push(last);
    }
    // Nodes whose source path starts with `head`, ends with `tail`, and
    // is long enough for the two not to overlap.
    let selected = |head: &[&str], tail: &[&str]| -> u64 {
        census
            .iter()
            .filter(|(p, _)| {
                p.len() >= head.len() + tail.len() && p.starts_with(head) && p.ends_with(tail)
            })
            .map(|(_, n)| n)
            .sum()
    };
    let overlaps = |head: &[&str], tail: &[&str]| {
        (1..tail.len().min(head.len() + 1)).any(|k| head.ends_with(&tail[..k]))
    };
    let mut pool: BTreeMap<String, u64> = BTreeMap::new();
    for (path, &count) in &census {
        let (last, parent) = path.split_last().expect("non-empty");
        pool.insert(format!("/{}", path.join("/")), count);
        for i in 1..path.len() {
            let (head, tail) = path.split_at(i);
            pool.insert(format!("//{}", tail.join("/")), selected(&[], tail));
            if !overlaps(head, tail) {
                pool.insert(
                    format!("/{}//{}", head.join("/"), tail.join("/")),
                    selected(head, tail),
                );
            }
        }
        for child in children.get(path.as_slice()).into_iter().flatten() {
            let branch = [path.as_slice(), &[*child]].concat();
            pool.insert(
                format!("/{}[{child}]", path.join("/")),
                count + census[&branch],
            );
        }
        for sibling in children
            .get(parent)
            .into_iter()
            .flatten()
            .filter(|s| *s != last)
        {
            let branch = [parent, &[*sibling]].concat();
            pool.insert(
                format!("/{}[{sibling}]/{last}", parent.join("/")),
                count + census[&branch],
            );
        }
    }
    let mut ranked: Vec<(u64, String)> = pool.into_iter().map(|(x, c)| (c, x)).collect();
    ranked.sort();
    ranked.into_iter().map(|(_, x)| x).collect()
}

/// Build `workload`'s script for `clients` client threads.
pub fn build(
    workload: &Workload,
    doc: &Document,
    seed: u64,
    clients: usize,
) -> Result<Script, String> {
    let mut rng = Rng::new(seed ^ 0xB1A5_0000_0000_0000);
    let script = match workload.name {
        spec::SERVE_HOT_BIN | spec::SERVE_HOT_JSON => {
            let reads: Vec<Read> = HOT
                .iter()
                .enumerate()
                .map(|(i, x)| hot_read(i, x))
                .collect();
            let per_client = (0..clients)
                .map(|_| shuffled_rounds(&mut rng, HOT.len(), 8))
                .collect();
            fixed_script(&HOT, reads, clients, per_client, false)
        }
        spec::SCAN_HEAVY => {
            let reads: Vec<Read> = HEAVY
                .iter()
                .enumerate()
                .map(|(i, x)| Read {
                    xpath: x.to_string(),
                    engine: "auto",
                    labels: false,
                    cache: false,
                    check: Check::Count(i),
                })
                .collect();
            // Round-robin, each client in its own seeded order.
            let per_client = (0..clients)
                .map(|_| shuffled_rounds(&mut rng, HEAVY.len(), 1))
                .collect();
            fixed_script(&HEAVY, reads, clients, per_client, false)
        }
        spec::PLAN_WIDE => {
            let mut slots = schema_xpaths(doc);
            if slots.len() < PLAN_WIDE_XPATHS {
                return Err(format!(
                    "the document's schema yields {} distinct XPaths, plan_wide needs {PLAN_WIDE_XPATHS}",
                    slots.len()
                ));
            }
            slots.truncate(PLAN_WIDE_XPATHS);
            let mut reads = Vec::with_capacity(slots.len() * ENGINE_TOKENS.len());
            for (slot, xpath) in slots.iter().enumerate() {
                for engine in ENGINE_TOKENS {
                    reads.push(Read {
                        xpath: xpath.clone(),
                        engine,
                        labels: false,
                        cache: true,
                        check: Check::Count(slot),
                    });
                }
            }
            // One seeded order over every key, dealt out in disjoint
            // contiguous shares; each client cycles its own.
            let mut order: Vec<usize> = (0..reads.len()).collect();
            rng.shuffle(&mut order);
            let share = order.len().div_ceil(clients);
            let per_client = order
                .chunks(share)
                .map(|c| c.iter().copied().map(Op::Read).collect())
                .collect();
            let mut oracle_slots: Vec<usize> = (0..slots.len()).collect();
            rng.shuffle(&mut oracle_slots);
            oracle_slots.truncate(PLAN_WIDE_ORACLE_SAMPLE);
            Script {
                reads,
                slots,
                oracle_slots,
                clients,
                per_client,
                shared: false,
            }
        }
        spec::MIXED_RW => {
            let mut reads: Vec<Read> = HOT
                .iter()
                .enumerate()
                .map(|(i, x)| hot_read(i, x))
                .collect();
            reads.push(Read {
                xpath: MARKER_XPATH.into(),
                engine: "auto",
                labels: true,
                cache: true,
                check: Check::Marker,
            });
            // One stream for all clients: WRITE_EVERY - 1 reads, then
            // a write, over enough seeded rounds for the cycle to wrap
            // without shifting the write slot.
            let mut ops = Vec::with_capacity(reads.len() * WRITE_EVERY);
            for (i, op) in shuffled_rounds(&mut rng, reads.len(), WRITE_EVERY - 1)
                .into_iter()
                .enumerate()
            {
                ops.push(op);
                if (i + 1) % (WRITE_EVERY - 1) == 0 {
                    ops.push(Op::Write);
                }
            }
            fixed_script(&HOT, reads, clients, vec![ops], true)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(script)
}

impl Script {
    /// The first [`FIRST_PASS_MAX`] distinct reads of client 0's script,
    /// in script order: the set-up's first pass (lazy views, first
    /// plans, cache fill).
    pub fn first_pass(&self) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        self.per_client[0]
            .iter()
            .filter_map(|op| match op {
                Op::Read(i) if seen.insert(*i) => Some(*i),
                _ => None,
            })
            .take(FIRST_PASS_MAX)
            .collect()
    }

    pub fn has_writes(&self) -> bool {
        self.per_client.iter().flatten().any(|op| *op == Op::Write)
    }

    /// FNV-1a over every request and every client's order: two scripts
    /// hash alike only if clients would send the same bytes in the same
    /// order.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for r in &self.reads {
            eat(r.xpath.as_bytes());
            eat(r.engine.as_bytes());
            eat(&[0xFF, u8::from(r.labels), u8::from(r.cache)]);
        }
        for ops in &self.per_client {
            eat(&[0xFE]);
            for op in ops {
                match op {
                    Op::Read(i) => eat(&(*i as u64).to_le_bytes()),
                    Op::Write => eat(&[0xFD]),
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: u64) -> Document {
        Document::parse(&blas_datagen::auction(1, seed)).unwrap()
    }

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        let (d7, d8) = (doc(7), doc(8));
        for w in &spec::WORKLOADS {
            let a = build(w, &d7, 7, 2).unwrap();
            let b = build(w, &d7, 7, 2).unwrap();
            assert_eq!(a, b, "{}", w.name);
            assert_eq!(a.hash(), b.hash(), "{}", w.name);
            let c = build(w, &d8, 8, 2).unwrap();
            assert_ne!(
                a.hash(),
                c.hash(),
                "{}: the seed must move the op order",
                w.name
            );
        }
    }

    #[test]
    fn plan_wide_pool_is_seeded_and_shares_are_disjoint() {
        let d = doc(7);
        let w = spec::workload(spec::PLAN_WIDE).unwrap();
        let s = build(w, &d, 7, 2).unwrap();
        assert_eq!(s.slots.len(), PLAN_WIDE_XPATHS);
        assert_eq!(s.reads.len(), PLAN_WIDE_XPATHS * ENGINE_TOKENS.len());
        assert_eq!(s.oracle_slots.len(), PLAN_WIDE_ORACLE_SAMPLE);
        let mut all: Vec<Op> = s.per_client.concat();
        assert_eq!(all.len(), s.reads.len());
        all.sort_by_key(|op| match op {
            Op::Read(i) => *i,
            Op::Write => usize::MAX,
        });
        all.dedup();
        assert_eq!(all.len(), s.reads.len(), "no key is in two shares");
        // Every XPath of the pool parses.
        for x in &s.slots {
            blas_xpath::parse(x).unwrap_or_else(|e| panic!("{x}: {e}"));
        }
        // The pool is a property of the schema, the order of the seed.
        let t = build(w, &d, 9, 2).unwrap();
        assert_eq!(s.slots, t.slots);
        assert_ne!(s.per_client, t.per_client);
    }

    /// "Choose workloads on which no operation fails": every XPath of
    /// the pool, under every engine token, answers what the naive walk
    /// answers. (The run itself checks a sample plus cross-token
    /// agreement; this checks the lot, on a small document.)
    #[test]
    fn the_whole_plan_wide_pool_agrees_with_the_naive_oracle() {
        let xml = blas_datagen::auction(1, 11);
        let d = Document::parse(&xml).unwrap();
        let db = blas::BlasDb::load(&xml).unwrap();
        let pool = schema_xpaths(&d);
        assert!(pool.len() >= PLAN_WIDE_XPATHS, "only {} XPaths", pool.len());
        let mut wrong = Vec::new();
        for xpath in &pool[..PLAN_WIDE_XPATHS] {
            let expect = blas_engine::naive::evaluate(&blas_xpath::parse(xpath).unwrap(), &d).len();
            for engine in ENGINE_TOKENS {
                let got = db
                    .query(xpath, engine.parse().unwrap())
                    .unwrap()
                    .nodes
                    .len();
                if got != expect {
                    wrong.push(format!("{xpath} [{engine}]: {got}, expected {expect}"));
                }
            }
        }
        assert!(
            wrong.is_empty(),
            "{} disagreements, e.g. {:?}",
            wrong.len(),
            &wrong[..wrong.len().min(5)]
        );
    }

    #[test]
    fn mixed_rw_is_one_shared_stream_with_a_write_every_50th_op() {
        let w = spec::workload(spec::MIXED_RW).unwrap();
        let s = build(w, &doc(7), 7, 2).unwrap();
        assert!(s.shared);
        assert_eq!(s.per_client.len(), 1);
        let ops = &s.per_client[0];
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(*op == Op::Write, (i + 1) % WRITE_EVERY == 0, "op {i}");
        }
        assert_eq!(
            ops.len() % WRITE_EVERY,
            0,
            "the cycle wraps without shifting the write slot"
        );
        assert_eq!(s.first_pass().len(), s.reads.len());
    }

    #[test]
    fn rng_is_deterministic_and_shuffles() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..100).collect();
        a.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
