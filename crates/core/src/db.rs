//! The BLAS system façade: index generator + query translator + query
//! engine behind one API (the architecture of Fig. 6).
//!
//! A [`BlasDb`] comes into existence three ways, with very different
//! cold-start costs:
//!
//! * [`BlasDb::load`] — parse, label and index XML text in one pass of
//!   SAX events, with no tree (O(document));
//! * [`BlasDb::from_snapshot`] — fully decode a snapshot into owned
//!   columns (O(data), but no parsing or relabeling);
//! * [`BlasDb::open_mapped`] — **memory-map a snapshot file and query
//!   it in place** (O(1) in the data size: header validation only).
//!
//! Whichever way, the same executor answers queries from the same
//! clustered scans, and nothing on the query path ever needs a tree:
//! the path summary the Unfold translator asks for is read off each
//! generation's **SP run directory** (a P-label *is* a source path, so
//! the distinct live P-labels are the document's path summary). A
//! database holds its columns and nothing else; the document tree and
//! the per-node label vectors survive only as explicit generation-0
//! accessors ([`BlasDb::document`], [`BlasDb::labels`]), rebuilt from
//! the columns on first call.
//!
//! A database is **mutable** after open: [`BlasDb::insert_subtree`],
//! [`BlasDb::delete`] and [`BlasDb::retag`] record edits in a delta
//! layer over the immutable base columns
//! ([`blas_storage::delta`]) and publish the result as the next
//! *generation* — an atomic swap readers never block on. A mutation
//! costs what it changes: it finds the tuples it touches by seeking,
//! never by scanning, and edits the writer's log in place. A reader
//! pins a generation with [`BlasDb::snapshot`] and sees exactly that
//! state for as long as it holds the handle; [`BlasDb::compact`]
//! folds the accumulated delta into fresh base columns without
//! holding the writer lock for the fold.

use crate::error::BlasError;
use crate::gen_cache::{GenCache, GenKey};
use blas_engine::{exec, lower_plan, lower_twig, lower_twigstack, ExecStats, PhysPlan, TwigQuery};
use blas_labeling::{DLabel, DocumentLabels, PLabelDomain};
use blas_storage::{
    DeltaEdits, DeltaStore, IndexBuilder, MappedBytes, NodeRecord, NodeStore, RecordView,
};
use blas_translate::{
    bind, render_algebra, render_sql, translate_dlabeling, translate_pushup, translate_split,
    translate_unfold, BoundPlan, Plan,
};
use blas_xml::{DocStats, Document, ElementSink, NodeId, SchemaGraph, TagId, TagInterner};
use blas_xpath::QueryTree;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Which query translation algorithm to run (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Translator {
    /// The D-labeling baseline: one tag scan per step, `l−1` D-joins.
    DLabeling,
    /// Algorithm 3+4: decomposition with `//q_i` branch subqueries.
    Split,
    /// Algorithm 5: maximally specific subqueries.
    PushUp,
    /// §4.1.3: schema-driven unfolding against the live source paths.
    Unfold,
    /// The paper's §7 recommendation: Unfold when schema information is
    /// available — always, here: the path summary is the store's own
    /// directory — on every engine.
    Auto,
}

/// Which query engine to run (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Relational-style executor over the clustered columnar store.
    Rdbms,
    /// Holistic twig matching via structural semi-joins over label
    /// streams (the default file-system engine).
    Twig,
    /// The literal TwigStack algorithm of Bruno et al. (SIGMOD'02) —
    /// the paper's citation \[6\]; same answers as [`Engine::Twig`].
    TwigStack,
    /// The recommended configuration: the relational plan (§5.2) over
    /// the resolved translator; it resolves to [`Engine::Rdbms`].
    Auto,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Rdbms => "rdbms",
            Engine::Twig => "twig",
            Engine::TwigStack => "twigstack",
            Engine::Auto => "auto",
        })
    }
}

/// The one-call execution configuration: engine × translator.
/// [`BlasDb::query`] takes an `EngineChoice` and runs the whole
/// pipeline — parse → decompose → bind → lower → execute — in one
/// call, start to finish on the calling thread.
///
/// ```
/// use blas::{BlasDb, EngineChoice, Translator};
///
/// let db = BlasDb::load("<db><e><n>x</n></e></db>").unwrap();
/// // The paper's recommended configuration:
/// let r = db.query("/db/e/n", EngineChoice::auto()).unwrap();
/// // An explicit engine and translator — the paper's Fig. 11 baseline:
/// let choice = EngineChoice::rdbms().with_translator(Translator::DLabeling);
/// let d = db.query("/db/e/n", choice).unwrap();
/// assert_eq!(r.nodes, d.nodes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineChoice {
    /// Execution engine (§5).
    pub engine: Engine,
    /// Translation algorithm (§4.1).
    pub translator: Translator,
}

impl Default for EngineChoice {
    fn default() -> Self {
        Self::auto()
    }
}

impl EngineChoice {
    /// The recommended configuration ([`Engine::Auto`]): Unfold and
    /// the relational plan, i.e. [`EngineChoice::rdbms`]. Resolved plans
    /// are cached per query string in the database's plan cache
    /// ([`BlasDb::plan_cache_stats`]).
    pub const fn auto() -> Self {
        Self { engine: Engine::Auto, translator: Translator::Auto }
    }

    /// The relational engine (§5.2) with the recommended translator.
    pub const fn rdbms() -> Self {
        Self { engine: Engine::Rdbms, ..Self::auto() }
    }

    /// The holistic twig semi-join engine (§5.3) with the recommended
    /// translator (Unfold, as on every engine).
    pub const fn twig() -> Self {
        Self { engine: Engine::Twig, ..Self::auto() }
    }

    /// The literal TwigStack engine with the recommended translator.
    pub const fn twigstack() -> Self {
        Self { engine: Engine::TwigStack, ..Self::auto() }
    }

    /// Override the translator.
    pub const fn with_translator(mut self, translator: Translator) -> Self {
        self.translator = translator;
        self
    }

    /// Override the engine.
    pub const fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }
}

/// Prints the canonical engine token (`auto`, `rdbms`, `twig`,
/// `twigstack`) — the same strings [`EngineChoice::from_str`] accepts,
/// so the four stock choices round-trip. A translator override is not
/// rendered.
///
/// [`EngineChoice::from_str`]: std::str::FromStr::from_str
impl fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.engine, f)
    }
}

/// Parse the stock engine choices by name, the tokens a server
/// request's `engine` field carries:
///
/// ```
/// use blas::EngineChoice;
///
/// let auto: EngineChoice = "auto".parse().unwrap();
/// assert_eq!(auto, EngineChoice::auto());
/// assert_eq!("twigstack".parse::<EngineChoice>().unwrap(), EngineChoice::twigstack());
/// assert_eq!(auto.to_string(), "auto");
/// assert!("sql".parse::<EngineChoice>().is_err());
/// ```
impl std::str::FromStr for EngineChoice {
    type Err = BlasError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Self::auto()),
            "rdbms" => Ok(Self::rdbms()),
            "twig" => Ok(Self::twig()),
            "twigstack" => Ok(Self::twigstack()),
            other => Err(BlasError::Config(format!(
                "unknown engine choice {other:?} (expected auto|rdbms|twig|twigstack)"
            ))),
        }
    }
}

/// Query output: matched nodes (as D-labels, in document order) plus
/// execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matched nodes, identified by their D-labels.
    pub nodes: Vec<DLabel>,
    /// Joins, visited elements, timing.
    pub stats: ExecStats,
}

/// Count-only output ([`BlasDb::count`]): how many nodes
/// [`BlasDb::query`] would return, and what counting them cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryCount {
    /// Matched nodes.
    pub count: usize,
    /// Counters of the count path: `elements_visited == 0` when the run
    /// directory answered, otherwise exactly what the query reports.
    pub stats: ExecStats,
}

/// A fully resolved, ready-to-execute plan: the unit the plan cache
/// stores. Every Auto decision (engine, translator) has been made;
/// execution is `exec::execute` and nothing else.
#[derive(Debug)]
struct PreparedPlan {
    phys: PhysPlan,
    engine: Engine,
    translator: Translator,
}

/// How a query will execute once its choice is resolved — the
/// observable face of a cached prepared plan, returned by
/// [`BlasDb::plan_info`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanInfo {
    /// Resolved engine (never [`Engine::Auto`]).
    pub engine: Engine,
    /// Resolved translator (never [`Translator::Auto`]).
    pub translator: Translator,
    /// Physical operator count of the chosen plan.
    pub ops: usize,
    /// Whether this resolution came from the plan cache.
    pub cached: bool,
}

/// Plan-cache effectiveness counters ([`BlasDb::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Queries answered from a cached plan (no parse/translate/lower).
    pub hits: u64,
    /// Queries that ran the full preparation pipeline.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Entries evicted by the capacity bound over the database's
    /// lifetime (publish-time generation pruning is not counted).
    pub evictions: u64,
}

impl PlanCacheStats {
    /// Fraction of lookups served from the cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Bound on cached plans per database. Reaching it evicts
/// **individual entries** — superseded generations first, then oldest
/// by insertion — never the whole map: a serving workload cycling
/// through more than `PLAN_CACHE_CAP` distinct queries degrades to
/// bounded re-preparation instead of hitting a periodic latency cliff
/// where every hot plan vanishes at once.
const PLAN_CACHE_CAP: usize = 1024;

/// The plan cache: resolved plans keyed by query string × requested
/// choice (× generation, through [`GenKey`]) under the shared bounded
/// policy of [`GenCache`].
type PlanCache = GenCache<(String, EngineChoice), Arc<PreparedPlan>>;

/// Take a mutex even if a previous holder panicked. Every critical
/// section in this module is a handful of map/pointer operations with
/// no partially-applied state, so the data behind a poisoned guard is
/// still consistent; propagating the poison would instead turn one
/// panicking query into permanent panics for every later query on the
/// same `BlasDb` — exactly what a serving layer cannot afford.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_recover`] for a reader-writer read guard.
fn read_recover<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_recover`] for a reader-writer write guard.
fn write_recover<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Registered snapshot-publish observers ([`BlasDb::on_publish`]);
/// Debug shows only the count (the hooks are opaque closures).
#[derive(Default)]
struct PublishHooks(Vec<Box<dyn Fn(u64) + Send + Sync>>);

impl fmt::Debug for PublishHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PublishHooks").field(&self.0.len()).finish()
    }
}

/// One published generation of the database: an immutable store (base
/// columns ⊎ delta) and the one view derived from it, its path
/// directory — the store's live P-labels and the schema graph decoded
/// from them, built on the first translation that asks, in O(distinct
/// source paths). Readers pin a
/// generation through [`BlasDb::snapshot`]; the `Arc` keeps its
/// columns alive however many generations the writer publishes
/// meanwhile.
#[derive(Debug)]
struct DbGen {
    /// Monotone generation counter; 0 is the state at open.
    number: u64,
    store: NodeStore,
    /// Compactions completed when this generation was published.
    /// Carried here, not in a counter beside `current`, so one pinned
    /// `Arc` reads a generation number and the count that goes with it.
    compactions: u64,
    paths: OnceLock<PathDirectory>,
}

/// A generation's live source paths, twice: as sorted P-labels (what a
/// path set binds against) and decoded into the schema graph (what
/// Unfold matches query chains against).
#[derive(Debug)]
struct PathDirectory {
    keys: Vec<u128>,
    schema: SchemaGraph,
}

/// The writer's private side of the generation machinery, serialized
/// by one mutex: a mutation holds it for its validate → edit → publish
/// span, a compaction only to install what it folded; readers never
/// touch it.
#[derive(Debug)]
struct WriterState {
    /// The delta-free store the cumulative edit log replays onto.
    /// Starts as the store at open; each compaction replaces it with
    /// the freshly folded columns.
    base_store: NodeStore,
    /// The cumulative edit log since the last compaction, edited in
    /// place. `inserted` stays in start order, which aligns it with
    /// the published store: entry `i` is global row `base rows + i`.
    edits: DeltaEdits,
}

/// Background-compaction hand-off: whether a request is waiting, and
/// whether a compactor thread is alive to serve it.
#[derive(Debug, Default)]
struct Background {
    requested: bool,
    running: bool,
}

/// A generation folded off the writer lock, waiting to be installed.
#[derive(Debug)]
struct Fold {
    /// The generation the fold read.
    pin: Arc<DbGen>,
    /// Its live tuples as fresh delta-free columns.
    folded: NodeStore,
}

/// Observable size of the mutable delta layer
/// ([`BlasDb::delta_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Generation the counters describe.
    pub generation: u64,
    /// Inserted tuples pending compaction.
    pub inserted: usize,
    /// Tombstoned base rows pending compaction.
    pub deleted: usize,
    /// Retag operations folded into the edit log.
    pub retags: u32,
    /// Completed compactions over this database's lifetime.
    pub compactions: u64,
}

/// A pinned read view of one generation ([`BlasDb::snapshot`]):
/// queries on this handle all answer from the same store, immune to
/// concurrent mutations and compactions. Cheap to create (one atomic
/// ref-count bump under a read lock) and freely sendable across
/// threads.
#[derive(Debug)]
pub struct DbSnapshot<'a> {
    db: &'a BlasDb,
    gen: Arc<DbGen>,
}

impl DbSnapshot<'_> {
    /// The pinned generation number.
    pub fn generation(&self) -> u64 {
        self.gen.number
    }

    /// The pinned generation's tuple store (base ⊎ delta).
    pub fn store(&self) -> &NodeStore {
        &self.gen.store
    }

    /// The pinned generation's path summary — what the Unfold
    /// translator unfolds against — read off the store's live P-labels.
    pub fn schema(&self) -> &SchemaGraph {
        &self.db.gen_paths(&self.gen).schema
    }

    /// Run `xpath` against the pinned generation — same pipeline and
    /// plan cache as [`BlasDb::query`], keyed by this generation.
    pub fn query(&self, xpath: &str, choice: EngineChoice) -> Result<QueryResult, BlasError> {
        let (prepared, _) = self.db.prepared(&self.gen, xpath, choice)?;
        Ok(self.db.execute_prepared(&self.gen, &prepared))
    }

    /// Count `xpath`'s matches in the pinned generation — same prepared
    /// plan and plan-cache entry as [`DbSnapshot::query`]; see
    /// [`BlasDb::count`].
    pub fn count(&self, xpath: &str, choice: EngineChoice) -> Result<QueryCount, BlasError> {
        let (prepared, _) = self.db.prepared(&self.gen, xpath, choice)?;
        Ok(self.db.count_prepared(&self.gen, &prepared))
    }
}

/// A [`DbSnapshot`] that holds its database by [`Arc`]
/// ([`BlasDb::shared_snapshot`]): the same pinned generation, but owned,
/// so it can move to another thread and outlive the borrow it was taken
/// through — a server pins a request's generation on the thread that
/// reads it and runs it on another.
#[derive(Debug, Clone)]
pub struct SharedSnapshot {
    db: Arc<BlasDb>,
    gen: Arc<DbGen>,
}

impl SharedSnapshot {
    /// The pinned generation number.
    pub fn generation(&self) -> u64 {
        self.gen.number
    }

    /// The pinned generation as a [`DbSnapshot`] to query.
    pub fn view(&self) -> DbSnapshot<'_> {
        DbSnapshot { db: &self.db, gen: Arc::clone(&self.gen) }
    }
}

/// A loaded, labeled, indexed XML document — the unit of querying.
///
/// Only the clustered store, the tag table and the P-label domain are
/// held eagerly, however the database was made (which is also what
/// lets [`BlasDb::open_mapped`] return in O(1)); queries need nothing
/// else.
#[derive(Debug)]
pub struct BlasDb {
    tags: TagInterner,
    domain: PLabelDomain,
    /// Generation 0 — the immutable state this database opened with.
    /// Kept alongside `current` so the borrow-returning accessors
    /// ([`BlasDb::store`], [`BlasDb::document`], [`BlasDb::labels`],
    /// [`BlasDb::schema`]) have a stable address to borrow from.
    base: Arc<DbGen>,
    /// Generation 0's document tree, rebuilt from the columns by the
    /// first [`BlasDb::document`] call. No query, plan or mutation
    /// reads it.
    base_doc: OnceLock<Document>,
    /// Generation 0's per-node label vectors ([`BlasDb::labels`]).
    base_labels: OnceLock<DocumentLabels>,
    /// The latest published generation. Readers clone the `Arc` out
    /// without holding the lock across a query; the writer swaps it
    /// under [`BlasDb::writer`].
    current: RwLock<Arc<DbGen>>,
    /// Serializes mutations and the install step of a compaction.
    writer: Mutex<WriterState>,
    /// Serializes whole compactions (fold + install), so two requests
    /// queue instead of folding the same delta twice. Never taken
    /// while holding `writer`.
    compactor: Mutex<()>,
    /// [`BlasDb::compact_in_background`]'s hand-off to its thread.
    background: Mutex<Background>,
    /// Resolved plans keyed by (query string, requested choice,
    /// generation). The generation number *is* the invalidation
    /// rule — every edit publishes a new generation, so the next lookup
    /// misses and re-binds against the new live source paths.
    /// Publishing prunes entries of superseded generations.
    plan_cache: Mutex<PlanCache>,
    /// Observers notified after every generation publication — the
    /// invalidation signal for caches layered above the database
    /// (e.g. the server's result cache).
    publish_hooks: Mutex<PublishHooks>,
    /// Declared last, so it drops after every other field has been
    /// freed: see [`HeapTrim`].
    _trim: HeapTrim,
}

/// Hands the heap a dropped database freed back to the OS. Without it
/// glibc keeps those pages: later small allocations pin the top of its
/// main arena, and its dynamic mmap threshold puts a rebuilt store's
/// columns in that arena, so a process that builds a store, snapshots
/// it and drops it keeps the build's peak resident. A no-op off glibc.
#[derive(Debug)]
struct HeapTrim;

impl Drop for HeapTrim {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> std::os::raw::c_int;
            }
            // SAFETY: `malloc_trim` only returns free memory to the OS;
            // it takes no pointer and is safe to call at any time.
            unsafe {
                malloc_trim(0);
            }
        }
    }
}

impl BlasDb {
    /// Parse, label and index an XML document (the index generator of
    /// Fig. 6): one pass of parse events into the columns, with no
    /// document tree. The events and errors are [`Document::parse`]'s.
    pub fn load(xml: &str) -> Result<Self, BlasError> {
        // Every element has a `<` and every attribute an `=`; each takes
        // at least four bytes.
        let marks = xml.bytes().filter(|&b| b == b'<' || b == b'=').count();
        let rows = marks.min(xml.len() / 4);
        let mut builder = IndexBuilder::with_capacity(TagInterner::new(), rows);
        blas_xml::feed(xml, &mut builder)?;
        Self::from_builder(builder)
    }

    /// Build from an already parsed document: a walk of the tree
    /// through the same index generator as [`BlasDb::load`]. The tree
    /// is dropped as soon as it has been walked.
    pub fn from_document(doc: Document) -> Result<Self, BlasError> {
        let mut builder = IndexBuilder::with_capacity(doc.tags().clone(), doc.len());
        let mut open: Vec<NodeId> = Vec::new();
        for id in doc.dfs() {
            let node = doc.node(id);
            while open.last().is_some_and(|&p| Some(p) != node.parent) {
                open.pop();
                builder.close();
            }
            builder.open_tag(node.tag);
            if let Some(text) = &node.text {
                builder.text(text);
            }
            open.push(id);
        }
        drop(doc);
        Self::from_builder(builder)
    }

    fn from_builder(builder: IndexBuilder) -> Result<Self, BlasError> {
        let (store, tags, domain) = builder.finish()?;
        Ok(Self::assemble(store, tags, domain))
    }

    /// Rebuild a queryable database from [`BlasDb::to_snapshot`] bytes:
    /// the **fully decoding** path. Every byte is checksum-verified,
    /// every record validated and the labels checked to nest as one
    /// tree, and columns are rebuilt in owned memory — O(data), the
    /// cost [`BlasDb::open_mapped`] exists to avoid.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, BlasError> {
        let snap = blas_storage::snapshot::decode(bytes)
            .map_err(|e| BlasError::Snapshot(e.to_string()))?;
        let (tags, domain) = tags_and_domain(&snap.tag_names, snap.num_tags, snap.digits)?;
        let store = NodeStore::from_records(snap.records);
        walk_tree(&store, |_| {})?;
        Ok(Self::assemble(store, tags, domain))
    }

    /// Open a snapshot **file** and query it in place: the columns,
    /// both clustered permutations, the run directories and the string
    /// arena are served straight from a read-only mapping (an aligned
    /// heap read where `mmap` is unavailable). Cold start is O(1) in
    /// the data size — only the header page and the run directories
    /// are validated; pages fault in as scans touch them.
    ///
    /// Integrity: the header checksum is always verified. The
    /// whole-file footer checksum is **not** streamed on this path (it
    /// would fault in every page and defeat the point); run
    /// [`blas_storage::snapshot::verify_checksum`] over the file when
    /// end-to-end verification is wanted.
    ///
    /// ```
    /// use blas::{BlasDb, EngineChoice};
    ///
    /// let db = BlasDb::load("<db><e><n>x</n></e></db>").unwrap();
    /// let path = std::env::temp_dir().join("blas_doctest_open_mapped.snap");
    /// std::fs::write(&path, db.to_snapshot()).unwrap();
    ///
    /// let mapped = BlasDb::open_mapped(&path).unwrap();
    /// let owned = db.query("/db/e/n", EngineChoice::auto()).unwrap();
    /// let fast = mapped.query("/db/e/n", EngineChoice::auto()).unwrap();
    /// assert_eq!(owned.nodes, fast.nodes);
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn open_mapped(path: impl AsRef<Path>) -> Result<Self, BlasError> {
        let path = path.as_ref();
        let mapped = MappedBytes::open(path)
            .map_err(|e| BlasError::Io(format!("{}: {e}", path.display())))?;
        let (store, meta) = NodeStore::from_mapped(mapped)
            .map_err(|e| BlasError::Snapshot(e.to_string()))?;
        let (tags, domain) = tags_and_domain(&meta.tag_names, meta.num_tags, meta.digits)?;
        Ok(Self::assemble(store, tags, domain))
    }

    fn assemble(store: NodeStore, tags: TagInterner, domain: PLabelDomain) -> Self {
        let base = Arc::new(DbGen {
            number: 0,
            store: store.clone(),
            compactions: 0,
            paths: OnceLock::new(),
        });
        Self {
            tags,
            domain,
            current: RwLock::new(Arc::clone(&base)),
            base,
            base_doc: OnceLock::new(),
            base_labels: OnceLock::new(),
            writer: Mutex::new(WriterState { base_store: store, edits: DeltaEdits::new() }),
            compactor: Mutex::new(()),
            background: Mutex::new(Background::default()),
            plan_cache: Mutex::new(PlanCache::new(PLAN_CACHE_CAP)),
            publish_hooks: Mutex::new(PublishHooks::default()),
            _trim: HeapTrim,
        }
    }

    /// The latest published generation, pinned.
    fn current_gen(&self) -> Arc<DbGen> {
        Arc::clone(&read_recover(&self.current))
    }

    /// A generation's path directory: its distinct live P-labels, and
    /// the path summary (the Unfold translator's input) they decode
    /// into digit by digit, one root-first tag path each, sorted.
    /// O(distinct source paths + |delta|); no tuple is visited and no
    /// tree is built.
    fn gen_paths<'a>(&'a self, gen: &'a DbGen) -> &'a PathDirectory {
        gen.paths.get_or_init(|| {
            let keys = gen.store.live_plabels();
            // Keys were validated when the store was built or opened
            // and mutations only write labels of existing tags, so a
            // key that does not decode cannot occur; skipping it keeps
            // this path panic-free regardless.
            let paths = keys.iter().filter_map(|&p| {
                let path = self.domain.path_of_plabel(p).ok()?;
                Some(path.into_iter().map(|t| self.tags.name(t)).collect::<Vec<_>>())
            });
            let schema = SchemaGraph::from_source_paths(paths);
            PathDirectory { keys, schema }
        })
    }

    /// Run `xpath` in one call under an [`EngineChoice`]: parse →
    /// decompose (translate) → bind → lower → execute. This is the
    /// whole pipeline of Fig. 6 behind a single method.
    /// `EngineChoice::auto()` runs the relational plan over Unfold.
    ///
    /// Resolved plans are cached per (query string, choice,
    /// generation): a repeat of the same query against an unchanged
    /// database skips parse → translate → bind → lower entirely
    /// and goes straight to execution ([`BlasDb::plan_cache_stats`]
    /// counts the hits). A mutation publishes a new generation, so the
    /// next occurrence re-binds against the new generation's live
    /// source paths.
    ///
    /// ```
    /// use blas::{BlasDb, EngineChoice};
    ///
    /// let db = BlasDb::load("<db><e><n>alpha</n></e><e><n>beta</n></e></db>").unwrap();
    /// let result = db.query("/db/e/n", EngineChoice::auto()).unwrap();
    /// assert_eq!(result.nodes.len(), 2);
    /// assert_eq!(db.texts(&result)[0].as_deref(), Some("alpha"));
    /// ```
    pub fn query(&self, xpath: &str, choice: EngineChoice) -> Result<QueryResult, BlasError> {
        let gen = self.current_gen();
        let (prepared, _) = self.prepared(&gen, xpath, choice)?;
        Ok(self.execute_prepared(&gen, &prepared))
    }

    /// How many nodes [`BlasDb::query`] would return for `xpath`, without
    /// building the result. Shares `query`'s prepared plan and plan-cache
    /// key, so a count and a query of one XPath make one cache entry.
    ///
    /// A plan whose answer is one unfiltered clustered selection — any
    /// linear query without a value test, on every engine — is counted
    /// off the run directory: no tuple is read and
    /// `stats.elements_visited` is 0. Any other plan executes
    /// as `query` does, minus the final copy, and reports the same
    /// counters. The paper's elements-read figures measure `query`.
    ///
    /// ```
    /// use blas::{BlasDb, EngineChoice};
    ///
    /// let db = BlasDb::load("<db><e><n>x</n></e><e><n>y</n></e></db>").unwrap();
    /// let c = db.count("//n", EngineChoice::auto()).unwrap();
    /// assert_eq!(c.count, db.query("//n", EngineChoice::auto()).unwrap().nodes.len());
    /// assert_eq!(c.stats.elements_visited, 0, "answered from the run directory");
    /// ```
    pub fn count(&self, xpath: &str, choice: EngineChoice) -> Result<QueryCount, BlasError> {
        self.snapshot().count(xpath, choice)
    }

    /// Run `xpath` with an explicit translator × engine choice.
    /// Equivalent to [`BlasDb::query`] with a
    /// hand-built [`EngineChoice`].
    pub fn query_with(
        &self,
        xpath: &str,
        translator: Translator,
        engine: Engine,
    ) -> Result<QueryResult, BlasError> {
        self.query(xpath, EngineChoice { engine, translator })
    }

    /// Run an already parsed query tree: decompose → bind → lower →
    /// execute on the shared physical-plan executor.
    /// This entry point has no query string to key on, so it bypasses
    /// the plan cache and prepares the plan fresh each call.
    pub fn run(&self, query: &QueryTree, choice: EngineChoice) -> Result<QueryResult, BlasError> {
        let gen = self.current_gen();
        let prepared = self.prepare(&gen, query, choice)?;
        Ok(self.execute_prepared(&gen, &prepared))
    }

    /// How `xpath` will execute under `choice` once every Auto
    /// decision is resolved: engine, translator and operator count.
    /// Resolution itself goes
    /// through (and populates) the plan cache, so inspecting a plan
    /// is as cheap as running it and `cached` reports whether this
    /// call hit.
    pub fn plan_info(&self, xpath: &str, choice: EngineChoice) -> Result<PlanInfo, BlasError> {
        let gen = self.current_gen();
        let (p, cached) = self.prepared(&gen, xpath, choice)?;
        Ok(PlanInfo {
            engine: p.engine,
            translator: p.translator,
            ops: p.phys.ops().len(),
            cached,
        })
    }

    /// Plan-cache hit/miss counters and current size.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        let cache = lock_recover(&self.plan_cache);
        PlanCacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            entries: cache.len(),
            evictions: cache.evictions(),
        }
    }

    /// Drop every cached plan (counters keep accumulating). Purely a
    /// measurement aid — generation-keyed entries never go stale, so
    /// correctness never requires this, even under mutation.
    pub fn clear_plan_cache(&self) {
        lock_recover(&self.plan_cache).clear();
    }

    /// Register a hook invoked after every generation publication
    /// (mutations and compactions alike) with the new generation
    /// number. This is the invalidation signal for caches layered
    /// *above* the database: the server's result cache keys entries by
    /// `(query, engine, generation)` and prunes superseded generations
    /// from here. Hooks run on the publishing thread with the writer
    /// lock held, after the new generation is visible to readers —
    /// keep them short, and never call a mutation from one (it would
    /// self-deadlock on the writer mutex). Hooks cannot be
    /// deregistered; they live as long as the database.
    pub fn on_publish(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        lock_recover(&self.publish_hooks).0.push(Box::new(hook));
    }

    /// Cache-through plan resolution: return the prepared plan for
    /// `(xpath, choice)` against `gen`, preparing and inserting it on
    /// first sight. The bool reports a cache hit.
    fn prepared(
        &self,
        gen: &DbGen,
        xpath: &str,
        choice: EngineChoice,
    ) -> Result<(Arc<PreparedPlan>, bool), BlasError> {
        let key = GenKey { scope: 0, key: (xpath.to_string(), choice), generation: gen.number };
        if let Some(hit) = lock_recover(&self.plan_cache).get(&key) {
            return Ok((Arc::clone(hit), true));
        }
        let query = blas_xpath::parse(xpath)?;
        let prepared = Arc::new(self.prepare(gen, &query, choice)?);
        // "Superseded" means older than the latest published
        // generation, not the (possibly pinned) one being queried.
        // Read it before taking the cache lock: publish() takes the
        // generation write lock first, so nesting the read inside the
        // cache lock would invert that order.
        let live_gen = self.generation();
        lock_recover(&self.plan_cache).insert(key, Arc::clone(&prepared), live_gen);
        Ok((prepared, false))
    }

    /// Resolve every Auto decision and lower to a physical plan:
    /// translate and bind once, then lower for the engine, where
    /// [`Engine::Auto`] is the relational one.
    fn prepare(
        &self,
        gen: &DbGen,
        query: &QueryTree,
        choice: EngineChoice,
    ) -> Result<PreparedPlan, BlasError> {
        let translator = resolved_translator(choice.translator);
        let bound = self.bind_in(gen, &self.translate(gen, query, translator)?);
        let (engine, phys) = match choice.engine {
            Engine::Rdbms | Engine::Auto => (Engine::Rdbms, lower_plan(&bound)),
            Engine::Twig => (Engine::Twig, lower_twig(&TwigQuery::from_plan(&bound))),
            Engine::TwigStack => {
                (Engine::TwigStack, lower_twigstack(&TwigQuery::from_plan(&bound)))
            }
        };
        Ok(PreparedPlan { phys, engine, translator })
    }

    /// Execute a resolved plan.
    fn execute_prepared(&self, gen: &DbGen, prepared: &PreparedPlan) -> QueryResult {
        let mut stats = ExecStats::default();
        let nodes = exec::execute(&prepared.phys, &gen.store, &mut stats);
        QueryResult { nodes, stats }
    }

    /// [`BlasDb::execute_prepared`] through the executor's count sink.
    fn count_prepared(&self, gen: &DbGen, prepared: &PreparedPlan) -> QueryCount {
        let mut stats = ExecStats::default();
        let count = exec::count(&prepared.phys, &gen.store, &mut stats);
        QueryCount { count, stats }
    }

    fn translate(
        &self,
        gen: &DbGen,
        query: &QueryTree,
        translator: Translator,
    ) -> Result<Plan, BlasError> {
        Ok(match translator {
            Translator::DLabeling => translate_dlabeling(query)?,
            Translator::Split => translate_split(query)?,
            Translator::PushUp => translate_pushup(query)?,
            Translator::Unfold | Translator::Auto => {
                translate_unfold(query, &self.gen_paths(gen).schema)?
            }
        })
    }

    /// Bind a plan against this database's tags and domain and `gen`'s
    /// live keys.
    fn bind_in(&self, gen: &DbGen, plan: &Plan) -> BoundPlan {
        bind(plan, &self.tags, &self.domain, &self.gen_paths(gen).keys)
    }

    /// The symbolic logical plan a translator produces for `xpath`
    /// (against the current generation's schema).
    pub fn plan(&self, xpath: &str, translator: Translator) -> Result<Plan, BlasError> {
        let query = blas_xpath::parse(xpath)?;
        self.translate(&self.current_gen(), &query, translator)
    }

    /// The Fig.-11-style relational algebra for `xpath` under a
    /// translator.
    pub fn explain(&self, xpath: &str, translator: Translator) -> Result<String, BlasError> {
        let gen = self.current_gen();
        let query = blas_xpath::parse(xpath)?;
        let bound = self.bind_in(&gen, &self.translate(&gen, &query, translator)?);
        Ok(render_algebra(&bound, &self.tags))
    }

    /// The standard SQL the translator generates for `xpath`
    /// (Example 3.1 style).
    pub fn explain_sql(&self, xpath: &str, translator: Translator) -> Result<String, BlasError> {
        let gen = self.current_gen();
        let query = blas_xpath::parse(xpath)?;
        Ok(render_sql(&self.bind_in(&gen, &self.translate(&gen, &query, translator)?)))
    }

    /// Fetch the stored tuples for a result (document order), resolved
    /// by direct start-rank lookup against the **current generation**
    /// (a binary search over the start-ordered column — no per-result
    /// B+ tree descent). Returned owned: the generation handle cannot
    /// be borrowed out, and a result fetched across a concurrent
    /// mutation simply drops the nodes that no longer exist.
    pub fn records(&self, result: &QueryResult) -> Vec<NodeRecord> {
        let gen = self.current_gen();
        result
            .nodes
            .iter()
            .filter_map(|l| {
                gen.store.row_of_start(l.start).map(|row| {
                    let r = gen.store.record(row);
                    NodeRecord {
                        plabel: r.plabel,
                        start: r.start,
                        end: r.end,
                        level: r.level,
                        tag: r.tag,
                        data: r.data.map(str::to_string),
                    }
                })
            })
            .collect()
    }

    /// Text values of a result's nodes (document order; `None` for
    /// nodes with no PCDATA).
    pub fn texts(&self, result: &QueryResult) -> Vec<Option<String>> {
        self.records(result).into_iter().map(|r| r.data).collect()
    }

    /// Tag names of a result's nodes.
    pub fn tag_names(&self, result: &QueryResult) -> Vec<&str> {
        self.records(result)
            .into_iter()
            .map(|r| self.tags.name(r.tag))
            .collect()
    }

    /// Dataset statistics (the Fig. 12 row for this document **as of
    /// generation 0**), given the serialized size: read off the columns
    /// (the row count, the tag table and the P-label domain's depth),
    /// with no tree built.
    pub fn stats(&self, bytes: usize) -> DocStats {
        DocStats {
            bytes,
            nodes: self.base.store.len(),
            tags: self.tags.len(),
            depth: (self.domain.digits() - 1) as u16,
        }
    }

    /// The document's tag table (name ↔ [`blas_xml::TagId`]), available
    /// on every construction path without materializing the tree.
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// The parsed document **as of generation 0** (the state at open).
    /// No database holds it: the first call **rebuilds it from the
    /// stored D-labels** (tuples in start order nest by their
    /// intervals; O(nodes)) and keeps it for the database's lifetime,
    /// roughly doubling what the database holds. This is an explicit
    /// accessor for inspection and tests: no query, plan, explain,
    /// statistic or mutation ever calls it, and mutations do not change
    /// what it returns — pin a generation with [`BlasDb::snapshot`] for
    /// post-edit state.
    ///
    /// # Panics
    ///
    /// If a mapped snapshot that escaped full verification encodes an
    /// inconsistent tree. [`BlasDb::from_snapshot`] and
    /// [`blas_storage::snapshot::verify_checksum`] both reject such
    /// inputs with typed errors instead.
    pub fn document(&self) -> &Document {
        self.base_doc.get_or_init(|| {
            document_from_store(&self.base.store, &self.tags)
                .expect("a snapshot that passed its checks encodes a consistent tree")
        })
    }

    /// The bi-labeling of every node **as of generation 0**, indexed
    /// by `NodeId`: decoded from the generation-0 columns by the first
    /// call (node ids are assigned in document order, which is row
    /// order), which keeps the vectors (28 bytes a node) for the
    /// database's lifetime. Like [`BlasDb::document`], an explicit
    /// accessor nothing on the query or mutation path reads.
    pub fn labels(&self) -> &DocumentLabels {
        self.base_labels.get_or_init(|| DocumentLabels {
            dlabels: self.base.store.doc_labels_vec(),
            plabels: self.base.store.doc_plabels_vec(),
            domain: self.domain,
        })
    }

    /// The P-label domain shared by nodes and queries. Fixed for the
    /// database's lifetime — which is why mutations may only use tags
    /// already in the table.
    pub fn domain(&self) -> &PLabelDomain {
        &self.domain
    }

    /// The indexed tuple store **as of generation 0**. Use
    /// [`DbSnapshot::store`] for the store of the current (or a
    /// pinned) generation after mutations.
    pub fn store(&self) -> &NodeStore {
        &self.base.store
    }

    /// The path summary **as of generation 0** (the Unfold
    /// translator's input), read off the generation-0 SP run
    /// directory on first use. Queries translate against their own
    /// generation's summary ([`DbSnapshot::schema`]).
    pub fn schema(&self) -> &SchemaGraph {
        &self.gen_paths(&self.base).schema
    }

    /// Serialize the labeled, indexed form of this database — the
    /// paper's primary representation ("the XML data is stored in
    /// labeled form") — in the sectioned, checksummed, mappable format
    /// of [`blas_storage::snapshot`]. Restore with
    /// [`BlasDb::from_snapshot`] (full decode) or write to a file and
    /// reopen with [`BlasDb::open_mapped`] (zero decode).
    ///
    /// Serializes the **current generation**; a live delta is folded
    /// into fresh columns first (the snapshot format stores base
    /// columns only), so the bytes are identical to those of a
    /// database compacted before the call.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let gen = self.current_gen();
        let tag_names: Vec<String> =
            self.tags.iter().map(|(_, n)| n.to_string()).collect();
        let folded;
        let store = if gen.store.delta().is_some_and(|d| !d.is_noop()) {
            folded = gen.store.folded();
            &folded
        } else {
            &gen.store
        };
        blas_storage::snapshot::encode_store(
            store,
            &tag_names,
            self.domain.num_tags() as u32,
            self.domain.digits(),
        )
    }

    /// Pin the current generation for a sequence of reads: queries on
    /// the returned handle all see this one state, however many
    /// mutations or compactions other threads publish meanwhile.
    ///
    /// ```
    /// use blas::{BlasDb, EngineChoice};
    ///
    /// let db = BlasDb::load("<db><e><n>x</n></e></db>").unwrap();
    /// let before = db.snapshot();
    /// db.insert_subtree(0, "<e><n>y</n></e>").unwrap();
    /// // The pinned view still answers from the pre-insert state.
    /// assert_eq!(before.query("/db/e/n", EngineChoice::auto()).unwrap().nodes.len(), 1);
    /// assert_eq!(db.query("/db/e/n", EngineChoice::auto()).unwrap().nodes.len(), 2);
    /// ```
    pub fn snapshot(&self) -> DbSnapshot<'_> {
        DbSnapshot { db: self, gen: self.current_gen() }
    }

    /// [`BlasDb::snapshot`] holding the database by [`Arc`]; see
    /// [`SharedSnapshot`].
    pub fn shared_snapshot(self: &Arc<Self>) -> SharedSnapshot {
        SharedSnapshot { db: Arc::clone(self), gen: self.current_gen() }
    }

    /// The current generation number: 0 at open, +1 per successful
    /// mutation or real compaction.
    pub fn generation(&self) -> u64 {
        read_recover(&self.current).number
    }

    /// Size of the mutable layer on the current generation, plus the
    /// lifetime compaction count **as of that generation**: all five
    /// fields are read off one pinned generation, so a caller polling
    /// `compactions` (as the benchmark's `await_compaction` does) sees
    /// the count move exactly when the folded generation is the one
    /// being served.
    pub fn delta_stats(&self) -> DeltaStats {
        let gen = self.current_gen();
        let (inserted, deleted, retags) = gen
            .store
            .delta()
            .map_or((0, 0, 0), |d| (d.inserted_len(), d.deleted_len(), d.retag_count()));
        DeltaStats {
            generation: gen.number,
            inserted,
            deleted,
            retags,
            compactions: gen.compactions,
        }
    }

    /// Append a parsed XML fragment as the **last child** of the node
    /// whose D-label starts at unit `parent_start`, publishing the
    /// result as the next generation (returned). Readers holding a
    /// [`DbSnapshot`] are unaffected; new queries see the insert.
    ///
    /// Two structural restrictions follow from the labeling schemes:
    ///
    /// * D-label unit positions are append-only (deletes never reclaim
    ///   them), so the target must lie on the **rightmost spine** —
    ///   its interval must end exactly `level − 1` units before the
    ///   document watermark. The parent and its ancestors stretch by
    ///   the fragment's unit count; no other node moves.
    /// * Every fragment tag must already exist in the tag table: the
    ///   P-label domain's positional base is fixed at load, and a new
    ///   tag would renumber every existing P-label. Likewise the
    ///   fragment may not deepen the tree past the domain's `H − 1`
    ///   levels: a node at level `L` is addressed by an anchored
    ///   source path of `L` tags plus the `/` digit, and a deeper node
    ///   would fall outside every path interval the translators emit.
    pub fn insert_subtree(&self, parent_start: u32, xml: &str) -> Result<u64, BlasError> {
        let frag = Document::parse(xml)?;
        let mut tag_map = Vec::with_capacity(frag.tags().len());
        for (_, name) in frag.tags().iter() {
            let Some(tag) = self.tags.get(name) else {
                return Err(BlasError::Mutation(format!(
                    "tag {name:?} is not in the tag table; the P-label domain is fixed at load"
                )));
            };
            tag_map.push(tag);
        }
        let mut ws = lock_recover(&self.writer);
        // Stable while we hold the writer lock: publications happen
        // only under it.
        let gen = self.current_gen();
        let Some((row, parent)) = gen.store.get_by_start(parent_start) else {
            return Err(BlasError::Mutation(format!(
                "no live node starts at unit {parent_start}"
            )));
        };
        let (p_plabel, p_end, p_level) = (parent.plabel, parent.end, parent.level);
        let watermark = watermark(&gen.store);
        if watermark - p_end != u32::from(p_level - 1) {
            return Err(BlasError::Mutation(format!(
                "node [{parent_start}, {p_end}] at level {p_level} is not on the rightmost \
                 spine (watermark {watermark}); D-label unit positions are append-only"
            )));
        }
        let max_level = self.domain.digits() - 1;
        if u32::from(p_level) + u32::from(frag.depth()) > max_level {
            return Err(BlasError::Mutation(format!(
                "a fragment of depth {} under a level-{p_level} node exceeds the P-label \
                 domain's {max_level}-level capacity, fixed at load",
                frag.depth()
            )));
        }
        // Label the fragment starting at the parent's (displaced) end
        // unit — start tag, text datum and end tag one unit each, as
        // in `blas_labeling::assign_dlabels` — with P-labels by the
        // incremental identity of Algorithm 2.
        let mut new_recs = Vec::with_capacity(frag.len());
        let mut unit = p_end;
        label_fragment(
            &frag,
            frag.root(),
            p_plabel,
            p_level + 1,
            &mut unit,
            self.domain.base(),
            self.domain.digits(),
            &tag_map,
            &mut new_recs,
        );
        // The parent and every ancestor stretch around the fragment;
        // Algorithm 2 run backwards names them in `depth` probes.
        if ws.edits.insert_under(&gen.store, &self.domain, row, unit - p_end, new_recs).is_none() {
            return Err(BlasError::Mutation(format!(
                "node [{parent_start}, {p_end}] has no ancestor chain: the store's P-labels \
                 and D-labels disagree"
            )));
        }
        self.commit(&mut ws, &gen)
    }

    /// Delete the subtree rooted at the node whose D-label starts at
    /// unit `start`, publishing the result as the next generation
    /// (returned). The root cannot be deleted. The subtree's unit
    /// positions are **not reclaimed** — ancestors keep their
    /// intervals, and later inserts never reuse the freed units — so a
    /// delete is purely a set of tombstones (and withdrawn pending
    /// inserts) in the delta layer.
    pub fn delete(&self, start: u32) -> Result<u64, BlasError> {
        let mut ws = lock_recover(&self.writer);
        let gen = self.current_gen();
        let Some((row, target)) = gen.store.get_by_start(start) else {
            return Err(BlasError::Mutation(format!("no live node starts at unit {start}")));
        };
        if target.level == 1 {
            return Err(BlasError::Mutation("cannot delete the document root".to_string()));
        }
        ws.edits.delete_subtree(&gen.store, row);
        self.commit(&mut ws, &gen)
    }

    /// Rename the node whose D-label starts at unit `start` to
    /// `new_tag` (which must already exist in the tag table),
    /// publishing the result as the next generation (returned).
    ///
    /// A tag is one positional digit of every descendant's P-label, so
    /// the rename rewrites the node's tuple **and** every descendant
    /// within `H − 1` levels: descendant at distance `d` gets
    /// `plabel ± |t' − t| · base^(H−1−d)`. Deeper descendants already
    /// shifted the digit out and keep their P-labels.
    pub fn retag(&self, start: u32, new_tag: &str) -> Result<u64, BlasError> {
        let Some(tag) = self.tags.get(new_tag) else {
            return Err(BlasError::Mutation(format!(
                "tag {new_tag:?} is not in the tag table; the P-label domain is fixed at load"
            )));
        };
        let mut ws = lock_recover(&self.writer);
        let gen = self.current_gen();
        let Some((row, target)) = gen.store.get_by_start(start) else {
            return Err(BlasError::Mutation(format!("no live node starts at unit {start}")));
        };
        if target.tag == tag {
            return Ok(gen.number);
        }
        ws.edits.retag_subtree(&gen.store, &self.domain, row, tag);
        self.commit(&mut ws, &gen)
    }

    /// Fold the delta into fresh base columns and publish the result
    /// as the next generation (returned; the current number when there
    /// is nothing to fold). Readers pinned on older generations keep
    /// their columns — compaction never blocks or invalidates them —
    /// and the compacted state is query-identical to the delta-layered
    /// one it replaces.
    ///
    /// The O(live tuples) fold runs against a pinned generation
    /// **without the writer lock**: mutations keep publishing while it
    /// runs, and the lock is taken only to re-base what arrived
    /// meanwhile onto the folded columns and swap — O(|edits|).
    /// Concurrent calls queue on a compaction-only mutex.
    pub fn compact(&self) -> u64 {
        let _one_at_a_time = lock_recover(&self.compactor);
        match self.fold() {
            Some(fold) => self.install(fold),
            None => self.generation(),
        }
    }

    /// Ask for a [`BlasDb::compact`] in the background and return
    /// immediately. Queries keep answering — from the delta-layered
    /// generation until the compactor publishes, from the folded one
    /// after.
    ///
    /// The fold runs on a **compactor thread of its own**, started by
    /// the first request and gone once no request is waiting — never
    /// on the caller's thread, which may be a server's request worker:
    /// there the O(n) fold would hold a worker that requests queue
    /// behind, and its big columns would grow that thread's allocator
    /// arena. Requests made while one is already waiting coalesce:
    /// that compaction folds everything published before it starts.
    pub fn compact_in_background(self: &Arc<Self>) {
        {
            let mut bg = lock_recover(&self.background);
            bg.requested = true;
            if std::mem::replace(&mut bg.running, true) {
                return; // the live compactor will see the request
            }
        }
        let db = Arc::clone(self);
        let compactor = std::thread::Builder::new().name("blas-compactor".into()).spawn(move || loop {
            {
                let mut bg = lock_recover(&db.background);
                if !std::mem::take(&mut bg.requested) {
                    // Checked and cleared under one lock hold: a
                    // request either saw `running` and is served by
                    // this loop, or starts the next thread.
                    bg.running = false;
                    return;
                }
            }
            // A panicking fold must not end the thread with `running`
            // still set (later requests would never be served); every
            // lock it could have held recovers from poison.
            let _ = catch_unwind(AssertUnwindSafe(|| db.compact()));
        });
        if compactor.is_err() {
            // No thread to be had: fold on the caller's.
            *lock_recover(&self.background) = Background::default();
            self.compact();
        }
    }

    /// Compaction, step one (no lock held): pin the current generation
    /// and fold its live tuples into fresh columns. `None` when it
    /// carries nothing to fold.
    fn fold(&self) -> Option<Fold> {
        let pin = self.current_gen();
        if pin.store.delta().is_none_or(DeltaStore::is_noop) {
            return None;
        }
        let folded = pin.store.folded();
        Some(Fold { pin, folded })
    }

    /// Compaction, step two (writer lock held): make the folded
    /// columns the base, re-express the edits that arrived since the
    /// pin against them, and publish. D-label starts survive a fold,
    /// so the re-base is [`DeltaEdits::rebased`] over the log alone.
    fn install(&self, fold: Fold) -> u64 {
        let mut ws = lock_recover(&self.writer);
        let gen = self.current_gen();
        let Fold { pin, folded } = fold;
        let edits = if gen.number == pin.number {
            DeltaEdits::new()
        } else {
            ws.edits.rebased(&pin.store, &folded)
        };
        let store = if edits.is_empty() {
            folded.clone()
        } else {
            match folded.apply_edits(&edits) {
                Ok(store) => store,
                // Unreachable for a log this database wrote; give the
                // fold up rather than publish a state we cannot build.
                Err(_) => return gen.number,
            }
        };
        ws.base_store = folded;
        ws.edits = edits;
        self.publish(store, gen.compactions + 1)
    }

    /// Rebuild the delta from the log a mutation just edited in place
    /// and publish the next generation. A log the store rejects is
    /// rolled back to the one `gen` — the generation still published —
    /// was built from, so a rejected script leaves both untouched.
    fn commit(&self, ws: &mut WriterState, gen: &DbGen) -> Result<u64, BlasError> {
        match ws.base_store.apply_edits(&ws.edits) {
            Ok(store) => Ok(self.publish(store, gen.compactions)),
            Err(e) => {
                ws.edits = gen.store.pending_edits();
                Err(BlasError::Mutation(e.to_string()))
            }
        }
    }

    /// Swap in the next generation (writer lock held by the caller)
    /// and drop plan-cache entries of superseded generations — they
    /// can only be hit again by a pinned [`DbSnapshot`], which will
    /// simply re-prepare.
    fn publish(&self, store: NodeStore, compactions: u64) -> u64 {
        let mut cur = write_recover(&self.current);
        let number = cur.number + 1;
        *cur = Arc::new(DbGen { number, store, compactions, paths: OnceLock::new() });
        drop(cur);
        lock_recover(&self.plan_cache).prune_superseded(0, number);
        for hook in &lock_recover(&self.publish_hooks).0 {
            hook(number);
        }
        number
    }
}

/// The document watermark: one past the last used D-label unit, which
/// is exactly the root's (inclusive) end — the root starts at unit 0,
/// spans everything, and can never be deleted.
fn watermark(store: &NodeStore) -> u32 {
    store.get_by_start(0).map(|(_, root)| root.end).expect("a store always holds the root")
}

/// Label `id`'s subtree in preorder with the unit accounting of
/// [`blas_labeling::assign_dlabels`] — start tag, text datum (if any)
/// and end tag are one unit each — and P-labels by Algorithm 2's
/// incremental identity
/// `plabel(child) = (tag+1)·base^(H−1) + plabel(parent)/base`.
#[allow(clippy::too_many_arguments)]
fn label_fragment(
    frag: &Document,
    id: NodeId,
    parent_plabel: u128,
    level: u16,
    unit: &mut u32,
    base: u128,
    digits: u32,
    tag_map: &[TagId],
    out: &mut Vec<NodeRecord>,
) {
    let node = frag.node(id);
    let tag = tag_map[node.tag.index()];
    let plabel = (tag.index() as u128 + 1) * base.pow(digits - 1) + parent_plabel / base;
    let start = *unit;
    *unit += 1;
    if node.text.is_some() {
        *unit += 1; // the text datum unit
    }
    let slot = out.len();
    out.push(NodeRecord {
        plabel,
        start,
        end: 0, // patched after the children claim their units
        level,
        tag,
        data: node.text.clone(),
    });
    for &child in &node.children {
        label_fragment(frag, child, plabel, level + 1, unit, base, digits, tag_map, out);
    }
    out[slot].end = *unit;
    *unit += 1;
}

/// The concrete translator a request resolves to: [`Translator::Auto`]
/// is Unfold, one translation every engine lowers (the §7
/// recommendation); Split, Push-up and D-labeling run only when named.
fn resolved_translator(translator: Translator) -> Translator {
    match translator {
        Translator::Auto => Translator::Unfold,
        t => t,
    }
}

/// Build the tag interner and P-label domain a snapshot declares,
/// rejecting duplicate names (interning would collapse them, leaving
/// dangling tag ids that panic on later name lookups) and a domain
/// with more tag digits than the table has names (a P-label could
/// then decode to a tag the table cannot name).
fn tags_and_domain(
    names: &[String],
    num_tags: u32,
    digits: u32,
) -> Result<(TagInterner, PLabelDomain), BlasError> {
    let mut tags = TagInterner::new();
    for name in names {
        tags.intern(name);
    }
    if tags.len() != names.len() {
        return Err(BlasError::Snapshot("duplicate names in tag table".to_string()));
    }
    if num_tags as usize > names.len() {
        return Err(BlasError::Snapshot(format!(
            "P-label domain of {num_tags} tags over a table of {}",
            names.len()
        )));
    }
    Ok((tags, PLabelDomain::with_digits(num_tags as usize, digits)?))
}

/// Walk a store's labels, in start order, as one tree — one root at
/// level 1, every other node strictly inside the nearest open interval
/// and one level below it — calling `visit(Some(node))` as a node opens
/// and `visit(None)` as one closes. One stack pass.
fn walk_tree<'a>(
    store: &'a NodeStore,
    mut visit: impl FnMut(Option<RecordView<'a>>),
) -> Result<(), BlasError> {
    let inconsistent = |e| Err(BlasError::Snapshot(format!("inconsistent snapshot tree: {e}")));
    let mut open: Vec<DLabel> = Vec::new();
    for (i, (_, r)) in store.scan_all().enumerate() {
        let node = r.dlabel();
        while open.last().is_some_and(|p| p.end < node.start) {
            open.pop();
            visit(None);
        }
        let nested = match open.last() {
            None if i > 0 => return inconsistent("multiple roots"),
            None => node.level == 1,
            Some(p) => {
                p.start < node.start
                    && node.end < p.end
                    && p.level.checked_add(1) == Some(node.level)
            }
        };
        if !nested || node.start > node.end {
            return inconsistent("a node does not nest one level inside its parent");
        }
        open.push(node);
        visit(Some(r));
    }
    open.iter().for_each(|_| visit(None));
    match open.is_empty() {
        true => inconsistent("no root element"),
        false => Ok(()),
    }
}

/// Rebuild the document tree from a store's columns.
fn document_from_store(store: &NodeStore, tags: &TagInterner) -> Result<Document, BlasError> {
    let mut builder = blas_xml::DocumentBuilder::new();
    walk_tree(store, |node| match node {
        Some(r) => {
            builder.open(tags.name(r.tag));
            if let Some(d) = r.data {
                builder.text(d);
            }
        }
        None => builder.close(),
    })?;
    // The rebuilt interner assigns TagIds in first-appearance order,
    // which mutations can legitimately shuffle relative to the
    // fixed-at-load table (a delete or retag can remove a tag's first
    // occurrence), so no order is asserted here. Nothing downstream
    // mixes the two id spaces: the path summary is name-based and
    // labels always come from the store columns, while record tag ids
    // are range-checked against the table when a snapshot decodes.
    builder.finish().map_err(|e| BlasError::Snapshot(format!("inconsistent snapshot tree: {e}")))
}

#[cfg(test)]
mod mutation_tests;

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><n>cytochrome c</n></p><r><y>2001</y></r></e>",
        "<e><p><n>hemoglobin</n></p><r><y>1999</y></r></e>",
        "</db>"
    );

    #[test]
    fn load_and_query_defaults() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let result = db.query("/db/e/p/n", EngineChoice::auto()).unwrap();
        assert_eq!(result.nodes.len(), 2);
        assert_eq!(
            db.texts(&result),
            [Some("cytochrome c".to_string()), Some("hemoglobin".to_string())]
        );
        assert_eq!(db.tag_names(&result), ["n", "n"]);
    }

    #[test]
    fn all_translator_engine_combinations_agree() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let expected = db.query("/db/e[r/y='2001']/p/n", EngineChoice::auto()).unwrap().nodes;
        assert_eq!(expected.len(), 1);
        for t in [Translator::DLabeling, Translator::Split, Translator::PushUp, Translator::Unfold, Translator::Auto] {
            for e in [Engine::Rdbms, Engine::Twig, Engine::TwigStack] {
                let got = db.query_with("/db/e[r/y='2001']/p/n", t, e).unwrap();
                assert_eq!(got.nodes, expected, "{t:?}/{e:?}");
            }
        }
    }

    #[test]
    fn unfold_runs_on_the_twig_engines() {
        // Two live paths under an interior descendant, and a branch
        // that unfolds into two rewritings (a union of twigs).
        let db = BlasDb::load("<a><b><c/></b><d><c/></d></a>").unwrap();
        for (xpath, want) in [("/a//c", 2), ("/a/*[c]", 2)] {
            for e in [Engine::Rdbms, Engine::Twig, Engine::TwigStack] {
                let got = db.query_with(xpath, Translator::Unfold, e).unwrap();
                assert_eq!(got.nodes.len(), want, "{xpath} on {e}");
            }
        }
        let info = db.plan_info("/a//c", EngineChoice::twig()).unwrap();
        assert_eq!((info.translator, info.ops), (Translator::Unfold, 2), "one scan: {info:?}");
    }

    #[test]
    fn explain_renders_algebra() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let txt = db.explain("/db/e/p/n", Translator::PushUp).unwrap();
        assert!(txt.contains("σ[plabel="), "{txt}");
        let txt = db.explain("/db/e/p/n", Translator::DLabeling).unwrap();
        assert!(txt.contains("σ[tag="), "{txt}");
    }

    #[test]
    fn stats_reflect_document() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let stats = db.stats(SAMPLE.len());
        assert_eq!(stats.nodes, 11);
        assert_eq!(stats.depth, 4);
        assert_eq!(stats.tags, 6);
    }

    #[test]
    fn bad_inputs_error() {
        assert!(matches!(BlasDb::load("<a><b></a>"), Err(BlasError::Parse(_))));
        let db = BlasDb::load(SAMPLE).unwrap();
        assert!(matches!(db.query("e/p", EngineChoice::auto()), Err(BlasError::XPath(_))));
        // Spacer wildcards now translate under Split (paper extension);
        // descendant-axis wildcards still need Unfold.
        assert_eq!(
            db.query_with("/db/e/*/n", Translator::Split, Engine::Rdbms).unwrap().nodes.len(),
            2
        );
        assert_eq!(
            db.query_with("/db/*/n", Translator::Split, Engine::Rdbms).unwrap().nodes.len(),
            0,
            "wrong depth matches nothing"
        );
        assert!(matches!(
            db.query_with("//*/n", Translator::Split, Engine::Rdbms),
            Err(BlasError::Translate(_))
        ));
        // Wildcards work through Unfold.
        assert_eq!(db.query_with("/db/e/*/n", Translator::Unfold, Engine::Rdbms).unwrap().nodes.len(), 2);
    }

    #[test]
    fn engine_choices_agree_including_parallel() {
        // Concurrency comes from concurrent callers: every choice, run
        // from four threads at once, answers what `auto` answers alone.
        let db = BlasDb::load(SAMPLE).unwrap();
        let q = "/db/e[r/y]/p/n";
        let expected = db.query(q, EngineChoice::auto()).unwrap();
        let choices = [
            EngineChoice::rdbms(),
            EngineChoice::twig(),
            EngineChoice::twigstack(),
            EngineChoice::rdbms().with_translator(Translator::DLabeling),
        ];
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for choice in choices {
                        let got = db.query(q, choice).unwrap();
                        assert_eq!(got.nodes, expected.nodes, "{choice:?}");
                    }
                });
            }
        });
    }

    #[test]
    fn parallel_queries_answer_like_one_call() {
        // Whole queries run at once on other threads — a server's
        // workers — answer what a direct call does, counters included.
        let xml = format!("<db>{}</db>", "<e><n>x</n></e>".repeat(10_000));
        let db = BlasDb::load(&xml).unwrap();
        let seq = db.query("/db/e/n", EngineChoice::rdbms()).unwrap();
        std::thread::scope(|s| {
            let tasks: Vec<_> = (0..3)
                .map(|_| s.spawn(|| db.query("/db/e/n", EngineChoice::rdbms())))
                .collect();
            for task in tasks {
                let par = task.join().unwrap().unwrap();
                assert_eq!(par.nodes, seq.nodes);
                assert_eq!(par.stats.elements_visited, seq.stats.elements_visited);
                assert_eq!(par.stats.d_joins, seq.stats.d_joins);
            }
        });
    }

    #[test]
    fn query_result_round_trips_to_records() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let result = db.query("//y", EngineChoice::auto()).unwrap();
        let records = db.records(&result);
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| db.tags().name(r.tag) == "y"));
    }

    #[test]
    fn open_mapped_answers_like_owned() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let path = std::env::temp_dir()
            .join(format!("blas_db_mapped_{}.snap", std::process::id()));
        std::fs::write(&path, db.to_snapshot()).unwrap();
        let mapped = BlasDb::open_mapped(&path).unwrap();
        assert!(mapped.store().is_mapped());
        for q in ["/db/e/p/n", "//y", "/db/e[r/y='2001']/p/n"] {
            for choice in [
                EngineChoice::auto(),
                EngineChoice::twig(),
                EngineChoice::rdbms().with_translator(Translator::DLabeling),
            ] {
                let a = db.query(q, choice).unwrap();
                let b = mapped.query(q, choice).unwrap();
                assert_eq!(a.nodes, b.nodes, "{q} {choice:?}");
                assert_eq!(db.texts(&a), mapped.texts(&b), "{q} {choice:?}");
            }
        }
        // Lazily derived views agree with the owned ones.
        assert_eq!(mapped.labels(), db.labels());
        assert_eq!(mapped.document().len(), db.document().len());
        assert_eq!(mapped.stats(SAMPLE.len()).nodes, 11);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_mapped_missing_file_is_io_error() {
        let err = BlasDb::open_mapped("/no/such/dir/file.snap");
        assert!(matches!(err, Err(BlasError::Io(_))), "{err:?}");
    }

    // SAMPLE's D-label units, for the mutation tests (text data take a
    // unit too): db=[0,25], e¹=[1,12] (p=[2,6], n=[3,5], r=[7,11],
    // y=[8,10]), e²=[13,24] (p=[14,18], n=[15,17], r=[19,23],
    // y=[20,22]).

    #[test]
    fn mutations_update_query_results() {
        let db = BlasDb::load(SAMPLE).unwrap();
        assert_eq!(db.generation(), 0);
        let before = db.snapshot();
        db.delete(1).unwrap(); // the whole first <e>
        db.retag(20, "n").unwrap(); // the remaining <y> → <n>
        db.insert_subtree(13, "<r><y>2024</y></r>").unwrap(); // under <e²>
        assert_eq!(db.generation(), 3);
        // The pinned pre-mutation view is unaffected.
        assert_eq!(before.generation(), 0);
        assert_eq!(before.query("/db/e/p/n", EngineChoice::auto()).unwrap().nodes.len(), 2);
        // Current state: first <e> gone, its sibling's <y> renamed,
        // one <r><y>2024</y></r> appended.
        let r = db.query("/db/e/p/n", EngineChoice::auto()).unwrap();
        assert_eq!(db.texts(&r), [Some("hemoglobin".to_string())]);
        let y = db.query("//y", EngineChoice::auto()).unwrap();
        assert_eq!(db.texts(&y), [Some("2024".to_string())]);
        let renamed = db.query("/db/e/r/n", EngineChoice::auto()).unwrap();
        assert_eq!(db.texts(&renamed), [Some("1999".to_string())]);
        let stats = db.delta_stats();
        assert_eq!(stats.generation, 3);
        assert!(stats.inserted > 0 && stats.deleted > 0);
        assert_eq!(stats.retags, 1);
    }

    #[test]
    fn compaction_and_snapshots_preserve_the_mutated_state() {
        let db = BlasDb::load(SAMPLE).unwrap();
        db.delete(1).unwrap();
        db.insert_subtree(13, "<r><y>2024</y></r>").unwrap();
        let q = "/db/e[r/y='2024']/p/n";
        let expect = db.query(q, EngineChoice::auto()).unwrap().nodes;
        assert_eq!(expect.len(), 1);
        // Round trip through a snapshot: the delta folds into the bytes.
        let rebuilt = BlasDb::from_snapshot(&db.to_snapshot()).unwrap();
        assert_eq!(rebuilt.query(q, EngineChoice::auto()).unwrap().nodes, expect);
        // In-place compaction: same answers, delta gone, generation
        // bumped exactly once (a noop compaction does not publish).
        let g = db.generation();
        let after = db.compact();
        assert_eq!(after, g + 1);
        assert_eq!(db.compact(), after);
        let stats = db.delta_stats();
        assert_eq!((stats.inserted, stats.deleted, stats.retags), (0, 0, 0));
        assert_eq!(stats.compactions, 1);
        assert_eq!(db.query(q, EngineChoice::auto()).unwrap().nodes, expect);
        // The compacted columns serialize to the same bytes as the
        // delta-layered ones did.
        assert_eq!(db.to_snapshot(), rebuilt.to_snapshot());
    }

    #[test]
    fn invalid_mutations_are_rejected_with_typed_errors() {
        let db = BlasDb::load(SAMPLE).unwrap();
        // Unknown tags: the P-label domain is fixed at load.
        assert!(matches!(db.insert_subtree(0, "<zz/>"), Err(BlasError::Mutation(_))));
        assert!(matches!(db.retag(20, "zz"), Err(BlasError::Mutation(_))));
        // Off the rightmost spine: unit positions are append-only.
        assert!(matches!(db.insert_subtree(1, "<r/>"), Err(BlasError::Mutation(_))));
        // Too deep: <y> sits at level 4 and the domain has H = 5
        // digits, so a child at level 5 has no anchored source path.
        assert!(matches!(db.insert_subtree(20, "<n/>"), Err(BlasError::Mutation(_))));
        // Unknown target, and the undeletable root.
        assert!(matches!(db.delete(999), Err(BlasError::Mutation(_))));
        assert!(matches!(db.delete(0), Err(BlasError::Mutation(_))));
        // Every rejection left the database untouched.
        assert_eq!(db.generation(), 0);
        assert_eq!(db.query("/db/e/p/n", EngineChoice::auto()).unwrap().nodes.len(), 2);
    }

    #[test]
    fn mutations_invalidate_cached_plans_by_generation() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let q = "/db/e/p/n";
        db.query(q, EngineChoice::auto()).unwrap();
        db.query(q, EngineChoice::auto()).unwrap();
        let s = db.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        db.retag(20, "n").unwrap();
        db.query(q, EngineChoice::auto()).unwrap();
        let s = db.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 2), "a new generation is a cache miss");
        assert_eq!(s.entries, 1, "superseded generations were pruned");
    }

    #[test]
    fn plan_cache_evicts_bounded_not_wholesale() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let choice = EngineChoice::rdbms();
        let over = PLAN_CACHE_CAP + 77;
        for i in 0..over {
            db.query(&format!("/db/e[r/y='k{i}']/p/n"), choice).unwrap();
        }
        let s = db.plan_cache_stats();
        assert_eq!(s.entries, PLAN_CACHE_CAP, "the cap holds exactly");
        assert_eq!(s.evictions as usize, over - PLAN_CACHE_CAP, "one eviction per overflow");
        assert_eq!(s.misses as usize, over);
        // The regression this guards: the old wholesale clear() would
        // have dumped every hot plan at the cap. Bounded eviction
        // keeps recent entries hot (a repeat is a hit) and drops only
        // the oldest (a repeat of the first query re-prepares).
        db.query(&format!("/db/e[r/y='k{}']/p/n", over - 1), choice).unwrap();
        assert_eq!(db.plan_cache_stats().hits, s.hits + 1, "recent entries survive the cap");
        db.query("/db/e[r/y='k0']/p/n", choice).unwrap();
        let s2 = db.plan_cache_stats();
        assert_eq!(s2.misses as usize, over + 1, "the oldest entry was the one evicted");
        assert_eq!(s2.entries, PLAN_CACHE_CAP);
    }

    #[test]
    fn plan_cache_eviction_prefers_superseded_generations() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let choice = EngineChoice::rdbms();
        let pinned = db.snapshot(); // generation 0
        db.retag(20, "n").unwrap(); // generation 1
        // Superseded-generation entries can only exist when a pinned
        // snapshot re-prepares after a publish; make eight of them.
        for i in 0..8 {
            pinned.query(&format!("/db/e[r/y='o{i}']/p/n"), choice).unwrap();
        }
        // Fill the rest of the cache with live-generation plans.
        for i in 0..PLAN_CACHE_CAP - 8 {
            db.query(&format!("/db/e[r/n='l{i}']/p/n"), choice).unwrap();
        }
        assert_eq!(db.plan_cache_stats().entries, PLAN_CACHE_CAP);
        // The overflowing insert sheds all eight superseded entries
        // and not a single live one.
        let before = db.plan_cache_stats();
        db.query("/db/e/p/n", choice).unwrap();
        let s = db.plan_cache_stats();
        assert_eq!(s.evictions, before.evictions + 8);
        assert_eq!(s.entries, PLAN_CACHE_CAP - 8 + 1);
        db.query("/db/e[r/n='l0']/p/n", choice).unwrap();
        assert_eq!(db.plan_cache_stats().hits, s.hits + 1, "live entries survived");
        pinned.query("/db/e[r/y='o0']/p/n", choice).unwrap();
        assert_eq!(db.plan_cache_stats().misses, s.misses + 1, "superseded entries are gone");
    }

    #[test]
    fn poisoned_internal_locks_recover_instead_of_propagating() {
        // The regression this guards: one panicking holder used to
        // leave `.lock().unwrap()` panicking for every later caller,
        // turning a single bad query into a permanently dead database
        // under a serving workload.
        let db = Arc::new(BlasDb::load(SAMPLE).unwrap());
        db.query("/db/e/p/n", EngineChoice::auto()).unwrap();
        let poison = Arc::clone(&db);
        std::thread::spawn(move || {
            let _cache = poison.plan_cache.lock().unwrap();
            let _writer = poison.writer.lock().unwrap();
            let _hooks = poison.publish_hooks.lock().unwrap();
            let _cur = poison.current.write().unwrap();
            panic!("injected panic while holding every BlasDb lock");
        })
        .join()
        .unwrap_err();
        assert!(db.plan_cache.is_poisoned() && db.writer.is_poisoned());
        // Cached and uncached reads, stats, mutations, publication and
        // compaction all recover the guards and keep working.
        assert_eq!(db.query("/db/e/p/n", EngineChoice::auto()).unwrap().nodes.len(), 2);
        assert_eq!(db.query("//y", EngineChoice::auto()).unwrap().nodes.len(), 2);
        assert!(db.plan_cache_stats().hits >= 1);
        db.on_publish(|_| {});
        db.retag(20, "n").unwrap();
        assert_eq!(db.generation(), 1);
        assert_eq!(db.compact(), 2);
        assert_eq!(db.query("/db/e/r/n", EngineChoice::auto()).unwrap().nodes.len(), 1);
    }

    #[test]
    fn publish_hooks_fire_for_every_publication() {
        let db = BlasDb::load(SAMPLE).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        db.on_publish(move |g| sink.lock().unwrap().push(g));
        db.delete(1).unwrap();
        db.retag(20, "n").unwrap();
        db.insert_subtree(13, "<r><y>2024</y></r>").unwrap();
        db.compact();
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3, 4]);
        // A noop compaction publishes nothing and fires no hook.
        db.compact();
        assert_eq!(seen.lock().unwrap().len(), 4);
        // A rejected mutation publishes nothing and fires no hook.
        assert!(db.insert_subtree(0, "<zz/>").is_err());
        assert_eq!(seen.lock().unwrap().len(), 4);
    }
}
