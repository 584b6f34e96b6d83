//! # blas-engine — the query engines of the BLAS system (§4, §5)
//!
//! Every engine is a **lowering strategy plus an operator
//! configuration** over one shared physical-plan executor:
//!
//! * [`physical`] — the physical-plan IR: explicit operators
//!   (`ClusteredScan{SP|SD}` with its selection's predicates,
//!   `StructuralJoin`, `Union`, `Materialize`, `TwigStackMatch`) in a
//!   flat arena DAG, plus the three lowering strategies, each taking a
//!   [`BoundPlan`]: [`lower_plan`] for the relational engine (§5.2, the
//!   Fig. 11 operator shape: selections, semi-join D-joins, unions),
//!   [`lower_twig`] for the file-system engine (§5.3, the holistic
//!   bottom-up/top-down stack passes as a semi-join DAG) and
//!   [`lower_twigstack`]. The twig lowerings turn each union arm into a
//!   [`TwigPattern`] and lower the arms under one union.
//! * [`exec`] — the one executor: runs any physical plan in arena
//!   order, start to finish on the calling thread, with pooled buffers,
//!   and counts an unfiltered scan off the SP/SD run directories.
//! * [`twigstack`] — the literal TwigStack algorithm (Bruno et al.,
//!   SIGMOD'02) packaged as the executor's holistic match operator.
//! * [`stjoin`] — the structural-join kernels: for two start-sorted
//!   label lists, which ancestors/descendants participate in a
//!   containment (or exact-level) pair. A stackless sweep when every
//!   ancestor sits on one level, one merge pass with an ancestor stack
//!   otherwise.
//! * [`stream`] — zero-copy label streams over the columnar store's
//!   clustered runs, plus the pooled scratch buffers
//!   ([`ExecBuffers`](stream::ExecBuffers)) every operator of one
//!   execution shares.
//!
//! Every tuple pulled from storage increments
//! [`ExecStats::elements_visited`]; this is the deterministic
//! "Number of elements read" metric of Figs. 14–18.
//!
//! [`BoundPlan`]: blas_translate::BoundPlan

pub mod exec;
pub mod naive;
pub mod physical;
pub mod stats;
pub mod stjoin;
pub mod stream;
pub mod twigstack;

pub use physical::{lower_plan, lower_twig, lower_twigstack, PhysOp, PhysPlan, TwigPattern};
pub use stats::ExecStats;

#[cfg(test)]
mod fixture {
    //! The sample document the engine's unit tests share: three
    //! entries `e`, each with a classification `p/c/s` and one
    //! reference `r/f` (author `a`, year `y`, title `t`).

    use blas_labeling::{label_document, PLabelDomain};
    use blas_storage::NodeStore;
    use blas_translate::{
        bind, translate_dlabeling, translate_pushup, translate_split, translate_unfold, BoundPlan,
    };
    use blas_xml::{Document, SchemaGraph};
    use blas_xpath::parse;

    pub(crate) const SAMPLE: &str = concat!(
        "<db>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>2001</y><t>T1</t></f></r></e>",
        "<e><p><c><s>hb</s></c></p><r><f><a>Smith</a><y>1999</y><t>T2</t></f></r></e>",
        "<e><p><c><s>cyt</s></c></p><r><f><a>Evans</a><y>1999</y><t>T3</t></f></r></e>",
        "</db>"
    );

    /// The four translators, by the names [`Fixture::bind`] takes.
    pub(crate) const TRANSLATORS: [&str; 4] = ["dlabel", "split", "pushup", "unfold"];

    /// A document loaded into a store, with what binding a plan needs.
    pub(crate) struct Fixture {
        pub doc: Document,
        pub store: NodeStore,
        pub domain: PLabelDomain,
        pub schema: SchemaGraph,
    }

    impl Fixture {
        /// The [`SAMPLE`] document.
        pub(crate) fn sample() -> Fixture {
            Fixture::load(SAMPLE)
        }

        pub(crate) fn load(xml: &str) -> Fixture {
            let doc = Document::parse(xml).unwrap();
            let labels = label_document(&doc).unwrap();
            let store = NodeStore::build(&doc, &labels);
            let schema = SchemaGraph::infer(&doc);
            Fixture { domain: labels.domain, doc, store, schema }
        }

        /// Translate `xpath` with one of [`TRANSLATORS`] and bind it to
        /// the store.
        pub(crate) fn bind(&self, xpath: &str, translator: &str) -> BoundPlan {
            let q = parse(xpath).unwrap();
            let plan = match translator {
                "dlabel" => translate_dlabeling(&q),
                "split" => translate_split(&q),
                "pushup" => translate_pushup(&q),
                "unfold" => translate_unfold(&q, &self.schema),
                other => unreachable!("no translator {other}"),
            };
            bind(&plan.unwrap(), self.doc.tags(), &self.domain, &self.store.live_plabels())
        }
    }
}
