//! What a correct reply looks like.
//!
//! Expected counts come from `blas_engine::naive::evaluate`, a tree
//! walk over the parsed `Document` that shares no code with labels,
//! plans or joins. A wrong count is a failed operation, never a panic.

use crate::script::Script;
use blas_xml::Document;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const UNKNOWN: u64 = u64::MAX;

/// Expected match count per oracle slot.
#[derive(Debug)]
pub struct Oracle {
    expected: Vec<AtomicU64>,
}

impl Oracle {
    /// Evaluate the script's oracle slots on `doc`. Slots outside the
    /// sample start unknown; the first reply pins them, so the engine
    /// tokens that share a slot must still agree with each other.
    pub fn build(script: &Script, doc: &Document) -> Result<Oracle, String> {
        let expected: Vec<AtomicU64> = script
            .slots
            .iter()
            .map(|_| AtomicU64::new(UNKNOWN))
            .collect();
        for &slot in &script.oracle_slots {
            let xpath = &script.slots[slot];
            let tree = blas_xpath::parse(xpath).map_err(|e| format!("oracle: {xpath}: {e}"))?;
            let count = blas_engine::naive::evaluate(&tree, doc).len() as u64;
            expected[slot].store(count, Ordering::Relaxed);
        }
        Ok(Oracle { expected })
    }

    /// Is `count` the right answer for `slot`?
    pub fn check(&self, slot: usize, count: u64) -> bool {
        match self.expected[slot].compare_exchange(
            UNKNOWN,
            count,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => true,
            Err(pinned) => pinned == count,
        }
    }
}

/// `mixed_rw`: how many nodes the marker query matches at each
/// generation. The writer appends `(generation, count)` when a
/// mutation is acknowledged; generations it never saw (compactions)
/// keep the count of the one before. Readers can observe a generation
/// before the writer has recorded it, so marker replies are checked
/// after the run, against the finished model.
#[derive(Debug)]
pub struct MarkerModel {
    /// Ascending by generation.
    steps: Mutex<Vec<(u64, u64)>>,
}

impl MarkerModel {
    /// A model that starts at `generation` with `count` matches.
    pub fn new(generation: u64, count: u64) -> Self {
        MarkerModel {
            steps: Mutex::new(vec![(generation, count)]),
        }
    }

    /// The mutation that published `generation` left `count` matches.
    pub fn record(&self, generation: u64, count: u64) {
        let mut steps = self.steps.lock().expect("no holder panics");
        debug_assert!(steps.last().is_some_and(|&(g, _)| g < generation));
        steps.push((generation, count));
    }

    /// Expected marker count at `generation`; `None` before the model
    /// starts.
    pub fn count_at(&self, generation: u64) -> Option<u64> {
        let steps = self.steps.lock().expect("no holder panics");
        let idx = steps.partition_point(|&(g, _)| g <= generation);
        idx.checked_sub(1).map(|i| steps[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn compaction_generations_inherit_the_previous_count() {
        let m = MarkerModel::new(3, 0);
        m.record(4, 1); // insert
        m.record(6, 0); // generation 5 was a compaction; 6 a retag
        assert_eq!(m.count_at(2), None);
        assert_eq!(m.count_at(3), Some(0));
        assert_eq!(m.count_at(4), Some(1));
        assert_eq!(m.count_at(5), Some(1));
        assert_eq!(m.count_at(6), Some(0));
        assert_eq!(m.count_at(99), Some(0));
    }

    #[test]
    fn a_wrong_count_fails_and_tokens_must_agree() {
        let doc = Document::parse("<a><b/><b/><c/></a>").unwrap();
        let script = Script {
            reads: Vec::new(),
            slots: vec!["/a/b".into(), "/a/c".into()],
            oracle_slots: vec![0],
            clients: 1,
            per_client: Vec::new(),
            shared: false,
        };
        let o = Oracle::build(&script, &doc).unwrap();
        assert!(o.check(0, 2));
        assert!(!o.check(0, 3));
        // Slot 1 was not sampled: the first reply pins it.
        assert!(o.check(1, 1));
        assert!(o.check(1, 1));
        assert!(!o.check(1, 2));
    }

    #[test]
    fn the_fragment_is_invisible_to_the_hot_queries() {
        // mixed_rw checks the hot queries against counts taken before
        // any insert; that only holds if the fragment (retagged or not)
        // never matches them.
        let xml = blas_datagen::auction(1, 3);
        let before = Document::parse(&xml).unwrap();
        let cut = xml.rfind("</site>").unwrap();
        let retagged =
            crate::script::FRAGMENT.replace("item>", &format!("{}>", crate::script::RETAG_TO));
        let after = Document::parse(&format!(
            "{}{}{}</site>",
            &xml[..cut],
            crate::script::FRAGMENT,
            retagged
        ))
        .unwrap();
        let w = spec::workload(spec::MIXED_RW).unwrap();
        let script = crate::script::build(w, &before, 3, 2).unwrap();
        for xpath in &script.slots {
            let tree = blas_xpath::parse(xpath).unwrap();
            assert_eq!(
                blas_engine::naive::evaluate(&tree, &before).len(),
                blas_engine::naive::evaluate(&tree, &after).len(),
                "{xpath}"
            );
        }
        let marker = blas_xpath::parse(crate::script::MARKER_XPATH).unwrap();
        assert_eq!(blas_engine::naive::evaluate(&marker, &before).len(), 0);
        assert_eq!(blas_engine::naive::evaluate(&marker, &after).len(), 1);
    }
}
