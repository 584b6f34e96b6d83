//! The one bounded, generation-keyed cache. The database's plan cache
//! and the server's result cache are both instances of it.
//!
//! ## Policy
//!
//! An entry is keyed by `(scope, key, generation)` ([`GenKey`]). The
//! generation in the key makes staleness impossible, so everything
//! here is about *occupancy*:
//!
//! - **Publish pruning** ([`GenCache::prune_superseded`]): when a scope
//!   publishes generation `g`, its entries below `g` are dropped — only
//!   a pinned snapshot could hit them again, and it simply recomputes.
//!   This is invalidation, not pressure; it is not an eviction.
//! - **Capacity** ([`GenCache::insert`]): an insert of a new key into a
//!   full cache first drops the inserting scope's superseded entries
//!   (a pinned reader may have put some back after the publish), then
//!   the **oldest entries by insertion** until there is room. Both
//!   count as evictions. Lookups never reorder anything: this is FIFO
//!   over insertions, deliberately not LRU, so a cycling workload
//!   larger than the cap degrades to bounded recomputation instead of
//!   thrashing on recency bookkeeping.
//!
//! ## Cost
//!
//! "Oldest" comes off an insertion-order queue, not a scan of the map:
//! a queue element is live while the map still holds its key under the
//! same stamp; a dead one (its key was re-inserted since) is skipped
//! when it reaches the front, and a prune that walks the map anyway
//! sweeps the queue with it. Whether a scope *has*
//! superseded entries is answered by a per-`(scope, generation)` entry
//! count, so the full-map `retain` runs only when it will remove
//! something. An insert at capacity is therefore O(1) amortized.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;

/// Key of a [`GenCache`] entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GenKey<K> {
    /// Which generation counter `generation` belongs to when one cache
    /// fronts several databases (a collection's document id); a cache
    /// over a single database uses `0`. Superseded-pruning never
    /// crosses scopes.
    pub scope: u32,
    /// What was asked.
    pub key: K,
    /// The generation the value was computed against.
    pub generation: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// Insertion stamp; pairs the slot with its element of `order`.
    stamp: u64,
}

/// A bounded map from [`GenKey`] to `V`; see the module docs for the
/// policy. Not synchronized — owners wrap it in their own mutex.
#[derive(Debug)]
pub struct GenCache<K, V> {
    cap: usize,
    map: HashMap<GenKey<K>, Slot<V>>,
    /// Insertion order, oldest first.
    order: VecDeque<(u64, GenKey<K>)>,
    /// Live entries per `(scope, generation)`.
    per_gen: BTreeMap<(u32, u64), usize>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Entries and queue elements touched by maintenance work; the
    /// O(1)-insert test reads it.
    #[cfg(test)]
    visited: u64,
}

impl<K: Hash + Eq + Clone, V> GenCache<K, V> {
    /// An empty cache holding at most `cap` entries (0 stores nothing).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
            per_gen: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            #[cfg(test)]
            visited: 0,
        }
    }

    /// Look `key` up, counting a hit or a miss.
    pub fn get(&mut self, key: &GenKey<K>) -> Option<&V> {
        let found = self.map.get(key);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found.map(|slot| &slot.value)
    }

    /// Store `value` under `key`, making room first if the cache is
    /// full. `live_gen` is the latest generation `key.scope` has
    /// published — which is *not* `key.generation` when a pinned
    /// snapshot inserts.
    pub fn insert(&mut self, key: GenKey<K>, value: V, live_gen: u64) {
        if self.cap == 0 {
            return;
        }
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            self.evictions += self.prune_superseded(key.scope, live_gen) as u64;
            while self.map.len() >= self.cap && self.evict_oldest() {}
        }
        self.clock += 1;
        let stamp = self.clock;
        self.order.push_back((stamp, key.clone()));
        let gen_slot = (key.scope, key.generation);
        if self.map.insert(key, Slot { value, stamp }).is_none() {
            *self.per_gen.entry(gen_slot).or_insert(0) += 1;
        } else if self.order.len() > 2 * self.map.len() + 16 {
            // Re-inserting a present key leaves its old queue element
            // dead; sweep before the dead outnumber the live.
            self.sweep_order();
        }
    }

    /// `scope` has published `live_gen`: drop its entries below it.
    /// Returns how many went — invalidations, not evictions (a full
    /// [`GenCache::insert`] counts the ones it sheds this way itself).
    pub fn prune_superseded(&mut self, scope: u32, live_gen: u64) -> usize {
        let superseded: Vec<(u32, u64)> = self
            .per_gen
            .range((scope, 0)..(scope, live_gen))
            .map(|(&slot, _)| slot)
            .collect();
        if superseded.is_empty() {
            return 0;
        }
        for slot in &superseded {
            self.per_gen.remove(slot);
        }
        let before = self.map.len();
        self.visit(before);
        self.map
            .retain(|k, _| k.scope != scope || k.generation >= live_gen);
        self.sweep_order();
        before - self.map.len()
    }

    /// Drop every entry (counters keep accumulating); returns how many.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.order.clear();
        self.per_gen.clear();
        n
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found their key.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that did not.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries removed by the capacity bound over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Remove the oldest live entry; false when the queue ran dry.
    fn evict_oldest(&mut self) -> bool {
        while let Some((stamp, key)) = self.order.pop_front() {
            self.visit(1);
            let gen_slot = (key.scope, key.generation);
            if let Entry::Occupied(slot) = self.map.entry(key) {
                if slot.get().stamp == stamp {
                    slot.remove();
                    match self.per_gen.get_mut(&gen_slot) {
                        Some(n) if *n > 1 => *n -= 1,
                        _ => drop(self.per_gen.remove(&gen_slot)),
                    }
                    self.evictions += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Drop the queue's dead elements.
    fn sweep_order(&mut self) {
        self.visit(self.order.len());
        let map = &self.map;
        self.order
            .retain(|(stamp, key)| map.get(key).is_some_and(|slot| slot.stamp == *stamp));
    }

    #[cfg(test)]
    fn visit(&mut self, n: usize) {
        self.visited += n as u64;
    }

    #[cfg(not(test))]
    fn visit(&mut self, _n: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn key(scope: u32, key: u32, generation: u64) -> GenKey<u32> {
        GenKey {
            scope,
            key,
            generation,
        }
    }

    /// The policy this cache replaced, written the way the plan cache
    /// and the result cache each wrote it: a stamp per entry, `retain`
    /// for superseded generations, `min_by_key` over the whole map for
    /// "oldest". Kept as the model test's oracle.
    struct Oracle {
        cap: usize,
        entries: HashMap<GenKey<u32>, u64>,
        clock: u64,
        evictions: u64,
    }

    impl Oracle {
        fn insert(&mut self, key: GenKey<u32>, live_gen: u64) {
            if self.cap == 0 {
                return;
            }
            if self.entries.len() >= self.cap && !self.entries.contains_key(&key) {
                let before = self.entries.len();
                let scope = key.scope;
                self.entries
                    .retain(|k, _| k.scope != scope || k.generation == live_gen);
                self.evictions += (before - self.entries.len()) as u64;
                while self.entries.len() >= self.cap {
                    let oldest = self
                        .entries
                        .iter()
                        .min_by_key(|(_, &stamp)| stamp)
                        .map(|(k, _)| k.clone());
                    match oldest {
                        Some(k) => {
                            self.entries.remove(&k);
                            self.evictions += 1;
                        }
                        None => break,
                    }
                }
            }
            self.clock += 1;
            self.entries.insert(key, self.clock);
        }

        fn publish(&mut self, scope: u32, live_gen: u64) -> usize {
            let before = self.entries.len();
            self.entries
                .retain(|k, _| k.scope != scope || k.generation >= live_gen);
            before - self.entries.len()
        }
    }

    /// Deterministic op stream (no dev-dependency for one generator).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    #[test]
    fn random_op_streams_match_the_retain_and_min_by_key_oracle() {
        for (seed, cap, key_space) in [
            (1u64, 1usize, 4u64),
            (2, 7, 12),
            (3, 16, 40),
            (4, 64, 70),
            (5, 0, 8),
        ] {
            let mut rng = Lcg(seed);
            let mut cache: GenCache<u32, u64> = GenCache::new(cap);
            let mut oracle = Oracle {
                cap,
                entries: HashMap::new(),
                clock: 0,
                evictions: 0,
            };
            let mut live = [0u64; 3];
            let (mut hits, mut misses) = (0u64, 0u64);
            for step in 0..6000 {
                let scope = rng.below(3) as u32;
                let live_gen = live[scope as usize];
                match rng.below(100) {
                    0..=59 => {
                        // Mostly at the live generation; sometimes a
                        // pinned reader one or two generations behind.
                        let behind = if rng.below(5) == 0 { rng.below(3) } else { 0 };
                        let k = key(
                            scope,
                            rng.below(key_space) as u32,
                            live_gen.saturating_sub(behind),
                        );
                        cache.insert(k.clone(), step, live_gen);
                        oracle.insert(k, live_gen);
                    }
                    60..=84 => {
                        let k = key(scope, rng.below(key_space) as u32, live_gen);
                        let want = oracle.entries.contains_key(&k);
                        assert_eq!(cache.get(&k).is_some(), want, "seed {seed} step {step}");
                        if want {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                    85..=96 => {
                        // A publish; one in four "forgets" its prune so
                        // at-capacity inserts meet superseded entries
                        // the hook did not already remove.
                        live[scope as usize] += 1;
                        if rng.below(4) != 0 {
                            let live_gen = live[scope as usize];
                            assert_eq!(
                                cache.prune_superseded(scope, live_gen),
                                oracle.publish(scope, live_gen),
                                "seed {seed} step {step}"
                            );
                        }
                    }
                    _ => {
                        if rng.below(8) == 0 {
                            assert_eq!(cache.clear(), oracle.entries.len());
                            oracle.entries.clear();
                        }
                    }
                }
                let survivors: BTreeSet<_> = cache
                    .map
                    .keys()
                    .map(|k| (k.scope, k.key, k.generation))
                    .collect();
                let expected: BTreeSet<_> = oracle
                    .entries
                    .keys()
                    .map(|k| (k.scope, k.key, k.generation))
                    .collect();
                assert_eq!(survivors, expected, "seed {seed} step {step}");
                assert_eq!(
                    cache.evictions(),
                    oracle.evictions,
                    "seed {seed} step {step}"
                );
                assert!(cache.len() <= cap);
                let counted: usize = cache.per_gen.values().sum();
                assert_eq!(counted, cache.len(), "per-generation counts drifted");
                assert!(
                    cache.order.len() <= 2 * cache.len() + 17,
                    "dead queue elements pile up"
                );
            }
            assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        }
    }

    #[test]
    fn an_insert_at_capacity_touches_one_entry_not_the_whole_cache() {
        const CAP: usize = 64 * 1024;
        let mut cache: GenCache<u32, ()> = GenCache::new(CAP);
        for i in 0..CAP as u32 {
            cache.insert(key(0, i, 7), (), 7);
        }
        assert_eq!((cache.len(), cache.evictions(), cache.visited), (CAP, 0, 0));
        for i in 0..1000u32 {
            cache.insert(key(0, CAP as u32 + i, 7), (), 7);
        }
        assert_eq!((cache.len(), cache.evictions()), (CAP, 1000));
        assert_eq!(cache.visited, 1000, "one queue pop per eviction, no scan");
        // A publish that supersedes nothing is a directory probe.
        assert_eq!(cache.prune_superseded(0, 7), 0);
        assert_eq!(cache.prune_superseded(1, 99), 0);
        assert_eq!(cache.visited, 1000);
        // The oldest went, the newest stayed.
        assert!(cache.get(&key(0, 999, 7)).is_none());
        assert!(cache.get(&key(0, 1000, 7)).is_some());
        assert!(cache.get(&key(0, CAP as u32 + 999, 7)).is_some());
    }

    #[test]
    fn superseded_pruning_stays_inside_its_scope() {
        let mut cache: GenCache<&str, u32> = GenCache::new(4);
        let k = |scope, key, generation| GenKey {
            scope,
            key,
            generation,
        };
        cache.insert(k(0, "a", 0), 1, 0);
        cache.insert(k(1, "a", 0), 2, 0);
        cache.insert(k(0, "b", 1), 3, 1);
        assert_eq!(cache.prune_superseded(0, 1), 1);
        assert_eq!(
            cache.get(&k(1, "a", 0)),
            Some(&2),
            "another scope's generation 0 is live"
        );
        assert_eq!(cache.get(&k(0, "a", 0)), None);
        assert_eq!(cache.evictions(), 0, "invalidation is not pressure");
        // Re-inserting a present key refreshes its age and replaces
        // its value without growing the cache.
        cache.insert(k(1, "a", 0), 20, 0);
        cache.insert(k(0, "c", 1), 4, 1);
        cache.insert(k(0, "d", 1), 5, 1);
        assert_eq!(cache.len(), 4);
        cache.insert(k(0, "e", 1), 6, 1);
        assert_eq!(cache.get(&k(0, "b", 1)), None, "the oldest insertion went");
        assert_eq!(
            cache.get(&k(1, "a", 0)),
            Some(&20),
            "the refreshed key did not"
        );
        assert_eq!(cache.evictions(), 1);
    }
}
