//! Property tests for the open-addressing lookup tables.
//!
//! * Model agreement: `OaTable` behaves exactly like a `BTreeMap`
//!   reference under arbitrary insert/remove/lookup interleavings —
//!   including backward-shift deletion, which must never strand a key.
//! * Cache transparency: routing lookups through a `LookupCache` (any
//!   eviction scheme, any depth) returns exactly what the bare table
//!   returns; the cache changes cost, never answers.
//! * Probe-log sanity: every recorded probe sequence is non-empty and
//!   the table's mean probe count stays at least one.
//! * Computed layout: `PlacementIndex::build(n, key_of)` names, for every
//!   key, exactly the probe run a lookup in the table loaded with those
//!   keys logs — long clusters and wrap-around included.

use std::collections::BTreeMap;

use netstack::table::{mix64, CacheScheme, LookupCache, OaTable, PlacementIndex, StableHash};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

proptest! {
    /// The OA table and a BTreeMap reference stay in lockstep under a
    /// random op tape: same return values, same length, and at the end
    /// the same full key → value mapping (iteration included).
    #[test]
    fn oa_table_matches_btreemap_model(
        ops in proptest::collection::vec((0u8..3, 0u16..200, 0u32..10_000), 1..400),
    ) {
        let mut table: OaTable<u16, u32> = OaTable::new();
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for &(op, key, value) in &ops {
            match op {
                0 => prop_assert_eq!(table.insert(key, value), model.insert(key, value)),
                1 => prop_assert_eq!(table.remove(&key), model.remove(&key)),
                _ => prop_assert_eq!(table.get(&key), model.get(&key)),
            }
            prop_assert_eq!(table.len(), model.len());
        }
        for (k, v) in &model {
            prop_assert_eq!(table.get(k), Some(v), "key {} lost after churn", k);
        }
        let mut seen: Vec<(u16, u32)> = table.iter().map(|(k, v)| (*k, *v)).collect();
        seen.sort_unstable();
        let want: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(seen, want);
    }

    /// A lookup cache in front of the table — LRU, FIFO, or random
    /// eviction, any depth — never changes a lookup's answer, and its
    /// hit/miss counters account for every probe of it.
    #[test]
    fn lookup_cache_is_transparent(
        keys in proptest::collection::vec(0u16..64, 1..300),
        slots in 1usize..8,
        seed in 1u64..1000,
    ) {
        let mut table: OaTable<u16, u32> = OaTable::new();
        for k in 0u16..48 {
            table.insert(k, k as u32 * 3 + 1);
        }
        for scheme in [CacheScheme::Lru, CacheScheme::Fifo, CacheScheme::Random] {
            let mut cache: LookupCache<u16, u32> = LookupCache::new(scheme, slots, seed);
            for &k in &keys {
                let cached = match cache.get(&k) {
                    Some(v) => Some(v),
                    None => match table.get(&k).copied() {
                        Some(v) => {
                            cache.insert(k, v);
                            Some(v)
                        }
                        None => None,
                    },
                };
                prop_assert_eq!(cached, table.get(&k).copied(), "scheme {:?}", scheme);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, keys.len() as u64);
        }
    }

    /// Probe logs are recorded for every mutating lookup, and strided
    /// backward-shift removals keep all survivors reachable.
    #[test]
    fn probe_log_and_backward_shift_survive_churn(
        n in 1usize..200,
        remove_stride in 1usize..7,
        seed in 1u64..1000,
    ) {
        let mut table: OaTable<u64, usize> = OaTable::with_capacity(n);
        for i in 0..n {
            table.insert(mix64(seed ^ i as u64), i);
            prop_assert!(!table.last_probes().is_empty(), "insert {} logged no probes", i);
        }
        for i in (0..n).step_by(remove_stride) {
            prop_assert_eq!(table.remove(&mix64(seed ^ i as u64)), Some(i));
        }
        for i in 0..n {
            let got = table.get_mut(&mix64(seed ^ i as u64)).map(|v| *v);
            if i % remove_stride == 0 {
                prop_assert_eq!(got, None, "removed key {} still resolves", i);
            } else {
                prop_assert_eq!(got, Some(i), "survivor {} lost to backward shift", i);
                prop_assert!(!table.last_probes().is_empty());
            }
        }
        prop_assert!(table.mean_probes() >= 1.0);
    }

    /// Real keys under the real hash: the index agrees with the table
    /// at every length, on both sides of the capacity steps.
    #[test]
    fn placement_index_matches_the_loaded_table(
        len_pick in 0usize..6,
        free_len in 0usize..300,
        seed in 1u64..1000,
    ) {
        let len = [0, 1, 7, 8, 1_000, free_len][len_pick];
        // `mix64` is a bijection: distinct `i` give distinct keys.
        let keys: Vec<u64> = (0..len).map(|i| mix64(seed ^ i as u64)).collect();
        index_matches_table(&keys)?;
    }

    /// Chosen hashes: every key homes into one narrow window — a single
    /// slot (`spread` 1: the last key sits `len - 1 >= 300` slots from
    /// home, past what a `u8` holds) or a few adjacent ones — placed
    /// anywhere in the table, the last slots included, so the cluster
    /// runs off the end and wraps.
    #[test]
    fn placement_index_matches_the_loaded_table_under_adversarial_hashes(
        len in 300usize..700,
        spread in 1u64..6,
        from_end in 0u64..1200,
        noise in 1u64..1000,
    ) {
        let capacity = OaTable::<Forced, ()>::with_capacity(len).capacity() as u64;
        let window = (capacity - 1).saturating_sub(from_end % capacity);
        let keys: Vec<Forced> = (0..len as u64)
            .map(|id| Forced {
                id,
                // High bits differ per key; the masked home does not.
                hash: (mix64(noise ^ id) & !(capacity - 1)) | ((window + id % spread) % capacity),
            })
            .collect();
        let index = index_matches_table(&keys)?;
        let longest = (0..len)
            .filter_map(|i| index.probes(i, &keys[i]).map(Iterator::count))
            .max();
        prop_assert!(longest >= Some(len / spread as usize), "cluster of {:?}", longest);
    }
}

/// A key whose hash the test picks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Forced {
    id: u64,
    hash: u64,
}

impl StableHash for Forced {
    fn stable_hash(&self) -> u64 {
        self.hash
    }
}

/// The index over `keys` (pairwise distinct) against the reference:
/// `OaTable::with_capacity(n)`, `insert` in order, then each key's
/// `get_mut` probe log. Hands the index back for further checks.
fn index_matches_table<K: StableHash + Eq + Clone>(
    keys: &[K],
) -> Result<PlacementIndex, TestCaseError> {
    let index = PlacementIndex::build(keys.len(), |i| keys[i].clone());
    let mut table: OaTable<K, ()> = OaTable::with_capacity(keys.len());
    for key in keys {
        prop_assert!(table.insert(key.clone(), ()).is_none(), "keys are distinct");
    }
    prop_assert_eq!(index.capacity(), table.capacity());
    prop_assert_eq!(index.len(), table.len());
    prop_assert_eq!(index.is_empty(), table.is_empty());
    for (i, key) in keys.iter().enumerate() {
        prop_assert!(table.get_mut(key).is_some());
        let run: Option<Vec<u32>> = index.probes(i, key).map(Iterator::collect);
        prop_assert_eq!(
            run.as_deref(),
            Some(table.last_probes()),
            "key {} of {}",
            i,
            keys.len()
        );
    }
    if let Some(first) = keys.first() {
        prop_assert!(
            index.probes(keys.len(), first).is_none(),
            "past the last key"
        );
    }
    Ok(index)
}
