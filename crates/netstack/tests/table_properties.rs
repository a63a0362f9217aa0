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
//! * Bulk load: `extend(items)` is `for (k, v) in items { insert(k, v) }`
//!   in everything a caller can observe — layout, growth, probe log.

use std::collections::BTreeMap;

use netstack::table::{mix64, CacheScheme, LookupCache, OaTable};
use proptest::prelude::*;

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

    /// `extend` leaves the table exactly as the same items `insert`ed one
    /// by one do: slot layout (`iter()` order), `len`, `capacity` (so the
    /// growth points), the last operation's probe log and the mean probe
    /// count. Lengths sit on both sides of the 32-entry block; a small
    /// key space puts duplicate keys inside one block; an empty start
    /// grows at 7, 14, 28, … entries — in the middle of blocks.
    #[test]
    fn extend_is_repeated_insert(
        start in 0usize..3,
        len_pick in 0usize..7,
        free_len in 0usize..200,
        key_space in 1u64..1500,
        seed in 1u64..1000,
    ) {
        let len = [0, 1, 31, 32, 33, 1_000, free_len][len_pick];
        let items: Vec<(u64, u32)> = (0..len)
            .map(|i| (mix64(mix64(seed ^ i as u64) % key_space), i as u32))
            .collect();
        let fresh = || -> OaTable<u64, u32> {
            match start {
                0 => OaTable::new(),
                1 => OaTable::with_capacity(len),
                _ => {
                    // Half full, sharing the key space: some items replace.
                    let mut t = OaTable::new();
                    for i in 0..len / 2 + 3 {
                        t.insert(mix64((i * 2) as u64 % key_space), u32::MAX);
                    }
                    t
                }
            }
        };
        let (mut one_by_one, mut bulk) = (fresh(), fresh());
        for &(k, v) in &items {
            one_by_one.insert(k, v);
        }
        bulk.extend(items.iter().copied());
        prop_assert_eq!(bulk.len(), one_by_one.len());
        prop_assert_eq!(bulk.capacity(), one_by_one.capacity());
        prop_assert_eq!(bulk.last_probes(), one_by_one.last_probes());
        prop_assert_eq!(bulk.mean_probes().to_bits(), one_by_one.mean_probes().to_bits());
        let layout = |t: &OaTable<u64, u32>| t.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>();
        prop_assert_eq!(layout(&bulk), layout(&one_by_one));
    }
}
