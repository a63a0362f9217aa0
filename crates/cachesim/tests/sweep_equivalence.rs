//! `Cache::access_range` and `Cache::access_lines` against their own
//! definition.
//!
//! A range access *is* the per-line accesses of every line the range
//! overlaps, in address order; a line-list access *is* the per-line
//! accesses of the list, in list order. The direct-mapped power-of-two arm
//! computes neither that way — it sweeps slice runs of the tag array, or
//! runs a compare-count-store pass over the list with one bulk counter
//! update — so the per-line walk through `access_line` is a free oracle:
//! two caches of one geometry, one driven by the bulk call, one by
//! `access_line`, must agree on the return value, on every `CacheStats`
//! field and on their contents after every operation of a random tape.
//!
//! Contents are compared through the public surface: the resident set by
//! `probe` over every line the tape could have touched, after each
//! operation; the LRU order within each set by flooding both caches with
//! the same fresh conflicting lines at the end and watching the old lines
//! leave in the same order.

use cachesim::{AccessKind, Cache, CacheConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const LINE: u64 = 32;
/// Tapes address `[0, SPAN)`: a few laps of the largest geometry, so
/// regions alias in every one of them.
const SPAN: u64 = 40 * 1024;

/// Direct-mapped power-of-two (the slice-run arm; the 4-set one wraps on
/// almost every region), direct-mapped with 96 and 3 sets (modulo
/// indexing), and 2- and 4-way with both kinds of set count.
const GEOMETRIES: [(u64, u32); 8] = [
    (8192, 1),
    (128, 1),
    (3072, 1),
    (96, 1),
    (8192, 2),
    (8192, 4),
    (3072, 2),
    (1536, 4),
];

fn kind(code: u8) -> AccessKind {
    match code {
        0 => AccessKind::InstrFetch,
        1 => AccessKind::Read,
        _ => AccessKind::Write,
    }
}

fn config(geometry: usize) -> CacheConfig {
    let (size_bytes, associativity) = GEOMETRIES[geometry];
    CacheConfig {
        size_bytes,
        line_size: LINE,
        associativity,
    }
}

/// Every line a tape can touch, plus the flood lines of
/// [`same_lru_order`].
fn universe(flood_rounds: u64, sets: u64) -> std::ops::Range<u64> {
    0..flood_base(sets) + flood_rounds * sets
}

/// First line number above the tape's span that maps to set 0.
fn flood_base(sets: u64) -> u64 {
    (2 * SPAN / LINE).next_multiple_of(sets)
}

fn resident(c: &Cache, lines: std::ops::Range<u64>) -> Vec<u64> {
    lines.filter(|&l| c.probe(l * LINE)).collect()
}

/// Floods every set with `ways` fresh lines, one round at a time: each
/// round evicts each set's current LRU line, so equal resident sets after
/// every round mean equal LRU orders before.
fn same_lru_order(bulk: &mut Cache, walk: &mut Cache) -> Result<(), TestCaseError> {
    let cfg = *bulk.config();
    let sets = cfg.num_sets();
    let ways = u64::from(cfg.associativity);
    for round in 0..ways {
        for set in 0..sets {
            let line = flood_base(sets) + round * sets + set;
            prop_assert_eq!(
                bulk.access_line(line, AccessKind::Read),
                walk.access_line(line, AccessKind::Read)
            );
        }
        prop_assert_eq!(
            resident(bulk, universe(ways, sets)),
            resident(walk, universe(ways, sets)),
            "LRU order diverged (flood round {}) on {:?}", round, cfg
        );
    }
    Ok(())
}

/// One line list of a tape: a consecutive run (wrapping the tag array
/// on most geometries), the same run with every line twice, or a seeded
/// scatter over the span that repeats and aliases at random.
fn line_list(start: u64, shape: u8, len: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..len as u64)
        .map(|i| match shape {
            0 => start + i,
            1 => start + i / 2,
            _ => {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % (SPAN / LINE)
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn access_range_is_the_per_line_walk(
        geometry in 0usize..GEOMETRIES.len(),
        tape in proptest::collection::vec(
            (0u64..SPAN, 0u8..4, 0u64..3 * 8192, 0u8..3),
            1..48,
        ),
    ) {
        let cfg = config(geometry);
        let sets = cfg.num_sets();
        let mut bulk = Cache::new(cfg);
        let mut walk = Cache::new(cfg);
        for &(base, shape, raw_len, k) in &tape {
            // Lengths 0 and 1, a message-sized region, and one that can
            // exceed the cache several times over; bases fall mid-line.
            let len = match shape {
                0 => 0,
                1 => 1,
                2 => 1 + raw_len % 600,
                _ => raw_len,
            };
            let got = bulk.access_range(base, len, kind(k));
            let mut want = 0;
            if len > 0 {
                for line in base / LINE..=(base + len - 1) / LINE {
                    if !walk.access_line(line, kind(k)) {
                        want += 1;
                    }
                }
            }
            prop_assert_eq!(got, want, "misses for [{}, +{}) on {:?}", base, len, cfg);
            prop_assert_eq!(bulk.stats(), walk.stats(), "stats after [{}, +{})", base, len);
            prop_assert_eq!(
                resident(&bulk, universe(0, sets)),
                resident(&walk, universe(0, sets)),
                "contents after [{}, +{}) on {:?}", base, len, cfg
            );
        }
        same_lru_order(&mut bulk, &mut walk)?;
    }

    #[test]
    fn access_lines_is_the_per_line_walk(
        geometry in 0usize..GEOMETRIES.len(),
        tape in proptest::collection::vec(
            (0u64..SPAN / LINE, 0u8..3, 0usize..600, any::<u64>(), 0u8..3),
            1..24,
        ),
    ) {
        let cfg = config(geometry);
        let sets = cfg.num_sets();
        let mut bulk = Cache::new(cfg);
        let mut walk = Cache::new(cfg);
        for &(start, shape, len, seed, k) in &tape {
            // Short tapes leave slots never filled; empty lists are in.
            let lines = line_list(start, shape, len, seed);
            let got = bulk.access_lines(&lines, kind(k));
            let mut want = 0;
            for &line in &lines {
                if !walk.access_line(line, kind(k)) {
                    want += 1;
                }
            }
            prop_assert_eq!(got, want, "misses for {} lines from {} on {:?}", len, start, cfg);
            prop_assert_eq!(bulk.stats(), walk.stats(), "stats after {} lines from {}", len, start);
            prop_assert_eq!(
                resident(&bulk, universe(0, sets)),
                resident(&walk, universe(0, sets)),
                "contents after {} lines from {} on {:?}", len, start, cfg
            );
        }
        same_lru_order(&mut bulk, &mut walk)?;
    }
}
