//! Cache-conflict metrics for code placements.
//!
//! In a direct-mapped cache, two lines that map to the same set evict each
//! other every time both are executed. For a group of regions that run
//! together (a layer, or a whole batch-resident stack slice), the number
//! of over-subscribed sets predicts the conflict misses per pass.

use cachesim::{CacheConfig, Region};

/// Result of a conflict analysis over a group of regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictReport {
    /// Number of cache sets used by at least one line.
    pub sets_used: u64,
    /// Number of sets claimed by more than one line.
    pub conflicting_sets: u64,
    /// Total excess lines: `sum(max(0, occupants - 1))`. In a
    /// direct-mapped cache each excess line forces at least one miss per
    /// pass over the group.
    pub excess_lines: u64,
    /// Total lines across all regions.
    pub total_lines: u64,
}

/// Computes per-set occupancy counts for a group of regions in a cache of
/// `cfg` geometry. The returned vector has one entry per cache set.
pub fn set_occupancy(regions: &[Region], cfg: &CacheConfig) -> Vec<u32> {
    let sets = cfg.num_sets();
    let mut occupancy = vec![0u32; sets as usize];
    for r in regions {
        for line in r.line_numbers(cfg.line_size) {
            occupancy[(line % sets) as usize] += 1;
        }
    }
    occupancy
}

/// Analyzes conflicts among `regions` placed in a cache of `cfg` geometry.
/// Associativity is accounted for: a set conflicts only when occupants
/// exceed the number of ways.
pub fn conflict_score(regions: &[Region], cfg: &CacheConfig) -> ConflictReport {
    let occupancy = set_occupancy(regions, cfg);
    let ways = cfg.associativity;
    let mut used = 0u64;
    let mut conflicting = 0u64;
    let mut excess = 0u64;
    for &o in &occupancy {
        if o > 0 {
            used += 1;
        }
        if o > ways {
            conflicting += 1;
            excess += (o - ways) as u64;
        }
    }
    ConflictReport {
        sets_used: used,
        conflicting_sets: conflicting,
        excess_lines: excess,
        total_lines: regions.iter().map(|r| r.lines(cfg.line_size)).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm8k() -> CacheConfig {
        CacheConfig::direct_mapped(8192, 32)
    }

    #[test]
    fn contiguous_region_smaller_than_cache_never_self_conflicts() {
        let r = [Region::new(0x10000, 6 * 1024)];
        let rep = conflict_score(&r, &dm8k());
        assert_eq!(rep.excess_lines, 0);
        assert_eq!(rep.conflicting_sets, 0);
        assert_eq!(rep.sets_used, 192);
    }

    #[test]
    fn aliased_regions_conflict_fully() {
        // Two 1 KB regions exactly one cache size apart: total aliasing.
        let r = [Region::new(0x0, 1024), Region::new(8192, 1024)];
        let rep = conflict_score(&r, &dm8k());
        assert_eq!(rep.conflicting_sets, 32);
        assert_eq!(rep.excess_lines, 32);
        assert_eq!(rep.total_lines, 64, "half the lines are excess");
    }

    #[test]
    fn associativity_absorbs_pairs() {
        let two_way = CacheConfig {
            size_bytes: 8192,
            line_size: 32,
            associativity: 2,
        };
        let r = [Region::new(0x0, 1024), Region::new(4096, 1024)];
        // In the 2-way cache (4096-byte stride per way set range)…
        let rep = conflict_score(&r, &two_way);
        assert_eq!(rep.excess_lines, 0, "two-way absorbs a pair of aliases");
        // …but a third alias conflicts.
        let r3 = [
            Region::new(0x0, 1024),
            Region::new(4096, 1024),
            Region::new(8192, 1024),
        ];
        let rep = conflict_score(&r3, &two_way);
        assert_eq!(rep.excess_lines, 32);
    }

    #[test]
    fn occupancy_counts_every_line() {
        let r = [Region::new(0, 64), Region::new(8192, 32)];
        let occ = set_occupancy(&r, &dm8k());
        assert_eq!(occ[0], 2); // line 0 and its alias
        assert_eq!(occ[1], 1);
        assert_eq!(occ.iter().map(|&x| x as u64).sum::<u64>(), 3);
    }

    #[test]
    fn empty_input() {
        let rep = conflict_score(&[], &dm8k());
        assert_eq!(rep.total_lines, 0);
        assert_eq!(rep.excess_lines, 0);
    }
}
