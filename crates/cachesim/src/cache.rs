//! A set-associative cache model with LRU replacement.
//!
//! The model tracks only tags (no contents): the simulators care about hit
//! or miss, never about the data itself. Direct-mapped caches — the paper's
//! configuration — are the 1-way special case and take a fast path with no
//! LRU bookkeeping.
//!
//! The tag store is one flat `Box<[u64]>` (structure-of-arrays), not a
//! `Vec` of per-set `Vec`s: every access is a single indexed load from one
//! contiguous allocation, the direct-mapped sweep loop vectorizes, and
//! the replay memo (see [`crate::replay`]) hashes and compares a state
//! straight from the slice.

use crate::addr::Addr;

/// The kind of memory reference, used for statistics attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (goes to the I-cache on split configurations).
    InstrFetch,
    /// Data load.
    Read,
    /// Data store (write-allocate).
    Write,
}

/// Static geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_size * associativity`.
    pub size_bytes: u64,
    /// Line (block) size in bytes. Must be a power of two.
    pub line_size: u64,
    /// Number of ways per set; 1 means direct-mapped.
    pub associativity: u32,
}

impl CacheConfig {
    /// A direct-mapped cache of `size_bytes` with `line_size`-byte lines.
    pub const fn direct_mapped(size_bytes: u64, line_size: u64) -> Self {
        CacheConfig {
            size_bytes,
            line_size,
            associativity: 1,
        }
    }

    /// Number of sets implied by the geometry.
    pub const fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_size * self.associativity as u64)
    }

    /// Number of lines the cache can hold.
    pub const fn num_lines(&self) -> u64 {
        // analyze::allow(panic-path, reason = "cache geometry (line size, set count) is validated nonzero at configuration")
        self.size_bytes / self.line_size
    }

    fn validate(&self) {
        assert!(self.line_size.is_power_of_two(), "line size must be a power of two");
        assert!(self.associativity >= 1, "associativity must be at least 1");
        assert!(
            self.size_bytes
                .is_multiple_of(self.line_size * self.associativity as u64),
            "cache size must be a multiple of line_size * associativity"
        );
        assert!(self.num_sets() >= 1, "cache must have at least one set");
    }
}

/// Hit/miss counters, broken down by access kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub read_misses: u64,
    pub write_misses: u64,
    pub fetch_misses: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses that missed; 0 for an untouched cache.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }

    /// Adds another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.fetch_misses += other.fetch_misses;
    }
}

/// The tag value of an invalid (empty) way. Line numbers never reach it:
/// that would require a byte address above 2^64.
const INVALID: u64 = u64::MAX;

/// A tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * ways + way]` holds the line number (`addr / line_size`)
    /// cached in that way, or [`INVALID`] for an empty way. Ways are kept
    /// in LRU order: way 0 is most recently used.
    tags: Box<[u64]>,
    stats: CacheStats,
    line_shift: u32,
    set_mask: u64,
    /// Whether `num_sets` is a power of two (mask indexing vs modulo).
    pow2_sets: bool,
    ways: usize,
}

impl Cache {
    /// Builds an empty (all-invalid) cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let num_sets = cfg.num_sets();
        let ways = cfg.associativity as usize;
        Cache {
            tags: vec![INVALID; (num_sets as usize) * ways].into_boxed_slice(),
            stats: CacheStats::default(),
            line_shift: cfg.line_size.trailing_zeros(),
            set_mask: num_sets - 1,
            pow2_sets: num_sets.is_power_of_two(),
            ways,
            cfg,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated since construction or the last [`Cache::reset_stats`].
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the hit/miss counters without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line (cold cache) without touching the counters.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.pow2_sets {
            (line & self.set_mask) as usize
        } else {
            // analyze::allow(panic-path, reason = "cache geometry (line size, set count) is validated nonzero at configuration")
            (line % self.cfg.num_sets()) as usize
        }
    }

    /// Touches the single line containing `addr`; returns `true` on hit.
    ///
    /// On a miss the line is brought in, evicting the LRU way of its set.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> bool {
        let line = addr >> self.line_shift;
        self.access_line(line, kind)
    }

    /// Touches a line identified by its line number (`addr / line_size`).
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> bool {
        let set_idx = self.set_index(line);

        // Fast path for direct-mapped caches: a set is a single way.
        if self.ways == 1 {
            // set_index is always < num_sets == tags.len() for 1-way geometry.
            let slot = &mut self.tags[set_idx];
            let hit = *slot == line;
            if hit {
                self.stats.hits += 1;
            } else {
                *slot = line;
                self.record_miss(kind);
            }
            return hit;
        }

        let base = set_idx * self.ways;
        // analyze::allow(panic-path, reason = "base + ways <= tags.len() by construction of the flat tag array")
        let set = &mut self.tags[base..base + self.ways];
        if let Some(pos) = set.iter().position(|&w| w == line) {
            // Hit: rotate to the MRU position.
            // analyze::allow(panic-path, reason = "pos was found by iterating this same way list just above")
            set[..=pos].rotate_right(1);
            self.stats.hits += 1;
            true
        } else {
            // Miss: evict LRU (last), insert at MRU.
            set.rotate_right(1);
            if let Some(mru) = set.first_mut() {
                *mru = line;
            }
            self.record_miss(kind);
            false
        }
    }

    /// Touches every line overlapping `[addr, addr + size)`; returns the
    /// number of misses incurred.
    #[inline]
    pub fn access_range(&mut self, addr: Addr, size: u64, kind: AccessKind) -> u64 {
        if size == 0 {
            return 0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + size - 1) >> self.line_shift;
        if self.ways == 1 && self.pow2_sets {
            return self.sweep_direct_mapped(first, last - first + 1, kind);
        }
        let mut misses = 0;
        for line in first..=last {
            if !self.access_line(line, kind) {
                misses += 1;
            }
        }
        misses
    }

    /// Direct-mapped sweep of `total` consecutive lines from `first`.
    /// Consecutive lines occupy consecutive slots, so the range is a run
    /// to the end of the tag array and then the wrapped remainder (more
    /// laps only when it exceeds the cache); each run is one
    /// compare-count-store pass over a slice, and the per-line counter
    /// updates fold into one bulk add.
    #[inline]
    fn sweep_direct_mapped(&mut self, first: u64, total: u64, kind: AccessKind) -> u64 {
        let slots = self.tags.len();
        let mut misses = 0u64;
        let mut line = first;
        let mut left = total;
        while left > 0 {
            let start = (line & self.set_mask) as usize;
            let run = left.min((slots - start) as u64);
            let tags = self.tags.get_mut(start..start + run as usize).unwrap_or_default();
            debug_assert_eq!(tags.len() as u64, run, "the mask keeps start < tags.len()");
            for (slot, line) in tags.iter_mut().zip(line..) {
                misses += u64::from(*slot != line);
                *slot = line;
            }
            line += run;
            left -= run;
        }
        self.record_bulk(total - misses, misses, kind);
        misses
    }

    /// Touches every line of `lines`, in order, exactly like one
    /// [`Cache::access_line`] call per entry; returns the misses. The
    /// line-list counterpart of [`Cache::access_range`]: on a
    /// direct-mapped cache with a power-of-two set count each line is
    /// one branch-free compare-count-store on its slot (repeats and
    /// aliases see the stores before them, as the per-line walk does)
    /// and the counters take one bulk add; other geometries walk per
    /// line.
    pub fn access_lines(&mut self, lines: &[u64], kind: AccessKind) -> u64 {
        if self.ways != 1 || !self.pow2_sets {
            let mut misses = 0;
            for &line in lines {
                misses += u64::from(!self.access_line(line, kind));
            }
            return misses;
        }
        let tags = &mut self.tags[..];
        // One way per set: the slot count is the set count, so this is
        // `set_mask` in a form the bounds check below can see through.
        let mask = tags.len().wrapping_sub(1);
        let mut misses = 0u64;
        for &line in lines {
            if let Some(slot) = tags.get_mut(line as usize & mask) {
                misses += u64::from(*slot != line);
                *slot = line;
            }
        }
        self.record_bulk(lines.len() as u64 - misses, misses, kind);
        misses
    }

    /// The flattened tag array for the replay memo: one `u64` per way,
    /// sets in order, ways MRU-first, invalid ways as `u64::MAX`.
    pub(crate) fn export_tags(&self) -> &[u64] {
        &self.tags
    }

    /// Restores a tag array captured by [`Cache::export_tags`]. Counters
    /// are untouched.
    pub(crate) fn import_tags(&mut self, tags: &[u64]) {
        debug_assert_eq!(tags.len(), self.tags.len());
        self.tags.copy_from_slice(tags);
    }

    /// Adds the aggregate outcome of a memoized sweep to the counters,
    /// exactly as the equivalent per-line [`Cache::access_line`] calls
    /// would have.
    pub(crate) fn record_bulk(&mut self, hits: u64, misses: u64, kind: AccessKind) {
        self.stats.hits += hits;
        self.stats.misses += misses;
        match kind {
            AccessKind::InstrFetch => self.stats.fetch_misses += misses,
            AccessKind::Read => self.stats.read_misses += misses,
            AccessKind::Write => self.stats.write_misses += misses,
        }
    }

    /// Whether the line containing `addr` is currently resident (no
    /// side effects, no stats update).
    pub fn probe(&self, addr: Addr) -> bool {
        let line = addr >> self.line_shift;
        let base = self.set_index(line) * self.ways;
        // analyze::allow(panic-path, reason = "tag SoA is sized sets*ways; base comes from a masked set index")
        self.tags[base..base + self.ways].contains(&line)
    }

    fn record_miss(&mut self, kind: AccessKind) {
        self.stats.misses += 1;
        match kind {
            AccessKind::InstrFetch => self.stats.fetch_misses += 1,
            AccessKind::Read => self.stats.read_misses += 1,
            AccessKind::Write => self.stats.write_misses += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm_8k() -> Cache {
        Cache::new(CacheConfig::direct_mapped(8192, 32))
    }

    #[test]
    fn geometry() {
        let cfg = CacheConfig::direct_mapped(8192, 32);
        assert_eq!(cfg.num_sets(), 256);
        assert_eq!(cfg.num_lines(), 256);
        let cfg = CacheConfig {
            size_bytes: 8192,
            line_size: 32,
            associativity: 2,
        };
        assert_eq!(cfg.num_sets(), 128);
        assert_eq!(cfg.num_lines(), 256);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = dm_8k();
        assert!(!c.access(0x1000, AccessKind::Read));
        assert!(c.access(0x1000, AccessKind::Read));
        assert!(c.access(0x101f, AccessKind::Read), "same 32-byte line");
        assert!(!c.access(0x1020, AccessKind::Read), "next line is cold");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = dm_8k();
        // 0x0 and 0x2000 (8 KB apart) map to the same set in an 8 KB DM cache.
        assert!(!c.access(0x0, AccessKind::Read));
        assert!(!c.access(0x2000, AccessKind::Read));
        assert!(!c.access(0x0, AccessKind::Read), "evicted by the conflict");
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn two_way_avoids_conflict() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 8192,
            line_size: 32,
            associativity: 2,
        });
        assert!(!c.access(0x0, AccessKind::Read));
        assert!(!c.access(0x2000, AccessKind::Read));
        assert!(c.access(0x0, AccessKind::Read), "both fit in a 2-way set");
        assert!(c.access(0x2000, AccessKind::Read));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_size: 32,
            associativity: 2,
        });
        // Two sets; lines 0, 2, 4 all map to set 0.
        c.access_line(0, AccessKind::Read);
        c.access_line(2, AccessKind::Read);
        c.access_line(0, AccessKind::Read); // make line 0 MRU
        c.access_line(4, AccessKind::Read); // must evict line 2 (LRU)
        assert!(c.probe(0));
        assert!(!c.probe(2 * 32));
        assert!(c.probe(4 * 32));
    }

    #[test]
    fn four_way_lru_rotation_is_exact() {
        // Reference-check the rotate-based LRU against the textbook
        // remove/insert formulation on a dense access pattern.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 512,
            line_size: 32,
            associativity: 4,
        });
        // 4 sets x 4 ways; lines k, k+4, k+8, ... map to set k.
        let pattern = [0u64, 4, 8, 12, 0, 16, 4, 20, 8, 0, 12, 16, 20, 4];
        let mut model: Vec<u64> = Vec::new(); // MRU-first model of set 0
        let mut expect_hits = 0u64;
        for &line in &pattern {
            let hit = c.access_line(line, AccessKind::Read);
            if let Some(pos) = model.iter().position(|&l| l == line) {
                model.remove(pos);
                model.insert(0, line);
                expect_hits += 1;
                assert!(hit, "model says hit for line {line}");
            } else {
                if model.len() == 4 {
                    model.pop();
                }
                model.insert(0, line);
                assert!(!hit, "model says miss for line {line}");
            }
        }
        assert_eq!(c.stats().hits, expect_hits);
        for &l in &model {
            assert!(c.probe(l * 32), "line {l} should be resident");
        }
    }

    #[test]
    fn access_range_counts_lines() {
        let mut c = dm_8k();
        // 100 bytes starting at 10 spans lines 0..=3 (4 lines).
        assert_eq!(c.access_range(10, 100, AccessKind::Read), 4);
        assert_eq!(c.access_range(10, 100, AccessKind::Read), 0);
        assert_eq!(c.access_range(0, 0, AccessKind::Read), 0);
    }

    #[test]
    fn access_range_matches_per_line_walk() {
        // The bulk direct-mapped sweep must agree with access_line calls
        // on the return value, every counter and the tag array — also
        // when the range wraps the array or laps it more than once.
        let mut bulk = dm_8k();
        let mut walk = dm_8k();
        for (base, size) in [
            (10u64, 100u64),
            (0, 8192),
            (4096, 8192),
            (100, 1),
            (8000, 600),
            (8191, 2),
            (5000, 3 * 8192 + 7),
        ] {
            let m = bulk.access_range(base, size, AccessKind::Write);
            let first = base >> 5;
            let last = (base + size - 1) >> 5;
            let mut w = 0;
            for line in first..=last {
                if !walk.access_line(line, AccessKind::Write) {
                    w += 1;
                }
            }
            assert_eq!(m, w);
            assert_eq!(bulk.stats(), walk.stats());
            assert_eq!(bulk.export_tags(), walk.export_tags());
        }
    }

    /// `access_lines` against per-line `access_line` on the tag array
    /// itself, for 1-, 2- and 4-way geometries: seeded lists with
    /// repeats, runs that wrap the array, and slots left never filled.
    #[test]
    fn access_lines_matches_per_line_walk() {
        let mut x = 0x5eed_u64;
        for ways in [1u32, 2, 4] {
            let cfg = CacheConfig {
                size_bytes: 8192,
                line_size: 32,
                associativity: ways,
            };
            let mut bulk = Cache::new(cfg);
            let mut walk = Cache::new(cfg);
            for step in 0..200u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let start = x % 1024;
                let lines: Vec<u64> = match step % 3 {
                    0 => (start..start + x % 300).collect(),
                    1 => (0..x % 64).map(|i| start + i / 3).collect(),
                    _ => (0..x % 97).map(|i| (start * 7 + i * i * 31) % 1024).collect(),
                };
                let m = bulk.access_lines(&lines, AccessKind::InstrFetch);
                let w = lines
                    .iter()
                    .filter(|&&l| !walk.access_line(l, AccessKind::InstrFetch))
                    .count() as u64;
                assert_eq!(m, w, "{ways}-way step {step}");
                assert_eq!(bulk.stats(), walk.stats(), "{ways}-way step {step}");
                assert_eq!(bulk.export_tags(), walk.export_tags(), "{ways}-way step {step}");
                if step == 0 {
                    assert!(bulk.export_tags().contains(&INVALID), "cold slots are compared too");
                }
            }
        }
    }

    #[test]
    fn flush_makes_cold_but_keeps_stats() {
        let mut c = dm_8k();
        c.access(0x40, AccessKind::InstrFetch);
        c.flush();
        assert_eq!(c.stats().misses, 1);
        assert!(!c.access(0x40, AccessKind::InstrFetch));
        assert_eq!(c.stats().fetch_misses, 2);
    }

    #[test]
    fn miss_kind_attribution() {
        let mut c = dm_8k();
        c.access(0x00, AccessKind::InstrFetch);
        c.access(0x40, AccessKind::Read);
        c.access(0x80, AccessKind::Write);
        let s = c.stats();
        assert_eq!(s.fetch_misses, 1);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.misses, 3);
    }

    #[test]
    fn probe_has_no_side_effects() {
        let c = dm_8k();
        assert!(!c.probe(0x1234));
    }

    #[test]
    fn miss_rate() {
        let mut c = dm_8k();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0x0, AccessKind::Read);
        c.access(0x0, AccessKind::Read);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
