//! Shared second-level cache with a MESI-lite coherence cost model.
//!
//! The single-core experiments fold the whole miss path into one fixed
//! penalty (the paper's model). A multi-core simulation needs one more
//! level: per-core private L1s composed over a *shared, inclusive* L2
//! plus a coherence cost for mutable state that several cores touch —
//! the reassembly table, the signaling call table, and the descriptor
//! rings of inter-core hand-off queues.
//!
//! [`SharedL2`] deliberately does **not** own the per-core
//! [`Machine`](crate::Machine)s. Each core keeps a private, replay-
//! eligible machine (split L1s, no built-in L2) and the fabric is
//! layered on top: shared regions are accessed *only* through
//! [`SharedL2::read`]/[`SharedL2::write`], which simulate the L2 tag
//! array, track the last writing core per line, and charge the stall
//! cycles back to the accessing core via [`Machine::stall`]. Private
//! code and data keep going through the core's own caches with the
//! single-penalty miss path, so the existing footprint-replay memoizer
//! keeps working unchanged per core.
//!
//! The coherence model is the classic first-order cost accounting:
//! * a **read** of a line last written by another core pays a
//!   cache-to-cache `transfer` on top of the L2 lookup (the dirty line
//!   is forwarded by its owner);
//! * a **write** to a line previously written by another core pays an
//!   `invalidation` (the other copies are killed before this core gains
//!   exclusive ownership).
//!
//! Everything is deterministic: fixed costs, no timing races — the
//! event loop that drives the cores decides the access order.

use crate::cache::{AccessKind, Cache, CacheConfig};
use crate::machine::{CycleCount, Machine};
use crate::Region;

/// Geometry and fixed costs of the shared level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedL2Config {
    /// Tag geometry of the shared cache.
    pub l2: CacheConfig,
    /// Cycles for an L1-bypassing access that hits the L2.
    pub hit_cycles: CycleCount,
    /// Cycles for an access that misses the L2 (memory fill).
    pub miss_cycles: CycleCount,
    /// Extra cycles when a read hits a line last written by another core
    /// (dirty cache-to-cache transfer).
    pub transfer_cycles: CycleCount,
    /// Extra cycles when a write must invalidate another core's copy.
    pub invalidate_cycles: CycleCount,
}

impl SharedL2Config {
    /// The default fabric used by the SMP experiments: 256 KB 4-way
    /// shared L2 with 32-byte lines; 20-cycle L2 hit (same order as the
    /// paper's primary-miss penalty), 100-cycle memory fill, 40-cycle
    /// dirty transfer, 20-cycle invalidation.
    pub fn smp_default() -> Self {
        SharedL2Config {
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                line_size: 32,
                associativity: 4,
            },
            hit_cycles: 20,
            miss_cycles: 100,
            transfer_cycles: 40,
            invalidate_cycles: 20,
        }
    }
}

/// Counters for the shared level, accumulated since construction or the
/// last [`SharedL2::reset_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Read accesses (region granularity).
    pub reads: u64,
    /// Write accesses (region granularity).
    pub writes: u64,
    /// Line lookups that hit the shared cache.
    pub l2_hits: u64,
    /// Line lookups that missed to memory.
    pub l2_misses: u64,
    /// Dirty cache-to-cache transfers (read of another core's line).
    pub transfers: u64,
    /// Invalidations (write to a line another core wrote).
    pub invalidations: u64,
    /// Total stall cycles charged to cores by the fabric.
    pub stall_cycles: CycleCount,
}

/// Lines per directory page: 8 KB of address space at 32-byte lines.
const OWNER_PAGE_LINES: u64 = 256;

/// Directory byte meaning "never written".
const NO_OWNER: u8 = u8::MAX;

/// Last-writer directory in a paged structure-of-arrays layout: a sorted
/// page list parallel to flat 256-byte owner chunks, instead of one
/// B-tree node chase per line. Shared regions cluster into a handful of
/// pages (reassembly table, call table, descriptor windows), so a
/// one-entry page cache catches almost every lookup and the sorted page
/// list keeps the layout deterministic.
#[derive(Debug, Clone, Default)]
struct OwnerDir {
    /// Sorted page numbers (line >> 8), parallel to `chunks`.
    pages: Vec<u64>,
    /// Per-page owner bytes, `NO_OWNER`-filled until written.
    chunks: Vec<[u8; OWNER_PAGE_LINES as usize]>,
    /// Index of the last page touched (one-entry lookup cache).
    last: usize,
}

impl OwnerDir {
    /// Index of `page` in the sorted list, fast-pathing the last hit.
    fn find(&mut self, page: u64) -> Option<usize> {
        if self.pages.get(self.last) == Some(&page) {
            return Some(self.last);
        }
        let i = self.pages.binary_search(&page).ok()?;
        self.last = i;
        Some(i)
    }

    /// Last writer of `line`, if any.
    fn get(&mut self, line: u64) -> Option<u8> {
        let i = self.find(line / OWNER_PAGE_LINES)?;
        let owner = self
            .chunks
            .get(i)
            .map_or(NO_OWNER, |c| c[(line % OWNER_PAGE_LINES) as usize]);
        (owner != NO_OWNER).then_some(owner)
    }

    /// Records `core` as `line`'s writer, returning the previous owner.
    fn swap(&mut self, line: u64, core: u8) -> Option<u8> {
        debug_assert_ne!(core, NO_OWNER);
        let page = line / OWNER_PAGE_LINES;
        let i = match self.find(page) {
            Some(i) => i,
            None => {
                let i = self.pages.partition_point(|&p| p < page);
                // analyze::allow(alloc-path, reason = "owner-directory entry is allocated on first touch of a page; steady state updates in place")
                self.pages.insert(i, page);
                self.chunks
                    // analyze::allow(alloc-path, reason = "owner-directory entry is allocated on first touch of a page; steady state updates in place")
                    .insert(i, [NO_OWNER; OWNER_PAGE_LINES as usize]);
                self.last = i;
                i
            }
        };
        let slot = self
            .chunks
            .get_mut(i)
            .map(|c| &mut c[(line % OWNER_PAGE_LINES) as usize]);
        let prev = slot.map_or(NO_OWNER, |s| std::mem::replace(s, core));
        (prev != NO_OWNER).then_some(prev)
    }
}

/// A shared, inclusive second-level cache plus last-writer directory.
#[derive(Debug, Clone)]
pub struct SharedL2 {
    cfg: SharedL2Config,
    l2: Cache,
    /// Last core to write each line; absent means never written (or
    /// only read so far).
    owners: OwnerDir,
    line_shift: u32,
    stats: CoherenceStats,
}

impl SharedL2 {
    /// Builds an empty shared level.
    pub fn new(cfg: SharedL2Config) -> Self {
        assert!(cfg.l2.line_size.is_power_of_two());
        SharedL2 {
            l2: Cache::new(cfg.l2),
            owners: OwnerDir::default(),
            line_shift: cfg.l2.line_size.trailing_zeros(),
            stats: CoherenceStats::default(),
            cfg,
        }
    }

    /// The configuration this fabric was built with.
    pub fn config(&self) -> &SharedL2Config {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Clears the counters (the directory and tags stay warm).
    pub fn reset_stats(&mut self) {
        self.stats = CoherenceStats::default();
    }

    /// `core` reads every line of `region` through the shared level;
    /// the stall cycles are charged to `machine` (the reader's core).
    /// Returns the cycles charged.
    pub fn read(&mut self, core: u8, region: Region, machine: &mut Machine) -> CycleCount {
        self.stats.reads += 1;
        let mut stall = 0;
        for addr in region.line_addrs(self.cfg.l2.line_size) {
            let line = addr >> self.line_shift;
            stall += self.lookup(line, AccessKind::Read);
            if let Some(owner) = self.owners.get(line) {
                if owner != core {
                    self.stats.transfers += 1;
                    stall += self.cfg.transfer_cycles;
                }
            }
        }
        machine.stall(stall);
        self.stats.stall_cycles += stall;
        stall
    }

    /// `core` writes every line of `region` through the shared level,
    /// invalidating other cores' copies and taking ownership; the stall
    /// cycles are charged to `machine`. Returns the cycles charged.
    pub fn write(&mut self, core: u8, region: Region, machine: &mut Machine) -> CycleCount {
        self.stats.writes += 1;
        let mut stall = 0;
        for addr in region.line_addrs(self.cfg.l2.line_size) {
            let line = addr >> self.line_shift;
            stall += self.lookup(line, AccessKind::Write);
            match self.owners.swap(line, core) {
                Some(prev) if prev != core => {
                    self.stats.invalidations += 1;
                    stall += self.cfg.invalidate_cycles;
                }
                _ => {}
            }
        }
        machine.stall(stall);
        self.stats.stall_cycles += stall;
        stall
    }

    /// [`SharedL2::read`] then [`SharedL2::write`] of the same `region`
    /// by `core` — a read-modify-write of one table slot — in one pass
    /// over its lines, with the same counters, tag state and stalls.
    /// Per line the read's tag lookup stands; the write's that follows
    /// finds the line where the read just left it, the most recent way
    /// of its set, so it is a hit that reorders nothing; and since
    /// nothing comes between the two, the owner the read saw is the one
    /// the write displaces: one directory swap decides both the
    /// transfer and the invalidation. Exact while the region's lines
    /// fall in distinct sets (consecutive lines, fewer than there are
    /// sets), so that touching one never ages another. Returns the
    /// cycles charged.
    pub fn rmw(&mut self, core: u8, region: Region, machine: &mut Machine) -> CycleCount {
        let l2 = self.cfg.l2;
        debug_assert!(
            (region.len + l2.line_size) * u64::from(l2.associativity) <= l2.size_bytes,
            "a slot of up to len / line + 1 lines must fit across the sets"
        );
        self.stats.reads += 1;
        self.stats.writes += 1;
        let mut read_stall = 0;
        let mut write_stall = 0;
        for addr in region.line_addrs(l2.line_size) {
            let line = addr >> self.line_shift;
            read_stall += self.lookup(line, AccessKind::Read);
            self.l2.record_bulk(1, 0, AccessKind::Write);
            self.stats.l2_hits += 1;
            write_stall += self.cfg.hit_cycles;
            match self.owners.swap(line, core) {
                Some(prev) if prev != core => {
                    self.stats.transfers += 1;
                    self.stats.invalidations += 1;
                    read_stall += self.cfg.transfer_cycles;
                    write_stall += self.cfg.invalidate_cycles;
                }
                _ => {}
            }
        }
        machine.stall(read_stall);
        machine.stall(write_stall);
        self.stats.stall_cycles += read_stall + write_stall;
        read_stall + write_stall
    }

    fn lookup(&mut self, line: u64, kind: AccessKind) -> CycleCount {
        if self.l2.access_line(line, kind) {
            self.stats.l2_hits += 1;
            self.cfg.hit_cycles
        } else {
            self.stats.l2_misses += 1;
            self.cfg.miss_cycles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::synthetic_benchmark())
    }

    fn line_region(line: u64) -> Region {
        Region::new(line * 32, 32)
    }

    #[test]
    fn cold_read_pays_the_memory_fill() {
        let mut l2 = SharedL2::new(SharedL2Config::smp_default());
        let mut m = machine();
        let before = m.cycles();
        let charged = l2.read(0, line_region(7), &mut m);
        assert_eq!(charged, l2.config().miss_cycles);
        assert_eq!(m.cycles() - before, charged, "stall billed to the core");
        assert_eq!(l2.stats().l2_misses, 1);

        // Warm re-read by the same core: an L2 hit, no coherence cost.
        let charged = l2.read(0, line_region(7), &mut m);
        assert_eq!(charged, l2.config().hit_cycles);
        assert_eq!(l2.stats().transfers, 0);
    }

    #[test]
    fn cross_core_read_after_write_is_a_transfer() {
        let mut l2 = SharedL2::new(SharedL2Config::smp_default());
        let mut m0 = machine();
        let mut m1 = machine();
        l2.write(0, line_region(3), &mut m0);
        let charged = l2.read(1, line_region(3), &mut m1);
        assert_eq!(charged, l2.config().hit_cycles + l2.config().transfer_cycles);
        assert_eq!(l2.stats().transfers, 1);

        // The owner's own re-read is free of coherence cost.
        let charged = l2.read(0, line_region(3), &mut m0);
        assert_eq!(charged, l2.config().hit_cycles);
        assert_eq!(l2.stats().transfers, 1);
    }

    #[test]
    fn cross_core_write_invalidates() {
        let mut l2 = SharedL2::new(SharedL2Config::smp_default());
        let mut m0 = machine();
        let mut m1 = machine();
        l2.write(0, line_region(3), &mut m0);
        let charged = l2.write(1, line_region(3), &mut m1);
        assert_eq!(charged, l2.config().hit_cycles + l2.config().invalidate_cycles);
        assert_eq!(l2.stats().invalidations, 1);
        // Ownership moved: core 1 now re-writes without invalidating.
        let charged = l2.write(1, line_region(3), &mut m1);
        assert_eq!(charged, l2.config().hit_cycles);
        assert_eq!(l2.stats().invalidations, 1);
    }

    #[test]
    fn ping_pong_counts_every_bounce() {
        let mut l2 = SharedL2::new(SharedL2Config::smp_default());
        let mut m0 = machine();
        let mut m1 = machine();
        for _ in 0..10 {
            l2.write(0, line_region(5), &mut m0);
            l2.write(1, line_region(5), &mut m1);
        }
        assert_eq!(l2.stats().invalidations, 19, "every ownership flip after the first");
        assert!(l2.stats().stall_cycles > 0);
    }

    #[test]
    fn multi_line_regions_charge_per_line() {
        let mut l2 = SharedL2::new(SharedL2Config::smp_default());
        let mut m = machine();
        // 4 lines cold: 4 memory fills.
        let charged = l2.read(0, Region::new(0x1000, 128), &mut m);
        assert_eq!(charged, 4 * l2.config().miss_cycles);
        assert_eq!(l2.stats().l2_misses, 4);
    }

    #[test]
    fn rmw_is_read_then_write() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        // A 1 KB 4-way level under 3 KB of 48-byte slots — one or two
        // lines each, evicting each other — hammered by four cores.
        // `fused` does its read-modify-writes with `rmw`, `split` with
        // `read; write`; plain reads and writes interleave on both, so
        // any difference in tags, LRU order or ownership shows up in a
        // later access's stall.
        let cfg = SharedL2Config {
            l2: CacheConfig {
                size_bytes: 1024,
                line_size: 32,
                associativity: 4,
            },
            ..SharedL2Config::smp_default()
        };
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fused = SharedL2::new(cfg);
            let mut split = SharedL2::new(cfg);
            let mut mf: Vec<Machine> = (0..4).map(|_| machine()).collect();
            let mut ms: Vec<Machine> = (0..4).map(|_| machine()).collect();
            let mut two_line = 0;
            for _ in 0..4000 {
                let core = rng.random_range(0..4usize);
                let slot = Region::new(0x4_0000 + rng.random_range(0..64u64) * 48, 48);
                two_line += u32::from(slot.lines(32) == 2);
                let (f, s) = (&mut mf[core], &mut ms[core]);
                let core = core as u8;
                let (a, b) = match rng.random_range(0..4u32) {
                    0 => (fused.read(core, slot, f), split.read(core, slot, s)),
                    1 => (fused.write(core, slot, f), split.write(core, slot, s)),
                    _ => (
                        fused.rmw(core, slot, f),
                        split.read(core, slot, s) + split.write(core, slot, s),
                    ),
                };
                assert_eq!(a, b, "stall charged");
                assert_eq!(f.cycles(), s.cycles(), "stall billed");
            }
            assert!(two_line > 1000, "both slot shapes exercised");
            assert_eq!(fused.stats(), split.stats());
            assert!(fused.stats().transfers > 0 && fused.stats().l2_misses > 100);
            assert_eq!(fused.l2.stats(), split.l2.stats());
            assert_eq!(fused.l2.export_tags(), split.l2.export_tags());
        }
    }

    #[test]
    fn fabric_does_not_disturb_the_private_replay_memoizer() {
        // A core that interleaves memoized code fetches with shared-state
        // accesses must see identical miss counts to one that never
        // touches the fabric: the L1s and the shared level are disjoint.
        let lines: Vec<u64> = (0x100..0x110).collect();
        let mut plain = machine();
        let mut a = plain.fetch_code_footprint(1, &lines);
        a += plain.fetch_code_footprint(1, &lines);

        let mut shared = SharedL2::new(SharedL2Config::smp_default());
        let mut composed = machine();
        let mut b = composed.fetch_code_footprint(1, &lines);
        shared.read(0, line_region(0x9000), &mut composed);
        shared.write(0, line_region(0x9000), &mut composed);
        b += composed.fetch_code_footprint(1, &lines);

        assert_eq!(a, b, "shared-level traffic must not perturb L1 behaviour");
        assert_eq!(plain.replay_stats().hits, composed.replay_stats().hits);
    }
}
