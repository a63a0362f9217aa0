//! The machine model: split primary caches plus cycle accounting.

use crate::addr::Region;
use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats};
use crate::replay::{ReplayCache, Transition};
use crate::stats::ReplayStats;
use crate::tlb::{Tlb, TlbConfig, TlbStats};

/// Simulated cycle counts.
pub type CycleCount = u64;

/// `x.round() as CycleCount` — round half away from zero, saturating at
/// both ends, NaN to 0 — without the call: `f64::round` is a libm
/// routine on the baseline x86-64 target, and the conversions that use
/// this run once per message or more. The truncating cast already
/// saturates and maps NaN to 0; the fraction it dropped is exact in an
/// `f64` (below 2^52 the difference of neighbours is, above there is no
/// fraction), so comparing it with one half decides the rounding, and
/// the saturating add keeps `+inf` and anything past `u64::MAX` there.
#[inline]
pub fn round_to_cycles(x: f64) -> CycleCount {
    let truncated = x as CycleCount;
    truncated.saturating_add(CycleCount::from(x - truncated as f64 >= 0.5))
}

/// Machine parameters: cache geometry, miss penalties and clock rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
    /// Stall cycles charged per read or instruction-fetch miss. Write
    /// misses never stall: the write buffer never fills, the paper's
    /// implicit assumption.
    pub read_miss_penalty: CycleCount,
    /// CPU clock in MHz, used to convert cycles to wall time.
    pub clock_mhz: f64,
    /// Multiplier applied to code footprints to model instruction-set code
    /// density (1.0 = Alpha baseline; the paper quotes ~0.55 for i386,
    /// Section 5.2).
    pub code_density: f64,
    /// Optional instruction TLB (None = perfect translation, the paper's
    /// implicit assumption; its traces exclude the PAL refill code).
    pub itlb: Option<TlbConfig>,
    /// Optional data TLB.
    pub dtlb: Option<TlbConfig>,
    /// Next-line instruction prefetch: on an I-fetch miss, the following
    /// line is filled in the background at no stall cost (Section 4 notes
    /// "some processors can prefetch instructions from the second level
    /// cache to hide some of the cache miss cost").
    pub next_line_prefetch: bool,
}

impl MachineConfig {
    /// The DEC 3000/400 of Section 2: 8 KB direct-mapped split I/D caches,
    /// 32-byte lines, 10-cycle primary-miss penalty, 133 MHz Alpha 21064.
    pub fn dec3000_400() -> Self {
        MachineConfig {
            icache: CacheConfig::direct_mapped(8 * 1024, 32),
            dcache: CacheConfig::direct_mapped(8 * 1024, 32),
            read_miss_penalty: 10,
            clock_mhz: 133.0,
            code_density: 1.0,
            itlb: None,
            dtlb: None,
            next_line_prefetch: false,
        }
    }

    /// The synthetic benchmark machine of Section 4: 8 KB direct-mapped
    /// split I/D caches, 32-byte lines, 20-cycle read-miss stall, 100 MHz.
    pub const fn synthetic_benchmark() -> Self {
        MachineConfig {
            icache: CacheConfig::direct_mapped(8 * 1024, 32),
            dcache: CacheConfig::direct_mapped(8 * 1024, 32),
            read_miss_penalty: 20,
            clock_mhz: 100.0,
            code_density: 1.0,
            itlb: None,
            dtlb: None,
            next_line_prefetch: false,
        }
    }

    /// An i386-flavoured variant of the synthetic machine: identical caches
    /// and penalties but denser code (Section 5.2 measures NetBSD
    /// networking code as 55% smaller on the i386).
    pub fn i386_like() -> Self {
        MachineConfig {
            code_density: 0.45,
            ..Self::synthetic_benchmark()
        }
    }

    /// A hypothetical 1998 processor per Rosenblum's prediction quoted in
    /// Section 1.2: 64 KB caches but a 60-slot (30-cycle) miss penalty.
    pub fn rosenblum_1998() -> Self {
        MachineConfig {
            icache: CacheConfig::direct_mapped(64 * 1024, 32),
            dcache: CacheConfig::direct_mapped(64 * 1024, 32),
            read_miss_penalty: 30,
            clock_mhz: 500.0,
            code_density: 1.0,
            itlb: None,
            dtlb: None,
            next_line_prefetch: false,
        }
    }

    /// Returns a copy with next-line instruction prefetch enabled.
    pub fn with_prefetch(mut self) -> Self {
        self.next_line_prefetch = true;
        self
    }

    /// Returns a copy with Alpha-21064-style instruction and data TLBs
    /// enabled (12-entry ITB, 32-entry DTB, 8 KB pages, 40-cycle PAL
    /// refill).
    pub fn with_alpha_tlbs(mut self) -> Self {
        self.itlb = Some(TlbConfig::alpha_itb());
        self.dtlb = Some(TlbConfig::alpha_dtb());
        self
    }

    /// Returns a copy with a different clock (Figure 7 sweeps this).
    pub fn with_clock_mhz(mut self, mhz: f64) -> Self {
        self.clock_mhz = mhz;
        self
    }
}

/// Aggregated statistics for a [`Machine`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineStats {
    /// I-cache counters.
    pub icache: CacheStats,
    /// D-cache counters.
    pub dcache: CacheStats,
    /// Cycles spent executing instructions.
    pub instr_cycles: CycleCount,
    /// Cycles spent stalled on cache misses.
    pub stall_cycles: CycleCount,
    /// Instruction-TLB counters (zero when no ITB is configured).
    pub itlb: TlbStats,
    /// Data-TLB counters (zero when no DTB is configured).
    pub dtlb: TlbStats,
}

impl MachineStats {
    /// Total misses across both caches.
    pub fn total_misses(&self) -> u64 {
        self.icache.misses + self.dcache.misses
    }
}

/// A machine instance: caches plus cycle counters.
///
/// The simulators drive it with [`Machine::fetch_code`],
/// [`Machine::read_data`], [`Machine::write_data`] and
/// [`Machine::execute`]; it accumulates stall and execution cycles.
///
/// Recurring code-footprint sweeps are answered by a replay memoizer
/// (see [`crate::replay`]): an exact-replay table over interned (I-cache
/// tags ++ ITLB entries) states; the split caches keep the data stream
/// out of that state, so per-sweep transitions compose. Data sweeps are
/// always walked: their (D-state × region) graph does not close on any
/// shipped workload, so there is nothing to replay (DESIGN.md §5.6).
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    icache: Cache,
    dcache: Cache,
    itlb: Option<Tlb>,
    dtlb: Option<Tlb>,
    instr_cycles: CycleCount,
    stall_cycles: CycleCount,
    /// Code-footprint replay memo (I-cache ++ ITLB states), created
    /// lazily on the first [`Machine::fetch_code_footprint`] call.
    replay: Option<ReplayCache>,
    /// Scratch buffer for assembling combined state keys (only machines
    /// with an ITLB need one; see [`Machine::intern_live`]).
    key_buf: Vec<u64>,
    /// Master switch for the memoizer (tests and benches compare
    /// memoized against plain simulation with this).
    replay_enabled: bool,
}

impl Machine {
    /// Builds a machine with cold caches and zeroed counters.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            itlb: cfg.itlb.map(Tlb::new),
            dtlb: cfg.dtlb.map(Tlb::new),
            instr_cycles: 0,
            stall_cycles: 0,
            replay: None,
            key_buf: Vec::new(),
            replay_enabled: true,
            cfg,
        }
    }

    /// Why this machine can never use the replay memoizer, or `None`
    /// when it is eligible. The one cause is a switched-off memoizer;
    /// sweeps on eligible machines can still bypass individually
    /// (footprint-id collision, state-table cap).
    pub fn replay_ineligibility(&self) -> Option<&'static str> {
        (!self.replay_enabled).then_some("memoizer-disabled")
    }

    /// Enables or disables the replay memoizer. Disabling materializes
    /// any live memo state first, so simulation continues exactly where
    /// it was; results are identical either way — only speed changes.
    pub fn set_replay_enabled(&mut self, on: bool) {
        if !on {
            self.sync_replay();
        }
        self.replay_enabled = on;
    }

    /// Materializes `replay`'s live state token (if any) back into the
    /// tag array and TLB it was interned from, so non-memoized accesses
    /// see current contents. No-op when the arrays are already
    /// authoritative.
    fn materialize(cache: &mut Cache, tlb: Option<&mut Tlb>, replay: &mut ReplayCache) {
        let Some(t) = replay.cur.take() else { return };
        let key = replay.state(t);
        let cache_words = (cache.config().num_lines() as usize).min(key.len());
        let (tags, tlb_words) = key.split_at(cache_words);
        cache.import_tags(tags);
        if let Some(tlb) = tlb {
            tlb.import_entries(tlb_words);
        }
    }

    /// Makes the I-cache and ITLB arrays authoritative.
    fn sync_replay(&mut self) {
        if let Some(replay) = &mut self.replay {
            Self::materialize(&mut self.icache, self.itlb.as_mut(), replay);
        }
    }

    /// Interns the arrays' current combined state (I-cache tags ++ ITLB
    /// entries). Without an ITLB the tag array is the whole key and is
    /// interned where it sits; with one, the two are assembled in
    /// `key_buf` first.
    fn intern_live(&mut self, replay: &mut ReplayCache) -> Option<u32> {
        let Some(tlb) = &self.itlb else {
            return replay.intern(self.icache.export_tags());
        };
        self.key_buf.clear();
        self.key_buf.extend_from_slice(self.icache.export_tags());
        tlb.export_entries(&mut self.key_buf);
        replay.intern(&self.key_buf)
    }

    /// The I-cache and ITLB counters, for diffing around a walk.
    fn code_counters(&self) -> (CacheStats, TlbStats) {
        (
            *self.icache.stats(),
            self.itlb.as_ref().map(|t| *t.stats()).unwrap_or_default(),
        )
    }

    /// Charges a replayed transition exactly as the walk it was recorded
    /// from did: cache and TLB counters, stall cycles, return value.
    #[inline]
    fn apply_transition(&mut self, tr: Transition) -> u64 {
        self.icache
            .record_bulk(tr.hits, tr.misses, AccessKind::InstrFetch);
        if let Some(tlb) = &mut self.itlb {
            tlb.record_bulk(tr.tlb_hits, tr.tlb_misses);
        }
        self.stall_cycles += tr.stall;
        tr.ret
    }

    /// Counts one footprint sweep that could not use the memo and
    /// simulates it directly.
    fn bypass_sweep(&mut self, lines: &[u64]) -> u64 {
        let replay = self.replay.get_or_insert_default();
        replay.stats_mut().bypasses += 1;
        Self::materialize(&mut self.icache, self.itlb.as_mut(), replay);
        self.fetch_lines_walk(lines)
    }

    /// Fetches every line of a fixed code footprint, exactly like
    /// walking it line by line, but memoized: the
    /// `(cache+TLB state, footprint)` outcome is recorded so recurring
    /// sweeps cost one table lookup. `fid` must identify this exact
    /// `lines` sequence for the lifetime of the machine; a conflicting
    /// registration falls back to the per-line walk. Returns the misses.
    ///
    /// A known `(live state, fid)` transition is answered through a
    /// borrow of the memo where it sits; anything else goes to
    /// [`Machine::memo_sweep_record`].
    #[inline]
    pub fn fetch_code_footprint(&mut self, fid: u32, lines: &[u64]) -> u64 {
        if lines.is_empty() {
            return 0;
        }
        if self.replay_ineligibility().is_some() {
            return self.bypass_sweep(lines);
        }
        let replay = self.replay.get_or_insert_default();
        if !replay.check_footprint(fid, lines) {
            return self.bypass_sweep(lines);
        }
        if let Some(tr) = replay.cur.and_then(|cur| replay.follow(cur, fid)) {
            return self.apply_transition(tr);
        }
        self.memo_sweep_record(fid, lines)
    }

    /// A sweep out of an unknown live state or along an unrecorded
    /// transition: intern the state if need be, replay the transition
    /// when that makes it known, otherwise walk once while diffing every
    /// counter and record the outcome. The walk needs the whole machine,
    /// so the memo rides outside its `Option` for the duration.
    fn memo_sweep_record(&mut self, fid: u32, lines: &[u64]) -> u64 {
        let mut replay = self.replay.take().unwrap_or_default();
        let ret = self.memo_sweep_taken(&mut replay, fid, lines);
        self.replay = Some(replay);
        ret
    }

    /// [`Machine::memo_sweep_record`] with the memo in hand.
    fn memo_sweep_taken(&mut self, replay: &mut ReplayCache, fid: u32, lines: &[u64]) -> u64 {
        let cur = match replay.cur {
            Some(t) => t,
            None => {
                // Table full and the live state is already in the
                // arrays: don't even try to re-intern per sweep.
                let interned = if replay.saturated() {
                    None
                } else {
                    self.intern_live(replay)
                };
                let Some(t) = interned else {
                    replay.stats_mut().bypasses += 1;
                    return self.fetch_lines_walk(lines);
                };
                t
            }
        };
        if let Some(tr) = replay.follow(cur, fid) {
            return self.apply_transition(tr);
        }
        // Memo miss: make the arrays reflect `cur` (no-op when it was just
        // interned from them), walk for real while diffing the counters,
        // record the outcome.
        replay.stats_mut().misses += 1;
        Self::materialize(&mut self.icache, self.itlb.as_mut(), replay);
        let (c0, t0) = self.code_counters();
        let s0 = self.stall_cycles;
        let ret = self.fetch_lines_walk(lines);
        let (c1, t1) = self.code_counters();
        let tr = Transition {
            ret,
            hits: c1.hits - c0.hits,
            misses: c1.misses - c0.misses,
            tlb_hits: t1.hits - t0.hits,
            tlb_misses: t1.misses - t0.misses,
            stall: self.stall_cycles - s0,
            next: 0,
        };
        if let Some(next) = self.intern_live(replay) {
            // analyze::allow(alloc-path, reason = "replay-memo warm-up insert; steady state is a memo hit (replay counts pinned by bench/tests/replay_counts.rs, tests/alloc.rs pins zero steady-state allocs)")
            replay.insert(cur, fid, Transition { next, ..tr });
            replay.cur = Some(next);
        }
        ret
    }

    /// Code fetch of `lines` through the full (non-memoized) path.
    /// Callers must have materialized any live memo state first. With no
    /// ITLB and no next-line prefetch a miss does nothing but stall, so
    /// the list is one [`Cache::access_lines`] and one stall charge;
    /// otherwise each line refills or prefetches on its own.
    fn fetch_lines_walk(&mut self, lines: &[u64]) -> u64 {
        if self.itlb.is_none() && !self.cfg.next_line_prefetch {
            let misses = self.icache.access_lines(lines, AccessKind::InstrFetch);
            self.stall_cycles += misses * self.cfg.read_miss_penalty;
            return misses;
        }
        let mut misses = 0;
        for &line in lines {
            if !self.fetch_line_inner(line) {
                misses += 1;
            }
        }
        misses
    }

    /// The replay memo's counters (zero if never used).
    pub fn replay_stats(&self) -> ReplayStats {
        self.replay.as_ref().map(|r| r.stats()).unwrap_or_default()
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Charges `n` cycles of instruction execution.
    #[inline]
    pub fn execute(&mut self, n: CycleCount) {
        self.instr_cycles += n;
    }

    /// Charges `n` stall cycles modelled *outside* this machine's private
    /// caches — the hook that makes hierarchies composable: a shared
    /// second-level cache or coherence fabric (see [`crate::coherence`])
    /// simulates its own hits, misses, and invalidations and bills the
    /// stall time to the core that waited, without this machine needing
    /// to own (or even know about) the outer level. The outer level's
    /// state never enters this machine's replay key, so the footprint
    /// memoizer stays effective per core.
    pub fn stall(&mut self, n: CycleCount) {
        self.stall_cycles += n;
    }

    /// Fetches every line of `region` through the I-cache (and the ITB,
    /// when configured), charging miss/refill penalties. Returns the
    /// number of cache misses.
    pub fn fetch_code(&mut self, region: Region) -> u64 {
        self.sync_replay();
        if let Some(tlb) = &mut self.itlb {
            let refills = tlb.access_range(region.base, region.len);
            self.stall_cycles += refills * tlb.config().refill_penalty;
        }
        if self.cfg.next_line_prefetch {
            // Per-line so each miss can trigger its next-line prefetch.
            let mut misses = 0;
            for line in region.line_numbers(self.cfg.icache.line_size) {
                if !self.icache.access_line(line, AccessKind::InstrFetch) {
                    misses += 1;
                    self.stall_cycles += self.cfg.read_miss_penalty;
                    self.prefetch_line(line + 1);
                }
            }
            return misses;
        }
        let misses = self
            .icache
            .access_range(region.base, region.len, AccessKind::InstrFetch);
        self.stall_cycles += misses * self.cfg.read_miss_penalty;
        misses
    }

    /// Fetches a single I-cache line by line number: the walk body of
    /// every footprint sweep the memo does not answer. `#[inline]`
    /// because [`Machine::fetch_lines_walk`]'s per-line loop is the whole
    /// cost of a memo miss on machines with an ITLB or prefetch:
    /// left to the inliner the body stayed a call per line and the walk
    /// measured 3.8 → 5.3 ns/line.
    #[inline]
    fn fetch_line_inner(&mut self, line: u64) -> bool {
        if let Some(tlb) = &mut self.itlb {
            let line_size = self.cfg.icache.line_size;
            if !tlb.access(line * line_size) {
                self.stall_cycles += tlb.config().refill_penalty;
            }
        }
        let hit = self.icache.access_line(line, AccessKind::InstrFetch);
        if !hit {
            self.stall_cycles += self.cfg.read_miss_penalty;
            if self.cfg.next_line_prefetch {
                self.prefetch_line(line + 1);
            }
        }
        hit
    }

    /// Installs `line` in the I-cache as a background prefetch: no stall,
    /// no hit/miss accounting beyond the install itself.
    fn prefetch_line(&mut self, line: u64) {
        if !self.icache.probe(line * self.cfg.icache.line_size) {
            self.icache.access_line(line, AccessKind::InstrFetch);
            // The install counted as a miss in the raw cache stats; undo
            // the stall it would imply by charging nothing — the cache
            // counters still show it, which is fine (prefetches are
            // fetches), but the processor never waited.
        }
    }

    /// Loads every line of `region` through the D-cache, charging the
    /// read-miss penalty per miss. Returns the misses.
    #[inline]
    pub fn read_data(&mut self, region: Region) -> u64 {
        let misses = self.data_sweep(region, AccessKind::Read);
        self.stall_cycles += misses * self.cfg.read_miss_penalty;
        misses
    }

    /// Stores to every line of `region` (write-allocate). Write misses do
    /// not stall. Returns the misses.
    #[inline]
    pub fn write_data(&mut self, region: Region) -> u64 {
        self.data_sweep(region, AccessKind::Write)
    }

    /// Charges a table-lookup probe sequence as data references: one
    /// read of `slot_bytes` at `base + slot * slot_bytes` per probed
    /// slot, in probe order. This is how the open-addressing tables
    /// (`netstack::table`) make their walks honest — the simulated
    /// D-cache and DTLB see the same slot run the real lookup would
    /// touch, so D-misses per lookup are measured, not modelled.
    /// Returns the total misses across the sequence.
    pub fn read_data_probes(&mut self, base: u64, slot_bytes: u64, slots: &[u32]) -> u64 {
        let mut misses = 0;
        for &slot in slots {
            misses += self.read_data(Region {
                base: base + u64::from(slot) * slot_bytes,
                len: slot_bytes,
            });
        }
        misses
    }

    /// The write half of a probe charge: the read-modify-write a lookup
    /// structure does on its home slot (install, recency update).
    /// Returns the misses.
    pub fn write_data_slot(&mut self, base: u64, slot_bytes: u64, slot: u32) -> u64 {
        self.write_data(Region {
            base: base + u64::from(slot) * slot_bytes,
            len: slot_bytes,
        })
    }

    /// One data sweep over `region`: the DTLB's refills, when one is
    /// configured, then one bulk [`Cache::access_range`] over the D-cache.
    /// Returns the D-cache misses; the caller charges their stall.
    #[inline]
    fn data_sweep(&mut self, region: Region, kind: AccessKind) -> u64 {
        if region.len == 0 {
            return 0;
        }
        if let Some(tlb) = &mut self.dtlb {
            let refills = tlb.access_range(region.base, region.len);
            self.stall_cycles += refills * tlb.config().refill_penalty;
        }
        self.dcache.access_range(region.base, region.len, kind)
    }

    /// Invalidates both primary caches (cold start) without resetting
    /// counters. TLB contents survive, so any live memo state is
    /// materialized first.
    pub fn flush_caches(&mut self) {
        self.sync_replay();
        self.icache.flush();
        self.dcache.flush();
    }

    /// Zeroes all counters without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
        if let Some(t) = &mut self.itlb {
            t.reset_stats();
        }
        if let Some(t) = &mut self.dtlb {
            t.reset_stats();
        }
        self.instr_cycles = 0;
        self.stall_cycles = 0;
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            icache: *self.icache.stats(),
            dcache: *self.dcache.stats(),
            itlb: self.itlb.as_ref().map(|t| *t.stats()).unwrap_or_default(),
            dtlb: self.dtlb.as_ref().map(|t| *t.stats()).unwrap_or_default(),
            instr_cycles: self.instr_cycles,
            stall_cycles: self.stall_cycles,
        }
    }

    /// The two miss counters the run loops difference around every
    /// (layer, message) application — `(I-cache misses, D-cache misses)` —
    /// without assembling a whole [`MachineStats`].
    #[inline]
    pub fn miss_counts(&self) -> (u64, u64) {
        (
            self.icache.stats().misses,
            self.dcache.stats().misses,
        )
    }

    /// Total cycles elapsed (execution + stalls).
    #[inline]
    pub fn cycles(&self) -> CycleCount {
        self.instr_cycles + self.stall_cycles
    }

    /// Direct access to the I-cache (e.g. for warm-up or probing).
    pub fn icache(&mut self) -> &mut Cache {
        self.sync_replay();
        &mut self.icache
    }

    /// Direct access to the D-cache.
    pub fn dcache(&mut self) -> &mut Cache {
        &mut self.dcache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Region;

    #[test]
    fn presets_are_sane() {
        let dec = MachineConfig::dec3000_400();
        assert_eq!(dec.icache.size_bytes, 8192);
        assert_eq!(dec.icache.line_size, 32);
        assert_eq!(dec.read_miss_penalty, 10);
        let syn = MachineConfig::synthetic_benchmark();
        assert_eq!(syn.read_miss_penalty, 20);
        assert_eq!(syn.clock_mhz, 100.0);
    }

    #[test]
    fn code_fetch_charges_stalls() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        // 6 KB of code = 192 lines, all cold.
        let misses = m.fetch_code(Region::new(0, 6144));
        assert_eq!(misses, 192);
        assert_eq!(m.stats().stall_cycles, 192 * 20);
        // Second pass is fully warm.
        assert_eq!(m.fetch_code(Region::new(0, 6144)), 0);
    }

    #[test]
    fn split_caches_do_not_interfere() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        m.fetch_code(Region::new(0, 8192));
        // Same addresses as data: separate cache, so all cold.
        let misses = m.read_data(Region::new(0, 8192));
        assert_eq!(misses, 256);
        // And code is still warm.
        assert_eq!(m.fetch_code(Region::new(0, 8192)), 0);
    }

    #[test]
    fn probe_sequences_charge_per_slot() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        // Three cold 64-byte slots (2 lines each) far apart: 6 misses.
        let base = 0x4000_0000;
        let misses = m.read_data_probes(base, 64, &[0, 100, 200]);
        assert_eq!(misses, 6);
        assert_eq!(m.stats().stall_cycles, 6 * 20);
        // Re-probing the same run is warm.
        assert_eq!(m.read_data_probes(base, 64, &[0, 100, 200]), 0);
        // The home-slot RMW write hits the warmed lines too.
        assert_eq!(m.write_data_slot(base, 64, 200), 0);
        assert_eq!(m.write_data_slot(base, 64, 300), 2);
        // An empty probe log charges nothing.
        assert_eq!(m.read_data_probes(base, 64, &[]), 0);
    }

    #[test]
    fn write_misses_do_not_stall_by_default() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let misses = m.write_data(Region::new(0, 1024));
        assert_eq!(misses, 32);
        assert_eq!(m.stats().stall_cycles, 0);
        assert_eq!(m.stats().dcache.write_misses, 32);
    }

    /// `round_to_cycles` is `round() as u64` on every `f64`: ties, the
    /// largest value below one half, the last fractional and the first
    /// all-integer magnitudes, both saturating ends, negatives, NaN —
    /// and a seeded sweep over raw bit patterns and cycle-sized values.
    #[test]
    fn round_to_cycles_is_round_then_cast() {
        let same = |x: f64| {
            assert_eq!(
                round_to_cycles(x),
                x.round() as u64,
                "{x:e} ({:#x})",
                x.to_bits()
            )
        };
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            1e9 + 0.5,
            0.499_999_999_999_999_94,
            0.500_000_000_000_000_1,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            u64::MAX as f64,
            (u64::MAX as f64) * 2.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -0.4,
            -0.5,
            -1.5,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            same(x);
        }
        assert_eq!(round_to_cycles(0.499_999_999_999_999_94), 0);
        assert_eq!(round_to_cycles(2.5), 3);
        assert_eq!(round_to_cycles(f64::INFINITY), u64::MAX);
        // splitmix64 stream, fixed seed.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in 0..1_000_000u32 {
            let bits = next();
            match i % 4 {
                // Any f64 at all.
                0 => same(f64::from_bits(bits)),
                // Cycle-sized magnitudes with a fraction.
                1 => same((bits >> 11) as f64 / (1u64 << 24) as f64),
                // Exact ties and their neighbours one ulp either side.
                2 => {
                    let tie = (bits >> 20) as f64 + 0.5;
                    same(tie);
                    same(f64::from_bits(tie.to_bits() - 1));
                    same(f64::from_bits(tie.to_bits() + 1));
                }
                // The time-to-cycle products the simulators form.
                _ => same((bits >> 40) as f64 * 1e-7 * 1e8),
            }
        }
    }

    #[test]
    fn execute_and_time_conversion() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        m.execute(1652);
        assert_eq!(m.cycles(), 1652);
    }

    #[test]
    fn flush_vs_reset() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        m.fetch_code(Region::new(0, 32));
        m.flush_caches();
        assert_eq!(m.stats().icache.misses, 1, "flush keeps stats");
        m.fetch_code(Region::new(0, 32));
        assert_eq!(m.stats().icache.misses, 2, "flushed line misses again");
        m.reset_stats();
        assert_eq!(m.stats().icache.misses, 0);
        assert_eq!(m.fetch_code(Region::new(0, 32)), 0, "reset keeps contents");
    }

    #[test]
    fn next_line_prefetch_halves_straight_line_stalls() {
        let plain = MachineConfig::synthetic_benchmark();
        let pf = plain.with_prefetch();
        let mut a = Machine::new(plain);
        let mut b = Machine::new(pf);
        // Straight-line code: every other line arrives by prefetch.
        a.fetch_code(Region::new(0, 4096));
        b.fetch_code(Region::new(0, 4096));
        assert_eq!(a.stats().stall_cycles, 128 * 20);
        assert_eq!(b.stats().stall_cycles, 64 * 20, "half the stalls");
        // Warm behaviour identical.
        a.reset_stats();
        b.reset_stats();
        a.fetch_code(Region::new(0, 4096));
        b.fetch_code(Region::new(0, 4096));
        assert_eq!(a.stats().stall_cycles, 0);
        assert_eq!(b.stats().stall_cycles, 0);
    }

    #[test]
    fn tlb_integration_charges_refills() {
        let cfg = MachineConfig::synthetic_benchmark().with_alpha_tlbs();
        let mut m = Machine::new(cfg);
        // 30 KB of code spans 4 pages: 4 ITB refills + 960 cache misses.
        m.fetch_code(Region::new(0, 30 * 1024));
        let s = m.stats();
        assert_eq!(s.itlb.misses, 4);
        assert_eq!(s.stall_cycles, 960 * 20 + 4 * 40);
        // Second pass: everything warm.
        m.fetch_code(Region::new(0, 30 * 1024));
        assert_eq!(m.stats().itlb.misses, 4);
        // Data TLB is independent.
        m.read_data(Region::new(0x100_0000, 8192));
        assert_eq!(m.stats().dtlb.misses, 1);
    }

    #[test]
    fn machines_without_tlbs_report_zero() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        m.fetch_code(Region::new(0, 1024));
        assert_eq!(m.stats().itlb.accesses(), 0);
        assert_eq!(m.stats().dtlb.accesses(), 0);
    }

    #[test]
    fn code_density_presets() {
        assert!(MachineConfig::i386_like().code_density < 1.0);
        assert_eq!(MachineConfig::synthetic_benchmark().code_density, 1.0);
    }

    /// Drives one memoized and one per-line machine through the same
    /// interleaved footprint/data/flush schedule and asserts identical
    /// stats at every step.
    #[test]
    fn footprint_replay_is_exact() {
        let cfg = MachineConfig::synthetic_benchmark();
        let mut memo = Machine::new(cfg);
        let mut walk = Machine::new(cfg);
        walk.set_replay_enabled(false);
        // Three footprints that conflict in an 8 KB / 32 B I-cache.
        let fp: Vec<Vec<u64>> = vec![
            (0..192).collect(),                  // 6 KB at line 0
            (100..292).collect(),                // overlaps fp0, spills sets
            (256..448).collect(),                // aliases fp0 exactly
        ];
        let schedule = [0usize, 1, 2, 0, 1, 2, 0, 0, 1, 2, 1, 0, 2, 2, 0, 1];
        for (step, &f) in schedule.iter().enumerate() {
            let a = memo.fetch_code_footprint(f as u32, &fp[f]);
            let b = walk.fetch_code_footprint(f as u32, &fp[f]);
            assert_eq!(a, b, "misses diverged at step {step}");
            assert_eq!(
                memo.stats().icache,
                walk.stats().icache,
                "icache stats diverged at step {step}"
            );
            assert_eq!(memo.cycles(), walk.cycles(), "cycles diverged at step {step}");
            // Interleave data traffic (separate cache, must not disturb).
            memo.read_data(Region::new(0x9000, 256));
            walk.read_data(Region::new(0x9000, 256));
            assert_eq!(memo.stats().dcache, walk.stats().dcache);
            if step == 7 {
                memo.flush_caches();
                walk.flush_caches();
            }
            if step == 11 {
                // A raw region fetch forces the memo to materialize.
                memo.fetch_code(Region::new(50 * 32, 64));
                walk.fetch_code(Region::new(50 * 32, 64));
            }
        }
        let s = memo.replay_stats();
        assert!(s.hits > 0, "recurring schedule must produce memo hits");
        assert_eq!(walk.replay_stats().hits, 0);
    }

    /// The TLB-keyed equivalent: random footprints over a machine with
    /// Alpha TLBs, memoized vs memoizer-disabled, must agree on every
    /// counter — icache, dcache, ITLB, DTLB, stalls — at every step.
    #[test]
    fn tlb_keyed_replay_matches_disabled_run() {
        let cfg = MachineConfig::synthetic_benchmark().with_alpha_tlbs();
        let mut memo = Machine::new(cfg);
        let mut walk = Machine::new(cfg);
        walk.set_replay_enabled(false);
        // Deterministic xorshift for "random" footprints and regions.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // 8 footprints spanning several pages each (so the ITB matters).
        let fps: Vec<Vec<u64>> = (0..8)
            .map(|_| {
                let base = next() % 4096;
                let len = 32 + next() % 160;
                (base..base + len).collect()
            })
            .collect();
        for step in 0..400 {
            let f = (next() % fps.len() as u64) as usize;
            let a = memo.fetch_code_footprint(f as u32, &fps[f]);
            let b = walk.fetch_code_footprint(f as u32, &fps[f]);
            assert_eq!(a, b, "code misses diverged at step {step}");
            // Random data sweeps, read or write, random slots.
            let base = 0x10_0000 + (next() % 64) * 1536;
            let len = 32 + next() % 1504;
            if next() % 4 == 0 {
                assert_eq!(
                    memo.write_data(Region::new(base, len)),
                    walk.write_data(Region::new(base, len)),
                    "write misses diverged at step {step}"
                );
            } else {
                assert_eq!(
                    memo.read_data(Region::new(base, len)),
                    walk.read_data(Region::new(base, len)),
                    "read misses diverged at step {step}"
                );
            }
            if step % 151 == 0 {
                memo.flush_caches();
                walk.flush_caches();
            }
            let (sm, sw) = (memo.stats(), walk.stats());
            assert_eq!(sm.icache, sw.icache, "icache diverged at step {step}");
            assert_eq!(sm.dcache, sw.dcache, "dcache diverged at step {step}");
            assert_eq!(sm.itlb, sw.itlb, "itlb diverged at step {step}");
            assert_eq!(sm.dtlb, sw.dtlb, "dtlb diverged at step {step}");
            assert_eq!(sm.stall_cycles, sw.stall_cycles, "stalls diverged at step {step}");
        }
        assert!(memo.replay_stats().hits > 0, "the schedule must replay");
        assert_eq!(walk.replay_stats().hits, 0);
    }

    /// Prefetch configurations are memoizable too: the install is a pure
    /// function of the I-cache state.
    #[test]
    fn prefetch_replay_matches_disabled_run() {
        let cfg = MachineConfig::synthetic_benchmark().with_prefetch();
        let mut memo = Machine::new(cfg);
        let mut walk = Machine::new(cfg);
        walk.set_replay_enabled(false);
        let fps: Vec<Vec<u64>> = (0..4).map(|i| (i * 100..i * 100 + 150).collect()).collect();
        for step in 0..100 {
            let f = step % fps.len();
            assert_eq!(
                memo.fetch_code_footprint(f as u32, &fps[f]),
                walk.fetch_code_footprint(f as u32, &fps[f]),
                "diverged at step {step}"
            );
            let (sm, sw) = (memo.stats(), walk.stats());
            assert_eq!(sm.icache, sw.icache);
            assert_eq!(sm.stall_cycles, sw.stall_cycles);
        }
        assert!(memo.replay_stats().hits > 0, "prefetch sweeps must replay");
    }

    #[test]
    fn footprint_replay_steady_state_hits() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let fps: Vec<Vec<u64>> = (0..5).map(|i| (i * 192..(i + 1) * 192).collect()).collect();
        // 100 "messages" through a 5-layer cycle: after the first lap the
        // state sequence repeats, so all later sweeps hit the memo.
        for _ in 0..100 {
            for (fid, fp) in fps.iter().enumerate() {
                m.fetch_code_footprint(fid as u32, fp);
            }
        }
        let s = m.replay_stats();
        assert!(s.hits * 10 > s.accesses() * 9, "steady-state hit rate should approach 1: {s:?}");
        assert_eq!(s.accesses(), 500);
    }

    #[test]
    fn footprint_replay_bypasses_ineligible_configs() {
        // A switched-off memoizer stands aside for every sweep, and
        // says why.
        let mut m = Machine::new(MachineConfig::dec3000_400());
        m.set_replay_enabled(false);
        let fp: Vec<u64> = (0..64).collect();
        m.fetch_code_footprint(0, &fp);
        m.fetch_code_footprint(0, &fp);
        m.read_data(Region::new(0x9000, 256));
        assert_eq!(m.replay_stats().hits, 0);
        assert_eq!(m.replay_stats().bypasses, 2, "every footprint sweep counted");
        assert_eq!(m.replay_ineligibility(), Some("memoizer-disabled"));
        // And the fetches still happened.
        assert!(m.stats().icache.fetch_misses > 0);

        // Footprint-id collisions fall back to the walk.
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        m.fetch_code_footprint(0, &fp);
        let other: Vec<u64> = (64..128).collect();
        let misses = m.fetch_code_footprint(0, &other);
        assert_eq!(misses, 64, "collision path still simulates correctly");
        assert_eq!(m.replay_stats().bypasses, 1);
    }

    /// A footprint is its line list, not the slice it was first passed
    /// in: the `(ptr, len)` identity check is only a shortcut to the
    /// comparison, so equal lines at another address still replay and
    /// different lines still collide.
    #[test]
    fn footprint_identity_is_content_not_address() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let fp: Vec<u64> = (0..64).collect();
        for _ in 0..3 {
            m.fetch_code_footprint(0, &fp);
        }
        let before = m.replay_stats();
        assert!(before.hits > 0, "the self-loop transition is recorded");
        let same_lines_elsewhere = fp.clone();
        assert_ne!(same_lines_elsewhere.as_ptr(), fp.as_ptr());
        assert_eq!(m.fetch_code_footprint(0, &same_lines_elsewhere), 0);
        let after = m.replay_stats();
        assert_eq!(after.hits, before.hits + 1, "equal lines at a new address hit");
        assert_eq!(after.bypasses, 0);
        let other_lines: Vec<u64> = (64..128).collect();
        assert_eq!(m.fetch_code_footprint(0, &other_lines), 64);
        assert_eq!(m.replay_stats().bypasses, 1);
    }

    /// The hazard behind the identity shortcut: the registering slice's
    /// memory holds other lines by the time a machine (a clone, say)
    /// sees its `(ptr, len)` again. Builds with debug assertions — every
    /// test build — re-compare and refuse to replay the wrong footprint.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "same (ptr, len), different lines")]
    fn footprint_identity_with_changed_lines_is_caught() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let mut fp: Vec<u64> = (0..64).collect();
        m.fetch_code_footprint(0, &fp);
        let mut clone = m.clone();
        fp.iter_mut().for_each(|line| *line += 64);
        clone.fetch_code_footprint(0, &fp);
    }

    #[test]
    fn footprint_replay_survives_probe_after_hit() {
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let fp: Vec<u64> = (0..32).collect();
        m.fetch_code_footprint(0, &fp);
        m.fetch_code_footprint(0, &fp); // memo hit: tag array now stale
        assert!(m.icache().probe(0), "icache() must materialize first");
        assert!(!m.icache().probe(100 * 32));
    }

}
