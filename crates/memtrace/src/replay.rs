//! Replaying reference traces through the cache model.
//!
//! Section 2.4 argues from the working set to memory traffic: "on
//! machines with 8 KB caches ... few lines will remain in the cache
//! between successive iterations of the receive & acknowledge path ...
//! about 35 KB of code and read-only data is fetched and discarded from
//! off the CPU" per packet. [`replay`] makes that argument executable: it
//! runs a [`Trace`] through a `cachesim::Machine` and reports the misses,
//! optionally repeating the path to measure the steady state (how much
//! survives between packets).

use crate::trace::{RefKind, Trace};
use cachesim::{Machine, MachineConfig};

/// Outcome of replaying a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Instruction-fetch misses.
    pub imisses: u64,
    /// Data (read + write) misses.
    pub dmisses: u64,
    /// Total references replayed.
    pub refs: u64,
    /// Bytes implied by the misses (`misses * line_size`) — the paper's
    /// "fetched and discarded" volume.
    pub miss_bytes: u64,
}

impl ReplayReport {
    /// Total misses.
    pub fn total_misses(&self) -> u64 {
        self.imisses + self.dmisses
    }
}

/// Replays `trace` once through `machine` (whatever cache state it has).
pub fn replay(trace: &Trace, machine: &mut Machine) -> ReplayReport {
    let line = machine.config().icache.line_size;
    let before = machine.stats();
    for r in &trace.refs {
        let region = cachesim::Region::new(r.addr, r.size as u64);
        match r.kind {
            RefKind::Code => {
                machine.fetch_code(region);
            }
            RefKind::Read => {
                machine.read_data(region);
            }
            RefKind::Write => {
                machine.write_data(region);
            }
        }
    }
    let after = machine.stats();
    let imisses = after.icache.fetch_misses - before.icache.fetch_misses;
    let dmisses = (after.icache.misses + after.dcache.misses)
        - (before.icache.misses + before.dcache.misses)
        - imisses;
    ReplayReport {
        imisses,
        dmisses,
        refs: trace.refs.len() as u64,
        miss_bytes: (imisses + dmisses) * line,
    }
}

/// Replays the trace `iterations` times on a fresh machine of `cfg`
/// and returns (cold-start report, steady-state report of the final
/// iteration). The steady state shows how much of the working set
/// survives in the cache between packets.
pub fn replay_steady(
    trace: &Trace,
    cfg: MachineConfig,
    iterations: usize,
) -> (ReplayReport, ReplayReport) {
    assert!(iterations >= 1);
    let mut machine = Machine::new(cfg);
    let cold = replay(trace, &mut machine);
    let mut last = cold;
    for _ in 1..iterations {
        last = replay(trace, &mut machine);
    }
    (cold, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use cachesim::Region;

    fn small_trace(code_bytes: u64) -> Trace {
        let mut t = Trace::new(vec!["L".into()], vec!["p".into()]);
        let f = t.add_function("f", Region::new(0, code_bytes), 0);
        t.record(0, code_bytes as u32, RefKind::Code, 0, f);
        t.record(0x10_0000, 256, RefKind::Read, 0, f);
        // Offset chosen so the write region maps to different D-cache
        // sets than the read region (no aliasing in an 8 KB DM cache).
        t.record(0x10_0800, 64, RefKind::Write, 0, f);
        t
    }

    #[test]
    fn cold_replay_misses_match_working_set() {
        let t = small_trace(4096);
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let r = replay(&t, &mut m);
        assert_eq!(r.imisses, 4096 / 32);
        assert_eq!(r.dmisses, 256 / 32 + 64 / 32);
        assert_eq!(r.refs, 3);
        assert_eq!(r.miss_bytes, (128 + 8 + 2) * 32);
    }

    #[test]
    fn fitting_working_set_reaches_zero_steady_state() {
        // 4 KB of code in an 8 KB cache: second packet is all hits.
        let t = small_trace(4096);
        let (cold, steady) = replay_steady(&t, MachineConfig::synthetic_benchmark(), 3);
        assert!(cold.total_misses() > 0);
        assert_eq!(steady.total_misses(), 0);
    }

    #[test]
    fn oversized_working_set_keeps_missing() {
        // Two 6 KB functions in distinct address ranges against an 8 KB
        // direct-mapped cache: the path can't stay resident.
        let mut t = Trace::new(vec!["L".into()], vec!["p".into()]);
        let f1 = t.add_function("f1", Region::new(0, 6144), 0);
        let f2 = t.add_function("f2", Region::new(8192, 6144), 0);
        t.record(0, 6144, RefKind::Code, 0, f1);
        t.record(8192, 6144, RefKind::Code, 0, f2);
        let (cold, steady) = replay_steady(&t, MachineConfig::synthetic_benchmark(), 4);
        assert_eq!(cold.imisses, 2 * 192);
        // 12 KB > 8 KB: conflicting quarter keeps thrashing.
        assert!(
            steady.imisses > 100,
            "steady-state misses {} should stay high",
            steady.imisses
        );
    }

    #[test]
    fn bigger_cache_reduces_steady_state() {
        let mut t = Trace::new(vec!["L".into()], vec!["p".into()]);
        let f1 = t.add_function("f1", Region::new(0, 6144), 0);
        let f2 = t.add_function("f2", Region::new(8192, 6144), 0);
        t.record(0, 6144, RefKind::Code, 0, f1);
        t.record(8192, 6144, RefKind::Code, 0, f2);
        let big = MachineConfig {
            icache: cachesim::CacheConfig::direct_mapped(32 * 1024, 32),
            dcache: cachesim::CacheConfig::direct_mapped(32 * 1024, 32),
            ..MachineConfig::synthetic_benchmark()
        };
        let (_, steady) = replay_steady(&t, big, 3);
        assert_eq!(steady.imisses, 0, "12 KB fits a 32 KB cache");
    }
}
