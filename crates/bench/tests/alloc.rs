//! Allocation assertions for figure10's flow model.
//!
//! `TableCharge::charge` runs inside `run_sim_lookup`'s measured window
//! once per message, and after its first call it must work entirely out
//! of what `TableCharge::new` built — the scan-order slice, the
//! pre-sized lookup cache and the table's computed layout. And `new`
//! itself computes that layout (a byte of displacement per flow over an
//! occupancy bitmap) instead of building the table, so a 10^6-flow cell
//! asks the allocator for a fraction of the 32 MB its slots would take;
//! the population's shared Zipf sampler keeps about a byte a flow too.
//!
//! A counting global allocator (this test binary only) measures exact
//! allocation counts, requested bytes and the high-water mark of live
//! bytes around each window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bench::figure10::{flow_sequence, PopModel, TableCharge, Zipf, MSG_BYTES, RATE};
use cachesim::{Machine, MachineConfig};
use ldlp::synth::paper_stack;
use ldlp::{Discipline, StackEngine};
use netstack::table::CacheScheme;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim_lookup, LookupCharge, SimConfig};

struct CountingAlloc;

// Per-thread count, so a measurement window only sees its own test's
// allocations — the harness runs tests (and its own bookkeeping) on
// concurrent threads. `Cell<u64>` has no destructor and const init, so
// the allocator never recurses or touches torn-down TLS.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: allocated here and not yet freed here.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`live_window`].
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// Moves this thread's live bytes from `old` to `new` bytes held.
fn resize_live(old: usize, new: usize) {
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + new as u64).saturating_sub(old as u64);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Starts a high-water window; the bytes held when it starts.
fn live_window() -> u64 {
    let live = LIVE.with(|c| c.get());
    PEAK.with(|c| c.set(live));
    live
}

// SAFETY: pure pass-through to the System allocator; the only extra
// work is bumping no-destructor, const-initialised thread-local
// counters, which never allocates, never unwinds, and never re-enters
// the allocator — so System's layout/aliasing contracts are preserved
// verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to System.alloc with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        resize_live(0, layout.size());
        System.alloc(layout)
    }

    // SAFETY: delegates to System.dealloc; `ptr`/`layout` obligations
    // pass straight through from the caller.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize_live(layout.size(), 0);
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to System.realloc; `ptr`/`layout`/`new_size`
    // obligations pass straight through from the caller.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        resize_live(layout.size(), new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn charge_does_not_allocate_after_its_first_call() {
    let (pop, seed) = (100_000u64, 5u64);
    let flows = flow_sequence(pop, 4_000, seed, PopModel::Zipf);
    for scheme in [CacheScheme::Lru, CacheScheme::Fifo, CacheScheme::Random] {
        for cache_slots in [1, 16, 64] {
            let mut machine = Machine::new(MachineConfig::synthetic_benchmark());
            let mut lookup = TableCharge::new(pop, scheme, cache_slots, seed);
            let (first, rest) = flows.split_first().expect("4 000 flows");
            lookup.charge(*first, &mut machine);
            let before = ALLOCS.with(|c| c.get());
            for &flow in rest {
                lookup.charge(flow, &mut machine);
            }
            let allocs = ALLOCS.with(|c| c.get()) - before;
            let stats = lookup.cache_stats();
            assert!(
                stats.hits > 0 && stats.misses > cache_slots as u64,
                "{scheme:?} x {cache_slots}: hits, fills and evictions all ran ({stats:?})"
            );
            assert_eq!(allocs, 0, "{scheme:?} x {cache_slots}: charge allocated");
        }
    }
}

#[test]
fn a_million_flow_layout_requests_a_fraction_of_the_table() {
    let before = BYTES.with(|c| c.get());
    let lookup = TableCharge::new(1_000_000, CacheScheme::Lru, 16, 1);
    let requested = BYTES.with(|c| c.get()) - before;
    // 1 B a flow + 1 bit a slot (2^21: 256 KB) + 4 KB for the overflow
    // list and the lookup cache; the table itself is 2^21 slots x 16 B
    // = 32 MB.
    assert!(
        requested < 1_000_000 + (256 << 10) + (4 << 10),
        "TableCharge::new requested {requested} B"
    );
    assert_eq!(lookup.mean_probes(), 0.0, "nothing charged yet");
}

#[test]
fn a_million_flow_sampler_keeps_a_byte_a_rank() {
    let before = live_window();
    let zipf = Zipf::new(1_000_000);
    let (kept, peak) = (
        LIVE.with(|c| c.get()) - before,
        PEAK.with(|c| c.get()) - before,
    );
    // 16 B for each block of 16 ranks (a running sum and a CDF value),
    // where the dense CDF kept 8 B for every one of the 10^6.
    let want = 16 * 1_000_000u64.div_ceil(16);
    assert_eq!((kept, peak), (want, want), "the sampler builds in place");
    assert_eq!(zipf.draw(0.0), 0);
}

#[test]
fn a_million_flow_cell_peaks_near_a_byte_a_flow() {
    let (pop, seed, duration_s) = (1_000_000u64, 1u64, 1.0);
    // The population's sampler is process-wide (pinned above): draw
    // once so it is built before the window.
    flow_sequence(pop, 1, seed, PopModel::Zipf);
    let before = live_window();
    let arrivals = PoissonSource::new(RATE, MSG_BYTES, seed).take_until(duration_s);
    let flow_ids = flow_sequence(pop, arrivals.len(), seed, PopModel::Zipf);
    let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
    let mut engine = StackEngine::new(machine, layers, Discipline::Conventional);
    let mut lookup = TableCharge::new(pop, CacheScheme::Lru, 16, seed);
    let sim_cfg = SimConfig {
        duration_s,
        pool_seed: seed,
        ..SimConfig::default()
    };
    let report = run_sim_lookup(&mut engine, &arrivals, &flow_ids, &sim_cfg, &mut lookup);
    let peak = PEAK.with(|c| c.get()) - before;
    assert!(report.completed > 1_500, "the cell ran: {report:?}");
    // 1 B a flow of displacements + the 2^21-slot bitmap (256 KB) + a
    // 128 KB slack for the arrivals, flow ids, machine and report.
    let budget = pop + (256 << 10) + (128 << 10);
    assert!(
        peak <= budget,
        "a 10^6-flow cell peaked at {peak} B, over {budget} B"
    );
}
