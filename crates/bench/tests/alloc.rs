//! Allocation assertions for figure10's flow-lookup charge.
//!
//! `TableCharge::charge` runs inside `run_sim_lookup`'s measured window
//! once per message, and after its first call it must work entirely out
//! of what `TableCharge::new` built — the scan-order slice, the
//! pre-sized lookup cache and the table's computed layout. And `new`
//! itself computes that layout (a displacement per flow over an
//! occupancy bitmap) instead of building the table, so a 10^6-flow cell
//! asks the allocator for a fraction of the 32 MB its slots would take.
//!
//! A counting global allocator (this test binary only) measures exact
//! allocation counts and requested bytes around each window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bench::figure10::{flow_sequence, PopModel, TableCharge};
use cachesim::{Machine, MachineConfig};
use netstack::table::CacheScheme;
use simnet::LookupCharge;

struct CountingAlloc;

// Per-thread count, so a measurement window only sees its own test's
// allocations — the harness runs tests (and its own bookkeeping) on
// concurrent threads. `Cell<u64>` has no destructor and const init, so
// the allocator never recurses or touches torn-down TLS.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
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
        System.alloc(layout)
    }

    // SAFETY: delegates to System.dealloc; `ptr`/`layout` obligations
    // pass straight through from the caller.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to System.realloc; `ptr`/`layout`/`new_size`
    // obligations pass straight through from the caller.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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
    // 4 B a flow + 1 bit a slot (2^21) + the lookup cache; the table
    // itself is 2^21 slots x 16 B = 32 MB.
    assert!(
        requested < 8 << 20,
        "TableCharge::new requested {requested} B"
    );
    assert_eq!(lookup.mean_probes(), 0.0, "nothing charged yet");
}
