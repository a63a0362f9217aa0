//! Ablation A7: layout sensitivity (paper Section 4's methodology note).
//!
//! "Because the caches are not fully associative, the number of conflict
//! misses depends on the way the program is laid out in memory" — the
//! paper randomizes placement and averages. This ablation quantifies how
//! much layout matters: the Figure-1 function inventory placed randomly,
//! sequentially (link order), greedily (Cord-style colouring), and by
//! simulated annealing, scored by within-layer cache conflicts and by the
//! simulated per-message miss cost of one receive path.

use crate::harness::{grid, sums};
use crate::{Output, RunOpts};
use cachesim::{CacheConfig, Machine, MachineConfig, Region};
use layout::anneal::{anneal_place, AnnealConfig};
use layout::conflict::conflict_score;
use layout::place::{greedy_place, random_place, sequential_place, PlacedFunction};
use netstack::footprint::FUNCTIONS;
use std::collections::BTreeMap;

/// The Figure-1 inventory as (size, group = Table-1 layer) pairs.
fn inventory() -> Vec<(u64, u32)> {
    FUNCTIONS
        .iter()
        .map(|s| (s.touched_lines().max(1) * 32, s.layer as u32))
        .collect()
}

/// The placed functions' regions, grouped by layer.
fn by_layer(placed: &[PlacedFunction]) -> BTreeMap<u32, Vec<Region>> {
    let mut groups: BTreeMap<u32, Vec<Region>> = BTreeMap::new();
    for p in placed {
        groups.entry(p.group).or_default().push(p.region);
    }
    groups
}

/// Within-layer excess conflict lines summed over layers.
fn layer_conflicts(placed: &[PlacedFunction], cfg: &CacheConfig) -> u64 {
    by_layer(placed)
        .values()
        .map(|rs| conflict_score(rs, cfg).excess_lines)
        .sum()
}

/// Simulated I-cache misses for (a) one conventional receive path (all
/// functions fetched once, in order) and (b) one LDLP layer pass: each
/// layer's functions fetched repeatedly, as a blocked batch does. The
/// second number is where self-conflicts hurt — a conflict-free layer
/// stays resident for the whole batch.
fn path_misses(placed: &[PlacedFunction], machine_cfg: MachineConfig) -> (u64, u64) {
    let mut m = Machine::new(machine_cfg);
    let before = m.stats().icache.misses;
    for p in placed {
        m.fetch_code(p.region);
    }
    let cold = m.stats().icache.misses - before;

    // LDLP pass: per layer, fetch its functions for a 14-message batch;
    // count only the re-fetches after the first message.
    let mut batch_refetches = 0;
    for regions in by_layer(placed).values() {
        m.flush_caches();
        for r in regions {
            m.fetch_code(*r);
        }
        let before = m.stats().icache.misses;
        for _ in 1..14 {
            for r in regions {
                m.fetch_code(*r);
            }
        }
        batch_refetches += m.stats().icache.misses - before;
    }
    (cold, batch_refetches)
}

pub const ABLATION_LAYOUT_HEADER: [&str; 4] =
    ["placement", "layer_conflicts", "cold_misses", "ldlp_batch_refetches"];

pub fn run(opts: &RunOpts) -> Output {
    let sizes = inventory();
    let cache = CacheConfig::direct_mapped(8192, 32);
    let machine = MachineConfig::dec3000_400();
    let score = |placed: &[PlacedFunction]| {
        let (cold, steady) = path_misses(placed, machine);
        [layer_conflicts(placed, &cache), cold, steady]
    };
    let row = |name: &str, [conflicts, cold, steady]: [u64; 3]| {
        vec![name.to_string(), conflicts.to_string(), cold.to_string(), steady.to_string()]
    };

    // Random: averaged over seeds, reported as one row.
    let random = grid(opts, &[()], |_, seed| {
        score(&random_place(&sizes, Region::new(0, 4 << 20), &cache, seed))
    });
    let totals: [u64; 3] = sums(random.concat());
    let mut rows = vec![row("random", totals.map(|t| t / opts.seeds))];
    for (name, placed) in [
        ("sequential (link order)", sequential_place(&sizes, 0x1000, &cache)),
        ("greedy (Cord-style)", greedy_place(&sizes, 0x1000, &cache, 1)),
        ("annealed", anneal_place(&sizes, 0x1000, &cache, 1, AnnealConfig::default())),
    ] {
        rows.push(row(name, score(&placed)));
    }
    Output::table(
        format!(
            "Layout sensitivity of the Figure-1 inventory ({} functions,\n\
             {} KB of touched code) in an 8 KB direct-mapped I-cache\n\
             (random placement: the mean of {} seeds):",
            sizes.len(),
            sizes.iter().map(|s| s.0).sum::<u64>() / 1024,
            opts.seeds
        ),
        &ABLATION_LAYOUT_HEADER,
        rows,
        &[0, 1, 2, 3],
        "Cold misses are layout-independent (the working set is ~3.7x the\n\
         cache either way), but LDLP's payoff depends on each layer staying\n\
         resident for its whole batch: random placement's within-layer\n\
         conflicts re-fetch lines on every message of the batch, while any\n\
         packed layout keeps them at zero — the paper's 'no self-conflicts\n\
         within a layer' assumption, and what Cord-style tools buy you.",
    )
}
