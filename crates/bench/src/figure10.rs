//! Figure 10: million-flow data working sets — cache-aware flow
//! lookup tables under Zipf and packet-train flow popularity.
//!
//! Every message charges one flow-table lookup through the engine's
//! private machine: a small per-flow lookup cache (Jain's
//! DEC-TR-592 schemes: LRU / FIFO / random × 1–64 slots) is scanned
//! first, and on a miss the open-addressing flow table's *actual
//! probe sequence* is replayed as data references, so D-misses per
//! lookup are simulated, not guessed. The table is loaded once and
//! then only looked up, so that sequence is a function of the key
//! order: the host computes the layout
//! (`netstack::table::PlacementIndex`, a displacement per flow over
//! an occupancy bitmap) instead of building 10^6 slots to ask ~2 000
//! questions of them. The sweep spans concurrent
//! flow populations 10^2 → 10^6 × {Conventional, LDLP} × lookup
//! scheme, fanned across worker threads and reduced in index order
//! — the CSV is byte-identical for any `--threads` value.
//!
//! Expected shape: at 10^2 flows every scheme's working set fits the
//! D-cache and lookups are nearly free; by 10^5–10^6 flows the
//! open-addressing table's probe footprint dwarfs the cache, every
//! cache-missing lookup pays cold-line reads, and D-misses per message
//! climb until they erode LDLP's instruction-cache win — the paper's
//! small-message argument inverted by data-side scale. The lookup-cache
//! columns reproduce Jain's DEC-TR-592 ordering (LRU > FIFO > random
//! hit rate, deeper caches hitting more) *and* its cost side: a deep
//! linearly-scanned cache pays its own footprint on every miss, so
//! under heavy-tailed Zipf popularity the hit-rate win is bought with
//! scan D-misses. Packet trains (self-similar locality) make even a
//! shallow cache effective.

use crate::harness::{average, grid, sums};
use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use netstack::table::{mix64, CacheScheme, LookupCache, PlacementIndex, MAX_CACHE_SLOTS};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim_lookup, LookupCharge, SimConfig};
use std::sync::{Arc, Mutex};

/// Paper workload: 552-byte signalling-sized messages.
pub const MSG_BYTES: u32 = 552;

/// Fixed offered load (msg/s) — well inside single-CPU capacity, so
/// latency differences come from lookup D-misses, not queueing.
pub const RATE: f64 = 2000.0;

/// Simulated address of the open-addressing flow table.
pub const FLOW_TABLE_BASE: u64 = 0x4000_0000;
/// Simulated address of the per-flow lookup cache.
pub const LOOKUP_CACHE_BASE: u64 = 0x4800_0000;
/// Bytes per *simulated* table / cache slot (key + value + occupancy
/// tag). The host holds no such slots — [`TableCharge`] computes which
/// indices a walk probes, all the model reads — and that changes
/// nothing here.
pub const SLOT_BYTES: u64 = 16;

/// Concurrent-flow populations swept (smoke keeps the 10^2 vs 10^4
/// contrast only; the full grid spans 10^2 → 10^6).
pub fn populations(smoke: bool) -> &'static [u64] {
    if smoke {
        &[100, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000]
    }
}

/// Flow-popularity model for the arrival stream's flow IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopModel {
    /// Independent Zipf(s=1) draws per message.
    Zipf,
    /// Packet trains: a Zipf-drawn flow persists for a
    /// Pareto-distributed burst of messages (self-similar locality).
    Train,
}

impl PopModel {
    pub fn label(self) -> &'static str {
        match self {
            PopModel::Zipf => "zipf",
            PopModel::Train => "train",
        }
    }
}

/// One swept lookup configuration.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub scheme: CacheScheme,
    pub cache_slots: usize,
    pub popmodel: PopModel,
}

/// The swept lookup configurations. The full grid reproduces Jain's
/// cache-scheme comparison (LRU depth sweep, FIFO and random at a
/// common depth) plus a packet-train locality column; smoke keeps
/// the three schemes at one depth.
pub fn variants(smoke: bool) -> &'static [Variant] {
    const FULL: [Variant; 6] = [
        Variant { scheme: CacheScheme::Lru, cache_slots: 1, popmodel: PopModel::Zipf },
        Variant { scheme: CacheScheme::Lru, cache_slots: 16, popmodel: PopModel::Zipf },
        Variant { scheme: CacheScheme::Lru, cache_slots: 64, popmodel: PopModel::Zipf },
        Variant { scheme: CacheScheme::Fifo, cache_slots: 16, popmodel: PopModel::Zipf },
        Variant { scheme: CacheScheme::Random, cache_slots: 16, popmodel: PopModel::Zipf },
        Variant { scheme: CacheScheme::Lru, cache_slots: 16, popmodel: PopModel::Train },
    ];
    const SMOKE: [Variant; 3] = [
        Variant { scheme: CacheScheme::Lru, cache_slots: 16, popmodel: PopModel::Zipf },
        Variant { scheme: CacheScheme::Fifo, cache_slots: 16, popmodel: PopModel::Zipf },
        Variant { scheme: CacheScheme::Random, cache_slots: 16, popmodel: PopModel::Zipf },
    ];
    if smoke {
        &SMOKE
    } else {
        &FULL
    }
}

/// Deterministic xorshift64* stream for flow draws.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(mix64(seed) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Ranks per block of [`Zipf`]: one block costs 16 B, a byte a rank.
const BLOCK_RANKS: u64 = 16;

/// Zipf(s = 1) sampler over `1..=n`: the harmonic CDF `H(k) / H(n)`,
/// inverted by binary search.
///
/// The ranks go in blocks of [`BLOCK_RANKS`], each keeping the running
/// sum before its first rank and the CDF value at its last: a draw
/// binary-searches the block ends, then re-adds at most 16 terms from
/// the block's stored sum. The sums are the same sequential `f64` adds,
/// and each CDF value the same division by `H(n)`, as a dense `n`-entry
/// CDF's, so every draw is bit-for-bit the dense sampler's (held
/// against it in this module's tests) at about 1 B a rank.
pub struct Zipf {
    n: u64,
    /// `H(n)`, the sum of all `n` terms in rank order.
    total: f64,
    /// Per block: the running sum before its first rank, and the CDF
    /// value at its last (the last block may be short).
    blocks: Vec<(f64, f64)>,
}

impl Zipf {
    pub fn new(n: u64) -> Self {
        let mut blocks = Vec::with_capacity(n.div_ceil(BLOCK_RANKS) as usize);
        let mut acc = 0.0f64;
        for first in (1..=n).step_by(BLOCK_RANKS as usize) {
            let before = acc;
            for k in first..=n.min(first + BLOCK_RANKS - 1) {
                acc += 1.0 / k as f64;
            }
            blocks.push((before, acc));
        }
        for (_, end) in &mut blocks {
            *end /= acc;
        }
        Zipf {
            n,
            total: acc,
            blocks,
        }
    }

    /// Maps a uniform `u` in [0, 1) to a 0-based flow rank: the first
    /// rank whose CDF value exceeds `u`, the last rank if none does.
    pub fn draw(&self, u: f64) -> u32 {
        let last = self.n.saturating_sub(1) as u32;
        let b = self.blocks.partition_point(|&(_, end)| end <= u);
        let Some(&(mut acc, _)) = self.blocks.get(b) else {
            return last;
        };
        let first = b as u64 * BLOCK_RANKS + 1;
        for k in first..first + BLOCK_RANKS {
            acc += 1.0 / k as f64;
            if acc / self.total > u {
                return (k - 1) as u32;
            }
        }
        last
    }

    /// The sampler over `1..=n`, built once per process and shared.
    /// It is a pure function of `n` — about 1 B a flow (1 MB and a few
    /// ms at 10^6) against the ~2 000 draws a cell makes from it — and
    /// every cell of a population, any seed, variant or worker thread,
    /// draws from the same one. It lives for
    /// the process because [`flow_sequence`]'s callers have nowhere to
    /// keep it between cells; the sweep has five populations.
    fn shared(n: u64) -> Arc<Zipf> {
        static BY_POPULATION: Mutex<Vec<(u64, Arc<Zipf>)>> = Mutex::new(Vec::new());
        // Entries are pushed whole, so the table is valid even if a
        // holder of the lock panicked.
        let mut table = BY_POPULATION.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, zipf)) = table.iter().find(|(pop, _)| *pop == n) {
            return Arc::clone(zipf);
        }
        let zipf = Arc::new(Zipf::new(n));
        table.push((n, Arc::clone(&zipf)));
        zipf
    }
}

/// The per-message flow-ID sequence: `n` draws over a population of
/// `pop` flows, ranked by Zipf popularity. `Train` mode holds each
/// drawn flow for a Pareto(α = 1.5) burst (capped at 64 messages),
/// so consecutive messages revisit the same table entry — the
/// locality a lookup cache exploits.
pub fn flow_sequence(pop: u64, n: usize, seed: u64, model: PopModel) -> Vec<u32> {
    let zipf = Zipf::shared(pop);
    sequence_from(|u| zipf.draw(u), pop, n, seed, model)
}

/// [`flow_sequence`] over any sampler `draw` of the population's ranks.
fn sequence_from(
    draw: impl Fn(f64) -> u32,
    pop: u64,
    n: usize,
    seed: u64,
    model: PopModel,
) -> Vec<u32> {
    let mut rng = Rng::new(seed ^ mix64(pop));
    let mut out = Vec::with_capacity(n);
    match model {
        PopModel::Zipf => {
            for _ in 0..n {
                out.push(draw(rng.next_f64()));
            }
        }
        PopModel::Train => {
            while out.len() < n {
                let flow = draw(rng.next_f64());
                let u = rng.next_f64();
                let burst = (1.0 - u).powf(-1.0 / 1.5).min(64.0) as usize;
                for _ in 0..burst.max(1) {
                    if out.len() == n {
                        break;
                    }
                    out.push(flow);
                }
            }
        }
    }
    out
}

/// Slot indices in lookup-cache scan order; the prefix a lookup
/// scanned is a slice of this.
const SCAN_ORDER: [u32; MAX_CACHE_SLOTS] = {
    let mut order = [0; MAX_CACHE_SLOTS];
    let mut i = 0;
    while i < MAX_CACHE_SLOTS {
        order[i] = i as u32;
        i += 1;
    }
    order
};

/// Charges each message's flow lookup to the engine's machine: scan
/// the lookup cache (its resident footprint), and on a cache miss
/// replay the open-addressing table's probe sequence as data reads
/// plus one cache-fill write.
pub struct TableCharge {
    /// The flow table's layout, not the table: `charge` reads which
    /// slots a walk probes, never a key or a value, and for a table
    /// loaded once and then only looked up that is a function of
    /// the key sequence.
    layout: PlacementIndex,
    cache: LookupCache<u64, u32>,
    key_salt: u64,
    probes_total: u64,
    lookups: u64,
}

impl TableCharge {
    /// Lays out the flow table with `pop` live entries, flow `i`'s
    /// key the `i`-th loaded. Keys are drawn from a per-seed key
    /// space so slot placement (and thus probe clustering) varies
    /// across placements; `mix64` is a bijection, so they are
    /// pairwise distinct.
    pub fn new(pop: u64, scheme: CacheScheme, cache_slots: usize, seed: u64) -> Self {
        let key_salt = mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pop);
        let keys = (0..pop as usize).map(|flow| mix64(key_salt ^ flow as u64));
        TableCharge {
            layout: PlacementIndex::build(keys),
            cache: LookupCache::new(scheme, cache_slots, seed),
            key_salt,
            probes_total: 0,
            lookups: 0,
        }
    }

    /// Probe count per successful table walk, averaged over the run.
    pub fn mean_probes(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.probes_total as f64 / self.lookups as f64
        }
    }

    pub fn cache_stats(&self) -> netstack::table::LookupCacheStats {
        self.cache.stats()
    }
}

impl LookupCharge for TableCharge {
    fn charge(&mut self, flow_id: u32, machine: &mut cachesim::Machine) -> u64 {
        let key = mix64(self.key_salt ^ flow_id as u64);
        // The cache's linear scan stops at the hit slot (LRU's
        // move-to-front keeps hot flows near the front — Jain's
        // argument for the scheme); a miss scans every entry.
        let scanned_slots = match self.cache.position(&key) {
            Some(pos) => pos + 1,
            None => self.cache.len(),
        };
        debug_assert!(scanned_slots <= SCAN_ORDER.len());
        let scanned = SCAN_ORDER.get(..scanned_slots).unwrap_or_default();
        let mut dm = machine.read_data_probes(LOOKUP_CACHE_BASE, SLOT_BYTES, scanned);
        if self.cache.get(&key).is_some() {
            return dm;
        }
        self.lookups += 1;
        // A flow outside the population is an absent key: the walk
        // is counted and nothing is charged for it.
        if let Some(walk) = self.layout.probes(flow_id as usize, &key) {
            for slot in walk {
                self.probes_total += 1;
                dm += machine.read_data_probes(FLOW_TABLE_BASE, SLOT_BYTES, &[slot]);
            }
            self.cache.insert(key, flow_id);
            dm += machine.write_data_slot(LOOKUP_CACHE_BASE, SLOT_BYTES, 0);
        }
        dm
    }
}

/// One variant's seed-averaged measurements at a grid cell.
#[derive(Debug, Clone)]
pub struct VariantPoint {
    pub scheme: &'static str,
    pub cache_slots: usize,
    pub popmodel: &'static str,
    pub report: SimReport,
    /// Lookup-cache hit rate over the run.
    pub cache_hit_rate: f64,
    /// Mean open-addressing probes per table walk (cache misses).
    pub mean_probes: f64,
}

/// One (population, discipline) grid cell: all swept variants.
#[derive(Debug, Clone)]
pub struct Figure10Point {
    pub population: u64,
    pub discipline: &'static str,
    pub variants: Vec<VariantPoint>,
}

type Job = (SimReport, [f64; 4]);

fn run_cell(
    pop: u64,
    discipline: Discipline,
    variant: &Variant,
    seed: u64,
    duration_s: f64,
) -> Job {
    let arrivals = PoissonSource::new(RATE, MSG_BYTES, seed).take_until(duration_s);
    let flow_ids = flow_sequence(pop, arrivals.len(), seed, variant.popmodel);
    let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
    let mut engine = StackEngine::new(machine, layers, discipline);
    let mut lookup = TableCharge::new(pop, variant.scheme, variant.cache_slots, seed);
    let sim_cfg = SimConfig {
        duration_s,
        pool_seed: seed,
        ..SimConfig::default()
    };
    let report = run_sim_lookup(&mut engine, &arrivals, &flow_ids, &sim_cfg, &mut lookup);
    let stats = lookup.cache_stats();
    (
        report,
        [
            stats.hits as f64,
            stats.misses as f64,
            lookup.probes_total as f64,
            lookup.lookups as f64,
        ],
    )
}

/// The two disciplines every population runs, with their CSV labels.
const DISCIPLINES: [(&str, Discipline); 2] = [
    ("conv", Discipline::Conventional),
    ("ldlp", Discipline::Ldlp(BatchPolicy::DCacheFit)),
];

/// The full sweep: every (population, discipline) cell × swept
/// variants × `opts.seeds` placements, averaged in seed order.
pub fn sweep(opts: &RunOpts) -> Vec<Figure10Point> {
    let vars = variants(opts.smoke);
    let mut cells = Vec::new();
    for &pop in populations(opts.smoke) {
        for discipline in DISCIPLINES {
            for v in vars {
                cells.push((pop, discipline, v));
            }
        }
    }
    let jobs = grid(opts, &cells, |&(pop, (_, discipline), v), seed| {
        run_cell(pop, discipline, v, seed, opts.duration_s)
    });
    cells
        .chunks(vars.len())
        .zip(jobs.chunks(vars.len()))
        .map(|(cell, jobs)| Figure10Point {
            population: cell[0].0,
            discipline: cell[0].1 .0,
            variants: cell
                .iter()
                .zip(jobs)
                .map(|(&(_, _, v), seeds)| {
                    let [hits, misses, probes, walks] = sums(seeds.iter().map(|job| job.1));
                    VariantPoint {
                        scheme: v.scheme.label(),
                        cache_slots: v.cache_slots,
                        popmodel: v.popmodel.label(),
                        report: average(seeds.iter().map(|job| job.0.clone())),
                        cache_hit_rate: if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
                        mean_probes: if walks > 0.0 { probes / walks } else { 0.0 },
                    }
                })
                .collect(),
        })
        .collect()
}

/// CSV schema: one row per (population, discipline, variant).
pub const FIGURE10_HEADER: [&str; 14] = [
    "population",
    "discipline",
    "scheme",
    "cache_slots",
    "popmodel",
    "imiss_per_msg",
    "dmiss_per_msg",
    "mean_latency_us",
    "p99_latency_us",
    "throughput",
    "drops",
    "mean_batch",
    "cache_hit_rate",
    "mean_probes",
];

/// Rows for [`FIGURE10_HEADER`].
pub fn figure10_rows(points: &[Figure10Point]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for p in points {
        for v in &p.variants {
            rows.push(vec![
                p.population.to_string(),
                p.discipline.to_string(),
                v.scheme.to_string(),
                v.cache_slots.to_string(),
                v.popmodel.to_string(),
                f(v.report.mean_imiss, 2),
                f(v.report.mean_dmiss, 2),
                f(v.report.mean_latency_us, 1),
                f(v.report.p99_latency_us, 1),
                f(v.report.throughput, 0),
                v.report.drops.to_string(),
                f(v.report.mean_batch, 3),
                f(v.cache_hit_rate, 4),
                f(v.mean_probes, 3),
            ]);
        }
    }
    rows
}

pub fn run(opts: &RunOpts) -> Output {
    Output::table(
        format!(
            "Figure 10: flow-population sweep (Poisson {RATE} msg/s, 552-byte messages,\n\
             populations {:?}, 2 disciplines x {} lookup variants x {} placements x {}s,\n\
             {} worker threads)",
            populations(opts.smoke),
            variants(opts.smoke).len(),
            opts.seeds,
            opts.duration_s,
            opts.effective_threads()
        ),
        &FIGURE10_HEADER,
        figure10_rows(&sweep(opts)),
        &[0, 1, 2, 3, 4, 6, 8, 12, 13],
        "",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::table::OaTable;

    #[test]
    fn zipf_draws_are_skewed_and_in_range() {
        let pop = 1000u64;
        let seq = flow_sequence(pop, 4000, 7, PopModel::Zipf);
        assert_eq!(seq.len(), 4000);
        assert!(seq.iter().all(|&v| (v as u64) < pop));
        let head = seq.iter().filter(|&&v| v < 10).count();
        // Zipf(s=1) over 1000 puts ~39% of mass on the top 10.
        assert!(head > seq.len() / 5, "top-10 flows got {head}/4000");
        assert_eq!(seq, flow_sequence(pop, 4000, 7, PopModel::Zipf));
    }

    /// The sampler [`Zipf`] replaced, kept as its reference: all `n`
    /// CDF values, inverted by one binary search.
    struct DenseZipf {
        cdf: Vec<f64>,
    }

    impl DenseZipf {
        fn new(n: u64) -> Self {
            let mut cdf = Vec::with_capacity(n as usize);
            let mut acc = 0.0f64;
            for k in 1..=n {
                acc += 1.0 / k as f64;
                cdf.push(acc);
            }
            for c in &mut cdf {
                *c /= acc;
            }
            DenseZipf { cdf }
        }

        fn draw(&self, u: f64) -> u32 {
            let i = self.cdf.partition_point(|&c| c <= u);
            i.min(self.cdf.len().saturating_sub(1)) as u32
        }
    }

    /// Draw for draw, the block sampler is the dense one: at every CDF
    /// value and its neighbours ±1 ulp, both ends of [0, 1) and 10^5
    /// uniform draws, for populations on either side of a block
    /// boundary and up to 10^6.
    #[test]
    fn block_sampler_draws_like_the_dense_cdf() {
        let uniform: Vec<f64> = {
            let mut rng = Rng::new(0x5eed);
            (0..100_000).map(|_| rng.next_f64()).collect()
        };
        let (b, k) = (BLOCK_RANKS, 1 << 14);
        for n in [1, 2, b, b + 1, k - 1, k, k + 1, k + b, k + b + 1, 100_000, 1_000_000] {
            let (zipf, dense) = (Zipf::new(n), DenseZipf::new(n));
            let mut us = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            for &c in &dense.cdf {
                us.extend([c.next_down(), c, c.next_up()]);
            }
            us.extend(&uniform);
            for u in us {
                assert_eq!(zipf.draw(u), dense.draw(u), "n = {n}, u = {u:e}");
            }
        }
    }

    /// Whole flow sequences, both popularity models, three seeds: the
    /// shared block sampler draws the dense sampler's flows.
    #[test]
    fn flow_sequences_match_the_dense_sampler() {
        for pop in [(1 << 14) + 17, 100_000, 1_000_000] {
            let dense = DenseZipf::new(pop);
            for seed in [1, 2, 3] {
                for model in [PopModel::Zipf, PopModel::Train] {
                    assert_eq!(
                        flow_sequence(pop, 20_000, seed, model),
                        sequence_from(|u| dense.draw(u), pop, 20_000, seed, model),
                        "population {pop}, seed {seed}, {model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn trains_revisit_flows_in_runs() {
        let seq = flow_sequence(10_000, 4000, 3, PopModel::Train);
        let repeats = seq.windows(2).filter(|w| w[0] == w[1]).count();
        let zipf = flow_sequence(10_000, 4000, 3, PopModel::Zipf);
        let zipf_repeats = zipf.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            repeats > zipf_repeats + 200,
            "trains: {repeats} adjacent repeats vs zipf's {zipf_repeats}"
        );
    }

    #[test]
    fn table_charge_hits_every_live_flow() {
        let mut machine = cachesim::Machine::new(MachineConfig::synthetic_benchmark());
        let mut tc = TableCharge::new(500, CacheScheme::Lru, 4, 1);
        for flow in 0..500u32 {
            tc.charge(flow, &mut machine);
        }
        let stats = tc.cache_stats();
        assert_eq!(stats.hits + stats.misses, 500);
        assert_eq!(tc.lookups, stats.misses, "every cache miss walked the table");
        assert!(tc.mean_probes() >= 1.0);
    }

    /// The reference for [`TableCharge`]: the flow table itself,
    /// loaded key by key, each lookup's logged probe run charged.
    struct BuiltTableCharge {
        table: OaTable<u64, ()>,
        cache: LookupCache<u64, u32>,
        key_salt: u64,
        probes_total: u64,
        lookups: u64,
    }

    impl BuiltTableCharge {
        fn new(pop: u64, scheme: CacheScheme, cache_slots: usize, seed: u64) -> Self {
            let key_salt = mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pop);
            let mut table = OaTable::with_capacity(pop as usize);
            for flow in 0..pop {
                table.insert(mix64(key_salt ^ flow), ());
            }
            BuiltTableCharge {
                table,
                cache: LookupCache::new(scheme, cache_slots, seed),
                key_salt,
                probes_total: 0,
                lookups: 0,
            }
        }
    }

    impl LookupCharge for BuiltTableCharge {
        fn charge(&mut self, flow_id: u32, machine: &mut cachesim::Machine) -> u64 {
            let key = mix64(self.key_salt ^ flow_id as u64);
            let scanned_slots = match self.cache.position(&key) {
                Some(pos) => pos + 1,
                None => self.cache.len(),
            };
            let mut dm =
                machine.read_data_probes(LOOKUP_CACHE_BASE, SLOT_BYTES, &SCAN_ORDER[..scanned_slots]);
            if self.cache.get(&key).is_some() {
                return dm;
            }
            self.lookups += 1;
            if self.table.get_mut(&key).is_some() {
                let probes = self.table.last_probes();
                self.probes_total += probes.len() as u64;
                dm += machine.read_data_probes(FLOW_TABLE_BASE, SLOT_BYTES, probes);
                self.cache.insert(key, flow_id);
                dm += machine.write_data_slot(LOOKUP_CACHE_BASE, SLOT_BYTES, 0);
            }
            dm
        }
    }

    /// The computed layout is the built table's: the same charged
    /// misses message by message, probe mean, cache counters and
    /// machine totals over a whole 10^5-flow cell, under every
    /// scheme — out-of-population flows included.
    #[test]
    fn computed_layout_charges_like_the_built_table() {
        let (pop, seed) = (100_000u64, 3u64);
        let mut flows = flow_sequence(pop, 2_000, seed, PopModel::Zipf);
        flows.extend([pop as u32, 17, u32::MAX, pop as u32 - 1]);
        for scheme in [CacheScheme::Lru, CacheScheme::Fifo, CacheScheme::Random] {
            let mut computed = TableCharge::new(pop, scheme, 16, seed);
            let mut built = BuiltTableCharge::new(pop, scheme, 16, seed);
            assert_eq!(computed.layout.capacity(), built.table.capacity());
            let cfg = MachineConfig::synthetic_benchmark();
            let (mut m_computed, mut m_built) =
                (cachesim::Machine::new(cfg), cachesim::Machine::new(cfg));
            for &flow in &flows {
                assert_eq!(
                    computed.charge(flow, &mut m_computed),
                    built.charge(flow, &mut m_built),
                    "{scheme:?}: flow {flow}"
                );
            }
            assert_eq!(
                (computed.probes_total, computed.lookups),
                (built.probes_total, built.lookups)
            );
            assert_eq!(
                computed.mean_probes().to_bits(),
                (built.probes_total as f64 / built.lookups as f64).to_bits()
            );
            assert_eq!(computed.cache_stats(), built.cache.stats());
            assert_eq!(
                format!("{:?}", m_computed.stats()),
                format!("{:?}", m_built.stats()),
                "{scheme:?}: machine totals"
            );
            assert!(computed.cache_stats().misses > 0, "{scheme:?}: the table was walked");
        }
    }

    /// A flow the table never held misses the cache, counts as a
    /// walk and charges nothing for it.
    #[test]
    fn out_of_population_flow_counts_a_lookup_and_charges_no_probes() {
        let mut machine = cachesim::Machine::new(MachineConfig::synthetic_benchmark());
        let mut tc = TableCharge::new(500, CacheScheme::Lru, 4, 1);
        for flow in [500u32, 501, u32::MAX] {
            assert_eq!(tc.charge(flow, &mut machine), 0, "empty cache, no walk: no reads");
        }
        assert_eq!((tc.lookups, tc.probes_total), (3, 0));
        assert_eq!(tc.mean_probes(), 0.0);
        let stats = tc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 3), "absent flows are never cached");
        assert_eq!(machine.stats().dcache.misses, 0);
        // A live flow after them walks and fills as usual.
        assert!(tc.charge(499, &mut machine) > 0);
        assert_eq!(tc.lookups, 4);
        assert!(tc.probes_total >= 1);
    }

    /// The shared per-population CDF is invisible: repeat calls,
    /// calls with other populations in between and calls from four
    /// threads at once all return the one sequence.
    #[test]
    fn flow_sequences_repeat_across_calls_populations_and_threads() {
        let pops = [100u64, 1_000, 10_000, 100_000];
        let draw = |pop: u64| {
            (
                flow_sequence(pop, 500, 11, PopModel::Zipf),
                flow_sequence(pop, 500, 11, PopModel::Train),
            )
        };
        let want: Vec<_> = pops.iter().map(|&pop| draw(pop)).collect();
        for (i, &pop) in pops.iter().enumerate().rev() {
            assert_eq!(draw(pop), want[i], "population {pop}, interleaved");
        }
        // 77 777 is no other test's population: the four threads race
        // to build its CDF as well as to read the cached ones.
        let start = std::sync::Barrier::new(4);
        let raced: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (want, start) = (&want, &start);
                    s.spawn(move || {
                        start.wait();
                        let fresh = draw(77_777);
                        for i in 0..pops.len() {
                            let at = (i + t) % pops.len();
                            assert_eq!(draw(pops[at]), want[at], "thread {t}");
                        }
                        fresh
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("drawing thread"))
                .collect()
        });
        let serial = draw(77_777);
        assert!(raced.iter().all(|r| *r == serial));
        assert_eq!(want[1].0, {
            let zipf = Zipf::new(1_000);
            let mut rng = Rng::new(11 ^ mix64(1_000));
            (0..500).map(|_| zipf.draw(rng.next_f64())).collect::<Vec<_>>()
        });
    }

    #[test]
    fn bigger_population_means_more_lookup_dmisses() {
        let points = sweep(&crate::harness::tiny_opts(2));
        assert_eq!(points.len(), 4, "2 populations x 2 disciplines");
        let dmiss = |pop: u64, disc: &str| -> f64 {
            points
                .iter()
                .find(|p| p.population == pop && p.discipline == disc)
                .map(|p| p.variants[0].report.mean_dmiss)
                .unwrap_or(f64::NAN)
        };
        assert!(
            dmiss(10_000, "conv") > dmiss(100, "conv"),
            "10^4 flows should miss more than 10^2: {} vs {}",
            dmiss(10_000, "conv"),
            dmiss(100, "conv")
        );
    }
}
