//! The deterministic mixed-stream generator.
//!
//! One service, several protocols: the generator interleaves the five
//! [`WireClass`]es into a single arrival stream the way a production
//! box sees them — Poisson aggregate arrivals, a seeded class draw per
//! message, and heavy-tailed (bounded-Pareto) sizes per class. The
//! paper's Figures 5–9 drive one stack at a time; `figure14` drives
//! this mix through `smp::SmpSim` so the per-class accounting can show
//! what interleaving does to each class's I-cache bill and SLO.
//!
//! Determinism contract: every generated stream is a pure function of
//! its [`MixConfig`] (same config, same stream — bit for bit), and the
//! per-message RNG draw budget is fixed. [`MixedStream::next_arrival`]
//! makes exactly 3 draws per message and [`to_flow_arrivals`] 1 per
//! message, regardless of outcome, so no draw ever depends on an
//! earlier message's class or size. The `rng-draw-budget` analyze rule
//! cross-checks the `// draws: N` annotations against the call sites.

use crate::class::WireClass;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smp::{FlowArrival, FlowKey, MAX_WCLASS};
use std::sync::OnceLock;

/// Configuration of a mixed multi-protocol stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixConfig {
    /// Aggregate arrival rate, messages per second (all classes).
    pub rate: f64,
    /// Stream length in seconds.
    pub duration_s: f64,
    /// Relative class weights, in [`WireClass::ALL`] order. Need not
    /// sum to 1; zero-weight classes never appear.
    pub weights: [f64; 5],
    /// Stream seed (class draws, sizes, interarrivals).
    pub seed: u64,
}

impl MixConfig {
    /// The figure14 service mix: RPC-heavy with a media-control
    /// sideband and a trickle of agent relay traffic.
    pub fn service_mix(rate: f64, duration_s: f64, seed: u64) -> MixConfig {
        MixConfig {
            rate,
            duration_s,
            weights: [0.18, 0.34, 0.22, 0.16, 0.10],
            seed,
        }
    }
}

/// The buffer-size ladder message sizes are rounded up to — the fixed
/// mbuf/cluster sizes a real allocator hands out. Quantizing keeps the
/// heavy-tailed *mass* of each class's size distribution while
/// bounding the number of distinct data footprints the cache model
/// sweeps, which is what keeps the footprint-replay memoizer's state
/// space (and CI's replay-hit-rate budget) under control.
pub const SIZE_LADDER: [u32; 12] = [
    48, 64, 96, 128, 192, 256, 384, 512, 768, 1_024, 1_280, 1_440,
];

/// Rounds `bytes` up to the next [`SIZE_LADDER`] rung (saturating at
/// the top rung).
fn quantize(bytes: u32) -> u32 {
    for &rung in &SIZE_LADDER {
        if bytes <= rung {
            return rung;
        }
    }
    SIZE_LADDER[SIZE_LADDER.len() - 1]
}

/// The largest size draw: [`MixedStream::next_arrival`] clamps its
/// third draw here, so this is where the size tables end.
const V_MAX: f64 = 1.0 - 1e-12;

/// The size a class draws at `v` in `[0, V_MAX]`: the bounded-Pareto
/// inverse CDF x = L / (1 − v (1 − (L/H)^α))^(1/α), truncated and
/// rounded up to a buffer. This *is* the size distribution; [`SizeRuns`]
/// is its tabulation and is built from, and debug-checked against, it.
fn size_of(class: WireClass, v: f64) -> u32 {
    let (lo, hi, alpha) = class.size_params();
    let l = f64::from(lo);
    let h = f64::from(hi);
    let ratio = (l / h).powf(alpha);
    let x = l / (1.0 - v * (1.0 - ratio)).powf(1.0 / alpha);
    // Buffers come in ladder sizes; every class band's ends are rungs,
    // so the quantized size stays within the band.
    quantize((x as u32).clamp(lo, hi)).clamp(lo, hi)
}

/// Buckets of a [`SizeRuns`] index. A power of two, so `v · BUCKETS`
/// only shifts the exponent: its floor names the bucket exactly.
const BUCKETS: usize = 1024;

/// [`size_of`] for one class as a step function of `v`: `steps` holds
/// `(v_upper_exclusive, bytes)` in increasing `v`, closed by
/// `(f64::INFINITY, top)` for every `v` past the last threshold.
/// `size_of` is non-decreasing in `v` and takes one value per ladder
/// rung in the class band, so a step per rung is the whole function.
/// `first[b]` is the first step a `v` in bucket `b` can land in: the
/// scan starts there and, but in the few buckets a threshold splits,
/// stops at its first compare.
#[derive(Debug)]
struct SizeRuns {
    class: WireClass,
    steps: Vec<(f64, u32)>,
    first: [u8; BUCKETS],
}

impl SizeRuns {
    /// Finds every step of `size_of(class, ·)` by bisection over the
    /// *bit patterns* of `v` (non-negative `f64`s order as their bits),
    /// evaluating the formula with the host's own `powf`: each threshold
    /// is the exact first `f64` at which this libm's result crosses the
    /// rung, not a closed-form inverse that may differ from it by an ULP.
    fn build(class: WireClass) -> SizeRuns {
        let last = V_MAX.to_bits();
        let top = size_of(class, V_MAX);
        let mut steps = Vec::new();
        let mut below = 0.0f64.to_bits();
        loop {
            let bytes = size_of(class, f64::from_bits(below));
            if bytes == top {
                steps.push((f64::INFINITY, top));
                break;
            }
            // Invariant: size_of(below) <= bytes < size_of(above).
            let mut above = last;
            while above - below > 1 {
                let mid = below + (above - below) / 2;
                if size_of(class, f64::from_bits(mid)) <= bytes {
                    below = mid;
                } else {
                    above = mid;
                }
            }
            steps.push((f64::from_bits(above), bytes));
            below = above;
        }
        let first = std::array::from_fn(|b| {
            let edge = b as f64 / BUCKETS as f64;
            let passed = steps
                .iter()
                .take_while(|&&(upper, _)| upper <= edge)
                .count();
            u8::try_from(passed).expect("a class band spans at most ten rungs")
        });
        SizeRuns {
            class,
            steps,
            first,
        }
    }

    #[inline(always)]
    fn lookup(&self, v: f64) -> u32 {
        let bucket = ((v * BUCKETS as f64) as usize).min(BUCKETS - 1);
        let mut i = usize::from(self.first[bucket]);
        while v >= self.steps[i].0 {
            i += 1;
        }
        self.steps[i].1
    }
}

/// One [`SizeRuns`] per class, in [`WireClass::ALL`] order. A pure
/// function of the class constants, so built once per process: a
/// figure14 rep opens 96 streams over the same five tables.
fn size_tables() -> &'static [SizeRuns; 5] {
    static TABLES: OnceLock<[SizeRuns; 5]> = OnceLock::new();
    TABLES.get_or_init(|| WireClass::ALL.map(SizeRuns::build))
}

/// One arrival of the mixed stream: a time, a size, and the class it
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassedArrival {
    /// Arrival time in seconds from the start of the run.
    pub time_s: f64,
    /// Message size in bytes (within the class's size band).
    pub bytes: u32,
    /// The traffic class.
    pub class: WireClass,
}

/// The stateful generator behind [`generate`]. Poisson interarrivals
/// at the aggregate rate, a weighted class draw, then a bounded-Pareto
/// size draw from the class's band.
#[derive(Debug)]
pub struct MixedStream {
    rate: f64,
    /// Cumulative weights of the first four classes, normalised so the
    /// fifth would end at 1.0.
    cum: [f64; 4],
    t: f64,
    rng: StdRng,
    sizes: &'static [SizeRuns; 5],
}

impl MixedStream {
    /// A stream over `cfg` (ignores `cfg.duration_s`; the stream is
    /// unbounded and callers cut it, cf. `TrafficSource::take_until`).
    pub fn new(cfg: &MixConfig) -> MixedStream {
        assert!(cfg.rate > 0.0, "mixed stream needs a positive rate");
        let total: f64 = cfg.weights.iter().filter(|w| w.is_sign_positive()).sum();
        assert!(total > 0.0, "at least one class weight must be positive");
        // The fifth class closes the distribution at 1.0, above every
        // draw, so it needs no entry.
        let mut cum = [0.0f64; 4];
        let mut acc = 0.0;
        for (c, w) in cum.iter_mut().zip(cfg.weights.iter()) {
            acc += w.max(0.0) / total;
            *c = acc;
        }
        MixedStream {
            rate: cfg.rate,
            cum,
            t: 0.0,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x00f1_4f1e),
            sizes: size_tables(),
        }
    }

    /// The next arrival. Fixed draw budget per message — interarrival,
    /// class, size — so later messages never see a draw-stream shifted
    /// by an earlier message's outcome.
    /// Inlined into [`generate`]'s loop: with no data-dependent exit
    /// left in the class or size draw, successive messages' `ln` calls
    /// overlap.
    // draws: 3
    #[inline(always)]
    pub fn next_arrival(&mut self) -> ClassedArrival {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        self.t += -u.ln() / self.rate;
        let p: f64 = self.rng.random::<f64>();
        let runs = &self.sizes[class_at(&self.cum, p)];
        let v: f64 = self.rng.random::<f64>().min(V_MAX);
        let bytes = runs.lookup(v);
        debug_assert_eq!(bytes, size_of(runs.class, v), "size table at v = {v:e}");
        ClassedArrival {
            time_s: self.t,
            bytes,
            class: runs.class,
        }
    }
}

/// The class a draw `p` in `[0, 1)` picks: the count of cumulative
/// weights at or below `p`, which is the index of the first one above
/// it (a zero-weight class repeats its predecessor's weight, so `p`
/// passes both), counted without a data-dependent exit.
#[inline(always)]
fn class_at(cum: &[f64; 4], p: f64) -> usize {
    cum.iter().map(|&c| usize::from(c <= p)).sum()
}

/// Generates the full stream for `cfg`: every arrival strictly before
/// `cfg.duration_s`, in time order.
pub fn generate(cfg: &MixConfig) -> Vec<ClassedArrival> {
    let mut s = MixedStream::new(cfg);
    let mut out = Vec::new();
    loop {
        let a = s.next_arrival();
        if a.time_s >= cfg.duration_s {
            return out;
        }
        out.push(a);
    }
}

/// Tags each classed arrival with a flow drawn from a per-class slice
/// of a `flows`-flow population (classes do not share flows: an RPC
/// connection is never also a DNS client), producing the
/// [`FlowArrival`]s `smp::SmpSim` runs on. One draw per message.
// draws: 1
pub fn to_flow_arrivals(stream: &[ClassedArrival], flows: u32, seed: u64) -> Vec<FlowArrival> {
    let per_class = (flows / WireClass::ALL.len() as u32).max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0f10_c1a5);
    stream
        .iter()
        .map(|a| {
            let within = rng.random_range(0..per_class);
            let flow_id = u32::from(a.class.id() - 1) * per_class + within;
            FlowArrival {
                time_s: a.time_s,
                bytes: a.bytes,
                corrupted: false,
                flow_id,
                key: FlowKey::synth(flow_id, seed),
                wclass: a.class.id(),
            }
        })
        .collect()
}

/// Per-class message counts of a stream, indexed by class id.
pub fn class_counts(stream: &[ClassedArrival]) -> [u64; MAX_WCLASS] {
    let mut out = [0u64; MAX_WCLASS];
    for a in stream {
        if let Some(slot) = out.get_mut(a.class.index()) {
            *slot += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> MixConfig {
        MixConfig::service_mix(20_000.0, 0.5, seed)
    }

    #[test]
    fn streams_are_deterministic_per_config() {
        let a = generate(&cfg(7));
        let b = generate(&cfg(7));
        let c = generate(&cfg(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn mix_matches_the_weights() {
        let stream = generate(&cfg(3));
        let counts = class_counts(&stream);
        let total: u64 = counts.iter().sum();
        assert_eq!(total as usize, stream.len());
        let mix = MixConfig::service_mix(1.0, 1.0, 0).weights;
        for (c, want) in WireClass::ALL.iter().zip(mix.iter()) {
            let got = counts[c.index()] as f64 / total as f64;
            assert!(
                (got - want).abs() < 0.03,
                "{c:?}: got {got:.3}, want {want:.3}"
            );
        }
    }

    #[test]
    fn sizes_stay_in_band_and_are_heavy_tailed() {
        let stream = generate(&cfg(11));
        for c in WireClass::ALL {
            let (lo, hi, _) = c.size_params();
            let sizes: Vec<u32> = stream
                .iter()
                .filter(|a| a.class == c)
                .map(|a| a.bytes)
                .collect();
            assert!(sizes.len() > 100, "{c:?} underrepresented");
            assert!(sizes.iter().all(|&b| (lo..=hi).contains(&b)), "{c:?}");
            assert!(
                sizes.iter().all(|&b| SIZE_LADDER.contains(&b)),
                "{c:?}: sizes must be buffer-ladder rungs"
            );
            // Heavy tail: the median hugs the floor, the max does not.
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            let max = *sorted.last().unwrap();
            assert!(median < lo + (hi - lo) / 4, "{c:?} median {median}");
            assert!(max > lo + (hi - lo) / 2, "{c:?} max {max} never tails");
        }
    }

    #[test]
    fn flow_tags_partition_by_class() {
        let stream = generate(&cfg(5));
        let tagged = to_flow_arrivals(&stream, 250, 5);
        assert_eq!(tagged.len(), stream.len());
        assert_eq!(tagged, to_flow_arrivals(&stream, 250, 5), "deterministic");
        let per_class = 250 / 5;
        for (a, f) in stream.iter().zip(tagged.iter()) {
            assert_eq!(f.wclass, a.class.id());
            assert_eq!(f.bytes, a.bytes);
            let band = u32::from(a.class.id() - 1) * per_class;
            assert!(
                (band..band + per_class).contains(&f.flow_id),
                "{:?} flow {} outside its class band",
                a.class,
                f.flow_id
            );
        }
    }

    #[test]
    fn ladder_is_sorted_and_covers_every_band_end() {
        assert!(SIZE_LADDER.windows(2).all(|w| w[0] < w[1]));
        for c in WireClass::ALL {
            let (lo, hi, _) = c.size_params();
            assert!(SIZE_LADDER.contains(&lo), "{c:?} floor off the ladder");
            assert!(SIZE_LADDER.contains(&hi), "{c:?} ceiling off the ladder");
        }
        assert_eq!(quantize(1), 48);
        assert_eq!(quantize(48), 48);
        assert_eq!(quantize(49), 64);
        assert_eq!(quantize(2_000), 1_440, "saturates at the top rung");
    }

    /// FNV-1a over every field of a generated stream and of its
    /// flow-tagged form.
    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn stream_digests(seed: u64) -> (usize, u64, u64) {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let stream = generate(&cfg(seed));
        let classed = stream.iter().fold(FNV_OFFSET, |h, a| {
            let h = fnv1a(h, &a.time_s.to_bits().to_le_bytes());
            let h = fnv1a(h, &a.bytes.to_le_bytes());
            fnv1a(h, &[a.class.id()])
        });
        let tagged = to_flow_arrivals(&stream, 250, seed)
            .iter()
            .fold(FNV_OFFSET, |h, f| {
                let h = fnv1a(h, &f.time_s.to_bits().to_le_bytes());
                let h = fnv1a(h, &f.bytes.to_le_bytes());
                let h = fnv1a(h, &f.flow_id.to_le_bytes());
                fnv1a(h, &[f.wclass, u8::from(f.corrupted)])
            });
        (stream.len(), classed, tagged)
    }

    /// Captured from the formula-per-message generator this table
    /// replaced: (seed, messages, classed digest, flow-tagged digest).
    #[test]
    fn streams_match_the_pinned_pre_table_digests() {
        for (seed, n, classed, tagged) in [
            (7, 9_993, 0x9d9c_47c5_71e4_0231, 0x5c08_d35b_c5ea_bb47),
            (11, 10_167, 0xedd2_522d_92c9_0ce8, 0x7ce3_856b_e81c_67e6),
            (0x5eed, 9_864, 0x2536_430f_f1d1_a9c5, 0x8d84_e3a9_7601_3afa),
        ] {
            assert_eq!(stream_digests(seed), (n, classed, tagged), "seed {seed}");
        }
    }

    #[test]
    fn size_runs_cover_exactly_the_band_rungs() {
        for (c, runs) in WireClass::ALL.iter().zip(size_tables()) {
            let (lo, hi, _) = c.size_params();
            let band: Vec<u32> = (SIZE_LADDER.iter().copied())
                .filter(|r| (lo..=hi).contains(r))
                .collect();
            let drawn: Vec<u32> = runs.steps.iter().map(|&(_, b)| b).collect();
            assert_eq!(runs.class, *c);
            assert_eq!(drawn, band, "{c:?}: one run per rung, in ladder order");
            assert!(drawn.len() <= 10, "{c:?}: lookup scans at most ten entries");
            let (last, thresholds) = runs.steps.split_last().unwrap();
            assert_eq!(
                last.0,
                f64::INFINITY,
                "{c:?}: the top rung closes the table"
            );
            let uppers: Vec<f64> = thresholds.iter().map(|&(u, _)| u).collect();
            assert!(uppers.windows(2).all(|w| w[0] < w[1]), "{c:?}: {uppers:?}");
            assert!(uppers.iter().all(|&u| 0.0 < u && u <= V_MAX), "{c:?}");
            assert!(runs.first.windows(2).all(|w| w[0] <= w[1]), "{c:?}");
            assert!(
                usize::from(runs.first[BUCKETS - 1]) < runs.steps.len(),
                "{c:?}: every bucket starts at a step"
            );
        }
    }

    /// Every `f64` within `ulps` of `at`, clamped to `[0, V_MAX]`.
    fn around(at: f64, ulps: u64) -> impl Iterator<Item = f64> {
        let at = at.to_bits();
        (at.saturating_sub(ulps)..=(at + ulps).min(V_MAX.to_bits())).map(f64::from_bits)
    }

    /// The table is the formula: on seeded draws (the tail included —
    /// 10^7 draws reach every run of every class), on every `f64`
    /// around every threshold, where a non-monotone `powf` would show as
    /// a second crossing the bisection cannot see, and on every `f64`
    /// around every bucket edge of the index, where an off-by-one start
    /// step would show.
    #[test]
    fn size_table_equals_the_formula() {
        const DRAWS: usize = 10_000_000;
        const ULPS: u64 = 100_000;
        const EDGE_ULPS: u64 = 10_000;
        for runs in size_tables() {
            let c = runs.class;
            let mut rng = StdRng::seed_from_u64(0x0512_e5ed_u64 ^ u64::from(c.id()));
            let mut seen = vec![0u64; runs.steps.len()];
            for _ in 0..DRAWS {
                let v = rng.random::<f64>().min(V_MAX);
                let bytes = runs.lookup(v);
                assert_eq!(bytes, size_of(c, v), "{c:?} at v = {v:e}");
                seen[runs.steps.iter().take_while(|&&(u, _)| v >= u).count()] += 1;
            }
            assert!(
                seen.iter().all(|&n| n > 0),
                "{c:?}: a run was never drawn: {seen:?}"
            );
            let thresholds = runs.steps.iter().map(|&(u, _)| u).filter(|u| u.is_finite());
            for v in thresholds.flat_map(|u| around(u, ULPS)) {
                assert_eq!(runs.lookup(v), size_of(c, v), "{c:?} at v = {v:e}");
            }
            let edges = (0..=BUCKETS).map(|k| k as f64 / BUCKETS as f64);
            for v in edges.flat_map(|e| around(e, EDGE_ULPS)) {
                assert_eq!(runs.lookup(v), size_of(c, v), "{c:?} at v = {v:e}");
            }
        }
    }

    /// `class_at` is the linear search it replaced, at and around every
    /// cumulative weight, with zero-weight classes at either end and
    /// between.
    #[test]
    fn class_count_equals_the_first_weight_above() {
        const ULPS: u64 = 1_000;
        let find = |cum: &[f64; 4], p: f64| cum.iter().position(|&c| p < c).unwrap_or(4);
        for weights in [
            MixConfig::service_mix(1.0, 1.0, 0).weights,
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 2.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.3, 0.0, 0.0, 0.7, 0.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
        ] {
            let s = MixedStream::new(&MixConfig { weights, ..cfg(1) });
            let edges = s.cum.iter().copied().chain([0.0, 1.0 - f64::EPSILON / 2.0]);
            for p in edges.flat_map(|e| {
                let at = e.to_bits();
                (at.saturating_sub(ULPS)..=at + ULPS).map(f64::from_bits)
            }) {
                if (0.0..1.0).contains(&p) {
                    let k = class_at(&s.cum, p);
                    assert_eq!(k, find(&s.cum, p), "{weights:?} at {p:e}");
                    assert!(weights[k] > 0.0, "{weights:?}: class {k} drawn at {p:e}");
                }
            }
        }
    }

    #[test]
    fn zero_weight_classes_never_appear() {
        let mut c = cfg(9);
        c.weights = [0.0, 1.0, 0.0, 0.0, 0.0];
        let stream = generate(&c);
        assert!(!stream.is_empty());
        assert!(stream.iter().all(|a| a.class == WireClass::SvcRpc));
    }
}
