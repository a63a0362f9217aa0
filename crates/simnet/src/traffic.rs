//! Arrival processes.
//!
//! All sources are deterministic given their seed and produce arrivals in
//! non-decreasing time order. Times are in seconds; the simulator converts
//! to machine cycles at the configured clock.

use crate::winner::WinnerTree;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One message reaching the NIC: when, how big, and whether it was
/// damaged on the wire. Sources emit clean arrivals; an impairment
/// channel ([`crate::impair`]) or a retransmission model sets
/// `corrupted`, and the receiver spends cycles on such a message up to
/// its verification layer and rejects it there. 16 bytes, like the
/// time-and-size pair it extends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival time in seconds from the start of the run.
    pub time_s: f64,
    /// Message size in bytes.
    pub bytes: u32,
    /// Damaged on the wire.
    pub corrupted: bool,
}

/// A stream of arrivals in non-decreasing time order.
pub trait TrafficSource {
    /// The next arrival, or `None` when the source is exhausted.
    fn next_arrival(&mut self) -> Option<Arrival>;

    /// Collects all arrivals strictly before `duration_s`.
    fn take_until(&mut self, duration_s: f64) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(a) = self.next_arrival() {
            if a.time_s >= duration_s {
                break;
            }
            out.push(a);
        }
        out
    }
}

/// Poisson arrivals (exponential interarrival times) of fixed-size
/// messages — the source of Figures 5 and 6, with 552-byte messages.
#[derive(Debug)]
pub struct PoissonSource {
    rate: f64,
    bytes: u32,
    t: f64,
    rng: StdRng,
}

impl PoissonSource {
    /// `rate` messages per second of `bytes`-byte messages.
    pub fn new(rate: f64, bytes: u32, seed: u64) -> Self {
        assert!(rate > 0.0);
        PoissonSource {
            rate,
            bytes,
            t: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl TrafficSource for PoissonSource {
    fn next_arrival(&mut self) -> Option<Arrival> {
        // Inverse-CDF exponential variate.
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        self.t += -u.ln() / self.rate;
        Some(Arrival {
            time_s: self.t,
            bytes: self.bytes,
            corrupted: false,
        })
    }
}

/// Deterministic arrivals at a fixed interval (for exact-value tests).
#[derive(Debug)]
pub struct ConstantSource {
    interval_s: f64,
    bytes: u32,
    n: u64,
}

impl ConstantSource {
    /// One `bytes`-byte message every `interval_s` seconds, starting at
    /// `interval_s`.
    pub fn new(interval_s: f64, bytes: u32) -> Self {
        ConstantSource {
            interval_s,
            bytes,
            n: 0,
        }
    }
}

impl TrafficSource for ConstantSource {
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.n += 1;
        Some(Arrival {
            time_s: self.n as f64 * self.interval_s,
            bytes: self.bytes,
            corrupted: false,
        })
    }
}

/// Self-similar traffic: a superposition of Pareto ON/OFF sources.
///
/// Each of `n_sources` alternates between ON periods (emitting packets at
/// a fixed per-source rate) and OFF periods, with Pareto-distributed
/// durations (`alpha` < 2 gives infinite variance and long-range
/// dependence; the aggregate converges to fractional Gaussian noise with
/// `H = (3 - alpha) / 2`). This is the standard constructive model for
/// the self-similarity Leland et al. measured in the Bellcore traces the
/// paper replays for Figure 7.
#[derive(Debug)]
pub struct SelfSimilarSource {
    /// Each source's next emission time. Source `i` sits in slot
    /// `n - 1 - i`: the tree breaks ties toward the lower slot, and
    /// simultaneous emissions go out highest source first.
    next: WinnerTree,
    sources: Vec<OnOff>,
    rng: StdRng,
    sizes: SizeMix,
}

#[derive(Debug)]
struct OnOff {
    /// Packets per second while ON.
    peak_rate: f64,
    mean_on_s: f64,
    mean_off_s: f64,
    alpha: f64,
    /// End of the current ON period (valid while emitting).
    on_until: f64,
}

/// Packet-size mixture: cumulative percentage thresholds and sizes.
#[derive(Debug, Clone)]
pub struct SizeMix {
    /// `(cumulative_permille, bytes)` entries, last must be `(1000, _)`.
    entries: Vec<(u32, u32)>,
}

impl SizeMix {
    /// The bimodal-ish mix of late-80s Ethernet traffic: most packets are
    /// minimum-size (interactive, ACKs), a long tail are near-MTU bulk
    /// segments.
    pub fn bellcore_like() -> Self {
        SizeMix {
            entries: vec![
                (450, 64),   // 45% minimum-size
                (550, 128),  // 10%
                (620, 256),  // 7%
                (780, 552),  // 16% the classic internet MSS
                (860, 1072), // 8%
                (1000, 1518),// 14% full MTU
            ],
        }
    }

    fn draw(&self, rng: &mut StdRng) -> u32 {
        let p = (rng.random::<f64>() * 1000.0) as u32;
        // The last bucket is the cumulative distribution's fallback.
        let hit = self.entries.iter().find(|&&(cum, _)| p < cum);
        hit.or(self.entries.last()).map_or(0, |&(_, bytes)| bytes)
    }
}

fn pareto(rng: &mut StdRng, alpha: f64, mean: f64) -> f64 {
    // A Pareto with shape alpha and mean m has scale xm = m (alpha-1)/alpha.
    let xm = mean * (alpha - 1.0) / alpha;
    let u: f64 = rng.random::<f64>().max(1e-12);
    xm / u.powf(1.0 / alpha)
}

impl SelfSimilarSource {
    /// A source aggregating `n_sources` Pareto ON/OFF processes with the
    /// given mean aggregate rate (packets/second) and size mix.
    ///
    /// `alpha` in (1, 2) controls burstiness; 1.4 gives a Hurst parameter
    /// around 0.8, matching the Bellcore measurements.
    pub fn new(n_sources: usize, mean_rate: f64, alpha: f64, sizes: SizeMix, seed: u64) -> Self {
        assert!(n_sources > 0 && mean_rate > 0.0 && alpha > 1.0 && alpha < 2.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_on_s = 0.1;
        let mean_off_s = 1.0;
        let duty = mean_on_s / (mean_on_s + mean_off_s);
        let peak_rate = mean_rate / (n_sources as f64 * duty);
        let mut next = WinnerTree::new(n_sources);
        let mut sources = Vec::with_capacity(n_sources);
        for i in 0..n_sources {
            // Start each source in an OFF period of random residual life.
            let first_on = rng.random::<f64>() * (mean_on_s + mean_off_s);
            sources.push(OnOff {
                peak_rate,
                mean_on_s,
                mean_off_s,
                alpha,
                on_until: 0.0,
            });
            next.set(n_sources - 1 - i, first_on);
        }
        SelfSimilarSource {
            next,
            sources,
            rng,
            sizes,
        }
    }

    /// Calibrated stand-in for the October 1989 Bellcore trace the paper
    /// uses in Figure 7: ~1000 pkt/s mean with H near 0.8 and the late-80s
    /// Ethernet size mix.
    pub fn bellcore_like(seed: u64) -> Self {
        SelfSimilarSource::new(64, 1000.0, 1.4, SizeMix::bellcore_like(), seed)
    }
}

impl TrafficSource for SelfSimilarSource {
    fn next_arrival(&mut self) -> Option<Arrival> {
        let (t, slot) = self.next.min()?;
        let si = self.sources.len() - 1 - slot;
        let (alpha, mean_on, mean_off, peak) = {
            let s = &self.sources[si];
            (s.alpha, s.mean_on_s, s.mean_off_s, s.peak_rate)
        };
        if t >= self.sources[si].on_until {
            // This event begins a new ON period.
            self.sources[si].on_until = t + pareto(&mut self.rng, alpha, mean_on);
        }
        let on_until = self.sources[si].on_until;
        // Schedule this source's next emission: within the ON period the
        // source is a Poisson process at its peak rate; otherwise it goes
        // quiet for a Pareto OFF gap.
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        let next = t - u.ln() / peak;
        let next = if next < on_until {
            next
        } else {
            on_until.max(t) + pareto(&mut self.rng, alpha, mean_off)
        };
        self.next.set(slot, next);
        Some(Arrival {
            time_s: t,
            bytes: self.sizes.draw(&mut self.rng),
            corrupted: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_calibrated() {
        let mut s = PoissonSource::new(5000.0, 552, 42);
        let arrivals = s.take_until(2.0);
        let rate = arrivals.len() as f64 / 2.0;
        assert!(
            (rate - 5000.0).abs() < 250.0,
            "measured rate {rate} too far from 5000"
        );
        assert!(arrivals.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert!(arrivals.iter().all(|a| a.bytes == 552));
    }

    #[test]
    fn an_arrival_is_sixteen_bytes() {
        // The damage bit rides in the padding after `bytes`.
        assert_eq!(std::mem::size_of::<Arrival>(), 16);
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = PoissonSource::new(100.0, 552, 7).take_until(1.0);
        let b = PoissonSource::new(100.0, 552, 7).take_until(1.0);
        let c = PoissonSource::new(100.0, 552, 8).take_until(1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn constant_source_exact_times() {
        let mut s = ConstantSource::new(0.25, 100);
        let a = s.take_until(1.01);
        assert_eq!(a.len(), 4);
        assert!((a[3].time_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_similar_rate_calibration() {
        let mut s = SelfSimilarSource::bellcore_like(3);
        let arrivals = s.take_until(30.0);
        let rate = arrivals.len() as f64 / 30.0;
        assert!(
            (400.0..2500.0).contains(&rate),
            "mean rate {rate} far from the ~1000/s calibration"
        );
        assert!(arrivals.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn self_similar_is_burstier_than_poisson() {
        // Index of dispersion (var/mean of 10 ms counts) is ~1 for
        // Poisson, well above 1 for the ON/OFF aggregate.
        fn dispersion(arrivals: &[Arrival], duration: f64) -> f64 {
            let bins = (duration / 0.01) as usize;
            let mut counts = vec![0f64; bins];
            for a in arrivals {
                let b = (a.time_s / 0.01) as usize;
                if b < bins {
                    counts[b] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / bins as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64;
            var / mean
        }
        let poisson = PoissonSource::new(1000.0, 552, 1).take_until(20.0);
        let selfsim = SelfSimilarSource::bellcore_like(1).take_until(20.0);
        let dp = dispersion(&poisson, 20.0);
        let ds = dispersion(&selfsim, 20.0);
        assert!(dp < 1.5, "poisson dispersion {dp}");
        assert!(ds > 2.0 * dp, "self-similar {ds} vs poisson {dp}");
    }

    #[test]
    fn self_similar_arrivals_match_the_heap_they_replaced() {
        // FNV-1a over (time bits, bytes) of the first 10^5 arrivals,
        // captured from the `BinaryHeap<HeapEntry>` source before the
        // winner tree went in.
        let want = [
            (1u64, 1585329674648396492u64),
            (7, 15757129585848358336),
            (1996, 15935823615491854551),
        ];
        for (seed, want) in want {
            let mut s = SelfSimilarSource::bellcore_like(seed);
            let mut h = crate::FNV_OFFSET;
            for _ in 0..100_000 {
                let a = s.next_arrival().expect("the source never ends");
                h = crate::fnv1a(h, &a.time_s.to_bits().to_le_bytes());
                h = crate::fnv1a(h, &a.bytes.to_le_bytes());
            }
            assert_eq!(h, want, "seed {seed}");
        }
    }

    #[test]
    fn simultaneous_emissions_go_highest_source_first() {
        // The order the max-heap on (-time, source) gave: at equal
        // times the larger source id pops first.
        let n = 8;
        let fixed = SizeMix { entries: vec![(1000, 64)] };
        let mut s = SelfSimilarSource::new(n, 1000.0, 1.4, fixed, 3);
        for i in 0..n {
            s.next.set(n - 1 - i, if i == 3 || i == 5 { 1.0 } else { 2.0 });
        }
        assert_eq!(s.next_arrival().map(|a| a.time_s), Some(1.0));
        assert_eq!(s.next.time(n - 1 - 3), 1.0, "source 3 has yet to emit");
        assert!(s.next.time(n - 1 - 5) > 1.0, "source 5 went first and rescheduled");
    }

    #[test]
    fn size_mix_statistics() {
        let mix = SizeMix::bellcore_like();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen_small = 0;
        let mut seen_big = 0;
        for _ in 0..10_000 {
            match mix.draw(&mut rng) {
                64 => seen_small += 1,
                1518 => seen_big += 1,
                _ => {}
            }
        }
        assert!((3_500..5_500).contains(&seen_small), "{seen_small} minimum-size");
        assert!((800..2_000).contains(&seen_big), "{seen_big} MTU-size");
    }

    #[test]
    fn pareto_mean_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| pareto(&mut rng, 1.8, 0.5)).sum::<f64>() / n as f64;
        // alpha=1.8 has finite mean; the sample mean converges slowly but
        // should land in a generous band.
        assert!((0.3..0.9).contains(&mean), "sample mean {mean}");
    }
}

/// Markov-modulated Poisson process: a continuous-time Markov chain over
/// `states`, each with its own Poisson rate. A classic telephony/signalling
/// load model — call-arrival intensity shifts between regimes (quiet,
/// busy-hour, flash crowd) at exponentially distributed epochs.
#[derive(Debug)]
pub struct MmppSource {
    /// `(arrival_rate, mean_holding_s)` per state.
    states: Vec<(f64, f64)>,
    state: usize,
    /// When the chain leaves the current state.
    state_until: f64,
    t: f64,
    bytes: u32,
    rng: StdRng,
}

impl MmppSource {
    /// Builds an MMPP over `states`; transitions cycle through states in
    /// order (a ring), which captures regime-switching without a full
    /// transition matrix.
    pub fn new(states: Vec<(f64, f64)>, bytes: u32, seed: u64) -> Self {
        assert!(!states.is_empty());
        assert!(states.iter().all(|&(r, h)| r > 0.0 && h > 0.0));
        let mut rng = StdRng::seed_from_u64(seed);
        let u: f64 = rng.random::<f64>().max(1e-12);
        // Guarded by the assert!(!states.is_empty()) two lines up.
        let state_until = -u.ln() * states[0].1;
        MmppSource {
            states,
            state: 0,
            state_until,
            t: 0.0,
            bytes,
            rng,
        }
    }

    /// A two-state quiet/burst source with the given rates and a mean
    /// regime length of `holding_s`.
    pub fn two_state(quiet: f64, burst: f64, holding_s: f64, bytes: u32, seed: u64) -> Self {
        Self::new(vec![(quiet, holding_s), (burst, holding_s)], bytes, seed)
    }

    /// The long-run mean arrival rate (state holding times weighted).
    pub fn mean_rate(&self) -> f64 {
        let total_hold: f64 = self.states.iter().map(|&(_, h)| h).sum();
        self.states.iter().map(|&(r, h)| r * h).sum::<f64>() / total_hold
    }
}

impl TrafficSource for MmppSource {
    fn next_arrival(&mut self) -> Option<Arrival> {
        loop {
            let (rate, _) = self.states[self.state];
            let u: f64 = self.rng.random::<f64>().max(1e-12);
            let candidate = self.t - u.ln() / rate;
            if candidate <= self.state_until {
                self.t = candidate;
                return Some(Arrival {
                    time_s: self.t,
                    bytes: self.bytes,
                    corrupted: false,
                });
            }
            // Regime switch: advance to the boundary and move on.
            self.t = self.state_until;
            self.state = (self.state + 1) % self.states.len();
            let u: f64 = self.rng.random::<f64>().max(1e-12);
            self.state_until = self.t - u.ln() * self.states[self.state].1;
        }
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn mmpp_mean_rate_calibration() {
        let mut s = MmppSource::two_state(500.0, 5000.0, 0.1, 552, 4);
        assert!((s.mean_rate() - 2750.0).abs() < 1e-9);
        let arrivals = s.take_until(20.0);
        let rate = arrivals.len() as f64 / 20.0;
        assert!(
            (2200.0..3300.0).contains(&rate),
            "measured {rate} vs mean 2750"
        );
        assert!(arrivals.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let arrivals = MmppSource::two_state(200.0, 8000.0, 0.05, 552, 9).take_until(10.0);
        let bins = 1000;
        let mut counts = vec![0f64; bins];
        for a in &arrivals {
            let b = ((a.time_s / 10.0) * bins as f64) as usize;
            if b < bins {
                counts[b] += 1.0;
            }
        }
        let mean = counts.iter().sum::<f64>() / bins as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64;
        assert!(var / mean > 3.0, "dispersion {} should be super-Poisson", var / mean);
    }
}
