//! A deterministic, seeded impairment channel.
//!
//! Sits in front of any [`TrafficSource`] (or, at the wire level, in
//! front of a `netstack` device) and damages the stream the way a real
//! link does: independent random loss, burst loss via a two-state
//! Gilbert–Elliott chain, payload corruption, duplication, and bounded
//! reordering. Every verdict comes from one seeded RNG with a *fixed
//! number of draws per packet*, so a given `(config, seed)` pair produces
//! the same fate sequence no matter which outcomes occur — the property
//! the determinism tests and the CI golden file rely on.
//!
//! The channel never reorders time backwards: a reordered packet is held
//! and re-released at the timestamp of a later delivered packet (at most
//! [`ImpairConfig::reorder_depth`] packets later), so the output stream
//! stays sorted and can be fed straight to [`crate::sim::run_sim_impaired`].

use crate::traffic::{Arrival, TrafficSource};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// Parameters of a two-state Gilbert–Elliott burst-loss chain. The
/// channel is in a *good* or *bad* state; each packet first moves the
/// chain, then is lost with the state's loss probability. Mean loss is
/// `pi_b * bad_loss + (1 - pi_b) * good_loss` where
/// `pi_b = p_enter_bad / (p_enter_bad + p_exit_bad)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good -> bad) evaluated once per packet.
    pub p_enter_bad: f64,
    /// P(bad -> good) evaluated once per packet.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub good_loss: f64,
    /// Loss probability while in the bad state.
    pub bad_loss: f64,
}

impl GilbertElliott {
    /// A bursty channel with the given overall `mean_loss`, mean burst
    /// length `burst_len` packets, and loss probability `bad_loss` inside
    /// a burst. The good state is loss-free.
    pub fn bursty(mean_loss: f64, burst_len: f64, bad_loss: f64) -> Self {
        assert!(burst_len >= 1.0, "mean burst length is at least one packet");
        assert!(
            (0.0..=1.0).contains(&mean_loss) && mean_loss < bad_loss && bad_loss <= 1.0,
            "need mean_loss < bad_loss <= 1"
        );
        let p_exit_bad = 1.0 / burst_len;
        // Stationary bad-state probability that yields the target mean.
        let pi_b = mean_loss / bad_loss;
        let p_enter_bad = p_exit_bad * pi_b / (1.0 - pi_b);
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            good_loss: 0.0,
            bad_loss,
        }
    }

    /// Long-run loss probability of the chain.
    pub fn mean_loss(&self) -> f64 {
        let pi_b = self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad);
        pi_b * self.bad_loss + (1.0 - pi_b) * self.good_loss
    }
}

/// What one impairment channel does to packets. All probabilities are
/// per packet and independent unless noted; the default impairs nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairConfig {
    /// Independent per-packet drop probability.
    pub drop_prob: f64,
    /// Probability a delivered packet's payload is damaged (the receiver
    /// spends cycles on it and rejects it at checksum verification).
    pub corrupt_prob: f64,
    /// Probability a delivered packet is delivered twice.
    pub dup_prob: f64,
    /// Probability a delivered packet is held and re-released later.
    pub reorder_prob: f64,
    /// Maximum packets a reordered one slips behind (uniform in
    /// `1..=reorder_depth`). 0 disables reordering regardless of
    /// `reorder_prob`.
    pub reorder_depth: usize,
    /// Optional burst-loss chain, applied on top of `drop_prob`.
    pub gilbert: Option<GilbertElliott>,
    /// RNG seed; the fate sequence is a pure function of `(config, seed)`.
    pub seed: u64,
}

impl Default for ImpairConfig {
    fn default() -> Self {
        ImpairConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_depth: 0,
            gilbert: None,
            seed: 1,
        }
    }
}

impl ImpairConfig {
    /// Independent random loss only.
    pub fn loss(drop_prob: f64, seed: u64) -> Self {
        ImpairConfig {
            drop_prob,
            seed,
            ..ImpairConfig::default()
        }
    }

    /// True iff the channel can alter the stream at all.
    pub fn is_transparent(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.dup_prob == 0.0
            && (self.reorder_prob == 0.0 || self.reorder_depth == 0)
            && self.gilbert.is_none()
    }
}

/// The fate of one packet entering the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fate {
    /// Lost on the wire: never delivered.
    pub dropped: bool,
    /// Delivered with a damaged payload.
    pub corrupted: bool,
    /// Delivered twice.
    pub duplicated: bool,
    /// 0 = delivered in place; k > 0 = held back and released after k
    /// subsequent deliveries.
    pub reorder_slip: usize,
}

/// Counters of everything the channel did, threaded into
/// [`crate::stats::SimReport`] as the `net_*` fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairCounters {
    /// Packets presented to the channel.
    pub offered: u64,
    /// Packets delivered (including corrupted ones and duplicates).
    pub delivered: u64,
    /// Packets lost on the wire.
    pub dropped: u64,
    /// Packets delivered with damaged payloads.
    pub corrupted: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Packets released out of their arrival order.
    pub reordered: u64,
}

/// The seeded impairment chain. Usable directly (per-packet
/// [`ImpairState::next_fate`] verdicts, e.g. for a wire-level device
/// adapter or a retransmission model) or via [`ImpairedSource`] for
/// arrival streams.
#[derive(Debug)]
pub struct ImpairState {
    cfg: ImpairConfig,
    /// [`ImpairConfig::is_transparent`], computed once.
    transparent: bool,
    rng: StdRng,
    in_bad: bool,
    counters: ImpairCounters,
}

impl ImpairState {
    /// A fresh chain in the good state.
    pub fn new(cfg: ImpairConfig) -> Self {
        ImpairState {
            rng: StdRng::seed_from_u64(cfg.seed),
            transparent: cfg.is_transparent(),
            cfg,
            in_bad: false,
            counters: ImpairCounters::default(),
        }
    }

    /// The configuration the chain was built with.
    pub fn config(&self) -> &ImpairConfig {
        &self.cfg
    }

    /// Everything the channel has done so far.
    pub fn counters(&self) -> ImpairCounters {
        self.counters
    }

    /// Decides the fate of the next packet. Exactly six RNG draws per
    /// call, regardless of outcome, so fates of later packets do not
    /// depend on which earlier ones were dropped — or none at all on a
    /// transparent channel, whose every fate is the clean one whatever
    /// the draws say (the chain's RNG feeds nothing else, and a
    /// channel is transparent for life).
    // draws: 6, or 0 when transparent — the fixed per-packet budget; R2
    // (rng-draw-budget) cross-checks this count against the call sites
    // below.
    pub fn next_fate(&mut self) -> Fate {
        if self.transparent {
            self.counters.offered += 1;
            self.counters.delivered += 1;
            return Fate {
                dropped: false,
                corrupted: false,
                duplicated: false,
                reorder_slip: 0,
            };
        }
        let u_trans: f64 = self.rng.random();
        let u_loss: f64 = self.rng.random();
        let u_corrupt: f64 = self.rng.random();
        let u_dup: f64 = self.rng.random();
        let u_reorder: f64 = self.rng.random();
        let u_slip: f64 = self.rng.random();

        let mut loss_prob = self.cfg.drop_prob;
        if let Some(ge) = self.cfg.gilbert {
            // Move the chain, then combine its state loss with the
            // independent loss (independent events).
            self.in_bad = if self.in_bad {
                u_trans >= ge.p_exit_bad
            } else {
                u_trans < ge.p_enter_bad
            };
            let state_loss = if self.in_bad { ge.bad_loss } else { ge.good_loss };
            loss_prob = 1.0 - (1.0 - loss_prob) * (1.0 - state_loss);
        }

        let dropped = u_loss < loss_prob;
        let corrupted = !dropped && u_corrupt < self.cfg.corrupt_prob;
        let duplicated = !dropped && u_dup < self.cfg.dup_prob;
        let reorder_slip = if !dropped
            && self.cfg.reorder_depth > 0
            && u_reorder < self.cfg.reorder_prob
        {
            1 + (u_slip * self.cfg.reorder_depth as f64) as usize
        } else {
            0
        };

        self.counters.offered += 1;
        if dropped {
            self.counters.dropped += 1;
        } else {
            self.counters.delivered += 1;
            if corrupted {
                self.counters.corrupted += 1;
            }
            if duplicated {
                self.counters.delivered += 1;
                self.counters.duplicated += 1;
            }
            if reorder_slip > 0 {
                self.counters.reordered += 1;
            }
        }

        Fate {
            dropped,
            corrupted,
            duplicated,
            reorder_slip: reorder_slip.min(self.cfg.reorder_depth),
        }
    }
}

/// An arrival that went through the channel. Same shape as [`Arrival`]
/// plus the damage flag the receiver's checksum layer will act on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairedArrival {
    /// Delivery time in seconds (>= the original arrival time).
    pub time_s: f64,
    /// Message size in bytes.
    pub bytes: u32,
    /// The payload was damaged on the wire.
    pub corrupted: bool,
}

impl From<Arrival> for ImpairedArrival {
    fn from(a: Arrival) -> Self {
        ImpairedArrival {
            time_s: a.time_s,
            bytes: a.bytes,
            corrupted: false,
        }
    }
}

/// An impairment channel composed in front of a [`TrafficSource`].
/// Produces deliveries in non-decreasing time order; dropped packets
/// vanish, duplicates appear back to back, and reordered packets are
/// released with the timestamp of a later delivery.
#[derive(Debug)]
pub struct ImpairedSource<S> {
    inner: S,
    state: ImpairState,
    /// Deliveries ready to emit (duplicates, releases of held packets).
    ready: VecDeque<ImpairedArrival>,
    /// Held (reordered) packets: (deliveries still to pass them, packet).
    held: Vec<(usize, ImpairedArrival)>,
    /// Timestamp of the most recent delivery, used to flush stragglers
    /// when the inner source ends.
    last_time_s: f64,
    inner_done: bool,
}

impl<S: TrafficSource> ImpairedSource<S> {
    /// Wraps `inner` with the impairment channel `cfg`.
    pub fn new(inner: S, cfg: ImpairConfig) -> Self {
        ImpairedSource {
            inner,
            state: ImpairState::new(cfg),
            ready: VecDeque::new(),
            held: Vec::new(),
            last_time_s: 0.0,
            inner_done: false,
        }
    }

    /// Channel counters accumulated so far.
    pub fn counters(&self) -> ImpairCounters {
        self.state.counters()
    }

    /// A packet was delivered at `time_s`: advance held packets and move
    /// any that are due into the ready queue (stamped with `time_s`).
    fn advance_held(&mut self, time_s: f64) {
        let mut i = 0;
        while i < self.held.len() {
            self.held[i].0 -= 1;
            if self.held[i].0 == 0 {
                let (_, mut p) = self.held.remove(i);
                p.time_s = time_s;
                self.ready.push_back(p);
            } else {
                i += 1;
            }
        }
    }

    /// The next delivery, or `None` once the stream (and every held or
    /// duplicated packet) is exhausted.
    pub fn next_delivery(&mut self) -> Option<ImpairedArrival> {
        loop {
            if let Some(p) = self.ready.pop_front() {
                return Some(p);
            }
            if self.inner_done {
                // The inner stream ended with packets still held back:
                // release them at the last seen delivery time, oldest
                // first, so nothing is silently lost by the model itself.
                if !self.held.is_empty() {
                    let t = self.last_time_s;
                    for (_, mut p) in self.held.drain(..) {
                        p.time_s = t;
                        self.ready.push_back(p);
                    }
                    continue;
                }
                return None;
            }
            let Some(a) = self.inner.next_arrival() else {
                self.inner_done = true;
                continue;
            };
            let fate = self.state.next_fate();
            if fate.dropped {
                continue;
            }
            let delivered = ImpairedArrival {
                time_s: a.time_s,
                bytes: a.bytes,
                corrupted: fate.corrupted,
            };
            self.last_time_s = a.time_s;
            // Every packet that crosses the channel moves earlier held
            // packets one slot closer to release — "at most
            // `reorder_depth` later" counts held packets too, otherwise
            // an all-reordered stream would be held forever.
            self.advance_held(a.time_s);
            if fate.reorder_slip > 0 {
                self.held.push((fate.reorder_slip, delivered));
                continue;
            }
            self.ready.push_back(delivered);
            if fate.duplicated {
                self.ready.push_back(delivered);
            }
        }
    }

    /// Collects all deliveries strictly before `duration_s`.
    pub fn take_until(&mut self, duration_s: f64) -> Vec<ImpairedArrival> {
        let mut out = Vec::new();
        while let Some(a) = self.next_delivery() {
            if a.time_s >= duration_s {
                break;
            }
            out.push(a);
        }
        out
    }
}

/// Applies only the reordering stage of `cfg` to an already-impaired
/// delivery stream — for when loss and corruption happened upstream
/// (inside a retransmission model, say) and the order perturbation
/// happens at the NIC queue. Drop, corruption, and duplication settings
/// in `cfg` are ignored; only `reorder_prob`, `reorder_depth`, and
/// `seed` take effect, so no packet is ever lost here. Corruption flags
/// ride along unchanged and the output stays sorted.
pub fn reorder_deliveries(
    deliveries: &[ImpairedArrival],
    cfg: ImpairConfig,
) -> (Vec<ImpairedArrival>, ImpairCounters) {
    let mut state = ImpairState::new(ImpairConfig {
        reorder_prob: cfg.reorder_prob,
        reorder_depth: cfg.reorder_depth,
        seed: cfg.seed,
        ..ImpairConfig::default()
    });
    let mut out = Vec::with_capacity(deliveries.len());
    let mut held: Vec<(usize, ImpairedArrival)> = Vec::new();
    let mut last_time_s = 0.0;
    for &d in deliveries {
        let fate = state.next_fate();
        last_time_s = d.time_s;
        // Same release rule as `ImpairedSource`: every packet crossing
        // the channel advances the held ones, so holds are bounded even
        // if every packet reorders.
        let mut i = 0;
        while i < held.len() {
            held[i].0 -= 1;
            if held[i].0 == 0 {
                let (_, mut p) = held.remove(i);
                p.time_s = d.time_s;
                out.push(p);
            } else {
                i += 1;
            }
        }
        if fate.reorder_slip > 0 {
            held.push((fate.reorder_slip, d));
            continue;
        }
        out.push(d);
    }
    for (_, mut p) in held {
        p.time_s = last_time_s;
        out.push(p);
    }
    (out, state.counters())
}

/// Runs a pre-built arrival list through a channel. Convenience for
/// sweeps that reuse the same arrival vector across disciplines.
pub fn impair_arrivals(
    arrivals: &[Arrival],
    cfg: ImpairConfig,
) -> (Vec<ImpairedArrival>, ImpairCounters) {
    struct SliceSource<'a> {
        items: std::slice::Iter<'a, Arrival>,
    }
    impl TrafficSource for SliceSource<'_> {
        fn next_arrival(&mut self) -> Option<Arrival> {
            self.items.next().copied()
        }
    }
    let mut src = ImpairedSource::new(
        SliceSource {
            items: arrivals.iter(),
        },
        cfg,
    );
    let mut out = Vec::with_capacity(arrivals.len());
    while let Some(a) = src.next_delivery() {
        out.push(a);
    }
    (out, src.counters())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{ConstantSource, PoissonSource};

    fn constant(n: usize) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                time_s: i as f64 * 1e-3,
                bytes: 552,
            })
            .collect()
    }

    #[test]
    fn transparent_channel_changes_nothing() {
        let arrivals = constant(100);
        let (out, c) = impair_arrivals(&arrivals, ImpairConfig::default());
        assert_eq!(out.len(), 100);
        assert_eq!(c.dropped + c.corrupted + c.duplicated + c.reordered, 0);
        for (a, b) in arrivals.iter().zip(&out) {
            assert_eq!(a.time_s, b.time_s);
            assert_eq!(a.bytes, b.bytes);
            assert!(!b.corrupted);
        }
    }

    #[test]
    fn loss_rate_converges_to_the_configured_probability() {
        let arrivals = constant(20_000);
        let (out, c) = impair_arrivals(&arrivals, ImpairConfig::loss(0.05, 7));
        let observed = c.dropped as f64 / c.offered as f64;
        assert!((observed - 0.05).abs() < 0.01, "observed loss {observed}");
        assert_eq!(out.len() as u64, c.delivered);
        assert_eq!(c.offered, c.delivered + c.dropped - c.duplicated);
    }

    #[test]
    fn corruption_marks_but_delivers() {
        let arrivals = constant(10_000);
        let cfg = ImpairConfig {
            corrupt_prob: 0.10,
            seed: 3,
            ..ImpairConfig::default()
        };
        let (out, c) = impair_arrivals(&arrivals, cfg);
        assert_eq!(out.len(), 10_000, "corruption never loses packets");
        let marked = out.iter().filter(|a| a.corrupted).count() as u64;
        assert_eq!(marked, c.corrupted);
        let rate = marked as f64 / 10_000.0;
        assert!((rate - 0.10).abs() < 0.02, "corruption rate {rate}");
    }

    #[test]
    fn duplicates_arrive_back_to_back() {
        let arrivals = constant(5_000);
        let cfg = ImpairConfig {
            dup_prob: 0.08,
            seed: 11,
            ..ImpairConfig::default()
        };
        let (out, c) = impair_arrivals(&arrivals, cfg);
        assert_eq!(out.len() as u64, 5_000 + c.duplicated);
        assert!(c.duplicated > 300, "duplications {}", c.duplicated);
        // Every duplicate is an adjacent equal pair.
        let pairs = out
            .windows(2)
            .filter(|w| w[0] == w[1])
            .count() as u64;
        assert!(pairs >= c.duplicated);
    }

    #[test]
    fn reordering_keeps_time_nondecreasing_and_loses_nothing() {
        let arrivals = constant(5_000);
        let cfg = ImpairConfig {
            reorder_prob: 0.2,
            reorder_depth: 8,
            seed: 5,
            ..ImpairConfig::default()
        };
        let (out, c) = impair_arrivals(&arrivals, cfg);
        assert_eq!(out.len(), 5_000, "reordering must not lose packets");
        assert!(c.reordered > 500, "reordered {}", c.reordered);
        assert!(
            out.windows(2).all(|w| w[0].time_s <= w[1].time_s),
            "delivery times must be non-decreasing"
        );
    }

    #[test]
    fn gilbert_elliott_losses_come_in_bursts() {
        // Same mean loss, independent vs bursty: the bursty channel's
        // losses must cluster into longer runs.
        let arrivals = constant(50_000);
        let mean = 0.05;
        let (ind, ci) = impair_arrivals(&arrivals, ImpairConfig::loss(mean, 2));
        let ge = GilbertElliott::bursty(mean, 10.0, 0.8);
        assert!((ge.mean_loss() - mean).abs() < 1e-12);
        let cfg = ImpairConfig {
            gilbert: Some(ge),
            seed: 2,
            ..ImpairConfig::default()
        };
        let (bur, cb) = impair_arrivals(&arrivals, cfg);
        let li = ci.dropped as f64 / ci.offered as f64;
        let lb = cb.dropped as f64 / cb.offered as f64;
        assert!((li - mean).abs() < 0.01, "independent loss {li}");
        assert!((lb - mean).abs() < 0.015, "bursty loss {lb}");
        // Mean run length of consecutive losses: detect via gaps in the
        // delivered count sequence. Approximate by comparing loss-run
        // counts: same losses in fewer runs = burstier.
        let runs = |delivered: &[ImpairedArrival], total: usize| {
            let mut lost = vec![true; total];
            for a in delivered {
                let orig = (a.time_s * 1e3).round() as usize;
                if orig < total {
                    lost[orig] = false;
                }
            }
            let mut r = 0u64;
            let mut prev = false;
            for &l in &lost {
                if l && !prev {
                    r += 1;
                }
                prev = l;
            }
            r
        };
        let runs_ind = runs(&ind, 50_000);
        let runs_bur = runs(&bur, 50_000);
        assert!(
            (runs_bur as f64) < runs_ind as f64 * 0.5,
            "bursty losses should form far fewer runs: {runs_bur} vs {runs_ind}"
        );
    }

    #[test]
    fn fates_are_deterministic_and_outcome_independent() {
        // The fate sequence depends only on (config, seed) — not on how
        // many packets the caller actually pushes through between calls.
        let cfg = ImpairConfig {
            drop_prob: 0.1,
            corrupt_prob: 0.1,
            dup_prob: 0.1,
            reorder_prob: 0.1,
            reorder_depth: 4,
            gilbert: Some(GilbertElliott::bursty(0.02, 5.0, 0.4)),
            seed: 42,
        };
        let mut a = ImpairState::new(cfg);
        let mut b = ImpairState::new(cfg);
        let fa: Vec<Fate> = (0..1000).map(|_| a.next_fate()).collect();
        let fb: Vec<Fate> = (0..1000).map(|_| b.next_fate()).collect();
        assert_eq!(fa, fb);
        assert!(fa.iter().any(|f| f.dropped));
        assert!(fa.iter().any(|f| f.corrupted));
        assert!(fa.iter().any(|f| f.duplicated));
        assert!(fa.iter().any(|f| f.reorder_slip > 0));
    }

    #[test]
    fn transparent_channels_skip_the_draws_and_nothing_else() {
        // The drawing path on a transparent config: same fates, same
        // counters — the shortcut only leaves the private RNG unspent.
        let cfg = ImpairConfig {
            reorder_prob: 0.5, // depth 0: still transparent
            seed: 77,
            ..ImpairConfig::default()
        };
        assert!(cfg.is_transparent());
        let mut fast = ImpairState::new(cfg);
        let mut drawing = ImpairState::new(cfg);
        drawing.transparent = false;
        let untouched = StdRng::seed_from_u64(cfg.seed).random::<u64>();
        for _ in 0..10_000 {
            assert_eq!(fast.next_fate(), drawing.next_fate());
        }
        assert_eq!(fast.counters(), drawing.counters());
        assert_eq!(fast.counters().delivered, 10_000);
        assert_eq!(fast.rng.random::<u64>(), untouched, "no draws on the shortcut");
        assert_ne!(drawing.rng.random::<u64>(), untouched);

        // Any non-zero probability keeps the six-draw budget, even one
        // too small to ever fire.
        let cfg = ImpairConfig {
            dup_prob: 1e-300,
            seed: 77,
            ..ImpairConfig::default()
        };
        let mut live = ImpairState::new(cfg);
        let mut reference = StdRng::seed_from_u64(cfg.seed);
        live.next_fate();
        for _ in 0..6 {
            reference.random::<f64>();
        }
        assert_eq!(live.rng.random::<u64>(), reference.random::<u64>());
    }

    #[test]
    fn source_wrapper_matches_slice_helper() {
        let cfg = ImpairConfig {
            drop_prob: 0.05,
            corrupt_prob: 0.02,
            dup_prob: 0.02,
            reorder_prob: 0.05,
            reorder_depth: 3,
            seed: 9,
            ..ImpairConfig::default()
        };
        let mut direct = ImpairedSource::new(PoissonSource::new(2000.0, 552, 4), cfg);
        let via_source = direct.take_until(1.0);
        let arrivals = PoissonSource::new(2000.0, 552, 4).take_until(1.0);
        let (via_slice, _) = impair_arrivals(&arrivals, cfg);
        // The slice path sees a truncated stream, so compare the prefix
        // both observed.
        let n = via_source.len().min(via_slice.len());
        assert!(n > 1000);
        assert_eq!(&via_source[..n], &via_slice[..n]);
    }

    #[test]
    fn reorder_only_pass_loses_nothing_and_ignores_loss_settings() {
        let deliveries: Vec<ImpairedArrival> = constant(4_000)
            .into_iter()
            .enumerate()
            .map(|(i, a)| ImpairedArrival {
                time_s: a.time_s,
                bytes: a.bytes,
                corrupted: i % 7 == 0,
            })
            .collect();
        let (out, c) = reorder_deliveries(
            &deliveries,
            ImpairConfig {
                // Loss and duplication must be ignored by this pass.
                drop_prob: 0.9,
                dup_prob: 0.9,
                reorder_prob: 0.3,
                reorder_depth: 6,
                seed: 13,
                ..ImpairConfig::default()
            },
        );
        assert_eq!(out.len(), deliveries.len(), "reordering loses nothing");
        assert_eq!(c.dropped + c.duplicated, 0);
        assert!(c.reordered > 500, "reordered {}", c.reordered);
        assert!(out.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        // The corruption flags survive as a multiset.
        let marked = |v: &[ImpairedArrival]| v.iter().filter(|a| a.corrupted).count();
        assert_eq!(marked(&out), marked(&deliveries));
    }

    #[test]
    fn all_reordered_streams_still_make_progress_and_flush() {
        // Every packet reorders with deep slips: releases must still be
        // driven by later packets crossing the channel, and whatever is
        // held when the stream ends must flush — nothing is lost and
        // nothing is held forever.
        let arrivals = constant(50);
        let (out, c) = impair_arrivals(
            &arrivals,
            ImpairConfig {
                reorder_prob: 1.0,
                reorder_depth: 100,
                seed: 1,
                ..ImpairConfig::default()
            },
        );
        assert_eq!(out.len(), 50);
        assert_eq!(c.reordered, 50);
        assert!(out.windows(2).all(|w| w[0].time_s <= w[1].time_s));

        // The same channel in front of an endless source must not spin
        // (or hoard) forever either: progress is bounded by the depth.
        let mut src = ImpairedSource::new(
            ConstantSource::new(0.001, 552),
            ImpairConfig {
                reorder_prob: 1.0,
                reorder_depth: 100,
                seed: 1,
                ..ImpairConfig::default()
            },
        );
        let out = src.take_until(0.05);
        assert!(!out.is_empty(), "deep reordering still delivers");
        assert!(out.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    #[should_panic(expected = "mean_loss < bad_loss")]
    fn gilbert_rejects_impossible_parameters() {
        GilbertElliott::bursty(0.5, 10.0, 0.3);
    }
}
