//! A deterministic, seeded impairment channel.
//!
//! Damages a packet stream the way a real link does: independent random
//! loss, burst loss via a two-state Gilbert–Elliott chain, payload
//! corruption, duplication, and bounded reordering. Every verdict comes
//! from one seeded RNG with a *fixed number of draws per packet*, so a
//! given `(config, seed)` pair produces the same fate sequence no matter
//! which outcomes occur — the property the determinism tests and the CI
//! golden file rely on.
//!
//! [`ImpairChannel`] is the one source of fates and the one
//! implementation of the hold-and-release rule, generic over what it
//! carries through a corrupt hook and a release hook ([`Payload`]):
//! [`Arrival`]s on their way to [`crate::sim::run_sim_impaired`] (via
//! [`impair_arrivals`]) and out of `signaling`'s retransmission loop,
//! tagged arrivals in `smp`, the closed loop's
//! [`crate::closed::ClientSend`]s, and wire frames in front of a
//! `netstack` device in the bench harness. The channel never reorders
//! time backwards: a reordered arrival is held and re-released at the
//! timestamp of a later delivery (at most [`ImpairConfig::reorder_depth`]
//! packets later), so the output stream stays sorted.

use crate::traffic::Arrival;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// What the channel needs of the packets it carries: a corrupt hook and
/// a release hook.
pub trait Payload: Clone {
    /// The corrupt hook: the packet was damaged on the wire.
    fn corrupt(&mut self);
    /// The release hook: a held packet takes on what it must from `by`,
    /// a later packet crossing the channel. It is called at every
    /// crossing while the packet is held, so the packet goes out stamped
    /// by the delivery that releases it, or by the latest crossing when
    /// the stream is flushed.
    fn restamp(&mut self, by: &Self);
}

/// An arrival is damaged by its flag and takes the releasing delivery's
/// time, so a reordered stream stays sorted.
impl Payload for Arrival {
    fn corrupt(&mut self) {
        self.corrupted = true;
    }
    fn restamp(&mut self, by: &Self) {
        self.time_s = by.time_s;
    }
}

/// A wire frame is damaged by flipping its middle byte (the tail may be
/// link-layer padding outside any checksum) and released unchanged.
impl Payload for Vec<u8> {
    fn corrupt(&mut self) {
        let mid = self.len() / 2;
        if let Some(b) = self.get_mut(mid) {
            *b ^= 0xff;
        }
    }
    fn restamp(&mut self, _: &Self) {}
}

/// The fate of one packet entering the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fate {
    /// Lost on the wire: never delivered.
    dropped: bool,
    /// Delivered with a damaged payload.
    corrupted: bool,
    /// Delivered twice.
    duplicated: bool,
    /// 0 = delivered in place; k > 0 = held back and released after k
    /// subsequent deliveries.
    reorder_slip: usize,
}

/// The impairment channel over a stream of [`Payload`]s, and the one
/// source of fates. Every packet sent gets one: a dropped one vanishes,
/// a corrupted one goes through the corrupt hook, a duplicated one goes
/// out twice back to back, and one held `k` slots goes out ahead of the
/// `k`-th later packet to cross the channel, through the release hook.
///
/// A sender learns what happened only from what [`ImpairChannel::send`]
/// hands out. At `reorder_depth: 0` nothing is ever held, so a send
/// hands out nothing (dropped), or one or two copies of the packet at
/// once — the channel a per-request model such as a retransmission loop
/// uses.
#[derive(Debug)]
pub struct ImpairChannel<P: Payload> {
    cfg: ImpairConfig,
    /// [`ImpairConfig::is_transparent`], computed once.
    transparent: bool,
    rng: StdRng,
    /// The Gilbert–Elliott chain's state (good until the first move).
    in_bad: bool,
    counters: ImpairCounters,
    /// Held (reordered) packets: (crossings still to pass them, packet).
    held: Vec<(usize, P)>,
}

impl<P: Payload> ImpairChannel<P> {
    /// A channel applying `cfg`, its chain in the good state.
    pub fn new(cfg: ImpairConfig) -> Self {
        ImpairChannel {
            rng: StdRng::seed_from_u64(cfg.seed),
            transparent: cfg.is_transparent(),
            cfg,
            in_bad: false,
            counters: ImpairCounters::default(),
            held: Vec::new(),
        }
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
    fn next_fate(&mut self) -> Fate {
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

    /// Sends `p` across the channel (one fate) and hands every packet
    /// that comes out to `deliver`, in delivery order: held packets `p`
    /// releases, then `p` itself unless it was dropped or held.
    pub fn send(&mut self, mut p: P, mut deliver: impl FnMut(P)) {
        let fate = self.next_fate();
        if fate.dropped {
            return;
        }
        if fate.corrupted {
            p.corrupt();
        }
        // Every packet that crosses the channel moves the held ones one
        // slot closer — "at most `reorder_depth` later" counts held
        // packets too, otherwise an all-reordered stream would be held
        // forever.
        let due = self.held.extract_if(.., |(slots, q)| {
            q.restamp(&p);
            *slots -= 1;
            *slots == 0
        });
        for (_, q) in due {
            deliver(q);
        }
        // A duplicate travels with its original, held or not, so the
        // two go out back to back either way.
        let copies = [fate.duplicated.then(|| p.clone()), Some(p)].into_iter().flatten();
        if fate.reorder_slip > 0 {
            // analyze::allow(alloc-path, reason = "only a channel with reorder_depth > 0 holds; the closed loop's channel is built at depth 0, so the event loop never gets here")
            self.held.extend(copies.map(|q| (fate.reorder_slip, q)));
        } else {
            copies.for_each(deliver);
        }
    }

    /// The stream ended: releases every held packet, oldest first, so
    /// the model itself loses nothing.
    pub fn flush(&mut self, deliver: impl FnMut(P)) {
        self.held.drain(..).map(|(_, q)| q).for_each(deliver);
    }
}

/// Runs a pre-built stream through a channel and flushes it: the
/// deliveries, in order, and the channel's counters. Corruption already
/// marked on the input stays marked.
pub fn impair_arrivals<P: Payload>(arrivals: &[P], cfg: ImpairConfig) -> (Vec<P>, ImpairCounters) {
    let mut chan = ImpairChannel::new(cfg);
    let mut out = Vec::with_capacity(arrivals.len());
    for a in arrivals {
        chan.send(a.clone(), |d| out.push(d));
    }
    chan.flush(|d| out.push(d));
    (out, chan.counters())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{ConstantSource, PoissonSource, TrafficSource};

    fn constant(n: usize) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                time_s: i as f64 * 1e-3,
                bytes: 552,
                corrupted: false,
            })
            .collect()
    }

    /// [`constant`] with every seventh arrival already damaged upstream.
    fn every_seventh_corrupted(n: usize) -> Vec<Arrival> {
        let mut out = constant(n);
        for a in out.iter_mut().step_by(7) {
            a.corrupted = true;
        }
        out
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
        let runs = |delivered: &[Arrival], total: usize| {
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
        let mut a = ImpairChannel::<Arrival>::new(cfg);
        let mut b = ImpairChannel::<Arrival>::new(cfg);
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
        let mut fast = ImpairChannel::<Arrival>::new(cfg);
        let mut drawing = ImpairChannel::<Arrival>::new(cfg);
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
        let mut live = ImpairChannel::<Arrival>::new(cfg);
        let mut reference = StdRng::seed_from_u64(cfg.seed);
        live.next_fate();
        for _ in 0..6 {
            reference.random::<f64>();
        }
        assert_eq!(live.rng.random::<u64>(), reference.random::<u64>());
    }

    #[test]
    fn arrival_and_frame_streams_share_one_permutation() {
        // Packet i is an arrival of i bytes and a 9-byte frame carrying
        // i in its first four bytes and a zero middle byte, which the
        // frame's corrupt hook flips. One config must drop, duplicate,
        // damage and hold the same packets in both streams.
        let cfg = ImpairConfig {
            drop_prob: 0.1,
            corrupt_prob: 0.1,
            dup_prob: 0.1,
            reorder_prob: 0.2,
            reorder_depth: 5,
            gilbert: Some(GilbertElliott::bursty(0.02, 5.0, 0.4)),
            seed: 17,
        };
        let arrivals: Vec<Arrival> = (0..3000u32)
            .map(|i| Arrival {
                time_s: f64::from(i) * 1e-3,
                bytes: i,
                corrupted: false,
            })
            .collect();
        let frames: Vec<Vec<u8>> = (0..3000u32)
            .map(|i| [i.to_le_bytes().as_slice(), &[0; 5]].concat())
            .collect();
        let (a, ca) = impair_arrivals(&arrivals, cfg);
        let (f, cf) = impair_arrivals(&frames, cfg);
        assert_eq!(ca, cf);
        assert!(ca.dropped > 0 && ca.duplicated > 0 && ca.corrupted > 0 && ca.reordered > 0);
        let from_arrivals: Vec<(u32, bool)> = a.iter().map(|a| (a.bytes, a.corrupted)).collect();
        let from_frames: Vec<(u32, bool)> = f
            .iter()
            .map(|f| (u32::from_le_bytes([f[0], f[1], f[2], f[3]]), f[4] != 0))
            .collect();
        assert_eq!(from_arrivals, from_frames);
        assert!(from_arrivals.windows(2).any(|w| w[0].0 > w[1].0), "some packet was held");
    }

    #[test]
    fn reorder_only_channel_loses_nothing_and_keeps_input_corruption() {
        let deliveries = every_seventh_corrupted(4_000);
        let cfg = ImpairConfig {
            reorder_prob: 0.3,
            reorder_depth: 6,
            seed: 13,
            ..ImpairConfig::default()
        };
        let (out, c) = impair_arrivals(&deliveries, cfg);
        assert_eq!(out.len(), deliveries.len(), "reordering loses nothing");
        assert_eq!(c.dropped + c.duplicated + c.corrupted, 0);
        assert!(c.reordered > 500, "reordered {}", c.reordered);
        assert!(out.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        // The corruption flags survive as a multiset.
        let marked = |v: &[Arrival]| v.iter().filter(|a| a.corrupted).count();
        assert_eq!(marked(&out), marked(&deliveries));
    }

    /// FNV-1a over every delivery (time bits, size, damage bit), then
    /// over the channel counters.
    fn digest(stream: &[Arrival], c: ImpairCounters) -> u64 {
        let h = stream.iter().fold(crate::FNV_OFFSET, |h, a| {
            let h = crate::fnv1a(h, &a.time_s.to_bits().to_le_bytes());
            let h = crate::fnv1a(h, &a.bytes.to_le_bytes());
            crate::fnv1a(h, &[u8::from(a.corrupted)])
        });
        [c.offered, c.delivered, c.dropped, c.corrupted, c.duplicated, c.reordered]
            .iter()
            .fold(h, |h, v| crate::fnv1a(h, &v.to_le_bytes()))
    }

    #[test]
    fn stream_digests_match_the_per_stream_hold_loops() {
        // Captured from the three hand-written hold-and-release loops
        // (the source wrapper, the reorder-only pass over pre-corrupted
        // deliveries, the device adapter) before `ImpairChannel`
        // replaced them.
        let poisson = PoissonSource::new(2000.0, 552, 4).take_until(1.0);
        let pre_corrupted = every_seventh_corrupted(4_000);
        let cases = [
            (
                "iid loss + corrupt + dup",
                &poisson,
                ImpairConfig {
                    drop_prob: 0.05,
                    corrupt_prob: 0.03,
                    dup_prob: 0.04,
                    seed: 9,
                    ..ImpairConfig::default()
                },
                0x7e50_35d3_20a8_2267u64,
            ),
            (
                "gilbert-elliott burst",
                &poisson,
                ImpairConfig {
                    gilbert: Some(GilbertElliott::bursty(0.05, 10.0, 0.8)),
                    seed: 2,
                    ..ImpairConfig::default()
                },
                0x3ef2_5dd4_f8fe_6842,
            ),
            (
                "every fate, duplicates of held packets included",
                &poisson,
                ImpairConfig {
                    drop_prob: 0.1,
                    corrupt_prob: 0.1,
                    dup_prob: 0.1,
                    reorder_prob: 0.1,
                    reorder_depth: 4,
                    gilbert: Some(GilbertElliott::bursty(0.02, 5.0, 0.4)),
                    seed: 42,
                },
                // Re-pinned when a held duplicate started holding its copy.
                0xdbe0_d390_4156_fcba,
            ),
            (
                "deep reorder over pre-corrupted input",
                &pre_corrupted,
                ImpairConfig {
                    reorder_prob: 0.3,
                    reorder_depth: 16,
                    seed: 13,
                    ..ImpairConfig::default()
                },
                0xf63e_9ae7_0e11_6a23,
            ),
            (
                "all-reorder flush",
                &constant(50),
                ImpairConfig {
                    reorder_prob: 1.0,
                    reorder_depth: 100,
                    seed: 1,
                    ..ImpairConfig::default()
                },
                0x6b6e_952a_65b4_3e2e,
            ),
        ];
        for (name, input, cfg, want) in cases {
            let (out, c) = impair_arrivals(input, cfg);
            assert_eq!(digest(&out, c), want, "{name}");
        }
    }

    #[test]
    fn every_delivery_counted_is_handed_out_or_held() {
        // The channel's law, after every send and after the flush:
        // packets handed out + packets held == counters.delivered. A
        // duplicated packet that is also held holds its copy too.
        let poisson = PoissonSource::new(2000.0, 552, 8).take_until(1.0);
        let configs = [
            ImpairConfig {
                dup_prob: 0.3,
                reorder_prob: 0.3,
                reorder_depth: 4,
                seed: 3,
                ..ImpairConfig::default()
            },
            ImpairConfig {
                drop_prob: 0.1,
                corrupt_prob: 0.1,
                dup_prob: 0.1,
                reorder_prob: 0.1,
                reorder_depth: 4,
                gilbert: Some(GilbertElliott::bursty(0.02, 5.0, 0.4)),
                seed: 42,
            },
            ImpairConfig {
                dup_prob: 1.0,
                reorder_prob: 1.0,
                reorder_depth: 100,
                seed: 1,
                ..ImpairConfig::default()
            },
        ];
        for cfg in configs {
            let mut chan = ImpairChannel::new(cfg);
            let mut out = Vec::new();
            for a in &poisson {
                chan.send(*a, |d| out.push(d));
                assert_eq!(
                    out.len() + chan.held.len(),
                    chan.counters().delivered as usize
                );
            }
            chan.flush(|d| out.push(d));
            let c = chan.counters();
            assert_eq!((out.len(), chan.held.len()), (c.delivered as usize, 0));
            assert!(c.duplicated > 0 && c.reordered > 0);
            assert_eq!(c.offered, c.delivered + c.dropped - c.duplicated);
        }
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

        // The same channel in front of an endless source must not hoard
        // forever either: a packet held at one crossing is out by the
        // hundredth after it.
        let mut chan = ImpairChannel::new(ImpairConfig {
            reorder_prob: 1.0,
            reorder_depth: 100,
            seed: 1,
            ..ImpairConfig::default()
        });
        let mut src = ConstantSource::new(0.001, 552);
        let mut out = Vec::new();
        for a in std::iter::from_fn(|| src.next_arrival()).take(500) {
            chan.send(a, |d| out.push(d));
        }
        assert!(out.len() >= 400, "deep reordering still delivers: {}", out.len());
        assert!(out.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    #[should_panic(expected = "mean_loss < bad_loss")]
    fn gilbert_rejects_impossible_parameters() {
        GilbertElliott::bursty(0.5, 10.0, 0.3);
    }
}
