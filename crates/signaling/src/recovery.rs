//! Loss recovery for the signalling workload: per-call retransmit timers
//! with exponential backoff and the max-retry RELEASE path.
//!
//! Q.93B runs over an SSCOP-like reliable transport; on a lossy link the
//! sender's timer (T303 for SETUP) fires and the message is retransmitted
//! with exponentially growing timeouts. After `max_retries` unanswered
//! retransmissions the call is *abandoned*: call control gives up on the
//! half-open call and sends a RELEASE to tear it down — so even a failed
//! call costs the switch processing work. This module generates the
//! delivery stream a switch actually sees when the paired SETUP/RELEASE
//! load of [`crate::workload::call_arrivals`] crosses an impairment
//! channel, which is exactly what `run_sim_impaired` consumes — the goal
//! experiment rerun under loss.
//!
//! Channel semantics per transmission, as in `simnet::closed`: every
//! message crosses a depth-0 [`ImpairChannel`] (nothing is held;
//! reordering is ignored per call), and the sender learns what happened
//! only from what the channel hands out. Nothing: dropped, and the timer
//! fires. A corrupted copy: the switch spends cycles on it and rejects it
//! at checksum verification, and the timer still fires. One or two clean
//! copies: delivered, and the timer is cancelled. To study reordering at
//! the NIC, run the deliveries through [`simnet::impair::impair_arrivals`]
//! with a reorder-only channel; the corruption marked here rides through.

use crate::workload::{RELEASE_BYTES, SETUP_BYTES};
use simnet::impair::{ImpairChannel, ImpairConfig, ImpairCounters};
use simnet::traffic::{Arrival, PoissonSource, TrafficSource};

// The timer machinery is shared with the closed-loop client population
// (`simnet::closed` uses it from the *client* side, and `signaling`
// depends on `simnet`, so the definition lives there). The re-export
// keeps this module's API unchanged; `RetryPolicy` additionally gained
// an SSCOP-style `max_rto_s` cap on the backed-off timeout.
pub use simnet::closed::{RetransmitTimer, RetryPolicy};

/// Parameters of a lossy signalling run.
#[derive(Debug, Clone, Copy)]
pub struct LossyCallConfig {
    /// Poisson call-attempt rate (each call is a SETUP + RELEASE pair).
    pub pairs_per_s: f64,
    /// Mean call hold time: RELEASE follows the successful SETUP by this.
    pub hold_s: f64,
    /// Arrival window in seconds (matches `SimConfig::duration_s`).
    pub duration_s: f64,
    /// Seed for the call-arrival process.
    pub seed: u64,
    /// The impairment channel every transmission crosses.
    pub channel: ImpairConfig,
    /// Transport retransmission policy.
    pub retry: RetryPolicy,
}

/// What loss recovery did across one generated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Call attempts generated.
    pub calls: u64,
    /// Calls whose SETUP was eventually delivered clean.
    pub connected: u64,
    /// Calls abandoned after the SETUP retry budget was spent.
    pub abandoned: u64,
    /// Total transmissions (SETUP and RELEASE, initial + retransmit).
    pub transmissions: u64,
    /// Retransmissions only.
    pub retransmits: u64,
    /// RELEASE exchanges initiated (normal teardown and abandon path).
    pub releases_sent: u64,
    /// RELEASEs sent on the max-retry path for abandoned calls.
    pub abandon_releases: u64,
    /// Messages (SETUP or RELEASE) whose retry budget was spent without
    /// a clean delivery.
    pub exhausted_sends: u64,
}

/// Outcome of pushing one message through the channel with retries.
enum SendOutcome {
    /// Clean delivery at this time.
    Delivered(f64),
    /// Retry budget exhausted; abandoned at this time.
    Exhausted(f64),
}

/// Transmits one message reliably: initial send at `t0_s`, retransmit on
/// every timer expiry, stop on clean delivery or retry exhaustion. Every
/// delivered copy (corrupt ones included) lands in `out`.
fn send_reliable(
    t0_s: f64,
    bytes: u32,
    chan: &mut ImpairChannel<Arrival>,
    retry: RetryPolicy,
    out: &mut Vec<Arrival>,
    stats: &mut RecoveryStats,
) -> SendOutcome {
    let mut timer = RetransmitTimer::arm(retry, t0_s);
    let mut tx_s = t0_s;
    loop {
        stats.transmissions += 1;
        if timer.transmissions() > 1 {
            stats.retransmits += 1;
        }
        let mut clean = false;
        let sent = Arrival {
            time_s: tx_s,
            bytes,
            corrupted: false,
        };
        chan.send(sent, |d| {
            clean |= !d.corrupted;
            out.push(d);
        });
        if clean {
            return SendOutcome::Delivered(tx_s);
        }
        match timer.expire() {
            Some(retx_s) => tx_s = retx_s,
            None => {
                stats.exhausted_sends += 1;
                return SendOutcome::Exhausted(timer.deadline_s());
            }
        }
    }
}

/// Generates the delivery stream of the paired SETUP/RELEASE workload
/// across an impairment channel with retransmission. Returns the
/// time-sorted deliveries (feed to `simnet::run_sim_impaired`), the
/// channel counters, and the recovery bookkeeping.
///
/// With a transparent channel this reproduces
/// [`crate::workload::call_arrivals`] exactly: every SETUP delivers
/// first try and every RELEASE inside the window follows one hold time
/// later.
pub fn lossy_call_arrivals(
    cfg: &LossyCallConfig,
) -> (Vec<Arrival>, ImpairCounters, RecoveryStats) {
    let mut chan = ImpairChannel::new(ImpairConfig {
        reorder_depth: 0,
        ..cfg.channel
    });
    let mut stats = RecoveryStats::default();
    let mut out = Vec::new();
    let mut setups = PoissonSource::new(cfg.pairs_per_s, SETUP_BYTES, cfg.seed);
    for s in setups.take_until(cfg.duration_s) {
        stats.calls += 1;
        match send_reliable(s.time_s, SETUP_BYTES, &mut chan, cfg.retry, &mut out, &mut stats) {
            SendOutcome::Delivered(connect_s) => {
                stats.connected += 1;
                let release_s = connect_s + cfg.hold_s;
                if release_s < cfg.duration_s {
                    stats.releases_sent += 1;
                    send_reliable(
                        release_s,
                        RELEASE_BYTES,
                        &mut chan,
                        cfg.retry,
                        &mut out,
                        &mut stats,
                    );
                }
            }
            SendOutcome::Exhausted(abandon_s) => {
                // The max-retry RELEASE path: tear down the half-open
                // call so the switch can free its state.
                stats.abandoned += 1;
                stats.releases_sent += 1;
                stats.abandon_releases += 1;
                send_reliable(
                    abandon_s,
                    RELEASE_BYTES,
                    &mut chan,
                    cfg.retry,
                    &mut out,
                    &mut stats,
                );
            }
        }
    }
    out.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    (out, chan.counters(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::call_arrivals;

    fn base_cfg(channel: ImpairConfig) -> LossyCallConfig {
        LossyCallConfig {
            pairs_per_s: 2000.0,
            hold_s: 0.02,
            duration_s: 0.5,
            seed: 7,
            channel,
            retry: RetryPolicy::default(),
        }
    }

    #[test]
    fn backoff_doubles_and_budget_is_finite() {
        let p = RetryPolicy {
            rto_s: 0.01,
            backoff: 2.0,
            max_retries: 3,
            ..RetryPolicy::default()
        };
        let mut t = RetransmitTimer::arm(p, 1.0);
        assert_eq!(t.deadline_s(), 1.01);
        assert_eq!(t.expire(), Some(1.01), "first retransmission at the deadline");
        assert!((t.deadline_s() - 1.03).abs() < 1e-12, "next timeout doubled");
        assert_eq!(t.expire(), Some(1.03));
        assert!((t.deadline_s() - 1.07).abs() < 1e-12);
        assert_eq!(t.expire(), Some(1.07));
        assert_eq!(t.transmissions(), 4, "initial + 3 retries");
        assert_eq!(t.expire(), None, "budget spent");
        assert_eq!(t.expire(), None, "stays exhausted");
    }

    #[test]
    fn transparent_channel_reproduces_the_clean_workload() {
        let cfg = base_cfg(ImpairConfig::default());
        let (deliveries, counters, stats) = lossy_call_arrivals(&cfg);
        let clean = call_arrivals(cfg.pairs_per_s, cfg.hold_s, cfg.duration_s, cfg.seed);
        assert_eq!(deliveries.len(), clean.len());
        for (d, c) in deliveries.iter().zip(&clean) {
            assert_eq!(d.time_s, c.time_s);
            assert_eq!(d.bytes, c.bytes);
            assert!(!d.corrupted);
        }
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.abandoned, 0);
        assert_eq!(stats.connected, stats.calls);
        assert_eq!(counters.dropped, 0);
    }

    #[test]
    fn retransmission_recovers_moderate_loss() {
        let cfg = base_cfg(ImpairConfig::loss(0.05, 3));
        let (deliveries, counters, stats) = lossy_call_arrivals(&cfg);
        assert!(stats.retransmits > 0, "5% loss must trigger retransmissions");
        // P(abandon) = 0.05^4 ~ 6e-6: essentially every call connects.
        assert_eq!(stats.abandoned, 0, "four attempts survive 5% loss");
        assert_eq!(stats.connected, stats.calls);
        assert_eq!(
            deliveries.len() as u64,
            counters.delivered,
            "every channel delivery reaches the switch"
        );
        assert_eq!(
            stats.transmissions,
            counters.offered,
            "every transmission crossed the channel"
        );
    }

    #[test]
    fn exhausted_retries_take_the_release_path() {
        let cfg = LossyCallConfig {
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..base_cfg(ImpairConfig::loss(0.5, 11))
        };
        let (_, _, stats) = lossy_call_arrivals(&cfg);
        // P(abandon) = 0.25 with two attempts at 50% loss.
        assert!(stats.abandoned > stats.calls / 8, "heavy loss abandons calls");
        assert!(stats.connected + stats.abandoned == stats.calls);
        assert!(
            stats.abandon_releases == stats.abandoned,
            "every abandoned call still tears down via RELEASE"
        );
        assert!(stats.releases_sent >= stats.abandon_releases);
    }

    #[test]
    fn corruption_forces_retransmission_but_still_costs_the_switch() {
        let cfg = base_cfg(ImpairConfig {
            corrupt_prob: 0.2,
            seed: 9,
            ..ImpairConfig::default()
        });
        let (deliveries, counters, stats) = lossy_call_arrivals(&cfg);
        assert!(counters.corrupted > 0);
        let corrupt = deliveries.iter().filter(|d| d.corrupted).count() as u64;
        assert_eq!(corrupt, counters.corrupted, "corrupt copies reach the switch");
        // With corruption the only failure mode, every failed attempt is
        // either retransmitted or the final one of an exhausted message.
        assert_eq!(
            stats.retransmits + stats.exhausted_sends,
            counters.corrupted,
            "failed attempts are retransmitted or exhausted, nothing else"
        );
        assert!(deliveries.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = base_cfg(ImpairConfig {
            drop_prob: 0.08,
            corrupt_prob: 0.04,
            dup_prob: 0.02,
            seed: 21,
            ..ImpairConfig::default()
        });
        let (d1, c1, s1) = lossy_call_arrivals(&cfg);
        let (d2, c2, s2) = lossy_call_arrivals(&cfg);
        assert_eq!(d1, d2);
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }
}
