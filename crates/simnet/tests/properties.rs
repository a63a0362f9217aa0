//! Property tests for the statistics layer and the simulator's
//! conservation law.
//!
//! * [`simnet::stats::percentile`] must be monotone in `q`, bounded by
//!   the sample extremes, and agree with an independently-written
//!   reference implementation on every input.
//! * [`ClassSamples::report`], which selects its percentiles, must
//!   report bit for bit what sorting the samples and reading them with
//!   `percentile` reports, ties and empty runs included.
//! * `offered == completed + rejected + drops + shed + in_flight` must
//!   hold under arbitrary duplication and corruption impairments (the
//!   accounting seam where double-counting bugs would hide).
//! * A [`ClosedPopulation`] fed random acknowledgements — duplicates,
//!   acks for abandoned requests, acks naming a request or client that
//!   never existed — retires each request once and keeps its books.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simnet::impair::{impair_arrivals, ImpairConfig};
use simnet::stats::{percentile, ClassReport, ClassSamples};
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim_impaired, AckKind, ClosedConfig, ClosedPopulation, SimConfig};
use std::collections::BTreeSet;

use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};

/// Independent reference: linear interpolation between the order
/// statistics at rank `(n - 1) * q`, written from the definition rather
/// than by mirroring the production code.
fn percentile_reference(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (n - 1) as f64;
    let below = sorted[pos.floor() as usize];
    let above = sorted[(pos.floor() as usize + 1).min(n - 1)];
    below + (above - below) * pos.fract()
}

/// Checks `ClassSamples::report` on `latencies_us` against the sort it
/// replaced: sort, read p50 and p99 with `percentile`, count the
/// samples within the objective. The samples come back reordered,
/// never changed.
fn check_class_report(latencies_us: Vec<f64>, slo_us: f64) -> Result<(), TestCaseError> {
    let mut sorted = latencies_us.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    let completed = latencies_us.len() as u64;
    let mut s = ClassSamples {
        offered: completed + 1,
        completed,
        drops: 1,
        imiss_sum: 3 * completed,
        latencies_us,
        ..ClassSamples::default()
    };
    let got = s.report(slo_us);
    let within = sorted.iter().filter(|&&l| l <= slo_us).count() as u64;
    let want = ClassReport {
        p50_latency_us: percentile(&sorted, 0.50),
        p99_latency_us: percentile(&sorted, 0.99),
        slo_attainment: if slo_us > 0.0 { within } else { completed } as f64
            / completed.max(1) as f64,
        ..got
    };
    // `{:?}` prints floats exactly and tells -0.0 from 0.0.
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    s.latencies_us.sort_unstable_by(f64::total_cmp);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&s.latencies_us), bits(&sorted), "samples kept");
    Ok(())
}

fn sorted_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1e6, 1..40).prop_map(|mut v| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        v
    })
}

proptest! {
    #[test]
    fn percentile_is_monotone_in_q(samples in sorted_samples(), q1 in 0.0f64..=1.0, q2 in 0.0f64..=1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(
            percentile(&samples, lo) <= percentile(&samples, hi),
            "percentile must not decrease as q grows"
        );
    }

    #[test]
    fn percentile_is_bounded_by_the_extremes(samples in sorted_samples(), q in 0.0f64..=1.0) {
        let p = percentile(&samples, q);
        let min = samples[0];
        let max = samples[samples.len() - 1];
        prop_assert!(p >= min, "percentile {p} below min {min}");
        prop_assert!(p <= max, "percentile {p} above max {max}");
    }

    #[test]
    fn percentile_hits_the_endpoints(samples in sorted_samples()) {
        prop_assert_eq!(percentile(&samples, 0.0), samples[0]);
        prop_assert_eq!(percentile(&samples, 1.0), samples[samples.len() - 1]);
    }

    #[test]
    fn percentile_agrees_with_the_reference(samples in sorted_samples(), q in 0.0f64..=1.0) {
        let got = percentile(&samples, q);
        let want = percentile_reference(&samples, q);
        prop_assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "percentile({q}) = {got}, reference = {want}"
        );
    }

    #[test]
    fn percentile_of_a_constant_is_the_constant(v in 0.0f64..1e6, n in 1usize..30, q in 0.0f64..=1.0) {
        let samples = vec![v; n];
        // `v*(1-frac) + v*frac` can land one ulp away from `v`.
        let p = percentile(&samples, q);
        prop_assert!((p - v).abs() <= f64::EPSILON * v.abs(), "percentile({q}) = {p}, want {v}");
    }

    #[test]
    fn class_report_selects_what_the_sort_read(
        ranks in proptest::collection::vec(0u32..12, 0..80),
        scale in 0.5f64..500.0,
        slo_rank in 0u32..14,
    ) {
        // Twelve distinct values: most runs tie, some are empty or one
        // sample long.
        let latencies_us = ranks.iter().map(|&r| f64::from(r) * scale).collect();
        check_class_report(latencies_us, f64::from(slo_rank) * scale)?;
    }

    #[test]
    fn class_report_of_distinct_samples(samples in proptest::collection::vec(0.0f64..1e6, 0..300), slo_us in 0.0f64..1e6) {
        check_class_report(samples, slo_us)?;
    }

    #[test]
    fn class_report_of_equal_samples(v in 0.0f64..1e6, n in 0usize..30, at_slo in any::<bool>()) {
        check_class_report(vec![v; n], if at_slo { v } else { v / 2.0 })?;
    }

    /// Conservation under duplication + corruption: every duplicated
    /// delivery is a fresh offered message and every corrupted one must
    /// land in `rejected`, never vanish or double-count.
    #[test]
    fn conservation_holds_under_duplication_and_corruption(
        dup_pct in 0u32..40,
        corrupt_pct in 0u32..40,
        rate in 1000u32..8000,
        seed in 1u64..64,
        ldlp in any::<bool>(),
    ) {
        let duration_s = 0.02;
        let arrivals = PoissonSource::new(rate as f64, 552, seed).take_until(duration_s);
        let (deliveries, counters) = impair_arrivals(
            &arrivals,
            ImpairConfig {
                dup_prob: dup_pct as f64 / 100.0,
                corrupt_prob: corrupt_pct as f64 / 100.0,
                seed: seed ^ 0xc0de,
                ..ImpairConfig::default()
            },
        );
        let discipline = if ldlp {
            Discipline::Ldlp(BatchPolicy::DCacheFit)
        } else {
            Discipline::Conventional
        };
        let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        // Verify at layer 0 so corrupted deliveries are rejected there.
        let mut engine = StackEngine::new(machine, layers, discipline).with_verify_layer(0);
        let cfg = SimConfig {
            duration_s,
            pool_seed: seed,
            ..SimConfig::default()
        };
        let r = run_sim_impaired(&mut engine, &deliveries, &cfg, counters);
        prop_assert!(r.conservation_holds(), "conservation violated: {r:?}");
        prop_assert_eq!(r.offered, deliveries.len() as u64, "every delivery is offered");
        prop_assert_eq!(r.net_duplicated, counters.duplicated);
        prop_assert_eq!(r.net_corrupted, counters.corrupted);
        if corrupt_pct == 0 {
            prop_assert_eq!(r.rejected, 0, "clean runs reject nothing");
        }
    }

    /// Random `poll_sends`/`ack` sequences against a lossy, duplicating
    /// channel. Op 0 advances the clock and polls; op 1 acks a copy that
    /// was sent (maybe a duplicate, maybe already acked or abandoned);
    /// op 2 acks a request number never issued; op 3 acks a client that
    /// does not exist. After every step: each `(client, req)` gets at
    /// most one `Useful`, a `Stale` ack changes no counter, and
    /// `requests == useful + abandoned + outstanding`.
    #[test]
    fn closed_population_retires_each_request_once(
        clients in 1u32..6,
        seed in 1u64..1000,
        drop_pct in 0u32..30,
        dup_pct in 0u32..50,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), 0.0f64..0.02), 1..120),
    ) {
        let mut cfg = ClosedConfig::new(clients, 0.004, 0.2, seed);
        cfg.channel = ImpairConfig {
            drop_prob: drop_pct as f64 / 100.0,
            dup_prob: dup_pct as f64 / 100.0,
            seed: seed ^ 0xfeed,
            ..ImpairConfig::default()
        };
        let mut pop = ClosedPopulation::new(&cfg);
        let (mut now, mut out, mut sent) = (0.0, Vec::new(), Vec::new());
        let mut useful = BTreeSet::new();
        for (op, pick, dt) in ops {
            let before = *pop.stats();
            let ack = match op {
                0 => {
                    now += dt;
                    pop.poll_sends(now, &mut out);
                    sent.extend(out.drain(..).map(|s| (s.client, s.req)));
                    None
                }
                _ if sent.is_empty() => None,
                _ => {
                    let (client, req) = sent[pick as usize % sent.len()];
                    let (client, req) = match op {
                        1 => (client, req),
                        2 => (client, 0),
                        _ => (clients + pick % 3, req),
                    };
                    let kind = pop.ack(client, req, now);
                    if op != 1 {
                        prop_assert_eq!(kind, AckKind::Stale, "op {} acked a bogus request", op);
                    }
                    Some((client, req, kind))
                }
            };
            let s = *pop.stats();
            match ack {
                Some((c, r, AckKind::Useful { .. })) => {
                    prop_assert!(useful.insert((c, r)), "({}, {}) useful twice", c, r);
                }
                Some((.., AckKind::Stale)) => prop_assert_eq!(s, before, "a stale ack moved a counter"),
                None => {}
            }
            prop_assert_eq!(s.useful, useful.len() as u64);
            prop_assert_eq!(s.requests, s.useful + s.abandoned_requests + pop.outstanding());
            prop_assert_eq!(pop.latencies_us().len() as u64, s.useful);
        }
    }
}
