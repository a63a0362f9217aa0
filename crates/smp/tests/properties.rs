//! Property tests for flow steering and the multi-core conservation
//! law.
//!
//! * Flow affinity: every packet of a flow lands on the same core under
//!   *any* dispatch policy — the invariant per-flow protocol state
//!   depends on.
//! * Seed stability: flow synthesis, tagging, and steering are pure
//!   functions of their seeds; same inputs, same dispatch, always.
//! * Load balance: for uniformly-drawn flows, no core is starved and no
//!   core is severely overloaded (round-robin is exactly balanced over
//!   flows; RSS hashing is statistically balanced).
//! * Conservation: `offered == completed + rejected + drops + shed`
//!   holds across cores and hand-off queues under arbitrary
//!   duplication + corruption impairments, for every dispatch policy.
//! * Flow identity survives the channel: a duplicate is steered as the
//!   packet it copies.

use proptest::prelude::*;
use smp::{
    run_smp_impaired, tag_flows, DispatchPolicy, FlowKey, HandoffFlowControl, SmpConfig, SmpSim,
    Steerer,
};

use ldlp::{AdmissionPolicy, BatchPolicy, Discipline};
use simnet::closed::ClosedPopulation;
use simnet::impair::{impair_arrivals, ImpairConfig};
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::ClosedConfig;

fn policies() -> [DispatchPolicy; 3] {
    [
        DispatchPolicy::FlowHash,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LayerAffinity,
    ]
}

fn admissions() -> [AdmissionPolicy; 4] {
    [
        AdmissionPolicy::TailDrop,
        AdmissionPolicy::HeadDrop,
        AdmissionPolicy::ShedOldest { down_to: 4 },
        AdmissionPolicy::WeightedFair,
    ]
}

proptest! {
    /// Same flow → same core, no matter the policy, the order flows
    /// first appear, or how often each is asked about.
    #[test]
    fn steering_is_flow_affine(
        cores in 1usize..9,
        flows in 1u32..64,
        seed in 1u64..1000,
        queries in proptest::collection::vec(0u32..64, 1..200),
    ) {
        for policy in policies() {
            let mut steer = Steerer::new(policy, cores);
            let mut first: Vec<Option<usize>> = vec![None; flows as usize];
            for &q in &queries {
                let flow = q % flows;
                let key = FlowKey::synth(flow, seed);
                let core = steer.core_for(&key);
                prop_assert!(core < cores, "core {core} out of range");
                match first[flow as usize] {
                    None => first[flow as usize] = Some(core),
                    Some(prev) => prop_assert_eq!(
                        prev, core,
                        "flow {} moved cores under {:?}", flow, policy
                    ),
                }
            }
        }
    }

    /// Steering is a pure function of (seed, policy, arrival order):
    /// re-running the whole synthesis + dispatch pipeline reproduces
    /// the exact core sequence.
    #[test]
    fn steering_is_seed_stable(
        cores in 1usize..9,
        flows in 1u32..64,
        seed in 1u64..1000,
        rate in 500u32..4000,
    ) {
        let arrivals = PoissonSource::new(rate as f64, 552, seed).take_until(0.05);
        let tagged_a = tag_flows(&arrivals, flows, seed);
        let tagged_b = tag_flows(&arrivals, flows, seed);
        prop_assert_eq!(&tagged_a, &tagged_b, "tagging must be deterministic");
        for policy in policies() {
            let mut sa = Steerer::new(policy, cores);
            let mut sb = Steerer::new(policy, cores);
            for (a, b) in tagged_a.iter().zip(&tagged_b) {
                prop_assert_eq!(sa.core_for(&a.key), sb.core_for(&b.key));
            }
        }
    }

    /// Uniform flows spread evenly: round-robin assigns flows to cores
    /// exactly evenly (spread ≤ 1), and RSS hashing keeps every core
    /// within a constant factor of the mean when there are enough flows
    /// to average over.
    #[test]
    fn uniform_flows_are_balance_bounded(
        cores in 2usize..9,
        seed in 1u64..1000,
    ) {
        let flows: u32 = 64 * cores as u32;
        let mut rr = Steerer::new(DispatchPolicy::RoundRobin, cores);
        let mut hash = Steerer::new(DispatchPolicy::FlowHash, cores);
        let mut rr_counts = vec![0u32; cores];
        let mut hash_counts = vec![0u32; cores];
        for flow in 0..flows {
            let key = FlowKey::synth(flow, seed);
            rr_counts[rr.core_for(&key)] += 1;
            hash_counts[hash.core_for(&key)] += 1;
        }
        let rr_min = *rr_counts.iter().min().unwrap_or(&0);
        let rr_max = *rr_counts.iter().max().unwrap_or(&0);
        prop_assert!(rr_max - rr_min <= 1, "round-robin flow spread {rr_counts:?}");

        let mean = flows as f64 / cores as f64;
        for (core, &n) in hash_counts.iter().enumerate() {
            prop_assert!(
                (n as f64) < 3.0 * mean,
                "hash overloads core {core}: {n} of {flows} flows ({hash_counts:?})"
            );
            prop_assert!(n > 0, "hash starves core {core} ({hash_counts:?})");
        }
    }

    /// The cross-core conservation law under an impairment channel over
    /// the tagged stream: duplicated deliveries are fresh offered
    /// messages of their packet's flow, corrupted ones are rejected at
    /// the verify stage, and nothing vanishes in a hand-off queue — for
    /// every dispatch policy, discipline, admission policy
    /// (weighted-fair degrades to tail drop for class-blind arrivals)
    /// and hand-off flow-control mode.
    #[test]
    fn conservation_holds_across_cores_under_impairments(
        cores in 1usize..9,
        dup_pct in 0u32..40,
        corrupt_pct in 0u32..40,
        rate in 1000u32..8000,
        seed in 1u64..64,
        ldlp in any::<bool>(),
        policy_idx in 0usize..3,
        admission_idx in 0usize..4,
        stall in any::<bool>(),
    ) {
        let duration_s = 0.02;
        let arrivals = PoissonSource::new(rate as f64, 552, seed).take_until(duration_s);
        let (tagged, counters) = impair_arrivals(
            &tag_flows(&arrivals, 32, seed),
            ImpairConfig {
                dup_prob: dup_pct as f64 / 100.0,
                corrupt_prob: corrupt_pct as f64 / 100.0,
                seed: seed ^ 0xc0de,
                ..ImpairConfig::default()
            },
        );
        // Poisson times are distinct, so the back-to-back pairs sharing
        // a time are exactly the duplicates, and each keeps its flow.
        let pairs: Vec<_> = tagged.windows(2).filter(|w| w[0].time_s == w[1].time_s).collect();
        prop_assert_eq!(pairs.len() as u64, counters.duplicated);
        for w in pairs {
            prop_assert_eq!((w[0].flow_id, w[0].key), (w[1].flow_id, w[1].key));
        }
        let discipline = if ldlp {
            Discipline::Ldlp(BatchPolicy::DCacheFit)
        } else {
            Discipline::Conventional
        };
        let cfg = SmpConfig {
            duration_s,
            placement_seed: seed,
            admission: admissions()[admission_idx],
            // Small enough that the burstier draws overflow it.
            buffer_cap: 32,
            handoff_cap: 4,
            flow_control: if stall {
                HandoffFlowControl::StallProducer
            } else {
                HandoffFlowControl::SizeToFree
            },
            ..SmpConfig::new(cores, policies()[policy_idx], discipline)
        };
        let out = run_smp_impaired(&cfg, &tagged, counters);
        let r = &out.report;
        prop_assert!(r.conservation_holds(), "conservation violated: {r:?}");
        prop_assert_eq!(r.offered, tagged.len() as u64, "every delivery is offered");
        prop_assert_eq!(
            r.offered,
            r.completed + r.rejected + r.drops + r.shed,
            "a drained run leaves nothing in flight"
        );
        prop_assert_eq!(r.net_duplicated, counters.duplicated);
        prop_assert_eq!(r.net_corrupted, counters.corrupted);
        if corrupt_pct == 0 {
            prop_assert_eq!(r.rejected, 0, "clean runs reject nothing");
        }
        // The per-core tallies must agree with the aggregate report.
        let per_core: u64 = out.per_core.iter().map(|c| c.completed).sum();
        prop_assert_eq!(per_core, r.completed, "per-core completions disagree");
    }

    /// The conservation law for the *closed-loop* source: with retrying
    /// clients feeding back on completions, an arbitrary
    /// loss + duplication + corruption channel, any admission policy
    /// (including weighted-fair with arbitrary weights), either
    /// hand-off flow-control mode, and any retry budget, a drained run
    /// splits `offered` exactly into
    /// `completed + rejected + drops + shed + abandoned` — duplicate
    /// copies the server finishes after the client was acknowledged
    /// land in `abandoned`, never vanish. The channel's own law holds
    /// too: every copy it counts as delivered was handed to the
    /// simulator (its depth-0 channel holds nothing).
    #[test]
    fn closed_loop_conservation_holds_under_impairments(
        cores in 1usize..9,
        clients in 3u32..60,
        dup_pct in 0u32..40,
        corrupt_pct in 0u32..40,
        seed in 1u64..64,
        ldlp in any::<bool>(),
        policy_idx in 0usize..3,
        admission_idx in 0usize..4,
        budget_on in any::<bool>(),
        stall in any::<bool>(),
    ) {
        // Derived, not drawn: the vendored proptest samples tuples of at
        // most ten strategies. Weights span 1..=7 per class and the drop
        // rate 0..=20 % across seeds.
        let weights = [
            1 + (seed % 7) as u32,
            1 + ((seed / 7) % 7) as u32,
            1 + ((seed / 49) % 7) as u32,
        ];
        let drop_prob = ((seed / 3) % 5) as f64 * 0.05;
        let duration_s = 0.02;
        let mut pc = ClosedConfig::new(clients, 0.002, duration_s, seed);
        pc.retry_budget_on = budget_on;
        pc.channel = ImpairConfig {
            drop_prob,
            dup_prob: dup_pct as f64 / 100.0,
            corrupt_prob: corrupt_pct as f64 / 100.0,
            seed: seed ^ 0xc0de,
            ..ImpairConfig::default()
        };
        let mut pop = ClosedPopulation::new(&pc);
        let discipline = if ldlp {
            Discipline::Ldlp(BatchPolicy::DCacheFit)
        } else {
            Discipline::Conventional
        };
        let cfg = SmpConfig {
            duration_s,
            placement_seed: seed,
            admission: admissions()[admission_idx],
            buffer_cap: 64,
            handoff_cap: 4,
            flow_control: if stall {
                HandoffFlowControl::StallProducer
            } else {
                HandoffFlowControl::SizeToFree
            },
            ..SmpConfig::new(cores, policies()[policy_idx], discipline)
        };
        let mut sim = SmpSim::new(&cfg);
        // `run_closed` asserts the full transient-bucket conservation
        // law (queued + parked + unacked) at every drain internally.
        sim.run_closed(&mut pop, weights);
        let out = sim.outcome(pop.channel_counters());
        let r = &out.report;
        let st = pop.stats();
        prop_assert!(r.conservation_holds(), "conservation violated: {r:?}");
        prop_assert_eq!(r.offered, st.offered, "every delivered copy is offered");
        let net = pop.channel_counters();
        prop_assert_eq!(r.offered, net.delivered, "every copy the channel delivered was handed out");
        prop_assert_eq!(st.transmissions, net.offered, "every transmission crossed the channel");
        prop_assert_eq!(st.channel_dropped, net.dropped, "a send handed out nothing iff it was dropped");
        prop_assert_eq!(
            r.offered,
            r.completed + r.rejected + r.drops + r.shed + r.abandoned,
            "a drained closed-loop run leaves nothing in flight"
        );
        prop_assert_eq!(r.completed, st.useful, "completions are exactly useful acks");
        prop_assert!(st.useful <= st.requests, "acks never exceed requests");
        prop_assert_eq!(r.net_dropped, net.dropped);
        prop_assert_eq!(r.net_duplicated, net.duplicated);
        prop_assert_eq!(r.net_corrupted, net.corrupted);
        if corrupt_pct == 0 {
            prop_assert_eq!(r.rejected, 0, "clean runs reject nothing");
        }
        if budget_on {
            prop_assert!(
                st.useful + st.abandoned_requests <= st.requests,
                "every request is acknowledged or abandoned at most once"
            );
        }
        // Per-class accounting covers every shed/dropped packet.
        let by_class: u64 = out.shed_by_class.iter().chain(&out.drops_by_class).sum();
        prop_assert_eq!(by_class, r.shed + r.drops, "per-class loss tallies disagree");
    }
}
