//! Property tests for the mixed-workload subsystem.
//!
//! * Framing: every (version, class, flags, seq, session, payload)
//!   combination round-trips bit-exactly; corrupted and truncated
//!   buffers are rejected, never panic, and v2's checksum catches
//!   every payload flip.
//! * CBOR: bounded arbitrary documents round-trip canonically and
//!   every strict prefix of an encoding is rejected (the impairment
//!   path feeds exactly such damage).
//! * Agent envelopes: decode/encode round-trip, and the alloc-free
//!   dispatch peek agrees with the full decoder wherever the decoder
//!   accepts.
//! * Relay: under any sequence of puts, fetches and TTL sweeps the
//!   store-and-forward books close and no mailbox outgrows its cap.
//! * Mixed stream: generation is a pure function of its config, and
//!   the per-class conservation law holds through the multi-core
//!   simulator for every class, policy, and discipline.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use workload::cbor::{self, Value};
use workload::agent::MAILBOX_CAP;
use workload::{
    class_counts, generate, profiles, to_flow_arrivals, AgentKind, AgentMsg, Frame, FrameVersion,
    MixConfig, Relay, WireClass,
};

use cachesim::{Machine, MachineConfig};

use ldlp::{BatchPolicy, Discipline};
use smp::{run_smp, DispatchPolicy, SmpConfig};

const FRAMED: [WireClass; 3] = [
    WireClass::ClientSignal,
    WireClass::SvcRpc,
    WireClass::MediaCtl,
];

/// A bounded, deterministic CBOR document: spends `budget` nodes
/// breadth-first so depth stays within the codec's limit.
fn tree_from_seed(seed: u64, budget: usize) -> Value {
    fn node(rng: &mut StdRng, budget: &mut usize, depth: usize) -> Value {
        if *budget > 0 {
            *budget -= 1;
        }
        let leaf_only = depth >= 4 || *budget == 0;
        match rng.random_range(0..if leaf_only { 6u32 } else { 8u32 }) {
            0 => Value::U64(rng.random::<u64>()),
            1 => Value::Neg(rng.random::<u64>()),
            2 => Value::Bool(rng.random::<u64>() % 2 == 0),
            3 => Value::Null,
            4 => {
                let n = rng.random_range(0usize..40);
                Value::Bytes((0..n).map(|_| rng.random::<u64>() as u8).collect())
            }
            5 => {
                let n = rng.random_range(0usize..12);
                Value::Text((0..n).map(|_| char::from(rng.random_range(32u8..127))).collect())
            }
            6 => {
                let n = rng.random_range(0usize..4).min(*budget);
                Value::Array((0..n).map(|_| node(rng, budget, depth + 1)).collect())
            }
            _ => {
                let n = rng.random_range(0usize..3).min(*budget);
                Value::Map(
                    (0..n)
                        .map(|_| {
                            (
                                Value::U64(rng.random::<u64>()),
                                node(rng, budget, depth + 1),
                            )
                        })
                        .collect(),
                )
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut budget = budget.max(1);
    node(&mut rng, &mut budget, 0)
}

proptest! {
    /// Both frame versions round-trip every field combination for
    /// every framed class.
    #[test]
    fn frames_round_trip(
        v2 in any::<bool>(),
        class_idx in 0usize..3,
        flags in any::<u8>(),
        seq in any::<u32>(),
        session in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let f = Frame {
            version: if v2 { FrameVersion::V2 } else { FrameVersion::V1 },
            class: FRAMED[class_idx],
            flags,
            seq,
            // v1 has no session field on the wire; it decodes as 0.
            session: if v2 { session } else { 0 },
            payload,
        };
        let bytes = f.encode();
        prop_assert_eq!(bytes.len(), f.encoded_len());
        prop_assert_eq!(Frame::decode(&bytes), Ok(f));
    }

    /// Damage never panics; a v2 payload flip is always caught; every
    /// strict prefix is rejected.
    #[test]
    fn frame_damage_is_rejected_not_fatal(
        class_idx in 0usize..3,
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        flip_at in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let f = Frame::v2(FRAMED[class_idx], 7, 0x5e55, payload);
        let good = f.encode();

        // Any single-bit flip anywhere: decode returns, never panics.
        let at = flip_at as usize % good.len();
        let mut bent = good.clone();
        bent[at] ^= 1 << flip_bit;
        let _ = Frame::decode(&bent);

        // A flip inside the payload is always caught by the checksum.
        let pay_at = workload::frame::V2_HEADER_LEN + (at % f.payload.len());
        let mut bent = good.clone();
        bent[pay_at] ^= 1 << flip_bit;
        prop_assert!(Frame::decode(&bent).is_err(), "payload damage slipped through");

        for cut in 0..good.len() {
            prop_assert!(Frame::decode(&good[..cut]).is_err(), "prefix {} parsed", cut);
        }
    }

    /// Arbitrary bounded CBOR documents round-trip canonically, and
    /// truncation at any point is rejected.
    #[test]
    fn cbor_documents_round_trip_and_prefixes_reject(
        seed in any::<u64>(),
        budget in 1usize..24,
    ) {
        let doc = tree_from_seed(seed, budget);
        let bytes = cbor::encode(&doc);
        prop_assert_eq!(cbor::decode(&bytes), Ok(doc));
        for cut in 0..bytes.len() {
            prop_assert!(cbor::decode(&bytes[..cut]).is_err(), "prefix {} parsed", cut);
        }
    }

    /// Agent envelopes round-trip, and wherever the strict decoder
    /// accepts a buffer the alloc-free peek must agree with it.
    #[test]
    fn agent_envelopes_round_trip_and_peek_agrees(
        kind_code in 1u64..8,
        session in any::<u64>(),
        seq in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..120),
        corrupt_at in any::<u16>(),
    ) {
        let msg = AgentMsg {
            kind: AgentKind::from_code(kind_code).unwrap(),
            session,
            seq,
            body,
        };
        let bytes = msg.encode();
        prop_assert_eq!(AgentMsg::decode(&bytes), Ok(msg.clone()));
        prop_assert_eq!(
            workload::agent::peek(&bytes),
            Some((msg.kind, msg.session, msg.seq))
        );

        // Corrupt one byte: decode may accept or reject, but whenever
        // it accepts, peek reports the same leading fields.
        let mut bent = bytes.clone();
        let at = corrupt_at as usize % bent.len();
        bent[at] ^= 0x3d;
        if let Ok(d) = AgentMsg::decode(&bent) {
            prop_assert_eq!(workload::agent::peek(&bent), Some((d.kind, d.session, d.seq)));
        }
        for cut in 0..bytes.len() {
            prop_assert!(AgentMsg::decode(&bytes[..cut]).is_err());
        }
    }

    /// The relay's store-and-forward books close under any sequence of
    /// puts (three in four ops, so mailboxes fill), fetches and TTL
    /// sweeps: every put is stored or refused and counted once either
    /// way, no mailbox banks more than `MAILBOX_CAP`, and
    /// `stored == delivered + expired + still banked`, where still
    /// banked is what a final drain of every destination returns.
    #[test]
    fn relay_books_close_under_put_fetch_expire(
        ops in proptest::collection::vec((0u32..16, 0u64..3, 0u64..10), 1..400),
        ttl in 1u64..120,
    ) {
        let mut relay = Relay::new(4, ttl);
        let mut m = Machine::new(MachineConfig::synthetic_benchmark());
        let mut out = Vec::new();
        let mut now = 0u64;
        for (op, dest, dt) in ops {
            now += dt;
            let before = relay.stats();
            match op {
                0..12 => {
                    let stored = relay.put(dest, &[op as u8], now, &mut m);
                    let after = relay.stats();
                    prop_assert_eq!(
                        (after.stored - before.stored, after.refused - before.refused),
                        if stored { (1, 0) } else { (0, 1) }
                    );
                }
                12..14 => {
                    out.clear();
                    let n = relay.fetch_into(dest, &mut out, &mut m);
                    prop_assert!(n <= MAILBOX_CAP, "a mailbox banked {n}");
                    prop_assert_eq!(n, out.len());
                    prop_assert_eq!(relay.stats().delivered - before.delivered, n as u64);
                }
                _ => {
                    let n = relay.expire(now);
                    prop_assert_eq!(relay.stats().expired - before.expired, n as u64);
                }
            }
        }
        let st = relay.stats();
        let mut banked = 0u64;
        for dest in 0..3 {
            out.clear();
            let n = relay.fetch_into(dest, &mut out, &mut m);
            prop_assert!(n <= MAILBOX_CAP, "a mailbox banked {n}");
            banked += n as u64;
        }
        prop_assert_eq!(st.stored, st.delivered + st.expired + banked);
    }

    /// The generator is a pure function of its config, and the class
    /// draw is independent of earlier sizes (fixed draw budget): two
    /// configs differing only in seed give different streams, the same
    /// config twice gives the same stream.
    #[test]
    fn mixed_stream_is_deterministic(
        seed in 1u64..10_000,
        rate in 5_000u32..40_000,
    ) {
        let cfg = MixConfig::service_mix(rate as f64, 0.05, seed);
        let a = generate(&cfg);
        prop_assert_eq!(&a, &generate(&cfg));
        prop_assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        let other = MixConfig::service_mix(rate as f64, 0.05, seed ^ 0xffff);
        prop_assert_ne!(a, generate(&other));
    }

    /// Per-class conservation through the multi-core simulator: every
    /// class's offered count equals what the generator emitted for it,
    /// and each class's buckets close exactly — for every dispatch
    /// policy and both disciplines.
    #[test]
    fn per_class_conservation_holds_through_the_simulator(
        seed in 1u64..64,
        cores in 1usize..5,
        ldlp in any::<bool>(),
        policy_idx in 0usize..3,
    ) {
        let duration_s = 0.01;
        let mix = MixConfig::service_mix(25_000.0, duration_s, seed);
        let stream = generate(&mix);
        let counts = class_counts(&stream);
        let arrivals = to_flow_arrivals(&stream, 64, seed);
        let policies = [
            DispatchPolicy::FlowHash,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LayerAffinity,
        ];
        let discipline = if ldlp {
            Discipline::Ldlp(BatchPolicy::DCacheFit)
        } else {
            Discipline::Conventional
        };
        let cfg = SmpConfig {
            duration_s,
            placement_seed: seed,
            wclass: profiles(),
            ..SmpConfig::new(cores, policies[policy_idx], discipline)
        };
        let out = run_smp(&cfg, &arrivals);
        prop_assert!(out.report.conservation_holds());
        prop_assert_eq!(out.report.offered, arrivals.len() as u64);
        let mut tagged_total = 0u64;
        for c in WireClass::ALL {
            let Some(r) = out.classes.get(c.index()) else {
                prop_assert!(false, "missing class report for {:?}", c);
                continue;
            };
            prop_assert_eq!(
                r.offered, counts[c.index()],
                "{:?} offered mismatch", c
            );
            prop_assert_eq!(
                r.offered,
                r.completed + r.rejected + r.drops + r.shed,
                "{:?} buckets do not close", c
            );
            tagged_total += r.completed + r.rejected + r.drops + r.shed;
        }
        prop_assert_eq!(
            tagged_total, out.report.offered,
            "class tallies must cover the whole stream"
        );
    }
}
