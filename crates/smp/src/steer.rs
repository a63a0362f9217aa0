//! Flow identity and packet-to-core dispatch.
//!
//! The paper's traffic model ([`simnet::traffic`]) knows arrival times
//! and sizes but not *flows*; a multi-core NIC steers by flow, so this
//! module synthesizes a deterministic flow population and three
//! dispatch policies:
//!
//! * **FlowHash** — RSS: a deterministic hash of the 5-tuple picks the
//!   core. Every packet of a flow lands on the same core, so per-flow
//!   protocol state stays core-local (RDCA's "steer into the right
//!   cache" premise).
//! * **RoundRobin** — naive parallelism: flows are assigned to cores in
//!   first-seen order. Still flow-affine (per-*packet* round-robin would
//!   break protocol state locality entirely), but blind to what each
//!   core's caches hold: every core ends up running the whole ~30 KB
//!   stack.
//! * **LayerAffinity** — LDLP-aware software pipelining: every packet
//!   enters at stage 0 and the *stack* is partitioned across cores
//!   (see [`ldlp::stage_partition`]), so each core's I-cache stays hot
//!   on its one-or-two layers while batches flow through bounded
//!   hand-off queues.
//!
//! Everything here is pure arithmetic on seeds: steering is
//! deterministic and seed-stable by construction (pinned by the
//! property tests in `tests/properties.rs`).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simnet::{Arrival, Payload};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;

/// How arrivals are dispatched to cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// RSS-style deterministic 5-tuple hash.
    FlowHash,
    /// Flows assigned to cores in first-seen order.
    RoundRobin,
    /// All packets enter stage 0; layers are pinned to cores.
    LayerAffinity,
}

impl DispatchPolicy {
    /// Short CSV-friendly label.
    pub fn label(&self) -> &'static str {
        match self {
            DispatchPolicy::FlowHash => "hash",
            DispatchPolicy::RoundRobin => "rr",
            DispatchPolicy::LayerAffinity => "aff",
        }
    }
}

/// A connection 5-tuple in the simulated address plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol number.
    pub proto: u8,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FlowKey {
    /// Deterministically synthesizes the 5-tuple of flow `flow_id` in
    /// the population seeded by `seed`. Same inputs, same tuple —
    /// always.
    pub fn synth(flow_id: u32, seed: u64) -> FlowKey {
        let bits = splitmix(seed ^ ((flow_id as u64) << 20) ^ 0x5f10_77ab);
        FlowKey {
            src_ip: 0x0a00_0000 | (bits as u32 & 0x00ff_ffff),
            dst_ip: 0x0a80_0000 | ((bits >> 24) as u32 & 0x00ff_ffff),
            src_port: 1024 + ((bits >> 48) as u16 % 50_000),
            dst_port: 9,
            proto: 6,
        }
    }

    /// RSS hash over the 5-tuple: FNV-1a over the 13 tuple bytes. Not
    /// Toeplitz, but the property RSS needs — deterministic and well
    /// mixed — holds.
    pub fn rss_hash(&self) -> u32 {
        let mut h: u32 = 0x811c_9dc5;
        let mut step = |b: u8| {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        };
        for b in self.src_ip.to_be_bytes() {
            step(b);
        }
        for b in self.dst_ip.to_be_bytes() {
            step(b);
        }
        for b in self.src_port.to_be_bytes() {
            step(b);
        }
        for b in self.dst_port.to_be_bytes() {
            step(b);
        }
        step(self.proto);
        h
    }
}

/// An arrival tagged with its flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowArrival {
    /// Arrival time in seconds.
    pub time_s: f64,
    /// Message size in bytes.
    pub bytes: u32,
    /// Damaged on the wire (rejected at the verify layer).
    pub corrupted: bool,
    /// Index of the flow within the synthesized population.
    pub flow_id: u32,
    /// The flow's 5-tuple.
    pub key: FlowKey,
    /// Workload message class (0 = untagged legacy traffic; nonzero
    /// indices are defined by `crates/workload`). Rides through the
    /// pipeline so per-class accounting can attribute completions.
    pub wclass: u8,
}

/// An impairment channel carries a tagged arrival like a plain one:
/// damage sets its flag and a release restamps its time. The flow
/// rides along, so a duplicated or reordered copy is steered and
/// charged as the packet it copies.
impl Payload for FlowArrival {
    fn corrupt(&mut self) {
        self.corrupted = true;
    }
    fn restamp(&mut self, by: &Self) {
        self.time_s = by.time_s;
    }
}

/// Tags each arrival with a flow drawn uniformly from a population of
/// `flows` synthesized flows (one draw per arrival). Deterministic per
/// `seed`. Tag before impairing, so copies keep their packet's flow.
pub fn tag_flows(arrivals: &[Arrival], flows: u32, seed: u64) -> Vec<FlowArrival> {
    let flows = flows.max(1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00f7_0e15);
    arrivals
        .iter()
        .map(|a| {
            let flow_id = rng.random_range(0..flows);
            FlowArrival {
                time_s: a.time_s,
                bytes: a.bytes,
                corrupted: a.corrupted,
                flow_id,
                key: FlowKey::synth(flow_id, seed),
                wclass: 0,
            }
        })
        .collect()
}

/// Stateful packet-to-entry-core dispatcher.
#[derive(Debug, Clone)]
pub struct Steerer {
    policy: DispatchPolicy,
    core_count: NonZeroUsize,
    assigned: BTreeMap<FlowKey, usize>,
    next_rr: usize,
}

impl Steerer {
    /// A dispatcher over `cores` cores (must be > 0).
    pub fn new(policy: DispatchPolicy, cores: usize) -> Self {
        assert!(cores > 0, "steering needs at least one core");
        Steerer {
            policy,
            core_count: NonZeroUsize::new(cores).unwrap_or(NonZeroUsize::MIN),
            assigned: BTreeMap::new(),
            next_rr: 0,
        }
    }

    /// The entry core for a packet of `flow`. Pure for FlowHash and
    /// LayerAffinity; for RoundRobin the first packet of a flow claims
    /// the next core and the mapping is remembered.
    pub fn core_for(&mut self, flow: &FlowKey) -> usize {
        match self.policy {
            DispatchPolicy::FlowHash => flow.rss_hash() as usize % self.core_count,
            DispatchPolicy::LayerAffinity => 0,
            DispatchPolicy::RoundRobin => {
                if let Some(&core) = self.assigned.get(flow) {
                    core
                } else {
                    let core = self.next_rr % self.core_count;
                    self.next_rr += 1;
                    // analyze::allow(alloc-path, reason = "per-flow steering entry inserted on first sight of a flow; bounded by the flow population")
                    self.assigned.insert(*flow, core);
                    core
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_deterministic_and_seed_sensitive() {
        let a = FlowKey::synth(7, 42);
        assert_eq!(a, FlowKey::synth(7, 42));
        assert_ne!(a, FlowKey::synth(7, 43));
        assert_ne!(a, FlowKey::synth(8, 42));
        assert_eq!(a.rss_hash(), FlowKey::synth(7, 42).rss_hash());
    }

    #[test]
    fn round_robin_is_flow_affine_and_balanced() {
        let mut s = Steerer::new(DispatchPolicy::RoundRobin, 4);
        let keys: Vec<FlowKey> = (0..8).map(|i| FlowKey::synth(i, 1)).collect();
        let first: Vec<usize> = keys.iter().map(|k| s.core_for(k)).collect();
        assert_eq!(first, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Re-asking in any order returns the remembered assignment.
        for (i, k) in keys.iter().enumerate().rev() {
            assert_eq!(s.core_for(k), first[i]);
        }
    }

    #[test]
    fn layer_affinity_enters_at_stage_zero() {
        let mut s = Steerer::new(DispatchPolicy::LayerAffinity, 8);
        for i in 0..32 {
            assert_eq!(s.core_for(&FlowKey::synth(i, 9)), 0);
        }
    }

    #[test]
    fn tagging_is_deterministic_and_in_population() {
        let arrivals: Vec<Arrival> = (0..100)
            .map(|i| Arrival {
                time_s: i as f64 * 1e-4,
                bytes: 552,
                corrupted: false,
            })
            .collect();
        let a = tag_flows(&arrivals, 16, 5);
        let b = tag_flows(&arrivals, 16, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|f| f.flow_id < 16));
        // More than one flow actually shows up.
        let distinct: std::collections::BTreeSet<u32> = a.iter().map(|f| f.flow_id).collect();
        assert!(distinct.len() > 4);
    }
}
