//! The mixed-service dispatch loop: classify, count, route.
//!
//! A multi-protocol box spends its first instructions per message
//! deciding *which* stack a buffer belongs to. This loop does that the
//! way the paper's fast paths do — by peeking fixed-offset leading
//! bytes, never by parsing: framed classes route on the class byte of
//! the [`crate::frame`] envelope, agent traffic on the CBOR map head
//! ([`agent::peek`]), and relay operations go straight to the
//! [`Relay`] without materializing the envelope.
//!
//! This is the `workload-dispatch` hot-path root the analyzer holds to
//! the panic-path, alloc-path, and charge-coverage rules: nothing
//! reachable from [`dispatch_batch`] may panic, allocate without a
//! justified bound, or touch a charged table without costing the walk
//! against the cache model.

use crate::agent::{self, AgentKind, Relay};
use crate::class::WireClass;
use crate::frame;
use cachesim::Machine;
use smp::MAX_WCLASS;

/// Smallest plausible DNS message: the fixed 12-byte header.
const DNS_MIN_LEN: usize = 12;

/// What one [`dispatch_batch`] pass saw and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Messages classified, indexed by class id (index 0 unused).
    pub seen: [u64; MAX_WCLASS],
    /// Buffers no classifier claimed, plus agent buffers whose
    /// envelope peek failed.
    pub malformed: u64,
    /// `RelayPut` envelopes banked (or refused) at the relay.
    pub relay_puts: u64,
    /// `RelayFetch` envelopes that drained a mailbox.
    pub relay_fetches: u64,
    /// Payloads handed back by relay fetches.
    pub relay_delivered: u64,
}

/// Classifies a buffer by its leading bytes, without parsing.
///
/// * [`frame::MAGIC`] first byte → the framed classes, routed on the
///   class byte at offset 2 (only the framed ids are accepted).
/// * `0xa4` (a CBOR 4-entry map head) → [`WireClass::Agent`].
/// * Anything else at least a DNS header long → [`WireClass::Dns`]
///   (DNS is the residual protocol of the mix, as it is on port 53).
pub fn classify(buf: &[u8]) -> Option<WireClass> {
    match buf.first().copied() {
        Some(frame::MAGIC) => match WireClass::from_id(buf.get(2).copied()?) {
            Some(c @ (WireClass::ClientSignal | WireClass::SvcRpc | WireClass::MediaCtl)) => {
                Some(c)
            }
            _ => None,
        },
        Some(0xa4) => Some(WireClass::Agent),
        Some(_) if buf.len() >= DNS_MIN_LEN => Some(WireClass::Dns),
        _ => None,
    }
}

/// Dispatches one batch of received buffers at simulated time `now`.
///
/// Framed and DNS classes are counted and handed on (their handler
/// cost is charged by `smp::SmpSim`'s per-class accounting); agent
/// relay operations execute against `relay`, whose mailbox walks are
/// charged to `machine`. Fetched payloads land in `delivered`, a
/// caller-reused scratch buffer.
// analyze::hot_path(workload-dispatch)
pub fn dispatch_batch(
    bufs: &[Vec<u8>],
    now: u64,
    relay: &mut Relay,
    machine: &mut Machine,
    delivered: &mut Vec<Vec<u8>>,
    stats: &mut DispatchStats,
) {
    for buf in bufs {
        let Some(class) = classify(buf) else {
            stats.malformed += 1;
            continue;
        };
        if let Some(slot) = stats.seen.get_mut(class.index() & (MAX_WCLASS - 1)) {
            *slot += 1;
        }
        if class != WireClass::Agent {
            continue;
        }
        match agent::peek(buf) {
            Some((AgentKind::RelayPut, session, _)) => {
                stats.relay_puts += 1;
                relay.put(session, buf, now, machine);
            }
            Some((AgentKind::RelayFetch, session, _)) => {
                stats.relay_fetches += 1;
                stats.relay_delivered += relay.fetch_into(session, delivered, machine) as u64;
            }
            Some(_) => {}
            None => stats.malformed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentMsg;
    use crate::frame::Frame;
    use cachesim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::synthetic_benchmark())
    }

    #[test]
    fn classify_routes_on_leading_bytes() {
        let framed = Frame::v2(WireClass::MediaCtl, 1, 2, vec![9; 16]).encode();
        assert_eq!(classify(&framed), Some(WireClass::MediaCtl));
        let agent = AgentMsg::control(AgentKind::Hello, 7, 0).encode();
        assert_eq!(classify(&agent), Some(WireClass::Agent));
        let dns = signaling::dns::DnsMessage::query(1, "svc.example").encode();
        assert_eq!(classify(&dns), Some(WireClass::Dns));
        assert_eq!(classify(&[]), None);
        assert_eq!(classify(&[0x01, 0x02]), None, "too short for DNS");
        let mut bad = framed;
        bad[2] = 9;
        assert_eq!(classify(&bad), None, "unframed class id");
    }

    #[test]
    fn batch_counts_classes_and_flags_malformed() {
        let bufs = vec![
            Frame::v2(WireClass::ClientSignal, 1, 1, vec![1]).encode(),
            Frame::v2(WireClass::SvcRpc, 2, 1, vec![2]).encode(),
            Frame::v2(WireClass::SvcRpc, 3, 1, vec![3]).encode(),
            signaling::dns::DnsMessage::query(5, "a.b").encode(),
            vec![0xff, 0x00], // claimed by nobody
        ];
        let mut relay = Relay::new(8, 100);
        let mut m = machine();
        let mut out = Vec::new();
        let mut stats = DispatchStats::default();
        dispatch_batch(&bufs, 0, &mut relay, &mut m, &mut out, &mut stats);
        assert_eq!(stats.seen[WireClass::ClientSignal.index()], 1);
        assert_eq!(stats.seen[WireClass::SvcRpc.index()], 2);
        assert_eq!(stats.seen[WireClass::Dns.index()], 1);
        assert_eq!(stats.malformed, 1);
        assert_eq!(stats.seen.iter().sum::<u64>(), 4);
    }

    #[test]
    fn relay_round_trip_through_dispatch() {
        let dest = 0x5e55_1011u64;
        let put = AgentMsg {
            kind: AgentKind::RelayPut,
            session: dest,
            seq: 1,
            body: b"offline delivery".to_vec(),
        }
        .encode();
        let fetch = AgentMsg::control(AgentKind::RelayFetch, dest, 2).encode();
        let hello = AgentMsg::control(AgentKind::Hello, 1, 0).encode();

        let mut relay = Relay::new(8, 1_000);
        let mut m = machine();
        let mut out = Vec::new();
        let mut stats = DispatchStats::default();
        dispatch_batch(
            &[put.clone(), hello, fetch],
            0,
            &mut relay,
            &mut m,
            &mut out,
            &mut stats,
        );
        assert_eq!(stats.seen[WireClass::Agent.index()], 3);
        assert_eq!((stats.relay_puts, stats.relay_fetches), (1, 1));
        assert_eq!(stats.relay_delivered, 1);
        assert_eq!(out, vec![put], "the banked envelope comes back whole");
        assert_eq!(relay.stats().delivered, 1);
        assert!(m.stats().dcache.accesses() > 0, "relay walks were charged");
    }

    #[test]
    fn corrupt_agent_buffers_are_malformed_not_fatal() {
        // A CBOR-map head with garbage behind it: classify says Agent,
        // peek refuses, nothing panics.
        let mut stats = DispatchStats::default();
        let mut relay = Relay::new(4, 100);
        let mut m = machine();
        let mut out = Vec::new();
        dispatch_batch(
            &[vec![0xa4, 0xff, 0xff], vec![0xa4]],
            0,
            &mut relay,
            &mut m,
            &mut out,
            &mut stats,
        );
        assert_eq!(stats.seen[WireClass::Agent.index()], 2);
        assert_eq!(stats.malformed, 2);
        assert_eq!(relay.stats().stored, 0);
    }
}
