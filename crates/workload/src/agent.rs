//! Agent-to-agent messaging: CBOR envelopes, sessions, acks, and a
//! relay with store-and-forward.
//!
//! The agent class models a fleet of autonomous peers exchanging small
//! request/response messages through a relay, the way agent-messaging
//! protocols layer on top of a datagram substrate:
//!
//! * **Envelope** — every message is one CBOR map
//!   `{0: kind, 1: session, 2: seq, 3: body}` ([`AgentMsg`]). CBOR
//!   buys schema evolution; the fixed key order buys a cheap
//!   fixed-offset [`peek`] for the dispatch fast path.
//! * **Session establishment** — a two-way `Hello`/`HelloAck`
//!   handshake pins the session id both sides tag subsequent traffic
//!   with ([`Session`]). Requests are only accepted on an established
//!   session; responses are acknowledged so the sender can retire its
//!   retransmit state.
//! * **Relay store-and-forward** — peers are not always reachable, so
//!   a [`Relay`] banks `RelayPut` payloads per destination mailbox
//!   (bounded, TTL-expired) and drains them on `RelayFetch`. Mailbox
//!   state lives in a [`netstack::table::OaTable`] and every keyed
//!   operation replays its probe walk into the cache model — the
//!   relay's data working set is simulated, not guessed.

use crate::cbor::{self, CborError, Value};
use cachesim::Machine;
use netstack::table::OaTable;

/// Simulated base address of the relay mailbox table.
pub const RELAY_TABLE_BASE: u64 = 0x3500_0000;
/// Bytes per mailbox slot (key, deadline, queue header).
pub const RELAY_SLOT_BYTES: u64 = 128;
/// Most payloads a mailbox banks before refusing (RFC-style bound: a
/// relay protects itself, never its clients).
pub const MAILBOX_CAP: usize = 16;

/// Envelope kind codes (CBOR key 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AgentKind {
    /// Session open, client → server.
    Hello = 1,
    /// Session accept, server → client.
    HelloAck = 2,
    /// Application request on an established session.
    Request = 3,
    /// Application response.
    Response = 4,
    /// Delivery acknowledgement for a response.
    Ack = 5,
    /// Bank a payload at the relay for a destination session.
    RelayPut = 6,
    /// Drain the caller's mailbox at the relay.
    RelayFetch = 7,
}

impl AgentKind {
    /// Parses a kind code.
    pub fn from_code(code: u64) -> Option<AgentKind> {
        match code {
            1 => Some(AgentKind::Hello),
            2 => Some(AgentKind::HelloAck),
            3 => Some(AgentKind::Request),
            4 => Some(AgentKind::Response),
            5 => Some(AgentKind::Ack),
            6 => Some(AgentKind::RelayPut),
            7 => Some(AgentKind::RelayFetch),
            _ => None,
        }
    }
}

/// Why a buffer failed to parse as an agent envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentError {
    /// Not well-formed CBOR.
    Cbor(CborError),
    /// Well-formed CBOR that is not the envelope schema.
    Schema,
}

impl From<CborError> for AgentError {
    fn from(e: CborError) -> AgentError {
        AgentError::Cbor(e)
    }
}

/// One agent envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentMsg {
    /// What the message does.
    pub kind: AgentKind,
    /// Session id (0 until establishment assigns one).
    pub session: u64,
    /// Per-session sequence number.
    pub seq: u32,
    /// Opaque application body.
    pub body: Vec<u8>,
}

impl AgentMsg {
    /// A bodyless control envelope.
    pub fn control(kind: AgentKind, session: u64, seq: u32) -> AgentMsg {
        AgentMsg {
            kind,
            session,
            seq,
            body: Vec::new(),
        }
    }

    /// Encodes the envelope as its canonical CBOR map.
    pub fn encode(&self) -> Vec<u8> {
        cbor::encode(&Value::Map(vec![
            (Value::U64(0), Value::U64(u64::from(self.kind as u8))),
            (Value::U64(1), Value::U64(self.session)),
            (Value::U64(2), Value::U64(u64::from(self.seq))),
            (Value::U64(3), Value::Bytes(self.body.clone())),
        ]))
    }

    /// Parses and schema-checks an envelope. Strict: exactly the four
    /// known keys, in order, with the right types.
    pub fn decode(buf: &[u8]) -> Result<AgentMsg, AgentError> {
        let Value::Map(entries) = cbor::decode(buf)? else {
            return Err(AgentError::Schema);
        };
        let [(k0, v0), (k1, v1), (k2, v2), (k3, v3)] = entries.as_slice() else {
            return Err(AgentError::Schema);
        };
        let (Value::U64(0), Value::U64(code)) = (k0, v0) else {
            return Err(AgentError::Schema);
        };
        let (Value::U64(1), Value::U64(session)) = (k1, v1) else {
            return Err(AgentError::Schema);
        };
        let (Value::U64(2), Value::U64(seq)) = (k2, v2) else {
            return Err(AgentError::Schema);
        };
        let (Value::U64(3), Value::Bytes(body)) = (k3, v3) else {
            return Err(AgentError::Schema);
        };
        let kind = AgentKind::from_code(*code).ok_or(AgentError::Schema)?;
        let seq = u32::try_from(*seq).map_err(|_| AgentError::Schema)?;
        Ok(AgentMsg {
            kind,
            session: *session,
            seq,
            body: body.clone(),
        })
    }
}

/// Reads `(kind, session, seq)` off an encoded envelope without
/// allocating — the dispatch loop's fast path. Returns `None` for
/// anything that is not a plausible envelope prefix; the slow path
/// ([`AgentMsg::decode`]) gives the real verdict on rejects.
pub fn peek(buf: &[u8]) -> Option<(AgentKind, u64, u32)> {
    let (major, n, mut at) = cbor::parse_head(buf, 0).ok()?;
    if major != 5 || n != 4 {
        return None;
    }
    let mut fields = [0u64; 3];
    for (want_key, slot) in fields.iter_mut().enumerate() {
        let (km, karg, kn) = cbor::parse_head(buf, at).ok()?;
        if km != 0 || karg != want_key as u64 {
            return None;
        }
        at += kn;
        let (vm, varg, vn) = cbor::parse_head(buf, at).ok()?;
        if vm != 0 {
            return None;
        }
        at += vn;
        *slot = varg;
    }
    let [code, session, seq] = fields;
    let kind = AgentKind::from_code(code)?;
    let seq = u32::try_from(seq).ok()?;
    Some((kind, session, seq))
}

/// Client-side session state (RFC-001-style establishment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Nothing sent yet.
    Idle,
    /// `Hello` sent, awaiting `HelloAck`.
    HelloSent,
    /// Handshake complete; requests may flow.
    Established,
}

/// One side of an agent session: handshake, sequencing, ack matching.
#[derive(Debug, Clone)]
pub struct Session {
    /// The session id (proposed by the client, confirmed by the ack).
    pub id: u64,
    phase: SessionPhase,
    next_seq: u32,
    /// Sequence numbers of the requests sent but not yet answered.
    in_flight: Vec<u32>,
}

impl Session {
    /// A fresh, idle session proposing `id`.
    pub fn new(id: u64) -> Session {
        Session {
            id,
            phase: SessionPhase::Idle,
            next_seq: 0,
            in_flight: Vec::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> SessionPhase {
        self.phase
    }

    /// Starts the handshake. Only valid from `Idle`.
    pub fn hello(&mut self) -> Option<AgentMsg> {
        if self.phase != SessionPhase::Idle {
            return None;
        }
        self.phase = SessionPhase::HelloSent;
        self.next_seq = 1;
        Some(AgentMsg::control(AgentKind::Hello, self.id, 0))
    }

    /// Server side: answers a `Hello` with a `HelloAck` echoing the
    /// proposed session id.
    pub fn accept(hello: &AgentMsg) -> Option<AgentMsg> {
        if hello.kind != AgentKind::Hello {
            return None;
        }
        Some(AgentMsg::control(AgentKind::HelloAck, hello.session, 0))
    }

    /// Completes the handshake on a matching `HelloAck`.
    // analyze::allow(dead-surface, reason = "client half of the agent session: no experiment drives a client, and the handshake and exactly-once retirement tests need it")
    pub fn on_hello_ack(&mut self, ack: &AgentMsg) -> bool {
        let ok = self.phase == SessionPhase::HelloSent
            && ack.kind == AgentKind::HelloAck
            && ack.session == self.id;
        if ok {
            self.phase = SessionPhase::Established;
        }
        ok
    }

    /// Emits the next request (established sessions only).
    pub fn request(&mut self, body: Vec<u8>) -> Option<AgentMsg> {
        if self.phase != SessionPhase::Established {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.in_flight.push(seq);
        Some(AgentMsg {
            kind: AgentKind::Request,
            session: self.id,
            seq,
            body,
        })
    }

    /// Handles a response: retires the request it answers and emits the
    /// delivery `Ack` the peer is waiting for. Each request is retired
    /// exactly once: a duplicate response, or one whose `seq` was never
    /// issued, returns `None` and changes nothing.
    // analyze::allow(dead-surface, reason = "client half of the agent session: no experiment drives a client, and the handshake and exactly-once retirement tests need it")
    pub fn on_response(&mut self, resp: &AgentMsg) -> Option<AgentMsg> {
        if self.phase != SessionPhase::Established
            || resp.kind != AgentKind::Response
            || resp.session != self.id
        {
            return None;
        }
        let at = self.in_flight.iter().position(|&seq| seq == resp.seq)?;
        self.in_flight.swap_remove(at);
        Some(AgentMsg::control(AgentKind::Ack, self.id, resp.seq))
    }
}

/// A destination's banked messages at the relay.
#[derive(Debug, Clone)]
pub struct Mailbox {
    /// Cycle at which the whole mailbox expires.
    pub expires_at: u64,
    queued: Vec<Vec<u8>>,
}

/// Lifetime counters for a [`Relay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Payloads banked.
    pub stored: u64,
    /// Payloads drained by fetches.
    pub delivered: u64,
    /// Puts refused by a full mailbox.
    pub refused: u64,
    /// Payloads dropped by TTL expiry.
    pub expired: u64,
}

/// Store-and-forward relay: bounded per-destination mailboxes with TTL
/// expiry, backed by a probe-logged [`OaTable`] so every keyed access
/// is charged against the cache model.
#[derive(Debug)]
pub struct Relay {
    table: OaTable<u64, Mailbox>,
    ttl: u64,
    stats: RelayStats,
}

impl Relay {
    /// A relay pre-sized for `destinations` mailboxes whose contents
    /// expire `ttl` cycles after the last put.
    pub fn new(destinations: usize, ttl: u64) -> Relay {
        Relay {
            table: OaTable::with_capacity(destinations.max(1)),
            ttl: ttl.max(1),
            stats: RelayStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    /// Charges the most recent table probe walk as reads plus one slot
    /// write-back against the cache model.
    fn charge(&mut self, machine: &mut Machine) {
        machine.read_data_probes(RELAY_TABLE_BASE, RELAY_SLOT_BYTES, self.table.last_probes());
        if let Some(&slot) = self.table.last_probes().last() {
            machine.write_data_slot(RELAY_TABLE_BASE, RELAY_SLOT_BYTES, slot);
        }
    }

    /// Banks `payload` for `dest`. Returns `false` (refusing, counted)
    /// when the destination's mailbox is full.
    pub fn put(&mut self, dest: u64, payload: &[u8], now: u64, machine: &mut Machine) -> bool {
        let deadline = now.saturating_add(self.ttl);
        let hit = match self.table.get_mut(&dest) {
            Some(mb) if mb.queued.len() >= MAILBOX_CAP => Some(false),
            Some(mb) => {
                mb.expires_at = deadline;
                // analyze::allow(alloc-path, reason = "store-and-forward copy is bounded by MAILBOX_CAP payloads per mailbox")
                mb.queued.push(payload.to_vec());
                Some(true)
            }
            None => None,
        };
        self.charge(machine);
        match hit {
            Some(true) => {
                self.stats.stored += 1;
                true
            }
            Some(false) => {
                self.stats.refused += 1;
                false
            }
            None => {
                // analyze::allow(alloc-path, reason = "mailbox table is pre-sized for the destination population; insert writes in place")
                self.table.insert(
                    dest,
                    Mailbox {
                        expires_at: deadline,
                        // analyze::allow(alloc-path, reason = "store-and-forward copy is bounded by MAILBOX_CAP payloads per mailbox")
                        queued: vec![payload.to_vec()],
                    },
                );
                self.charge(machine);
                self.stats.stored += 1;
                true
            }
        }
    }

    /// Drains `dest`'s mailbox into `out`, returning how many payloads
    /// were delivered. The emptied mailbox stays banked (its slot is
    /// warm) until the TTL reaps it.
    pub fn fetch_into(
        &mut self,
        dest: u64,
        out: &mut Vec<Vec<u8>>,
        machine: &mut Machine,
    ) -> usize {
        let drained = match self.table.get_mut(&dest) {
            Some(mb) => {
                let n = mb.queued.len();
                // analyze::allow(alloc-path, reason = "delivery moves already-allocated payloads; out is the caller's reused scratch buffer")
                out.append(&mut mb.queued);
                n
            }
            None => 0,
        };
        self.charge(machine);
        self.stats.delivered += drained as u64;
        drained
    }

    /// Reaps every mailbox whose deadline has passed, returning how
    /// many payloads were dropped. Bulk maintenance, run outside the
    /// per-message path (cf. [`OaTable::retain`]'s probe-log contract).
    pub fn expire(&mut self, now: u64) -> usize {
        let mut dropped = 0usize;
        // analyze::allow(charge-coverage, reason = "TTL reaping is bulk maintenance outside the measured window; per-message mailbox costs are charged at put/fetch")
        self.table.retain(|_, mb| {
            if mb.expires_at < now {
                dropped += mb.queued.len();
                false
            } else {
                true
            }
        });
        self.stats.expired += dropped as u64;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::synthetic_benchmark())
    }

    #[test]
    fn envelope_round_trips_and_peek_agrees() {
        let m = AgentMsg {
            kind: AgentKind::Request,
            session: 0x00c0_ffee,
            seq: 41,
            body: b"get /calendar".to_vec(),
        };
        let bytes = m.encode();
        assert_eq!(AgentMsg::decode(&bytes), Ok(m.clone()));
        assert_eq!(peek(&bytes), Some((AgentKind::Request, 0x00c0_ffee, 41)));
    }

    #[test]
    fn schema_violations_reject() {
        // Wrong root type.
        assert_eq!(
            AgentMsg::decode(&cbor::encode(&Value::U64(5))),
            Err(AgentError::Schema)
        );
        // Unknown kind code.
        let bad = cbor::encode(&Value::Map(vec![
            (Value::U64(0), Value::U64(99)),
            (Value::U64(1), Value::U64(1)),
            (Value::U64(2), Value::U64(0)),
            (Value::U64(3), Value::Bytes(Vec::new())),
        ]));
        assert_eq!(AgentMsg::decode(&bad), Err(AgentError::Schema));
        assert_eq!(peek(&bad), None);
        // Truncation surfaces the CBOR error, not a panic.
        let good = AgentMsg::control(AgentKind::Ack, 1, 2).encode();
        for cut in 0..good.len() {
            assert!(AgentMsg::decode(&good[..cut]).is_err());
        }
    }

    #[test]
    fn handshake_then_request_response_ack() {
        let mut client = Session::new(7001);
        assert_eq!(client.request(vec![1]), None, "no requests before establishment");
        let hello = client.hello().unwrap();
        assert_eq!(client.hello(), None, "hello is one-shot");
        let ack = Session::accept(&hello).unwrap();
        assert!(client.on_hello_ack(&ack));
        assert_eq!(client.phase(), SessionPhase::Established);

        let req = client.request(b"sum 1 2".to_vec()).unwrap();
        assert_eq!((req.kind, req.session, req.seq), (AgentKind::Request, 7001, 1));
        assert_eq!(client.in_flight.len(), 1);
        let resp = AgentMsg {
            kind: AgentKind::Response,
            session: 7001,
            seq: req.seq,
            body: b"3".to_vec(),
        };
        let delivery_ack = client.on_response(&resp).unwrap();
        assert_eq!(delivery_ack.kind, AgentKind::Ack);
        assert_eq!(client.in_flight.len(), 0);
        assert_eq!(client.on_response(&resp), None, "nothing left to ack");
    }

    #[test]
    fn a_response_retires_its_own_request_exactly_once() {
        let mut client = Session::new(9);
        let hello = client.hello().unwrap();
        assert!(client.on_hello_ack(&Session::accept(&hello).unwrap()));
        let first = client.request(b"a".to_vec()).unwrap();
        let second = client.request(b"b".to_vec()).unwrap();
        let response = |seq| AgentMsg {
            kind: AgentKind::Response,
            session: 9,
            seq,
            body: Vec::new(),
        };
        // Response 1 arrives twice: the copy changes nothing.
        assert!(client.on_response(&response(first.seq)).is_some());
        assert_eq!(client.on_response(&response(first.seq)), None, "duplicate response");
        assert_eq!(client.in_flight.len(), 1, "request 2 is still in flight");
        // A seq that was never issued is refused too.
        assert_eq!(client.on_response(&response(second.seq + 1)), None, "unknown seq");
        // The real Response 2 still gets its Ack.
        let ack = client.on_response(&response(second.seq)).unwrap();
        assert_eq!((ack.kind, ack.seq), (AgentKind::Ack, second.seq));
        assert_eq!(client.in_flight.len(), 0);
    }

    #[test]
    fn mismatched_hello_ack_is_ignored() {
        let mut client = Session::new(1);
        client.hello();
        let wrong = AgentMsg::control(AgentKind::HelloAck, 2, 0);
        assert!(!client.on_hello_ack(&wrong));
        assert_eq!(client.phase(), SessionPhase::HelloSent);
    }

    #[test]
    fn relay_banks_bounds_and_delivers() {
        let mut relay = Relay::new(64, 1_000);
        let mut m = machine();
        for i in 0..MAILBOX_CAP {
            assert!(relay.put(42, &[i as u8], 0, &mut m));
        }
        assert!(!relay.put(42, &[0xff], 0, &mut m), "mailbox cap refuses");
        assert_eq!(relay.stats().refused, 1);
        let mut out = Vec::new();
        assert_eq!(relay.fetch_into(42, &mut out, &mut m), MAILBOX_CAP);
        assert_eq!(out.len(), MAILBOX_CAP);
        assert_eq!(out.first().map(Vec::as_slice), Some(&[0u8][..]));
        assert_eq!(relay.fetch_into(42, &mut out, &mut m), 0, "drained");
        assert_eq!(relay.fetch_into(999, &mut out, &mut m), 0, "unknown dest");
        assert!(m.stats().dcache.accesses() > 0, "mailbox walks were charged");
    }

    #[test]
    fn relay_ttl_expiry_reaps_whole_mailboxes() {
        let mut relay = Relay::new(8, 100);
        let mut m = machine();
        relay.put(1, b"a", 0, &mut m);
        relay.put(1, b"b", 0, &mut m);
        relay.put(2, b"c", 50, &mut m);
        assert_eq!(relay.expire(100), 0, "deadline not passed yet");
        assert_eq!(relay.expire(101), 2, "dest 1's mailbox reaped whole");
        assert_eq!(relay.stats().expired, 2);
        let mut out = Vec::new();
        assert_eq!(relay.fetch_into(1, &mut out, &mut m), 0);
        assert_eq!(relay.fetch_into(2, &mut out, &mut m), 1);
        assert_eq!(relay.stats().expired, 2);
    }
}
