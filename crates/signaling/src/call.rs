//! Call-control state machines.
//!
//! [`SignalingSwitch`] is the network side the paper worries about: an ATM
//! switch on the path of a connection, processing each SETUP/RELEASE in a
//! few tens of microseconds if it is to support thousands of call
//! attempts per second. [`Caller`] is a user side for tests and traffic
//! generation.

use crate::wire::{Cause, InfoElement, Message, MessageType};
use netstack::table::OaTable;
use std::collections::BTreeMap;

/// Call states (a condensed Q.2931 state set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallState {
    /// CONNECT sent, awaiting CONNECT ACK.
    ConnectRequest,
    /// The call is up.
    Active,
}

/// One call's record in the switch.
#[derive(Debug, Clone)]
struct Call {
    state: CallState,
}

/// Switch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    pub setups: u64,
    pub connects: u64,
    pub releases: u64,
    pub rejected: u64,
    pub protocol_errors: u64,
}

/// Simulated footprint of one VC-table entry, for the SMP shared-state
/// cost model (`crates/smp`): the call table is mutable state shared by
/// every core that handles signaling messages, so each per-message
/// state-machine step goes through the shared L2 with coherence
/// accounting. One entry ≈ call state + VCI map — two 32-byte lines.
pub const CALL_SLOT_BYTES: u64 = 64;
/// Simulated VC-table capacity used by the SMP model (a modest switch
/// port; the in-memory [`SignalingSwitch`] capacity is per-instance).
pub const CALL_TABLE_SLOTS: u64 = 64;

/// The network-side call controller of one switch port.
///
/// The call table is an open-addressing map (`netstack::table`): at the
/// million-call populations `figure10` simulates, a per-message tree
/// walk would under-report the data working set. All uses here are
/// point lookups, so the switch behaves identically to the old
/// `BTreeMap` form.
#[derive(Debug)]
pub struct SignalingSwitch {
    calls: OaTable<u32, Call>,
    stats: SwitchStats,
    next_vci: u16,
    /// Maximum simultaneous calls (VC table capacity).
    capacity: usize,
}

impl SignalingSwitch {
    /// A switch port able to hold `capacity` simultaneous calls.
    pub fn new(capacity: usize) -> Self {
        SignalingSwitch {
            calls: OaTable::with_capacity(capacity.min(1 << 20)),
            stats: SwitchStats::default(),
            next_vci: 32, // VCIs below 32 are reserved
            capacity,
        }
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Number of calls currently in the table.
    pub fn active_calls(&self) -> usize {
        self.calls.len()
    }

    fn alloc_vci(&mut self) -> u16 {
        let v = self.next_vci;
        self.next_vci = if self.next_vci == u16::MAX {
            32
        } else {
            self.next_vci + 1
        };
        v
    }

    /// Processes one incoming message, returning the replies to send.
    ///
    /// SETUP is answered with CALL PROCEEDING and then CONNECT carrying
    /// the allocated VPI/VCI (this switch model answers for the callee,
    /// like a switch terminating the call on a local port). RELEASE is
    /// answered with RELEASE COMPLETE. Messages for unknown calls get
    /// RELEASE COMPLETE with cause "invalid call reference", per Q.2931
    /// §5.6.
    // analyze::hot_path(signaling-call-path, rules = "panic-path")
    pub fn handle(&mut self, msg: &Message) -> Vec<Message> {
        match msg.kind {
            MessageType::Setup => {
                self.stats.setups += 1;
                if self.calls.contains_key(&msg.call_ref) {
                    self.stats.protocol_errors += 1;
                    return vec![Message::new(msg.call_ref, MessageType::Status)
                        .with(InfoElement::Cause(Cause::InvalidCallReference))];
                }
                if self.calls.len() >= self.capacity {
                    self.stats.rejected += 1;
                    return vec![Message::new(msg.call_ref, MessageType::ReleaseComplete)
                        .with(InfoElement::Cause(Cause::ResourceUnavailable))];
                }
                let vci = self.alloc_vci();
                self.calls.insert(
                    msg.call_ref,
                    Call {
                        state: CallState::ConnectRequest,
                    },
                );
                self.stats.connects += 1;
                vec![
                    Message::new(msg.call_ref, MessageType::CallProceeding),
                    Message::new(msg.call_ref, MessageType::Connect)
                        .with(InfoElement::ConnectionId { vpi: 0, vci }),
                ]
            }
            MessageType::ConnectAck => match self.calls.get_mut(&msg.call_ref) {
                Some(call) if call.state == CallState::ConnectRequest => {
                    call.state = CallState::Active;
                    vec![]
                }
                _ => {
                    self.stats.protocol_errors += 1;
                    vec![Message::new(msg.call_ref, MessageType::Status)
                        .with(InfoElement::Cause(Cause::InvalidCallReference))]
                }
            },
            MessageType::Release => {
                self.stats.releases += 1;
                match self.calls.remove(&msg.call_ref) {
                    Some(_) => vec![Message::new(msg.call_ref, MessageType::ReleaseComplete)
                        .with(InfoElement::Cause(
                            msg.cause().unwrap_or(Cause::NormalClearing),
                        ))],
                    None => {
                        self.stats.protocol_errors += 1;
                        vec![Message::new(msg.call_ref, MessageType::ReleaseComplete)
                            .with(InfoElement::Cause(Cause::InvalidCallReference))]
                    }
                }
            }
            MessageType::ReleaseComplete => {
                // Clears any lingering state; no reply (Q.2931 §5.4).
                self.calls.remove(&msg.call_ref);
                vec![]
            }
            MessageType::CallProceeding | MessageType::Connect | MessageType::Status => {
                // Network side does not expect these from the user.
                self.stats.protocol_errors += 1;
                vec![]
            }
        }
    }
}

/// Call references are 24 bits on the wire (Q.2931); the all-zero
/// value is reserved for the global call reference and is never
/// assigned to a call.
pub const CALL_REF_MASK: u32 = 0x00ff_ffff;

/// User-side endpoint: originates calls, consumes responses.
#[derive(Debug, Default)]
pub struct Caller {
    next_ref: u32,
    /// Calls we believe are up, with their assigned VPI/VCI. Kept as a
    /// `BTreeMap`: [`Caller::release`] with no explicit ref tears down
    /// the *oldest* (smallest) ref, so ordered iteration is load-bearing.
    active: BTreeMap<u32, (u16, u16)>,
}

impl Caller {
    /// A fresh caller.
    pub fn new() -> Self {
        Self::starting_at(1)
    }

    /// A caller whose first SETUP uses `next_ref` (masked to 24 bits;
    /// the reserved value 0 becomes 1). Lets tests drive the counter
    /// across the 2^24 wrap without 16M warm-up calls.
    pub fn starting_at(next_ref: u32) -> Self {
        Caller {
            next_ref: (next_ref & CALL_REF_MASK).max(1),
            active: BTreeMap::new(),
        }
    }

    /// Builds the next SETUP message.
    ///
    /// The ref counter wraps at 24 bits: mask *first*, then clamp away
    /// the reserved global ref 0 (the old order, `.max(1)` before the
    /// mask, emitted ref 0 right after the wrap), and skip refs that
    /// still have live state so a long-lived call's ref is never
    /// reissued. Bounded: at most `active.len() + 1` candidates are
    /// probed, since the live set cannot cover them all.
    pub fn setup(&mut self) -> Message {
        let mut call_ref = (self.next_ref & CALL_REF_MASK).max(1);
        let mut candidates = self.active.len() + 1;
        while candidates > 0 && self.active.contains_key(&call_ref) {
            call_ref = (call_ref.wrapping_add(1) & CALL_REF_MASK).max(1);
            candidates -= 1;
        }
        self.next_ref = (call_ref.wrapping_add(1) & CALL_REF_MASK).max(1);
        crate::wire::sample_setup(call_ref)
    }

    /// Builds a RELEASE for an active call (the oldest, if `call_ref` is
    /// `None`).
    pub fn release(&mut self, call_ref: Option<u32>) -> Option<Message> {
        let cr = call_ref.or_else(|| self.active.keys().next().copied())?;
        self.active.remove(&cr);
        Some(
            Message::new(cr, MessageType::Release)
                .with(InfoElement::Cause(Cause::NormalClearing)),
        )
    }

    /// Consumes a response from the network; returns the CONNECT ACK to
    /// send when the call completes.
    pub fn handle(&mut self, msg: &Message) -> Option<Message> {
        match msg.kind {
            MessageType::Connect => {
                let id = msg.connection_id().unwrap_or((0, 0));
                self.active.insert(msg.call_ref, id);
                Some(Message::new(msg.call_ref, MessageType::ConnectAck))
            }
            _ => None,
        }
    }

    /// Number of calls the caller believes are up.
    pub fn active_calls(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full setup/teardown handshake through encode/decode.
    #[test]
    fn call_lifecycle() {
        let mut switch = SignalingSwitch::new(1024);
        let mut caller = Caller::new();

        let setup = caller.setup();
        let wire = setup.encode();
        let replies = switch.handle(&Message::decode(&wire).unwrap());
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].kind, MessageType::CallProceeding);
        assert_eq!(replies[1].kind, MessageType::Connect);
        let vci = replies[1].connection_id().unwrap().1;
        assert!(vci >= 32);
        assert_eq!(switch.active_calls(), 1, "awaiting the connect ack");

        let ack = caller.handle(&replies[1]).expect("connect ack");
        assert!(switch.handle(&ack).is_empty(), "the ack activates the call");
        assert_eq!(switch.stats().protocol_errors, 0);
        assert_eq!(caller.active_calls(), 1);

        let release = caller.release(None).unwrap();
        let replies = switch.handle(&release);
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].kind, MessageType::ReleaseComplete);
        assert_eq!(replies[0].cause(), Some(Cause::NormalClearing));
        assert_eq!(switch.active_calls(), 0);
        assert_eq!(caller.active_calls(), 0);
    }

    #[test]
    fn capacity_exhaustion_rejects_with_cause() {
        let mut switch = SignalingSwitch::new(2);
        let mut caller = Caller::new();
        for _ in 0..2 {
            let s = caller.setup();
            let r = switch.handle(&s);
            assert_eq!(r[1].kind, MessageType::Connect);
        }
        let s = caller.setup();
        let r = switch.handle(&s);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, MessageType::ReleaseComplete);
        assert_eq!(r[0].cause(), Some(Cause::ResourceUnavailable));
        assert_eq!(switch.stats().rejected, 1);
    }

    #[test]
    fn release_of_unknown_call() {
        let mut switch = SignalingSwitch::new(8);
        let r = switch.handle(&Message::new(777, MessageType::Release));
        assert_eq!(r[0].cause(), Some(Cause::InvalidCallReference));
        assert_eq!(switch.stats().protocol_errors, 1);
    }

    #[test]
    fn duplicate_setup_is_a_protocol_error() {
        let mut switch = SignalingSwitch::new(8);
        let setup = crate::wire::sample_setup(42);
        switch.handle(&setup);
        let r = switch.handle(&setup);
        assert_eq!(r[0].kind, MessageType::Status);
        assert_eq!(switch.stats().protocol_errors, 1);
    }

    #[test]
    fn vcis_are_distinct_across_calls() {
        let mut switch = SignalingSwitch::new(64);
        let mut caller = Caller::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let replies = switch.handle(&caller.setup());
            let (_, vci) = replies[1].connection_id().unwrap();
            assert!(seen.insert(vci), "vci {vci} reused while active");
        }
    }

    /// Regression: drive the 24-bit call-ref counter across the wrap.
    /// The old code applied `.max(1)` *before* the mask, so the first
    /// post-wrap SETUP carried the reserved global ref 0 — and nothing
    /// stopped it from reissuing a ref still held by a live call.
    #[test]
    fn call_ref_counter_survives_the_24_bit_wrap() {
        let mut caller = Caller::starting_at(CALL_REF_MASK - 1);
        // A long-lived call from the previous epoch holds ref 1.
        caller.active.insert(1, (0, 32));
        assert_eq!(caller.setup().call_ref, CALL_REF_MASK - 1);
        assert_eq!(caller.setup().call_ref, CALL_REF_MASK);
        let post_wrap = caller.setup().call_ref;
        assert_ne!(post_wrap, 0, "reserved global call ref must never be issued");
        assert_eq!(post_wrap, 2, "ref 1 is live and must be skipped");
        assert_eq!(caller.setup().call_ref, 3);
    }

    #[test]
    fn call_ref_wrap_without_live_state_resumes_at_one() {
        let mut caller = Caller::starting_at(CALL_REF_MASK);
        assert_eq!(caller.setup().call_ref, CALL_REF_MASK);
        assert_eq!(caller.setup().call_ref, 1);
        assert_eq!(caller.setup().call_ref, 2);
    }

    /// `starting_at` itself masks and clamps.
    #[test]
    fn starting_at_normalizes_reserved_and_oversized_refs() {
        assert_eq!(Caller::starting_at(0).setup().call_ref, 1);
        assert_eq!(
            Caller::starting_at(0x0100_0005).setup().call_ref,
            5,
            "out-of-range seeds are masked to 24 bits"
        );
    }

    #[test]
    fn connect_ack_for_unknown_call_is_error() {
        let mut switch = SignalingSwitch::new(8);
        let r = switch.handle(&Message::new(5, MessageType::ConnectAck));
        assert_eq!(r[0].kind, MessageType::Status);
    }
}
