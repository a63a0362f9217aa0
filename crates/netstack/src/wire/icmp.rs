//! ICMPv4 (RFC 792): echo request/reply and destination unreachable.

use crate::checksum;
use crate::error::{Error, Result};

/// Length of the fixed ICMP header.
pub const ICMP_HEADER_LEN: usize = 8;

/// The ICMP message types the stack handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpType {
    EchoReply,
    EchoRequest,
    /// Destination unreachable with the given code (e.g. 3 = port
    /// unreachable, sent for UDP datagrams with no listener).
    DestUnreachable(u8),
}

/// A parsed ICMP header. `ident`/`seq` are meaningful for echo messages;
/// for destination unreachable the payload carries the offending header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpRepr {
    pub kind: IcmpType,
    pub ident: u16,
    pub seq: u16,
}

impl IcmpRepr {
    /// Builds an echo request.
    pub fn echo_request(ident: u16, seq: u16) -> Self {
        IcmpRepr {
            kind: IcmpType::EchoRequest,
            ident,
            seq,
        }
    }

    /// The reply matching this echo request (same ident/seq; send it
    /// with the request's payload).
    pub fn to_echo_reply(&self) -> Self {
        IcmpRepr {
            kind: IcmpType::EchoReply,
            ..*self
        }
    }

    /// Parses and validates (checksum included) an ICMP message; returns
    /// the header and the payload that follows it.
    pub fn parse(buf: &[u8]) -> Result<(IcmpRepr, &[u8])> {
        let (&[ty, code, _, _, i0, i1, q0, q1], payload) = buf
            .split_first_chunk::<ICMP_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        if checksum::simple(buf) != 0 {
            return Err(Error::Checksum);
        }
        let kind = match (ty, code) {
            (0, 0) => IcmpType::EchoReply,
            (8, 0) => IcmpType::EchoRequest,
            (3, code) => IcmpType::DestUnreachable(code),
            _ => return Err(Error::Malformed),
        };
        let repr = IcmpRepr {
            kind,
            ident: u16::from_be_bytes([i0, i1]),
            seq: u16::from_be_bytes([q0, q1]),
        };
        Ok((repr, payload))
    }

    /// Serializes the message around `payload` with a correct checksum.
    pub fn packet(&self, payload: &[u8]) -> Vec<u8> {
        let (ty, code) = match self.kind {
            IcmpType::EchoReply => (0, 0),
            IcmpType::EchoRequest => (8, 0),
            IcmpType::DestUnreachable(c) => (3, c),
        };
        let [c0, c1] = checksum::Accum::new()
            .add_word(u16::from_be_bytes([ty, code]))
            .add_word(self.ident)
            .add_word(self.seq)
            .add_bytes(payload)
            .finish()
            .to_be_bytes();
        let [i0, i1] = self.ident.to_be_bytes();
        let [q0, q1] = self.seq.to_be_bytes();
        [[ty, code, c0, c1, i0, i1, q0, q1].as_slice(), payload].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let req = IcmpRepr::echo_request(0xbeef, 7);
        let pkt = req.packet(b"ping payload");
        let (parsed, payload) = IcmpRepr::parse(&pkt).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(payload, b"ping payload");
        let reply = parsed.to_echo_reply();
        assert_eq!(reply.kind, IcmpType::EchoReply);
        assert_eq!(reply.ident, 0xbeef);
        assert_eq!(reply.seq, 7);
        // Odd-length payloads checksum with the implicit pad byte.
        assert_eq!(checksum::simple(&req.packet(b"odd")), 0);
    }

    #[test]
    fn dest_unreachable_round_trip() {
        let r = IcmpRepr {
            kind: IcmpType::DestUnreachable(3),
            ident: 0,
            seq: 0,
        };
        let quoted = [0x45, 0, 0, 20];
        assert_eq!(IcmpRepr::parse(&r.packet(&quoted)), Ok((r, &quoted[..])));
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut pkt = IcmpRepr::echo_request(1, 1).packet(b"x");
        pkt[8] ^= 0x55;
        assert_eq!(IcmpRepr::parse(&pkt), Err(Error::Checksum));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut pkt = IcmpRepr::echo_request(1, 1).packet(b"");
        pkt[0] = 42;
        // Fix the checksum so the type check is what fails.
        pkt[2] = 0;
        pkt[3] = 0;
        let ck = checksum::simple(&pkt);
        pkt[2..4].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(IcmpRepr::parse(&pkt), Err(Error::Malformed));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(IcmpRepr::parse(&[0u8; 7]), Err(Error::Truncated));
    }
}
