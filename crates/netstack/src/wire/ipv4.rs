//! IPv4 headers (RFC 791), without options.

use crate::checksum;
use crate::error::{Error, Result};

/// Length of an IPv4 header without options.
pub const IPV4_HEADER_LEN: usize = 20;

/// A 32-bit IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr([255; 4]);
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0; 4]);

    /// Builds an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// Whether this is the limited broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl std::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.0;
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// IP protocol numbers the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    Icmp,
    Tcp,
    Udp,
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(v: u8) -> Self {
        match v {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Unknown(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(p: Protocol) -> u8 {
        match p {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Unknown(v) => v,
        }
    }
}

/// A parsed IPv4 header (options are skipped, never interpreted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: Protocol,
    pub ttl: u8,
    /// Identification field (used by fragmentation; carried verbatim).
    pub ident: u16,
    /// The flags/fragment-offset word, carried verbatim:
    /// [`Ipv4Repr::DONT_FRAG`], [`Ipv4Repr::MORE_FRAGS`], and the
    /// fragment offset in 8-byte units in the low 13 bits.
    pub flags_frag: u16,
    /// Payload length in bytes (total length minus header).
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Don't-fragment bit of [`Ipv4Repr::flags_frag`].
    pub const DONT_FRAG: u16 = 0x4000;
    /// More-fragments bit of [`Ipv4Repr::flags_frag`].
    pub const MORE_FRAGS: u16 = 0x2000;

    /// Parses and validates a header; returns the repr and the payload,
    /// trimmed to the total length (link-layer padding dropped).
    ///
    /// Checks, in order: the buffer holds a fixed header (else
    /// [`Error::Truncated`]), version 4 with a header length of at least
    /// 20 bytes ([`Error::Malformed`]), a total length covering the
    /// header and within the buffer ([`Error::Truncated`]), and the
    /// header checksum ([`Error::Checksum`]). Fragments parse like whole
    /// datagrams: the receive path reads `flags_frag` and hands them to
    /// reassembly, so the paper's fast-path assumption that a message
    /// "is not a fragment" is checked, not trusted.
    pub fn parse(buf: &[u8]) -> Result<(Ipv4Repr, &[u8])> {
        let (
            &[vihl, _, t0, t1, i0, i1, f0, f1, ttl, proto, _, _, s0, s1, s2, s3, d0, d1, d2, d3],
            _,
        ) = buf
            .split_first_chunk::<IPV4_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        let ihl = usize::from(vihl & 0x0f) * 4;
        if vihl >> 4 != 4 || ihl < IPV4_HEADER_LEN {
            return Err(Error::Malformed);
        }
        let total_len = usize::from(u16::from_be_bytes([t0, t1]));
        let (datagram, _padding) = buf.split_at_checked(total_len).ok_or(Error::Truncated)?;
        let (header, payload) = datagram.split_at_checked(ihl).ok_or(Error::Truncated)?;
        if checksum::simple(header) != 0 {
            return Err(Error::Checksum);
        }
        let repr = Ipv4Repr {
            src: Ipv4Addr([s0, s1, s2, s3]),
            dst: Ipv4Addr([d0, d1, d2, d3]),
            protocol: proto.into(),
            ttl,
            ident: u16::from_be_bytes([i0, i1]),
            flags_frag: u16::from_be_bytes([f0, f1]),
            payload_len: payload.len(),
        };
        Ok((repr, payload))
    }

    /// The 20-byte header (version 4, no options), checksum included.
    pub fn header(&self) -> [u8; IPV4_HEADER_LEN] {
        let total = (IPV4_HEADER_LEN + self.payload_len) as u16;
        let proto = u8::from(self.protocol);
        let [c0, c1] = checksum::Accum::new()
            .add_word(0x4500) // version 4, IHL 5, DSCP/ECN 0
            .add_word(total)
            .add_word(self.ident)
            .add_word(self.flags_frag)
            .add_word(u16::from_be_bytes([self.ttl, proto]))
            .add_bytes(&self.src.0)
            .add_bytes(&self.dst.0)
            .finish()
            .to_be_bytes();
        let [t0, t1] = total.to_be_bytes();
        let [i0, i1] = self.ident.to_be_bytes();
        let [f0, f1] = self.flags_frag.to_be_bytes();
        let [s0, s1, s2, s3] = self.src.0;
        let [d0, d1, d2, d3] = self.dst.0;
        [
            0x45, 0, t0, t1, i0, i1, f0, f1, self.ttl, proto, c0, c1, s0, s1, s2, s3, d0, d1, d2,
            d3,
        ]
    }

    /// Builds a complete packet (header + `payload`).
    pub fn packet(&self, payload: &[u8]) -> Vec<u8> {
        debug_assert_eq!(payload.len(), self.payload_len);
        [self.header().as_slice(), payload].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(192, 168, 69, 1),
            dst: Ipv4Addr::new(192, 168, 69, 2),
            protocol: Protocol::Tcp,
            ttl: 64,
            ident: 0x1234,
            flags_frag: Ipv4Repr::DONT_FRAG,
            payload_len: 5,
        }
    }

    #[test]
    fn round_trip() {
        let r = sample();
        let pkt = r.packet(b"abcde");
        assert_eq!(pkt.len(), IPV4_HEADER_LEN + 5);
        let (parsed, payload) = Ipv4Repr::parse(&pkt).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(payload, b"abcde");
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut pkt = sample().packet(b"abcde");
        pkt[8] ^= 0xff; // flip TTL without fixing the checksum
        assert_eq!(Ipv4Repr::parse(&pkt), Err(Error::Checksum));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut pkt = sample().packet(b"abcde");
        pkt[0] = 0x65;
        assert_eq!(Ipv4Repr::parse(&pkt), Err(Error::Malformed));
    }

    #[test]
    fn fragment_fields_parse_verbatim() {
        // MF set and a nonzero offset: parsed, not rejected, and the word
        // comes back exactly as emitted.
        let r = Ipv4Repr {
            flags_frag: Ipv4Repr::MORE_FRAGS | 185,
            ..sample()
        };
        let pkt = r.packet(b"abcde");
        assert_eq!(Ipv4Repr::parse(&pkt), Ok((r, &b"abcde"[..])));
    }

    #[test]
    fn errors_follow_the_check_order() {
        let pkt = sample().packet(b"abcde");
        // Short of a fixed header: truncated, whatever the bytes say.
        assert_eq!(Ipv4Repr::parse(&pkt[..19]), Err(Error::Truncated));
        // Bad version beats a bad checksum and a bad total length.
        let mut bad = pkt.clone();
        bad[0] = 0x65;
        bad[2] = 0xff;
        assert_eq!(Ipv4Repr::parse(&bad), Err(Error::Malformed));
        // IHL below 5 words is malformed.
        let mut bad = pkt.clone();
        bad[0] = 0x44;
        assert_eq!(Ipv4Repr::parse(&bad), Err(Error::Malformed));
        // A total length short of the header beats the checksum.
        let mut bad = pkt.clone();
        bad[2] = 0;
        bad[3] = 19;
        assert_eq!(Ipv4Repr::parse(&bad), Err(Error::Truncated));
        // IHL past the buffer is truncation too.
        let mut bad = pkt;
        bad[0] = 0x4f;
        assert_eq!(Ipv4Repr::parse(&bad), Err(Error::Truncated));
    }

    #[test]
    fn truncated_total_length_rejected() {
        let r = sample();
        let pkt = r.packet(b"abcde");
        assert_eq!(Ipv4Repr::parse(&pkt[..22]), Err(Error::Truncated));
    }

    #[test]
    fn total_len_shorter_than_buffer_is_ok() {
        // Ethernet padding can make the buffer longer than total_length;
        // the payload stops at total_length.
        let r = sample();
        let mut pkt = r.packet(b"abcde");
        pkt.extend_from_slice(&[0u8; 10]);
        let (parsed, payload) = Ipv4Repr::parse(&pkt).unwrap();
        assert_eq!(parsed.payload_len, 5);
        assert_eq!(payload, b"abcde");
    }

    #[test]
    fn address_predicates() {
        assert!(Ipv4Addr::BROADCAST.is_broadcast());
        assert!(!Ipv4Addr::new(10, 1, 2, 3).is_broadcast());
        assert!(!Ipv4Addr::UNSPECIFIED.is_broadcast());
        assert_eq!(Ipv4Addr::new(10, 0, 0, 1).to_string(), "10.0.0.1");
    }

    #[test]
    fn protocol_mapping_round_trips() {
        for p in [Protocol::Icmp, Protocol::Tcp, Protocol::Udp, Protocol::Unknown(99)] {
            assert_eq!(Protocol::from(u8::from(p)), p);
        }
    }
}
