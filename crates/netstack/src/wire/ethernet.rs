//! Ethernet II framing.

use crate::error::{Error, Result};

/// Length of an Ethernet II header (dst + src + ethertype).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EthernetAddr(pub [u8; 6]);

impl EthernetAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthernetAddr = EthernetAddr([0xff; 6]);

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Whether the multicast (group) bit is set.
    pub fn is_multicast(&self) -> bool {
        let [first, ..] = self.0;
        first & 0x01 != 0
    }

    /// Whether this is a unicast address (not multicast, not all-zero).
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast() && self.0 != [0; 6]
    }
}

impl std::fmt::Display for EthernetAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d, e, g] = self.0;
        write!(f, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")
    }
}

/// The ethertype field values the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    Ipv4,
    Arp,
    /// Anything else, carried verbatim.
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Unknown(v) => v,
        }
    }
}

/// A parsed Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetRepr {
    pub dst: EthernetAddr,
    pub src: EthernetAddr,
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parses a frame, returning the header and the payload that follows.
    pub fn parse(frame: &[u8]) -> Result<(EthernetRepr, &[u8])> {
        let (&[d0, d1, d2, d3, d4, d5, s0, s1, s2, s3, s4, s5, t0, t1], payload) = frame
            .split_first_chunk::<ETHERNET_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        let repr = EthernetRepr {
            dst: EthernetAddr([d0, d1, d2, d3, d4, d5]),
            src: EthernetAddr([s0, s1, s2, s3, s4, s5]),
            ethertype: u16::from_be_bytes([t0, t1]).into(),
        };
        Ok((repr, payload))
    }

    /// The 14-byte header.
    pub fn header(&self) -> [u8; ETHERNET_HEADER_LEN] {
        let [d0, d1, d2, d3, d4, d5] = self.dst.0;
        let [s0, s1, s2, s3, s4, s5] = self.src.0;
        let [t0, t1] = u16::from(self.ethertype).to_be_bytes();
        [d0, d1, d2, d3, d4, d5, s0, s1, s2, s3, s4, s5, t0, t1]
    }

    /// Builds a complete frame around `payload`.
    pub fn frame(&self, payload: &[u8]) -> Vec<u8> {
        [self.header().as_slice(), payload].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let r = EthernetRepr {
            dst: EthernetAddr([1, 2, 3, 4, 5, 6]),
            src: EthernetAddr([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        };
        let frame = r.frame(b"hello");
        let (parsed, payload) = EthernetRepr::parse(&frame).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn truncated() {
        assert_eq!(EthernetRepr::parse(&[0u8; 13]), Err(Error::Truncated));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x1234), EtherType::Unknown(0x1234));
        assert_eq!(u16::from(EtherType::Arp), 0x0806);
    }

    #[test]
    fn address_predicates() {
        assert!(EthernetAddr::BROADCAST.is_broadcast());
        assert!(EthernetAddr::BROADCAST.is_multicast());
        assert!(EthernetAddr([2, 0, 0, 0, 0, 1]).is_unicast());
        assert!(EthernetAddr([1, 0, 0, 0, 0, 0]).is_multicast());
        assert!(!EthernetAddr([0; 6]).is_unicast());
    }

    #[test]
    fn display_format() {
        assert_eq!(
            EthernetAddr([0x02, 0, 0, 0xab, 0xcd, 0xef]).to_string(),
            "02:00:00:ab:cd:ef"
        );
    }
}
