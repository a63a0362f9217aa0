//! UDP (RFC 768).

use crate::checksum;
use crate::error::{Error, Result};
use crate::wire::ipv4::Ipv4Addr;

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A parsed UDP datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpRepr {
    pub src_port: u16,
    pub dst_port: u16,
}

impl UdpRepr {
    /// Parses a datagram and validates its checksum against the IPv4
    /// pseudo-header; returns the header and the payload, which ends where
    /// the UDP length field says the datagram ends (RFC 768): bytes past
    /// it are not covered by the checksum and never reach the caller.
    ///
    /// An all-zero checksum field means "no checksum" (legal in UDP/IPv4)
    /// and is accepted.
    pub fn parse(buf: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(UdpRepr, &[u8])> {
        let (&[s0, s1, d0, d1, l0, l1, c0, c1], _) = buf
            .split_first_chunk::<UDP_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        let length = usize::from(u16::from_be_bytes([l0, l1]));
        let (datagram, _) = buf.split_at_checked(length).ok_or(Error::Truncated)?;
        let (_, payload) = datagram
            .split_first_chunk::<UDP_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        if (c0, c1) != (0, 0) && checksum::pseudo_header_v4(src.0, dst.0, 17, datagram) != 0 {
            return Err(Error::Checksum);
        }
        let repr = UdpRepr {
            src_port: u16::from_be_bytes([s0, s1]),
            dst_port: u16::from_be_bytes([d0, d1]),
        };
        Ok((repr, payload))
    }

    /// Serializes a datagram with a correct checksum.
    pub fn packet(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let len = UDP_HEADER_LEN + payload.len();
        let ck = checksum::pseudo_header_accum(src.0, dst.0, 17, len)
            .add_word(self.src_port)
            .add_word(self.dst_port)
            .add_word(len as u16)
            .add_bytes(payload)
            .finish();
        // A computed zero is transmitted as all-ones (RFC 768).
        let [c0, c1] = (if ck == 0 { 0xffff } else { ck }).to_be_bytes();
        let [s0, s1] = self.src_port.to_be_bytes();
        let [d0, d1] = self.dst_port.to_be_bytes();
        let [l0, l1] = (len as u16).to_be_bytes();
        [[s0, s1, d0, d1, l0, l1, c0, c1].as_slice(), payload].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
    const B: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);

    #[test]
    fn round_trip() {
        let r = UdpRepr {
            src_port: 4000,
            dst_port: 53,
        };
        let pkt = r.packet(A, B, b"query");
        let (parsed, payload) = UdpRepr::parse(&pkt, A, B).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(payload, b"query");
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let r = UdpRepr {
            src_port: 1,
            dst_port: 2,
        };
        let pkt = r.packet(A, B, b"data");
        // Same packet claimed to be from a different source must fail.
        assert_eq!(
            UdpRepr::parse(&pkt, Ipv4Addr([10, 0, 0, 9]), B),
            Err(Error::Checksum)
        );
    }

    #[test]
    fn zero_checksum_accepted() {
        let r = UdpRepr {
            src_port: 1,
            dst_port: 2,
        };
        let mut pkt = r.packet(A, B, b"data");
        pkt[6] = 0;
        pkt[7] = 0;
        assert!(UdpRepr::parse(&pkt, A, B).is_ok());
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(UdpRepr::parse(&[0u8; 7], A, B), Err(Error::Truncated));
        // Declared length longer than the buffer.
        let r = UdpRepr {
            src_port: 1,
            dst_port: 2,
        };
        let mut pkt = r.packet(A, B, b"data");
        pkt[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(UdpRepr::parse(&pkt, A, B), Err(Error::Truncated));
        // Declared length shorter than the header.
        pkt[4..6].copy_from_slice(&7u16.to_be_bytes());
        assert_eq!(UdpRepr::parse(&pkt, A, B), Err(Error::Truncated));
    }
}
