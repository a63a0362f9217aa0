//! ARP for IPv4 over Ethernet (RFC 826).

use crate::error::{Error, Result};
use crate::wire::ethernet::EthernetAddr;
use crate::wire::ipv4::Ipv4Addr;

/// Length of an Ethernet/IPv4 ARP packet.
pub const ARP_PACKET_LEN: usize = 28;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    Request,
    Reply,
}

/// A parsed ARP packet (Ethernet hardware, IPv4 protocol only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpRepr {
    pub op: ArpOp,
    pub sender_hw: EthernetAddr,
    pub sender_ip: Ipv4Addr,
    pub target_hw: EthernetAddr,
    pub target_ip: Ipv4Addr,
}

impl ArpRepr {
    /// Parses and validates an ARP packet; returns the repr and whatever
    /// follows the 28-byte packet (link-layer padding).
    pub fn parse(buf: &[u8]) -> Result<(ArpRepr, &[u8])> {
        let (packet, rest) = buf
            .split_first_chunk::<ARP_PACKET_LEN>()
            .ok_or(Error::Truncated)?;
        // Ethernet hardware (1), IPv4 protocol (0x0800), address lengths
        // 6 and 4, operation 1 or 2: anything else is malformed.
        let &[0, 1, 0x08, 0x00, 6, 4, 0, op @ (1 | 2), sh0, sh1, sh2, sh3, sh4, sh5, si0, si1, si2, si3, th0, th1, th2, th3, th4, th5, ti0, ti1, ti2, ti3] =
            packet
        else {
            return Err(Error::Malformed);
        };
        let repr = ArpRepr {
            op: if op == 1 {
                ArpOp::Request
            } else {
                ArpOp::Reply
            },
            sender_hw: EthernetAddr([sh0, sh1, sh2, sh3, sh4, sh5]),
            sender_ip: Ipv4Addr([si0, si1, si2, si3]),
            target_hw: EthernetAddr([th0, th1, th2, th3, th4, th5]),
            target_ip: Ipv4Addr([ti0, ti1, ti2, ti3]),
        };
        Ok((repr, rest))
    }

    /// Serializes the packet.
    pub fn packet(&self) -> [u8; ARP_PACKET_LEN] {
        let op = match self.op {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        };
        let [sh0, sh1, sh2, sh3, sh4, sh5] = self.sender_hw.0;
        let [si0, si1, si2, si3] = self.sender_ip.0;
        let [th0, th1, th2, th3, th4, th5] = self.target_hw.0;
        let [ti0, ti1, ti2, ti3] = self.target_ip.0;
        [
            0, 1, 0x08, 0x00, 6, 4, 0, op, // Ethernet, IPv4, lengths, op
            sh0, sh1, sh2, sh3, sh4, sh5, si0, si1, si2, si3, // sender
            th0, th1, th2, th3, th4, th5, ti0, ti1, ti2, ti3, // target
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(op: ArpOp) -> ArpRepr {
        ArpRepr {
            op,
            sender_hw: EthernetAddr([2, 0, 0, 0, 0, 1]),
            sender_ip: Ipv4Addr::new(192, 168, 69, 1),
            target_hw: EthernetAddr([0, 0, 0, 0, 0, 0]),
            target_ip: Ipv4Addr::new(192, 168, 69, 100),
        }
    }

    #[test]
    fn round_trip_request_and_reply() {
        for op in [ArpOp::Request, ArpOp::Reply] {
            let r = sample(op);
            assert_eq!(ArpRepr::parse(&r.packet()), Ok((r, &[][..])));
        }
        // Link-layer padding after the packet comes back as the rest.
        let padded = [sample(ArpOp::Request).packet().as_slice(), &[0; 18]].concat();
        assert_eq!(ArpRepr::parse(&padded).unwrap().1, [0; 18]);
    }

    #[test]
    fn bad_hardware_type_rejected() {
        let mut pkt = sample(ArpOp::Request).packet();
        pkt[0] = 9;
        assert_eq!(ArpRepr::parse(&pkt), Err(Error::Malformed));
    }

    #[test]
    fn bad_op_rejected() {
        let mut pkt = sample(ArpOp::Request).packet();
        pkt[7] = 7;
        assert_eq!(ArpRepr::parse(&pkt), Err(Error::Malformed));
    }

    #[test]
    fn truncated_rejected() {
        let pkt = sample(ArpOp::Request).packet();
        assert_eq!(ArpRepr::parse(&pkt[..27]), Err(Error::Truncated));
    }
}
