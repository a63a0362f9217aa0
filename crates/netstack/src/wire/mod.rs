//! Wire formats: parsing and emission of protocol headers.
//!
//! Each protocol has a `Repr` struct (a parsed, validated representation)
//! and one codec. `parse` splits the fixed header off the front of the
//! buffer as a `[u8; N]`, destructures it, and returns the repr together
//! with the payload slice that follows (trimmed to the header's own
//! length field where it has one), so callers never re-slice at an
//! offset. Emission builds the header as a `[u8; N]` array from
//! `to_be_bytes()` parts, with any checksum summed before the array is
//! built. Neither side indexes a buffer: parsing never panics on
//! arbitrary input — malformed packets return [`crate::Error`] — and
//! `parse(emit(x)) == x` is property-tested for every header type.
//!
//! IPv4 has one codec for whole datagrams and fragments alike:
//! [`Ipv4Repr`] carries the flags/fragment-offset word, and
//! [`crate::ipfrag::fragment`] builds every fragment through
//! [`Ipv4Repr::packet`].

pub mod arp;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use arp::{ArpOp, ArpRepr};
pub use ethernet::{EtherType, EthernetAddr, EthernetRepr, ETHERNET_HEADER_LEN};
pub use icmp::{IcmpRepr, IcmpType};
pub use ipv4::{Ipv4Addr, Ipv4Repr, Protocol, IPV4_HEADER_LEN};
pub use tcp::{SeqNumber, TcpFlags, TcpRepr, TCP_HEADER_LEN};
pub use udp::{UdpRepr, UDP_HEADER_LEN};
