//! TCP segments (RFC 793), with MSS option support and wrapping
//! sequence-number arithmetic.

use crate::checksum;
use crate::error::{Error, Result};
use crate::wire::ipv4::Ipv4Addr;

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// A 32-bit TCP sequence number with wrapping comparison semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNumber(pub u32);

impl SeqNumber {
    /// `self + n`, wrapping. Deliberately not `impl Add`: mixed
    /// `SeqNumber + u32` operands read worse than explicit calls in
    /// sequence-space arithmetic.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u32) -> SeqNumber {
        SeqNumber(self.0.wrapping_add(n))
    }

    /// Signed distance from `other` to `self`, wrapping.
    pub fn diff(self, other: SeqNumber) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }

    /// `self < other` in sequence space.
    pub fn lt(self, other: SeqNumber) -> bool {
        self.diff(other) < 0
    }

    /// `self <= other` in sequence space.
    pub fn le(self, other: SeqNumber) -> bool {
        self.diff(other) <= 0
    }

    /// `self > other` in sequence space.
    pub fn gt(self, other: SeqNumber) -> bool {
        self.diff(other) > 0
    }

    /// `self >= other` in sequence space.
    pub fn ge(self, other: SeqNumber) -> bool {
        self.diff(other) >= 0
    }
}

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub fin: bool,
    pub syn: bool,
    pub rst: bool,
    pub psh: bool,
    pub ack: bool,
    pub urg: bool,
}

impl TcpFlags {
    /// Just SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        rst: false,
        psh: false,
        ack: false,
        urg: false,
    };

    /// Just ACK.
    pub const ACK: TcpFlags = TcpFlags {
        ack: true,
        fin: false,
        rst: false,
        psh: false,
        syn: false,
        urg: false,
    };

    /// SYN|ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
        urg: false,
    };

    /// FIN|ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        fin: true,
        ack: true,
        syn: false,
        rst: false,
        psh: false,
        urg: false,
    };

    /// RST|ACK.
    pub const RST_ACK: TcpFlags = TcpFlags {
        rst: true,
        ack: true,
        syn: false,
        fin: false,
        psh: false,
        urg: false,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
            | (self.urg as u8) << 5
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            urg: b & 0x20 != 0,
        }
    }

    /// True when only ACK (and possibly PSH) is set — the precondition
    /// for TCP's header-prediction fast path.
    pub fn is_pure_ack_or_data(self) -> bool {
        self.ack && !self.syn && !self.fin && !self.rst && !self.urg
    }
}

/// A parsed TCP segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpRepr {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: SeqNumber,
    pub ack: SeqNumber,
    pub flags: TcpFlags,
    pub window: u16,
    /// MSS option value, present only on SYN segments that carry it.
    pub mss: Option<u16>,
}

impl TcpRepr {
    /// Parses a segment and validates its checksum against the IPv4
    /// pseudo-header; returns the header and the payload after the
    /// options.
    pub fn parse(buf: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(TcpRepr, &[u8])> {
        let (&[p0, p1, q0, q1, s0, s1, s2, s3, a0, a1, a2, a3, off, flags, w0, w1, ..], rest) = buf
            .split_first_chunk::<TCP_HEADER_LEN>()
            .ok_or(Error::Truncated)?;
        // A data offset below the fixed header or past the buffer.
        let (mut opts, payload) = (usize::from(off >> 4) * 4)
            .checked_sub(TCP_HEADER_LEN)
            .and_then(|n| rest.split_at_checked(n))
            .ok_or(Error::Malformed)?;
        if checksum::pseudo_header_v4(src.0, dst.0, 6, buf) != 0 {
            return Err(Error::Checksum);
        }
        // Options: only MSS is interpreted; others are skipped by length.
        let mut mss = None;
        loop {
            opts = match opts {
                [] | [0, ..] => break,  // end of options
                [1, rest @ ..] => rest, // NOP
                [2, 4, m0, m1, rest @ ..] => {
                    mss = Some(u16::from_be_bytes([*m0, *m1]));
                    rest
                }
                [kind, len, ..] if *kind != 2 && *len >= 2 => {
                    let (_, rest) = opts
                        .split_at_checked(usize::from(*len))
                        .ok_or(Error::Malformed)?;
                    rest
                }
                _ => return Err(Error::Malformed),
            };
        }
        let repr = TcpRepr {
            src_port: u16::from_be_bytes([p0, p1]),
            dst_port: u16::from_be_bytes([q0, q1]),
            seq: SeqNumber(u32::from_be_bytes([s0, s1, s2, s3])),
            ack: SeqNumber(u32::from_be_bytes([a0, a1, a2, a3])),
            flags: TcpFlags::from_byte(flags),
            window: u16::from_be_bytes([w0, w1]),
            mss,
        };
        Ok((repr, payload))
    }

    /// Header length including options.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + if self.mss.is_some() { 4 } else { 0 }
    }

    /// Serializes the segment (header + options + payload) with a correct
    /// checksum.
    pub fn segment(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mss = self.mss.map(|m| {
            let [m0, m1] = m.to_be_bytes();
            [2, 4, m0, m1]
        });
        let opts = mss.as_slice().as_flattened();
        let hlen = self.header_len();
        let off_flags = u16::from_be_bytes([((hlen / 4) as u8) << 4, self.flags.to_byte()]);
        let [c0, c1] = checksum::pseudo_header_accum(src.0, dst.0, 6, hlen + payload.len())
            .add_word(self.src_port)
            .add_word(self.dst_port)
            .add_bytes(&self.seq.0.to_be_bytes())
            .add_bytes(&self.ack.0.to_be_bytes())
            .add_word(off_flags)
            .add_word(self.window)
            .add_bytes(opts)
            .add_bytes(payload)
            .finish()
            .to_be_bytes();
        let [p0, p1] = self.src_port.to_be_bytes();
        let [q0, q1] = self.dst_port.to_be_bytes();
        let [s0, s1, s2, s3] = self.seq.0.to_be_bytes();
        let [a0, a1, a2, a3] = self.ack.0.to_be_bytes();
        let [o0, o1] = off_flags.to_be_bytes();
        let [w0, w1] = self.window.to_be_bytes();
        let header = [
            p0, p1, q0, q1, s0, s1, s2, s3, a0, a1, a2, a3, o0, o1, w0, w1, c0, c1, 0, 0,
        ];
        [header.as_slice(), opts, payload].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
    const B: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);

    fn sample() -> TcpRepr {
        TcpRepr {
            src_port: 33000,
            dst_port: 80,
            seq: SeqNumber(0x01020304),
            ack: SeqNumber(0x0a0b0c0d),
            flags: TcpFlags::ACK,
            window: 8760,
            mss: None,
        }
    }

    #[test]
    fn round_trip_plain() {
        let r = sample();
        let seg = r.segment(A, B, b"payload bytes");
        assert_eq!(seg.len(), TCP_HEADER_LEN + 13);
        let (parsed, payload) = TcpRepr::parse(&seg, A, B).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(payload, b"payload bytes");
    }

    #[test]
    fn round_trip_syn_with_mss() {
        let r = TcpRepr {
            flags: TcpFlags::SYN,
            mss: Some(1460),
            ..sample()
        };
        let seg = r.segment(A, B, b"odd");
        assert_eq!(seg.len(), 24 + 3);
        let (parsed, payload) = TcpRepr::parse(&seg, A, B).unwrap();
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(payload, b"odd");
    }

    /// A SYN whose header carries `opts` (a multiple of 4 bytes) ahead
    /// of `payload`, with the data offset and checksum fixed up.
    fn with_options(opts: &[u8], payload: &[u8]) -> Vec<u8> {
        let r = TcpRepr {
            flags: TcpFlags::SYN,
            ..sample()
        };
        let mut seg = [r.segment(A, B, &[]).as_slice(), opts, payload].concat();
        seg[12] = (((TCP_HEADER_LEN + opts.len()) / 4) as u8) << 4;
        seg[16] = 0;
        seg[17] = 0;
        let ck = checksum::pseudo_header_v4(A.0, B.0, 6, &seg);
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        seg
    }

    #[test]
    fn malformed_options_rejected() {
        for opts in [
            [2, 3, 0x05, 0xb4], // MSS with the wrong length
            [99, 1, 0, 0],      // option length below 2
            [99, 9, 0, 0],      // option running past the header
            [1, 1, 1, 2],       // MSS cut short by the header end
        ] {
            assert_eq!(
                TcpRepr::parse(&with_options(&opts, b""), A, B),
                Err(Error::Malformed),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn checksum_covers_payload_and_pseudo_header() {
        let r = sample();
        let mut seg = r.segment(A, B, b"data");
        seg[21] ^= 1; // flip a payload bit
        assert_eq!(TcpRepr::parse(&seg, A, B), Err(Error::Checksum));
        let seg = r.segment(A, B, b"data");
        assert_eq!(
            TcpRepr::parse(&seg, A, Ipv4Addr([10, 0, 0, 3])),
            Err(Error::Checksum)
        );
    }

    #[test]
    fn bad_data_offset_rejected() {
        let r = sample();
        let mut seg = r.segment(A, B, b"");
        seg[12] = 0x30; // data offset 12 bytes < 20
        assert_eq!(TcpRepr::parse(&seg, A, B), Err(Error::Malformed));
        let mut seg = r.segment(A, B, b"");
        seg[12] = 0xf0; // data offset 60 > buffer
        assert_eq!(TcpRepr::parse(&seg, A, B), Err(Error::Malformed));
    }

    #[test]
    fn unknown_options_skipped() {
        // 12 option bytes: NOP, kind=99 len=6 (4 data bytes), MSS,
        // end-of-options; the payload starts right after them.
        let opts = [1u8, 99, 6, 0, 0, 0, 0, 2, 4, 0x05, 0xb4, 0];
        let seg = with_options(&opts, b"xy");
        let (parsed, payload) = TcpRepr::parse(&seg, A, B).unwrap();
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(payload, b"xy");
    }

    #[test]
    fn seq_wrapping_comparisons() {
        let a = SeqNumber(u32::MAX - 5);
        let b = a.add(10); // wraps
        assert!(a.lt(b));
        assert!(b.gt(a));
        assert!(a.le(a));
        assert!(a.ge(a));
        assert_eq!(b.diff(a), 10);
        assert_eq!(a.diff(b), -10);
        assert_eq!(b.0, 4);
    }

    #[test]
    fn flags_round_trip() {
        for b in 0..64u8 {
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b);
        }
        assert!(TcpFlags::ACK.is_pure_ack_or_data());
        assert!(!TcpFlags::SYN_ACK.is_pure_ack_or_data());
        assert!(!TcpFlags::FIN_ACK.is_pure_ack_or_data());
    }
}
