//! The Internet checksum (RFC 1071), in two design styles.
//!
//! Section 5.1 of the paper compares the elaborate, heavily unrolled
//! `in_cksum` of 4.4BSD (1104 bytes of Alpha code, 992 in the working set)
//! against "a very simple version (288 bytes of active code) which was
//! smaller, but required more processing per byte". With a warm cache the
//! elaborate routine wins at nearly all sizes; with a cold cache the simple
//! routine wins up to ~900-byte messages because it fetches far fewer
//! instructions. Figure 8 plots exactly this trade-off.
//!
//! Both implementations here are real and are property-tested to agree
//! with each other and with RFC 1071's definition; their *cache* behaviour
//! is modelled in `bench`'s Figure 8 harness using the paper's footprint
//! constants (see [`SIMPLE_FOOTPRINT_BYTES`] / [`ELABORATE_FOOTPRINT_BYTES`]).

/// Active-code footprint of the simple routine, from Section 5.1.
pub const SIMPLE_FOOTPRINT_BYTES: u64 = 288;
/// Active-code footprint of the 4.4BSD-style routine for messages larger
/// than 32 bytes, from Section 5.1.
pub const ELABORATE_FOOTPRINT_BYTES: u64 = 992;

/// Ones-complement sum accumulator used by both routines and by
/// pseudo-header checksumming.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accum(u64);

impl Accum {
    /// Starts a fresh sum.
    pub fn new() -> Self {
        Accum(0)
    }

    /// Adds one big-endian 16-bit word.
    pub fn add_word(mut self, w: u16) -> Self {
        self.0 += w as u64;
        self
    }

    /// Adds a byte slice, treating it as big-endian 16-bit words with an
    /// implicit zero pad byte when the length is odd.
    pub fn add_bytes(mut self, data: &[u8]) -> Self {
        let (words, tail) = data.as_chunks::<2>();
        for &w in words {
            self.0 += u16::from_be_bytes(w) as u64;
        }
        if let [last] = tail {
            self.0 += (*last as u64) << 8;
        }
        self
    }

    /// Folds carries and returns the ones-complement checksum.
    pub fn finish(self) -> u16 {
        let mut sum = self.0;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// The *simple* checksum: a tight 16-bit-word loop. Small code, more
/// iterations. This is the routine the paper recommends for
/// small-message protocols.
pub fn simple(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut i = 0;
    while i + 1 < data.len() {
        sum += u16::from_be_bytes([data[i], data[i + 1]]) as u32;
        i += 2;
    }
    if i < data.len() {
        sum += (data[i] as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// The *elaborate* checksum, in the style of 4.4BSD's `in_cksum`: aligns
/// to a word boundary, then consumes 32 bytes per iteration with wide
/// accumulators, with fix-up loops for the head and tail. More code, fewer
/// per-byte operations.
pub fn elaborate(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    let mut d = data;

    // Main unrolled loop: 32 bytes (16 words) per iteration.
    let mut chunks = d.chunks_exact(32);
    for c in &mut chunks {
        let mut local: u64 = 0;
        for w in c.chunks_exact(2) {
            local += u16::from_be_bytes([w[0], w[1]]) as u64;
        }
        sum += local;
    }
    d = chunks.remainder();

    // 8-byte secondary loop.
    let mut chunks = d.chunks_exact(8);
    for c in &mut chunks {
        for w in c.chunks_exact(2) {
            sum += u16::from_be_bytes([w[0], w[1]]) as u64;
        }
    }
    d = chunks.remainder();

    // Word tail.
    let mut chunks = d.chunks_exact(2);
    for w in &mut chunks {
        sum += u16::from_be_bytes([w[0], w[1]]) as u64;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u64) << 8;
    }

    let mut folded = sum;
    while folded >> 16 != 0 {
        folded = (folded & 0xffff) + (folded >> 16);
    }
    !(folded as u16)
}

/// Incremental checksum update per RFC 1624: returns the new checksum of
/// data whose old checksum was `old_sum` after a 16-bit field changed from
/// `old_word` to `new_word`.
pub fn update_word(old_sum: u16, old_word: u16, new_word: u16) -> u16 {
    // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
    let mut sum = (!old_sum as u32) + (!old_word as u32) + new_word as u32;
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A sum seeded with the IPv4 pseudo-header of a `len`-byte UDP or TCP
/// segment; emitters add the header fields and payload to it.
pub fn pseudo_header_accum(src: [u8; 4], dst: [u8; 4], proto: u8, len: usize) -> Accum {
    Accum::new()
        .add_bytes(&src)
        .add_bytes(&dst)
        .add_word(proto as u16)
        .add_word(len as u16)
}

/// Checksum of an IPv4 pseudo-header plus payload, used by UDP and TCP.
pub fn pseudo_header_v4(src: [u8; 4], dst: [u8; 4], proto: u8, payload: &[u8]) -> u16 {
    pseudo_header_accum(src, dst, proto, payload.len())
        .add_bytes(payload)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> fold -> ddf2; cksum = !ddf2 = 220d.
        assert_eq!(simple(&data), 0x220d);
        assert_eq!(elaborate(&data), 0x220d);
    }

    #[test]
    fn empty_and_single_byte() {
        assert_eq!(simple(&[]), 0xffff);
        assert_eq!(elaborate(&[]), 0xffff);
        assert_eq!(simple(&[0xab]), !0xab00u16);
        assert_eq!(elaborate(&[0xab]), !0xab00u16);
    }

    #[test]
    fn verification_of_valid_packet_yields_zero_sum() {
        // A packet containing its own correct checksum sums to 0xffff
        // (i.e. `finish` on the raw sum returns 0).
        let mut data = vec![0x45u8, 0x00, 0x00, 0x54, 0x12, 0x34, 0x40, 0x00, 0x40, 0x01];
        let ck = simple(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(simple(&data), 0);
        assert_eq!(elaborate(&data), 0);
    }

    #[test]
    fn routines_agree_across_sizes_and_alignments() {
        // Deterministic pseudo-random data; every size 0..600 and both
        // starting alignments.
        let mut data = vec![0u8; 1024];
        let mut x: u32 = 0x12345678;
        for b in data.iter_mut() {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            *b = (x >> 24) as u8;
        }
        for start in 0..2 {
            for len in 0..600 {
                let slice = &data[start..start + len];
                assert_eq!(
                    simple(slice),
                    elaborate(slice),
                    "mismatch at start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut data = vec![0u8; 40];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        let old = simple(&data);
        let old_word = u16::from_be_bytes([data[10], data[11]]);
        data[10] = 0xde;
        data[11] = 0xad;
        let incremental = update_word(old, old_word, 0xdead);
        assert_eq!(incremental, simple(&data));
    }

    #[test]
    fn accum_matches_simple() {
        let data = [1u8, 2, 3, 4, 5];
        assert_eq!(Accum::new().add_bytes(&data).finish(), simple(&data));
    }

    #[test]
    fn pseudo_header_known_value() {
        // UDP over 10.0.0.1 -> 10.0.0.2, proto 17, payload of 4 bytes.
        let payload = [0x12u8, 0x34, 0x56, 0x78];
        let ck = pseudo_header_v4([10, 0, 0, 1], [10, 0, 0, 2], 17, &payload);
        // Manual: 0a00 + 0001 + 0a00 + 0002 + 0011 + 0004 + 1234 + 5678 = 7cc4 -> !0x7cc4
        assert_eq!(ck, !0x7cc4u16);
    }
}
