//! IPv4 fragmentation and reassembly (RFC 791 §3.2).
//!
//! The paper's fast path explicitly assumes unfragmented datagrams ("the
//! message is addressed to the host and is not a fragment"), but a
//! general-purpose stack needs both halves: splitting an oversized
//! payload into MTU-sized fragments on output, and reconstituting
//! fragments — arriving in any order — on input, with a reassembly
//! timeout. Mirrors smoltcp's bounded-buffer approach: a fixed number of
//! in-progress reassemblies, each with a byte cap.

use crate::error::{Error, Result};
use crate::wire::ipv4::{Ipv4Addr, Ipv4Repr, IPV4_HEADER_LEN};

/// Maximum simultaneous reassemblies (smoltcp's `REASSEMBLY_BUFFER_COUNT`
/// spirit, a little roomier).
pub const MAX_REASSEMBLIES: usize = 4;
/// Largest datagram we will reassemble.
pub const MAX_DATAGRAM: usize = 65_535;
/// Reassembly timeout in milliseconds (RFC 791 suggests 15 s).
pub const REASSEMBLY_TIMEOUT_MS: u64 = 15_000;

/// Simulated footprint of one reassembly-table slot, for the SMP
/// shared-state cost model (`crates/smp`): the table is mutable state
/// shared by every core that processes fragments, so each per-message
/// lookup/update goes through the shared L2 with coherence accounting.
/// One slot ≈ a descriptor header plus the hole list — two 32-byte
/// lines.
pub const REASSEMBLY_SLOT_BYTES: u64 = 64;
/// Total simulated footprint of the shared reassembly table.
pub const REASSEMBLY_TABLE_BYTES: u64 = MAX_REASSEMBLIES as u64 * REASSEMBLY_SLOT_BYTES;

/// Splits `payload` into fragments that fit `mtu` (the IP packet size
/// bound, header included). Returns complete serialized IP packets, each
/// built by [`Ipv4Repr::packet`] with its own offset and MF bit in
/// `flags_frag`. Fragment offsets are in 8-byte units, so every fragment
/// except the last carries a multiple of 8 payload bytes.
pub fn fragment(repr: &Ipv4Repr, payload: &[u8], mtu: usize) -> Result<Vec<Vec<u8>>> {
    assert!(mtu > IPV4_HEADER_LEN + 8, "mtu too small to carry fragments");
    if IPV4_HEADER_LEN + payload.len() <= mtu {
        return Ok(vec![repr.packet(payload)]);
    }
    if repr.flags_frag & Ipv4Repr::DONT_FRAG != 0 {
        return Err(Error::Exhausted);
    }
    let max_chunk = ((mtu - IPV4_HEADER_LEN) / 8) * 8;
    let fragments = payload.chunks(max_chunk).enumerate().map(|(i, chunk)| {
        let offset = i * max_chunk;
        let more = offset + chunk.len() < payload.len();
        Ipv4Repr {
            flags_frag: (offset / 8) as u16 | if more { Ipv4Repr::MORE_FRAGS } else { 0 },
            payload_len: chunk.len(),
            ..*repr
        }
        .packet(chunk)
    });
    Ok(fragments.collect())
}

/// A fragment's identity: who sent which datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    ident: u16,
}

#[derive(Debug)]
struct Reassembly {
    key: Key,
    /// Received spans as (offset, data).
    runs: Vec<(usize, Vec<u8>)>,
    /// Total length, known once the last fragment arrives.
    total_len: Option<usize>,
    /// Expiry deadline.
    deadline: u64,
}

impl Reassembly {
    fn bytes_held(&self) -> usize {
        self.runs.iter().map(|(_, d)| d.len()).sum()
    }

    fn is_complete(&self) -> bool {
        let Some(total) = self.total_len else {
            return false;
        };
        // Coverage check: runs are disjoint by insertion, so complete
        // means the byte count matches and offsets chain.
        let mut runs: Vec<(usize, usize)> =
            self.runs.iter().map(|(o, d)| (*o, d.len())).collect();
        runs.sort_unstable();
        let mut next = 0usize;
        for (o, len) in runs {
            if o > next {
                return false;
            }
            next = next.max(o + len);
        }
        next == total
    }

    /// The datagram, once [`Reassembly::is_complete`] holds: runs are
    /// disjoint (input refuses overlaps) and chain from 0 to `total_len`
    /// without gaps, so in offset order they concatenate to it.
    fn assemble(mut self) -> Vec<u8> {
        self.runs.sort_by_key(|(o, _)| *o);
        self.runs.into_iter().flat_map(|(_, d)| d).collect()
    }
}

/// Reassembly statistics.
///
/// `timeouts` and `evictions` are distinct failure modes: a timeout
/// means a datagram's fragments stopped arriving (loss upstream), an
/// eviction means the reassembly table was full and an older pending
/// datagram was displaced to admit a new one (buffer pressure). Folding
/// the two together made the impairments sweep blame expiry for what
/// was really capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    pub fragments_in: u64,
    pub datagrams_completed: u64,
    /// Pending reassemblies discarded because their deadline passed.
    pub timeouts: u64,
    /// Pending reassemblies displaced (oldest-first) to admit a new
    /// datagram while the table was full.
    pub evictions: u64,
    /// Fragments or reassemblies discarded for exceeding the per-datagram
    /// byte cap (hostile or broken senders).
    pub dropped_no_buffer: u64,
}

/// The reassembler: a bounded set of in-progress datagrams.
#[derive(Debug, Default)]
pub struct Reassembler {
    pending: Vec<Reassembly>,
    stats: ReassemblyStats,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// Number of datagrams currently being reassembled.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Feeds one fragment: its parsed header (whose `flags_frag` holds
    /// the MF bit and the offset in 8-byte units) and its payload bytes.
    /// Returns the complete payload once the datagram closes.
    pub fn input(&mut self, repr: &Ipv4Repr, payload: &[u8], now_ms: u64) -> Option<Vec<u8>> {
        self.expire(now_ms);
        self.stats.fragments_in += 1;
        let more = repr.flags_frag & Ipv4Repr::MORE_FRAGS != 0;
        let offset = ((repr.flags_frag & 0x1fff) as usize) * 8;
        let key = Key {
            src: repr.src,
            dst: repr.dst,
            protocol: repr.protocol.into(),
            ident: repr.ident,
        };

        let idx = match self.pending.iter().position(|r| r.key == key) {
            Some(i) => i,
            None => {
                if self.pending.len() >= MAX_REASSEMBLIES {
                    // Table full: evict the pending reassembly closest to
                    // its deadline (the oldest) rather than dropping the
                    // new datagram's fragment — newer traffic is likelier
                    // to complete than a datagram already waiting on
                    // missing pieces. Counted as an eviction, not a
                    // timeout: this is buffer pressure, not expiry.
                    if let Some(oldest) = self
                        .pending
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, r)| r.deadline)
                        .map(|(i, _)| i)
                    {
                        self.pending.swap_remove(oldest);
                        self.stats.evictions += 1;
                    }
                }
                self.pending.push(Reassembly {
                    key,
                    runs: Vec::new(),
                    total_len: None,
                    deadline: now_ms + REASSEMBLY_TIMEOUT_MS,
                });
                self.pending.len() - 1
            }
        };
        let r = &mut self.pending[idx];
        if offset + payload.len() > MAX_DATAGRAM
            || r.bytes_held() + payload.len() > MAX_DATAGRAM
        {
            // Hostile or broken: abandon the whole reassembly.
            self.pending.swap_remove(idx);
            self.stats.dropped_no_buffer += 1;
            return None;
        }
        // Duplicate fragments replace nothing: ignore exact repeats,
        // keep first-arrival bytes on overlap (consistent with the TCP
        // assembler's policy).
        let overlaps = r
            .runs
            .iter()
            .any(|(o, d)| *o < offset + payload.len() && offset < *o + d.len());
        if !overlaps {
            r.runs.push((offset, payload.to_vec()));
        }
        if !more {
            r.total_len = Some(offset + payload.len());
        }
        if r.is_complete() {
            let done = self.pending.swap_remove(idx);
            self.stats.datagrams_completed += 1;
            return Some(done.assemble());
        }
        None
    }

    /// Drops reassemblies past their deadline.
    pub fn expire(&mut self, now_ms: u64) {
        let before = self.pending.len();
        self.pending.retain(|r| r.deadline > now_ms);
        self.stats.timeouts += (before - self.pending.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ipv4::Protocol;

    fn repr(payload_len: usize) -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: Protocol::Udp,
            ttl: 64,
            ident: 0x4242,
            flags_frag: 0,
            payload_len,
        }
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 + 5) as u8).collect()
    }

    /// Parses one fragment with the receive path's codec and feeds it.
    fn feed(re: &mut Reassembler, packet: &[u8], now_ms: u64) -> Option<Vec<u8>> {
        let (r, data) = Ipv4Repr::parse(packet).unwrap();
        re.input(&r, data, now_ms)
    }

    #[test]
    fn small_payload_is_not_fragmented() {
        let p = payload(100);
        let frags = fragment(&repr(100), &p, 1500).unwrap();
        assert_eq!(frags.len(), 1);
        let (r, data) = Ipv4Repr::parse(&frags[0]).unwrap();
        assert_eq!(r, repr(100));
        assert_eq!(data, &p[..]);
    }

    #[test]
    fn fragment_then_reassemble_in_order() {
        let p = payload(4000);
        let frags = fragment(&repr(4000), &p, 1500).unwrap();
        assert_eq!(frags.len(), 3);
        let mut re = Reassembler::new();
        let mut done = None;
        for f in &frags {
            done = feed(&mut re, f, 0);
        }
        assert_eq!(done.expect("complete"), p);
        assert_eq!(re.stats().datagrams_completed, 1);
        assert_eq!(re.pending(), 0);
    }

    #[test]
    fn reassembly_handles_any_arrival_order() {
        let p = payload(3000);
        let frags = fragment(&repr(3000), &p, 576).unwrap();
        assert!(frags.len() >= 5);
        // Reverse order: completes only on the final missing piece.
        let mut re = Reassembler::new();
        let mut done = None;
        for f in frags.iter().rev() {
            assert!(done.is_none());
            done = feed(&mut re, f, 0);
        }
        assert_eq!(done.expect("complete"), p);
    }

    #[test]
    fn fragments_are_8_byte_aligned_and_mf_flagged() {
        let p = payload(3000);
        let frags = fragment(&repr(3000), &p, 576).unwrap();
        let mut next_offset = 0;
        for (i, f) in frags.iter().enumerate() {
            let (r, data) = Ipv4Repr::parse(f).unwrap();
            let last = i == frags.len() - 1;
            assert_eq!(
                r.flags_frag & Ipv4Repr::MORE_FRAGS != 0,
                !last,
                "MF on all but last"
            );
            assert_eq!((r.flags_frag & 0x1fff) as usize * 8, next_offset);
            assert_eq!(
                r.ident,
                repr(0).ident,
                "every fragment keeps the datagram's ident"
            );
            if !last {
                assert_eq!(data.len() % 8, 0, "non-final fragments 8-aligned");
            }
            next_offset += data.len();
        }
        assert_eq!(next_offset, p.len());
    }

    #[test]
    fn dont_frag_refuses() {
        let r = Ipv4Repr {
            flags_frag: Ipv4Repr::DONT_FRAG,
            ..repr(4000)
        };
        assert_eq!(fragment(&r, &payload(4000), 1500), Err(Error::Exhausted));
    }

    #[test]
    fn interleaved_datagrams_keep_separate_buffers() {
        let p1 = payload(2000);
        let p2: Vec<u8> = payload(2000).iter().map(|b| !b).collect();
        let r2 = Ipv4Repr {
            ident: 0x9999,
            ..repr(2000)
        };
        let f1 = fragment(&repr(2000), &p1, 576).unwrap();
        let f2 = fragment(&r2, &p2, 576).unwrap();
        let mut re = Reassembler::new();
        let mut done = Vec::new();
        for (a, b) in f1.iter().zip(&f2) {
            for f in [a, b] {
                done.extend(feed(&mut re, f, 0));
            }
        }
        assert_eq!(done.len(), 2);
        assert!(done.contains(&p1));
        assert!(done.contains(&p2));
    }

    #[test]
    fn timeout_discards_partial_reassembly() {
        let p = payload(3000);
        let frags = fragment(&repr(3000), &p, 576).unwrap();
        let mut re = Reassembler::new();
        feed(&mut re, &frags[0], 0);
        assert_eq!(re.pending(), 1);
        re.expire(REASSEMBLY_TIMEOUT_MS + 1);
        assert_eq!(re.pending(), 0);
        assert_eq!(re.stats().timeouts, 1);
        // A late fragment then starts a fresh (never-completing) buffer.
        assert!(feed(&mut re, &frags[1], REASSEMBLY_TIMEOUT_MS + 2).is_none());
    }

    #[test]
    fn buffer_exhaustion_evicts_oldest_for_fifth_datagram() {
        let mut re = Reassembler::new();
        // Datagram `ident` arrives at time `ident` ms, so ident 0 is the
        // oldest (earliest deadline) when the table fills.
        for ident in 0..=MAX_REASSEMBLIES as u16 {
            let r = Ipv4Repr {
                ident,
                ..repr(2000)
            };
            let frags = fragment(&r, &payload(2000), 576).unwrap();
            feed(&mut re, &frags[0], u64::from(ident));
        }
        assert_eq!(re.pending(), MAX_REASSEMBLIES);
        assert_eq!(re.stats().evictions, 1, "capacity pressure is an eviction");
        assert_eq!(re.stats().timeouts, 0, "…not a timeout");
        assert_eq!(re.stats().dropped_no_buffer, 0, "…and not a byte-cap drop");
        // The evicted datagram was ident 0: completing it is no longer
        // possible, while the newest (ident 4) still can complete.
        let newest = Ipv4Repr {
            ident: MAX_REASSEMBLIES as u16,
            ..repr(2000)
        };
        let frags = fragment(&newest, &payload(2000), 576).unwrap();
        let mut done = None;
        for f in &frags[1..] {
            done = feed(&mut re, f, 10);
        }
        assert!(done.is_some(), "the newly admitted datagram completes");
    }

    #[test]
    fn eviction_and_timeout_counters_stay_separate() {
        let mut re = Reassembler::new();
        let frags = fragment(&repr(3000), &payload(3000), 576).unwrap();
        feed(&mut re, &frags[0], 0);
        re.expire(REASSEMBLY_TIMEOUT_MS + 1);
        assert_eq!(re.stats().timeouts, 1);
        assert_eq!(re.stats().evictions, 0, "expiry must not count as eviction");
    }

    #[test]
    fn duplicate_fragments_ignored() {
        let p = payload(2000);
        let frags = fragment(&repr(2000), &p, 576).unwrap();
        let mut re = Reassembler::new();
        let mut done = None;
        // Every fragment arrives twice, except the last (whose repeat
        // would legitimately start a fresh reassembly after completion).
        let (last, rest) = frags.split_last().expect("multiple fragments");
        for f in rest.iter().flat_map(|f| [f, f]).chain([last]) {
            if let Some(d) = feed(&mut re, f, 0) {
                done = Some(d);
            }
        }
        assert_eq!(done.expect("complete"), p);
        assert_eq!(re.stats().datagrams_completed, 1);
        assert_eq!(re.pending(), 0, "duplicates left no residue");
    }
}
