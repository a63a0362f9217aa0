//! Property-based tests on the core data structures and invariants,
//! spanning crates: checksum equivalence, wire-format round trips,
//! fragmentation against reassembly, mbuf chains against a reference
//! model, reference sets against a brute-force model, cache accounting
//! invariants, and sequence-number algebra.

use proptest::prelude::*;

// ---------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------

proptest! {
    /// The simple and elaborate routines are the same function.
    #[test]
    fn checksum_routines_equivalent(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(netstack::checksum::simple(&data), netstack::checksum::elaborate(&data));
    }

    /// A buffer containing its own checksum verifies to zero.
    #[test]
    fn checksum_self_verifies(mut data in proptest::collection::vec(any::<u8>(), 2..512)) {
        // Force even length so the checksum slot is a whole word.
        if data.len() % 2 == 1 { data.pop(); }
        let ck = netstack::checksum::simple(&data);
        data.extend_from_slice(&ck.to_be_bytes());
        prop_assert_eq!(netstack::checksum::simple(&data), 0);
    }

    /// RFC 1624 incremental update equals full recomputation.
    #[test]
    fn checksum_incremental_update(
        mut data in proptest::collection::vec(any::<u8>(), 4..256),
        idx in 0usize..100,
        new_word in any::<u16>(),
    ) {
        if data.len() % 2 == 1 { data.pop(); }
        // A word-aligned index strictly inside the buffer.
        let idx = (idx % (data.len() / 2)) * 2;
        let old = netstack::checksum::simple(&data);
        let old_word = u16::from_be_bytes([data[idx], data[idx + 1]]);
        data[idx..idx + 2].copy_from_slice(&new_word.to_be_bytes());
        prop_assert_eq!(
            netstack::checksum::update_word(old, old_word, new_word),
            netstack::checksum::simple(&data)
        );
    }
}

// ---------------------------------------------------------------------
// Wire formats round-trip
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn ethernet_round_trip(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(),
                           ethertype in any::<u16>(),
                           payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        use netstack::wire::ethernet::*;
        let r = EthernetRepr {
            dst: EthernetAddr(dst),
            src: EthernetAddr(src),
            ethertype: ethertype.into(),
        };
        let frame = r.frame(&payload);
        prop_assert_eq!(EthernetRepr::parse(&frame), Ok((r, &payload[..])));
    }

    /// The flags/fragment-offset word round-trips verbatim, and the
    /// payload stops at the total length whatever padding follows.
    #[test]
    fn ipv4_round_trip(src in any::<[u8; 4]>(), dst in any::<[u8; 4]>(),
                       proto in any::<u8>(), ttl in any::<u8>(), ident in any::<u16>(),
                       flags_frag in any::<u16>(),
                       payload in proptest::collection::vec(any::<u8>(), 0..512),
                       padding in proptest::collection::vec(any::<u8>(), 0..32)) {
        use netstack::wire::ipv4::*;
        let r = Ipv4Repr {
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
            protocol: proto.into(),
            ttl,
            ident,
            flags_frag,
            payload_len: payload.len(),
        };
        let pkt = [r.packet(&payload), padding].concat();
        prop_assert_eq!(Ipv4Repr::parse(&pkt), Ok((r, &payload[..])));
    }

    #[test]
    fn arp_round_trip(request in any::<bool>(),
                      sender_hw in any::<[u8; 6]>(), sender_ip in any::<[u8; 4]>(),
                      target_hw in any::<[u8; 6]>(), target_ip in any::<[u8; 4]>()) {
        use netstack::wire::arp::*;
        use netstack::wire::ethernet::EthernetAddr;
        use netstack::wire::ipv4::Ipv4Addr;
        let r = ArpRepr {
            op: if request { ArpOp::Request } else { ArpOp::Reply },
            sender_hw: EthernetAddr(sender_hw),
            sender_ip: Ipv4Addr(sender_ip),
            target_hw: EthernetAddr(target_hw),
            target_ip: Ipv4Addr(target_ip),
        };
        let pkt = r.packet();
        prop_assert_eq!(ArpRepr::parse(&pkt), Ok((r, &[][..])));
    }

    #[test]
    fn icmp_round_trip(kind in 0u8..3, code in any::<u8>(), ident in any::<u16>(), seq in any::<u16>(),
                       payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        use netstack::wire::icmp::*;
        let kind = match kind {
            0 => IcmpType::EchoReply,
            1 => IcmpType::EchoRequest,
            _ => IcmpType::DestUnreachable(code),
        };
        let r = IcmpRepr { kind, ident, seq };
        let pkt = r.packet(&payload);
        prop_assert_eq!(IcmpRepr::parse(&pkt), Ok((r, &payload[..])));
    }

    /// Bytes after the datagram's UDP length (IP payload the checksum
    /// does not cover) never reach the caller.
    #[test]
    fn udp_round_trip(sp in any::<u16>(), dp in any::<u16>(),
                      src in any::<[u8; 4]>(), dst in any::<[u8; 4]>(),
                      payload in proptest::collection::vec(any::<u8>(), 0..512),
                      trailing in proptest::collection::vec(any::<u8>(), 0..32)) {
        use netstack::wire::ipv4::Ipv4Addr;
        use netstack::wire::udp::*;
        let (a, b) = (Ipv4Addr(src), Ipv4Addr(dst));
        let r = UdpRepr { src_port: sp, dst_port: dp };
        let dgram = [r.packet(a, b, &payload), trailing].concat();
        prop_assert_eq!(UdpRepr::parse(&dgram, a, b), Ok((r, &payload[..])));
    }

    #[test]
    fn tcp_round_trip(sp in any::<u16>(), dp in any::<u16>(), seq in any::<u32>(),
                      ack in any::<u32>(), window in any::<u16>(), flags in 0u8..64,
                      mss in proptest::option::of(any::<u16>()),
                      payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        use netstack::wire::ipv4::Ipv4Addr;
        use netstack::wire::tcp::*;
        let a = Ipv4Addr([1, 2, 3, 4]);
        let b = Ipv4Addr([5, 6, 7, 8]);
        // Build flags from the raw bits via a segment round trip.
        let probe = TcpRepr {
            src_port: sp, dst_port: dp,
            seq: SeqNumber(seq), ack: SeqNumber(ack),
            flags: TcpFlags::default(), window, mss: None,
        };
        let mut seg = probe.segment(a, b, &[]);
        seg[13] = flags;
        // Fix checksum after mutating flags.
        seg[16] = 0; seg[17] = 0;
        let ck = netstack::checksum::pseudo_header_v4(a.0, b.0, 6, &seg);
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        let (parsed, _) = TcpRepr::parse(&seg, a, b).unwrap();
        let r = TcpRepr { flags: parsed.flags, mss, ..probe };
        let seg = r.segment(a, b, &payload);
        prop_assert_eq!(TcpRepr::parse(&seg, a, b), Ok((r, &payload[..])));
    }

    /// Junk TCP options behind a *valid* checksum: the options walk never
    /// panics, and an accepted segment's payload starts at its data offset.
    #[test]
    fn tcp_junk_options_never_panic(
        // Half the bytes are small, so END/NOP/MSS kinds and short lengths are common.
        opts in proptest::collection::vec(prop_oneof![any::<u8>(), 0u8..5], 0..41),
        offset_words in proptest::option::of(0u8..16),
        payload in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        use netstack::wire::ipv4::Ipv4Addr;
        use netstack::wire::tcp::*;
        let (a, b) = (Ipv4Addr([1, 2, 3, 4]), Ipv4Addr([5, 6, 7, 8]));
        let opts = &opts[..opts.len() / 4 * 4];
        let header = TcpRepr {
            src_port: 1, dst_port: 2, seq: SeqNumber(3), ack: SeqNumber(4),
            flags: TcpFlags::SYN, window: 5, mss: None,
        }.segment(a, b, &[]);
        let mut seg = [header.as_slice(), opts, &payload].concat();
        // Mostly the offset that covers the options; sometimes any nibble.
        let words = offset_words.unwrap_or((5 + opts.len() / 4) as u8);
        seg[12] = words << 4;
        seg[16] = 0; seg[17] = 0;
        let ck = netstack::checksum::pseudo_header_v4(a.0, b.0, 6, &seg);
        seg[16..18].copy_from_slice(&ck.to_be_bytes());
        if let Ok((_, rest)) = TcpRepr::parse(&seg, a, b) {
            prop_assert_eq!(rest, &seg[usize::from(words) * 4..]);
        }
    }

    /// `fragment()` then the receive path's one IPv4 parse: every
    /// fragment carries the offset and MF bit reassembly needs, and the
    /// fragments, in any arrival order, reassemble to the input.
    #[test]
    fn fragments_parse_and_reassemble(
        len in 0usize..5000,
        mtu in 29usize..1600,
        seed in any::<u64>(),
    ) {
        use netstack::ipfrag::{fragment, Reassembler};
        use netstack::wire::ipv4::*;
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let repr = Ipv4Repr {
            src: Ipv4Addr([10, 0, 0, 1]),
            dst: Ipv4Addr([10, 0, 0, 2]),
            protocol: Protocol::Udp,
            ttl: 64,
            ident: 0x4242,
            flags_frag: 0,
            payload_len: len,
        };
        let frags = fragment(&repr, &payload, mtu).unwrap();
        let mut offset = 0;
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(f.len() <= mtu);
            let (r, data) = Ipv4Repr::parse(f).unwrap();
            prop_assert_eq!((r.src, r.dst, r.protocol, r.ident), (repr.src, repr.dst, repr.protocol, repr.ident));
            prop_assert_eq!(usize::from(r.flags_frag & 0x1fff) * 8, offset);
            prop_assert_eq!(r.flags_frag & Ipv4Repr::MORE_FRAGS != 0, i + 1 < frags.len());
            prop_assert_eq!(data, &payload[offset..offset + data.len()]);
            offset += data.len();
        }
        prop_assert_eq!(offset, len);
        // Deterministic Fisher-Yates arrival order from the seed.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, ((s >> 33) as usize) % (i + 1));
        }
        let mut re = Reassembler::new();
        let mut done = None;
        for &i in &order {
            prop_assert!(done.is_none(), "completed before the last fragment");
            let (r, data) = Ipv4Repr::parse(&frags[i]).unwrap();
            done = re.input(&r, data, 0);
        }
        prop_assert_eq!(done, Some(payload));
    }

    /// Arbitrary bytes never panic the parsers (robustness, smoltcp-style).
    #[test]
    fn parsers_never_panic(junk in proptest::collection::vec(any::<u8>(), 0..128)) {
        use netstack::wire::ipv4::Ipv4Addr;
        let a = Ipv4Addr([1, 1, 1, 1]);
        let b = Ipv4Addr([2, 2, 2, 2]);
        let _ = netstack::wire::ethernet::EthernetRepr::parse(&junk);
        let _ = netstack::wire::ipv4::Ipv4Repr::parse(&junk);
        let _ = netstack::wire::arp::ArpRepr::parse(&junk);
        let _ = netstack::wire::icmp::IcmpRepr::parse(&junk);
        let _ = netstack::wire::udp::UdpRepr::parse(&junk, a, b);
        let _ = netstack::wire::tcp::TcpRepr::parse(&junk, a, b);
        let _ = signaling::wire::Message::decode(&junk);
    }
}

// ---------------------------------------------------------------------
// Signalling codec
// ---------------------------------------------------------------------

fn arb_ie() -> impl Strategy<Value = signaling::wire::InfoElement> {
    use signaling::wire::{Cause, InfoElement};
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(InfoElement::CalledParty),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(InfoElement::CallingParty),
        any::<u32>().prop_map(|pcr| InfoElement::TrafficDescriptor { pcr }),
        (any::<u16>(), any::<u16>()).prop_map(|(vpi, vci)| InfoElement::ConnectionId { vpi, vci }),
        any::<u8>().prop_map(|c| InfoElement::Cause(Cause::Other(c))),
    ]
}

proptest! {
    #[test]
    fn signaling_message_round_trip(
        call_ref in 0u32..0x0100_0000,
        ies in proptest::collection::vec(arb_ie(), 0..6),
    ) {
        use signaling::wire::{Message, MessageType};
        let mut m = Message::new(call_ref, MessageType::Setup);
        for ie in ies { m = m.with(ie); }
        let decoded = Message::decode(&m.encode()).unwrap();
        // Cause values normalize through their named variants, so compare
        // re-encodings rather than structures.
        prop_assert_eq!(decoded.encode(), m.encode());
        prop_assert_eq!(decoded.call_ref, call_ref);
    }
}

// ---------------------------------------------------------------------
// Mbuf chains vs. a Vec<u8> reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChainOp {
    Strip(usize),
    Trim(usize),
    Prepend(Vec<u8>),
    Concat(Vec<u8>),
    Pullup(usize),
}

fn arb_op() -> impl Strategy<Value = ChainOp> {
    prop_oneof![
        (0usize..64).prop_map(ChainOp::Strip),
        (0usize..64).prop_map(ChainOp::Trim),
        proptest::collection::vec(any::<u8>(), 1..32).prop_map(ChainOp::Prepend),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(ChainOp::Concat),
        (0usize..64).prop_map(ChainOp::Pullup),
    ]
}

proptest! {
    /// Any sequence of chain operations leaves the chain's contents equal
    /// to a plain byte-vector model.
    #[test]
    fn mbuf_chain_matches_reference_model(
        initial in proptest::collection::vec(any::<u8>(), 0..128),
        ops in proptest::collection::vec(arb_op(), 0..24),
    ) {
        use netstack::mbuf::MbufChain;
        let mut chain = MbufChain::from_slice(&initial);
        let mut model = initial.clone();
        for op in ops {
            match op {
                ChainOp::Strip(n) => {
                    let ok = chain.strip(n).is_ok();
                    prop_assert_eq!(ok, n <= model.len());
                    if ok { model.drain(..n); }
                }
                ChainOp::Trim(n) => {
                    let ok = chain.trim(n).is_ok();
                    prop_assert_eq!(ok, n <= model.len());
                    if ok { model.truncate(model.len() - n); }
                }
                ChainOp::Prepend(bytes) => {
                    chain.prepend(bytes.len()).copy_from_slice(&bytes);
                    let mut new_model = bytes;
                    new_model.extend_from_slice(&model);
                    model = new_model;
                }
                ChainOp::Concat(bytes) => {
                    chain.concat(MbufChain::from_slice(&bytes));
                    model.extend_from_slice(&bytes);
                }
                ChainOp::Pullup(n) => {
                    match chain.pullup(n) {
                        Ok(head) => {
                            prop_assert!(n <= model.len());
                            prop_assert_eq!(head, &model[..n]);
                        }
                        Err(_) => prop_assert!(n > model.len()),
                    }
                }
            }
            prop_assert_eq!(chain.len(), model.len());
        }
        prop_assert_eq!(chain.to_vec(), model);
    }
}

// ---------------------------------------------------------------------
// ByteRefSet vs. a BTreeSet reference model
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn byterefset_matches_set_model(
        inserts in proptest::collection::vec((0u64..512, 0u64..48), 0..40),
        line_size_pow in 2u32..7,
    ) {
        use memtrace::ByteRefSet;
        use std::collections::BTreeSet;
        let line_size = 1u64 << line_size_pow;
        let mut set = ByteRefSet::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for (addr, len) in inserts {
            set.insert(addr, len);
            model.extend(addr..addr + len);
        }
        prop_assert_eq!(set.bytes(), model.len() as u64);
        let model_lines: BTreeSet<u64> = model.iter().map(|b| b / line_size).collect();
        prop_assert_eq!(set.lines(line_size), model_lines.len() as u64);
        for probe in [0u64, 7, 100, 300, 511, 600] {
            prop_assert_eq!(set.contains(probe), model.contains(&probe));
        }
    }
}

// ---------------------------------------------------------------------
// Cache accounting invariants
// ---------------------------------------------------------------------

proptest! {
    /// Hits + misses equals accesses; a second identical pass over any
    /// footprint that fits the cache is all hits.
    #[test]
    fn cache_accounting_invariants(
        addrs in proptest::collection::vec(0u64..(1 << 20), 1..200),
        assoc_pow in 0u32..3,
    ) {
        use cachesim::{AccessKind, Cache, CacheConfig};
        let mut c = Cache::new(CacheConfig {
            size_bytes: 8192,
            line_size: 32,
            associativity: 1 << assoc_pow,
        });
        for &a in &addrs {
            c.access(a, AccessKind::Read);
        }
        let s = *c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert_eq!(s.misses, s.read_misses);
        // Distinct lines bound the compulsory misses from below.
        let distinct: std::collections::BTreeSet<u64> = addrs.iter().map(|a| a / 32).collect();
        prop_assert!(s.misses >= distinct.len() as u64 || distinct.len() > 256);
        prop_assert!(s.misses <= s.accesses());
    }

    /// LRU never evicts the line touched most recently.
    #[test]
    fn mru_line_always_resident(addrs in proptest::collection::vec(0u64..(1 << 16), 1..100)) {
        use cachesim::{AccessKind, Cache, CacheConfig};
        let mut c = Cache::new(CacheConfig {
            size_bytes: 1024,
            line_size: 32,
            associativity: 2,
        });
        for &a in &addrs {
            c.access(a, AccessKind::Read);
            prop_assert!(c.probe(a), "just-touched address must be resident");
        }
    }
}

// ---------------------------------------------------------------------
// Sequence numbers and regions
// ---------------------------------------------------------------------

proptest! {
    /// Wrapping comparisons agree with signed distance for nearby values.
    #[test]
    fn seq_number_algebra(base in any::<u32>(), d1 in 0u32..(1 << 30), d2 in 0u32..(1 << 30)) {
        use netstack::wire::tcp::SeqNumber;
        let a = SeqNumber(base).add(d1);
        let b = SeqNumber(base).add(d2);
        prop_assert_eq!(a.lt(b), d1 < d2);
        prop_assert_eq!(a.le(b), d1 <= d2);
        prop_assert_eq!(a.diff(b), d1.wrapping_sub(d2) as i32);
        prop_assert!(a.le(a) && a.ge(a));
    }

    /// Region line counts are exact against brute force.
    #[test]
    fn region_lines_brute_force(base in 0u64..1000, len in 0u64..1000, pow in 2u32..8) {
        use cachesim::Region;
        let line = 1u64 << pow;
        let r = Region::new(base, len);
        let brute: std::collections::BTreeSet<u64> = (base..base + len).map(|b| b / line).collect();
        prop_assert_eq!(r.lines(line), brute.len() as u64);
    }

    /// Working-set totals are invariant under trace-order permutations of
    /// code references (classification is first-touch, but code class
    /// totals can't change).
    #[test]
    fn working_set_total_stable_under_code_shuffle(
        spans in proptest::collection::vec((0u64..2048, 1u32..64), 1..30),
        seed in any::<u64>(),
    ) {
        use memtrace::trace::{RefKind, Trace};
        use memtrace::workingset::working_set;
        use cachesim::Region;
        let build = |order: &[usize]| {
            let mut t = Trace::new(vec!["L".into()], vec!["p".into()]);
            let f = t.add_function("f", Region::new(0, 4096), 0);
            for &i in order {
                let (addr, len) = spans[i];
                t.record(addr.min(4096 - len as u64), len, RefKind::Code, 0, f);
            }
            working_set(&t, 32).total.code.lines
        };
        let forward: Vec<usize> = (0..spans.len()).collect();
        let mut shuffled = forward.clone();
        // Deterministic Fisher-Yates from the seed.
        let mut s = seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, ((s >> 33) as usize) % (i + 1));
        }
        prop_assert_eq!(build(&forward), build(&shuffled));
    }
}

// ---------------------------------------------------------------------
// TCP reassembly vs. a byte-map reference model
// ---------------------------------------------------------------------

proptest! {
    /// Out-of-order inserts followed by gap fills always deliver the
    /// stream a first-write-wins byte map predicts, regardless of
    /// arrival order.
    #[test]
    fn assembler_matches_byte_map(
        segments in proptest::collection::vec((0usize..600, 1usize..80), 1..20),
    ) {
        use netstack::tcp::assembler::Assembler;
        use std::collections::BTreeMap;

        let mut asm = Assembler::new(1 << 16);
        let mut model: BTreeMap<usize, u8> = BTreeMap::new();
        for (i, &(offset, len)) in segments.iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|j| (i * 37 + j) as u8).collect();
            if asm.insert(offset, &data).is_ok() {
                for (j, &b) in data.iter().enumerate() {
                    model.entry(offset + j).or_insert(b);
                }
            }
        }
        // Drain: advance through the stream one gap at a time.
        let max_off = segments.iter().map(|&(o, l)| o + l).max().unwrap_or(0);
        let mut delivered: BTreeMap<usize, u8> = BTreeMap::new();
        let mut pos = 0usize;
        while pos <= max_off {
            // Simulate 1 byte of in-order data filling position `pos`.
            let released = asm.advance(1);
            let base = pos + 1;
            for (j, &b) in released.iter().enumerate() {
                delivered.insert(base + j, b);
            }
            pos = base + released.len();
        }
        // Every modelled byte whose entire prefix-gap got filled must have
        // been released exactly as stored; released bytes must match.
        for (off, b) in &delivered {
            prop_assert_eq!(Some(b), model.get(off), "byte at {}", off);
        }
        prop_assert!(asm.is_empty(), "fully drained");
        prop_assert_eq!(asm.buffered(), 0);
    }
}

// ---------------------------------------------------------------------
// TLB invariants
// ---------------------------------------------------------------------

proptest! {
    /// The TLB is fully associative LRU: the most recent `entries`
    /// distinct pages are always resident, and hit/miss counts add up.
    #[test]
    fn tlb_lru_invariants(
        addrs in proptest::collection::vec(0u64..(1u64 << 30), 1..200),
        entries in 1u32..16,
    ) {
        use cachesim::{Tlb, TlbConfig};
        let cfg = TlbConfig { entries, page_size: 8192, refill_penalty: 40 };
        let mut tlb = Tlb::new(cfg);
        let mut recent: Vec<u64> = Vec::new(); // distinct pages, MRU first
        for &a in &addrs {
            let page = a >> 13;
            let expected_hit = recent.iter().take(entries as usize).any(|&p| p == page);
            let hit = tlb.access(a);
            prop_assert_eq!(hit, expected_hit, "page {}", page);
            recent.retain(|&p| p != page);
            recent.insert(0, page);
        }
        let s = *tlb.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        // Residency check against the model.
        for (i, &p) in recent.iter().enumerate() {
            prop_assert_eq!(tlb.probe(p << 13), i < entries as usize);
        }
    }
}
