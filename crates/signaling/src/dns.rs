//! A DNS-shaped query/response protocol (RFC 1035 subset).
//!
//! DNS heads the paper's list of ubiquitous small-message protocols
//! ("DNS, ICMP, IGMP, TCP's connection control messages, all except two
//! messages in NFS"). This module provides a real codec — header, QNAME
//! label encoding, question and A-record answer sections — and a tiny
//! authoritative server, so the small-message workloads have a second
//! functional protocol beside Q.93B.
//!
//! Kept deliberately narrow, smoltcp-style: queries for A records over
//! UDP framing, no name compression on parse (emitted names are always
//! uncompressed), no EDNS.

use netstack::table::OaTable;
use netstack::wire::ipv4::Ipv4Addr;

/// DNS response codes we produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    NoError,
    FormErr,
    NxDomain,
    NotImp,
}

impl Rcode {
    fn to_bits(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
        }
    }

    fn from_bits(b: u16) -> Rcode {
        match b & 0xf {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            3 => Rcode::NxDomain,
            _ => Rcode::NotImp,
        }
    }
}

/// A parsed DNS message (single-question, A-record answers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id.
    pub id: u16,
    /// True for responses.
    pub response: bool,
    /// Response code (`NoError` on queries).
    pub rcode: Rcode,
    /// The question name, as dotted labels (e.g. `www.example.com`).
    pub qname: String,
    /// Answer addresses (empty on queries and errors).
    pub answers: Vec<Ipv4Addr>,
}

/// QTYPE A, QCLASS IN — the only question we speak.
const QTYPE_A: u16 = 1;
const QCLASS_IN: u16 = 1;

impl DnsMessage {
    /// A query for the A records of `qname`.
    pub fn query(id: u16, qname: &str) -> Self {
        DnsMessage {
            id,
            response: false,
            rcode: Rcode::NoError,
            qname: qname.to_string(),
            answers: Vec::new(),
        }
    }

    /// Serializes the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags = 0u16;
        if self.response {
            flags |= 0x8000; // QR
            flags |= 0x0400; // AA
        } else {
            flags |= 0x0100; // RD
        }
        flags |= self.rcode.to_bits();
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes()); // ANCOUNT
        out.extend_from_slice(&0u16.to_be_bytes()); // NSCOUNT
        out.extend_from_slice(&0u16.to_be_bytes()); // ARCOUNT
        // Question.
        encode_name(&self.qname, &mut out);
        out.extend_from_slice(&QTYPE_A.to_be_bytes());
        out.extend_from_slice(&QCLASS_IN.to_be_bytes());
        // Answers: repeat the name uncompressed, TTL 300, RDLENGTH 4.
        for a in &self.answers {
            encode_name(&self.qname, &mut out);
            out.extend_from_slice(&QTYPE_A.to_be_bytes());
            out.extend_from_slice(&QCLASS_IN.to_be_bytes());
            out.extend_from_slice(&300u32.to_be_bytes());
            out.extend_from_slice(&4u16.to_be_bytes());
            out.extend_from_slice(&a.0);
        }
        out
    }

    /// Parses a message (single question; A/IN answers kept, others
    /// rejected as `NotImp` by the server rather than here).
    pub fn decode(buf: &[u8]) -> Result<DnsMessage, String> {
        if buf.len() < 12 {
            return Err("truncated header".into());
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let qdcount = u16::from_be_bytes([buf[4], buf[5]]);
        let ancount = u16::from_be_bytes([buf[6], buf[7]]);
        if qdcount != 1 {
            return Err(format!("expected exactly one question, got {qdcount}"));
        }
        let mut pos = 12;
        let qname = decode_name(buf, &mut pos)?;
        if pos + 4 > buf.len() {
            return Err("truncated question".into());
        }
        let qtype = u16::from_be_bytes([buf[pos], buf[pos + 1]]);
        let qclass = u16::from_be_bytes([buf[pos + 2], buf[pos + 3]]);
        pos += 4;
        if qtype != QTYPE_A || qclass != QCLASS_IN {
            return Err("only A/IN questions supported".into());
        }
        let mut answers = Vec::new();
        for _ in 0..ancount {
            let _name = decode_name(buf, &mut pos)?;
            if pos + 10 > buf.len() {
                return Err("truncated answer".into());
            }
            let rdlen =
                u16::from_be_bytes([buf[pos + 8], buf[pos + 9]]) as usize;
            let rdata_at = pos + 10;
            if rdata_at + rdlen > buf.len() {
                return Err("truncated rdata".into());
            }
            if rdlen == 4 {
                answers.push(Ipv4Addr([
                    buf[rdata_at],
                    buf[rdata_at + 1],
                    buf[rdata_at + 2],
                    buf[rdata_at + 3],
                ]));
            }
            pos = rdata_at + rdlen;
        }
        Ok(DnsMessage {
            id,
            response: flags & 0x8000 != 0,
            rcode: Rcode::from_bits(flags),
            qname,
            answers,
        })
    }
}

fn encode_name(name: &str, out: &mut Vec<u8>) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        debug_assert!(label.len() < 64, "labels are at most 63 bytes");
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
}

fn decode_name(buf: &[u8], pos: &mut usize) -> Result<String, String> {
    let mut labels: Vec<String> = Vec::new();
    loop {
        let len = *buf.get(*pos).ok_or("truncated name")? as usize;
        *pos += 1;
        if len == 0 {
            break;
        }
        if len & 0xc0 != 0 {
            return Err("compressed names not supported".into());
        }
        if labels.len() > 32 || *pos + len > buf.len() {
            return Err("bad label".into());
        }
        labels.push(
            String::from_utf8(buf[*pos..*pos + len].to_vec())
                .map_err(|_| "non-utf8 label".to_string())?,
        );
        *pos += len;
    }
    Ok(labels.join("."))
}

/// Server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnsStats {
    pub queries: u64,
    pub answered: u64,
    pub nxdomain: u64,
    pub formerr: u64,
}

/// A tiny authoritative server over an in-memory zone.
///
/// The zone is an open-addressing table (`netstack::table`) so query
/// handling at large zone sizes walks a short probe run rather than a
/// tree; lookups are point queries, so behavior is unchanged.
#[derive(Debug, Default)]
pub struct DnsServer {
    zone: OaTable<String, Vec<Ipv4Addr>>,
    stats: DnsStats,
}

impl DnsServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an A record.
    pub fn add_record(&mut self, name: &str, addr: Ipv4Addr) {
        let key = name.to_ascii_lowercase();
        match self.zone.get_mut(&key) {
            Some(addrs) => addrs.push(addr),
            None => {
                self.zone.insert(key, vec![addr]);
            }
        }
    }

    /// Counters.
    pub fn stats(&self) -> DnsStats {
        self.stats
    }

    /// Handles one query datagram, returning the response datagram.
    pub fn handle(&mut self, query_bytes: &[u8]) -> Vec<u8> {
        self.stats.queries += 1;
        match DnsMessage::decode(query_bytes) {
            Ok(q) if !q.response => {
                let key = q.qname.to_ascii_lowercase();
                match self.zone.get(&key) {
                    Some(addrs) => {
                        self.stats.answered += 1;
                        DnsMessage {
                            response: true,
                            rcode: Rcode::NoError,
                            answers: addrs.clone(),
                            ..q
                        }
                        .encode()
                    }
                    None => {
                        self.stats.nxdomain += 1;
                        DnsMessage {
                            response: true,
                            rcode: Rcode::NxDomain,
                            ..q
                        }
                        .encode()
                    }
                }
            }
            _ => {
                self.stats.formerr += 1;
                // Minimal FORMERR with a best-effort id echo.
                let id = query_bytes
                    .get(0..2)
                    .map(|b| u16::from_be_bytes([b[0], b[1]]))
                    .unwrap_or(0);
                DnsMessage {
                    id,
                    response: true,
                    rcode: Rcode::FormErr,
                    qname: String::new(),
                    answers: Vec::new(),
                }
                .encode()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let q = DnsMessage::query(0xbeef, "www.example.com");
        let d = DnsMessage::decode(&q.encode()).unwrap();
        assert_eq!(d, q);
        assert!(!d.response);
        // DNS queries are the paper's canonical small message.
        assert!(q.encode().len() < 64, "query is {} bytes", q.encode().len());
    }

    #[test]
    fn response_round_trip_with_answers() {
        let mut r = DnsMessage::query(7, "a.b.c");
        r.response = true;
        r.answers = vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
        let d = DnsMessage::decode(&r.encode()).unwrap();
        assert_eq!(d.answers, r.answers);
        assert!(d.response);
    }

    #[test]
    fn server_answers_known_names() {
        let mut s = DnsServer::new();
        s.add_record("ns.example.com", Ipv4Addr::new(192, 168, 69, 1));
        s.add_record("ns.example.com", Ipv4Addr::new(192, 168, 69, 2));
        let reply = s.handle(&DnsMessage::query(1, "NS.Example.Com").encode());
        let d = DnsMessage::decode(&reply).unwrap();
        assert_eq!(d.rcode, Rcode::NoError);
        assert_eq!(d.answers.len(), 2, "case-insensitive lookup");
        assert_eq!(d.id, 1);
    }

    #[test]
    fn server_nxdomain_and_formerr() {
        let mut s = DnsServer::new();
        let reply = s.handle(&DnsMessage::query(2, "nope.invalid").encode());
        assert_eq!(DnsMessage::decode(&reply).unwrap().rcode, Rcode::NxDomain);
        let reply = s.handle(&[0xde, 0xad, 0xbe]);
        assert_eq!(DnsMessage::decode(&reply).unwrap().rcode, Rcode::FormErr);
        assert_eq!(s.stats().nxdomain, 1);
        assert_eq!(s.stats().formerr, 1);
    }

    #[test]
    fn malformed_names_rejected() {
        let mut q = DnsMessage::query(1, "ok.example").encode();
        q[12] = 0xc0; // compression pointer in the question
        assert!(DnsMessage::decode(&q).is_err());
        assert!(DnsMessage::decode(&[0u8; 11]).is_err());
        // Label length running past the buffer.
        let mut q = DnsMessage::query(1, "x").encode();
        q[12] = 60;
        assert!(DnsMessage::decode(&q).is_err());
    }

    #[test]
    fn round_trip_over_udp_framing() {
        // The full small-message round trip: DNS in UDP in IPv4.
        use netstack::wire::udp::UdpRepr;
        let src = Ipv4Addr::new(10, 0, 0, 9);
        let dst = Ipv4Addr::new(10, 0, 0, 53);
        let query = DnsMessage::query(9, "tiny.example").encode();
        let dgram = UdpRepr {
            src_port: 4000,
            dst_port: 53,
        }
        .packet(src, dst, &query);
        let (_, payload) = UdpRepr::parse(&dgram, src, dst).unwrap();
        let mut server = DnsServer::new();
        server.add_record("tiny.example", Ipv4Addr::new(1, 2, 3, 4));
        let reply = server.handle(payload);
        let d = DnsMessage::decode(&reply).unwrap();
        assert_eq!(d.answers, vec![Ipv4Addr::new(1, 2, 3, 4)]);
        assert!(dgram.len() < 80, "query datagram is small: {}", dgram.len());
    }
}
