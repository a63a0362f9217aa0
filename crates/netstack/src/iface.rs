//! Interface glue: devices, ARP, and protocol dispatch.
//!
//! An [`Interface`] owns one IP/MAC identity and a [`TcpStack`], answers
//! ARP and ICMP echo itself, delivers UDP to bound ports, and hands TCP
//! segments to the state machine. Frames flow through a [`Device`]; the
//! provided devices are an in-process [`Loopback`] and a [`Channel`] pair
//! (two interfaces wired back-to-back, with optional fault injection in
//! the style of smoltcp's examples).

use crate::error::{Error, Result};
use crate::ipfrag::{fragment, Reassembler, ReassemblyStats};
use crate::tcp::machine::{Instant, TcpStack};
use crate::wire::arp::{ArpOp, ArpRepr};
use crate::wire::ethernet::{EtherType, EthernetAddr, EthernetRepr};
use crate::wire::icmp::{IcmpRepr, IcmpType};
use crate::wire::ipv4::{Ipv4Addr, Ipv4Repr, Protocol, IPV4_HEADER_LEN};
use crate::wire::udp::UdpRepr;
use obs::{NameId, Sink};
use std::cell::RefCell;
use crate::table::OaTable;
use std::collections::VecDeque;
use std::rc::Rc;

/// A link-layer device: somewhere to send frames and receive them from.
pub trait Device {
    /// Queues a frame for transmission.
    fn transmit(&mut self, frame: Vec<u8>);
    /// Takes the next received frame, if any.
    fn receive(&mut self) -> Option<Vec<u8>>;
}

/// A loopback device: everything transmitted is received back.
#[derive(Debug, Default)]
pub struct Loopback {
    queue: VecDeque<Vec<u8>>,
}

impl Loopback {
    /// A fresh loopback device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Device for Loopback {
    fn transmit(&mut self, frame: Vec<u8>) {
        self.queue.push_back(frame);
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        self.queue.pop_front()
    }
}

/// Deterministic fault injection for [`Channel`] devices.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Drop one frame in every `drop_every` (0 disables).
    pub drop_every: u32,
    /// Corrupt one byte in every `corrupt_every` frames (0 disables).
    pub corrupt_every: u32,
}

#[derive(Debug, Default)]
struct ChannelState {
    /// Frames travelling a -> b.
    ab: VecDeque<Vec<u8>>,
    /// Frames travelling b -> a.
    ba: VecDeque<Vec<u8>>,
    faults: Option<FaultConfig>,
    tx_count: u32,
}

/// One endpoint of a bidirectional in-process link.
#[derive(Debug, Clone)]
pub struct Channel {
    state: Rc<RefCell<ChannelState>>,
    /// True for the "a" endpoint.
    is_a: bool,
}

impl Channel {
    /// Creates both endpoints of a link.
    pub fn pair() -> (Channel, Channel) {
        Self::pair_with_faults(None)
    }

    /// Creates a link with deterministic fault injection.
    pub fn pair_with_faults(faults: Option<FaultConfig>) -> (Channel, Channel) {
        let state = Rc::new(RefCell::new(ChannelState {
            faults,
            ..Default::default()
        }));
        (
            Channel {
                state: state.clone(),
                is_a: true,
            },
            Channel { state, is_a: false },
        )
    }
}

impl Device for Channel {
    fn transmit(&mut self, mut frame: Vec<u8>) {
        let mut st = self.state.borrow_mut();
        st.tx_count += 1;
        if let Some(f) = st.faults {
            if f.drop_every != 0 && st.tx_count.is_multiple_of(f.drop_every) {
                return;
            }
            if f.corrupt_every != 0 && st.tx_count.is_multiple_of(f.corrupt_every) {
                // Flip a byte in the middle of the frame (the tail may be
                // link-layer padding outside any checksum).
                let mid = frame.len() / 2;
                if let Some(b) = frame.get_mut(mid) {
                    *b ^= 0xff;
                }
            }
        }
        if self.is_a {
            st.ab.push_back(frame);
        } else {
            st.ba.push_back(frame);
        }
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        let mut st = self.state.borrow_mut();
        if self.is_a {
            st.ba.pop_front()
        } else {
            st.ab.pop_front()
        }
    }
}

/// Interface-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct IfaceStats {
    pub frames_in: u64,
    pub frames_out: u64,
    pub arp_in: u64,
    pub arp_replies_sent: u64,
    pub ip_in: u64,
    pub icmp_echo_replies: u64,
    pub udp_in: u64,
    pub tcp_in: u64,
    pub parse_errors: u64,
    pub not_for_us: u64,
    pub port_unreachable_sent: u64,
    pub fragments_in: u64,
    pub fragments_out: u64,
    pub datagrams_reassembled: u64,
}

/// Interned event names for the interface's observability sink, filled
/// in once when the sink is attached so the input path stays lookup-free.
#[derive(Debug, Clone, Copy)]
struct ObsIds {
    frame_in: NameId,
    parse_error: NameId,
    fragment_in: NameId,
    datagram_reassembled: NameId,
    reassembly_timeout: NameId,
    reassembly_eviction: NameId,
}

/// A received UDP datagram queued on a bound port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    pub src_addr: Ipv4Addr,
    pub src_port: u16,
    pub payload: Vec<u8>,
}

/// A received ICMP echo reply, for ping-style applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchoReply {
    pub from: Ipv4Addr,
    pub ident: u16,
    pub seq: u16,
    pub payload: Vec<u8>,
}

/// One host's network interface: identity, ARP, dispatch, and TCP.
pub struct Interface {
    mac: EthernetAddr,
    ip: Ipv4Addr,
    /// ARP cache: IP -> MAC (open addressing: per-packet next-hop
    /// resolution is a point lookup on the data path).
    arp_cache: OaTable<Ipv4Addr, EthernetAddr>,
    /// Packets awaiting ARP resolution, keyed by next hop.
    arp_pending: OaTable<Ipv4Addr, Vec<Vec<u8>>>,
    /// Bound UDP ports and their receive queues.
    udp_ports: OaTable<u16, VecDeque<UdpDatagram>>,
    /// Received echo replies.
    echo_replies: VecDeque<EchoReply>,
    /// The TCP endpoint.
    pub tcp: TcpStack,
    /// IPv4 fragment reassembly.
    reassembler: Reassembler,
    ip_ident: u16,
    stats: IfaceStats,
    /// Optional observability sink: instant events stamped with the
    /// interface clock (milliseconds). [`Sink::Off`] by default.
    sink: Sink,
    obs: Option<ObsIds>,
}

impl Interface {
    /// Creates an interface with the given link and network identities.
    pub fn new(mac: EthernetAddr, ip: Ipv4Addr, tcp: TcpStack) -> Self {
        Interface {
            mac,
            ip,
            arp_cache: OaTable::new(),
            arp_pending: OaTable::new(),
            udp_ports: OaTable::new(),
            echo_replies: VecDeque::new(),
            tcp,
            reassembler: Reassembler::new(),
            ip_ident: 1,
            stats: IfaceStats::default(),
            sink: Sink::Off,
            obs: None,
        }
    }

    /// Attaches an observability sink; event names are interned as
    /// `<prefix><event>` (e.g. `eth0/frame_in`). Events are stamped with
    /// the caller-supplied [`Instant`] (milliseconds, like the TCP
    /// timers), never a wall clock.
    pub fn set_sink(&mut self, mut sink: Sink, prefix: &str) {
        self.obs = sink.on_mut().map(|rec| ObsIds {
            frame_in: rec.intern(&format!("{prefix}frame_in")),
            parse_error: rec.intern(&format!("{prefix}parse_error")),
            fragment_in: rec.intern(&format!("{prefix}fragment_in")),
            datagram_reassembled: rec.intern(&format!("{prefix}datagram_reassembled")),
            reassembly_timeout: rec.intern(&format!("{prefix}reassembly_timeout")),
            reassembly_eviction: rec.intern(&format!("{prefix}reassembly_eviction")),
        });
        self.sink = sink;
    }

    /// Detaches and returns the sink (leaving [`Sink::Off`] behind).
    pub fn take_sink(&mut self) -> Sink {
        self.obs = None;
        self.sink.take()
    }

    /// Emits `n` copies of one instant event, stamped `now`.
    fn obs_instant(&mut self, pick: fn(&ObsIds) -> NameId, now: Instant, n: u64) {
        let Some(ids) = &self.obs else { return };
        let name = pick(ids);
        if let Some(rec) = self.sink.on_mut() {
            for _ in 0..n {
                rec.instant(name, now);
            }
        }
    }

    /// This interface's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// This interface's MAC address.
    pub fn mac(&self) -> EthernetAddr {
        self.mac
    }

    /// Interface counters.
    pub fn stats(&self) -> &IfaceStats {
        &self.stats
    }

    /// Pre-seeds the ARP cache (useful for tests and loopback setups).
    pub fn add_arp_entry(&mut self, ip: Ipv4Addr, mac: EthernetAddr) {
        self.arp_cache.insert(ip, mac);
    }

    /// Binds a UDP port; datagrams arriving for it are queued.
    pub fn udp_bind(&mut self, port: u16) -> Result<()> {
        if self.udp_ports.contains_key(&port) {
            return Err(Error::Exhausted);
        }
        self.udp_ports.insert(port, VecDeque::new());
        Ok(())
    }

    /// Takes the next datagram received on `port`.
    pub fn udp_recv(&mut self, port: u16) -> Option<UdpDatagram> {
        self.udp_ports.get_mut(&port)?.pop_front()
    }

    /// Sends a UDP datagram (queues an ARP request first if needed).
    pub fn udp_send(
        &mut self,
        device: &mut dyn Device,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) {
        let udp = UdpRepr { src_port, dst_port }.packet(self.ip, dst, payload);
        self.send_ip(device, dst, Protocol::Udp, &udp);
    }

    /// Sends an ICMP echo request.
    pub fn ping(
        &mut self,
        device: &mut dyn Device,
        dst: Ipv4Addr,
        ident: u16,
        seq: u16,
        payload: &[u8],
    ) {
        let icmp = IcmpRepr::echo_request(ident, seq).packet(payload);
        self.send_ip(device, dst, Protocol::Icmp, &icmp);
    }

    /// Takes the next received echo reply.
    pub fn take_echo_reply(&mut self) -> Option<EchoReply> {
        self.echo_replies.pop_front()
    }

    /// Fragment-reassembly counters (completions, timeouts, buffer
    /// exhaustion).
    pub fn reassembly_stats(&self) -> ReassemblyStats {
        self.reassembler.stats()
    }

    /// Datagrams currently held half-assembled.
    pub fn reassembly_pending(&self) -> usize {
        self.reassembler.pending()
    }

    /// Drops reassemblies whose timer ran out and counts them. The
    /// reassembler also expires lazily on fragment input, but a stalled
    /// datagram whose peers go quiet would otherwise pin its buffer
    /// forever; [`Interface::poll`] calls this on every pass.
    pub fn expire_reassembly(&mut self, now: Instant) {
        let before = self.reassembler.stats().timeouts;
        self.reassembler.expire(now);
        let expired = self.reassembler.stats().timeouts - before;
        if expired > 0 {
            self.obs_instant(|ids| ids.reassembly_timeout, now, expired);
        }
    }

    /// Polls the interface: drains received frames through the stack,
    /// runs TCP timers, and flushes TCP output. Returns the number of
    /// frames processed.
    pub fn poll(&mut self, device: &mut dyn Device, now: Instant) -> usize {
        let mut processed = 0;
        while let Some(frame) = device.receive() {
            processed += 1;
            if let Err(_e) = self.input_frame(device, &frame, now) {
                self.stats.parse_errors += 1;
                self.obs_instant(|ids| ids.parse_error, now, 1);
            }
        }
        self.expire_reassembly(now);
        self.tcp.poll(now);
        self.flush_tcp(device);
        processed
    }

    /// Processes one received frame.
    // analyze::hot_path(netstack-rx, rules = "panic-path")
    pub fn input_frame(
        &mut self,
        device: &mut dyn Device,
        frame: &[u8],
        now: Instant,
    ) -> Result<()> {
        self.stats.frames_in += 1;
        self.obs_instant(|ids| ids.frame_in, now, 1);
        let (eth, payload) = EthernetRepr::parse(frame)?;
        if eth.dst != self.mac && !eth.dst.is_broadcast() {
            self.stats.not_for_us += 1;
            return Ok(());
        }
        match eth.ethertype {
            EtherType::Arp => self.input_arp(device, payload),
            EtherType::Ipv4 => self.input_ip(device, payload, now),
            EtherType::Unknown(_) => Ok(()),
        }
    }

    fn input_arp(&mut self, device: &mut dyn Device, packet: &[u8]) -> Result<()> {
        self.stats.arp_in += 1;
        let (arp, _padding) = ArpRepr::parse(packet)?;
        // Learn the sender mapping either way (gratuitous or directed).
        self.arp_cache.insert(arp.sender_ip, arp.sender_hw);
        // Flush packets that were waiting on this resolution.
        if let Some(waiting) = self.arp_pending.remove(&arp.sender_ip) {
            for payload in waiting {
                self.send_ethernet(device, arp.sender_hw, EtherType::Ipv4, &payload);
            }
        }
        if arp.op == ArpOp::Request && arp.target_ip == self.ip {
            let reply = ArpRepr {
                op: ArpOp::Reply,
                sender_hw: self.mac,
                sender_ip: self.ip,
                target_hw: arp.sender_hw,
                target_ip: arp.sender_ip,
            };
            self.send_ethernet(device, arp.sender_hw, EtherType::Arp, &reply.packet());
            self.stats.arp_replies_sent += 1;
        }
        Ok(())
    }

    fn input_ip(&mut self, device: &mut dyn Device, packet: &[u8], now: Instant) -> Result<()> {
        self.stats.ip_in += 1;
        // One parse for whole datagrams and fragments alike.
        let (ip, payload) = Ipv4Repr::parse(packet)?;
        if ip.dst != self.ip && !ip.dst.is_broadcast() {
            self.stats.not_for_us += 1;
            return Ok(());
        }
        // A fragment goes through reassembly; dispatch resumes when the
        // datagram completes.
        let assembled;
        let payload: &[u8] = if ip.flags_frag & 0x3fff != 0 && ip.flags_frag & 0x4000 == 0 {
            self.stats.fragments_in += 1;
            self.obs_instant(|ids| ids.fragment_in, now, 1);
            let evictions_before = self.reassembler.stats().evictions;
            let result = self.reassembler.input(&ip, payload, now);
            let evicted = self.reassembler.stats().evictions - evictions_before;
            if evicted > 0 {
                self.obs_instant(|ids| ids.reassembly_eviction, now, evicted);
            }
            match result {
                Some(whole) => {
                    self.stats.datagrams_reassembled += 1;
                    self.obs_instant(|ids| ids.datagram_reassembled, now, 1);
                    assembled = whole;
                    &assembled
                }
                None => return Ok(()),
            }
        } else {
            payload
        };
        match ip.protocol {
            Protocol::Icmp => self.input_icmp(device, ip.src, payload),
            Protocol::Udp => self.input_udp(device, ip.src, ip.dst, payload),
            Protocol::Tcp => {
                self.stats.tcp_in += 1;
                let result = self.tcp.input(ip.src, ip.dst, payload, now);
                self.flush_tcp(device);
                match result {
                    // Malformed segments are parse errors; protocol-level
                    // outcomes (RST-answered, out-of-window) are not.
                    Err(e @ (Error::Checksum | Error::Truncated | Error::Malformed)) => Err(e),
                    _ => Ok(()),
                }
            }
            Protocol::Unknown(_) => Ok(()),
        }
    }

    fn input_icmp(&mut self, device: &mut dyn Device, src: Ipv4Addr, payload: &[u8]) -> Result<()> {
        let (icmp, data) = IcmpRepr::parse(payload)?;
        match icmp.kind {
            IcmpType::EchoRequest => {
                let reply = icmp.to_echo_reply().packet(data);
                self.send_ip(device, src, Protocol::Icmp, &reply);
                self.stats.icmp_echo_replies += 1;
            }
            IcmpType::EchoReply => {
                self.echo_replies.push_back(EchoReply {
                    from: src,
                    ident: icmp.ident,
                    seq: icmp.seq,
                    payload: data.to_vec(),
                });
            }
            IcmpType::DestUnreachable(_) => {}
        }
        Ok(())
    }

    fn input_udp(
        &mut self,
        device: &mut dyn Device,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
    ) -> Result<()> {
        self.stats.udp_in += 1;
        let (udp, data) = UdpRepr::parse(payload, src, dst)?;
        match self.udp_ports.get_mut(&udp.dst_port) {
            Some(queue) => {
                queue.push_back(UdpDatagram {
                    src_addr: src,
                    src_port: udp.src_port,
                    payload: data.to_vec(),
                });
                Ok(())
            }
            None => {
                // Port unreachable, carrying the offending datagram head.
                let quoted = payload.get(..28).unwrap_or(payload);
                let unreachable = IcmpRepr {
                    kind: IcmpType::DestUnreachable(3),
                    ident: 0,
                    seq: 0,
                }
                .packet(quoted);
                self.send_ip(device, src, Protocol::Icmp, &unreachable);
                self.stats.port_unreachable_sent += 1;
                Err(Error::NoRoute)
            }
        }
    }

    /// Flushes queued TCP segments out through IP.
    pub fn flush_tcp(&mut self, device: &mut dyn Device) {
        for seg in self.tcp.take_output() {
            self.send_ip(device, seg.dst, Protocol::Tcp, &seg.bytes);
        }
    }

    /// Wraps `payload` in IPv4 and sends it toward `dst`, resolving the
    /// next hop with ARP when needed.
    pub fn send_ip(
        &mut self,
        device: &mut dyn Device,
        dst: Ipv4Addr,
        protocol: Protocol,
        payload: &[u8],
    ) {
        // Payloads exceeding the link MTU are fragmented (DF is set only
        // on datagrams that fit).
        let fits = IPV4_HEADER_LEN + payload.len() <= MTU;
        let ip = Ipv4Repr {
            src: self.ip,
            dst,
            protocol,
            ttl: 64,
            ident: self.ip_ident,
            flags_frag: if fits { Ipv4Repr::DONT_FRAG } else { 0 },
            payload_len: payload.len(),
        };
        self.ip_ident = self.ip_ident.wrapping_add(1);
        // analyze::allow(panic-path, reason = "fragment() cannot fail here: DF is cleared exactly when fragmentation is permitted")
        let packets = fragment(&ip, payload, MTU).expect("DF unset when fragmenting");
        if packets.len() > 1 {
            self.stats.fragments_out += packets.len() as u64;
        }

        if dst == self.ip {
            // Deliver to ourselves via the device (loopback semantics).
            for packet in &packets {
                self.send_ethernet(device, self.mac, EtherType::Ipv4, packet);
            }
            return;
        }
        match self.arp_cache.get(&dst) {
            Some(&mac) => {
                for packet in &packets {
                    self.send_ethernet(device, mac, EtherType::Ipv4, packet);
                }
            }
            None => {
                // Queue and ask. (No routing table: the simulated networks
                // are single-segment, so every destination is on-link.)
                match self.arp_pending.get_mut(&dst) {
                    Some(waiting) => waiting.extend(packets),
                    None => {
                        self.arp_pending.insert(dst, packets);
                    }
                }
                let req = ArpRepr {
                    op: ArpOp::Request,
                    sender_hw: self.mac,
                    sender_ip: self.ip,
                    target_hw: EthernetAddr([0; 6]),
                    target_ip: dst,
                };
                self.send_ethernet(
                    device,
                    EthernetAddr::BROADCAST,
                    EtherType::Arp,
                    &req.packet(),
                );
            }
        }
    }

    fn send_ethernet(
        &mut self,
        device: &mut dyn Device,
        dst: EthernetAddr,
        ethertype: EtherType,
        payload: &[u8],
    ) {
        let eth = EthernetRepr {
            dst,
            src: self.mac,
            ethertype,
        };
        let mut frame = eth.frame(payload);
        // Ethernet minimum frame: 60 bytes before the FCS. Receivers use
        // the IP total-length field, so the padding is invisible above L2.
        if frame.len() < MIN_FRAME {
            frame.resize(MIN_FRAME, 0);
        }
        device.transmit(frame);
        self.stats.frames_out += 1;
    }
}

/// Maximum Ethernet payload the simulated links carry (no jumbo frames).
pub const MTU: usize = 1500;

/// Minimum Ethernet frame length before the FCS; shorter frames are
/// padded with zeros (collision-detection requirement in real Ethernet).
pub const MIN_FRAME: usize = 60;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::machine::TcpConfig;

    fn host(n: u8) -> Interface {
        Interface::new(
            EthernetAddr([2, 0, 0, 0, 0, n]),
            Ipv4Addr::new(192, 168, 69, n),
            TcpStack::new(TcpConfig::default()),
        )
    }

    /// Pump both interfaces until the link is quiet.
    fn settle(a: &mut Interface, ad: &mut Channel, b: &mut Interface, bd: &mut Channel, now: u64) {
        for _ in 0..64 {
            let n = a.poll(ad, now) + b.poll(bd, now);
            if n == 0 {
                break;
            }
        }
    }

    #[test]
    fn loopback_returns_frames() {
        let mut d = Loopback::new();
        d.transmit(vec![1, 2, 3]);
        assert_eq!(d.receive(), Some(vec![1, 2, 3]));
        assert_eq!(d.receive(), None);
    }

    #[test]
    fn channel_is_bidirectional() {
        let (mut a, mut b) = Channel::pair();
        a.transmit(vec![1]);
        b.transmit(vec![2]);
        assert_eq!(b.receive(), Some(vec![1]));
        assert_eq!(a.receive(), Some(vec![2]));
    }

    #[test]
    fn channel_fault_injection_drops() {
        let (mut a, mut b) = Channel::pair_with_faults(Some(FaultConfig {
            drop_every: 2,
            corrupt_every: 0,
        }));
        for i in 0..4u8 {
            a.transmit(vec![i]);
        }
        // Frames 2 and 4 dropped.
        assert_eq!(b.receive(), Some(vec![0]));
        assert_eq!(b.receive(), Some(vec![2]));
        assert_eq!(b.receive(), None);
    }

    #[test]
    fn arp_resolution_end_to_end() {
        let (mut ad, mut bd) = Channel::pair();
        let mut a = host(1);
        let mut b = host(2);
        // A pings B with an empty ARP cache: the first send triggers an
        // ARP exchange, then the queued packet flows.
        a.ping(&mut ad, b.ip(), 7, 1, b"hello");
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        let reply = a.take_echo_reply().expect("echo reply received");
        assert_eq!(reply.ident, 7);
        assert_eq!(reply.payload, b"hello");
        assert_eq!(b.stats().icmp_echo_replies, 1);
        assert!(a.stats().frames_out >= 2, "ARP request + echo request");
    }

    #[test]
    fn udp_delivery_and_port_unreachable() {
        let (mut ad, mut bd) = Channel::pair();
        let mut a = host(1);
        let mut b = host(2);
        b.udp_bind(6969).unwrap();
        a.udp_send(&mut ad, 5555, b.ip(), 6969, b"datagram");
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        let dg = b.udp_recv(6969).expect("datagram queued");
        assert_eq!(dg.payload, b"datagram");
        assert_eq!(dg.src_port, 5555);

        // Unbound port: B answers with ICMP port unreachable.
        a.udp_send(&mut ad, 5555, b.ip(), 7000, b"nobody home");
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        assert_eq!(b.stats().port_unreachable_sent, 1);
    }

    #[test]
    fn short_frames_are_padded_to_minimum() {
        let (mut ad, mut bd) = Channel::pair();
        let mut a = host(1);
        let b = host(2);
        let b_ip = b.ip();
        let b_mac = b.mac();
        a.add_arp_entry(b_ip, b_mac);
        // A 1-byte UDP datagram: 14 + 20 + 8 + 1 = 43 bytes unpadded.
        a.udp_send(&mut ad, 1, b_ip, 2, &[0x55]);
        let frame = bd.receive().expect("frame on the wire");
        assert_eq!(frame.len(), MIN_FRAME);
        // The padding is invisible above L2: a full-size receiver path
        // still parses the 1-byte payload (total-length governs).
        let mut b = b;
        let mut b2 = bd.clone();
        b.udp_bind(2).unwrap();
        b.input_frame(&mut b2, &frame, 0).unwrap();
        assert_eq!(b.udp_recv(2).unwrap().payload, vec![0x55]);
    }

    #[test]
    fn bytes_past_the_udp_length_do_not_reach_the_socket() {
        let mut b = host(2);
        b.udp_bind(7).unwrap();
        let src = Ipv4Addr::new(192, 168, 69, 1);
        // A valid datagram, then IP-payload bytes that its UDP length,
        // and so its checksum, does not cover.
        let udp = UdpRepr {
            src_port: 9,
            dst_port: 7,
        }
        .packet(src, b.ip(), b"data");
        let udp = [udp.as_slice(), b"junk"].concat();
        let ip = Ipv4Repr {
            src,
            dst: b.ip(),
            protocol: Protocol::Udp,
            ttl: 64,
            ident: 1,
            flags_frag: 0,
            payload_len: udp.len(),
        }
        .packet(&udp);
        let frame = EthernetRepr {
            dst: b.mac(),
            src: EthernetAddr([2, 0, 0, 0, 0, 1]),
            ethertype: EtherType::Ipv4,
        }
        .frame(&ip);
        b.input_frame(&mut Loopback::new(), &frame, 0).unwrap();
        assert_eq!(b.udp_recv(7).unwrap().payload, b"data");
    }

    #[test]
    fn oversized_udp_datagram_fragments_and_reassembles() {
        let (mut ad, mut bd) = Channel::pair();
        let mut a = host(1);
        let mut b = host(2);
        b.udp_bind(7000).unwrap();
        // 4000-byte payload >> 1500-byte MTU: 3 fragments on the wire.
        let big: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let b_ip = b.ip();
        a.udp_send(&mut ad, 6000, b_ip, 7000, &big);
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        let dg = b.udp_recv(7000).expect("reassembled datagram delivered");
        assert_eq!(dg.payload, big);
        assert_eq!(a.stats().fragments_out, 3);
        assert_eq!(b.stats().fragments_in, 3);
        assert_eq!(b.stats().datagrams_reassembled, 1);
    }

    #[test]
    fn lost_fragment_drops_whole_datagram() {
        // Drop the 4th frame: ARP req, ARP reply, frag1 pass; frag2 lost.
        let (mut ad, mut bd) = Channel::pair_with_faults(Some(FaultConfig {
            drop_every: 4,
            corrupt_every: 0,
        }));
        let mut a = host(1);
        let mut b = host(2);
        b.udp_bind(7000).unwrap();
        let big = vec![9u8; 4000];
        let b_ip = b.ip();
        a.udp_send(&mut ad, 6000, b_ip, 7000, &big);
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        assert!(b.udp_recv(7000).is_none(), "incomplete datagram withheld");
        assert_eq!(b.stats().datagrams_reassembled, 0);
    }

    #[test]
    fn frames_for_other_hosts_ignored() {
        let (mut ad, mut bd) = Channel::pair();
        let mut a = host(1);
        let mut b = host(2);
        let mut c = host(3);
        a.add_arp_entry(c.ip(), c.mac());
        a.ping(&mut ad, c.ip(), 1, 1, b"x");
        // B sees the frame (shared channel) but it's not addressed to it.
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        assert_eq!(b.stats().not_for_us, 1);
        assert_eq!(b.stats().icmp_echo_replies, 0);
        let _ = &mut c;
    }

    #[test]
    fn corrupt_frames_rejected_by_checksums() {
        let (mut ad, mut bd) = Channel::pair_with_faults(Some(FaultConfig {
            drop_every: 0,
            corrupt_every: 2, // corrupt the echo request's last byte
        }));
        let mut a = host(1);
        let mut b = host(2);
        a.add_arp_entry(b.ip(), b.mac());
        b.add_arp_entry(a.ip(), a.mac());
        a.ping(&mut ad, b.ip(), 7, 1, b"hello"); // tx #1: intact ARP-less ping
        a.ping(&mut ad, b.ip(), 7, 2, b"world"); // tx #2: corrupted
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        assert_eq!(b.stats().icmp_echo_replies, 1);
        assert_eq!(b.stats().parse_errors, 1);
    }

    #[test]
    fn sink_records_instant_events_matching_counters() {
        let (mut ad, mut bd) = Channel::pair_with_faults(Some(FaultConfig {
            drop_every: 0,
            corrupt_every: 5,
        }));
        let mut a = host(1);
        let mut b = host(2);
        b.set_sink(obs::Sink::record(true), "b/");
        b.udp_bind(7000).unwrap();
        let big = vec![7u8; 4000];
        let b_ip = b.ip();
        a.udp_send(&mut ad, 6000, b_ip, 7000, &big);
        a.ping(&mut ad, b_ip, 1, 1, b"x"); // one corrupted frame en route
        settle(&mut a, &mut ad, &mut b, &mut bd, 3);
        let stats = *b.stats();
        let rec = b.take_sink().into_recorder().expect("sink was attached");
        let count = |name: &str| {
            rec.iter_spans().find(|&(n, _)| n == name).map_or(0, |(_, a)| a.spans)
        };
        assert_eq!(count("b/frame_in"), stats.frames_in);
        assert_eq!(count("b/fragment_in"), stats.fragments_in);
        assert_eq!(count("b/datagram_reassembled"), stats.datagrams_reassembled);
        assert_eq!(count("b/parse_error"), stats.parse_errors);
        assert!(stats.frames_in > 0 && stats.fragments_in > 0);
        // Events are stamped with the poll clock, in milliseconds.
        assert!(rec.events().iter().all(|ev| ev.start == 3 && ev.dur == 0));
    }

    #[test]
    fn sink_records_reassembly_timeout_instants() {
        let (mut ad, mut bd) = Channel::pair_with_faults(Some(FaultConfig {
            drop_every: 4, // lose one mid-datagram fragment
            corrupt_every: 0,
        }));
        let mut a = host(1);
        let mut b = host(2);
        b.set_sink(obs::Sink::record(false), "b/");
        b.udp_bind(7000).unwrap();
        let b_ip = b.ip();
        a.udp_send(&mut ad, 6000, b_ip, 7000, &vec![9u8; 4000]);
        settle(&mut a, &mut ad, &mut b, &mut bd, 0);
        assert_eq!(b.reassembly_pending(), 1);
        // Poll far past the reassembly deadline: the half datagram expires.
        b.poll(&mut bd, 120_000);
        assert_eq!(b.reassembly_stats().timeouts, 1);
        let rec = b.take_sink().into_recorder().expect("sink was attached");
        let (_, acc) = rec
            .iter_spans()
            .find(|&(n, _)| n == "b/reassembly_timeout")
            .expect("timeout instants recorded");
        assert_eq!(acc.spans, 1);
    }
}
