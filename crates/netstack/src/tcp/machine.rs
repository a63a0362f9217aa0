//! The TCP state machine: input processing (with BSD-style header
//! prediction), output generation, delayed ACKs and timers.
//!
//! The receive path mirrors the one the paper traced (Table 2): segment
//! validation, PCB lookup through the single-entry cache, the fast path
//! for in-order established-state segments, socket-buffer append, and an
//! ACK for every second data segment. Out-of-order segments are buffered
//! in a bounded reassembly buffer (`tcp::assembler`) and released when the
//! gap fills; a duplicate ACK is sent immediately either way. Deliberate
//! simplifications, in the spirit of smoltcp's documented omissions:
//! no congestion control, no window scaling, and no urgent data.

use crate::error::{Error, Result};
use crate::tcp::pcb::{Pcb, PcbCacheStats, PcbTable, SocketId, TcpState};
use crate::wire::ipv4::Ipv4Addr;
use crate::wire::tcp::{SeqNumber, TcpFlags, TcpRepr};

/// Milliseconds since an arbitrary epoch; the stack never reads a clock,
/// callers pass time in.
pub type Instant = u64;

/// Tunable protocol parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Receive-buffer capacity per connection.
    pub recv_buf: usize,
    /// Our MSS, advertised on SYN segments.
    pub mss: u16,
    /// ACK every n-th in-order data segment (BSD uses 2).
    pub ack_every: u8,
    /// Delayed-ACK flush timeout.
    pub delack_ms: u64,
    /// Initial retransmission timeout.
    pub initial_rto_ms: u64,
    /// RTO ceiling.
    pub max_rto_ms: u64,
    /// Retransmissions before the connection is dropped.
    pub max_retries: u32,
    /// TIME-WAIT duration (smoltcp uses a fixed 10 s).
    pub time_wait_ms: u64,
    /// Zero-window probe interval (the persist timer).
    pub persist_ms: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            recv_buf: 8192,
            mss: 536,
            ack_every: 2,
            delack_ms: 200,
            initial_rto_ms: 1000,
            max_rto_ms: 64_000,
            max_retries: 6,
            time_wait_ms: 10_000,
            persist_ms: 5_000,
        }
    }
}

/// A TCP segment ready for the IP layer.
#[derive(Debug, Clone)]
pub struct OutSegment {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    /// Serialized TCP header + payload (checksummed).
    pub bytes: Vec<u8>,
}

/// Connection events surfaced to the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpEvent {
    /// Active open completed.
    Connected,
    /// A listener spawned this connection and it reached ESTABLISHED.
    Accepted { listener: SocketId },
    /// New data is available to `recv`.
    DataAvailable,
    /// The peer sent FIN; reads will drain and then return 0.
    PeerClosed,
    /// The connection was reset or timed out.
    Reset,
    /// The connection fully closed and its PCB is gone.
    Closed,
}

/// Aggregate protocol counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    pub segs_in: u64,
    pub segs_out: u64,
    pub data_segs_in: u64,
    /// Segments handled by the header-prediction fast path.
    pub fast_path: u64,
    /// Segments that took the slow path.
    pub slow_path: u64,
    pub acks_sent: u64,
    pub delayed_acks: u64,
    pub dup_acks_sent: u64,
    pub retransmits: u64,
    pub rsts_out: u64,
    pub drops: u64,
    /// Out-of-order segments buffered for reassembly.
    pub ooo_buffered: u64,
    /// Zero-window probes sent by the persist timer.
    pub window_probes: u64,
}

/// Result of a `poll` call: whether any timer fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollResult {
    pub retransmissions: u32,
    pub delayed_acks_flushed: u32,
    pub connections_reaped: u32,
}

/// A complete TCP endpoint: many connections over one IP address space.
#[derive(Debug)]
pub struct TcpStack {
    cfg: TcpConfig,
    pcbs: PcbTable,
    out: Vec<OutSegment>,
    events: Vec<(SocketId, TcpEvent)>,
    stats: TcpStats,
    isn_clock: u32,
    ephemeral: u16,
    /// Connections spawned by a listener that have not yet reached
    /// ESTABLISHED, paired with the listener that spawned them.
    pending_accepts: Vec<(SocketId, SocketId)>,
}

impl Default for TcpStack {
    fn default() -> Self {
        Self::new(TcpConfig::default())
    }
}

impl TcpStack {
    /// A stack with the given configuration.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpStack {
            cfg,
            pcbs: PcbTable::new(),
            out: Vec::new(),
            events: Vec::new(),
            stats: TcpStats::default(),
            isn_clock: 0x1d00_0000,
            ephemeral: 49152,
            pending_accepts: Vec::new(),
        }
    }

    /// The stack's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Protocol counters.
    pub fn stats(&self) -> &TcpStats {
        &self.stats
    }

    /// PCB-cache counters (Table 2's "single-entry PCB cache").
    pub fn pcb_cache_stats(&self) -> PcbCacheStats {
        self.pcbs.cache_stats()
    }

    /// Current state of a socket; `Closed` if the PCB is gone.
    pub fn state(&self, id: SocketId) -> TcpState {
        self.pcbs.get(id).map(|p| p.state).unwrap_or(TcpState::Closed)
    }

    /// Drains queued outbound segments.
    pub fn take_output(&mut self) -> Vec<OutSegment> {
        std::mem::take(&mut self.out)
    }

    /// Drains pending application events.
    pub fn take_events(&mut self) -> Vec<(SocketId, TcpEvent)> {
        std::mem::take(&mut self.events)
    }

    fn next_isn(&mut self) -> SeqNumber {
        self.isn_clock = self.isn_clock.wrapping_add(64_000);
        SeqNumber(self.isn_clock)
    }

    /// Allocates an unused ephemeral port.
    pub fn ephemeral_port(&mut self) -> u16 {
        loop {
            let p = self.ephemeral;
            self.ephemeral = if self.ephemeral == u16::MAX {
                49152
            } else {
                self.ephemeral + 1
            };
            if !self.pcbs.port_in_use(p) {
                return p;
            }
        }
    }

    /// Opens a passive (listening) socket.
    pub fn listen(&mut self, local_addr: Ipv4Addr, port: u16) -> Result<SocketId> {
        if self.pcbs.port_in_use(port) {
            return Err(Error::Exhausted);
        }
        let id = self.pcbs.alloc_id();
        let mut pcb = Pcb::new(
            id,
            local_addr,
            port,
            Ipv4Addr::UNSPECIFIED,
            0,
            self.cfg.recv_buf,
        );
        pcb.state = TcpState::Listen;
        self.pcbs.insert(pcb);
        Ok(id)
    }

    /// Starts an active open; the SYN is queued immediately.
    pub fn connect(
        &mut self,
        local_addr: Ipv4Addr,
        remote_addr: Ipv4Addr,
        remote_port: u16,
        now: Instant,
    ) -> Result<SocketId> {
        let local_port = self.ephemeral_port();
        let id = self.pcbs.alloc_id();
        let iss = self.next_isn();
        let mut pcb = Pcb::new(
            id,
            local_addr,
            local_port,
            remote_addr,
            remote_port,
            self.cfg.recv_buf,
        );
        pcb.state = TcpState::SynSent;
        pcb.iss = iss;
        pcb.snd_una = iss;
        pcb.snd_nxt = iss.add(1);
        pcb.mss = self.cfg.mss;
        pcb.rto_ms = self.cfg.initial_rto_ms;
        pcb.rtx_deadline = Some(now + pcb.rto_ms);
        self.emit_syn(&pcb, false);
        self.pcbs.insert(pcb);
        Ok(id)
    }

    /// Queues application data for transmission.
    pub fn send(&mut self, id: SocketId, data: &[u8], now: Instant) -> Result<usize> {
        let pcb = self.pcbs.get_mut(id).ok_or(Error::NoRoute)?;
        match pcb.state {
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynReceived => {}
            _ => return Err(Error::InvalidState),
        }
        if pcb.fin_queued {
            return Err(Error::InvalidState);
        }
        pcb.send_queue.extend(data);
        self.output(id, now);
        Ok(data.len())
    }

    /// Reads received data; returns 0 when no data is buffered (check
    /// [`TcpEvent::PeerClosed`] to distinguish EOF).
    pub fn recv(&mut self, id: SocketId, dst: &mut [u8]) -> Result<usize> {
        let pcb = self.pcbs.get_mut(id).ok_or(Error::NoRoute)?;
        let n = pcb.recv_buf.read(dst);
        if pcb.sent_zero_window && pcb.rcv_wnd() > 0 {
            // Reopen the window explicitly so the sender doesn't stall.
            pcb.ack_now = true;
            let id = pcb.id;
            self.output(id, 0);
        }
        Ok(n)
    }

    /// Bytes currently readable.
    pub fn recv_available(&self, id: SocketId) -> usize {
        self.pcbs.get(id).map(|p| p.recv_buf.len()).unwrap_or(0)
    }

    /// Initiates a graceful close (FIN after queued data drains).
    pub fn close(&mut self, id: SocketId, now: Instant) -> Result<()> {
        let pcb = self.pcbs.get_mut(id).ok_or(Error::NoRoute)?;
        match pcb.state {
            TcpState::Listen | TcpState::SynSent => {
                self.pcbs.remove(id);
                self.events.push((id, TcpEvent::Closed));
                return Ok(());
            }
            TcpState::Established | TcpState::CloseWait | TcpState::SynReceived => {
                pcb.fin_queued = true;
            }
            _ => return Err(Error::InvalidState),
        }
        self.output(id, now);
        Ok(())
    }

    /// Aborts a connection with a RST.
    // analyze::allow(dead-surface, reason = "the RST-on-abort half of the TCP state machine: no experiment aborts a connection, and abort_sends_rst_and_peer_resets keeps the peer's reset handling under test")
    pub fn abort(&mut self, id: SocketId, _now: Instant) -> Result<()> {
        let pcb = self.pcbs.remove(id).ok_or(Error::NoRoute)?;
        if matches!(
            pcb.state,
            TcpState::SynReceived
                | TcpState::Established
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::CloseWait
        ) {
            let repr = TcpRepr {
                src_port: pcb.local_port,
                dst_port: pcb.remote_port,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: TcpFlags::RST_ACK,
                window: 0,
                mss: None,
            };
            self.push_segment(pcb.local_addr, pcb.remote_addr, repr, &[]);
            self.stats.rsts_out += 1;
        }
        self.events.push((id, TcpEvent::Closed));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Input path
    // ------------------------------------------------------------------

    /// Processes one incoming segment (`tcp_input`). `bytes` is the TCP
    /// header + payload; addresses come from the IP layer for checksum and
    /// demultiplexing.
    pub fn input(
        &mut self,
        src_addr: Ipv4Addr,
        dst_addr: Ipv4Addr,
        bytes: &[u8],
        now: Instant,
    ) -> Result<()> {
        self.stats.segs_in += 1;
        let (repr, payload) = TcpRepr::parse(bytes, src_addr, dst_addr)?;

        let Some(pcb) = self
            .pcbs
            .lookup_mut(dst_addr, repr.dst_port, src_addr, repr.src_port)
        else {
            // No PCB: answer with RST unless the segment itself is a RST.
            if !repr.flags.rst {
                self.reset_for(src_addr, dst_addr, &repr, payload.len());
            }
            self.stats.drops += 1;
            return Err(Error::NoRoute);
        };
        let id = pcb.id;

        match pcb.state {
            TcpState::Listen => self.input_listen(id, src_addr, dst_addr, &repr, now),
            TcpState::SynSent => self.input_syn_sent(id, &repr, now),
            _ => self.input_steady(id, &repr, payload, now),
        }
    }

    fn input_listen(
        &mut self,
        listener: SocketId,
        src_addr: Ipv4Addr,
        dst_addr: Ipv4Addr,
        repr: &TcpRepr,
        now: Instant,
    ) -> Result<()> {
        self.stats.slow_path += 1;
        if repr.flags.rst {
            return Ok(());
        }
        if repr.flags.ack || !repr.flags.syn {
            self.reset_for(src_addr, dst_addr, repr, 0);
            return Err(Error::InvalidState);
        }
        // Passive open: spawn a connection PCB in SYN-RECEIVED.
        let id = self.pcbs.alloc_id();
        let iss = self.next_isn();
        let mut pcb = Pcb::new(
            id,
            dst_addr,
            repr.dst_port,
            src_addr,
            repr.src_port,
            self.cfg.recv_buf,
        );
        pcb.state = TcpState::SynReceived;
        pcb.iss = iss;
        pcb.snd_una = iss;
        pcb.snd_nxt = iss.add(1);
        pcb.irs = repr.seq;
        pcb.rcv_nxt = repr.seq.add(1);
        pcb.snd_wnd = repr.window as u32;
        pcb.mss = repr.mss.unwrap_or(536).min(self.cfg.mss);
        pcb.rto_ms = self.cfg.initial_rto_ms;
        pcb.rtx_deadline = Some(now + pcb.rto_ms);
        // Remember who to notify on ESTABLISHED; encode the listener in
        // the event when the handshake completes.
        self.emit_syn(&pcb, true);
        self.pcbs.insert(pcb);
        self.pending_accepts.push((id, listener));
        Ok(())
    }

    fn input_syn_sent(&mut self, id: SocketId, repr: &TcpRepr, now: Instant) -> Result<()> {
        self.stats.slow_path += 1;
        // analyze::allow(panic-path, reason = "expect documents an invariant: the id was produced by the successful lookup/alloc just above")
        let pcb = self.pcbs.get_mut(id).expect("looked up by caller");
        if repr.flags.rst {
            if repr.flags.ack && repr.ack == pcb.snd_nxt {
                self.drop_pcb(id, TcpEvent::Reset);
            }
            return Ok(());
        }
        if !(repr.flags.syn && repr.flags.ack) {
            // Simultaneous open is out of scope; ignore bare SYNs.
            return Err(Error::InvalidState);
        }
        if repr.ack != pcb.iss.add(1) {
            let (la, ra, lp, rp, seq) = (
                pcb.local_addr,
                pcb.remote_addr,
                pcb.local_port,
                pcb.remote_port,
                repr.ack,
            );
            let rst = TcpRepr {
                src_port: lp,
                dst_port: rp,
                seq,
                ack: SeqNumber(0),
                flags: TcpFlags {
                    rst: true,
                    ..TcpFlags::default()
                },
                window: 0,
                mss: None,
            };
            self.push_segment(la, ra, rst, &[]);
            self.stats.rsts_out += 1;
            return Err(Error::InvalidState);
        }
        pcb.state = TcpState::Established;
        pcb.snd_una = repr.ack;
        pcb.irs = repr.seq;
        pcb.rcv_nxt = repr.seq.add(1);
        pcb.snd_wnd = repr.window as u32;
        pcb.mss = repr.mss.unwrap_or(536).min(pcb.mss);
        pcb.rtx_deadline = None;
        pcb.rtx_count = 0;
        pcb.ack_now = true;
        self.events.push((id, TcpEvent::Connected));
        self.output(id, now);
        Ok(())
    }

    /// Input processing for SYN-RECEIVED and all later states.
    fn input_steady(
        &mut self,
        id: SocketId,
        repr: &TcpRepr,
        payload: &[u8],
        now: Instant,
    ) -> Result<()> {
        let cfg = self.cfg;
        // analyze::allow(panic-path, reason = "expect documents an invariant: the id was produced by the successful lookup/alloc just above")
        let pcb = self.pcbs.get_mut(id).expect("looked up by caller");

        if repr.flags.rst {
            self.stats.slow_path += 1;
            // Accept a RST only if it's in-window (simplified check).
            if repr.seq == pcb.rcv_nxt || pcb.state == TcpState::SynReceived {
                self.drop_pcb(id, TcpEvent::Reset);
            }
            return Ok(());
        }

        // --- Header-prediction fast path (tcp_input's "fastpath") -----
        // In ESTABLISHED, with a plain ACK segment, in sequence, and
        // nothing unusual outstanding, take one of two quick exits.
        if pcb.state == TcpState::Established
            && repr.flags.is_pure_ack_or_data()
            && !repr.flags.syn
            && !repr.flags.fin
            && repr.seq == pcb.rcv_nxt
            && !pcb.fin_sent
        {
            if payload.is_empty()
                && repr.ack.gt(pcb.snd_una)
                && repr.ack.le(pcb.snd_nxt)
            {
                // Pure ACK advancing snd_una.
                self.stats.fast_path += 1;
                Self::process_ack(pcb, repr, now, &cfg, &mut self.stats);
                pcb.snd_wnd = repr.window as u32;
                self.output(id, now);
                return Ok(());
            }
            if !payload.is_empty()
                && repr.ack == pcb.snd_una
                && pcb.recv_buf.free() >= payload.len()
            {
                // In-order data, nothing new acked: append and maybe ACK.
                self.stats.fast_path += 1;
                self.stats.data_segs_in += 1;
                // analyze::allow(panic-path, reason = "expect documents an invariant: the id was produced by the successful lookup/alloc just above")
                pcb.recv_buf.append(payload).expect("free checked");
                pcb.rcv_nxt = pcb.rcv_nxt.add(payload.len() as u32);
                Self::drain_assembler(pcb, payload.len());
                pcb.snd_wnd = repr.window as u32;
                Self::schedule_ack(pcb, now, &cfg, &mut self.stats);
                self.events.push((id, TcpEvent::DataAvailable));
                self.output(id, now);
                return Ok(());
            }
        }

        // --- Slow path -------------------------------------------------
        self.stats.slow_path += 1;

        // Sequence acceptability with head trimming for retransmitted
        // overlap; out-of-order segments are dropped with an immediate
        // duplicate ACK.
        let mut data = payload;
        let mut seq = repr.seq;
        if seq.lt(pcb.rcv_nxt) {
            let skip = pcb.rcv_nxt.diff(seq) as usize;
            if skip >= data.len() && !repr.flags.fin {
                // Entirely old: re-ACK and drop.
                pcb.ack_now = true;
                self.stats.dup_acks_sent += 1;
                self.output(id, now);
                return Ok(());
            }
            // analyze::allow(panic-path, reason = "start index is min-clamped to data.len()")
            data = &data[skip.min(data.len())..];
            seq = pcb.rcv_nxt;
        } else if seq.gt(pcb.rcv_nxt) {
            // Out of order: buffer it for reassembly (capacity allowing)
            // and send a duplicate ACK so the sender fills the gap.
            let offset = seq.diff(pcb.rcv_nxt) as usize;
            let buffered = pcb.state.can_receive_data()
                && offset + data.len() <= pcb.recv_buf.free()
                && pcb.assembler.insert(offset, data).is_ok();
            pcb.ack_now = true;
            self.stats.dup_acks_sent += 1;
            if buffered {
                self.stats.ooo_buffered += 1;
            } else {
                self.stats.drops += 1;
            }
            self.output(id, now);
            return Err(Error::OutOfWindow);
        }

        // ACK processing.
        if repr.flags.ack {
            if pcb.state == TcpState::SynReceived {
                if repr.ack == pcb.iss.add(1) {
                    pcb.state = TcpState::Established;
                    pcb.snd_una = repr.ack;
                    pcb.rtx_deadline = None;
                    pcb.rtx_count = 0;
                    if let Some(pos) = self
                        .pending_accepts
                        .iter()
                        .position(|(cid, _)| *cid == id)
                    {
                        let (_, listener) = self.pending_accepts.swap_remove(pos);
                        self.events.push((id, TcpEvent::Accepted { listener }));
                    }
                } else {
                    // analyze::allow(panic-path, reason = "expect documents an invariant: the id was produced by the successful lookup/alloc just above")
                    let pcb = self.pcbs.get(id).expect("present");
                    let rst = TcpRepr {
                        src_port: pcb.local_port,
                        dst_port: pcb.remote_port,
                        seq: repr.ack,
                        ack: SeqNumber(0),
                        flags: TcpFlags {
                            rst: true,
                            ..TcpFlags::default()
                        },
                        window: 0,
                        mss: None,
                    };
                    let (la, ra) = (pcb.local_addr, pcb.remote_addr);
                    self.push_segment(la, ra, rst, &[]);
                    self.stats.rsts_out += 1;
                    return Err(Error::InvalidState);
                }
            }
            // analyze::allow(panic-path, reason = "expect documents an invariant: the id was produced by the successful lookup/alloc just above")
            let pcb = self.pcbs.get_mut(id).expect("present");
            if repr.ack.gt(pcb.snd_una) && repr.ack.le(pcb.snd_nxt) {
                Self::process_ack(pcb, repr, now, &cfg, &mut self.stats);
            }
            pcb.snd_wnd = repr.window as u32;

            // State transitions driven by the ACK of our FIN.
            let fin_acked = pcb.fin_sent && repr.ack == pcb.snd_nxt;
            match pcb.state {
                TcpState::FinWait1 if fin_acked => pcb.state = TcpState::FinWait2,
                TcpState::Closing if fin_acked => {
                    pcb.state = TcpState::TimeWait;
                    pcb.time_wait_until = Some(now + cfg.time_wait_ms);
                }
                TcpState::LastAck if fin_acked => {
                    self.drop_pcb(id, TcpEvent::Closed);
                    return Ok(());
                }
                _ => {}
            }
        }

        // Data delivery.
        // analyze::allow(panic-path, reason = "expect documents an invariant: the id was produced by the successful lookup/alloc just above")
        let pcb = self.pcbs.get_mut(id).expect("present");
        let mut delivered = false;
        if !data.is_empty() && pcb.state.can_receive_data() {
            let take = data.len().min(pcb.recv_buf.free());
            if take > 0 {
                self.stats.data_segs_in += 1;
                // analyze::allow(panic-path, reason = "take is min-clamped to the source slice length")
                pcb.recv_buf.append(&data[..take]).expect("bounded by free");
                pcb.rcv_nxt = pcb.rcv_nxt.add(take as u32);
                Self::drain_assembler(pcb, take);
                delivered = true;
            }
            if take < data.len() {
                // Window overflow: the tail will be retransmitted.
                pcb.ack_now = true;
            } else {
                Self::schedule_ack(pcb, now, &cfg, &mut self.stats);
            }
        }

        // FIN processing (only when all preceding data was consumed).
        let fin_in_order = repr.flags.fin
            && seq.add(data.len() as u32) == pcb.rcv_nxt;
        if fin_in_order {
            pcb.rcv_nxt = pcb.rcv_nxt.add(1);
            pcb.ack_now = true;
            match pcb.state {
                TcpState::SynReceived | TcpState::Established => {
                    pcb.state = TcpState::CloseWait;
                    self.events.push((id, TcpEvent::PeerClosed));
                }
                TcpState::FinWait1 => {
                    // Our FIN not yet acked (else we'd be in FIN-WAIT-2).
                    pcb.state = TcpState::Closing;
                    self.events.push((id, TcpEvent::PeerClosed));
                }
                TcpState::FinWait2 => {
                    pcb.state = TcpState::TimeWait;
                    pcb.time_wait_until = Some(now + cfg.time_wait_ms);
                    self.events.push((id, TcpEvent::PeerClosed));
                }
                _ => {}
            }
        }

        if delivered {
            self.events.push((id, TcpEvent::DataAvailable));
        }
        self.output(id, now);
        Ok(())
    }

    /// Releases any reassembled out-of-order bytes made contiguous by
    /// `advanced` newly accepted in-order bytes, appending them to the
    /// receive buffer and advancing `rcv_nxt` past them. The advertised
    /// window guarantees released bytes fit the buffer for conforming
    /// peers.
    fn drain_assembler(pcb: &mut Pcb, advanced: usize) {
        let released = pcb.assembler.advance(advanced);
        if !released.is_empty() {
            let take = released.len().min(pcb.recv_buf.free());
            debug_assert_eq!(take, released.len(), "window invariant violated");
            pcb.recv_buf
                // analyze::allow(panic-path, reason = "take is min-clamped to the source slice length")
                .append(&released[..take])
                // analyze::allow(panic-path, reason = "expect documents an invariant: the id was produced by the successful lookup/alloc just above")
                .expect("take bounded by free");
            pcb.rcv_nxt = pcb.rcv_nxt.add(take as u32);
        }
    }

    /// Consumes an acceptable ACK: advances `snd_una`, drops acked bytes,
    /// and manages the retransmission timer.
    fn process_ack(pcb: &mut Pcb, repr: &TcpRepr, now: Instant, cfg: &TcpConfig, _stats: &mut TcpStats) {
        let mut acked = repr.ack.diff(pcb.snd_una);
        if acked <= 0 {
            return;
        }
        // A FIN we sent occupies one sequence number past the data.
        if pcb.fin_sent && repr.ack == pcb.snd_nxt {
            acked -= 1;
        }
        let drop = (acked as usize).min(pcb.unacked.len());
        pcb.unacked.drain(..drop);
        pcb.snd_una = repr.ack;
        pcb.rtx_count = 0;
        pcb.rto_ms = cfg.initial_rto_ms;
        if pcb.unacked.is_empty() && !(pcb.fin_sent && pcb.snd_una != pcb.snd_nxt) {
            pcb.rtx_deadline = None;
        } else {
            pcb.rtx_deadline = Some(now + pcb.rto_ms);
        }
    }

    /// Implements ACK-every-second-segment with a delayed-ACK timer.
    fn schedule_ack(pcb: &mut Pcb, now: Instant, cfg: &TcpConfig, stats: &mut TcpStats) {
        pcb.segs_since_ack += 1;
        if pcb.segs_since_ack >= cfg.ack_every {
            pcb.ack_now = true;
        } else if !pcb.delack_pending {
            pcb.delack_pending = true;
            pcb.delack_deadline = Some(now + cfg.delack_ms);
            stats.delayed_acks += 1;
        }
    }

    // ------------------------------------------------------------------
    // Output path
    // ------------------------------------------------------------------

    /// Runs the output engine for one PCB (`tcp_output`): sends data
    /// within the peer's window, a FIN once the queue drains, and any
    /// required ACK.
    pub fn output(&mut self, id: SocketId, now: Instant) {
        let cfg_persist = self.cfg.persist_ms;
        let Some(pcb) = self.pcbs.get_mut(id) else {
            return;
        };
        if matches!(pcb.state, TcpState::Listen | TcpState::SynSent | TcpState::Closed) {
            return;
        }
        let mut emitted = Vec::new();

        // Data segments.
        loop {
            let in_flight = pcb.in_flight() as u32;
            let window = pcb.snd_wnd.saturating_sub(in_flight);
            if pcb.send_queue.is_empty() || window == 0 || pcb.state == TcpState::SynReceived {
                // Data stuck behind a closed peer window with nothing in
                // flight to trigger an ACK: arm the persist timer.
                if !pcb.send_queue.is_empty()
                    && pcb.snd_wnd == 0
                    && pcb.unacked.is_empty()
                    && pcb.persist_deadline.is_none()
                {
                    pcb.persist_deadline = Some(now + cfg_persist);
                } else if pcb.snd_wnd > 0 {
                    pcb.persist_deadline = None;
                }
                break;
            }
            let take = (pcb.mss as usize)
                .min(window as usize)
                .min(pcb.send_queue.len());
            let chunk: Vec<u8> = pcb.send_queue.drain(..take).collect();
            let last = pcb.send_queue.is_empty();
            let repr = TcpRepr {
                src_port: pcb.local_port,
                dst_port: pcb.remote_port,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: TcpFlags {
                    psh: last,
                    ..TcpFlags::ACK
                },
                window: pcb.rcv_wnd(),
                mss: None,
            };
            pcb.snd_nxt = pcb.snd_nxt.add(take as u32);
            pcb.unacked.extend(chunk.iter().copied());
            if pcb.rtx_deadline.is_none() {
                pcb.rtx_deadline = Some(now + pcb.rto_ms);
            }
            emitted.push((repr, chunk));
        }

        // FIN once data has drained.
        if pcb.fin_queued && !pcb.fin_sent && pcb.send_queue.is_empty() && pcb.state != TcpState::SynReceived {
            let repr = TcpRepr {
                src_port: pcb.local_port,
                dst_port: pcb.remote_port,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: TcpFlags::FIN_ACK,
                window: pcb.rcv_wnd(),
                mss: None,
            };
            pcb.snd_nxt = pcb.snd_nxt.add(1);
            pcb.fin_sent = true;
            match pcb.state {
                TcpState::Established => pcb.state = TcpState::FinWait1,
                TcpState::CloseWait => pcb.state = TcpState::LastAck,
                _ => {}
            }
            if pcb.rtx_deadline.is_none() {
                pcb.rtx_deadline = Some(now + pcb.rto_ms);
            }
            emitted.push((repr, Vec::new()));
        }

        // A data or FIN segment carries the ACK; otherwise send a pure
        // ACK if one is required.
        let mut pure_ack = false;
        if emitted.is_empty() && pcb.ack_now {
            pure_ack = true;
            let repr = TcpRepr {
                src_port: pcb.local_port,
                dst_port: pcb.remote_port,
                seq: pcb.snd_nxt,
                ack: pcb.rcv_nxt,
                flags: TcpFlags::ACK,
                window: pcb.rcv_wnd(),
                mss: None,
            };
            emitted.push((repr, Vec::new()));
        }

        if !emitted.is_empty() {
            pcb.ack_now = false;
            pcb.delack_pending = false;
            pcb.delack_deadline = None;
            pcb.segs_since_ack = 0;
            pcb.sent_zero_window = emitted
                .last()
                .map(|(r, _)| r.window == 0)
                .unwrap_or(false);
        }

        let (la, ra) = (pcb.local_addr, pcb.remote_addr);
        for (repr, chunk) in emitted {
            self.push_segment(la, ra, repr, &chunk);
        }
        if pure_ack {
            self.stats.acks_sent += 1;
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Advances protocol timers: delayed-ACK flush, retransmission, and
    /// TIME-WAIT reaping. Call periodically with a monotonic `now`.
    pub fn poll(&mut self, now: Instant) -> PollResult {
        let cfg = self.cfg;
        let mut result = PollResult::default();
        let mut to_output = Vec::new();
        let mut to_retransmit = Vec::new();
        let mut to_reap = Vec::new();
        let mut to_abort = Vec::new();
        let mut to_probe = Vec::new();

        for pcb in self.pcbs.iter_mut() {
            if let Some(d) = pcb.delack_deadline {
                if now >= d {
                    pcb.ack_now = true;
                    pcb.delack_pending = false;
                    pcb.delack_deadline = None;
                    to_output.push(pcb.id);
                    result.delayed_acks_flushed += 1;
                }
            }
            if let Some(d) = pcb.rtx_deadline {
                if now >= d {
                    if pcb.rtx_count >= cfg.max_retries {
                        to_abort.push(pcb.id);
                    } else {
                        to_retransmit.push(pcb.id);
                    }
                }
            }
            if let Some(t) = pcb.time_wait_until {
                if now >= t {
                    to_reap.push(pcb.id);
                }
            }
            if let Some(d) = pcb.persist_deadline {
                if now >= d {
                    to_probe.push(pcb.id);
                }
            }
        }

        for id in to_output {
            self.output(id, now);
        }
        for id in to_retransmit {
            self.retransmit(id, now);
            result.retransmissions += 1;
        }
        for id in to_abort {
            self.drop_pcb(id, TcpEvent::Reset);
            result.connections_reaped += 1;
        }
        for id in to_reap {
            self.drop_pcb(id, TcpEvent::Closed);
            result.connections_reaped += 1;
        }
        for id in to_probe {
            self.send_window_probe(id, now);
        }
        result
    }

    /// Sends a one-byte zero-window probe: the first unsent byte at
    /// `snd_nxt`, ignoring the window (RFC 1122 §4.2.2.17). The peer
    /// either accepts it (window opened) or re-ACKs with its current
    /// window, restarting our transmissions.
    fn send_window_probe(&mut self, id: SocketId, now: Instant) {
        let persist = self.cfg.persist_ms;
        let Some(pcb) = self.pcbs.get_mut(id) else {
            return;
        };
        if pcb.send_queue.is_empty() || pcb.snd_wnd > 0 {
            pcb.persist_deadline = None;
            return;
        }
        let byte = [*pcb.send_queue.front().expect("nonempty")];
        let repr = TcpRepr {
            src_port: pcb.local_port,
            dst_port: pcb.remote_port,
            seq: pcb.snd_nxt,
            ack: pcb.rcv_nxt,
            flags: TcpFlags::ACK,
            window: pcb.rcv_wnd(),
            mss: None,
        };
        // The probe byte consumes sequence space only if accepted; we
        // conservatively leave snd_nxt alone and let the peer's ACK of
        // rcv_nxt (unchanged) or rcv_nxt+1 sort it out — with our own
        // conforming stack the byte is rejected while the window is
        // closed and retransmitted normally once it opens.
        pcb.persist_deadline = Some(now + persist);
        let (la, ra) = (pcb.local_addr, pcb.remote_addr);
        self.push_segment(la, ra, repr, &byte);
        self.stats.window_probes += 1;
    }

    /// Go-back-N retransmission of the oldest outstanding segment.
    fn retransmit(&mut self, id: SocketId, now: Instant) {
        let cfg = self.cfg;
        let Some(pcb) = self.pcbs.get_mut(id) else {
            return;
        };
        pcb.rtx_count += 1;
        pcb.rto_ms = (pcb.rto_ms * 2).min(cfg.max_rto_ms);
        pcb.rtx_deadline = Some(now + pcb.rto_ms);
        self.stats.retransmits += 1;

        match pcb.state {
            TcpState::SynSent => {
                let p = self.pcbs.get(id).expect("present").clone();
                self.emit_syn(&p, false);
            }
            TcpState::SynReceived => {
                let p = self.pcbs.get(id).expect("present").clone();
                self.emit_syn(&p, true);
            }
            _ => {
                let pcb = self.pcbs.get_mut(id).expect("present");
                if !pcb.unacked.is_empty() {
                    let take = (pcb.mss as usize).min(pcb.unacked.len());
                    let chunk: Vec<u8> = pcb.unacked.iter().take(take).copied().collect();
                    let repr = TcpRepr {
                        src_port: pcb.local_port,
                        dst_port: pcb.remote_port,
                        seq: pcb.snd_una,
                        ack: pcb.rcv_nxt,
                        flags: TcpFlags {
                            psh: true,
                            ..TcpFlags::ACK
                        },
                        window: pcb.rcv_wnd(),
                        mss: None,
                    };
                    let (la, ra) = (pcb.local_addr, pcb.remote_addr);
                    self.push_segment(la, ra, repr, &chunk);
                } else if pcb.fin_sent {
                    let repr = TcpRepr {
                        src_port: pcb.local_port,
                        dst_port: pcb.remote_port,
                        seq: SeqNumber(pcb.snd_nxt.0.wrapping_sub(1)), // the FIN's seq
                        ack: pcb.rcv_nxt,
                        flags: TcpFlags::FIN_ACK,
                        window: pcb.rcv_wnd(),
                        mss: None,
                    };
                    let (la, ra) = (pcb.local_addr, pcb.remote_addr);
                    self.push_segment(la, ra, repr, &[]);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn emit_syn(&mut self, pcb: &Pcb, ack: bool) {
        let repr = TcpRepr {
            src_port: pcb.local_port,
            dst_port: pcb.remote_port,
            seq: pcb.iss,
            ack: if ack { pcb.rcv_nxt } else { SeqNumber(0) },
            flags: if ack { TcpFlags::SYN_ACK } else { TcpFlags::SYN },
            window: pcb.rcv_wnd(),
            mss: Some(self.cfg.mss),
        };
        self.push_segment(pcb.local_addr, pcb.remote_addr, repr, &[]);
    }

    fn push_segment(&mut self, src: Ipv4Addr, dst: Ipv4Addr, repr: TcpRepr, payload: &[u8]) {
        let bytes = repr.segment(src, dst, payload);
        self.out.push(OutSegment { src, dst, bytes });
        self.stats.segs_out += 1;
    }

    /// Sends a RST in response to a segment with no matching PCB.
    fn reset_for(&mut self, src_addr: Ipv4Addr, dst_addr: Ipv4Addr, repr: &TcpRepr, paylen: usize) {
        let rst = if repr.flags.ack {
            TcpRepr {
                src_port: repr.dst_port,
                dst_port: repr.src_port,
                seq: repr.ack,
                ack: SeqNumber(0),
                flags: TcpFlags {
                    rst: true,
                    ..TcpFlags::default()
                },
                window: 0,
                mss: None,
            }
        } else {
            let mut ack = repr.seq.add(paylen as u32);
            if repr.flags.syn {
                ack = ack.add(1);
            }
            if repr.flags.fin {
                ack = ack.add(1);
            }
            TcpRepr {
                src_port: repr.dst_port,
                dst_port: repr.src_port,
                seq: SeqNumber(0),
                ack,
                flags: TcpFlags::RST_ACK,
                window: 0,
                mss: None,
            }
        };
        self.push_segment(dst_addr, src_addr, rst, &[]);
        self.stats.rsts_out += 1;
    }

    fn drop_pcb(&mut self, id: SocketId, event: TcpEvent) {
        self.pcbs.remove(id);
        self.pending_accepts.retain(|(cid, _)| *cid != id);
        self.events.push((id, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::pcb::TcpState;

    const A: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
    const B: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);

    /// Shuttles segments between two stacks until both are quiet.
    fn pump(a: &mut TcpStack, b: &mut TcpStack, now: Instant) -> usize {
        let mut moved = 0;
        for _ in 0..128 {
            let mut quiet = true;
            for seg in a.take_output() {
                quiet = false;
                moved += 1;
                let _ = b.input(seg.src, seg.dst, &seg.bytes, now);
            }
            for seg in b.take_output() {
                quiet = false;
                moved += 1;
                let _ = a.input(seg.src, seg.dst, &seg.bytes, now);
            }
            if quiet {
                break;
            }
        }
        moved
    }

    /// Handshake helper: returns (client stack, server stack,
    /// client socket, server-side socket).
    fn connected() -> (TcpStack, TcpStack, SocketId, SocketId) {
        let mut c = TcpStack::new(TcpConfig::default());
        let mut s = TcpStack::new(TcpConfig::default());
        s.listen(B, 80).unwrap();
        let cs = c.connect(A, B, 80, 0).unwrap();
        pump(&mut c, &mut s, 0);
        assert_eq!(c.state(cs), TcpState::Established);
        let events = s.take_events();
        let ss = events
            .iter()
            .find_map(|(id, e)| match e {
                TcpEvent::Accepted { .. } => Some(*id),
                _ => None,
            })
            .expect("server accepted");
        assert_eq!(s.state(ss), TcpState::Established);
        (c, s, cs, ss)
    }

    #[test]
    fn three_way_handshake() {
        let (mut c, _s, cs, _ss) = connected();
        let evs = c.take_events();
        assert!(evs.contains(&(cs, TcpEvent::Connected)));
    }

    #[test]
    fn data_transfer_and_delivery() {
        let (mut c, mut s, cs, ss) = connected();
        c.send(cs, b"hello from the client", 1).unwrap();
        pump(&mut c, &mut s, 1);
        let mut buf = [0u8; 64];
        let n = s.recv(ss, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"hello from the client");
    }

    #[test]
    fn large_transfer_respects_mss_and_window() {
        let (mut c, mut s, cs, ss) = connected();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut now = 1;
        while received.len() < data.len() {
            if sent < data.len() {
                sent += c.send(cs, &data[sent..(sent + 4096).min(data.len())], now).unwrap();
            }
            pump(&mut c, &mut s, now);
            let mut buf = [0u8; 2048];
            loop {
                let n = s.recv(ss, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            now += 1;
            assert!(now < 1000, "transfer did not make progress");
        }
        assert_eq!(received, data);
        // Segments were MSS-bounded.
        assert!(s.stats().data_segs_in as usize >= data.len() / 536);
    }

    #[test]
    fn fast_path_dominates_bulk_receive() {
        let (mut c, mut s, cs, ss) = connected();
        for now in 1..=50 {
            c.send(cs, &[0u8; 536], now).unwrap();
            pump(&mut c, &mut s, now);
            let mut buf = [0u8; 1024];
            while s.recv(ss, &mut buf).unwrap() > 0 {}
        }
        let st = s.stats();
        assert!(
            st.fast_path > st.slow_path,
            "fast path {} should dominate slow path {}",
            st.fast_path,
            st.slow_path
        );
        // The PCB cache serves the bulk of lookups.
        let cache = s.pcb_cache_stats();
        assert!(cache.cache_hits > cache.walk_hits + cache.no_match);
    }

    #[test]
    fn delayed_ack_every_second_segment() {
        let (mut c, mut s, cs, _ss) = connected();
        c.take_events();
        s.take_events();
        // Send two segments' worth without letting ACKs flow back yet.
        c.send(cs, &[1u8; 536], 1).unwrap();
        c.send(cs, &[2u8; 536], 1).unwrap();
        let segs = c.take_output();
        assert_eq!(segs.len(), 2);
        // First data segment: no immediate ACK (delayed).
        let _ = s.input(segs[0].src, segs[0].dst, &segs[0].bytes, 1);
        assert!(s.take_output().is_empty(), "first segment's ACK is delayed");
        // Second segment: ACK now.
        let _ = s.input(segs[1].src, segs[1].dst, &segs[1].bytes, 1);
        assert_eq!(s.take_output().len(), 1, "every second segment is ACKed");
    }

    #[test]
    fn delayed_ack_flushed_by_timer() {
        let (mut c, mut s, cs, _ss) = connected();
        c.send(cs, &[1u8; 100], 1).unwrap();
        let segs = c.take_output();
        let _ = s.input(segs[0].src, segs[0].dst, &segs[0].bytes, 1);
        assert!(s.take_output().is_empty());
        let r = s.poll(1 + s.config().delack_ms);
        assert_eq!(r.delayed_acks_flushed, 1);
        assert_eq!(s.take_output().len(), 1);
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut c, mut s, cs, ss) = connected();
        c.close(cs, 1).unwrap();
        pump(&mut c, &mut s, 1);
        assert_eq!(s.state(ss), TcpState::CloseWait);
        assert!(s.take_events().contains(&(ss, TcpEvent::PeerClosed)));
        assert_eq!(c.state(cs), TcpState::FinWait2);
        s.close(ss, 2).unwrap();
        pump(&mut c, &mut s, 2);
        assert_eq!(c.state(cs), TcpState::TimeWait);
        assert_eq!(s.state(ss), TcpState::Closed, "LAST-ACK completed");
        // TIME-WAIT expires and the PCB is reaped.
        c.poll(2 + c.config().time_wait_ms);
        assert_eq!(c.state(cs), TcpState::Closed, "TIME-WAIT PCB reaped");
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let mut c = TcpStack::new(TcpConfig::default());
        let mut s = TcpStack::new(TcpConfig::default());
        let cs = c.connect(A, B, 81, 0).unwrap();
        pump(&mut c, &mut s, 0);
        assert_eq!(s.stats().rsts_out, 1);
        assert!(c.take_events().contains(&(cs, TcpEvent::Reset)));
        assert_eq!(c.state(cs), TcpState::Closed);
    }

    #[test]
    fn lost_segment_retransmitted() {
        let (mut c, mut s, cs, ss) = connected();
        c.send(cs, b"will be lost", 1).unwrap();
        let lost = c.take_output();
        assert_eq!(lost.len(), 1);
        // Drop it. The retransmit timer fires and recovers.
        let rto = c.config().initial_rto_ms;
        let r = c.poll(1 + rto);
        assert_eq!(r.retransmissions, 1);
        assert_eq!(c.stats().retransmits, 1);
        pump(&mut c, &mut s, 1 + rto);
        let mut buf = [0u8; 32];
        let n = s.recv(ss, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"will be lost");
    }

    #[test]
    fn rto_backs_off_and_gives_up() {
        let mut c = TcpStack::new(TcpConfig {
            max_retries: 2,
            ..TcpConfig::default()
        });
        let cs = c.connect(A, B, 80, 0).unwrap();
        c.take_output(); // SYN vanishes into the void
        let mut now = 0;
        let mut rto = c.config().initial_rto_ms;
        for _ in 0..2 {
            now += rto;
            assert_eq!(c.poll(now).retransmissions, 1);
            rto *= 2;
            c.take_output();
        }
        now += rto;
        let r = c.poll(now);
        assert_eq!(r.connections_reaped, 1);
        assert!(c.take_events().contains(&(cs, TcpEvent::Reset)));
    }

    #[test]
    fn duplicate_segment_reacked_not_redelivered() {
        let (mut c, mut s, cs, ss) = connected();
        c.send(cs, b"once", 1).unwrap();
        let segs = c.take_output();
        let _ = s.input(segs[0].src, segs[0].dst, &segs[0].bytes, 1);
        let _ = s.input(segs[0].src, segs[0].dst, &segs[0].bytes, 1); // dup
        assert_eq!(s.stats().dup_acks_sent, 1);
        let mut buf = [0u8; 32];
        let n = s.recv(ss, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"once", "no double delivery");
    }

    #[test]
    fn out_of_order_segment_buffered_and_reassembled() {
        let (mut c, mut s, cs, ss) = connected();
        c.send(cs, &[1u8; 100], 1).unwrap();
        c.send(cs, &[2u8; 100], 1).unwrap();
        let segs = c.take_output();
        assert_eq!(segs.len(), 2);
        // Deliver only the second: out of order, buffered, dup-ACKed.
        let r = s.input(segs[1].src, segs[1].dst, &segs[1].bytes, 1);
        assert_eq!(r, Err(Error::OutOfWindow));
        assert_eq!(s.stats().dup_acks_sent, 1);
        assert_eq!(s.stats().ooo_buffered, 1);
        assert_eq!(s.recv_available(ss), 0, "gap not yet filled");
        // The first arrives: both segments become readable, in order.
        let _ = s.input(segs[0].src, segs[0].dst, &segs[0].bytes, 1);
        assert_eq!(s.recv_available(ss), 200, "reassembled");
        let mut buf = [0u8; 256];
        let n = s.recv(ss, &mut buf).unwrap();
        assert_eq!(&buf[..100], &[1u8; 100][..]);
        assert_eq!(&buf[100..n], &[2u8; 100][..]);
    }

    #[test]
    fn reordered_burst_reassembles_without_retransmission() {
        let (mut c, mut s, cs, ss) = connected();
        for i in 0..4u8 {
            c.send(cs, &[i; 50], 1).unwrap();
        }
        let segs = c.take_output();
        assert_eq!(segs.len(), 4);
        // Deliver in the order 3, 1, 2, 0.
        for &i in &[3usize, 1, 2, 0] {
            let _ = s.input(segs[i].src, segs[i].dst, &segs[i].bytes, 1);
        }
        assert_eq!(s.recv_available(ss), 200);
        let mut buf = [0u8; 256];
        let n = s.recv(ss, &mut buf).unwrap();
        assert_eq!(n, 200);
        for i in 0..4u8 {
            assert!(buf[i as usize * 50..(i as usize + 1) * 50]
                .iter()
                .all(|&b| b == i));
        }
        assert_eq!(s.stats().ooo_buffered, 3);
        assert_eq!(c.stats().retransmits, 0);
    }

    #[test]
    fn zero_window_stalls_then_window_update_resumes() {
        let mut c = TcpStack::new(TcpConfig::default());
        let mut s = TcpStack::new(TcpConfig {
            recv_buf: 1024,
            ..TcpConfig::default()
        });
        s.listen(B, 80).unwrap();
        let cs = c.connect(A, B, 80, 0).unwrap();
        pump(&mut c, &mut s, 0);
        let ss = s
            .take_events()
            .iter()
            .find_map(|(id, e)| matches!(e, TcpEvent::Accepted { .. }).then_some(*id))
            .unwrap();
        // Fill the receiver's buffer completely.
        c.send(cs, &vec![7u8; 4096], 1).unwrap();
        pump(&mut c, &mut s, 1);
        assert_eq!(s.recv_available(ss), 1024, "receiver buffer full");
        // Sender has stalled with in-flight data ackable but window 0.
        let before = s.recv_available(ss);
        assert_eq!(before, 1024);
        // Draining triggers a window update and the transfer completes.
        let mut total = 0;
        let mut buf = [0u8; 512];
        let mut now = 2;
        while total < 4096 {
            let n = s.recv(ss, &mut buf).unwrap();
            total += n;
            pump(&mut c, &mut s, now);
            now += 1;
            if n == 0 {
                // Let retransmission timers push stalled data.
                c.poll(now + c.config().initial_rto_ms);
                now += c.config().initial_rto_ms;
                pump(&mut c, &mut s, now);
            }
            assert!(now < 100_000, "stalled: received {total} of 4096");
        }
        assert_eq!(total, 4096);
    }

    #[test]
    fn persist_timer_probes_zero_window_and_recovers() {
        // Receiver with a tiny buffer that the application never drains
        // until later: the sender must not stall forever.
        let mut c = TcpStack::new(TcpConfig::default());
        let mut s = TcpStack::new(TcpConfig {
            recv_buf: 1024,
            ..TcpConfig::default()
        });
        s.listen(B, 80).unwrap();
        let cs = c.connect(A, B, 80, 0).unwrap();
        pump(&mut c, &mut s, 0);
        let ss = s
            .take_events()
            .iter()
            .find_map(|(id, e)| matches!(e, TcpEvent::Accepted { .. }).then_some(*id))
            .unwrap();
        // Fill the window completely; more data waits in the send queue.
        c.send(cs, &vec![3u8; 2048], 1).unwrap();
        pump(&mut c, &mut s, 1);
        assert_eq!(s.recv_available(ss), 1024);
        // The sender saw window 0 and armed the persist timer.
        let mut now = 1 + c.config().persist_ms;
        c.poll(now);
        assert!(c.stats().window_probes >= 1, "probe fired");
        pump(&mut c, &mut s, now);
        // Receiver still full: probe re-ACKed with window 0; sender
        // remains armed and probes again.
        now += c.config().persist_ms;
        c.poll(now);
        assert!(c.stats().window_probes >= 2);
        // The application finally drains; the window update (from recv)
        // plus the next probe exchange restart the flow.
        let mut buf = [0u8; 2048];
        let mut got = 1024;
        let n = s.recv(ss, &mut buf).unwrap();
        assert_eq!(n, 1024);
        pump(&mut c, &mut s, now);
        for _ in 0..20 {
            now += c.config().persist_ms;
            c.poll(now);
            s.poll(now);
            pump(&mut c, &mut s, now);
            got += s.recv(ss, &mut buf).unwrap();
            if got >= 2048 {
                break;
            }
        }
        assert_eq!(got, 2048, "all data eventually delivered");
    }

    #[test]
    fn abort_sends_rst_and_peer_resets() {
        let (mut c, mut s, cs, ss) = connected();
        s.take_events();
        c.abort(cs, 1).unwrap();
        pump(&mut c, &mut s, 1);
        assert_eq!(c.state(cs), TcpState::Closed, "aborted PCB is gone");
        assert!(s.take_events().contains(&(ss, TcpEvent::Reset)));
        assert_eq!(s.state(ss), TcpState::Closed);
    }

    #[test]
    fn ephemeral_ports_do_not_collide() {
        let mut c = TcpStack::new(TcpConfig::default());
        let p1 = c.ephemeral_port();
        let p2 = c.ephemeral_port();
        assert_ne!(p1, p2);
        assert!(p1 >= 49152);
    }

    #[test]
    fn listen_rejects_bound_port() {
        let mut s = TcpStack::new(TcpConfig::default());
        s.listen(B, 80).unwrap();
        assert_eq!(s.listen(B, 80), Err(Error::Exhausted));
    }

    #[test]
    fn simultaneous_transfer_in_both_directions() {
        let (mut c, mut s, cs, ss) = connected();
        c.send(cs, b"ping", 1).unwrap();
        s.send(ss, b"pong", 1).unwrap();
        pump(&mut c, &mut s, 1);
        let mut buf = [0u8; 8];
        let n = s.recv(ss, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        let n = c.recv(cs, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong");
    }
}
