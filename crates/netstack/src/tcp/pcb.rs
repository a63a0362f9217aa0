//! Protocol control blocks and the PCB table.
//!
//! The traced BSD stack keeps PCBs behind a single-entry cache: on bulk
//! transfer the cache almost always hits ("the single-entry PCB cache
//! hits", Table 2). [`PcbTable`] reproduces that front-end cache —
//! generalized to Jain's LRU/FIFO/random schemes at 1–64 entries — over
//! open-addressing indexes (`crate::table`) that stay O(probe run) at
//! 10^5–10^6 concurrent connections, and counts cache hits, walk hits,
//! and no-match lookups separately so tests and benches can observe it.

use crate::socket::SockBuf;
use crate::table::{CacheScheme, LookupCache, OaTable};
use crate::tcp::assembler::Assembler;
use crate::wire::ipv4::Ipv4Addr;
use crate::wire::tcp::SeqNumber;
use std::collections::VecDeque;

/// Identifies a connection endpoint to the application.
pub type SocketId = usize;

/// TCP connection states (RFC 793).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    Closed,
    Listen,
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    Closing,
    LastAck,
    TimeWait,
}

impl TcpState {
    /// Whether the connection can carry data in this state.
    pub fn can_receive_data(self) -> bool {
        matches!(self, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2)
    }
}

/// One connection's protocol control block.
#[derive(Debug, Clone)]
pub struct Pcb {
    pub id: SocketId,
    pub state: TcpState,
    pub local_addr: Ipv4Addr,
    pub local_port: u16,
    pub remote_addr: Ipv4Addr,
    pub remote_port: u16,

    /// Initial send sequence number.
    pub iss: SeqNumber,
    /// Oldest unacknowledged sequence number.
    pub snd_una: SeqNumber,
    /// Next sequence number to send.
    pub snd_nxt: SeqNumber,
    /// Peer's advertised window.
    pub snd_wnd: u32,

    /// Initial receive sequence number.
    pub irs: SeqNumber,
    /// Next sequence number expected.
    pub rcv_nxt: SeqNumber,

    /// Negotiated maximum segment size.
    pub mss: u16,

    /// Bytes written by the application but not yet sent. Sent-but-unacked
    /// bytes are kept in `unacked` for retransmission.
    pub send_queue: VecDeque<u8>,
    /// Bytes sent but not yet acknowledged, starting at `snd_una`
    /// (+1 if a SYN is outstanding).
    pub unacked: VecDeque<u8>,
    /// Receive-side socket buffer.
    pub recv_buf: SockBuf,
    /// Out-of-order reassembly buffer for the receive window.
    pub assembler: Assembler,

    /// Number of in-order data segments received since the last ACK we
    /// sent; BSD acks every second segment.
    pub segs_since_ack: u8,
    /// A delayed ACK is pending (flushed by the slow timer).
    pub delack_pending: bool,
    /// An ACK must be sent at the next output opportunity.
    pub ack_now: bool,
    /// When the delayed ACK must be flushed, if one is pending.
    pub delack_deadline: Option<u64>,
    /// The last window we advertised was zero; the next `recv` that opens
    /// the window must send a window update.
    pub sent_zero_window: bool,

    /// Application requested close; FIN still needs to be sent once the
    /// send queue drains.
    pub fin_queued: bool,
    /// Our FIN has been sent (occupies sequence space at the end).
    pub fin_sent: bool,

    /// Retransmission deadline in ms ticks, if any data/FIN/SYN is in
    /// flight.
    pub rtx_deadline: Option<u64>,
    /// Current retransmission timeout in ms (doubles on each timeout).
    pub rto_ms: u64,
    /// Consecutive retransmissions of the oldest outstanding data.
    pub rtx_count: u32,
    /// When a TIME-WAIT PCB may be reclaimed.
    pub time_wait_until: Option<u64>,
    /// Zero-window persist timer: when to probe a closed peer window.
    pub persist_deadline: Option<u64>,
}

impl Pcb {
    /// A fresh closed PCB for the given 4-tuple.
    pub fn new(
        id: SocketId,
        local_addr: Ipv4Addr,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
        recv_capacity: usize,
    ) -> Self {
        Pcb {
            id,
            state: TcpState::Closed,
            local_addr,
            local_port,
            remote_addr,
            remote_port,
            iss: SeqNumber(0),
            snd_una: SeqNumber(0),
            snd_nxt: SeqNumber(0),
            snd_wnd: 0,
            irs: SeqNumber(0),
            rcv_nxt: SeqNumber(0),
            mss: 536,
            send_queue: VecDeque::new(),
            unacked: VecDeque::new(),
            recv_buf: SockBuf::new(recv_capacity),
            assembler: Assembler::new(recv_capacity),
            segs_since_ack: 0,
            delack_pending: false,
            ack_now: false,
            delack_deadline: None,
            sent_zero_window: false,
            fin_queued: false,
            fin_sent: false,
            rtx_deadline: None,
            rto_ms: 1000,
            rtx_count: 0,
            time_wait_until: None,
            persist_deadline: None,
        }
    }

    /// The window we advertise: free space in the receive buffer, capped
    /// at 65535 (no window scaling).
    pub fn rcv_wnd(&self) -> u16 {
        self.recv_buf.free().min(65535) as u16
    }

    /// Bytes of payload in flight (excludes SYN/FIN sequence space).
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }
}

/// Counters for PCB lookups.
///
/// Cache effectiveness and connection-miss rate are separate questions:
/// a no-match lookup (RST territory) says nothing about the front-end
/// cache, and a Listen wildcard hit deliberately bypasses it. The old
/// two-field form folded both into "misses".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcbCacheStats {
    /// Lookups satisfied by the front-end lookup cache.
    pub cache_hits: u64,
    /// Lookups that missed the cache but found a PCB in the table
    /// (exact match or Listen wildcard).
    pub walk_hits: u64,
    /// Lookups that matched nothing.
    pub no_match: u64,
}

impl PcbCacheStats {
    /// Cache hits over lookups that had a PCB to find. No-match
    /// lookups are excluded: the cache cannot hit on them.
    pub fn cache_hit_rate(&self) -> f64 {
        let denom = self.cache_hits + self.walk_hits;
        if denom == 0 {
            0.0
        } else {
            self.cache_hits as f64 / denom as f64
        }
    }
}

/// The connection 4-tuple `(local, lport, remote, rport)` used to key
/// the open-addressing index.
type ConnKey = (Ipv4Addr, u16, Ipv4Addr, u16);

fn key_of(p: &Pcb) -> ConnKey {
    (p.local_addr, p.local_port, p.remote_addr, p.remote_port)
}

/// The PCB table.
///
/// PCBs live in a dense `Vec` (timers iterate it in insertion order,
/// exactly like the old list) behind two open-addressing indexes — by
/// 4-tuple and by socket id — so demultiplex and socket ops are O(probe
/// run) instead of O(connections). In front sits a pluggable
/// [`LookupCache`]; the default is a single-entry LRU, which is exactly
/// the traced BSD structure ("the single-entry PCB cache hits",
/// Table 2). Benches scale it to Jain's 1–64-entry schemes.
#[derive(Debug)]
pub struct PcbTable {
    pcbs: Vec<Pcb>,
    /// 4-tuple -> index into `pcbs`.
    by_tuple: OaTable<ConnKey, usize>,
    /// Socket id -> index into `pcbs`.
    by_id: OaTable<SocketId, usize>,
    /// Front-end lookup cache (value = index into `pcbs`).
    cache: LookupCache<ConnKey, usize>,
    stats: PcbCacheStats,
    next_id: SocketId,
}

impl Default for PcbTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PcbTable {
    /// An empty table with the BSD-style single-entry LRU cache.
    pub fn new() -> Self {
        Self::with_lookup_cache(CacheScheme::Lru, 1, 0)
    }

    /// An empty table with a configurable front-end cache (Jain's
    /// scheme × size grid; `seed` drives random eviction only).
    pub fn with_lookup_cache(scheme: CacheScheme, slots: usize, seed: u64) -> Self {
        PcbTable {
            pcbs: Vec::new(),
            by_tuple: OaTable::new(),
            by_id: OaTable::new(),
            cache: LookupCache::new(scheme, slots, seed),
            stats: PcbCacheStats::default(),
            next_id: 0,
        }
    }

    /// Allocates a socket id.
    pub fn alloc_id(&mut self) -> SocketId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Inserts a PCB.
    pub fn insert(&mut self, pcb: Pcb) {
        let idx = self.pcbs.len();
        self.by_tuple.insert(key_of(&pcb), idx);
        self.by_id.insert(pcb.id, idx);
        self.pcbs.push(pcb);
    }

    /// Removes the PCB for `id`, if present.
    pub fn remove(&mut self, id: SocketId) -> Option<Pcb> {
        let idx = self.by_id.remove(&id)?;
        // The cache holds dense indexes; a swap_remove moves the tail
        // entry, so drop the whole cache (the old one-entry cache did
        // the same on every remove).
        self.cache.clear();
        let removed = self.pcbs.swap_remove(idx);
        self.by_tuple.remove(&key_of(&removed));
        if let Some(moved) = self.pcbs.get(idx) {
            // The former tail now lives at `idx`: re-point its keys.
            let (mk, mid) = (key_of(moved), moved.id);
            self.by_tuple.insert(mk, idx);
            self.by_id.insert(mid, idx);
        }
        Some(removed)
    }

    /// Full-match lookup for an incoming segment
    /// `(src, sport) -> (dst, dport)`: front-end cache, then the
    /// 4-tuple index (exact match), then the two listener keys —
    /// `(local, port, *, 0)` and `(*, port, *, 0)` — wildcarding the
    /// remote and then also the local address.
    pub fn lookup_mut(
        &mut self,
        local_addr: Ipv4Addr,
        local_port: u16,
        remote_addr: Ipv4Addr,
        remote_port: u16,
    ) -> Option<&mut Pcb> {
        let key = (local_addr, local_port, remote_addr, remote_port);
        if let Some(idx) = self.cache.get(&key) {
            // Indexes cached across inserts stay valid (inserts never
            // move entries) and removes clear the cache, so a cached
            // index always points at its key's PCB.
            if self.pcbs.get(idx).map(key_of) == Some(key) {
                self.stats.cache_hits += 1;
                return self.pcbs.get_mut(idx);
            }
            self.cache.invalidate(&key);
        }
        if let Some(&idx) = self.by_tuple.get(&key) {
            self.stats.walk_hits += 1;
            self.cache.insert(key, idx);
            return self.pcbs.get_mut(idx);
        }
        // Listening socket: wildcard remote, then wildcard local too.
        // Listen sockets are not cached: the cache is for the
        // established fast path.
        let listener_keys = [
            (local_addr, local_port, Ipv4Addr::UNSPECIFIED, 0u16),
            (Ipv4Addr::UNSPECIFIED, local_port, Ipv4Addr::UNSPECIFIED, 0u16),
        ];
        for lkey in listener_keys {
            if let Some(&idx) = self.by_tuple.get(&lkey) {
                if self.pcbs.get(idx).map(|p| p.state) == Some(TcpState::Listen) {
                    self.stats.walk_hits += 1;
                    return self.pcbs.get_mut(idx);
                }
            }
        }
        self.stats.no_match += 1;
        None
    }

    /// Lookup by socket id.
    pub fn get_mut(&mut self, id: SocketId) -> Option<&mut Pcb> {
        // analyze::allow(charge-coverage, reason = "name-collision edge (obs Histogram::record resolves to get_mut); PCB probe costs are charged via the bench TableCharge path")
        let idx = *self.by_id.get(&id)?;
        self.pcbs.get_mut(idx)
    }

    /// Lookup by socket id (shared).
    pub fn get(&self, id: SocketId) -> Option<&Pcb> {
        // analyze::allow(charge-coverage, reason = "name-collision edge (untyped .get in run_core); PCB probe costs are charged via the bench TableCharge path")
        let idx = *self.by_id.get(&id)?;
        self.pcbs.get(idx)
    }

    /// Iterates all PCBs mutably (for timers).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Pcb> {
        self.pcbs.iter_mut()
    }

    /// Iterates all PCBs.
    pub fn iter(&self) -> impl Iterator<Item = &Pcb> {
        self.pcbs.iter()
    }

    /// Lookup counters.
    pub fn cache_stats(&self) -> PcbCacheStats {
        self.stats
    }

    /// Slot indices probed by the most recent tuple-index operation,
    /// for charging the walk as data references.
    pub fn last_probes(&self) -> &[u32] {
        self.by_tuple.last_probes()
    }

    /// Number of PCBs in the table.
    pub fn len(&self) -> usize {
        self.pcbs.len()
    }

    /// True when no PCBs exist.
    pub fn is_empty(&self) -> bool {
        self.pcbs.is_empty()
    }

    /// Whether a local port is already bound.
    pub fn port_in_use(&self, port: u16) -> bool {
        self.pcbs.iter().any(|p| p.local_port == port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr([10, 0, 0, 1]);
    const B: Ipv4Addr = Ipv4Addr([10, 0, 0, 2]);

    fn established(id: SocketId, lport: u16, rport: u16) -> Pcb {
        let mut p = Pcb::new(id, A, lport, B, rport, 8192);
        p.state = TcpState::Established;
        p
    }

    #[test]
    fn single_entry_cache_hits_on_repeat_lookup() {
        let mut t = PcbTable::new();
        t.insert(established(0, 80, 5000));
        t.insert(established(1, 80, 5001));
        assert!(t.lookup_mut(A, 80, B, 5001).is_some());
        assert_eq!(
            t.cache_stats(),
            PcbCacheStats { cache_hits: 0, walk_hits: 1, no_match: 0 }
        );
        for _ in 0..5 {
            assert!(t.lookup_mut(A, 80, B, 5001).is_some());
        }
        assert_eq!(
            t.cache_stats(),
            PcbCacheStats { cache_hits: 5, walk_hits: 1, no_match: 0 }
        );
        // A different connection misses and replaces the cache entry.
        assert_eq!(t.lookup_mut(A, 80, B, 5000).unwrap().id, 0);
        assert_eq!(t.cache_stats().walk_hits, 2);
        assert!((t.cache_stats().cache_hit_rate() - 5.0 / 7.0).abs() < 1e-12);
    }

    /// The satellite bugfix: a no-match lookup and a Listen wildcard hit
    /// are *not* cache misses — the old counters conflated cache
    /// effectiveness with the connection-miss rate.
    #[test]
    fn no_match_and_listener_hits_are_not_cache_misses() {
        let mut t = PcbTable::new();
        let mut listener = Pcb::new(0, A, 80, Ipv4Addr::UNSPECIFIED, 0, 8192);
        listener.state = TcpState::Listen;
        t.insert(listener);
        // SYN to the listener: found by walk, never cached.
        assert!(t.lookup_mut(A, 80, B, 6000).is_some());
        assert!(t.lookup_mut(A, 80, B, 6000).is_some());
        // Stray segment: nothing matches.
        assert!(t.lookup_mut(A, 81, B, 6000).is_none());
        assert_eq!(
            t.cache_stats(),
            PcbCacheStats { cache_hits: 0, walk_hits: 2, no_match: 1 }
        );
    }

    #[test]
    fn larger_caches_and_other_schemes_are_pluggable() {
        for scheme in [CacheScheme::Lru, CacheScheme::Fifo, CacheScheme::Random] {
            let mut t = PcbTable::with_lookup_cache(scheme, 4, 7);
            for i in 0..4u16 {
                t.insert(established(i as SocketId, 80, 5000 + i));
            }
            // Warm all four, then repeat: every repeat hits the cache.
            for i in 0..4u16 {
                assert!(t.lookup_mut(A, 80, B, 5000 + i).is_some());
            }
            for i in 0..4u16 {
                assert_eq!(t.lookup_mut(A, 80, B, 5000 + i).unwrap().id, i as SocketId);
            }
            assert_eq!(t.cache_stats().cache_hits, 4, "{scheme:?}");
        }
    }

    /// The tentpole scale target: lookups stay correct (and short) with
    /// a large population and churn.
    #[test]
    fn large_population_lookup_and_churn() {
        let mut t = PcbTable::new();
        let n: u32 = 20_000;
        for i in 0..n {
            let mut p = Pcb::new(
                i as SocketId,
                A,
                1024 + (i % 50_000) as u16,
                B,
                (i / 50_000) as u16 + 1,
                64,
            );
            p.state = TcpState::Established;
            t.insert(p);
        }
        assert_eq!(t.len(), n as usize);
        // Every connection is reachable by tuple and by id.
        for i in (0..n).step_by(997) {
            let lport = 1024 + (i % 50_000) as u16;
            let rport = (i / 50_000) as u16 + 1;
            assert_eq!(t.lookup_mut(A, lport, B, rport).unwrap().id, i as SocketId);
            assert_eq!(t.get(i as SocketId).unwrap().local_port, lport);
        }
        // Churn a third out; the rest stay reachable.
        for i in (0..n).step_by(3) {
            assert!(t.remove(i as SocketId).is_some());
        }
        for i in (0..n).step_by(991) {
            let found = t.get(i as SocketId).is_some();
            assert_eq!(found, i % 3 != 0, "id {i}");
        }
    }

    /// swap_remove moves the tail PCB; both indexes must follow it.
    #[test]
    fn remove_repoints_the_moved_tail_entry() {
        let mut t = PcbTable::new();
        t.insert(established(0, 80, 5000));
        t.insert(established(1, 80, 5001));
        t.insert(established(2, 80, 5002));
        assert!(t.remove(0).is_some());
        // PCB 2 was the tail and now occupies slot 0.
        assert_eq!(t.lookup_mut(A, 80, B, 5002).unwrap().id, 2);
        assert_eq!(t.get_mut(2).unwrap().remote_port, 5002);
        assert_eq!(t.get(1).unwrap().remote_port, 5001);
        assert!(t.lookup_mut(A, 80, B, 5000).is_none());
    }

    #[test]
    fn exact_match_beats_listener() {
        let mut t = PcbTable::new();
        let mut listener = Pcb::new(2, A, 80, Ipv4Addr::UNSPECIFIED, 0, 8192);
        listener.state = TcpState::Listen;
        t.insert(listener);
        t.insert(established(3, 80, 7000));
        assert_eq!(t.lookup_mut(A, 80, B, 7000).unwrap().id, 3);
        // Unknown remote port falls back to the listener.
        assert_eq!(t.lookup_mut(A, 80, B, 7001).unwrap().id, 2);
    }

    #[test]
    fn wildcard_local_listener_matches_any_local_addr() {
        let mut t = PcbTable::new();
        let mut listener = Pcb::new(0, Ipv4Addr::UNSPECIFIED, 22, Ipv4Addr::UNSPECIFIED, 0, 8192);
        listener.state = TcpState::Listen;
        t.insert(listener);
        assert!(t.lookup_mut(A, 22, B, 9999).is_some());
        assert!(t.lookup_mut(B, 22, A, 9999).is_some());
        assert!(t.lookup_mut(A, 23, B, 9999).is_none());
    }

    #[test]
    fn remove_invalidates_cache() {
        let mut t = PcbTable::new();
        t.insert(established(0, 80, 5000));
        assert!(t.lookup_mut(A, 80, B, 5000).is_some());
        assert!(t.remove(0).is_some());
        assert!(t.lookup_mut(A, 80, B, 5000).is_none());
        assert!(t.remove(0).is_none());
    }

    #[test]
    fn rcv_wnd_tracks_buffer_space() {
        let mut p = established(0, 1, 2);
        assert_eq!(p.rcv_wnd(), 8192);
        p.recv_buf.append(&[0u8; 1000]).unwrap();
        assert_eq!(p.rcv_wnd(), 7192);
    }

    #[test]
    fn port_in_use() {
        let mut t = PcbTable::new();
        t.insert(established(0, 80, 5000));
        assert!(t.port_in_use(80));
        assert!(!t.port_in_use(81));
    }
}
