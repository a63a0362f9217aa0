//! The saturated-path impairment sweep (`results/impairments.csv`):
//! the signalling workload rerun across a lossy channel with
//! retransmission enabled, LDLP vs. conventional, over loss rates
//! 0–10% (i.i.d. and Gilbert–Elliott bursty) and reorder depths.
//! Every cell also drives real wire frames through the same
//! impairment model at the netstack level, so the CSV records which
//! exception paths fired: checksum rejection, TCP out-of-order
//! buffering and retransmission, and IP reassembly timeout.
//!
//! Retransmission is SSCOP-style, recovering the signalling workload;
//! the conservation law `offered == completed + rejected + drops + shed
//! + in_flight` is asserted in every run of the sweep.

use crate::harness::{self, average};
use crate::{f, Output, RunOpts};
use ldlp::{BatchPolicy, Discipline, StackEngine};
use netstack::iface::{Channel, Device, Interface};
use netstack::ipfrag::REASSEMBLY_TIMEOUT_MS;
use netstack::tcp::machine::{TcpConfig, TcpEvent, TcpStack};
use netstack::tcp::pcb::TcpState;
use netstack::wire::ethernet::EthernetAddr;
use netstack::wire::ipv4::Ipv4Addr;
use signaling::workload::{goal_machine, signaling_stack};
use signaling::{lossy_call_arrivals, LossyCallConfig, RecoveryStats, RetryPolicy};
use simnet::impair::{impair_arrivals, GilbertElliott, ImpairChannel, ImpairConfig};
use simnet::stats::SimReport;
use simnet::{run_sim_impaired, SimConfig};

/// Call-attempt rate of the sweep: near the goal machine's knee, so
/// the impairments act on a loaded switch rather than an idle one.
pub const PAIRS_PER_S: f64 = 8_000.0;
/// Mean call hold time, seconds (RELEASE follows SETUP by this).
pub const HOLD_S: f64 = 0.02;

/// One cell of the impairment grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImpairCell {
    /// Mean packet loss, percent.
    pub loss_pct: f64,
    /// Losses clustered by the Gilbert–Elliott chain instead of
    /// falling independently.
    pub bursty: bool,
    /// NIC-queue reorder depth (0 = in-order delivery).
    pub reorder_depth: usize,
}

/// The sweep grid: loss points x {i.i.d., bursty} x reorder depths.
/// The bursty variant is skipped at zero loss (it would be identical
/// to the i.i.d. row).
pub fn grid(smoke: bool) -> Vec<ImpairCell> {
    let loss_pct: &[f64] = if smoke {
        &[0.0, 2.0, 10.0]
    } else {
        &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    };
    let mut cells = Vec::new();
    for &loss in loss_pct {
        for bursty in [false, true] {
            if bursty && loss == 0.0 {
                continue;
            }
            for depth in [0usize, 8] {
                cells.push(ImpairCell {
                    loss_pct: loss,
                    bursty,
                    reorder_depth: depth,
                });
            }
        }
    }
    cells
}

/// The channel a cell stands for. Corruption scales with the loss
/// rate (half of it), so the checksum-reject path is exercised in
/// every impaired cell; bursty cells lose the same mean fraction in
/// runs of ~4 packets.
pub fn cell_channel(cell: ImpairCell, seed: u64) -> ImpairConfig {
    let loss = cell.loss_pct / 100.0;
    ImpairConfig {
        drop_prob: if cell.bursty { 0.0 } else { loss },
        gilbert: cell
            .bursty
            .then(|| GilbertElliott::bursty(loss, 4.0, 0.5)),
        corrupt_prob: loss / 2.0,
        seed,
        ..ImpairConfig::default()
    }
}

/// Exception-path counters from the wire-level pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Frames rejected by a checksum after a payload byte flip.
    pub checksum_rejects: u64,
    /// TCP segments retransmitted to cover losses.
    pub tcp_retransmits: u64,
    /// TCP segments buffered past a receive gap.
    pub ooo_buffered: u64,
    /// IP reassemblies reclaimed by the timer after fragment loss.
    pub reassembly_timeouts: u64,
    /// IP reassemblies displaced by a newer datagram when the
    /// per-host reassembly table was full (distinct from timeouts).
    pub reassembly_evictions: u64,
}

/// A link-layer [`Device`] with the impairment channel on its
/// transmit side: frames are dropped, corrupted (one byte flipped
/// mid-frame, exactly what a checksum must catch), duplicated, or
/// held back `reorder_slip` deliveries. Frames still held when the
/// exchange ends are never sent. `netstack` cannot depend on `simnet`,
/// so the adapter lives here in the harness.
pub struct ImpairedDevice<D: Device> {
    inner: D,
    chan: ImpairChannel<Vec<u8>>,
}

impl<D: Device> ImpairedDevice<D> {
    /// Wraps `inner` with the impairment channel `cfg`.
    pub fn new(inner: D, cfg: ImpairConfig) -> Self {
        ImpairedDevice {
            inner,
            chan: ImpairChannel::new(cfg),
        }
    }
}

impl<D: Device> Device for ImpairedDevice<D> {
    fn transmit(&mut self, frame: Vec<u8>) {
        let inner = &mut self.inner;
        self.chan.send(frame, |f| inner.transmit(f));
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        self.inner.receive()
    }
}

fn wire_host(n: u8) -> Interface {
    Interface::new(
        EthernetAddr([2, 0, 0, 0, 0, n]),
        Ipv4Addr::new(192, 168, 96, n),
        TcpStack::new(TcpConfig::default()),
    )
}

/// How many fragmented UDP datagrams [`wire_exercise`] sends. Each
/// fragments into three frames, so together with the TCP transfer
/// the exchange pushes enough frames that a corruption probability
/// of a few percent reliably trips a checksum somewhere.
pub const WIRE_UDP_DATAGRAMS: usize = 24;

/// Drives a 4 KB TCP transfer and fragmented UDP datagrams
/// across an impaired link and reports which exception paths fired.
/// TCP recovers losses by retransmission; fragments stranded by a
/// lost sibling are reclaimed by the reassembly timer at the end.
/// Completion is not asserted — at the heaviest impairment the
/// point is precisely how much recovery work was needed — and the
/// whole exchange is deterministic for a given channel config.
///
/// `sink` observes the receiving interface: instant events
/// (`wire/frame_in`, `wire/parse_error`, `wire/fragment_in`, …) stamped
/// in milliseconds of link time. It is handed back with the counters.
pub fn wire_exercise(cfg: ImpairConfig, sink: obs::Sink) -> (WireCounters, obs::Sink) {
    let (ad, bd) = Channel::pair();
    wire_exchange(ad, bd, cfg, sink)
}

/// [`wire_exercise`] over the link endpoints `ad` (host 1's) and `bd`.
fn wire_exchange(
    ad: impl Device,
    bd: impl Device,
    cfg: ImpairConfig,
    sink: obs::Sink,
) -> (WireCounters, obs::Sink) {
    let mut ad = ImpairedDevice::new(ad, cfg);
    let mut bd = ImpairedDevice::new(
        bd,
        ImpairConfig {
            seed: cfg.seed.wrapping_add(1),
            ..cfg
        },
    );
    let mut a = wire_host(1);
    let mut b = wire_host(2);
    b.set_sink(sink, "wire/");
    let (a_ip, a_mac, b_ip, b_mac) = (a.ip(), a.mac(), b.ip(), b.mac());
    a.add_arp_entry(b_ip, b_mac);
    b.add_arp_entry(a_ip, a_mac);
    b.udp_bind(4000).unwrap();
    b.tcp.listen(b_ip, 9).unwrap();
    let conn = a.tcp.connect(a_ip, b_ip, 9, 0).unwrap();

    let payload: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
    let (mut sent, mut received, mut udp_sent) = (0usize, 0usize, 0usize);
    let mut srv = None;
    let mut buf = [0u8; 2048];
    let mut now: u64 = 0;
    while now < 120_000 {
        // Pump both directions until quiet (bounded: duplicates and
        // releases of held frames can extend an exchange).
        for _ in 0..200 {
            let n = a.poll(&mut ad, now) + b.poll(&mut bd, now);
            a.flush_tcp(&mut ad);
            b.flush_tcp(&mut bd);
            if n == 0 {
                break;
            }
        }
        if srv.is_none() {
            srv = b
                .tcp
                .take_events()
                .iter()
                .find_map(|(id, e)| matches!(e, TcpEvent::Accepted { .. }).then_some(*id));
        }
        if a.tcp.state(conn) == TcpState::Established && sent < payload.len() {
            sent += a
                .tcp
                .send(conn, &payload[sent..(sent + 1000).min(payload.len())], now)
                .unwrap_or(0);
            a.flush_tcp(&mut ad);
        }
        if let Some(s) = srv {
            while let Ok(n) = b.tcp.recv(s, &mut buf) {
                if n == 0 {
                    break;
                }
                received += n;
            }
        }
        if udp_sent < WIRE_UDP_DATAGRAMS {
            // A 3000-byte datagram fragments into three frames; any
            // lost fragment strands its siblings until the timer.
            a.udp_send(&mut ad, 4001, b_ip, 4000, &[0xab; 3000]);
            udp_sent += 1;
        }
        while b.udp_recv(4000).is_some() {}
        if received >= payload.len() && udp_sent >= WIRE_UDP_DATAGRAMS {
            break;
        }
        now += 1100; // step past the TCP RTO so losses retransmit
        a.tcp.poll(now);
        b.tcp.poll(now);
        a.flush_tcp(&mut ad);
        b.flush_tcp(&mut bd);
    }
    // One idle poll far enough out for stranded reassemblies to expire.
    let end = now + REASSEMBLY_TIMEOUT_MS + 1;
    a.poll(&mut ad, end);
    b.poll(&mut bd, end);
    let counters = WireCounters {
        checksum_rejects: a.stats().parse_errors + b.stats().parse_errors,
        tcp_retransmits: a.tcp.stats().retransmits + b.tcp.stats().retransmits,
        ooo_buffered: a.tcp.stats().ooo_buffered + b.tcp.stats().ooo_buffered,
        reassembly_timeouts: a.reassembly_stats().timeouts + b.reassembly_stats().timeouts,
        reassembly_evictions: a.reassembly_stats().evictions + b.reassembly_stats().evictions,
    };
    (counters, b.take_sink())
}

/// One finished cell: seed-averaged reports for both disciplines,
/// recovery bookkeeping summed across seeds, and the wire-level
/// exception-path counters.
#[derive(Debug, Clone)]
pub struct ImpairPoint {
    pub cell: ImpairCell,
    pub conventional: SimReport,
    pub ldlp: SimReport,
    /// Summed over seeds (totals, not means).
    pub recovery: RecoveryStats,
    pub wire: WireCounters,
}

fn fold_recovery(into: &mut RecoveryStats, s: &RecoveryStats) {
    into.calls += s.calls;
    into.connected += s.connected;
    into.abandoned += s.abandoned;
    into.transmissions += s.transmissions;
    into.retransmits += s.retransmits;
    into.releases_sent += s.releases_sent;
    into.abandon_releases += s.abandon_releases;
    into.exhausted_sends += s.exhausted_sends;
}

/// One seed of `cell`: the lossy call stream — reordered on the way in
/// when `reorder` is set and the cell has a depth — through both
/// disciplines on fresh signalling stacks, `sink` attached to each run
/// in turn. Returns (conventional, LDLP, recovery bookkeeping, sink).
fn run_seed(
    cell: ImpairCell,
    seed: u64,
    duration_s: f64,
    reorder: bool,
    mut sink: obs::Sink,
) -> (SimReport, SimReport, RecoveryStats, obs::Sink) {
    let cfg = LossyCallConfig {
        pairs_per_s: PAIRS_PER_S,
        hold_s: HOLD_S,
        duration_s,
        seed,
        channel: cell_channel(cell, seed),
        retry: RetryPolicy::default(),
    };
    let (mut deliveries, mut net, stats) = lossy_call_arrivals(&cfg);
    if reorder && cell.reorder_depth > 0 {
        // Reorder only: the call stream's own corruption rides through.
        let (reordered, rc) = impair_arrivals(
            &deliveries,
            ImpairConfig {
                reorder_prob: 0.25,
                reorder_depth: cell.reorder_depth,
                seed: seed ^ 0x5eed,
                ..ImpairConfig::default()
            },
        );
        deliveries = reordered;
        net.reordered += rc.reordered;
    }
    let mut run = |discipline: Discipline, prefix: &str| {
        let (machine, layers) = signaling_stack(goal_machine(), seed);
        // AAL5 (layer 0) carries the CRC-32, so corrupted deliveries die
        // there after costing exactly one layer of processing.
        let mut engine = StackEngine::new(machine, layers, discipline).with_verify_layer(0);
        engine.set_sink(std::mem::take(&mut sink), prefix);
        let sim_cfg = SimConfig {
            duration_s,
            pool_seed: seed,
            ..SimConfig::default()
        };
        let report = run_sim_impaired(&mut engine, &deliveries, &sim_cfg, net);
        assert!(
            report.conservation_holds(),
            "conservation violated: {report:?}"
        );
        sink = engine.take_sink();
        report
    };
    let conv = run(Discipline::Conventional, "conv/");
    let ldlp = run(Discipline::Ldlp(BatchPolicy::DCacheFit), "ldlp/");
    (conv, ldlp, stats, sink)
}

/// The channel of a cell's wire-level pass.
fn wire_channel(cell: ImpairCell) -> ImpairConfig {
    ImpairConfig {
        reorder_prob: if cell.reorder_depth > 0 { 0.25 } else { 0.0 },
        reorder_depth: cell.reorder_depth,
        ..cell_channel(cell, 0x0eed)
    }
}

/// The representative cell the `--trace`/`--metrics` pass reruns at
/// seed 1: mid-grid loss with reordering, present in both the smoke
/// and full grids.
pub const OBSERVED_CELL: ImpairCell = ImpairCell {
    loss_pct: 2.0,
    bursty: false,
    reorder_depth: 8,
};

/// Reruns [`OBSERVED_CELL`] with sinks attached: the signalling
/// workload under both disciplines shares one recorder (cycle
/// timestamps), and the wire-level exchange gets its own (millisecond
/// timestamps). Returns `(sim recorder, wire recorder)`.
pub fn observed_cell(
    duration_s: f64,
    collect_spans: bool,
) -> (Box<obs::Recorder>, Box<obs::Recorder>) {
    let sink = || obs::Sink::record(collect_spans);
    let (_, _, _, sim) = run_seed(OBSERVED_CELL, 1, duration_s, false, sink());
    let (_, wire) = wire_exercise(wire_channel(OBSERVED_CELL), sink());
    let recorder = |s: obs::Sink| s.into_recorder().expect("sink was attached");
    (recorder(sim), recorder(wire))
}

/// Runs the sweep: one job per (cell, seed), the cell's wire-level pass
/// riding on its seed-1 job, reduced in grid and seed order so the CSV
/// is byte-identical for every thread count.
pub fn impairment_sweep(opts: &RunOpts) -> Vec<ImpairPoint> {
    let cells = grid(opts.smoke);
    let runs = harness::grid(opts, &cells, |&cell, seed| {
        let (conv, ldlp, stats, _) = run_seed(cell, seed, opts.duration_s, true, obs::Sink::Off);
        let wire = (seed == 1).then(|| wire_exercise(wire_channel(cell), obs::Sink::Off).0);
        (conv, ldlp, stats, wire)
    });
    cells
        .into_iter()
        .zip(runs)
        .map(|(cell, seeds)| {
            let mut recovery = RecoveryStats::default();
            for (_, _, s, _) in &seeds {
                fold_recovery(&mut recovery, s);
            }
            ImpairPoint {
                cell,
                conventional: average(seeds.iter().map(|r| r.0.clone())),
                ldlp: average(seeds.iter().map(|r| r.1.clone())),
                recovery,
                wire: seeds[0].3.expect("the seed-1 job runs the wire pass"),
            }
        })
        .collect()
}

pub const IMPAIRMENTS_HEADER: [&str; 20] = [
    "loss_pct",
    "burst",
    "reorder_depth",
    "conv_throughput",
    "ldlp_throughput",
    "conv_goodput",
    "ldlp_goodput",
    "conv_latency_us",
    "ldlp_latency_us",
    "conv_p99_us",
    "ldlp_p99_us",
    "conv_rejected",
    "ldlp_rejected",
    "retransmits",
    "abandoned",
    "wire_checksum_rejects",
    "wire_tcp_retransmits",
    "wire_ooo_buffered",
    "wire_reassembly_timeouts",
    "wire_reassembly_evictions",
];

pub fn impairments_rows(points: &[ImpairPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                f(p.cell.loss_pct, 1),
                (p.cell.bursty as u8).to_string(),
                p.cell.reorder_depth.to_string(),
                f(p.conventional.throughput, 1),
                f(p.ldlp.throughput, 1),
                f(p.conventional.goodput, 1),
                f(p.ldlp.goodput, 1),
                f(p.conventional.mean_latency_us, 2),
                f(p.ldlp.mean_latency_us, 2),
                f(p.conventional.p99_latency_us, 2),
                f(p.ldlp.p99_latency_us, 2),
                p.conventional.rejected.to_string(),
                p.ldlp.rejected.to_string(),
                p.recovery.retransmits.to_string(),
                p.recovery.abandoned.to_string(),
                p.wire.checksum_rejects.to_string(),
                p.wire.tcp_retransmits.to_string(),
                p.wire.ooo_buffered.to_string(),
                p.wire.reassembly_timeouts.to_string(),
                p.wire.reassembly_evictions.to_string(),
            ]
        })
        .collect()
}

pub fn run(opts: &RunOpts) -> Output {
    let points = impairment_sweep(opts);
    let mut out = Output::table(
        format!(
            "Impairment sweep: {} setup/teardown pairs/s ({} s mean hold) across\n\
             a lossy channel with retransmission, conventional vs. LDLP, over\n\
             {} grid cells x {} seeds.",
            f(PAIRS_PER_S, 0),
            HOLD_S,
            points.len(),
            opts.seeds
        ),
        &IMPAIRMENTS_HEADER,
        impairments_rows(&points),
        &[0, 1, 2, 5, 6, 7, 8, 13, 14],
        "Goodput counts only messages that completed the full stack —\n\
         corrupted deliveries cost cycles but are rejected at the AAL5 CRC.\n\
         Conservation (offered == completed + rejected + drops + shed +\n\
         in_flight) held in every cell.",
    );
    if opts.trace || opts.metrics {
        // One observed rerun of the representative cell: the signalling
        // workload (cycle timestamps) and the wire exchange (millisecond
        // timestamps) each get a recorder.
        let (mut sim, wire) = observed_cell(opts.duration_s, opts.trace);
        if opts.trace {
            out.trace = vec![
                ("signaling".into(), sim.clone(), goal_machine().clock_mhz),
                ("wire".into(), wire.clone(), 0.001), // millisecond-stamped iface events
            ];
        }
        if opts.metrics {
            // The two recorders use disjoint name prefixes, so a merge
            // yields one metrics document covering both levels.
            sim.merge(&wire);
            out.metrics = Some(sim);
            out.meta = vec![
                ("observed_loss_pct", f(OBSERVED_CELL.loss_pct, 1)),
                ("observed_reorder_depth", OBSERVED_CELL.reorder_depth.to_string()),
            ];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::traffic::Arrival;
    use std::cell::Cell;
    use std::rc::Rc;

    fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// A device that folds every frame it is handed (length, then bytes)
    /// into a shared digest before passing it on.
    struct Tap<D> {
        inner: D,
        digest: Rc<Cell<(u64, u64)>>,
    }

    impl<D: Device> Device for Tap<D> {
        fn transmit(&mut self, frame: Vec<u8>) {
            let (h, n) = self.digest.get();
            let h = fnv1a(fnv1a(h, &(frame.len() as u32).to_le_bytes()), &frame);
            self.digest.set((h, n + 1));
            self.inner.transmit(frame);
        }

        fn receive(&mut self) -> Option<Vec<u8>> {
            self.inner.receive()
        }
    }

    /// The frames each `ImpairedDevice` delivers in the observed cell's
    /// wire exchange, and the call deliveries `lossy_call_arrivals`
    /// produces across one lossy channel, pinned by the digests captured
    /// before the device and the arrival streams shared one channel.
    #[test]
    fn delivered_streams_match_their_pinned_digests() {
        let (ad, bd) = Channel::pair();
        let taps = [(); 2].map(|_| Rc::new(Cell::new((FNV_OFFSET, 0u64))));
        let tap = |inner, i: usize| Tap {
            inner,
            digest: Rc::clone(&taps[i]),
        };
        let (wire, _) = wire_exchange(
            tap(ad, 0),
            tap(bd, 1),
            wire_channel(OBSERVED_CELL),
            obs::Sink::Off,
        );
        assert_eq!(taps[0].get(), (0x8c37_a86a_fa50_f6fb, 85), "host 1's frames");
        assert_eq!(taps[1].get(), (0x27d1_c67e_0477_1dff, 9), "host 2's frames");
        assert_eq!(
            wire,
            WireCounters {
                checksum_rejects: 1,
                tcp_retransmits: 5,
                ooo_buffered: 1,
                reassembly_timeouts: 2,
                reassembly_evictions: 0,
            }
        );

        let (calls, c, _) = lossy_call_arrivals(&LossyCallConfig {
            pairs_per_s: 2000.0,
            hold_s: 0.02,
            duration_s: 0.5,
            seed: 7,
            channel: ImpairConfig {
                drop_prob: 0.08,
                corrupt_prob: 0.04,
                dup_prob: 0.02,
                seed: 21,
                ..ImpairConfig::default()
            },
            retry: RetryPolicy::default(),
        });
        let h = calls.iter().fold(FNV_OFFSET, |h, a: &Arrival| {
            let h = fnv1a(h, &a.time_s.to_bits().to_le_bytes());
            let h = fnv1a(h, &a.bytes.to_le_bytes());
            fnv1a(h, &[u8::from(a.corrupted)])
        });
        let h = [c.offered, c.delivered, c.dropped, c.corrupted, c.duplicated, c.reordered]
            .iter()
            .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()));
        assert_eq!(h, 0x3c00_c7b8_9ffd_d7ee, "lossy call deliveries");
    }

    /// The lossy cells really did lose and recover: the zero-loss row
    /// shows no retransmissions, the 10% rows show some.
    #[test]
    fn lossy_rows_retransmit_and_the_clean_row_does_not() {
        let points = impairment_sweep(&crate::harness::tiny_opts(1));
        assert_eq!(points.len(), grid(true).len());
        assert_eq!(points[0].cell.loss_pct, 0.0);
        assert_eq!(points[0].recovery.retransmits, 0);
        let lossy = points.iter().find(|p| p.cell.loss_pct == 10.0).expect("a 10% loss cell");
        assert!(lossy.recovery.retransmits > 0);
        assert!(lossy.conventional.goodput <= lossy.conventional.throughput);
    }
}
