//! The multi-core run loop: N per-core LDLP engines over a shared L2,
//! driven by one deterministic event loop.
//!
//! Each core is a private, replay-eligible [`cachesim::Machine`] (split
//! L1 I/D, the paper's single-penalty miss path) inside its own
//! [`StackEngine`]. The cores are composed — not merged — with a
//! [`SharedL2`] fabric: mutable state that several cores touch (the
//! reassembly table, the signaling call table, and the descriptor rings
//! of inter-core hand-off queues) is accessed only through the fabric,
//! which charges L2 hits/misses plus coherence transfer/invalidation
//! costs back to the accessing core. Keeping the shared level outside
//! the private machines keeps each core eligible for the footprint
//! replay memoizer — the multi-core model loses none of the single-core
//! simulation speed.
//!
//! Dispatch modes (see [`crate::steer`]):
//! * **FlowHash** / **RoundRobin** — every core runs the full stack on
//!   the flows steered to it; the NIC buffer is split evenly across the
//!   per-core entry queues. Both shared tables are touched by every
//!   core, so table slots ping-pong through the coherence fabric.
//! * **LayerAffinity** — the stack is partitioned contiguously across
//!   cores ([`ldlp::stage_partition`]); all packets enter stage 0 and
//!   whole layer-batches move between stages through bounded
//!   structure-of-arrays descriptor rings ([`crate::ring::DescRing`]),
//!   paying descriptor-ring traffic through the fabric instead. Each
//!   shared table has a single owning stage, so after warm-up its
//!   lines never migrate.
//!
//! Boundedness gives backpressure, in one of two flavours
//! ([`HandoffFlowControl`]): the stock mode sizes every batch to the
//! downstream queue's free space, so overload backs up into the entry
//! queue where the admission policy decides who is dropped — never
//! silently mid-pipeline. The flow-controlled mode lets a producer run
//! full batches and *stall* when the downstream ring refuses a push:
//! the refused descriptors wait in a bounded held buffer (hand-offs are
//! never lost), the producer cannot start new work until they drain,
//! and the waited cycles are charged to the core and surfaced as
//! `bp_stall` observability spans.
//!
//! One scheduler (`SmpSim::drive`) serves two arrival sources. The
//! open-loop [`SmpSim::run`] walks a precomputed arrival schedule; the
//! closed-loop [`SmpSim::run_closed`] pulls transmissions from a
//! retrying client population and feeds completions back as
//! acknowledgements, so retransmit timers fire against the server's
//! actual response times, and completions whose client already gave up
//! (or was acknowledged by another copy) land in the `abandoned`
//! conservation bucket — work the machine did for nobody.
//!
//! Timekeeping mirrors [`simnet::sim`]: one global cycle clock; each
//! core's machine counter only advances while that core processes, and
//! `offset = start − machine_cycles_at_batch_start` converts
//! per-completion machine times to global times. The scheduler always
//! runs the core with the earliest possible batch start (ties broken by
//! lowest core index), and the source's events are delivered strictly in
//! time order before any batch that would start later — fully
//! deterministic, thread-free simulation.
//!
//! Accounting extends the single-core conservation law across cores:
//! `offered == Σ completed + Σ rejected + Σ drops + Σ shed +
//! Σ entry-queued + Σ hand-off-parked`, asserted at the end of every
//! run (the last two terms are zero then, because a run drains).

use crate::ring::{Desc, DescRing};
use crate::steer::{DispatchPolicy, FlowArrival, FlowKey, Steerer};
use cachesim::{
    round_to_cycles, CoherenceStats, MachineConfig, MachineStats, Region, ReplayStats, SharedL2,
    SharedL2Config,
};
use ldlp::synth::{paper_stack, MessagePool};
use ldlp::{
    stage_partition, weighted_fair_admit, AdmissionPolicy, Completion, Discipline, SimMessage,
    StackEngine,
};
use obs::{NameId, SpanEvent};
use simnet::closed::{AckKind, Class, ClientSend, ClosedPopulation};
use simnet::stats::{ClassReport, ClassSamples, MissTotals, RunTally, SimReport};
use simnet::ImpairCounters;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::num::NonZeroU64;

/// Where the shared mutable state lives in the flat simulated address
/// space — disjoint from the code/data/mbuf windows `ldlp::synth` uses.
const REASS_TABLE_BASE: u64 = 0x3000_0000;
const CALL_TABLE_BASE: u64 = 0x3100_0000;
const DESC_WINDOW_BASE: u64 = 0x3200_0000;
/// One hand-off descriptor: a cache line's worth of message metadata.
const DESC_BYTES: u64 = 64;
/// The stock shared-table geometry of [`SmpConfig::new`].
const STOCK_CALL_SLOTS: NonZeroU64 = NonZeroU64::new(signaling::call::CALL_TABLE_SLOTS).unwrap();
const STOCK_REASS_SLOTS: NonZeroU64 = NonZeroU64::new(
    netstack::ipfrag::REASSEMBLY_TABLE_BYTES / netstack::ipfrag::REASSEMBLY_SLOT_BYTES,
)
.unwrap();
/// Per-workload-class windows: each class's shared service table and
/// handler code image live in their own stride of these two regions,
/// disjoint from everything above and from the stack's code/data/mbuf
/// windows.
const WCLASS_TABLE_BASE: u64 = 0x3300_0000;
const WCLASS_CODE_BASE: u64 = 0x3400_0000;
/// Address-space stride between per-class windows; bounds each class's
/// table footprint (stride / slot bytes slots).
const WCLASS_STRIDE: u64 = 1 << 20;
/// One class-table slot: a cache line of per-flow session state.
const WCLASS_SLOT_BYTES: u64 = 64;
/// Footprint-replay ids for per-class handler code. The stack engine
/// claims `0..2 * layers` for its rx/tx layer sweeps; class handlers
/// start well above so the id spaces can never collide.
const WCLASS_FID_BASE: u32 = 64;

/// Workload classes the simulator can account, ids `0..MAX_WCLASS`
/// (class 0 is untagged legacy traffic). Class ids outside the range
/// fold back in via a mask, so this must stay a power of two.
pub const MAX_WCLASS: usize = 8;

/// Per-workload-class processing profile ([`SmpConfig::wclass`]). The
/// default (all zeros) disables the class entirely — no handler fetch,
/// no table traffic, no per-class accounting — so runs that never set a
/// profile are bit-identical to the class-blind simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WClassProfile {
    /// Handler code swept once per message of this class at the top of
    /// the stack (bytes; 0 = no handler). Distinct classes get distinct
    /// code windows, so a heterogeneous mix contends for the I-cache
    /// exactly the way DEC-TR-592 warns.
    pub handler_code_bytes: u32,
    /// Slots in the class's shared service table (session/subscription
    /// state), read-modify-written once per message by the top-of-stack
    /// core; 0 = no table. Capped to the class window
    /// (`WCLASS_STRIDE / WCLASS_SLOT_BYTES` slots).
    pub table_slots: u64,
    /// Latency objective for the class in microseconds (0 = none);
    /// [`SmpOutcome::classes`] reports attainment against it.
    pub slo_us: f64,
}

/// Layers in the paper stack driven by this simulation.
const STACK_LAYERS: usize = 5;

/// How a pipeline stage behaves when its downstream hand-off ring has
/// less free space than the batch it could otherwise run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffFlowControl {
    /// Size every batch to the downstream ring's free space (the
    /// original behaviour, and the default): a stage never produces a
    /// completion it cannot hand off, so pushes are guaranteed and the
    /// producer never waits.
    SizeToFree,
    /// Run full batches and flow-control the hand-off: descriptors the
    /// ring refuses wait in a bounded held buffer, the producer stalls
    /// (it starts no new batch until the buffer drains), and the stall
    /// is charged — `bp_stall_cycles` in the [`CoreReport`], a
    /// `bp_stall` span in the observability stream. Models a real
    /// producer that discovers ring occupancy at push time instead of
    /// sizing its work to a snapshot.
    StallProducer,
}

/// Simulation parameters for one multi-core run.
#[derive(Debug, Clone, Copy)]
pub struct SmpConfig {
    /// Number of cores (≥ 1). Under LayerAffinity at most one core per
    /// layer does useful work; extra cores idle (and report zeros).
    pub cores: usize,
    /// How packets are dispatched to cores.
    pub dispatch: DispatchPolicy,
    /// Per-core processing discipline (Conventional / LDLP / ILP).
    pub discipline: Discipline,
    /// Per-core machine (private split L1s; leave `l2` unset so the
    /// footprint-replay memoizer stays eligible).
    pub machine: MachineConfig,
    /// Shared L2 + coherence fabric costs.
    pub shared: SharedL2Config,
    /// What to do with an arrival when its entry queue is full.
    pub admission: AdmissionPolicy,
    /// Total NIC buffering in packets, split evenly across entry queues
    /// (all cores under FlowHash/RoundRobin; stage 0 keeps the whole
    /// budget under LayerAffinity).
    pub buffer_cap: usize,
    /// Capacity of each inter-core hand-off queue, in messages.
    pub handoff_cap: usize,
    /// What a producer stage does when the downstream ring is fuller
    /// than its batch.
    pub flow_control: HandoffFlowControl,
    /// Arrival-window length in seconds (for rate accounting).
    pub duration_s: f64,
    /// Message-buffer pool entries per entry core, at least 1.
    pub pool_bufs: usize,
    /// Message-buffer size in bytes.
    pub pool_buf_bytes: u64,
    /// Seed for code/data/buffer placement. All cores share one layout:
    /// one kernel image, mapped on every core.
    pub placement_seed: u64,
    /// Simulated shared call-table capacity in slots. The default is the
    /// modest switch port of `signaling::call::CALL_TABLE_SLOTS`; a
    /// population-sized table spreads per-message slot RMWs over a
    /// realistic footprint instead of ping-ponging 64 entries.
    pub call_table_slots: NonZeroU64,
    /// Simulated shared reassembly-table capacity in slots.
    pub reass_table_slots: NonZeroU64,
    /// Per-workload-class processing profiles, indexed by the
    /// [`FlowArrival::wclass`] tag. All-default profiles (the stock
    /// configuration) keep the simulator entirely class-blind.
    pub wclass: [WClassProfile; MAX_WCLASS],
}

impl SmpConfig {
    /// The defaults every figure-9 cell starts from: the paper's
    /// synthetic-benchmark machine per core, the paper's buffer budget,
    /// and the stock SMP fabric.
    pub fn new(cores: usize, dispatch: DispatchPolicy, discipline: Discipline) -> Self {
        SmpConfig {
            cores,
            dispatch,
            discipline,
            machine: MachineConfig::synthetic_benchmark(),
            shared: SharedL2Config::smp_default(),
            admission: AdmissionPolicy::TailDrop,
            buffer_cap: 500,
            handoff_cap: 64,
            flow_control: HandoffFlowControl::SizeToFree,
            duration_s: 1.0,
            pool_bufs: 64,
            pool_buf_bytes: 1536,
            placement_seed: 1,
            call_table_slots: STOCK_CALL_SLOTS,
            reass_table_slots: STOCK_REASS_SLOTS,
            wclass: [WClassProfile::default(); MAX_WCLASS],
        }
    }

    /// Checks the simulated address windows this lays out — each shared
    /// table's slots, each stage's descriptor ring — and that a ring
    /// holds at least one descriptor.
    fn check_geometry(&self) {
        let ring = self.handoff_cap as u64;
        let windows = [
            (
                "call_table_slots",
                CALL_TABLE_BASE,
                self.call_table_slots.get(),
                signaling::call::CALL_SLOT_BYTES,
            ),
            (
                "reass_table_slots",
                REASS_TABLE_BASE,
                self.reass_table_slots.get(),
                netstack::ipfrag::REASSEMBLY_SLOT_BYTES,
            ),
            (
                "handoff_cap",
                DESC_WINDOW_BASE,
                ring.saturating_mul(self.cores as u64),
                DESC_BYTES,
            ),
        ];
        for (field, base, slots, slot_bytes) in windows {
            let end = slots
                .checked_mul(slot_bytes)
                .and_then(|b| base.checked_add(b));
            assert!(
                end.is_some(),
                "SmpConfig::{field} = {slots} overflows the simulated address space"
            );
        }
        assert!(ring > 0, "SmpConfig::handoff_cap must be at least 1");
    }
}

/// Per-core outcome of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreReport {
    /// Messages that finished their final stage on this core.
    pub completed: u64,
    /// Corrupted messages rejected at this core's verify layer.
    pub rejected: u64,
    /// Arrivals refused admission at this core's entry queue.
    pub drops: u64,
    /// Queued packets evicted by the admission policy.
    pub shed: u64,
    /// Batches processed.
    pub batches: u64,
    /// Messages processed on this core (any outcome, incl. handed off).
    pub msgs: u64,
    /// Cycles this core spent processing (not idling).
    pub busy_cycles: u64,
    /// L1 instruction-cache misses charged to this core.
    pub imisses: u64,
    /// L1 data-cache misses charged to this core.
    pub dmisses: u64,
    /// Hand-off stall episodes (a batch ended with descriptors the
    /// downstream ring refused; [`HandoffFlowControl::StallProducer`]).
    pub bp_stalls: u64,
    /// Cycles this core spent stalled waiting for downstream ring
    /// space, from batch end to the pop that freed the last held
    /// descriptor.
    pub bp_stall_cycles: u64,
}

/// Everything one multi-core run produced.
#[derive(Debug, Clone)]
pub struct SmpOutcome {
    /// Aggregate report in the single-core [`SimReport`] shape (a
    /// message's I/D-miss samples are summed across the stages it
    /// visited).
    pub report: SimReport,
    /// Per-core breakdown, one entry per configured core (idle cores
    /// under LayerAffinity report zeros).
    pub per_core: Vec<CoreReport>,
    /// Shared-L2 / coherence counters for the run.
    pub coherence: CoherenceStats,
    /// Messages that crossed an inter-core hand-off queue.
    pub handoff_msgs: u64,
    /// Footprint-replay memoizer counters for the run, summed across
    /// cores.
    pub replay: ReplayStats,
    /// Queued packets shed by the admission policy, by traffic class
    /// (closed-loop runs; open-loop runs are class-blind and account
    /// everything to [`Class::Rpc`]).
    pub shed_by_class: [u64; Class::COUNT],
    /// Arrivals refused admission, by traffic class (same caveat).
    pub drops_by_class: [u64; Class::COUNT],
    /// Per-workload-class reports, indexed by [`FlowArrival::wclass`],
    /// populated when any [`SmpConfig::wclass`] profile is set (empty
    /// otherwise). Closed-loop sends carry no tag and ride class 0:
    /// its `completed` and latencies are the useful acknowledgements,
    /// and stale completions (`report.abandoned`) appear in no class.
    pub classes: Vec<ClassReport>,
}

/// Interned per-core observability names.
#[derive(Debug, Clone, Copy)]
struct ObsIds {
    batch: NameId,
    latency: NameId,
    imiss: NameId,
    dmiss: NameId,
    bp_stall: NameId,
    /// Per-workload-class latency histograms (`w<class>/latency_us`),
    /// interned only when class profiles are configured — untracked
    /// runs add no names, so their metrics documents are unchanged.
    wlat: [Option<NameId>; MAX_WCLASS],
}

/// One packet waiting in an entry queue.
#[derive(Debug, Clone, Copy)]
struct EntryPkt {
    arr: u64,
    bytes: u32,
    corrupted: bool,
    flow_id: u32,
    /// Per-client request sequence number ties a closed-loop completion
    /// back to the population; 0 for open-loop arrivals.
    req: u64,
    /// Traffic class for weighted-fair accounting; open-loop arrivals
    /// are class-blind and ride as [`Class::Rpc`].
    class: Class,
    /// Workload message class (0 = untagged), for per-class accounting
    /// and per-class handler/table charging at the top of the stack.
    wclass: u8,
}

struct CoreState {
    engine: StackEngine,
    pool: MessagePool,
    entry: VecDeque<EntryPkt>,
    /// Hand-off queue feeding this core: an SoA descriptor ring (see
    /// [`crate::ring`]) carrying each message's accumulated per-message
    /// cost so the final stage can emit whole-path samples.
    inbox: DescRing,
    /// Descriptors the downstream ring refused at batch end
    /// ([`HandoffFlowControl::StallProducer`]); the producer is stalled
    /// until this drains. Bounded by one batch (≤ `pool_bufs`).
    held: VecDeque<Desc>,
    /// Global cycle the current stall episode began (batch end).
    held_since: u64,
    /// Entry-queue occupancy by traffic class, for weighted-fair
    /// admission.
    class_counts: [u64; Class::COUNT],
    busy_until: u64,
    /// Machine cycle count when the current run started.
    m0: u64,
    /// L1 miss counters when the current run started.
    icache0: u64,
    dcache0: u64,
    replay0: ReplayStats,
    obs: Option<ObsIds>,
    rep: CoreReport,
    // Reused per-batch scratch: the steady-state loop allocates
    // nothing. Per-message bookkeeping for the batch in flight is
    // columnar (parallel arrays indexed by batch position) to match
    // the descriptor-ring layout.
    batch: Vec<SimMessage>,
    b_arr: Vec<u64>,
    b_flow: Vec<u32>,
    b_wclass: Vec<u8>,
    b_imiss: Vec<u64>,
    b_dmiss: Vec<u64>,
    completions: Vec<Completion>,
}

/// Appends to one of the run loop's reused buffers.
fn push_warm<T>(buf: &mut Vec<T>, item: T) {
    // analyze::allow(alloc-path, reason = "batch columns and per-run sample/routing buffers keep their capacity across batches and runs and grow by at most one entry per message: a warm simulator replaying a load it has seen allocates nothing (tests/alloc.rs)")
    buf.push(item);
}

impl CoreState {
    /// Adds one message to the batch being formed, with the per-message
    /// cost it has accumulated upstream.
    fn stage(&mut self, d: Desc) {
        push_warm(&mut self.batch, d.msg);
        push_warm(&mut self.b_arr, d.arr);
        push_warm(&mut self.b_flow, d.flow_id);
        push_warm(&mut self.b_wclass, d.wclass);
        push_warm(&mut self.b_imiss, d.imiss);
        push_warm(&mut self.b_dmiss, d.dmiss);
    }
}

/// Where a run's traffic comes from. The scheduler (`SmpSim::drive`)
/// knows a source only through `SmpSim::step`: "deliver your next event
/// if it is due by the frontier".
enum Source<'a> {
    /// Open loop: a precomputed arrival schedule and a cursor into it.
    Open(&'a [FlowArrival], usize),
    Closed(ClosedSource<'a>),
}

/// Closed loop: a retrying client population whose think/timer events
/// emit transmissions and whose requests are acknowledged by the run's
/// own completions (`SmpSim::ready_acks`).
struct ClosedSource<'a> {
    pop: &'a mut ClosedPopulation,
    /// Per-class shares for [`AdmissionPolicy::WeightedFair`].
    weights: [u32; Class::COUNT],
    /// Transmissions emitted but not yet admitted, in time order.
    pending: VecDeque<ClientSend>,
    /// `poll_sends` scratch, empty between calls.
    sends: Vec<ClientSend>,
    cycles_per_s: f64,
    /// `pop`'s next event and `pending`'s front in cycles (`u64::MAX` =
    /// none). `pop` and `pending` change only through the methods
    /// below, each of which converts the head it moved — once per
    /// change instead of once per [`SmpSim::step`].
    ev: u64,
    send: u64,
}

impl<'a> ClosedSource<'a> {
    fn new(pop: &'a mut ClosedPopulation, weights: [u32; Class::COUNT], cycles_per_s: f64) -> Self {
        let mut cs = ClosedSource {
            pop,
            weights,
            pending: VecDeque::new(),
            sends: Vec::new(),
            cycles_per_s,
            ev: u64::MAX,
            send: u64::MAX,
        };
        cs.refresh_ev();
        cs
    }

    fn refresh_ev(&mut self) {
        let next = self.pop.next_event_time();
        self.ev = next.map_or(u64::MAX, |t| to_cycles(t, self.cycles_per_s));
    }

    fn refresh_send(&mut self) {
        let front = self.pending.front();
        self.send = front.map_or(u64::MAX, |s| to_cycles(s.time_s, self.cycles_per_s));
    }

    /// Fires every client event up to `t_s` and queues the
    /// transmissions the channel delivers.
    fn fire(&mut self, t_s: f64) {
        self.pop.poll_sends(t_s, &mut self.sends);
        // analyze::allow(alloc-path, reason = "holds only what the events just fired emitted, a few transmissions per client at most, and drains as the frontier passes them; capacity is kept for the whole run")
        self.pending.extend(self.sends.drain(..));
        self.refresh_ev();
        self.refresh_send();
    }

    fn pop_send(&mut self) -> Option<ClientSend> {
        let s = self.pending.pop_front();
        self.refresh_send();
        s
    }

    fn ack(&mut self, client: u32, req: u64, t_s: f64) -> AckKind {
        let kind = self.pop.ack(client, req, t_s);
        self.refresh_ev();
        kind
    }
}

/// The reusable multi-core simulator. Build once, [`SmpSim::run`] per
/// arrival stream, read the [`SmpSim::outcome`]. The run loop itself is
/// allocation-free in steady state (pinned by `tests/alloc.rs`); the
/// allocating report assembly lives in [`SmpSim::outcome`].
pub struct SmpSim {
    cfg: SmpConfig,
    pipeline: bool,
    /// Cores that actually run protocol code (== `cfg.cores` for
    /// full-stack dispatch, ≤ under LayerAffinity).
    stages: usize,
    cores: Vec<CoreState>,
    shared: SharedL2,
    steer: Steerer,
    entry_cap: usize,
    clock_mhz: f64,
    cycles_per_s: f64,
    latencies_us: Vec<f64>,
    misses: MissTotals,
    offered: u64,
    last_finish: u64,
    handoff_msgs: u64,
    batches: u64,
    msg_seq: u64,
    /// Stale completions — the machine finished work whose client had
    /// already been acknowledged or had given up.
    abandoned: u64,
    /// Clean final-stage completions awaiting delivery to the client
    /// population, as `(finish_cycle, message_id, core)` in a min-heap
    /// (message id breaks finish-time ties deterministically).
    ready_acks: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// `(client, req)` by message id, for acknowledgement routing.
    closed_meta: Vec<(u32, u64)>,
    /// Shed / refused admission counts by traffic class.
    shed_by_class: [u64; Class::COUNT],
    drops_by_class: [u64; Class::COUNT],
    /// Whether any workload-class profile is configured. False keeps
    /// every per-class branch cold: the run loop is bit-identical to
    /// the class-blind simulator.
    wtrack: bool,
    /// Per-class accounting, `MAX_WCLASS` entries when tracking
    /// (empty otherwise — `get_mut` then makes every bump a no-op).
    wsamples: Vec<ClassSamples>,
    /// Precomputed handler-code line lists per class (empty for
    /// classes with no handler), fed to the footprint-replay memoizer
    /// under fid `WCLASS_FID_BASE + class`.
    wlines: Vec<Vec<u64>>,
}

impl SmpSim {
    /// Builds the engines, queues, and fabric for `cfg`.
    pub fn new(cfg: &SmpConfig) -> SmpSim {
        assert!(cfg.cores > 0, "need at least one core");
        cfg.check_geometry();
        let pipeline = cfg.dispatch == DispatchPolicy::LayerAffinity;
        let sizes = stage_partition(STACK_LAYERS, cfg.cores);
        let stages = if pipeline { sizes.len() } else { cfg.cores };
        let entry_cores = if pipeline { 1 } else { cfg.cores };
        let entry_cap = (cfg.buffer_cap / entry_cores).max(1);

        let mut cores = Vec::with_capacity(stages);
        let mut offset = 0usize;
        for s in 0..stages {
            // Every core maps the same kernel image: one placement seed
            // for all, so layer code/data addresses agree across cores.
            let (machine, layers) = paper_stack(cfg.machine, cfg.placement_seed);
            let layers = if pipeline {
                let take = sizes.get(s).copied().unwrap_or(0);
                let chunk: Vec<_> = layers.into_iter().skip(offset).take(take).collect();
                offset += take;
                chunk
            } else {
                layers
            };
            let engine = StackEngine::new(machine, layers, cfg.discipline);
            cores.push(CoreState {
                engine,
                pool: MessagePool::new(cfg.pool_bufs, cfg.pool_buf_bytes, cfg.placement_seed),
                entry: VecDeque::with_capacity(entry_cap),
                inbox: DescRing::new(cfg.handoff_cap),
                held: VecDeque::with_capacity(cfg.pool_bufs),
                held_since: 0,
                class_counts: [0; Class::COUNT],
                busy_until: 0,
                m0: 0,
                icache0: 0,
                dcache0: 0,
                replay0: ReplayStats::default(),
                obs: None,
                rep: CoreReport::default(),
                batch: Vec::with_capacity(cfg.pool_bufs),
                b_arr: Vec::with_capacity(cfg.pool_bufs),
                b_flow: Vec::with_capacity(cfg.pool_bufs),
                b_wclass: Vec::with_capacity(cfg.pool_bufs),
                b_imiss: Vec::with_capacity(cfg.pool_bufs),
                b_dmiss: Vec::with_capacity(cfg.pool_bufs),
                completions: Vec::with_capacity(cfg.pool_bufs),
            });
        }

        let wtrack = cfg.wclass.iter().any(|p| *p != WClassProfile::default());
        let line = cfg.machine.icache.line_size.max(1);
        let wlines: Vec<Vec<u64>> = if wtrack {
            cfg.wclass
                .iter()
                .enumerate()
                .map(|(w, p)| {
                    // Handler images honour the machine's code density,
                    // like the layer code placed by `ldlp::synth`.
                    let bytes =
                        (f64::from(p.handler_code_bytes) * cfg.machine.code_density).ceil() as u64;
                    let base = (WCLASS_CODE_BASE + w as u64 * WCLASS_STRIDE) / line;
                    (0..bytes.div_ceil(line)).map(|i| base + i).collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        let wsamples: Vec<ClassSamples> = if wtrack {
            (0..MAX_WCLASS).map(|_| ClassSamples::default()).collect()
        } else {
            Vec::new()
        };

        let clock_mhz = cfg.machine.clock_mhz;
        SmpSim {
            pipeline,
            stages,
            cores,
            shared: SharedL2::new(cfg.shared),
            steer: Steerer::new(cfg.dispatch, if pipeline { 1 } else { cfg.cores }),
            entry_cap,
            clock_mhz,
            cycles_per_s: clock_mhz * 1e6,
            latencies_us: Vec::new(),
            misses: MissTotals::default(),
            offered: 0,
            last_finish: 0,
            handoff_msgs: 0,
            batches: 0,
            msg_seq: 0,
            abandoned: 0,
            ready_acks: BinaryHeap::new(),
            closed_meta: Vec::new(),
            shed_by_class: [0; Class::COUNT],
            drops_by_class: [0; Class::COUNT],
            wtrack,
            wsamples,
            wlines,
            cfg: *cfg,
        }
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &SmpConfig {
        &self.cfg
    }

    /// Attaches one observability sink per active core, with `c<i>/`
    /// name prefixes. `collect_spans` keeps raw events for tracing;
    /// `false` folds into metrics accumulators only.
    pub fn set_sinks(&mut self, collect_spans: bool) {
        let wtrack = self.wtrack;
        for (i, core) in self.cores.iter_mut().enumerate() {
            let prefix = format!("c{i}/");
            core.engine.set_sink(obs::Sink::record(collect_spans), &prefix);
            let mut wlat = [None; MAX_WCLASS];
            if wtrack {
                for (w, slot) in wlat.iter_mut().enumerate() {
                    *slot = core.engine.obs_intern(&format!("w{w}/latency_us"));
                }
            }
            core.obs = match (
                core.engine.obs_intern("batch"),
                core.engine.obs_intern("latency_us"),
                core.engine.obs_intern("imiss_per_msg"),
                core.engine.obs_intern("dmiss_per_msg"),
                core.engine.obs_intern("bp_stall"),
            ) {
                (Some(batch), Some(latency), Some(imiss), Some(dmiss), Some(bp_stall)) => {
                    Some(ObsIds {
                        batch,
                        latency,
                        imiss,
                        dmiss,
                        bp_stall,
                        wlat,
                    })
                }
                _ => None,
            };
        }
    }

    /// Detaches and returns the per-core recorders as
    /// `("core<i>", recorder)` pairs — one trace track per core.
    pub fn take_recorders(&mut self) -> Vec<(String, Box<obs::Recorder>)> {
        let mut out = Vec::new();
        for (i, core) in self.cores.iter_mut().enumerate() {
            if let Some(rec) = core.engine.take_sink().into_recorder() {
                out.push((format!("core{i}"), rec));
            }
            core.obs = None;
        }
        out
    }

    /// Runs one arrival stream to drain. Per-run counters and samples
    /// reset first; caches, the replay memo table, the coherence
    /// directory, and flow-steering state stay warm across runs (like
    /// real silicon across seconds). Asserts the multi-core
    /// conservation law before returning.
    pub fn run(&mut self, arrivals: &[FlowArrival]) {
        self.drive(Source::Open(arrivals, 0));
    }

    /// Runs a closed-loop client population to drain: transmissions are
    /// pulled from `pop` up to the causality frontier (the earliest
    /// possible next batch start), completions are fed back as
    /// acknowledgements in finish order, and completions whose client
    /// already gave up or was already acknowledged count as `abandoned`
    /// — machine work done for nobody, the metastability signal
    /// `figure13` sweeps. `weights` are the per-class shares used when
    /// the admission policy is [`AdmissionPolicy::WeightedFair`]
    /// (ignored otherwise).
    ///
    /// Causal exactness: batches run in non-decreasing start order, so
    /// every acknowledgement that could cancel a client timer at time t
    /// is delivered before any event at t fires, and client events
    /// before an acknowledgement's finish time fire before the
    /// acknowledgement lands.
    pub fn run_closed(&mut self, pop: &mut ClosedPopulation, weights: [u32; Class::COUNT]) {
        self.drive(Source::Closed(ClosedSource::new(pop, weights, self.cycles_per_s)));
    }

    /// The scheduler: deliver everything the source has due at or
    /// before the earliest startable batch (inclusive: a batch forming
    /// at t sees everything that happened by t, as in the single-core
    /// loop), run that batch, and repeat until neither the source nor
    /// any core has anything left.
    // analyze::hot_path(smp-event-loop)
    fn drive(&mut self, mut src: Source<'_>) {
        self.reset_run();
        let feedback = matches!(src, Source::Closed(_));
        'event: loop {
            // `step` keeps `best` current across the admissions it
            // makes; when it cannot, rescan every core.
            let mut best = self.scan_best();
            while let Some(rescan) = self.step(&mut src, &mut best) {
                if rescan {
                    continue 'event;
                }
            }
            debug_assert_eq!(best, self.scan_best(), "incremental best diverged from a full scan");
            let Some((start, c)) = best else {
                // No startable core and nothing left in the source.
                break;
            };
            self.run_batch(c, start, feedback);
            self.flush_held(c, start);
        }
        self.assert_conservation();
    }

    /// Delivers `src`'s next event if it happens at or before the start
    /// of the `best` batch, keeping `best` current; `None` when nothing
    /// is due by then. `Some(true)` asks for a full rescan (see
    /// [`SmpSim::admit`]); client-side events change no core's queues
    /// and never do.
    fn step(&mut self, src: &mut Source<'_>, best: &mut Option<(u64, usize)>) -> Option<bool> {
        let frontier = best.map_or(u64::MAX, |(s, _)| s);
        match src {
            Source::Open(arrivals, next) => {
                let a = arrivals.get(*next)?;
                let t = to_cycles(a.time_s, self.cycles_per_s);
                if t > frontier {
                    return None;
                }
                *next += 1;
                // Open-loop arrivals are class-blind: they ride as
                // `Class::Rpc` and carry no weights.
                let pkt = EntryPkt {
                    arr: t,
                    bytes: a.bytes,
                    corrupted: a.corrupted,
                    flow_id: a.flow_id,
                    req: 0,
                    class: Class::Rpc,
                    wclass: a.wclass,
                };
                Some(self.admit(&a.key, pkt, None, best))
            }
            Source::Closed(cs) => {
                let ack = self.ready_acks.peek().map_or(u64::MAX, |Reverse(a)| a.0);
                let t = cs.ev.min(cs.send).min(ack);
                if t == u64::MAX || t > frontier {
                    return None;
                }
                // Ties go to events, then sends, then acknowledgements:
                // a timer due exactly when its acknowledgement lands
                // still fires, matching `signaling::recovery`.
                if cs.ev == t {
                    cs.fire(cs.pop.next_event_time()?);
                } else if cs.send == t {
                    let s = cs.pop_send()?;
                    let key = FlowKey::synth(s.client, self.cfg.placement_seed);
                    let pkt = EntryPkt {
                        arr: t,
                        bytes: s.bytes,
                        corrupted: s.corrupted,
                        flow_id: s.client,
                        req: s.req,
                        class: s.class,
                        wclass: 0,
                    };
                    return Some(self.admit(&key, pkt, Some(&cs.weights), best));
                } else {
                    let Reverse((finish, id, c)) = self.ready_acks.pop()?;
                    let finish_s = finish as f64 / self.cycles_per_s;
                    // Boundary stragglers (cycle rounding) fire before
                    // the acknowledgement lands.
                    cs.fire(finish_s);
                    let (client, req) =
                        self.closed_meta.get(id as usize).copied().unwrap_or((u32::MAX, 0));
                    match cs.ack(client, req, finish_s) {
                        AckKind::Useful { latency_us } => Self::complete(
                            &mut self.cores[c],
                            &mut self.latencies_us,
                            &mut self.wsamples,
                            0,
                            latency_us,
                        ),
                        AckKind::Stale => self.abandoned += 1,
                    }
                }
                Some(false)
            }
        }
    }

    /// Books one useful completion that finished on `core`.
    fn complete(
        core: &mut CoreState,
        latencies_us: &mut Vec<f64>,
        wsamples: &mut [ClassSamples],
        wi: usize,
        lat_us: f64,
    ) {
        core.rep.completed += 1;
        if let Some(ws) = wsamples.get_mut(wi) {
            ws.completed += 1;
            push_warm(&mut ws.latencies_us, lat_us);
        }
        push_warm(latencies_us, lat_us);
        if let Some(ids) = core.obs {
            if let Some(rec) = core.engine.sink_mut().on_mut() {
                rec.record_value(ids.latency, lat_us as u64);
                if let Some(wid) = ids.wlat[wi] {
                    rec.record_value(wid, lat_us as u64);
                }
            }
        }
    }

    /// Core `c`'s earliest possible batch start, if it can start one:
    /// a core stalled on a refused hand-off (non-empty held buffer)
    /// cannot, nor can one whose downstream ring is full — except under
    /// StallProducer, where the producer runs and stalls at push time.
    fn candidate(&self, c: usize) -> Option<u64> {
        let core = &self.cores[c];
        if !core.held.is_empty() {
            return None;
        }
        let ready = match core.entry.front() {
            Some(pkt) => pkt.arr,
            // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
            None => core.inbox.next_ready()?,
        };
        let gated = self.pipeline
            && c + 1 < self.stages
            && self.cfg.flow_control == HandoffFlowControl::SizeToFree
            // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
            && self.cores[c + 1].inbox.free() == 0;
        (!gated).then(|| ready.max(core.busy_until))
    }

    /// The earliest startable batch across cores, ties broken toward
    /// the lowest core index.
    fn scan_best(&self) -> Option<(u64, usize)> {
        (0..self.cores.len()).filter_map(|c| Some((self.candidate(c)?, c))).min()
    }

    /// Assembles the run's [`SmpOutcome`]. Allocates — call it outside
    /// the measured window; `net` carries impairment-channel counters
    /// into the report (use `default()` for a clean channel).
    pub fn outcome(&mut self, net: ImpairCounters) -> SmpOutcome {
        let mut rejected = 0u64;
        let mut drops = 0u64;
        let mut shed = 0u64;
        for core in &self.cores {
            rejected += core.rep.rejected;
            drops += core.rep.drops;
            shed += core.rep.shed;
        }
        let report = SimReport::from_totals(
            &mut self.latencies_us,
            self.misses,
            RunTally {
                offered: self.offered,
                rejected,
                drops,
                shed,
                in_flight: 0,
                abandoned: self.abandoned,
                duration_s: self.cfg.duration_s,
                span_s: self.last_finish as f64 / self.cycles_per_s,
                batches: self.batches,
                net,
            },
        );

        let mut per_core = Vec::with_capacity(self.cfg.cores);
        let mut replay = ReplayStats::default();
        for core in &self.cores {
            let stats: MachineStats = core.engine.machine().stats();
            let mut rep = core.rep;
            rep.imisses = stats.icache.misses - core.icache0;
            rep.dmisses = stats.dcache.misses - core.dcache0;
            per_core.push(rep);
            let r = core.engine.machine().replay_stats();
            replay.hits += r.hits - core.replay0.hits;
            replay.misses += r.misses - core.replay0.misses;
            replay.bypasses += r.bypasses - core.replay0.bypasses;
        }
        // Idle cores (LayerAffinity with more cores than layers).
        per_core.resize(self.cfg.cores, CoreReport::default());

        let classes: Vec<ClassReport> = self
            .wsamples
            .iter_mut()
            .zip(self.cfg.wclass.iter())
            .map(|(s, p)| s.report(p.slo_us))
            .collect();

        SmpOutcome {
            report,
            per_core,
            coherence: self.shared.stats(),
            handoff_msgs: self.handoff_msgs,
            replay,
            shed_by_class: self.shed_by_class,
            drops_by_class: self.drops_by_class,
            classes,
        }
    }

    fn reset_run(&mut self) {
        self.latencies_us.clear();
        self.misses = MissTotals::default();
        self.offered = 0;
        self.last_finish = 0;
        self.handoff_msgs = 0;
        self.batches = 0;
        self.msg_seq = 0;
        self.abandoned = 0;
        self.ready_acks.clear();
        self.closed_meta.clear();
        self.shed_by_class = [0; Class::COUNT];
        self.drops_by_class = [0; Class::COUNT];
        for s in &mut self.wsamples {
            s.clear();
        }
        self.shared.reset_stats();
        for core in &mut self.cores {
            core.rep = CoreReport::default();
            core.busy_until = 0;
            core.held_since = 0;
            core.class_counts = [0; Class::COUNT];
            core.m0 = core.engine.machine().cycles();
            let stats = core.engine.machine().stats();
            core.icache0 = stats.icache.misses;
            core.dcache0 = stats.dcache.misses;
            core.replay0 = core.engine.machine().replay_stats();
            // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
            debug_assert!(core.entry.is_empty() && core.inbox.is_empty() && core.held.is_empty());
        }
    }

    /// Steers one packet to its core and offers it to that core's entry
    /// queue under the configured admission policy. `weights` are the
    /// per-class shares of [`AdmissionPolicy::WeightedFair`]; a
    /// class-blind caller passes `None` and gets that policy's
    /// tail-drop degrade from [`AdmissionPolicy::admit`].
    ///
    /// An admission touches one core's entry queue, so `best` is
    /// updated in place instead of rescanning every core — sound only
    /// while candidates move earlier. Returns `true`, leaving `best`
    /// stale, when the core's candidate may have moved *later*: queued
    /// work was evicted, or a previously empty entry queue now shadows
    /// a non-empty inbox.
    fn admit(
        &mut self,
        key: &FlowKey,
        pkt: EntryPkt,
        weights: Option<&[u32; Class::COUNT]>,
        best: &mut Option<(u64, usize)>,
    ) -> bool {
        let c = self.steer.core_for(key);
        let core = &mut self.cores[c];
        let was_empty = core.entry.is_empty();
        self.offered += 1;
        // Per-workload-class books (no-ops when untracked: `wsamples`
        // is empty and `get_mut` always misses).
        let wi = usize::from(pkt.wclass) & (MAX_WCLASS - 1);
        if let Some(ws) = self.wsamples.get_mut(wi) {
            ws.offered += 1;
        }
        let ci = pkt.class.index();
        let (evicted, admit) = match weights {
            Some(w) if self.cfg.admission == AdmissionPolicy::WeightedFair => {
                // The donor is the *oldest* queued packet of the most
                // over-share class; the survivors keep their FIFO order.
                let (donor, admit) = weighted_fair_admit(&core.class_counts, w, self.entry_cap, ci);
                let pos = donor.and_then(|d| core.entry.iter().position(|p| p.class.index() == d));
                if let Some(pos) = pos {
                    Self::shed(core, pos, &mut self.shed_by_class, &mut self.wsamples);
                }
                (donor.is_some(), admit)
            }
            _ => {
                // Class-blind policies evict from the queue head.
                let (evict, admit) = self.cfg.admission.admit(core.entry.len(), self.entry_cap);
                for _ in 0..evict {
                    Self::shed(core, 0, &mut self.shed_by_class, &mut self.wsamples);
                }
                (evict > 0, admit)
            }
        };
        if admit {
            core.class_counts[ci] += 1;
            // analyze::allow(alloc-path, reason = "entry queue is reserved at construction for entry_cap packets and admission never lets it exceed that")
            core.entry.push_back(pkt);
        } else {
            core.rep.drops += 1;
            self.drops_by_class[ci] += 1;
            if let Some(ws) = self.wsamples.get_mut(wi) {
                ws.drops += 1;
            }
        }
        // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
        let later = evicted || (was_empty && !core.inbox.is_empty());
        if !later {
            if let Some(start) = self.candidate(c) {
                if best.is_none_or(|b| (start, c) < b) {
                    *best = Some((start, c));
                }
            }
        }
        later
    }

    /// Sheds the queued packet at position `pos` of `core`'s entry
    /// queue, charging the loss to the victim's own classes.
    fn shed(
        core: &mut CoreState,
        pos: usize,
        shed_by_class: &mut [u64; Class::COUNT],
        wsamples: &mut [ClassSamples],
    ) {
        // Typed so `crates/analyze` resolves `remove` to the std deque
        // rather than to every workspace method of that name.
        let queue: &mut VecDeque<EntryPkt> = &mut core.entry;
        let Some(victim) = queue.remove(pos) else {
            return;
        };
        let vi = victim.class.index();
        core.class_counts[vi] = core.class_counts[vi].saturating_sub(1);
        shed_by_class[vi] += 1;
        core.rep.shed += 1;
        let vw = usize::from(victim.wclass) & (MAX_WCLASS - 1);
        if let Some(ws) = wsamples.get_mut(vw) {
            ws.shed += 1;
        }
    }

    /// Shared-table slot for `flow_id`: `slots` entries of `slot_bytes`
    /// at `base`.
    fn table_slot(base: u64, slots: NonZeroU64, slot_bytes: u64, flow_id: u32) -> Region {
        Region::new(base + (u64::from(flow_id) % slots) * slot_bytes, slot_bytes)
    }

    /// Descriptor-ring slot `seq % cap` of the queue feeding `stage`.
    fn desc_region(cap: NonZeroU64, stage: usize, seq: u64) -> Region {
        let ring = DESC_WINDOW_BASE + stage as u64 * cap.get() * DESC_BYTES;
        Region::new(ring + (seq % cap) * DESC_BYTES, DESC_BYTES)
    }

    /// Runs core `c`'s next batch at global cycle `start`. `feedback`
    /// (closed loop) parks clean final completions in `ready_acks` for
    /// the client population to classify instead of counting them now.
    fn run_batch(&mut self, c: usize, start: u64, feedback: bool) {
        let has_down = self.pipeline && c + 1 < self.stages;
        let is_final = !has_down;
        let owns_bottom = !self.pipeline || c == 0;
        let owns_top = !self.pipeline || c + 1 == self.stages;
        // `check_geometry` refused a zero ring in `SmpSim::new`.
        let ring_slots =
            NonZeroU64::new(self.cfg.handoff_cap as u64).unwrap_or(NonZeroU64::MIN);

        let stall_mode = self.cfg.flow_control == HandoffFlowControl::StallProducer;
        // Under StallProducer the batch is sized by the engine alone;
        // whatever the downstream ring refuses at push time is held and
        // the producer stalls.
        let downstream_free = if has_down && !stall_mode {
            self.cores[c + 1].inbox.free()
        } else {
            usize::MAX
        };

        let (left, right) = self.cores.split_at_mut(c + 1);
        let core = &mut left[c];
        let mut down = if has_down { right.first_mut() } else { None };

        // Candidate set: how many messages are takeable right now, and
        // how big the largest is (batch limits are sized conservatively
        // by the largest candidate, as in the single-core loop). The
        // ring scan reads only the ready-time and buffer-length columns.
        let (avail, max_bytes) = if core.entry.is_empty() {
            core.inbox.takeable(start)
        } else if matches!(core.engine.discipline(), Discipline::Ldlp(_)) {
            (
                core.entry.len(),
                core.entry.iter().map(|p| u64::from(p.bytes)).max().unwrap_or(0),
            )
        } else {
            // Only LDLP sizes a batch by its largest message; under
            // overload the entry queue is full and not worth walking.
            (core.entry.len(), 0)
        };
        debug_assert!(avail > 0, "scheduled a core with no takeable work");
        let limit = core
            .engine
            .batch_limit(max_bytes.max(1))
            .min(avail)
            .min(self.cfg.pool_bufs)
            .min(downstream_free);

        let m_before_abs = core.engine.machine().cycles();
        let m_before = m_before_abs - core.m0;
        debug_assert!(start >= m_before, "busy accounting lost cycles");
        let misses_before = core.obs.map(|_| core.engine.machine().miss_counts());

        // Form the batch. Entry cores materialize pool messages;
        // pipeline stages pop handed-off messages and pay the
        // consumer-side descriptor-ring read through the fabric.
        core.batch.clear();
        core.b_arr.clear();
        core.b_flow.clear();
        core.b_wclass.clear();
        core.b_imiss.clear();
        core.b_dmiss.clear();
        if core.entry.is_empty() {
            let popped0 = core.inbox.popped();
            for k in 0..limit as u64 {
                let Some(d) = core.inbox.pop(start) else {
                    break;
                };
                core.stage(d);
                let slot = Self::desc_region(ring_slots, c, popped0 + k);
                self.shared.read(c as u8, slot, core.engine.machine_mut());
            }
        } else {
            for _ in 0..limit {
                let Some(pkt) = core.entry.pop_front() else {
                    break;
                };
                let pi = pkt.class.index();
                core.class_counts[pi] = core.class_counts[pi].saturating_sub(1);
                let mut msg = core.pool.make_message(self.msg_seq, u64::from(pkt.bytes));
                msg.arrival_cycles = pkt.arr;
                msg.corrupted = pkt.corrupted;
                self.msg_seq += 1;
                if feedback {
                    // Route the eventual completion back to the client:
                    // `closed_meta[msg.id]` is `(client, req)`.
                    push_warm(&mut self.closed_meta, (pkt.flow_id, pkt.req));
                }
                core.stage(Desc {
                    msg,
                    arr: pkt.arr,
                    flow_id: pkt.flow_id,
                    wclass: pkt.wclass,
                    imiss: 0,
                    dmiss: 0,
                });
            }
        }

        // Shared mutable protocol state: the reassembly table at the
        // bottom of the stack, the call table at the top — one
        // read-modify-write per message each. Under full-stack dispatch
        // every core does both, so slots ping-pong through the fabric;
        // under layer affinity each table has one owning stage and its
        // lines stop migrating after warm-up.
        for k in 0..core.b_flow.len() {
            let flow = core.b_flow[k];
            if owns_bottom {
                let slot = Self::table_slot(
                    REASS_TABLE_BASE,
                    self.cfg.reass_table_slots,
                    netstack::ipfrag::REASSEMBLY_SLOT_BYTES,
                    flow,
                );
                self.shared.rmw(c as u8, slot, core.engine.machine_mut());
            }
            if owns_top {
                let slot = Self::table_slot(
                    CALL_TABLE_BASE,
                    self.cfg.call_table_slots,
                    signaling::call::CALL_SLOT_BYTES,
                    flow,
                );
                self.shared.rmw(c as u8, slot, core.engine.machine_mut());
            }
        }

        // Per-workload-class service work rides with the top of the
        // stack: the class handler's code sweep (memoized like the
        // layer sweeps, under its own footprint id) and one RMW of the
        // class's shared session table. The loop runs class by class —
        // the service dispatcher hands same-class work to its handler
        // back to back, the paper's layer-batching discipline applied
        // one level up — so a mixed batch sweeps each resident handler
        // image once instead of thrashing the I-cache in arrival order
        // (and the memoizer sees class *sets*, not class sequences).
        // Untracked runs skip the whole block.
        if self.wtrack && owns_top {
            for w in 0..MAX_WCLASS {
                for k in 0..core.b_flow.len() {
                    if usize::from(core.b_wclass[k]) & (MAX_WCLASS - 1) != w {
                        continue;
                    }
                    let (i0, d0) = core.engine.machine().miss_counts();
                    if let Some(lines) = self.wlines.get(w) {
                        if !lines.is_empty() {
                            core.engine
                                .machine_mut()
                                .fetch_code_footprint(WCLASS_FID_BASE + w as u32, lines);
                        }
                    }
                    let slots = self.cfg.wclass[w]
                        .table_slots
                        .min(WCLASS_STRIDE / WCLASS_SLOT_BYTES);
                    if let Some(slots) = NonZeroU64::new(slots) {
                        let slot = Self::table_slot(
                            WCLASS_TABLE_BASE + w as u64 * WCLASS_STRIDE,
                            slots,
                            WCLASS_SLOT_BYTES,
                            core.b_flow[k],
                        );
                        self.shared.rmw(c as u8, slot, core.engine.machine_mut());
                    }
                    // Attribute the class work's misses to this message
                    // (`process_batch_into` only meters layer sweeps);
                    // the first message of a class in the batch absorbs
                    // the handler image's misses, followers ride warm.
                    let (i1, d1) = core.engine.machine().miss_counts();
                    core.b_imiss[k] += i1 - i0;
                    core.b_dmiss[k] += d1 - d0;
                }
            }
        }

        core.engine.process_batch_into(&core.batch, &mut core.completions);

        // Producer-side descriptor writes for everything about to be
        // handed off — still inside this batch's busy window, so the
        // hand-off cost lands in the message's latency.
        if let Some(down) = down.as_deref() {
            let mut seq = down.inbox.pushed();
            for k in 0..core.completions.len() {
                if !core.completions[k].rejected {
                    let slot = Self::desc_region(ring_slots, c + 1, seq);
                    self.shared.write(c as u8, slot, core.engine.machine_mut());
                    seq += 1;
                }
            }
        }

        let m_after_abs = core.engine.machine().cycles();
        let dur = m_after_abs - m_before_abs;
        let end_global = start + dur;
        let offset = start - m_before;
        core.busy_until = end_global;
        core.rep.busy_cycles += dur;
        core.rep.batches += 1;
        core.rep.msgs += core.batch.len() as u64;
        self.batches += 1;

        if let (Some(ids), Some((i0, d0))) = (core.obs, misses_before) {
            let (i1, d1) = core.engine.machine().miss_counts();
            let queue_after = core.entry.len() as u64 + core.inbox.len() as u64;
            let batch_len = core.batch.len() as u32;
            if let Some(rec) = core.engine.sink_mut().on_mut() {
                rec.span(SpanEvent {
                    name: ids.batch,
                    start: m_before_abs,
                    dur,
                    batch: batch_len,
                    aux: queue_after,
                    imisses: i1 - i0,
                    dmisses: d1 - d0,
                });
            }
        }

        for k in 0..core.completions.len() {
            let comp = core.completions[k];
            let arr = core.b_arr[k];
            let im = core.b_imiss[k] + comp.imisses;
            let dm = core.b_dmiss[k] + comp.dmisses;
            let wi = usize::from(core.b_wclass[k]) & (MAX_WCLASS - 1);
            if comp.rejected || is_final {
                // The message leaves the machine here. Whatever becomes
                // of it, the work is spent: miss samples and the span
                // clock advance now.
                let finish = (comp.done_cycles - core.m0) + offset;
                self.last_finish = self.last_finish.max(finish);
                self.misses.add(im, dm);
                if let Some(ws) = self.wsamples.get_mut(wi) {
                    ws.rejected += u64::from(comp.rejected);
                    ws.imiss_sum += im;
                    ws.dmiss_sum += dm;
                }
                if let Some(ids) = core.obs {
                    if let Some(rec) = core.engine.sink_mut().on_mut() {
                        rec.record_value(ids.imiss, im);
                        rec.record_value(ids.dmiss, dm);
                    }
                }
                if comp.rejected {
                    core.rep.rejected += 1;
                } else if feedback {
                    // Useful or stale is the client's call, made when
                    // the acknowledgement is delivered.
                    // analyze::allow(alloc-path, reason = "holds completions between their batch and the frontier reaching their finish cycle: at most one per message in the machine, which the entry queues and rings bound")
                    self.ready_acks.push(Reverse((finish, core.batch[k].id, c)));
                } else {
                    let lat_us = finish.saturating_sub(arr) as f64 / self.clock_mhz;
                    Self::complete(core, &mut self.latencies_us, &mut self.wsamples, wi, lat_us);
                }
            } else if let Some(down) = down.as_deref_mut() {
                let (fl, wc) = (core.b_flow[k], core.b_wclass[k]);
                // analyze::allow(alloc-path, reason = "ring storage is preallocated at construction; push writes in place")
                let pushed = down.inbox.push(end_global, &core.batch[k], arr, fl, wc, im, dm);
                if pushed {
                    self.handoff_msgs += 1;
                } else {
                    // Only StallProducer sizes batches past downstream
                    // free space; the refused descriptor parks in the
                    // bounded held buffer — never lost — and the core
                    // stalls until the consumer pops.
                    debug_assert!(stall_mode, "batch was sized by downstream free space");
                    // analyze::allow(alloc-path, reason = "held buffer is bounded by one batch (pool_bufs); capacity is reserved at construction")
                    core.held.push_back(Desc {
                        msg: core.batch[k],
                        arr,
                        flow_id: core.b_flow[k],
                        wclass: core.b_wclass[k],
                        imiss: im,
                        dmiss: dm,
                    });
                }
            }
        }

        if !core.held.is_empty() {
            // Stall episode: charged and surfaced when it resolves in
            // `flush_held`.
            core.rep.bp_stalls += 1;
            core.held_since = end_global;
        }
    }

    /// After core `c` ran a batch (popping its inbox at `start`), move
    /// as many of the upstream producer's held descriptors as now fit.
    /// When the buffer drains the producer's stall ends: the cycles it
    /// waited are charged to the core and emitted as a `bp_stall` span.
    fn flush_held(&mut self, c: usize, start: u64) {
        if !self.pipeline || c == 0 || c >= self.stages {
            return;
        }
        let (left, right) = self.cores.split_at_mut(c);
        let (Some(prod), Some(cons)) = (left.last_mut(), right.first_mut()) else {
            return;
        };
        if prod.held.is_empty() {
            return;
        }
        // The transfer happens when space frees (the consumer's pops at
        // `start`) or when the producer finished producing, whichever
        // is later.
        let t_flush = start.max(prod.held_since);
        let mut moved = 0u32;
        // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
        while cons.inbox.free() > 0 {
            let Some(d) = prod.held.pop_front() else {
                break;
            };
            // The descriptor bytes were already written (and charged)
            // during the producing batch; the stall was pure waiting.
            // analyze::allow(charge-coverage, reason = "descriptor slot bytes were charged via SharedL2 write during the producing batch; releasing a held descriptor is pure waiting, no new data movement")
            // analyze::allow(alloc-path, reason = "ring storage is preallocated at construction; push writes in place")
            let ok = cons.inbox.push(t_flush, &d.msg, d.arr, d.flow_id, d.wclass, d.imiss, d.dmiss);
            debug_assert!(ok, "free space was checked above");
            self.handoff_msgs += 1;
            moved += 1;
        }
        if prod.held.is_empty() {
            let stalled = t_flush - prod.held_since;
            prod.rep.bp_stall_cycles += stalled;
            prod.busy_until = prod.busy_until.max(t_flush);
            if stalled > 0 {
                let m_now = prod.engine.machine().cycles();
                if let Some(ids) = prod.obs {
                    if let Some(rec) = prod.engine.sink_mut().on_mut() {
                        rec.span(SpanEvent {
                            name: ids.bp_stall,
                            start: m_now,
                            dur: stalled,
                            batch: moved,
                            aux: t_flush,
                            imisses: 0,
                            dmisses: 0,
                        });
                    }
                }
            }
        }
    }

    fn assert_conservation(&self) {
        let mut completed = 0u64;
        let mut rejected = 0u64;
        let mut drops = 0u64;
        let mut shed = 0u64;
        let mut queued = 0u64;
        let mut parked = 0u64;
        for core in &self.cores {
            completed += core.rep.completed;
            rejected += core.rep.rejected;
            drops += core.rep.drops;
            shed += core.rep.shed;
            queued += core.entry.len() as u64;
            // analyze::allow(charge-coverage, reason = "head/tail occupancy reads model core-local ring registers; slot data movement is charged at push/pop via SharedL2 read/write")
            parked += core.inbox.len() as u64 + core.held.len() as u64;
        }
        let unacked = self.ready_acks.len() as u64;
        assert_eq!(
            self.offered,
            completed + rejected + drops + shed + queued + parked + unacked + self.abandoned,
            "multi-core conservation violated: offered {} != completed {completed} + \
             rejected {rejected} + drops {drops} + shed {shed} + entry-queued {queued} + \
             hand-off-parked {parked} + unacked {unacked} + abandoned {}",
            self.offered,
            self.abandoned
        );
    }

}

/// Simulated seconds to machine cycles at `cycles_per_s`.
fn to_cycles(t_s: f64, cycles_per_s: f64) -> u64 {
    round_to_cycles(t_s * cycles_per_s)
}

/// One-shot convenience: build, run, report.
pub fn run_smp(cfg: &SmpConfig, arrivals: &[FlowArrival]) -> SmpOutcome {
    run_smp_impaired(cfg, arrivals, ImpairCounters::default())
}

/// [`run_smp`] for a stream that went through an impairment channel;
/// `net` carries the channel's counters into the report.
pub fn run_smp_impaired(
    cfg: &SmpConfig,
    arrivals: &[FlowArrival],
    net: ImpairCounters,
) -> SmpOutcome {
    let mut sim = SmpSim::new(cfg);
    sim.run(arrivals);
    sim.outcome(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steer::tag_flows;
    use ldlp::BatchPolicy;
    use simnet::traffic::{ConstantSource, TrafficSource};

    fn arrivals(rate_hz: f64, duration_s: f64, flows: u32, seed: u64) -> Vec<FlowArrival> {
        let raw = ConstantSource::new(1.0 / rate_hz, 552).take_until(duration_s);
        tag_flows(&raw, flows, seed)
    }

    fn cfg(cores: usize, dispatch: DispatchPolicy, discipline: Discipline) -> SmpConfig {
        SmpConfig {
            duration_s: 0.2,
            ..SmpConfig::new(cores, dispatch, discipline)
        }
    }

    #[test]
    fn single_core_light_load_completes_everything() {
        let c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        let arr = arrivals(200.0, 0.2, 8, 1);
        let out = run_smp(&c, &arr);
        assert_eq!(out.report.completed, arr.len() as u64);
        assert_eq!(out.report.drops + out.report.shed, 0);
        assert!(out.report.conservation_holds());
        assert_eq!(out.per_core.len(), 1);
        assert_eq!(out.per_core[0].completed, arr.len() as u64);
        assert_eq!(out.handoff_msgs, 0, "one core, no hand-offs");
        // The shared tables were exercised through the fabric.
        assert!(out.coherence.reads > 0 && out.coherence.writes > 0);
        // One core: no cross-core transfers, ever.
        assert_eq!(out.coherence.transfers, 0);
        assert_eq!(out.coherence.invalidations, 0);
    }

    /// Table sizing: defaults reproduce the stock constants (so every
    /// pre-existing figure-9 cell is bit-identical), and tables sized
    /// for the flow population spread per-message RMWs over a larger
    /// footprint, cutting slot ping-pong.
    #[test]
    fn shared_tables_size_with_the_flow_population() {
        let stock = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        assert_eq!(
            stock.call_table_slots.get(),
            signaling::call::CALL_TABLE_SLOTS
        );
        assert_eq!(
            stock.reass_table_slots.get(),
            netstack::ipfrag::REASSEMBLY_TABLE_BYTES / netstack::ipfrag::REASSEMBLY_SLOT_BYTES
        );
        // 4096 flows hammering 64 slots ping-pong constantly; the same
        // flows over a 4096-slot table mostly own distinct lines.
        let arr = arrivals(2000.0, 0.2, 4096, 4);
        let out_small = run_smp(&stock, &arr);
        let slots = NonZeroU64::new(4096).unwrap();
        let big = SmpConfig { call_table_slots: slots, reass_table_slots: slots, ..stock };
        let out_big = run_smp(&big, &arr);
        assert!(out_small.report.conservation_holds());
        assert!(out_big.report.conservation_holds());
        assert_eq!(out_small.report.completed, out_big.report.completed);
        assert!(
            out_big.coherence.transfers + out_big.coherence.invalidations
                < out_small.coherence.transfers + out_small.coherence.invalidations,
            "population-sized tables must reduce slot ping-pong: {} vs {}",
            out_big.coherence.transfers + out_big.coherence.invalidations,
            out_small.coherence.transfers + out_small.coherence.invalidations
        );
    }

    #[test]
    fn full_stack_dispatch_spreads_flows_across_cores() {
        let c = cfg(4, DispatchPolicy::FlowHash, Discipline::Conventional);
        let arr = arrivals(2000.0, 0.2, 64, 2);
        let out = run_smp(&c, &arr);
        assert!(out.report.conservation_holds());
        assert_eq!(out.report.completed, arr.len() as u64);
        let active = out.per_core.iter().filter(|r| r.msgs > 0).count();
        assert!(active >= 3, "64 flows over 4 cores should hit most cores");
        // Different cores write the same table slots: coherence traffic.
        assert!(out.coherence.transfers + out.coherence.invalidations > 0);
    }

    #[test]
    fn layer_affinity_pipelines_across_stages() {
        let c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let arr = arrivals(2000.0, 0.2, 16, 3);
        let n = arr.len() as u64;
        let out = run_smp(&c, &arr);
        assert!(out.report.conservation_holds());
        assert_eq!(out.report.completed, n);
        // 5 layers over 4 cores: 4 stages, every one of them worked.
        for s in 0..4 {
            assert!(out.per_core[s].msgs > 0, "stage {s} idle");
        }
        // Every message crossed 3 hand-off boundaries.
        assert_eq!(out.handoff_msgs, 3 * n);
        // Completions happen at the last stage only.
        assert_eq!(out.per_core[3].completed, n);
        assert_eq!(out.per_core[0].completed, 0);
    }

    #[test]
    fn more_cores_than_layers_leaves_extras_idle() {
        let c = cfg(
            8,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let out = run_smp(&c, &arrivals(1000.0, 0.2, 8, 4));
        assert_eq!(out.per_core.len(), 8);
        assert!(out.per_core[..5].iter().all(|r| r.msgs > 0));
        assert!(out.per_core[5..].iter().all(|r| r.msgs == 0));
    }

    /// A zero table is unrepresentable; the rest of the geometry is
    /// refused once, at construction, rather than deep in a batch.
    #[test]
    #[should_panic(expected = "SmpConfig::handoff_cap must be at least 1")]
    fn a_zero_descriptor_ring_is_refused_at_construction() {
        let mut c = cfg(2, DispatchPolicy::LayerAffinity, Discipline::Conventional);
        c.handoff_cap = 0;
        SmpSim::new(&c);
    }

    /// A zero-buffer pool would spin the event loop on empty batches.
    #[test]
    #[should_panic(expected = "pool_bufs must be at least 1")]
    fn a_zero_buffer_pool_is_refused() {
        let mut c = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.pool_bufs = 0;
        SmpSim::new(&c).run(&arrivals(1000.0, 0.009, 4, 1));
    }

    #[test]
    #[should_panic(expected = "SmpConfig::call_table_slots = 18446744073709551615 overflows")]
    fn a_table_past_the_address_space_is_refused_at_construction() {
        let mut c = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.call_table_slots = NonZeroU64::MAX;
        SmpSim::new(&c);
    }

    #[test]
    fn corrupted_messages_reject_at_the_entry_stage() {
        let mut arr = arrivals(1000.0, 0.2, 8, 5);
        for a in arr.iter_mut().step_by(10) {
            a.corrupted = true;
        }
        let want_rejected = arr.iter().filter(|a| a.corrupted).count() as u64;
        let c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let out = run_smp(&c, &arr);
        assert_eq!(out.report.rejected, want_rejected);
        assert_eq!(out.per_core[0].rejected, want_rejected, "verify is stage 0");
        assert_eq!(out.report.completed, arr.len() as u64 - want_rejected);
        assert!(out.report.conservation_holds());
    }

    #[test]
    fn runs_are_deterministic() {
        for dispatch in [
            DispatchPolicy::FlowHash,
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LayerAffinity,
        ] {
            let c = cfg(4, dispatch, Discipline::Ldlp(BatchPolicy::DCacheFit));
            let arr = arrivals(3000.0, 0.2, 32, 6);
            let a = run_smp(&c, &arr);
            let b = run_smp(&c, &arr);
            assert_eq!(a.report, b.report, "{dispatch:?}");
            assert_eq!(a.per_core, b.per_core, "{dispatch:?}");
            assert_eq!(a.coherence, b.coherence, "{dispatch:?}");
        }
    }

    #[test]
    fn overload_drops_at_entry_never_mid_pipeline() {
        let mut c = cfg(
            2,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.buffer_cap = 16;
        c.handoff_cap = 8;
        let out = run_smp(&c, &arrivals(60_000.0, 0.2, 16, 7));
        assert!(out.report.drops > 0, "overload must drop");
        assert!(out.report.conservation_holds());
        // Everything admitted made it out the far end: drains are full.
        assert_eq!(
            out.report.offered,
            out.report.completed + out.report.rejected + out.report.drops + out.report.shed
        );
    }

    #[test]
    fn stall_producer_mode_loses_nothing_and_charges_stalls() {
        let mut c = cfg(
            2,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.buffer_cap = 64;
        c.handoff_cap = 4;
        c.flow_control = HandoffFlowControl::StallProducer;
        let arr = arrivals(60_000.0, 0.2, 16, 7);
        let out = run_smp(&c, &arr);
        assert!(out.report.conservation_holds());
        // Drained fully: nothing left in queues, rings, or held buffers.
        assert_eq!(
            out.report.offered,
            out.report.completed + out.report.rejected + out.report.drops + out.report.shed
        );
        assert!(out.report.completed > 0);
        let stage0 = out.per_core[0];
        assert!(stage0.bp_stalls > 0, "a 4-deep ring under overload must stall the producer");
        assert!(stage0.bp_stall_cycles > 0, "stalls cost cycles");
        // The final stage has no downstream and can never stall.
        let last = out.per_core[out.per_core.len() - 1];
        assert_eq!(last.bp_stalls + last.bp_stall_cycles, 0);
        // The stock mode never stalls anywhere.
        c.flow_control = HandoffFlowControl::SizeToFree;
        let base = run_smp(&c, &arr);
        assert!(base.per_core.iter().all(|r| r.bp_stalls == 0 && r.bp_stall_cycles == 0));
    }

    #[test]
    fn stall_producer_runs_are_deterministic() {
        let mut c = cfg(
            3,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.handoff_cap = 8;
        c.flow_control = HandoffFlowControl::StallProducer;
        let arr = arrivals(30_000.0, 0.2, 16, 9);
        let a = run_smp(&c, &arr);
        let b = run_smp(&c, &arr);
        assert_eq!(a.report, b.report);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.coherence, b.coherence);
    }

    fn closed_pop(clients: u32, think_s: f64, duration_s: f64, seed: u64) -> ClosedPopulation {
        ClosedPopulation::new(&simnet::ClosedConfig::new(clients, think_s, duration_s, seed))
    }

    #[test]
    fn closed_loop_light_load_acks_every_request() {
        let c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        let mut pop = closed_pop(20, 0.01, 0.2, 5);
        let mut sim = SmpSim::new(&c);
        sim.run_closed(&mut pop, [1, 1, 1]);
        let out = sim.outcome(pop.channel_counters());
        let st = *pop.stats();
        assert!(st.useful > 50, "a light closed loop keeps cycling");
        assert_eq!(out.report.completed, st.useful, "every useful ack is a completion");
        assert_eq!(out.report.offered, st.offered, "server sees what the channel delivered");
        assert_eq!(out.report.abandoned, 0, "fast service leaves nothing stale");
        assert_eq!(st.abandoned_requests, 0);
        assert_eq!(st.transmissions, st.requests, "no retries at light load");
        assert!(out.report.conservation_holds());
        assert_eq!(out.report.mean_latency_us, {
            let l = pop.latencies_us();
            l.iter().sum::<f64>() / l.len() as f64
        });
    }

    #[test]
    fn closed_overload_retries_amplify_and_stale_work_is_conserved() {
        // A deliberately slow server: one core, a deep client
        // population, and a hair-trigger client RTO. Retransmitted
        // copies pile into the queue; the first copy to complete acks
        // the client and the rest finish stale (`abandoned`).
        let mut c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.buffer_cap = 256;
        let mut pc = simnet::ClosedConfig::new(300, 1e-4, 0.05, 11);
        pc.retry = simnet::RetryPolicy {
            rto_s: 0.001,
            ..simnet::RetryPolicy::default()
        };
        let mut pop = ClosedPopulation::new(&pc);
        let mut sim = SmpSim::new(&c);
        sim.run_closed(&mut pop, [1, 1, 1]);
        let out = sim.outcome(pop.channel_counters());
        let st = *pop.stats();
        assert!(st.retry_amplification() > 1.2, "overload must trigger retries");
        assert!(out.report.abandoned > 0, "duplicate copies complete stale");
        assert!(out.report.conservation_holds());
        // Drained: offered splits exactly into the terminal buckets.
        assert_eq!(
            out.report.offered,
            out.report.completed
                + out.report.rejected
                + out.report.drops
                + out.report.shed
                + out.report.abandoned
        );
        // Goodput counts useful acks only; throughput counts stale too.
        assert!(out.report.throughput > out.report.goodput);
    }

    #[test]
    fn closed_weighted_fair_sheds_the_overweight_class() {
        // Weights heavily favour call + dns; the rpc class is capped at
        // a sliver of the buffer, so under overload its packets are the
        // ones shed or refused.
        let mut c = cfg(1, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.admission = AdmissionPolicy::WeightedFair;
        c.buffer_cap = 64;
        let mut pc = simnet::ClosedConfig::new(300, 1e-4, 0.05, 13);
        pc.retry = simnet::RetryPolicy {
            rto_s: 0.001,
            ..simnet::RetryPolicy::default()
        };
        let weights = [8, 8, 1];
        let mut pop = ClosedPopulation::new(&pc);
        let mut sim = SmpSim::new(&c);
        sim.run_closed(&mut pop, weights);
        let out = sim.outcome(pop.channel_counters());
        let st = *pop.stats();
        assert!(out.report.conservation_holds());
        let rpc = Class::Rpc.index();
        let lost_rpc = out.shed_by_class[rpc] + out.drops_by_class[rpc];
        let lost_call = out.shed_by_class[0] + out.drops_by_class[0];
        assert!(
            lost_rpc > lost_call,
            "the 1-weight class must absorb the overload: rpc lost {lost_rpc}, call lost {lost_call}"
        );
        // The favoured classes resolve a larger fraction of their
        // requests than the squeezed one.
        let frac = |i: usize| st.per_class_useful[i] as f64 / st.per_class_requests[i].max(1) as f64;
        assert!(
            frac(0) >= frac(rpc),
            "call fraction {} vs rpc fraction {}",
            frac(0),
            frac(rpc)
        );
    }

    #[test]
    fn closed_runs_are_deterministic_across_modes() {
        for fc in [HandoffFlowControl::SizeToFree, HandoffFlowControl::StallProducer] {
            let mut c = cfg(
                4,
                DispatchPolicy::LayerAffinity,
                Discipline::Ldlp(BatchPolicy::DCacheFit),
            );
            c.handoff_cap = 8;
            c.flow_control = fc;
            let run = || {
                let mut pop = closed_pop(60, 5e-4, 0.1, 17);
                let mut sim = SmpSim::new(&c);
                sim.run_closed(&mut pop, [4, 1, 2]);
                (sim.outcome(pop.channel_counters()), *pop.stats())
            };
            let (o1, s1) = run();
            let (o2, s2) = run();
            assert_eq!(o1.report, o2.report, "{fc:?}");
            assert_eq!(o1.per_core, o2.per_core, "{fc:?}");
            assert_eq!(s1, s2, "{fc:?}");
        }
    }

    /// Tags a deterministic class rotation onto an arrival stream.
    fn tag_classes(arr: &mut [FlowArrival], classes: &[u8]) {
        for (i, a) in arr.iter_mut().enumerate() {
            a.wclass = classes[i % classes.len()];
        }
    }

    #[test]
    fn workload_classes_are_accounted_and_charged() {
        let mut c = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.wclass[1] = WClassProfile {
            handler_code_bytes: 4096,
            table_slots: 256,
            slo_us: 1e9,
        };
        c.wclass[2] = WClassProfile {
            handler_code_bytes: 512,
            table_slots: 16,
            slo_us: 1e-3,
        };
        let mut arr = arrivals(2000.0, 0.2, 32, 11);
        tag_classes(&mut arr, &[1, 2, 2]);
        let n1 = arr.iter().filter(|a| a.wclass == 1).count() as u64;
        let n2 = arr.iter().filter(|a| a.wclass == 2).count() as u64;
        let out = run_smp(&c, &arr);
        assert!(out.report.conservation_holds());
        assert_eq!(out.classes.len(), MAX_WCLASS);
        assert_eq!(out.classes[1].offered, n1);
        assert_eq!(out.classes[2].offered, n2);
        assert_eq!(out.classes[0].offered, 0, "no untagged traffic in this stream");
        // Light load: everything completes, and the per-class books
        // close exactly.
        for w in [1usize, 2] {
            let cl = &out.classes[w];
            assert_eq!(cl.offered, cl.completed + cl.rejected + cl.drops + cl.shed, "class {w}");
            assert!(cl.p99_latency_us >= cl.p50_latency_us && cl.p50_latency_us > 0.0);
        }
        // A generous SLO is met; an impossible one is not.
        assert_eq!(out.classes[1].slo_attainment, 1.0);
        assert_eq!(out.classes[2].slo_attainment, 0.0);
        // The big-handler class costs more I-misses per message than
        // the small-handler one (4 KB vs 0.5 KB swept per message).
        assert!(
            out.classes[1].mean_imiss > out.classes[2].mean_imiss,
            "class 1 ({}) should out-miss class 2 ({})",
            out.classes[1].mean_imiss,
            out.classes[2].mean_imiss
        );
    }

    #[test]
    fn class_tags_survive_pipeline_handoffs() {
        let mut c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        c.wclass[3] = WClassProfile {
            handler_code_bytes: 1024,
            table_slots: 64,
            slo_us: 0.0,
        };
        let mut arr = arrivals(2000.0, 0.2, 16, 12);
        tag_classes(&mut arr, &[3]);
        let out = run_smp(&c, &arr);
        assert!(out.report.conservation_holds());
        assert_eq!(out.classes[3].completed, out.report.completed);
        assert_eq!(out.classes[3].offered, arr.len() as u64);
    }

    #[test]
    fn untagged_runs_are_bit_identical_with_and_without_class_profiles() {
        // Class 0 keeps the default (all-zero) profile, so a stream of
        // untagged arrivals must produce the same report whether or not
        // other classes are configured — the class machinery adds no
        // work to traffic that doesn't opt in.
        let base = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        let mut tracked = base;
        tracked.wclass[5] = WClassProfile {
            handler_code_bytes: 8192,
            table_slots: 1024,
            slo_us: 100.0,
        };
        let arr = arrivals(3000.0, 0.2, 32, 13);
        let a = run_smp(&base, &arr);
        let b = run_smp(&tracked, &arr);
        assert_eq!(a.report, b.report);
        assert_eq!(a.per_core, b.per_core);
        assert_eq!(a.coherence, b.coherence);
        assert!(a.classes.is_empty(), "untracked run reports no classes");
        assert_eq!(b.classes[0].offered, arr.len() as u64, "untagged rides class 0");
        assert_eq!(b.classes[5].offered, 0);
    }

    #[test]
    fn reusing_the_simulator_keeps_accounting_exact() {
        let c = cfg(
            4,
            DispatchPolicy::LayerAffinity,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        );
        let arr = arrivals(2000.0, 0.2, 16, 8);
        // open → closed → open on one simulator: each run's books must
        // hold what its own source produced, nothing parked by the
        // previous mode.
        let sequence = || {
            let mut sim = SmpSim::new(&c);
            sim.run(&arr);
            let first = sim.outcome(ImpairCounters::default());
            let mut pop = closed_pop(60, 5e-4, 0.1, 17);
            sim.run_closed(&mut pop, [4, 1, 2]);
            let closed = sim.outcome(pop.channel_counters());
            assert_eq!(closed.report.offered, pop.stats().offered);
            assert_eq!(closed.report.completed, pop.stats().useful);
            sim.run(&arr);
            [first, closed, sim.outcome(ImpairCounters::default())]
        };
        let [first, closed, second] = sequence();
        for (a, b) in [&first, &closed, &second].into_iter().zip(&sequence()) {
            assert_eq!(a.report, b.report);
            assert_eq!(a.per_core, b.per_core);
        }
        assert!(closed.report.conservation_holds());
        assert_eq!(first.report.offered, arr.len() as u64);
        assert_eq!(second.report.offered, arr.len() as u64);
        assert_eq!(second.report.abandoned, 0, "open-loop runs abandon nothing");
        assert_eq!(first.report.completed, second.report.completed);
        assert!(second.report.conservation_holds());
        // Warm caches can only help: the second pass is no slower.
        assert!(second.report.mean_latency_us <= first.report.mean_latency_us * 1.01);
    }

    #[test]
    fn open_loop_weighted_fair_degrades_to_tail_drop() {
        // Open-loop arrivals carry no class weights, so weighted-fair
        // admission has nothing to be fair between.
        let mut c = cfg(2, DispatchPolicy::FlowHash, Discipline::Conventional);
        c.buffer_cap = 16;
        let arr = arrivals(60_000.0, 0.2, 16, 7);
        let tail = run_smp(&c, &arr);
        c.admission = AdmissionPolicy::WeightedFair;
        let wfq = run_smp(&c, &arr);
        assert!(tail.report.drops > 0, "overload must drop");
        assert_eq!(wfq.report, tail.report);
        assert_eq!(wfq.per_core, tail.per_core);
        assert_eq!(wfq.shed_by_class, tail.shed_by_class);
        assert_eq!(wfq.drops_by_class, tail.drops_by_class);
    }

    /// The replay memo changes speed, never results. Each cell runs as
    /// shipped and again with the memo off on every core's machine; the
    /// two outcomes agree in every field but `replay`: report, per-core
    /// reports (`bp_stall_cycles` included), coherence, per-class
    /// reports and shed/drops by class.
    #[test]
    fn memo_off_runs_match_memo_on_runs_in_every_field_but_replay() {
        fn with_memo(c: &SmpConfig, memo: bool) -> SmpSim {
            let mut sim = SmpSim::new(c);
            for core in &mut sim.cores {
                core.engine.machine_mut().set_replay_enabled(memo);
            }
            sim
        }
        fn same(cell: &str, mut on: SmpOutcome, off: SmpOutcome) {
            assert!(on.replay.hits > 0, "{cell}: the shipped run replays");
            assert_eq!(off.replay.hits + off.replay.misses, 0, "{cell}: the memo is off");
            assert!(on.report.completed > 0, "{cell}");
            on.replay = off.replay;
            assert_eq!(format!("{on:?}"), format!("{off:?}"), "{cell}");
        }
        let ldlp = Discipline::Ldlp(BatchPolicy::DCacheFit);
        let mut wclass = cfg(2, DispatchPolicy::FlowHash, ldlp);
        let profile = |handler_code_bytes, table_slots, slo_us| WClassProfile {
            handler_code_bytes,
            table_slots,
            slo_us,
        };
        wclass.wclass[1] = profile(4096, 256, 500.0);
        wclass.wclass[2] = profile(512, 16, 50.0);
        let mut tagged = arrivals(6000.0, 0.2, 64, 4);
        tag_classes(&mut tagged, &[0, 1, 2, 2]);
        let open = [
            ("flow-hash", cfg(4, DispatchPolicy::FlowHash, ldlp), arrivals(8000.0, 0.2, 64, 1)),
            ("round-robin", cfg(4, DispatchPolicy::RoundRobin, ldlp), arrivals(8000.0, 0.2, 64, 2)),
            (
                "layer-affinity",
                cfg(4, DispatchPolicy::LayerAffinity, Discipline::Conventional),
                arrivals(3000.0, 0.2, 64, 3),
            ),
            ("wclass", wclass, tagged),
        ];
        for (cell, c, arr) in &open {
            let run = |memo| {
                let mut sim = with_memo(c, memo);
                sim.run(arr);
                sim.outcome(ImpairCounters::default())
            };
            same(cell, run(true), run(false));
        }

        let mut closed = simnet::ClosedConfig::new(60, 0.002, 0.2, 9);
        closed.channel = simnet::ImpairConfig {
            drop_prob: 0.05,
            dup_prob: 0.1,
            seed: 17,
            ..simnet::ImpairConfig::default()
        };
        let run = |memo| {
            let mut pop = ClosedPopulation::new(&closed);
            let mut sim = with_memo(&cfg(2, DispatchPolicy::FlowHash, ldlp), memo);
            sim.run_closed(&mut pop, [1, 1, 1]);
            sim.outcome(pop.channel_counters())
        };
        let (on, off) = (run(true), run(false));
        assert!(on.report.net_dropped > 0 && on.report.net_duplicated > 0);
        same("closed, lossy and duplicating", on, off);
    }
}
