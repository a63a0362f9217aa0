//! The layer-processing engine: Conventional, ILP, and LDLP schedules
//! over a simulated machine (paper Figures 2 and 3).
//!
//! All three disciplines perform *identical logical work* — every layer is
//! applied to every message, in layer order per message — and differ only
//! in the interleaving, which is exactly what determines cache behaviour:
//!
//! * **Conventional**: `for msg { for layer { apply } }`.
//! * **ILP**: same outer structure, but the per-layer data loops over the
//!   message are integrated into one pass, so message bytes are touched
//!   once per message instead of once per layer.
//! * **LDLP (blocked)**: `for layer { for msg in batch { apply } }`, with
//!   an enqueue/dequeue cost per message per layer boundary
//!   (~40 instructions, Section 3.2).

use crate::layer::{paper, SimLayer, SimMessage};
use crate::policy::BatchPolicy;
use cachesim::{round_to_cycles, CycleCount, Machine, Region};
use obs::{NameId, Sink, SpanEvent};
use std::ops::Range;
use std::sync::Arc;

/// The scheduling discipline (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// One message at a time through all layers.
    Conventional,
    /// One message at a time, with integrated data loops.
    Ilp,
    /// Blocked: each layer over the whole batch, sized by the policy.
    Ldlp(BatchPolicy),
}

/// Per-message outcome of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The message's id.
    pub msg_id: u64,
    /// Machine cycle count at which the message finished its last layer
    /// (or failed verification, for rejected messages).
    pub done_cycles: CycleCount,
    /// Instruction-cache misses attributed to this message.
    pub imisses: u64,
    /// Data-cache misses attributed to this message.
    pub dmisses: u64,
    /// The message was corrupted on the wire: the verification layer's
    /// checksum failed and processing stopped there. Cycles were spent,
    /// but the message is not useful work.
    pub rejected: bool,
}

/// A layer as installed in an engine: the `dyn SimLayer` plus everything
/// about it that is constant across applications, read through the trait
/// object once here instead of once per (layer, message). Cloning shares
/// the layer and its code-line list: the replicas of one engine
/// ([`StackEngine::replica`]) run one installed image.
#[derive(Clone)]
struct InstalledLayer {
    layer: Arc<dyn SimLayer>,
    /// The engine's own copy of [`SimLayer::code_lines`]: one slice, at
    /// one address, for the machine's footprint-identity check. Every
    /// replica shares it.
    code_lines: Arc<[u64]>,
    data: Region,
    touches_message: bool,
    base_cycles: u64,
    loop_cycles_per_byte: f64,
    /// Instruction cycles at up to sixteen recent message lengths, each
    /// in the slot [`CyclesAt::slot`] picks. A run sweeps messages of
    /// one length, of three (figure13's classes), of six (the Bellcore
    /// mix) or of twelve (figure14's size ladder), each in a slot of its
    /// own, so this is a compare where there was a float multiply and a
    /// rounding.
    at: [CyclesAt; CYCLES_AT_SLOTS],
    /// Lookups [`InstalledLayer::at`] did not hold, since install.
    refills: u64,
}

/// Slots of [`InstalledLayer`]'s per-length memo (a power of two).
const CYCLES_AT_SLOTS: usize = 16;

/// [`SimLayer::instr_cycles`] and the data-loop share of it at one length.
#[derive(Clone, Copy)]
struct CyclesAt {
    len: u64,
    total: u64,
    data_loop: u64,
}

impl CyclesAt {
    /// From a layer's installed constants: a multiply and a rounding,
    /// no call through the trait object.
    fn of(base_cycles: u64, loop_cycles_per_byte: f64, len: u64) -> Self {
        let data_loop = round_to_cycles(loop_cycles_per_byte * len as f64);
        CyclesAt {
            len,
            total: base_cycles + data_loop,
            data_loop,
        }
    }

    /// The memo slot of `len`: the top four bits of `len · K`. `K` was
    /// chosen to give each size of every shipped workload its own slot:
    /// figure14's twelve ladder rungs, figure13's three request sizes
    /// (80, 120 and 552 bytes), figures 5–9's 552 bytes and the six
    /// sizes of the Bellcore mix.
    #[inline]
    fn slot(len: u64) -> usize {
        const K: u64 = 0xd128_7b09_98c4_f03d;
        (len.wrapping_mul(K) >> (u64::BITS - CYCLES_AT_SLOTS.ilog2())) as usize
    }
}

impl InstalledLayer {
    fn new(layer: Box<dyn SimLayer>) -> Self {
        let base_cycles = layer.base_instr_cycles();
        let loop_cycles_per_byte = layer.loop_cycles_per_byte();
        InstalledLayer {
            code_lines: layer.code_lines().into(),
            data: layer.data_region(),
            touches_message: layer.touches_message(),
            base_cycles,
            loop_cycles_per_byte,
            // Every slot starts out holding length 0, which is exact
            // wherever a lookup lands.
            at: [CyclesAt::of(base_cycles, loop_cycles_per_byte, 0); CYCLES_AT_SLOTS],
            refills: 0,
            layer: layer.into(),
        }
    }

    #[inline]
    fn cycles_at(&mut self, len: u64) -> CyclesAt {
        let at = &mut self.at[CyclesAt::slot(len)];
        if at.len != len {
            self.refills += 1;
            *at = CyclesAt::of(self.base_cycles, self.loop_cycles_per_byte, len);
            debug_assert_eq!(at.total, self.layer.instr_cycles(len));
        }
        *at
    }
}

fn install(layers: Vec<Box<dyn SimLayer>>) -> Vec<InstalledLayer> {
    layers.into_iter().map(InstalledLayer::new).collect()
}

/// Executes batches of messages through a layer stack on a machine.
pub struct StackEngine {
    machine: Machine,
    layers: Vec<InstalledLayer>,
    discipline: Discipline,
    /// Enqueue+dequeue instruction cost per message per layer boundary
    /// under LDLP.
    queue_instr: u64,
    max_layer_data: u64,
    /// Transmit-side layers (top-down order) for duplex operation: every
    /// completed receive generates a reply that descends these layers.
    /// The paper notes LDLP "is also applicable to transmit-side
    /// processing" without evaluating it; this is that extension.
    tx_layers: Vec<InstalledLayer>,
    /// Length in bytes of the generated reply (e.g. a 58-byte ACK).
    reply_len: u64,
    /// Index of the layer whose checksum catches corrupted payloads.
    /// Corrupted messages are processed through this layer (its code
    /// runs, its data loop walks the damaged bytes) and then discarded.
    verify_layer: usize,
    /// Address region replies are built in (one slot per pool entry,
    /// reused round-robin).
    reply_bufs: Vec<cachesim::Region>,
    reply_next: usize,
    /// Observability sink ([`Sink::Off`] by default: every probe is one
    /// branch, no allocation — `tests/alloc.rs` proves it).
    sink: Sink,
    /// Name prefix applied to everything this engine interns (e.g.
    /// `"ldlp/"`), so recorders from different disciplines can be merged
    /// without conflating their layers.
    obs_prefix: String,
    /// Pre-interned span names for the receive layers (empty when off).
    obs_rx: Vec<NameId>,
    /// Pre-interned span names for the transmit layers (empty when off).
    obs_tx: Vec<NameId>,
}

impl StackEngine {
    /// Builds an engine. The machine's caches start cold.
    pub fn new(
        machine: Machine,
        layers: Vec<Box<dyn SimLayer>>,
        discipline: Discipline,
    ) -> Self {
        Self::installed(machine, install(layers), discipline)
    }

    /// An engine over layers already installed, with verification at
    /// its first layer, no transmit side and no sink.
    fn installed(machine: Machine, layers: Vec<InstalledLayer>, discipline: Discipline) -> Self {
        assert!(!layers.is_empty(), "a stack needs at least one layer");
        let max_layer_data = layers.iter().map(|l| l.data.len).max().unwrap_or(0);
        StackEngine {
            machine,
            layers,
            discipline,
            queue_instr: paper::QUEUE_INSTR,
            max_layer_data,
            tx_layers: Vec::new(),
            reply_len: 0,
            reply_bufs: Vec::new(),
            reply_next: 0,
            verify_layer: 0,
            sink: Sink::Off,
            obs_prefix: String::new(),
            obs_rx: Vec::new(),
            obs_tx: Vec::new(),
        }
    }

    /// Another core's engine over `layers` of this one's receive stack:
    /// all of them for a full-stack core, a contiguous slice for a
    /// pipeline stage. The installed layers are shared, not placed and
    /// installed again; the machine is a fresh one of the same
    /// configuration (cold caches, zeroed counters). The rest is what
    /// [`StackEngine::new`] builds from those layers alone: this
    /// discipline, verification at the first layer, no transmit side,
    /// no sink. One kernel image, mapped on every core. Panics if
    /// `layers` is empty or out of range.
    ///
    /// ```
    /// use cachesim::MachineConfig;
    /// use ldlp::engine::{Discipline, StackEngine};
    /// use ldlp::synth::paper_stack;
    ///
    /// let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
    /// let image = StackEngine::new(machine, layers, Discipline::Conventional);
    /// let core = image.replica(0..image.num_layers());
    /// let stage = image.replica(2..4);
    /// // Both fetch the image's own code-line lists.
    /// let lines = |e: &StackEngine, li| e.layer_footprint(li).unwrap().0.clone();
    /// assert!(std::sync::Arc::ptr_eq(&lines(&core, 0), &lines(&image, 0)));
    /// assert!(std::sync::Arc::ptr_eq(&lines(&stage, 0), &lines(&image, 2)));
    /// assert_eq!(stage.num_layers(), 2);
    /// ```
    pub fn replica(&self, layers: Range<usize>) -> StackEngine {
        let chunk = self.layers.get(layers).unwrap_or_default().to_vec();
        Self::installed(Machine::new(*self.machine.config()), chunk, self.discipline)
    }

    /// Layer `li`'s installed code-line list and data region: what every
    /// application of it fetches and reads. `None` past the last layer.
    pub fn layer_footprint(&self, li: usize) -> Option<(&Arc<[u64]>, Region)> {
        self.layers.get(li).map(|l| (&l.code_lines, l.data))
    }

    /// Attaches an observability sink. Layer span names are interned up
    /// front as `<prefix>rx:<layer>` / `<prefix>tx:<layer>` so the hot
    /// path only passes pre-computed ids. Passing [`Sink::Off`] detaches.
    pub fn set_sink(&mut self, mut sink: Sink, prefix: &str) {
        self.obs_rx.clear();
        self.obs_tx.clear();
        self.obs_prefix.clear();
        self.obs_prefix.push_str(prefix);
        if let Some(rec) = sink.on_mut() {
            for l in &self.layers {
                self.obs_rx.push(rec.intern(&format!("{prefix}rx:{}", l.layer.name())));
            }
            for l in &self.tx_layers {
                self.obs_tx.push(rec.intern(&format!("{prefix}tx:{}", l.layer.name())));
            }
        }
        self.sink = sink;
    }

    /// Detaches and returns the sink (leaving [`Sink::Off`] behind), so
    /// callers can export what was recorded.
    pub fn take_sink(&mut self) -> Sink {
        self.sink.take()
    }

    /// Mutable access to the attached sink (for recording run-level
    /// events, e.g. the simulator's batch spans).
    pub fn sink_mut(&mut self) -> &mut Sink {
        &mut self.sink
    }

    /// Interns `name` under this engine's sink prefix; `None` when the
    /// sink is off. Off the hot path — callers cache the id.
    pub fn obs_intern(&mut self, name: &str) -> Option<NameId> {
        let Self {
            sink, obs_prefix, ..
        } = self;
        sink.on_mut()
            .map(|rec| rec.intern(&format!("{obs_prefix}{name}")))
    }

    /// Sets the layer index whose checksum rejects corrupted messages
    /// (default 0: the bottom layer's CRC, as in AAL5 or Ethernet+IP).
    /// A corrupted message runs layers `0..=index` and is then dropped:
    /// it burns cycles and cache lines but never completes or replies.
    pub fn with_verify_layer(mut self, index: usize) -> Self {
        assert!(index < self.layers.len(), "verify layer out of range");
        self.verify_layer = index;
        self
    }

    /// Enables duplex operation: each completed receive generates a
    /// `reply_len`-byte reply that descends `tx_layers` (given top-down)
    /// under the same discipline — blocked alongside the receive batch
    /// for LDLP, interleaved per message conventionally.
    pub fn with_tx(mut self, tx_layers: Vec<Box<dyn SimLayer>>, reply_len: u64) -> Self {
        assert!(!tx_layers.is_empty(), "duplex needs at least one tx layer");
        let tx_layers = install(tx_layers);
        self.max_layer_data = self
            .max_layer_data
            .max(tx_layers.iter().map(|l| l.data.len).max().unwrap_or(0));
        // 32 reply slots laid out after the mbuf window.
        let mut alloc = cachesim::AddressAllocator::new(0x2000_0000, 64);
        self.reply_bufs = (0..32).map(|_| alloc.alloc(reply_len.max(64))).collect();
        self.tx_layers = tx_layers;
        self.reply_len = reply_len;
        self
    }

    /// Whether the engine is running duplex (receive + reply) processing.
    pub fn is_duplex(&self) -> bool {
        !self.tx_layers.is_empty()
    }

    fn next_reply_buf(&mut self) -> cachesim::Region {
        let buf = self.reply_bufs[self.reply_next];
        // analyze::allow(panic-path, reason = "the reply ring is constructed with at least one buffer")
        self.reply_next = (self.reply_next + 1) % self.reply_bufs.len();
        cachesim::Region::new(buf.base, self.reply_len)
    }

    /// The discipline this engine runs.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// Number of layers in the stack.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The machine (cycle counter, cache stats).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Applications whose message length the layer's per-length cycles
    /// memo did not hold, so it recomputed and refilled a slot: summed
    /// over the receive and transmit layers, since install (a replica
    /// starts from its image's count). Beside the machine's
    /// `replay_stats`, the other memo a layer application consults.
    pub fn cycles_refills(&self) -> u64 {
        self.layers
            .iter()
            .chain(&self.tx_layers)
            .map(|l| l.refills)
            .sum()
    }

    /// Mutable machine access (e.g. flushing caches between runs).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The most messages one batch may contain for `msg_bytes` messages,
    /// per the discipline's policy. Conventional and ILP have no batching
    /// semantics, so any number may be passed to [`Self::process_batch`].
    pub fn batch_limit(&self, msg_bytes: u64) -> usize {
        match self.discipline {
            Discipline::Conventional | Discipline::Ilp => usize::MAX,
            Discipline::Ldlp(policy) => {
                let dcache = self.machine.config().dcache.size_bytes;
                policy.limit(dcache, self.max_layer_data, msg_bytes)
            }
        }
    }

    /// Processes `msgs` to completion and returns one [`Completion`] per
    /// message, in input order. The machine's cycle counter carries over
    /// between batches (caches stay warm with whatever survived).
    pub fn process_batch(&mut self, msgs: &[SimMessage]) -> Vec<Completion> {
        let mut out = Vec::with_capacity(msgs.len());
        self.process_batch_into(msgs, &mut out);
        out
    }

    /// [`Self::process_batch`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so a reused buffer makes the steady-state
    /// path allocation-free.
    // analyze::hot_path(engine-batch-loop)
    pub fn process_batch_into(&mut self, msgs: &[SimMessage], out: &mut Vec<Completion>) {
        out.clear();
        match self.discipline {
            Discipline::Conventional => self.run_per_message(msgs, false, out),
            Discipline::Ilp => self.run_per_message(msgs, true, out),
            Discipline::Ldlp(_) => self.run_blocked(msgs, out),
        }
    }

    /// Conventional / ILP: all layers applied to each message in turn,
    /// followed immediately by the reply's descent when duplex.
    fn run_per_message(&mut self, msgs: &[SimMessage], integrated: bool, out: &mut Vec<Completion>) {
        // analyze::allow(alloc-path, reason = "reused caller buffer: no-op once capacity is warm (tests/alloc.rs pins zero steady-state allocs)")
        out.reserve(msgs.len());
        for msg in msgs {
            let (i0, d0) = self.machine.miss_counts();
            // A corrupted message dies at the verification layer.
            let top = if msg.corrupted {
                self.verify_layer
            } else {
                self.layers.len() - 1
            };
            for li in 0..=top {
                // Under ILP the data loop runs once (on the first layer)
                // and performs all layers' per-byte work.
                let touch = if integrated { li == 0 } else { true };
                if self.sink.is_on() {
                    let (sc, si, sd) = self.obs_begin();
                    self.apply_layer(li, msg, touch, integrated && li == 0);
                    self.obs_span(self.obs_rx.get(li).copied(), sc, si, sd, 1);
                } else {
                    self.apply_layer(li, msg, touch, integrated && li == 0);
                }
            }
            if self.is_duplex() && !msg.corrupted {
                let reply = self.next_reply_buf();
                for li in 0..self.tx_layers.len() {
                    if self.sink.is_on() {
                        let (sc, si, sd) = self.obs_begin();
                        self.apply_tx(li, reply);
                        self.obs_span(self.obs_tx.get(li).copied(), sc, si, sd, 1);
                    } else {
                        self.apply_tx(li, reply);
                    }
                }
            }
            let (i1, d1) = self.machine.miss_counts();
            // analyze::allow(alloc-path, reason = "reused caller buffer: no-op once capacity is warm (tests/alloc.rs pins zero steady-state allocs)")
            out.push(Completion {
                msg_id: msg.id,
                done_cycles: self.machine.cycles(),
                imisses: i1 - i0,
                dmisses: d1 - d0,
                rejected: msg.corrupted,
            });
        }
    }

    /// LDLP: each layer applied to the whole batch before the next layer;
    /// when duplex, the replies then descend the transmit layers in the
    /// same blocked pattern.
    fn run_blocked(&mut self, msgs: &[SimMessage], out: &mut Vec<Completion>) {
        // One completion per message up front; each (layer, message)
        // application adds its miss deltas and stamps `done_cycles` in
        // place.
        // analyze::allow(alloc-path, reason = "reused caller buffer: no-op once capacity is warm (tests/alloc.rs pins zero steady-state allocs)")
        out.extend(msgs.iter().map(|msg| Completion {
            msg_id: msg.id,
            done_cycles: 0,
            imisses: 0,
            dmisses: 0,
            rejected: msg.corrupted,
        }));
        let last = self.layers.len() - 1;
        for li in 0..self.layers.len() {
            // One span per layer *pass* over the batch — the unit LDLP's
            // amortization argument is about.
            let pass = if self.sink.is_on() {
                Some(self.obs_begin())
            } else {
                None
            };
            let mut active = 0u32;
            for (msg, comp) in msgs.iter().zip(out.iter_mut()) {
                // Corrupted messages leave the batch after verification.
                if msg.corrupted && li > self.verify_layer {
                    continue;
                }
                active += 1;
                let (i0, d0) = self.machine.miss_counts();
                // Layer-boundary queueing: each message is enqueued for
                // this layer and dequeued from the previous one.
                self.machine.execute(self.queue_instr);
                self.apply_layer(li, msg, true, false);
                let (i1, d1) = self.machine.miss_counts();
                comp.imisses += i1 - i0;
                comp.dmisses += d1 - d0;
                // A corrupted message finishes (rejected) at the verify
                // layer; clean simplex messages finish at the top.
                if (msg.corrupted && li == self.verify_layer)
                    || (li == last && !self.is_duplex())
                {
                    comp.done_cycles = self.machine.cycles();
                }
            }
            if let Some((sc, si, sd)) = pass {
                self.obs_span(self.obs_rx.get(li).copied(), sc, si, sd, active);
            }
        }
        if self.is_duplex() {
            // Each clean message takes the next reply slot, the same one
            // in every transmit pass; rejected messages generate no reply.
            let first_reply = self.reply_next;
            let tx_last = self.tx_layers.len() - 1;
            for li in 0..self.tx_layers.len() {
                self.reply_next = first_reply;
                let pass = if self.sink.is_on() {
                    Some(self.obs_begin())
                } else {
                    None
                };
                let mut active = 0u32;
                for comp in out.iter_mut() {
                    if comp.rejected {
                        continue;
                    }
                    active += 1;
                    let reply = self.next_reply_buf();
                    let (i0, d0) = self.machine.miss_counts();
                    self.machine.execute(self.queue_instr);
                    self.apply_tx(li, reply);
                    let (i1, d1) = self.machine.miss_counts();
                    comp.imisses += i1 - i0;
                    comp.dmisses += d1 - d0;
                    if li == tx_last {
                        comp.done_cycles = self.machine.cycles();
                    }
                }
                if let Some((sc, si, sd)) = pass {
                    self.obs_span(self.obs_tx.get(li).copied(), sc, si, sd, active);
                }
            }
        }
    }

    /// One application of one transmit layer to one reply buffer: the
    /// topmost layer constructs the reply (writes it); lower layers read
    /// it (checksums, framing) on the way down.
    fn apply_tx(&mut self, li: usize, reply: cachesim::Region) {
        // Footprint ids: rx layers take 0..layers.len(), tx layers follow.
        let fid = (self.layers.len() + li) as u32;
        let layer = &mut self.tx_layers[li];
        self.machine.fetch_code_footprint(fid, &layer.code_lines);
        self.machine.read_data(layer.data);
        if layer.touches_message && reply.len > 0 {
            if li == 0 {
                self.machine.write_data(reply);
            } else {
                self.machine.read_data(reply);
            }
        }
        self.machine.execute(layer.cycles_at(reply.len).total);
    }

    /// One application of one layer to one message: fetch the layer's
    /// code, read its data, run the data loop over the message, charge
    /// instruction cycles.
    fn apply_layer(&mut self, li: usize, msg: &SimMessage, touch_message: bool, ilp_loop: bool) {
        let layer = &mut self.layers[li];
        // Instruction fetches over the layer's working code, replayed
        // through the machine's footprint memo.
        self.machine.fetch_code_footprint(li as u32, &layer.code_lines);
        // Per-layer data.
        self.machine.read_data(layer.data);
        // The data loop over the message contents.
        if touch_message && layer.touches_message && !msg.is_empty() {
            self.machine.read_data(Region::new(msg.buf.base, msg.buf.len));
        }
        // Instruction cycles. Under ILP the loop work of all layers is
        // done in the single integrated pass; base cycles are unchanged.
        let cycles = if ilp_loop {
            let base = layer.base_cycles;
            let all_loops: u64 = self
                .layers
                .iter_mut()
                .map(|l| l.cycles_at(msg.len()).data_loop)
                .sum();
            base + all_loops
        } else if !touch_message {
            layer.base_cycles
        } else {
            layer.cycles_at(msg.len()).total
        };
        self.machine.execute(cycles);
    }

    /// Snapshot taken before an observed section: (cycles, I-misses,
    /// D-misses). Only called when the sink is on.
    fn obs_begin(&self) -> (CycleCount, u64, u64) {
        let (i, d) = self.machine.miss_counts();
        (self.machine.cycles(), i, d)
    }

    /// Closes an observed section opened by [`Self::obs_begin`]: charges
    /// the cycle and miss deltas to `name` as one span covering `batch`
    /// messages. No-op when the sink is off or the name was never
    /// interned (e.g. a sink attached with no layers).
    fn obs_span(&mut self, name: Option<NameId>, start: CycleCount, i0: u64, d0: u64, batch: u32) {
        let (i1, d1) = self.machine.miss_counts();
        let end = self.machine.cycles();
        let Some(name) = name else { return };
        if let Some(rec) = self.sink.on_mut() {
            rec.span(SpanEvent {
                name,
                start,
                dur: end - start,
                batch,
                aux: 0,
                imisses: i1 - i0,
                dmisses: d1 - d0,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{paper_stack, MessagePool};
    use cachesim::MachineConfig;

    fn engine(discipline: Discipline, seed: u64) -> StackEngine {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        StackEngine::new(m, layers, discipline)
    }

    fn msgs(pool: &mut MessagePool, n: usize) -> Vec<SimMessage> {
        (0..n).map(|i| pool.make_message(i as u64, 552)).collect()
    }

    /// Every size set a shipped workload sends keeps one memo slot per
    /// size, so each (layer, size) pays `CyclesAt::of` once per run.
    #[test]
    fn cycles_memo_slots_are_injective_per_workload() {
        let workloads: [(&str, &[u64]); 4] = [
            // `workload::SIZE_LADDER`.
            (
                "figure14",
                &[48, 64, 96, 128, 192, 256, 384, 512, 768, 1_024, 1_280, 1_440],
            ),
            ("figure13", &[80, 120, 552]),
            ("figures 5-9", &[552]),
            // `simnet::traffic::SizeMix::bellcore_like`.
            ("Bellcore mix", &[64, 128, 256, 552, 1_072, 1_518]),
        ];
        for (name, sizes) in workloads {
            let mut slots: Vec<usize> = sizes.iter().map(|&l| CyclesAt::slot(l)).collect();
            assert!(slots.iter().all(|&s| s < CYCLES_AT_SLOTS), "{name}");
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), sizes.len(), "{name}: two sizes share a slot");
        }
    }

    /// A size sweep refills each (layer, size) once, and a repeat of the
    /// sweep refills nothing.
    #[test]
    fn cycles_memo_refills_once_per_layer_and_size() {
        let sizes = [80, 120, 552];
        let mut e = engine(Discipline::Conventional, 3);
        let mut pool = MessagePool::new(16, 1536, 7);
        for round in 0..2 {
            for (i, &len) in sizes.iter().enumerate() {
                let msg = pool.make_message(i as u64, len);
                e.process_batch(&[msg]);
            }
            let want = (e.num_layers() * sizes.len()) as u64;
            assert_eq!(e.cycles_refills(), want, "round {round}");
        }
    }

    #[test]
    fn conventional_cold_misses_match_paper_arithmetic() {
        let mut e = engine(Discipline::Conventional, 42);
        let mut pool = MessagePool::new(16, 1536, 7);
        let batch = msgs(&mut pool, 3);
        let completions = e.process_batch(&batch);
        // 5 layers x 6 KB = 30 KB of code against an 8 KB I-cache: every
        // line misses on every message (after the first, which is also
        // all-cold). 30720/32 = 960 instruction misses per message, plus
        // conflict effects.
        for c in &completions {
            assert!(
                c.imisses >= 900,
                "conventional should reload ~960 lines, got {}",
                c.imisses
            );
        }
    }

    #[test]
    fn ldlp_amortizes_instruction_misses() {
        let mut conv = engine(Discipline::Conventional, 42);
        let mut ldlp = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 42);
        let mut pool_a = MessagePool::new(16, 1536, 7);
        let mut pool_b = MessagePool::new(16, 1536, 7);
        let batch_a = msgs(&mut pool_a, 14);
        let batch_b = msgs(&mut pool_b, 14);
        let ca = conv.process_batch(&batch_a);
        let cb = ldlp.process_batch(&batch_b);
        let conv_imiss: u64 = ca.iter().map(|c| c.imisses).sum();
        let ldlp_imiss: u64 = cb.iter().map(|c| c.imisses).sum();
        assert!(
            ldlp_imiss * 3 < conv_imiss,
            "LDLP {ldlp_imiss} should be far below conventional {conv_imiss}"
        );
        // And total cycles are lower despite the queueing overhead.
        assert!(ldlp.machine().cycles() < conv.machine().cycles());
    }

    #[test]
    fn ldlp_batch_of_one_behaves_like_conventional_plus_queueing() {
        let mut conv = engine(Discipline::Conventional, 9);
        let mut ldlp = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 9);
        let mut pool_a = MessagePool::new(16, 1536, 3);
        let mut pool_b = MessagePool::new(16, 1536, 3);
        let a = conv.process_batch(&msgs(&mut pool_a, 1));
        let b = ldlp.process_batch(&msgs(&mut pool_b, 1));
        assert_eq!(a[0].imisses, b[0].imisses, "same placement, same misses");
        assert_eq!(a[0].dmisses, b[0].dmisses);
        let queue_cost = paper::QUEUE_INSTR * 5; // 5 layer boundaries
        assert_eq!(
            ldlp.machine().cycles() - conv.machine().cycles(),
            queue_cost
        );
    }

    #[test]
    fn ilp_touches_message_once() {
        let mut conv = engine(Discipline::Conventional, 5);
        let mut ilp = engine(Discipline::Ilp, 5);
        let mut pool_a = MessagePool::new(16, 1536, 11);
        let mut pool_b = MessagePool::new(16, 1536, 11);
        let a = conv.process_batch(&msgs(&mut pool_a, 1));
        let b = ilp.process_batch(&msgs(&mut pool_b, 1));
        // Same instruction misses (same code), same total instruction
        // cycles (the integrated loop still does all layers' work)...
        assert_eq!(a[0].imisses, b[0].imisses);
        // ...but ILP's D-cache misses can't exceed conventional's (one
        // pass over the message instead of five; with a 552-byte message
        // fully cache-resident they tie on misses, and diverge on large
        // messages — see below).
        assert!(b[0].dmisses <= a[0].dmisses);
    }

    #[test]
    fn ilp_wins_on_messages_larger_than_the_dcache() {
        // 12 KB messages against an 8 KB D-cache: conventional reloads
        // the message every layer; ILP loads it once.
        let mut conv = engine(Discipline::Conventional, 6);
        let mut ilp = engine(Discipline::Ilp, 6);
        let mut pool_a = MessagePool::new(4, 16384, 13);
        let mut pool_b = MessagePool::new(4, 16384, 13);
        let big_a = vec![pool_a.make_message(0, 12 * 1024)];
        let big_b = vec![pool_b.make_message(0, 12 * 1024)];
        let a = conv.process_batch(&big_a);
        let b = ilp.process_batch(&big_b);
        assert!(
            b[0].dmisses * 3 < a[0].dmisses,
            "ILP {} vs conventional {}",
            b[0].dmisses,
            a[0].dmisses
        );
    }

    #[test]
    fn completions_preserve_input_order_and_ids() {
        let mut e = engine(Discipline::Ldlp(BatchPolicy::AllAvailable), 1);
        let mut pool = MessagePool::new(16, 1536, 1);
        let batch: Vec<SimMessage> = (0..5)
            .map(|i| pool.make_message(100 + i as u64, 552))
            .collect();
        let c = e.process_batch(&batch);
        let ids: Vec<u64> = c.iter().map(|x| x.msg_id).collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 104]);
        // Completion times are monotone in input order under LDLP (later
        // messages finish the last layer later).
        for w in c.windows(2) {
            assert!(w[0].done_cycles <= w[1].done_cycles);
        }
    }

    #[test]
    fn batch_limit_follows_policy() {
        let e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        assert_eq!(e.batch_limit(552), 14);
        let e = engine(Discipline::Conventional, 1);
        assert_eq!(e.batch_limit(552), usize::MAX);
        let e = engine(Discipline::Ldlp(BatchPolicy::Fixed(4)), 1);
        assert_eq!(e.batch_limit(552), 4);
    }


    #[test]
    fn duplex_generates_reply_descent() {
        // Receive + ACK path: 5 rx layers up, 3 tx layers down.
        let make = |d: Discipline| {
            let (m, rx) = paper_stack(MachineConfig::synthetic_benchmark(), 21);
            let (_, tx) = crate::synth::stack_with(
                MachineConfig::synthetic_benchmark(),
                99,
                3,
                4 * 1024,
                256,
            );
            StackEngine::new(m, rx, d).with_tx(tx, 58)
        };
        let mut conv = make(Discipline::Conventional);
        let mut ldlp = make(Discipline::Ldlp(BatchPolicy::DCacheFit));
        assert!(conv.is_duplex());
        let mut pool_a = MessagePool::new(16, 1536, 2);
        let mut pool_b = MessagePool::new(16, 1536, 2);
        let a = conv.process_batch(&msgs(&mut pool_a, 12));
        let b = ldlp.process_batch(&msgs(&mut pool_b, 12));
        let conv_imiss: u64 = a.iter().map(|c| c.imisses).sum();
        let ldlp_imiss: u64 = b.iter().map(|c| c.imisses).sum();
        // The duplex working set is 30 + 12 = 42 KB: blocked scheduling
        // amortizes both directions.
        assert!(
            ldlp_imiss * 3 < conv_imiss,
            "duplex LDLP {ldlp_imiss} vs conventional {conv_imiss}"
        );
        // Completion time includes the reply descent: strictly more
        // cycles than the rx-only engine would report.
        assert!(b.last().unwrap().done_cycles == ldlp.machine().cycles());
    }

    #[test]
    fn duplex_rx_only_equivalence_when_tx_absent() {
        // Without with_tx, nothing about the rx path changes.
        let mut plain = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 4);
        let mut pool = MessagePool::new(16, 1536, 5);
        let batch = msgs(&mut pool, 6);
        let a = plain.process_batch(&batch);
        assert!(!plain.is_duplex());
        assert!(a.iter().all(|c| c.done_cycles > 0));
    }

    #[test]
    fn duplex_batch_limit_accounts_for_tx_layer_data() {
        let (m, rx) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
        let (_, tx) = crate::synth::stack_with(
            MachineConfig::synthetic_benchmark(),
            50,
            2,
            4 * 1024,
            2048, // big tx layer data shrinks the batch cap
        );
        let e = StackEngine::new(m, rx, Discipline::Ldlp(BatchPolicy::DCacheFit)).with_tx(tx, 58);
        assert_eq!(e.batch_limit(552), (8192 - 2048) / 552);
    }

    #[test]
    fn corrupted_message_is_rejected_at_the_verify_layer() {
        // Verification at layer 1: a corrupted message runs layers 0-1
        // only, so it costs cycles but is flagged and generates no reply.
        let mut pool = MessagePool::new(16, 1536, 3);
        let mut batch = msgs(&mut pool, 3);
        batch[1].corrupted = true;
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 8);
        let mut e = StackEngine::new(m, layers, Discipline::Conventional).with_verify_layer(1);
        let c = e.process_batch(&batch);
        assert!(!c[0].rejected && c[1].rejected && !c[2].rejected);
        // The rejected message stopped early: fewer cycles than a clean
        // one, but more than zero (the checksum walked the bytes).
        assert!(c[1].done_cycles > c[0].done_cycles, "still processed in order");
        assert!(c[1].imisses > 0, "verification cost real fetches");
    }

    #[test]
    fn blocked_and_conventional_agree_on_rejection() {
        let mk = |d: Discipline| {
            let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 17);
            StackEngine::new(m, layers, d).with_verify_layer(0)
        };
        let mut pool_a = MessagePool::new(16, 1536, 9);
        let mut pool_b = MessagePool::new(16, 1536, 9);
        let corrupt = |mut b: Vec<SimMessage>| {
            b[2].corrupted = true;
            b[5].corrupted = true;
            b
        };
        let batch_a = corrupt(msgs(&mut pool_a, 8));
        let batch_b = corrupt(msgs(&mut pool_b, 8));
        let ca = mk(Discipline::Conventional).process_batch(&batch_a);
        let cb = mk(Discipline::Ldlp(BatchPolicy::DCacheFit)).process_batch(&batch_b);
        let rejected = |c: &[Completion]| -> Vec<u64> {
            c.iter().filter(|x| x.rejected).map(|x| x.msg_id).collect()
        };
        assert_eq!(rejected(&ca), vec![2, 5]);
        assert_eq!(rejected(&cb), vec![2, 5]);
    }

    #[test]
    fn duplex_skips_replies_for_rejected_messages() {
        let (m, rx) = paper_stack(MachineConfig::synthetic_benchmark(), 21);
        let (_, tx) = crate::synth::stack_with(
            MachineConfig::synthetic_benchmark(),
            99,
            3,
            4 * 1024,
            256,
        );
        let mut e = StackEngine::new(m, rx, Discipline::Ldlp(BatchPolicy::DCacheFit))
            .with_tx(tx, 58)
            .with_verify_layer(0);
        let mut pool = MessagePool::new(16, 1536, 2);
        let mut batch = msgs(&mut pool, 4);
        batch[0].corrupted = true;
        let c = e.process_batch(&batch);
        assert!(c[0].rejected);
        // The rejected message finished (at verification) before the
        // clean ones, whose replies still had to descend the tx stack.
        assert!(c[0].done_cycles < c[1].done_cycles);
        assert_eq!(c.last().unwrap().done_cycles, e.machine().cycles());
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        let before = e.machine().cycles();
        assert!(e.process_batch(&[]).is_empty());
        assert_eq!(e.machine().cycles(), before);
    }

    #[test]
    fn ldlp_sink_records_one_span_per_layer_pass() {
        let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 11);
        e.set_sink(obs::Sink::record(true), "ldlp/");
        let mut pool = MessagePool::new(16, 1536, 5);
        let batch = msgs(&mut pool, 14);
        let completions = e.process_batch(&batch);
        let rec = e.take_sink().into_recorder().expect("sink was on");
        // One blocked pass per layer, one span each.
        assert_eq!(rec.events().len(), 5);
        let total_im: u64 = rec.events().iter().map(|ev| ev.imisses).sum();
        let total_dm: u64 = rec.events().iter().map(|ev| ev.dmisses).sum();
        let comp_im: u64 = completions.iter().map(|c| c.imisses).sum();
        let comp_dm: u64 = completions.iter().map(|c| c.dmisses).sum();
        assert_eq!(total_im, comp_im, "spans charge exactly the misses attributed");
        assert_eq!(total_dm, comp_dm);
        for ev in rec.events() {
            assert_eq!(ev.batch, 14, "every pass covered the whole batch");
            assert!(ev.dur > 0);
            assert!(rec.name(ev.name).starts_with("ldlp/rx:"));
        }
        // Spans tile the run: contiguous, in cycle order.
        for w in rec.events().windows(2) {
            assert_eq!(w[0].start + w[0].dur, w[1].start);
        }
    }

    #[test]
    fn conventional_sink_records_per_message_spans() {
        let mut e = engine(Discipline::Conventional, 11);
        e.set_sink(obs::Sink::record(false), "conv/");
        let mut pool = MessagePool::new(16, 1536, 5);
        let c = e.process_batch(&msgs(&mut pool, 3));
        assert_eq!(c.len(), 3);
        let rec = e.take_sink().into_recorder().expect("sink was on");
        assert!(rec.events().is_empty(), "metrics-only mode keeps no raw events");
        // 3 messages x 5 layers, folded per layer name.
        let accs: Vec<_> = rec.iter_spans().collect();
        assert_eq!(accs.len(), 5);
        for (name, acc) in accs {
            assert!(name.starts_with("conv/rx:"));
            assert_eq!(acc.spans, 3, "one span per message per layer");
            assert_eq!(acc.messages, 3);
        }
    }

    #[test]
    fn sink_does_not_change_simulation_results() {
        let run = |sink: Option<obs::Sink>| {
            let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 13);
            if let Some(s) = sink {
                e.set_sink(s, "ldlp/");
            }
            let mut pool = MessagePool::new(16, 1536, 9);
            let c = e.process_batch(&msgs(&mut pool, 14));
            (c, e.machine().cycles())
        };
        let (plain, cycles_plain) = run(None);
        let (observed, cycles_obs) = run(Some(obs::Sink::record(true)));
        assert_eq!(plain, observed, "observation must not perturb the run");
        assert_eq!(cycles_plain, cycles_obs);
    }

    proptest::proptest! {
        /// Whatever the batch, the discipline or the stack, every miss
        /// the machine counts during a batch is attributed to exactly
        /// one message; clean messages finish in input order, no later
        /// than the machine's clock; and a corrupted message finishes
        /// inside a span of the verify layer (checked on a second,
        /// observed run, which must match the plain one exactly).
        #[test]
        fn completions_account_for_every_miss_once(
            batch in proptest::collection::vec((0u64..1537, proptest::prelude::any::<bool>()), 0..20),
            duplex in proptest::prelude::any::<bool>(),
            verify in 0usize..5,
            seed in 0u64..1000,
        ) {
            for discipline in [
                Discipline::Conventional,
                Discipline::Ilp,
                Discipline::Ldlp(BatchPolicy::DCacheFit),
            ] {
                let mk = || {
                    let (m, rx) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
                    let e = StackEngine::new(m, rx, discipline).with_verify_layer(verify);
                    if duplex {
                        let cfg = MachineConfig::synthetic_benchmark();
                        let (_, tx) = crate::synth::stack_with(cfg, seed ^ 0x7a, 3, 4 * 1024, 256);
                        e.with_tx(tx, 58)
                    } else {
                        e
                    }
                };
                let mut pool = MessagePool::new(32, 1536, seed);
                let msgs: Vec<SimMessage> = batch
                    .iter()
                    .enumerate()
                    .map(|(i, &(len, corrupted))| SimMessage {
                        corrupted,
                        ..pool.make_message(i as u64, len)
                    })
                    .collect();
                let (mut plain, mut observed) = (mk(), mk());
                // A cold batch, then the same batch again on warm caches.
                for _ in 0..2 {
                    let (i0, d0) = plain.machine().miss_counts();
                    let c = plain.process_batch(&msgs);
                    let (i1, d1) = plain.machine().miss_counts();
                    proptest::prop_assert_eq!(c.len(), msgs.len());
                    proptest::prop_assert_eq!(c.iter().map(|c| c.imisses).sum::<u64>(), i1 - i0);
                    proptest::prop_assert_eq!(c.iter().map(|c| c.dmisses).sum::<u64>(), d1 - d0);
                    let mut last = 0;
                    for (c, m) in c.iter().zip(&msgs) {
                        proptest::prop_assert_eq!((c.msg_id, c.rejected), (m.id, m.corrupted));
                        if !c.rejected {
                            proptest::prop_assert!(last <= c.done_cycles);
                            last = c.done_cycles;
                        }
                        proptest::prop_assert!(c.done_cycles <= plain.machine().cycles());
                    }

                    observed.set_sink(obs::Sink::record(true), "");
                    let verify_span = observed.obs_rx[verify];
                    proptest::prop_assert_eq!(&observed.process_batch(&msgs), &c, "{:?}", discipline);
                    let rec = observed.take_sink().into_recorder().expect("sink was on");
                    for c in c.iter().filter(|c| c.rejected) {
                        proptest::prop_assert!(
                            rec.events().iter().any(|ev| ev.name == verify_span
                                && ev.start < c.done_cycles
                                && c.done_cycles <= ev.start + ev.dur),
                            "{:?}: message {} did not finish at the verify layer",
                            discipline,
                            c.msg_id
                        );
                    }
                }
            }
        }
    }
}
