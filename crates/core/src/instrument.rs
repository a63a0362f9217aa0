//! Cost instrumentation for the functional layer graph.
//!
//! [`CostedLayer`] wraps any [`GraphLayer`] with a code/data footprint and
//! charges a shared [`Machine`] on every activation — so the *functional*
//! runtime of [`crate::graph`] produces the same cache-level evidence as
//! the synthetic engine: run the identical packets under both schedules
//! and read the miss counters off the machine.

use crate::graph::{Emitter, GraphLayer};
use crate::layer::paper;
use cachesim::{Machine, Region};
use obs::{NameId, Recorder, SpanEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// A machine shared by every instrumented layer of one graph.
pub type SharedMachine = Rc<RefCell<Machine>>;

/// A recorder shared by every instrumented layer of one graph (the
/// graph runtime is single-threaded, like the machine it meters).
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Wraps a functional layer with a memory-system footprint.
pub struct CostedLayer<L> {
    inner: L,
    machine: SharedMachine,
    /// Code fetched on every activation.
    code: Region,
    /// Layer data read on every activation.
    data: Region,
    /// Instruction cycles charged per activation (plus the data loop).
    base_cycles: u64,
    /// Data-loop cost per message byte.
    loop_cpb: f64,
    /// Optional observability: one cycle-stamped span per activation,
    /// with the name interned at attach time so the hot path is
    /// lookup-free. `None` costs one branch per activation.
    obs: Option<(SharedRecorder, NameId)>,
}

impl<L> CostedLayer<L> {
    /// Wraps `inner` with the given footprint against `machine`.
    pub fn new(inner: L, machine: SharedMachine, code: Region, data: Region) -> Self {
        CostedLayer {
            inner,
            machine,
            code,
            data,
            base_cycles: paper::BASE_CYCLES,
            loop_cpb: paper::LOOP_CPB,
            obs: None,
        }
    }

    /// Overrides the cycle model.
    pub fn with_cycles(mut self, base_cycles: u64, loop_cpb: f64) -> Self {
        self.base_cycles = base_cycles;
        self.loop_cpb = loop_cpb;
        self
    }
}

impl<L> CostedLayer<L> {
    /// Attaches a shared recorder: every activation records a span named
    /// `graph:<name>` stamped in the shared machine's cycles. (`name` is
    /// passed explicitly rather than read from the layer because the
    /// message type the layer handles is not known here.)
    // analyze::allow(dead-surface, reason = "per-activation spans of the functional layer graph: no experiment attaches a recorder, and costed_layer_records_activation_spans pins that cold code fetches show up as I-misses")
    pub fn with_recorder(mut self, rec: SharedRecorder, name: &str) -> Self {
        let id = rec.borrow_mut().intern(&format!("graph:{name}"));
        self.obs = Some((rec, id));
        self
    }
}

/// Messages that can report their size (for the data-loop cost) and an
/// optional buffer address (for data-cache modelling).
pub trait MeteredMessage {
    /// Payload length in bytes.
    fn len(&self) -> usize;
    /// Whether the message is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The simulated address of the message contents, if it has one.
    /// Defaults to a fixed scratch buffer.
    fn buf_addr(&self) -> u64 {
        0x4000_0000
    }
}

impl MeteredMessage for Vec<u8> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

impl<M, L> GraphLayer<M> for CostedLayer<L>
where
    M: MeteredMessage,
    L: GraphLayer<M>,
{
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&mut self, msg: M, out: &mut Emitter<M>) {
        {
            let mut m = self.machine.borrow_mut();
            let pre = self.obs.as_ref().map(|_| (m.cycles(), m.stats()));
            m.fetch_code(self.code);
            m.read_data(self.data);
            if !msg.is_empty() {
                m.read_data(Region::new(msg.buf_addr(), msg.len() as u64));
            }
            let cycles = self.base_cycles + (self.loop_cpb * msg.len() as f64).round() as u64;
            m.execute(cycles);
            if let (Some((rec, name)), Some((start, s0))) = (&self.obs, pre) {
                let s1 = m.stats();
                rec.borrow_mut().span(SpanEvent {
                    name: *name,
                    start,
                    dur: m.cycles() - start,
                    batch: 1,
                    aux: 0,
                    imisses: s1.icache.misses - s0.icache.misses,
                    dmisses: s1.dcache.misses - s0.dcache.misses,
                });
            }
        }
        self.inner.process(msg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LayerGraph, Schedule};
    use cachesim::MachineConfig;

    /// A pass-through layer (port 0) that sinks at the top.
    struct Pass {
        name: &'static str,
        sink: bool,
    }

    impl GraphLayer<Vec<u8>> for Pass {
        fn name(&self) -> &str {
            self.name
        }
        fn process(&mut self, msg: Vec<u8>, out: &mut Emitter<Vec<u8>>) {
            if self.sink {
                out.deliver(msg);
            } else {
                out.up(0, msg);
            }
        }
    }

    /// Builds a 5-layer instrumented pipeline over a fresh machine.
    fn build(schedule: Schedule) -> (LayerGraph<Vec<u8>>, SharedMachine) {
        let machine: SharedMachine = Rc::new(RefCell::new(Machine::new(
            MachineConfig::synthetic_benchmark(),
        )));
        let mut alloc = cachesim::AddressAllocator::new(0x10_0000, 32);
        let mut data_alloc = cachesim::AddressAllocator::new(0x800_0000, 32);
        let mut g = LayerGraph::new(schedule);
        let mut above = None;
        // Build top-down: L5 (sink) first.
        for i in (0..5).rev() {
            let code = alloc.alloc(6 * 1024);
            let data = data_alloc.alloc(256);
            let layer = CostedLayer::new(
                Pass {
                    name: if i == 4 { "sink" } else { "mid" },
                    sink: i == 4,
                },
                machine.clone(),
                code,
                data,
            );
            let ports = above.map(|n| vec![n]).unwrap_or_default();
            above = Some(g.add_layer(Box::new(layer), ports));
        }
        g.set_entry(above.expect("five layers added"));
        (g, machine)
    }

    #[test]
    fn functional_graph_reproduces_the_locality_result() {
        let n = 14;
        let run = |schedule| {
            let (mut g, machine) = build(schedule);
            for i in 0..n {
                g.inject(vec![0u8; 552 - (i % 3)]); // slight size variety
            }
            let delivered = g.run();
            assert_eq!(delivered.len(), n);
            let stats = machine.borrow().stats();
            stats.icache.misses
        };
        let conv = run(Schedule::Conventional);
        let ldlp = run(Schedule::Ldlp { entry_batch: 14 });
        // The functional runtime shows the same effect the synthetic
        // engine measures: blocked scheduling slashes I-misses.
        assert!(
            ldlp * 3 < conv,
            "LDLP {ldlp} I-misses should be far below conventional {conv}"
        );
    }

    #[test]
    fn instrumentation_charges_cycles() {
        let (mut g, machine) = build(Schedule::Conventional);
        g.inject(vec![0u8; 552]);
        let stats = machine.borrow().stats();
        // 5 layers x 1652 instruction cycles for a 552-byte message.
        assert_eq!(stats.instr_cycles, 5 * 1652);
        assert!(stats.stall_cycles > 0);
    }

    #[test]
    fn costed_layer_records_activation_spans() {
        let machine: SharedMachine = Rc::new(RefCell::new(Machine::new(
            MachineConfig::synthetic_benchmark(),
        )));
        let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new(true)));
        let mut alloc = cachesim::AddressAllocator::new(0x10_0000, 32);
        let mut g = LayerGraph::new(Schedule::Conventional);
        let sink = CostedLayer::new(
            Pass {
                name: "sink",
                sink: true,
            },
            machine.clone(),
            alloc.alloc(6 * 1024),
            alloc.alloc(256),
        )
        .with_recorder(rec.clone(), "sink");
        let top = g.add_layer(Box::new(sink), vec![]);
        g.set_entry(top);
        g.inject(vec![0u8; 552]);
        g.inject(vec![0u8; 552]);
        let delivered = g.run();
        assert_eq!(delivered.len(), 2);
        let rec = rec.borrow();
        assert_eq!(rec.events().len(), 2, "one span per activation");
        for ev in rec.events() {
            assert_eq!(rec.name(ev.name), "graph:sink");
            assert!(ev.dur > 0, "activations cost cycles");
            assert_eq!(ev.batch, 1);
        }
        assert!(
            rec.events().iter().any(|ev| ev.imisses > 0),
            "cold code fetches show up as I-misses"
        );
    }

    #[test]
    fn metered_message_defaults() {
        let v = vec![1u8, 2, 3];
        assert_eq!(MeteredMessage::len(&v), 3);
        assert!(!MeteredMessage::is_empty(&v));
        assert_eq!(v.buf_addr(), 0x4000_0000);
    }
}
