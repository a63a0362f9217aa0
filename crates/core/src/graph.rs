//! A functional LDLP runtime: real messages through a real layer graph.
//!
//! Section 3.2 describes how to retrofit LDLP onto working stacks:
//!
//! * Where layers are tasks with queues between them, "implementing LDLP
//!   is a simple matter of task scheduling. Higher layers are given
//!   higher priorities, but all layers run to completion — that is, they
//!   process all the messages in their input queue. The lowest layer,
//!   however, is made to yield the CPU after processing as many messages
//!   as will fit in the data cache."
//! * Where layers call each other directly, "the entry point to each
//!   layer is modified to append the message to a queue ... and then
//!   return. When a layer is invoked, it pulls messages off its queue ...
//!   Then, it invokes all layers that can be directly above it (there can
//!   be more than one)."
//!
//! [`LayerGraph`] implements both schedules over the same layer code:
//! [`Schedule::Conventional`] propagates each message to the top with
//! direct calls; [`Schedule::Ldlp`] queues at every boundary and drains
//! layers in priority order, with a batch cap at the entry layer. The
//! logical results are identical by construction — only the interleaving
//! (and therefore locality) differs — and tests assert exactly that.

use std::collections::VecDeque;

/// Where a layer sends each processed message.
#[derive(Debug)]
pub struct Emitter<M> {
    /// `(output port, message)` pairs routed to the layers above.
    up: Vec<(usize, M)>,
    /// Messages consumed here (delivered to the application at this node).
    delivered: Vec<M>,
}

impl<M> Default for Emitter<M> {
    fn default() -> Self {
        Emitter {
            up: Vec::new(),
            delivered: Vec::new(),
        }
    }
}

impl<M> Emitter<M> {
    /// Routes a message to the layer connected to `port` above this one.
    pub fn up(&mut self, port: usize, msg: M) {
        self.up.push((port, msg));
    }

    /// Delivers a message to this node's application (a sink).
    pub fn deliver(&mut self, msg: M) {
        self.delivered.push(msg);
    }
}

/// A protocol layer processing real messages.
pub trait GraphLayer<M> {
    /// Layer name, for reports.
    fn name(&self) -> &str;

    /// Processes one message, emitting any results upward (possibly to
    /// several different upper layers — demultiplexing) or delivering
    /// them here. Dropped messages are simply not emitted.
    fn process(&mut self, msg: M, out: &mut Emitter<M>);
}

/// How the graph schedules layer executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Each injected message is carried to the top immediately
    /// (procedure-call semantics, poor instruction locality).
    Conventional,
    /// Messages queue at every layer boundary; layers drain whole queues
    /// with upper layers at higher priority; the entry layer yields after
    /// `entry_batch` messages.
    Ldlp {
        /// Entry-layer yield threshold ("as many messages as will fit in
        /// the data cache").
        entry_batch: usize,
    },
}

/// Handle to a layer in the graph.
pub type NodeId = usize;

struct Node<M> {
    layer: Box<dyn GraphLayer<M>>,
    /// Upward edges: `ports[i]` is the node that receives `Emitter::up(i, ..)`.
    ports: Vec<NodeId>,
    queue: VecDeque<M>,
    /// Topological height; higher runs at higher priority under LDLP.
    height: u32,
}

/// One entry of the execution log: which layer processed which injection-
/// order message index. Tests use this to verify blocked vs. interleaved
/// execution orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activation {
    pub node: NodeId,
    /// The layer's name is stable; indexes avoid string churn.
    pub seq: u64,
}

/// Per-run counters.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Messages processed per node.
    pub processed: Vec<u64>,
    /// Entry batches formed (LDLP) or injections (conventional).
    pub batches: u64,
    /// Largest entry batch observed.
    pub max_batch: usize,
    /// Deepest any queue got.
    pub max_queue_depth: usize,
}

/// A stack of layers with explicit upward wiring.
pub struct LayerGraph<M> {
    nodes: Vec<Node<M>>,
    entry: Option<NodeId>,
    schedule: Schedule,
    delivered: Vec<(NodeId, M)>,
    log: Vec<Activation>,
    stats: GraphStats,
    seq: u64,
}

impl<M> LayerGraph<M> {
    /// An empty graph with the given schedule.
    pub fn new(schedule: Schedule) -> Self {
        LayerGraph {
            nodes: Vec::new(),
            entry: None,
            schedule,
            delivered: Vec::new(),
            log: Vec::new(),
            stats: GraphStats::default(),
            seq: 0,
        }
    }

    /// Adds a layer; `ports` wires its upward outputs to existing nodes
    /// (which must already be added — build top-down).
    pub fn add_layer(&mut self, layer: Box<dyn GraphLayer<M>>, ports: Vec<NodeId>) -> NodeId {
        for &p in &ports {
            assert!(p < self.nodes.len(), "upward port wired to unknown node");
        }
        let height = ports
            .iter()
            .map(|&p| self.nodes[p].height + 1)
            .max()
            .unwrap_or(0);
        // Heights grow downward from the top; invert below when
        // prioritizing. Store distance-from-top so priority = smaller.
        self.nodes.push(Node {
            layer,
            ports,
            queue: VecDeque::new(),
            height,
        });
        self.stats.processed.push(0);
        self.nodes.len() - 1
    }

    /// Marks the entry (lowest) layer where messages are injected.
    pub fn set_entry(&mut self, node: NodeId) {
        assert!(node < self.nodes.len());
        self.entry = Some(node);
    }

    /// The schedule in force.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Injects a message at the entry layer. Under the conventional
    /// schedule it is processed to completion immediately; under LDLP it
    /// waits in the entry queue until [`LayerGraph::run`].
    pub fn inject(&mut self, msg: M) {
        // Documented precondition: set_entry must be called before inject;
        // misuse is a caller bug, not a data-dependent path.
        let entry = self.entry.expect("entry layer set");
        match self.schedule {
            Schedule::Conventional => {
                self.stats.batches += 1;
                self.stats.max_batch = self.stats.max_batch.max(1);
                self.process_to_completion(entry, msg);
            }
            Schedule::Ldlp { .. } => {
                self.nodes[entry].queue.push_back(msg);
                let depth = self.nodes[entry].queue.len();
                self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
            }
        }
    }

    /// Runs queued work to quiescence (no-op under the conventional
    /// schedule, which never queues). Returns messages delivered during
    /// this run.
    pub fn run(&mut self) -> Vec<(NodeId, M)> {
        // Without an entry layer nothing was injected, so nothing is queued.
        if let (Schedule::Ldlp { entry_batch }, Some(entry)) = (self.schedule, self.entry) {
            while !self.nodes[entry].queue.is_empty() {
                // The entry layer yields after a batch; everything above
                // runs to completion at higher priority.
                let batch = self.nodes[entry].queue.len().min(entry_batch.max(1));
                self.stats.batches += 1;
                self.stats.max_batch = self.stats.max_batch.max(batch);
                for _ in 0..batch {
                    let Some(msg) = self.nodes[entry].queue.pop_front() else {
                        break;
                    };
                    self.process_one_queued(entry, msg);
                }
                self.drain_upper_layers(entry);
            }
        }
        std::mem::take(&mut self.delivered)
    }

    /// Conventional path: carry one message as far up as it goes, depth
    /// first, with plain calls.
    fn process_to_completion(&mut self, node: NodeId, msg: M) {
        let mut out = Emitter::default();
        self.activate(node, msg, &mut out);
        for m in out.delivered {
            self.delivered.push((node, m));
        }
        for (port, m) in out.up {
            let next = self.nodes[node].ports[port];
            self.process_to_completion(next, m);
        }
    }

    /// LDLP path: process one message at `node`, queueing outputs on the
    /// upper layers instead of calling them.
    fn process_one_queued(&mut self, node: NodeId, msg: M) {
        let mut out = Emitter::default();
        self.activate(node, msg, &mut out);
        for m in out.delivered {
            self.delivered.push((node, m));
        }
        for (port, m) in out.up {
            let next = self.nodes[node].ports[port];
            self.nodes[next].queue.push_back(m);
            let depth = self.nodes[next].queue.len();
            self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        }
    }

    /// Drains every layer above `entry` in priority order (topmost
    /// first), re-scanning until quiet: a drained layer refills the
    /// queues of the layers above it.
    fn drain_upper_layers(&mut self, entry: NodeId) {
        loop {
            // Priority = smallest height (closest to the top).
            let next = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(i, n)| *i != entry && !n.queue.is_empty())
                .min_by_key(|(_, n)| n.height)
                .map(|(i, _)| i);
            let Some(node) = next else { break };
            // Run to completion: the whole queue in one activation burst.
            while let Some(msg) = self.nodes[node].queue.pop_front() {
                self.process_one_queued(node, msg);
            }
        }
    }

    fn activate(&mut self, node: NodeId, msg: M, out: &mut Emitter<M>) {
        self.nodes[node].layer.process(msg, out);
        self.stats.processed[node] += 1;
        self.log.push(Activation {
            node,
            seq: self.seq,
        });
        self.seq += 1;
    }

    /// The execution log (ordered layer activations).
    pub fn log(&self) -> &[Activation] {
        &self.log
    }

    /// Per-run counters.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }
}

/// Counts the "runs" of consecutive activations of the same node in a
/// log — the paper's locality measure: blocked execution has few long
/// runs, interleaved execution has many short ones.
pub fn activation_runs(log: &[Activation]) -> usize {
    let mut runs = 0;
    let mut last: Option<NodeId> = None;
    for a in log {
        if last != Some(a.node) {
            runs += 1;
            last = Some(a.node);
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layer that tags messages with its name and passes them up port 0
    /// (or delivers them if it has no upward wiring).
    struct Tag {
        name: String,
        is_sink: bool,
    }

    impl GraphLayer<Vec<&'static str>> for Tag {
        fn name(&self) -> &str {
            &self.name
        }
        fn process(&mut self, mut msg: Vec<&'static str>, out: &mut Emitter<Vec<&'static str>>) {
            msg.push(Box::leak(self.name.clone().into_boxed_str()));
            if self.is_sink {
                out.deliver(msg);
            } else {
                out.up(0, msg);
            }
        }
    }

    /// Builds L1 -> L2 -> L3 (entry L1, sink L3).
    fn pipeline(schedule: Schedule) -> (LayerGraph<Vec<&'static str>>, [NodeId; 3]) {
        let mut g = LayerGraph::new(schedule);
        let l3 = g.add_layer(
            Box::new(Tag {
                name: "L3".into(),
                is_sink: true,
            }),
            vec![],
        );
        let l2 = g.add_layer(
            Box::new(Tag {
                name: "L2".into(),
                is_sink: false,
            }),
            vec![l3],
        );
        let l1 = g.add_layer(
            Box::new(Tag {
                name: "L1".into(),
                is_sink: false,
            }),
            vec![l2],
        );
        g.set_entry(l1);
        (g, [l1, l2, l3])
    }

    #[test]
    fn both_schedules_deliver_identical_results() {
        let mut conv = pipeline(Schedule::Conventional).0;
        let mut ldlp = pipeline(Schedule::Ldlp { entry_batch: 4 }).0;
        for i in 0..10 {
            conv.inject(vec![if i % 2 == 0 { "even" } else { "odd" }]);
            ldlp.inject(vec![if i % 2 == 0 { "even" } else { "odd" }]);
        }
        let a = conv.run();
        let b = ldlp.run();
        // Conventional delivered during inject; collect its buffer too.
        let mut a: Vec<_> = a.into_iter().map(|(_, m)| m).collect();
        let mut b: Vec<_> = b.into_iter().map(|(_, m)| m).collect();
        a.sort();
        b.sort();
        assert_eq!(a.len(), 10);
        assert_eq!(a, b, "same messages through the same layers");
        for m in &a {
            assert_eq!(&m[1..], &["L1", "L2", "L3"], "layer order preserved");
        }
    }

    #[test]
    fn conventional_interleaves_ldlp_blocks() {
        let n = 12;
        let mut conv = pipeline(Schedule::Conventional).0;
        for _ in 0..n {
            conv.inject(vec![]);
        }
        conv.run();
        // Conventional: L1 L2 L3 per message = 3 runs per message.
        assert_eq!(activation_runs(conv.log()), 3 * n);

        let mut ldlp = pipeline(Schedule::Ldlp { entry_batch: 100 }).0;
        for _ in 0..n {
            ldlp.inject(vec![]);
        }
        ldlp.run();
        // Blocked: one run per layer for the whole batch.
        assert_eq!(activation_runs(ldlp.log()), 3);
        assert_eq!(ldlp.stats().max_batch, n);
    }

    #[test]
    fn entry_batch_cap_causes_yielding() {
        let mut g = pipeline(Schedule::Ldlp { entry_batch: 5 }).0;
        for _ in 0..12 {
            g.inject(vec![]);
        }
        g.run();
        // Batches of 5, 5, 2: three full passes = 9 runs.
        assert_eq!(g.stats().batches, 3);
        assert_eq!(g.stats().max_batch, 5);
        assert_eq!(activation_runs(g.log()), 9);
    }

    #[test]
    fn demultiplexing_to_multiple_upper_layers() {
        /// Routes odd-length messages to port 0, others to port 1.
        struct Demux;
        impl GraphLayer<Vec<&'static str>> for Demux {
            fn name(&self) -> &str {
                "demux"
            }
            fn process(&mut self, msg: Vec<&'static str>, out: &mut Emitter<Vec<&'static str>>) {
                let port = msg.len() % 2;
                out.up(port, msg);
            }
        }
        let mut g = LayerGraph::new(Schedule::Ldlp { entry_batch: 16 });
        let udp = g.add_layer(
            Box::new(Tag {
                name: "udp".into(),
                is_sink: true,
            }),
            vec![],
        );
        let tcp = g.add_layer(
            Box::new(Tag {
                name: "tcp".into(),
                is_sink: true,
            }),
            vec![],
        );
        let ip = g.add_layer(Box::new(Demux), vec![udp, tcp]);
        g.set_entry(ip);

        g.inject(vec![]); // even length -> port 0 -> udp
        g.inject(vec!["x"]); // odd -> port 1 -> tcp
        g.inject(vec![]);
        let delivered = g.run();
        let to_udp = delivered.iter().filter(|(n, _)| *n == udp).count();
        let to_tcp = delivered.iter().filter(|(n, _)| *n == tcp).count();
        assert_eq!((to_udp, to_tcp), (2, 1));
        // Blocked even across the fork: ip ip ip, then each sink drained.
        assert!(activation_runs(g.log()) <= 3);
    }

    #[test]
    fn dropped_messages_vanish_quietly() {
        struct DropOdd;
        impl GraphLayer<u32> for DropOdd {
            fn name(&self) -> &str {
                "filter"
            }
            fn process(&mut self, msg: u32, out: &mut Emitter<u32>) {
                if msg.is_multiple_of(2) {
                    out.up(0, msg);
                }
            }
        }
        struct Sink;
        impl GraphLayer<u32> for Sink {
            fn name(&self) -> &str {
                "sink"
            }
            fn process(&mut self, msg: u32, out: &mut Emitter<u32>) {
                out.deliver(msg);
            }
        }
        let mut g = LayerGraph::new(Schedule::Ldlp { entry_batch: 8 });
        let sink = g.add_layer(Box::new(Sink), vec![]);
        let filter = g.add_layer(Box::new(DropOdd), vec![sink]);
        g.set_entry(filter);
        for i in 0..10 {
            g.inject(i);
        }
        let out = g.run();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|(_, m)| m % 2 == 0));
        assert_eq!(g.stats().processed[filter], 10);
        assert_eq!(g.stats().processed[sink], 5);
    }

    #[test]
    fn run_is_quiescent_and_repeatable() {
        let (mut g, _) = pipeline(Schedule::Ldlp { entry_batch: 4 });
        g.inject(vec![]);
        assert_eq!(g.run().len(), 1);
        assert_eq!(g.run().len(), 0, "second run has nothing to do");
    }
}
