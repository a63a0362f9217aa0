//! The event loop: arrivals, a bounded NIC buffer, batch admission, and
//! latency accounting.
//!
//! The loop implements the paper's online LDLP algorithm (Section 3.1):
//! "when the protocol stack is able to accept a new message, it takes all
//! available messages and processes them in a blocked pattern. When it is
//! finished, it again looks for new messages." Under light load batches
//! are singletons; under heavy load they grow to the engine's batch cap.
//! Messages arriving while a batch is in flight wait in the adaptor
//! buffer, which holds at most [`NIC_BUFFER_PKTS`] packets, the paper's
//! 500; an arrival that finds it full is dropped (tail-drop, the paper's
//! behaviour). The other admission policies live in the multi-core
//! simulator (`smp`), whose runs vary them.
//!
//! Accounting obeys a conservation law checked at the end of every run:
//! every offered arrival is completed, rejected at checksum verification,
//! refused admission, or still in flight. Nothing vanishes.

use crate::impair::ImpairCounters;
use crate::stats::{MissTotals, RunTally, SimReport};
use crate::traffic::Arrival;
use cachesim::round_to_cycles;
use ldlp::synth::MessagePool;
use ldlp::{SimMessage, StackEngine};

/// NIC buffer capacity in packets: the paper's 500.
const NIC_BUFFER_PKTS: usize = 500;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// How long the arrival stream runs, in seconds.
    pub duration_s: f64,
    /// Message-buffer pool entries (ring size), at least 1. Must exceed
    /// the largest batch the engine can form.
    pub pool_bufs: usize,
    /// Message-buffer size in bytes (must hold the largest message).
    pub pool_buf_bytes: u64,
    /// Seed for message-buffer placement.
    pub pool_seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration_s: 1.0,
            pool_bufs: 64,
            pool_buf_bytes: 1536,
            pool_seed: 1,
        }
    }
}

/// One processed batch in a traced run: when it started, how many
/// messages it carried, and how deep the NIC queue was when it formed.
/// The paper's online algorithm in motion: "under light load, messages
/// will usually be processed singly ... under heavy load, messages will
/// be processed in batches".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRecord {
    /// Batch start time in seconds.
    pub time_s: f64,
    /// Messages in the batch.
    pub batch: usize,
    /// NIC-queue depth after the batch was taken.
    pub queue_after: usize,
}

/// A per-message data-structure charge, applied as each message enters
/// protocol processing.
///
/// `figure10` uses this to put flow/call lookup tables in the loop: the
/// implementation walks its own lookup structure for `flow_id` and
/// charges the probe footprint to the engine's machine (e.g. via
/// [`cachesim::Machine::read_data_probes`]), returning the D-misses it
/// incurred. The cycles land inside the batch window, so reported
/// latency includes lookup time, and the returned misses are added to
/// that message's D-miss sample.
pub trait LookupCharge {
    /// Charges the lookup for `flow_id`; returns the D-misses incurred.
    fn charge(&mut self, flow_id: u32, machine: &mut cachesim::Machine) -> u64;
}

/// Runs `arrivals` (time-sorted, in seconds) through `engine` and returns
/// the aggregated report. The engine's machine clock defines processing
/// cost; its configured `clock_mhz` converts arrival times to cycles.
/// Corrupted arrivals cost cycles up to the engine's verification layer
/// and are rejected there.
pub fn run_sim(engine: &mut StackEngine, arrivals: &[Arrival], cfg: &SimConfig) -> SimReport {
    run_sim_traced(engine, arrivals, cfg, None)
}

/// [`run_sim`] with an optional per-batch trace collector.
pub fn run_sim_traced(
    engine: &mut StackEngine,
    arrivals: &[Arrival],
    cfg: &SimConfig,
    trace: Option<&mut Vec<BatchRecord>>,
) -> SimReport {
    run_core(engine, arrivals, cfg, trace, ImpairCounters::default(), &[], None)
}

/// [`run_sim`] over a stream that went through an impairment channel
/// (see [`crate::impair`]): `net` carries the channel's
/// drop/corrupt/duplicate/reorder counters into the report.
pub fn run_sim_impaired(
    engine: &mut StackEngine,
    deliveries: &[Arrival],
    cfg: &SimConfig,
    net: ImpairCounters,
) -> SimReport {
    run_core(engine, deliveries, cfg, None, net, &[], None)
}

/// [`run_sim`] with a per-message flow lookup in the loop: `flow_ids`
/// parallels `arrivals` (index-matched), and `lookup` is charged once
/// per message as its batch starts processing. Arrivals dropped at the
/// NIC never reach the stack and are not charged.
///
/// # Panics
///
/// If `flow_ids` and `arrivals` differ in length.
pub fn run_sim_lookup(
    engine: &mut StackEngine,
    arrivals: &[Arrival],
    flow_ids: &[u32],
    cfg: &SimConfig,
    lookup: &mut dyn LookupCharge,
) -> SimReport {
    assert_eq!(
        flow_ids.len(),
        arrivals.len(),
        "run_sim_lookup needs one flow id per arrival"
    );
    run_core(
        engine,
        arrivals,
        cfg,
        None,
        ImpairCounters::default(),
        flow_ids,
        Some(lookup),
    )
}

// analyze::hot_path(simnet-measured-window, rules = "panic-path, charge-coverage")
// (alloc-path deliberately not seeded here: the pre-loop setup — pool,
// sample vectors, NIC ring — allocates by design; the steady-state
// batch loop reuses those buffers and is covered by the runtime
// counting-allocator test via `process_batch_into`.)
fn run_core(
    engine: &mut StackEngine,
    arrivals: &[Arrival],
    cfg: &SimConfig,
    mut trace: Option<&mut Vec<BatchRecord>>,
    net: ImpairCounters,
    flow_ids: &[u32],
    mut lookup: Option<&mut dyn LookupCharge>,
) -> SimReport {
    let clock_mhz = engine.machine().config().clock_mhz;
    let cycles_per_s = clock_mhz * 1e6;
    let mut pool = MessagePool::new(cfg.pool_bufs, cfg.pool_buf_bytes, cfg.pool_seed);

    // Observability: when the engine carries a sink, the simulator
    // contributes one span per processed batch (stamped in machine
    // cycles, queue depth in `aux`) and run-level value histograms that
    // augment the SimReport aggregates with full distributions.
    let obs_ids = match (
        engine.obs_intern("batch"),
        engine.obs_intern("latency_us"),
        engine.obs_intern("imiss_per_msg"),
        engine.obs_intern("dmiss_per_msg"),
    ) {
        (Some(b), Some(l), Some(i), Some(d)) => Some((b, l, i, d)),
        _ => None,
    };

    // NIC buffer: (arrival_cycle, bytes, corrupted, flow) in arrival
    // order. Flow is 0 for runs without a lookup model.
    let mut nic: std::collections::VecDeque<(u64, u32, bool, u32)> =
        std::collections::VecDeque::with_capacity(NIC_BUFFER_PKTS);

    let mut latencies_us: Vec<f64> = Vec::with_capacity(arrivals.len());
    let mut misses = MissTotals::default();
    let mut drops = 0u64;
    let mut rejected = 0u64;
    let mut batches = 0u64;
    let mut last_finish: u64 = 0;

    let mut next_arrival = 0usize;
    // Simulation clock in cycles. The machine's own cycle counter only
    // advances while processing; `now` also advances across idle gaps.
    let mut now: u64 = 0;
    let mut msg_id: u64 = 0;

    // Batch buffers, reused every iteration: the steady-state loop
    // allocates nothing per batch.
    let mut batch: Vec<SimMessage> = Vec::with_capacity(cfg.pool_bufs);
    let mut batch_flows: Vec<u32> = Vec::with_capacity(cfg.pool_bufs);
    let mut lookup_dm: Vec<u64> = Vec::with_capacity(cfg.pool_bufs);
    let mut completions: Vec<ldlp::Completion> = Vec::with_capacity(cfg.pool_bufs);

    // The next arrival's time in cycles (`None` once all have arrived),
    // converted once per arrival, not once per pass that finds it not
    // yet due.
    let arrival_cycle =
        |i: usize| arrivals.get(i).map(|a| round_to_cycles(a.time_s * cycles_per_s));
    let mut next_cycle = arrival_cycle(0);

    loop {
        // Admit everything that has arrived by `now`.
        while let Some(t) = next_cycle.filter(|&t| t <= now) {
            let a = &arrivals[next_arrival];
            if nic.len() < NIC_BUFFER_PKTS {
                let flow = flow_ids.get(next_arrival).copied().unwrap_or(0);
                nic.push_back((t, a.bytes, a.corrupted, flow));
            } else {
                drops += 1;
            }
            next_arrival += 1;
            next_cycle = arrival_cycle(next_arrival);
        }

        // Form a batch: up to the engine's cap, sized by the *largest*
        // message in the candidate set (conservative for mixed sizes).
        let Some(max_bytes) = nic.iter().map(|&(_, b, _, _)| b as u64).max() else {
            match next_cycle {
                // Idle: jump to the next arrival.
                Some(t) => {
                    now = now.max(t);
                    continue;
                }
                // Drained everything: done.
                None => break,
            }
        };
        let limit = engine
            .batch_limit(max_bytes)
            .min(nic.len())
            .min(cfg.pool_bufs);
        batch.clear();
        batch_flows.clear();
        for _ in 0..limit {
            let Some((arr, bytes, corrupted, flow)) = nic.pop_front() else {
                break;
            };
            let mut m = pool.make_message(msg_id, bytes as u64);
            m.arrival_cycles = arr;
            m.corrupted = corrupted;
            msg_id += 1;
            batch.push(m);
            batch_flows.push(flow);
        }
        batches += 1;
        if let Some(t) = trace.as_deref_mut() {
            t.push(BatchRecord {
                time_s: now as f64 / cycles_per_s,
                batch: batch.len(),
                queue_after: nic.len(),
            });
        }

        // Process: the machine's counter advances by the batch cost.
        let machine_before = engine.machine().cycles();
        let misses_before = obs_ids.map(|_| engine.machine().miss_counts());
        // Per-message flow lookup: charged inside the batch window, so
        // its cycles show up in latency and its misses in the D-miss
        // samples below.
        lookup_dm.clear();
        if let Some(l) = lookup.as_deref_mut() {
            for &flow in &batch_flows {
                lookup_dm.push(l.charge(flow, engine.machine_mut()));
            }
        }
        engine.process_batch_into(&batch, &mut completions);
        let machine_after = engine.machine().cycles();
        if let (Some((batch_id, _, _, _)), Some((i0, d0))) = (obs_ids, misses_before) {
            let (i1, d1) = engine.machine().miss_counts();
            let (batch_len, queue_after) = (batch.len() as u32, nic.len() as u64);
            if let Some(rec) = engine.sink_mut().on_mut() {
                rec.span(obs::SpanEvent {
                    name: batch_id,
                    start: machine_before,
                    dur: machine_after - machine_before,
                    batch: batch_len,
                    aux: queue_after,
                    imisses: i1 - i0,
                    dmisses: d1 - d0,
                });
            }
        }
        // Batch runs in sim time [now, now + cost).
        let offset = now - machine_before;
        for (k, (c, m)) in completions.iter().zip(&batch).enumerate() {
            let finish = c.done_cycles + offset;
            last_finish = last_finish.max(finish);
            // Cycles and misses are spent either way; only clean
            // completions count as useful work with a latency sample.
            misses.add(c.imisses, c.dmisses + lookup_dm.get(k).copied().unwrap_or(0));
            if c.rejected {
                rejected += 1;
            } else {
                let lat_cycles = finish.saturating_sub(m.arrival_cycles);
                latencies_us.push(lat_cycles as f64 / clock_mhz);
            }
        }
        if let Some((_, lat_id, im_id, dm_id)) = obs_ids {
            if let Some(rec) = engine.sink_mut().on_mut() {
                for (k, (c, m)) in completions.iter().zip(&batch).enumerate() {
                    rec.record_value(im_id, c.imisses);
                    rec.record_value(dm_id, c.dmisses + lookup_dm.get(k).copied().unwrap_or(0));
                    if !c.rejected {
                        let lat_cycles = (c.done_cycles + offset).saturating_sub(m.arrival_cycles);
                        rec.record_value(lat_id, (lat_cycles as f64 / clock_mhz) as u64);
                    }
                }
            }
        }
        now += machine_after - machine_before;
    }

    let offered = arrivals.len() as u64;
    let in_flight = nic.len() as u64;
    let completed = latencies_us.len() as u64;
    assert_eq!(
        offered,
        completed + rejected + drops + in_flight,
        "conservation violated: offered {offered} != completed {completed} \
         + rejected {rejected} + drops {drops} + in-flight {in_flight}"
    );

    SimReport::from_totals(
        &mut latencies_us,
        misses,
        RunTally {
            offered,
            rejected,
            drops,
            shed: 0,
            in_flight,
            // Open-loop sources have no client to stop waiting; the
            // stale-completion bucket belongs to `smp::run_closed`.
            abandoned: 0,
            duration_s: cfg.duration_s,
            span_s: last_finish as f64 / cycles_per_s,
            batches,
            net,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::{impair_arrivals, ImpairConfig};
    use crate::traffic::{ConstantSource, PoissonSource, TrafficSource};
    use cachesim::MachineConfig;
    use ldlp::synth::paper_stack;
    use ldlp::{BatchPolicy, Discipline, StackEngine};

    fn engine(d: Discipline, seed: u64) -> StackEngine {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        StackEngine::new(m, layers, d)
    }

    #[test]
    fn light_load_latency_is_the_service_time() {
        // 100 msgs/s: every message is processed alone, immediately.
        let mut e = engine(Discipline::Conventional, 1);
        let arrivals = ConstantSource::new(0.01, 552).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert_eq!(r.completed, 49);
        assert_eq!(r.drops, 0);
        assert!(r.conservation_holds());
        // Service time: 5 x 1652 instruction cycles + ~1000 misses x 20
        // at 100 MHz => roughly 280 us; queueing is zero.
        assert!(
            (200.0..400.0).contains(&r.mean_latency_us),
            "latency {} us",
            r.mean_latency_us
        );
        assert!((r.mean_batch - 1.0).abs() < 1e-9, "no batching at light load");
        // The queue never builds up, so the span is the arrival window
        // (to within one service time) and goodput equals throughput.
        assert!(r.span_s < 0.5 + 0.001, "span {} s", r.span_s);
        assert_eq!(r.goodput, r.throughput);
    }

    #[test]
    fn overload_fills_buffer_and_drops() {
        // Conventional saturates near 3500 msg/s; at 8000 it must drop.
        let mut e = engine(Discipline::Conventional, 1);
        let arrivals = PoissonSource::new(8000.0, 552, 3).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(r.drops > 0, "expected drops at 2x capacity");
        assert!(r.conservation_holds());
        // Latency is bounded by the 500-packet buffer (~500 x 285 us).
        assert!(r.max_latency_us < 500.0 * 400.0);
        assert!(r.mean_latency_us > 10_000.0, "deep queueing expected");
    }

    #[test]
    fn overloaded_throughput_is_measured_over_the_drain_span() {
        // The 500-packet backlog drains past the arrival window; the
        // old accounting divided by the window and inflated throughput.
        let mut e = engine(Discipline::Conventional, 1);
        let arrivals = PoissonSource::new(8000.0, 552, 3).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(r.span_s > 0.5, "backlog must drain past the window");
        assert!(
            r.throughput < r.completed as f64 / cfg.duration_s,
            "span-based throughput must undercut the inflated figure"
        );
        assert!(r.offered_load > 7000.0, "offered {} msg/s", r.offered_load);
        assert!(r.throughput < 4000.0, "conventional saturates near 3500/s");
    }

    #[test]
    fn ldlp_sustains_loads_conventional_cannot() {
        let arrivals = PoissonSource::new(8000.0, 552, 3).take_until(0.5);
        let cfg = SimConfig {
            duration_s: 0.5,
            ..SimConfig::default()
        };
        let mut conv = engine(Discipline::Conventional, 1);
        let rc = run_sim(&mut conv, &arrivals, &cfg);
        let mut ldlp = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        let rl = run_sim(&mut ldlp, &arrivals, &cfg);
        assert!(rl.drops == 0, "LDLP should keep up at 8000/s, dropped {}", rl.drops);
        assert!(rl.throughput > rc.throughput);
        assert!(
            rl.mean_latency_us < rc.mean_latency_us / 10.0,
            "LDLP {} us vs conventional {} us",
            rl.mean_latency_us,
            rc.mean_latency_us
        );
        assert!(rl.mean_imiss < rc.mean_imiss / 2.0);
        assert!(rl.mean_batch > 2.0, "batching should engage under load");
    }

    #[test]
    fn empty_arrivals_yield_empty_report() {
        let mut e = engine(Discipline::Conventional, 1);
        let r = run_sim(&mut e, &[], &SimConfig::default());
        assert_eq!(r.completed, 0);
        assert_eq!(r.drops, 0);
        assert!(r.conservation_holds());
    }

    #[test]
    fn batch_sizes_respect_the_policy_cap() {
        let mut e = engine(Discipline::Ldlp(BatchPolicy::Fixed(4)), 1);
        let arrivals = PoissonSource::new(9000.0, 552, 9).take_until(0.2);
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let r = run_sim(&mut e, &arrivals, &cfg);
        assert!(r.mean_batch <= 4.0 + 1e-9);
    }

    #[test]
    fn sim_records_batch_spans_and_value_histograms() {
        let arrivals = PoissonSource::new(4000.0, 552, 5).take_until(0.1);
        let cfg = SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        };
        let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        e.set_sink(obs::Sink::record(true), "ldlp/");
        let r = run_sim(&mut e, &arrivals, &cfg);
        let rec = e.take_sink().into_recorder().expect("sink was attached");
        let value_hist = |name: &str| rec.iter_values().find(|&(n, _)| n == name).map(|(_, h)| h);

        // One span per batch, carrying the batch size.
        let (_, spans) = rec
            .iter_spans()
            .find(|&(n, _)| n == "ldlp/batch")
            .expect("batch spans recorded");
        assert!(spans.spans > 0);
        assert_eq!(
            spans.messages,
            r.completed + r.rejected,
            "batch sizes sum to the processed message count"
        );
        assert!(
            (spans.spans as f64 * r.mean_batch - spans.messages as f64).abs() < 1e-6,
            "span count agrees with the report's mean batch size"
        );

        // Value histograms mirror the report's aggregates.
        let lat = value_hist("ldlp/latency_us").expect("latency histogram recorded");
        assert_eq!(lat.count(), r.completed);
        let mean = lat.mean();
        assert!(
            (mean - r.mean_latency_us).abs() <= r.mean_latency_us * 0.05 + 1.0,
            "histogram mean {mean} vs report {}",
            r.mean_latency_us
        );
        let im = value_hist("ldlp/imiss_per_msg").expect("imiss histogram recorded");
        assert_eq!(im.count(), r.completed + r.rejected);

        // Trace mode also kept the raw per-layer + per-batch events.
        assert!(
            rec.events().len() as u64 > spans.spans,
            "expected layer spans in addition to batch spans"
        );
    }

    #[test]
    fn sink_off_report_is_identical() {
        let arrivals = PoissonSource::new(4000.0, 552, 5).take_until(0.1);
        let cfg = SimConfig {
            duration_s: 0.1,
            ..SimConfig::default()
        };
        let mut plain = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        let r0 = run_sim(&mut plain, &arrivals, &cfg);
        let mut observed = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        observed.set_sink(obs::Sink::record(false), "ldlp/");
        let r1 = run_sim(&mut observed, &arrivals, &cfg);
        assert_eq!(r0.completed, r1.completed);
        assert_eq!(r0.mean_batch.to_bits(), r1.mean_batch.to_bits());
        assert_eq!(r0.mean_latency_us.to_bits(), r1.mean_latency_us.to_bits());
        assert_eq!(r0.mean_imiss.to_bits(), r1.mean_imiss.to_bits());
    }

    #[test]
    fn deterministic_given_seeds() {
        let arrivals = PoissonSource::new(4000.0, 552, 5).take_until(0.2);
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let mut e1 = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 2);
        let r1 = run_sim(&mut e1, &arrivals, &cfg);
        let mut e2 = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 2);
        let r2 = run_sim(&mut e2, &arrivals, &cfg);
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.mean_latency_us, r2.mean_latency_us);
        assert_eq!(r1.mean_imiss, r2.mean_imiss);
    }

    #[test]
    fn lookup_charges_land_in_dmisses_and_latency() {
        let arrivals = ConstantSource::new(0.001, 552).take_until(0.2);
        let flow_ids: Vec<u32> = (0..arrivals.len() as u32).collect();
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let mut plain = engine(Discipline::Conventional, 1);
        let base = run_sim(&mut plain, &arrivals, &cfg);

        /// Two 64-byte slots per lookup, distinct per flow: every
        /// message pays 4 cold-line reads.
        struct Probes;
        impl LookupCharge for Probes {
            fn charge(&mut self, flow_id: u32, machine: &mut cachesim::Machine) -> u64 {
                machine.read_data_probes(0x4000_0000, 64, &[flow_id * 2, flow_id * 2 + 1])
            }
        }
        let mut e = engine(Discipline::Conventional, 1);
        let r = run_sim_lookup(&mut e, &arrivals, &flow_ids, &cfg, &mut Probes);
        assert_eq!(r.completed, base.completed);
        assert!(r.conservation_holds());
        // Each lookup adds 4 cold-line misses of its own; pollution of
        // the stack's working set can only add more.
        assert!(
            r.mean_dmiss >= base.mean_dmiss + 4.0 - 1e-9,
            "lookup misses must be charged: {} vs {}",
            r.mean_dmiss,
            base.mean_dmiss
        );
        assert!(
            r.mean_latency_us > base.mean_latency_us,
            "lookup stalls must show up in latency"
        );
    }

    /// A zero-buffer pool forms only empty batches and the clock never
    /// advances: refused before the loop starts.
    #[test]
    #[should_panic(expected = "pool_bufs must be at least 1")]
    fn a_zero_buffer_pool_is_refused() {
        let arrivals = ConstantSource::new(0.001, 552).take_until(0.009);
        let cfg = SimConfig { pool_bufs: 0, ..SimConfig::default() };
        run_sim(&mut engine(Discipline::Conventional, 1), &arrivals, &cfg);
    }

    #[test]
    #[should_panic(expected = "one flow id per arrival")]
    fn lookup_rejects_a_short_flow_id_list() {
        struct Free;
        impl LookupCharge for Free {
            fn charge(&mut self, _: u32, _: &mut cachesim::Machine) -> u64 {
                0
            }
        }
        let arrivals = ConstantSource::new(0.001, 552).take_until(0.01);
        let flow_ids = vec![0; arrivals.len() - 1];
        let mut e = engine(Discipline::Conventional, 1);
        run_sim_lookup(&mut e, &arrivals, &flow_ids, &SimConfig::default(), &mut Free);
    }

    #[test]
    fn corrupted_deliveries_cost_cycles_but_do_not_complete() {
        let arrivals = ConstantSource::new(0.001, 552).take_until(0.3);
        let cfg = SimConfig {
            duration_s: 0.3,
            ..SimConfig::default()
        };
        let chan = ImpairConfig {
            corrupt_prob: 0.2,
            seed: 5,
            ..ImpairConfig::default()
        };
        let (deliveries, counters) = impair_arrivals(&arrivals, chan);
        let mut e = engine(Discipline::Ldlp(BatchPolicy::DCacheFit), 1);
        let r = run_sim_impaired(&mut e, &deliveries, &cfg, counters);
        assert!(r.conservation_holds());
        assert_eq!(r.rejected, counters.corrupted, "every corrupt delivery rejects");
        assert_eq!(r.completed + r.rejected, deliveries.len() as u64);
        assert_eq!(r.net_corrupted, counters.corrupted);
        assert!(r.goodput < r.throughput, "rejected work is not goodput");
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::traffic::{ConstantSource, TrafficSource};
    use cachesim::MachineConfig;
    use ldlp::synth::paper_stack;
    use ldlp::{BatchPolicy, Discipline, StackEngine};

    #[test]
    fn traced_run_records_every_batch() {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
        let mut e = StackEngine::new(m, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
        let arrivals = ConstantSource::new(0.01, 552).take_until(0.2);
        let mut records = Vec::new();
        let cfg = SimConfig {
            duration_s: 0.2,
            ..SimConfig::default()
        };
        let r = run_sim_traced(&mut e, &arrivals, &cfg, Some(&mut records));
        assert_eq!(records.len() as u64, r.completed, "light load: one batch per message");
        assert!(records.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert!(records.iter().all(|b| b.batch == 1));
    }
}
