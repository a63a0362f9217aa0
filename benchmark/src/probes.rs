//! Direct-drive probes: each layer's floor in isolation, driven through
//! its public functions with nothing else in the loop. They run in the
//! traced run only and take about a second in total; every reading is
//! the fastest of several batches, so a scheduling hiccup cannot inflate
//! it. They locate a cost, they do not gate anything: a probe moving
//! while no end-to-end metric moves is not a gain.

use crate::timing::now_ns;
use cachesim::{Machine, MachineConfig, Region, SharedL2, SharedL2Config};
use ldlp::synth::{paper_stack, MessagePool};
use ldlp::{weighted_fair_admit, BatchPolicy, Discipline, SimLayer, SimMessage, StackEngine};
use netstack::table::{mix64, OaTable};
use simnet::closed::ClosedPopulation;
use simnet::impair::ImpairCounters;
use simnet::stats::{RunTally, SimReport};
use simnet::traffic::{PoissonSource, SelfSimilarSource, TrafficSource};
use simnet::{run_indexed, ClosedConfig};
use smp::{tag_flows, FlowArrival, SmpConfig, SmpSim};
use std::hint::black_box;
use workload::{AgentKind, AgentMsg, DispatchStats, Frame, Relay, WireClass};

/// `(name, unit, the probe)`.
type Probe = (&'static str, &'static str, fn() -> f64);

/// Every probe, in print order.
pub const PROBES: [Probe; 15] = [
    ("cachesim.probe.replay_hit_ns", "ns", replay_hit_ns),
    ("cachesim.probe.walk_ns_per_line", "ns", walk_ns_per_line),
    (
        "cachesim.probe.coherence_ns_per_op",
        "ns",
        coherence_ns_per_op,
    ),
    ("ldlp.probe.batch1_ns_per_msg", "ns", || {
        engine_ns_per_msg(1)
    }),
    ("ldlp.probe.batch16_ns_per_msg", "ns", || {
        engine_ns_per_msg(16)
    }),
    ("ldlp.probe.wfq_admit_ns", "ns", wfq_admit_ns),
    ("simnet.probe.poisson_ns_per_arrival", "ns", || {
        source_ns_per_arrival(|s| Box::new(PoissonSource::new(20_000.0, 552, s)), 2.0)
    }),
    ("simnet.probe.selfsim_ns_per_arrival", "ns", || {
        source_ns_per_arrival(|s| Box::new(SelfSimilarSource::bellcore_like(s)), 20.0)
    }),
    ("simnet.probe.closed_ns_per_req", "ns", closed_ns_per_req),
    (
        "simnet.probe.from_samples_ns_per_sample",
        "ns",
        from_samples_ns_per_sample,
    ),
    (
        "workload.probe.dispatch_ns_per_msg",
        "ns",
        dispatch_ns_per_msg,
    ),
    (
        "workload.probe.frame_codec_ns_per_msg",
        "ns",
        frame_codec_ns_per_msg,
    ),
    ("netstack.probe.oatable_get_ns", "ns", oatable_get_ns),
    (
        "obs.probe.metrics_overhead_frac",
        "ratio",
        metrics_overhead_frac,
    ),
    ("simnet.probe.par_speedup_2t", "ratio", par_speedup_2t),
];

const BATCHES: usize = 5;

/// Runs `batch` — which performs some operations and returns how many —
/// [`BATCHES`] times and returns the lowest nanoseconds per operation.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    (0..BATCHES)
        .map(|_| {
            let t0 = now_ns();
            let ops = batch();
            (now_ns() - t0) as f64 / ops.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Lowest wall time of `f` over [`BATCHES`] tries, in nanoseconds.
fn best_wall_ns(mut f: impl FnMut()) -> f64 {
    ns_per_op(|| {
        f();
        1
    })
}

/// One lap over the paper stack's five code footprints, `laps` times.
fn footprint_laps(m: &mut Machine, layers: &[Box<dyn SimLayer>], laps: u64) -> u64 {
    for _ in 0..laps {
        for (li, layer) in layers.iter().enumerate() {
            black_box(m.fetch_code_footprint(li as u32, layer.code_lines()));
        }
    }
    laps * layers.len() as u64
}

fn replay_hit_ns() -> f64 {
    let (mut m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
    footprint_laps(&mut m, &layers, 16);
    ns_per_op(|| footprint_laps(&mut m, &layers, 20_000))
}

fn walk_ns_per_line() -> f64 {
    let (mut m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
    m.set_replay_enabled(false);
    let lines_per_lap: u64 = layers.iter().map(|l| l.code_lines().len() as u64).sum();
    ns_per_op(|| {
        let laps = 400;
        footprint_laps(&mut m, &layers, laps);
        laps * lines_per_lap
    })
}

/// Two cores alternately write and read the same 64 table slots, so
/// every operation is a transfer or an invalidation.
fn coherence_ns_per_op() -> f64 {
    let mut l2 = SharedL2::new(SharedL2Config::smp_default());
    let mut machines = [
        Machine::new(MachineConfig::synthetic_benchmark()),
        Machine::new(MachineConfig::synthetic_benchmark()),
    ];
    ns_per_op(|| {
        let rounds = 2_000u64;
        for r in 0..rounds {
            for slot in 0..64u64 {
                let region = Region::new(0x5000_0000 + slot * 64, 64);
                let core = ((r + slot) & 1) as usize;
                black_box(l2.write(core as u8, region, &mut machines[core]));
                black_box(l2.read(1 - core as u8, region, &mut machines[1 - core]));
            }
        }
        rounds * 64 * 2
    })
}

fn engine_ns_per_msg(batch: usize) -> f64 {
    let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), 1);
    let mut engine = StackEngine::new(m, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
    let mut pool = MessagePool::new(64, 1536, 1);
    let msgs: Vec<SimMessage> = (0..batch)
        .map(|i| pool.make_message(i as u64, 552))
        .collect();
    let mut out = Vec::with_capacity(batch);
    for _ in 0..64 {
        engine.process_batch_into(&msgs, &mut out);
    }
    ns_per_op(|| {
        let rounds = 16_000 / batch as u64;
        for _ in 0..rounds {
            engine.process_batch_into(black_box(&msgs), &mut out);
            black_box(&out);
        }
        rounds * batch as u64
    })
}

fn wfq_admit_ns() -> f64 {
    let weights = [4u32, 2, 1];
    ns_per_op(|| {
        let n = 400_000u64;
        let mut admitted = 0u64;
        for i in 0..n {
            // A full 500-slot queue whose occupancy shifts with i, so
            // both the refuse and the evict branch run.
            let a = 100 + (i % 300);
            let counts = [a, 400 - a, 100];
            let (_, admit) =
                weighted_fair_admit(black_box(&counts), &weights, 500, (i % 3) as usize);
            admitted += u64::from(admit);
        }
        black_box(admitted);
        n
    })
}

fn source_ns_per_arrival(
    mut make: impl FnMut(u64) -> Box<dyn TrafficSource>,
    duration_s: f64,
) -> f64 {
    let mut seed = 0;
    ns_per_op(|| {
        seed += 1;
        black_box(make(seed).take_until(duration_s)).len() as u64
    })
}

/// The closed population against a server that acknowledges every
/// transmission 100 µs after it was sent.
fn closed_ns_per_req() -> f64 {
    let mut seed = 0;
    ns_per_op(|| {
        seed += 1;
        let mut pop = ClosedPopulation::new(&ClosedConfig::new(600, 0.02, 1.0, seed));
        let mut sends = Vec::new();
        while let Some(t) = pop.next_event_time() {
            sends.clear();
            pop.poll_sends(t, &mut sends);
            for s in &sends {
                black_box(pop.ack(s.client, s.req, s.time_s + 1e-4));
            }
        }
        pop.stats().requests
    })
}

fn from_samples_ns_per_sample() -> f64 {
    let n = 100_000usize;
    let latencies: Vec<f64> = (0..n as u64)
        .map(|i| (mix64(i) % 1_000_000) as f64 / 10.0)
        .collect();
    let misses: Vec<u64> = (0..n as u64).map(|i| mix64(i ^ 7) % 1200).collect();
    ns_per_op(|| {
        let mut lat = latencies.clone();
        let tally = RunTally {
            offered: n as u64,
            duration_s: 1.0,
            span_s: 1.0,
            batches: n as u64 / 4,
            ..RunTally::default()
        };
        black_box(SimReport::from_samples(&mut lat, &misses, &misses, tally));
        n as u64
    })
}

/// A batch of framed, agent-relay and DNS-shaped buffers through
/// `workload::dispatch_batch`.
fn dispatch_ns_per_msg() -> f64 {
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    for i in 0..64u32 {
        bufs.push(Frame::v2(WireClass::ClientSignal, i, 1, vec![1; 40]).encode());
        bufs.push(Frame::v2(WireClass::SvcRpc, i, 2, vec![2; 200]).encode());
        bufs.push(Frame::v2(WireClass::MediaCtl, i, 3, vec![3; 24]).encode());
        bufs.push(vec![0x12; 48]);
        let dest = 0x5e55_0000 + (i % 8) as u64;
        bufs.push(
            AgentMsg {
                kind: AgentKind::RelayPut,
                session: dest,
                seq: i,
                body: vec![9; 64],
            }
            .encode(),
        );
        bufs.push(AgentMsg::control(AgentKind::RelayFetch, dest, i).encode());
    }
    let mut relay = Relay::new(16, 1_000_000);
    let mut machine = Machine::new(MachineConfig::synthetic_benchmark());
    let mut delivered = Vec::new();
    let mut stats = DispatchStats::default();
    ns_per_op(|| {
        let rounds = 40u64;
        for now in 0..rounds {
            delivered.clear();
            workload::dispatch_batch(
                &bufs,
                now,
                &mut relay,
                &mut machine,
                &mut delivered,
                &mut stats,
            );
        }
        black_box(&stats);
        rounds * bufs.len() as u64
    })
}

fn frame_codec_ns_per_msg() -> f64 {
    let frames: Vec<Frame> = (0..256u32)
        .map(|i| {
            Frame::v2(
                WireClass::SvcRpc,
                i,
                i ^ 0x55,
                vec![i as u8; 48 + (i as usize % 5) * 96],
            )
        })
        .collect();
    let mut buf = Vec::with_capacity(2048);
    ns_per_op(|| {
        let rounds = 40u64;
        for _ in 0..rounds {
            for f in &frames {
                buf.clear();
                f.encode_into(&mut buf);
                black_box(Frame::decode(black_box(&buf)).is_ok());
            }
        }
        rounds * frames.len() as u64
    })
}

fn oatable_get_ns() -> f64 {
    let n = 100_000u64;
    let mut table: OaTable<u64, u32> = OaTable::with_capacity(n as usize);
    for k in 0..n {
        table.insert(mix64(k), k as u32);
    }
    ns_per_op(|| {
        let lookups = 400_000u64;
        let mut found = 0u64;
        for i in 0..lookups {
            found += u64::from(table.get(&mix64(mix64(i) % n)).is_some());
        }
        assert_eq!(found, lookups, "every probed key is live");
        lookups
    })
}

/// Six figure-9 cells (12 000 msg/s, 4 cores, every variant, 0.25 s).
fn probe_cells() -> Vec<(SmpConfig, Vec<FlowArrival>)> {
    let duration_s = 0.25;
    let raw = PoissonSource::new(12_000.0, bench::figure9::MSG_BYTES, 1).take_until(duration_s);
    let arrivals = tag_flows(&raw, bench::figure9::FLOWS, 1);
    bench::figure9::variants()
        .iter()
        .map(|v| {
            let cfg = SmpConfig {
                duration_s,
                placement_seed: 1,
                ..SmpConfig::new(4, v.dispatch, v.discipline)
            };
            (cfg, arrivals.clone())
        })
        .collect()
}

fn run_probe_cell(cfg: &SmpConfig, arrivals: &[FlowArrival], observe: bool) -> u64 {
    let mut sim = SmpSim::new(cfg);
    if observe {
        sim.set_sinks(false);
    }
    sim.run(arrivals);
    let out = sim.outcome(ImpairCounters::default());
    if observe {
        let mut merged: Option<Box<obs::Recorder>> = None;
        for (_, rec) in sim.take_recorders() {
            match merged.as_mut() {
                None => merged = Some(rec),
                Some(m) => m.merge(&rec),
            }
        }
        black_box(merged);
    }
    out.report.completed
}

/// Cost of `--metrics`: the same cells with per-core metric sinks and
/// the recorder merge, over the same cells without.
fn metrics_overhead_frac() -> f64 {
    let cells = probe_cells();
    let run_all = |observe: bool| {
        best_wall_ns(|| {
            for (cfg, arrivals) in &cells {
                black_box(run_probe_cell(cfg, arrivals, observe));
            }
        })
    };
    let off = run_all(false);
    run_all(true) / off - 1.0
}

/// `simnet::run_indexed` at two worker threads over one. Informational:
/// on a shared two-core VM the second core is often not there.
fn par_speedup_2t() -> f64 {
    let mut cells = probe_cells();
    cells.extend(probe_cells());
    let run_at = |threads: usize| {
        best_wall_ns(|| {
            black_box(run_indexed(cells.len(), threads, |i| {
                run_probe_cell(&cells[i].0, &cells[i].1, false)
            }));
        })
    };
    let one = run_at(1);
    one / run_at(2)
}
