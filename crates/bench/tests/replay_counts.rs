//! Exact footprint-replay counts for one small seed-1 cell of each
//! memoizable experiment, run through that experiment's own public
//! configuration (its constants, variants and cells).
//!
//! The replay memo decides, per layer sweep, whether the I-cache walk is
//! answered from its table (a hit), walked and recorded (a miss) or
//! walked without it (a bypass). Those decisions are deterministic, so
//! they are pinned as counts, not as a hit-rate floor: any change to a
//! memo decision — a state that stops matching, a transition recorded
//! twice, a config silently opted out — fails here at any hit rate.
//! Every pin has zero bypasses: each of these experiments runs entirely
//! on memo-eligible machines.
//!
//! Engine cells read `engine.machine().replay_stats()`; multi-core cells
//! read `SmpOutcome::replay`, the per-run delta summed over cores.

use bench::{figure10, figure13, figure14, figure4_regimes, figure7_clocks};
use cachesim::{MachineConfig, ReplayStats};
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::closed::{ClosedConfig, ClosedPopulation};
use simnet::traffic::{PoissonSource, SelfSimilarSource, TrafficSource};
use simnet::{run_sim, run_sim_lookup, ImpairCounters, SimConfig};
use smp::{tag_flows, DispatchPolicy, SmpConfig, SmpSim};

const SEED: u64 = 1;

fn stats(hits: u64, misses: u64, bypasses: u64) -> ReplayStats {
    ReplayStats {
        hits,
        misses,
        bypasses,
    }
}

#[test]
fn figure4_regimes_cell() {
    // The paper's 552-byte row, every discipline the binary compares.
    let got = [
        Discipline::Conventional,
        Discipline::Ilp,
        Discipline::Ldlp(BatchPolicy::DCacheFit),
    ]
    .map(|d| {
        let (_, engine) = figure4_regimes::run_cell(d, 552, SEED, 0.1);
        engine.machine().replay_stats()
    });
    assert_eq!(
        got,
        [stats(2537, 8, 0), stats(2537, 8, 0), stats(2532, 13, 0)]
    );
}

#[test]
fn figure7_cell() {
    // The mid-grid clock, through `bench::sweep::clock_sweep`'s engine
    // set-up: self-similar arrivals, a fresh placement per seed.
    let clocks = figure7_clocks();
    let cfg = MachineConfig::synthetic_benchmark().with_clock_mhz(clocks[clocks.len() / 2]);
    let duration_s = 0.25;
    let arrivals = SelfSimilarSource::bellcore_like(SEED).take_until(duration_s);
    let got = [
        Discipline::Conventional,
        Discipline::Ldlp(BatchPolicy::DCacheFit),
    ]
    .map(|d| {
        let (machine, layers) = paper_stack(cfg, SEED);
        let mut engine = StackEngine::new(machine, layers, d);
        let sim_cfg = SimConfig {
            duration_s,
            pool_seed: SEED,
            ..SimConfig::default()
        };
        run_sim(&mut engine, &arrivals, &sim_cfg);
        engine.machine().replay_stats()
    });
    assert_eq!(got, [stats(762, 8, 0), stats(757, 13, 0)]);
}

#[test]
fn figure10_cell() {
    // The smallest smoke population under LDLP with the first smoke
    // lookup-cache variant: table probes are data traffic, so only the
    // code sweeps reach the memo.
    let pop = figure10::populations(true)[0];
    let v = &figure10::variants(true)[0];
    let duration_s = 0.1;
    let arrivals =
        PoissonSource::new(figure10::RATE, figure10::MSG_BYTES, SEED).take_until(duration_s);
    let flow_ids = figure10::flow_sequence(pop, arrivals.len(), SEED, v.popmodel);
    let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), SEED);
    let mut engine = StackEngine::new(machine, layers, Discipline::Ldlp(BatchPolicy::DCacheFit));
    let mut lookup = figure10::TableCharge::new(pop, v.scheme, v.cache_slots, SEED);
    let sim_cfg = SimConfig {
        duration_s,
        pool_seed: SEED,
        ..SimConfig::default()
    };
    run_sim_lookup(&mut engine, &arrivals, &flow_ids, &sim_cfg, &mut lookup);
    assert_eq!(engine.machine().replay_stats(), stats(977, 13, 0));
}

#[test]
fn figure13_cell() {
    // The first smoke cell: underload, the first build, tail-drop, retry
    // budget on — the closed loop through the 4-core server.
    let cell = figure13::cells(true)[0];
    let v = cell.variant;
    let duration_s = 0.1;
    let think_s = figure13::CLIENTS as f64 / (cell.load * v.capacity_msg_s);
    let mut pc = ClosedConfig::new(figure13::CLIENTS, think_s, duration_s, SEED);
    pc.retry_budget_on = cell.budget_on;
    let mut pop = ClosedPopulation::new(&pc);
    let cfg = SmpConfig {
        duration_s,
        placement_seed: SEED,
        admission: cell.admission.policy,
        flow_control: v.flow_control,
        handoff_cap: 4,
        ..SmpConfig::new(figure13::CORES, v.dispatch, v.discipline)
    };
    let mut sim = SmpSim::new(&cfg);
    sim.run_closed(&mut pop, figure13::WEIGHTS);
    let out = sim.outcome(pop.channel_counters());
    assert_eq!(out.replay, stats(3413, 32, 0));
}

#[test]
fn figure14_cell() {
    // Four cores, LDLP with flow hashing: five class handlers' footprints
    // interleaved in one memo per core.
    let cores = figure14::core_counts(true)[1];
    let variant = figure14::variants()[1];
    let duration_s = 0.05;
    let mix = workload::MixConfig::service_mix(figure14::RATE_MSG_S, duration_s, SEED);
    let stream = workload::generate(&mix);
    let arrivals = workload::to_flow_arrivals(&stream, figure14::FLOWS, SEED);
    let cfg = SmpConfig {
        duration_s,
        placement_seed: SEED,
        wclass: workload::profiles(),
        ..SmpConfig::new(cores, variant.dispatch, variant.discipline)
    };
    let mut sim = SmpSim::new(&cfg);
    sim.run(&arrivals);
    let out = sim.outcome(ImpairCounters::default());
    assert_eq!(out.replay, stats(3309, 177, 0));
}

#[test]
fn warm_multi_core_rerun() {
    // One simulator re-run on the same arrivals until its per-core state
    // graphs close (the point `smp/tests/alloc.rs` measures from); the
    // outcome then covers the last run only.
    let duration_s = 0.02;
    let cfg = SmpConfig {
        duration_s,
        ..SmpConfig::new(
            4,
            DispatchPolicy::FlowHash,
            Discipline::Ldlp(BatchPolicy::DCacheFit),
        )
    };
    let raw = PoissonSource::new(4000.0, 552, 7).take_until(duration_s);
    let arrivals = tag_flows(&raw, 32, 7);
    let mut sim = SmpSim::new(&cfg);
    for _ in 0..150 {
        sim.run(&arrivals);
    }
    let out = sim.outcome(ImpairCounters::default());
    assert_eq!(out.replay, stats(330, 0, 0));
}
