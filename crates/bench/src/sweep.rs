//! The uniprocessor sweeps behind Figures 5–7 and the code-density
//! ablation: per (point, seed) job one arrival stream, run through a
//! fresh paper stack once per discipline, then averaged over seeds in
//! seed order by [`grid`]'s contract.

use crate::harness::{average, grid, merge};
use crate::RunOpts;
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use obs::Recorder;
use simnet::stats::SimReport;
use simnet::traffic::{Arrival, PoissonSource, SelfSimilarSource, TrafficSource};
use simnet::{run_sim, SimConfig};

/// One rate/clock point: averaged reports for the disciplines.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter (arrival rate or clock MHz).
    pub x: f64,
    pub conventional: SimReport,
    pub ldlp: SimReport,
    /// Integrated layer processing — the prior art the paper contrasts
    /// with: helps data-heavy large messages, not small-message code
    /// locality. Populated by the Poisson sweep only.
    pub ilp: Option<SimReport>,
}

/// A discipline a sweep runs: (discipline, trace process name, metric
/// name prefix).
pub(crate) type Run = (Discipline, &'static str, &'static str);

pub(crate) const CONV: Run = (Discipline::Conventional, "conventional", "conv/");
pub(crate) const LDLP: Run = (Discipline::Ldlp(BatchPolicy::DCacheFit), "ldlp", "ldlp/");
pub(crate) const ILP: Run = (Discipline::Ilp, "ilp", "ilp/");

/// An arrival stream from (swept value, seed, duration).
pub(crate) type Arrivals = fn(f64, u64, f64) -> Vec<Arrival>;

/// Poisson arrivals of 552-byte messages at `rate` (Figures 5 and 6).
pub(crate) fn poisson(rate: f64, seed: u64, duration_s: f64) -> Vec<Arrival> {
    PoissonSource::new(rate, 552, seed).take_until(duration_s)
}

/// Figure 7's self-similar trace-like arrivals; the swept clock belongs
/// to the machine, not the stream.
pub(crate) fn self_similar(_clock_mhz: f64, seed: u64, duration_s: f64) -> Vec<Arrival> {
    SelfSimilarSource::bellcore_like(seed).take_until(duration_s)
}

/// Runs one (discipline, arrivals) pair on a fresh paper stack with
/// `sink` attached for the run (events interned as `<prefix><name>`),
/// and returns the sink, so one recorder can thread through several runs.
pub(crate) fn run_once(
    cfg: MachineConfig,
    discipline: Discipline,
    placement_seed: u64,
    arrivals: &[Arrival],
    duration_s: f64,
    sink: obs::Sink,
    prefix: &str,
) -> (SimReport, obs::Sink) {
    let (machine, layers) = paper_stack(cfg, placement_seed);
    let mut engine = StackEngine::new(machine, layers, discipline);
    engine.set_sink(sink, prefix);
    let sim_cfg = SimConfig {
        duration_s,
        pool_seed: placement_seed,
        ..SimConfig::default()
    };
    let report = run_sim(&mut engine, arrivals, &sim_cfg);
    (report, engine.take_sink())
}

/// Runs `engine` over `arrivals` for `duration_s` seconds on the
/// default message pool.
pub(crate) fn run_for(engine: &mut StackEngine, arrivals: &[Arrival], duration_s: f64) -> SimReport {
    let cfg = SimConfig {
        duration_s,
        ..SimConfig::default()
    };
    run_sim(engine, arrivals, &cfg)
}

/// Sweeps `(x, machine)` cells: each (cell, seed) job draws
/// `arrivals(x, seed, duration)` once and runs it through `runs` in
/// order. Returns the seed-averaged points and, under `opts.metrics`,
/// every job's recorder merged in index order — identical for every
/// worker-thread count.
pub(crate) fn sweep(
    opts: &RunOpts,
    cells: &[(f64, MachineConfig)],
    arrivals: Arrivals,
    runs: &[Run],
) -> (Vec<SweepPoint>, Option<Box<Recorder>>) {
    let mut jobs = grid(opts, cells, |&(x, cfg), seed| {
        let arrivals = arrivals(x, seed, opts.duration_s);
        let mut sink = if opts.metrics {
            obs::Sink::record(false)
        } else {
            obs::Sink::Off
        };
        let reports: Vec<SimReport> = runs
            .iter()
            .map(|&(discipline, _, prefix)| {
                let taken = std::mem::take(&mut sink);
                let (report, back) =
                    run_once(cfg, discipline, seed, &arrivals, opts.duration_s, taken, prefix);
                sink = back;
                report
            })
            .collect();
        (reports, sink.into_recorder())
    });
    let metrics = merge(jobs.iter_mut().flatten().map(|job| job.1.take()));
    let points = cells
        .iter()
        .zip(&jobs)
        .map(|(&(x, _), seeds)| {
            let avg = |k: usize| average(seeds.iter().map(|job| job.0[k].clone()));
            SweepPoint {
                x,
                conventional: avg(0),
                ldlp: avg(1),
                ilp: (runs.len() > 2).then(|| avg(2)),
            }
        })
        .collect();
    (points, metrics)
}

/// Figures 5 and 6: Poisson arrivals over `rates` at `cfg`,
/// conventional vs. LDLP vs. ILP.
pub fn poisson_sweep(opts: &RunOpts, cfg: MachineConfig, rates: &[f64]) -> Vec<SweepPoint> {
    sweep(opts, &rates.iter().map(|&r| (r, cfg)).collect::<Vec<_>>(), poisson, &[CONV, LDLP, ILP]).0
}

/// Figure 7: self-similar traffic over CPU `clocks` from `base`,
/// conventional vs. LDLP.
pub fn clock_sweep(opts: &RunOpts, base: MachineConfig, clocks: &[f64]) -> Vec<SweepPoint> {
    sweep(opts, &clock_cells(base, clocks), self_similar, &[CONV, LDLP]).0
}

/// Figure 7's cells: `base` at each clock.
pub(crate) fn clock_cells(base: MachineConfig, clocks: &[f64]) -> Vec<(f64, MachineConfig)> {
    clocks.iter().map(|&mhz| (mhz, base.with_clock_mhz(mhz))).collect()
}

/// One fully traced seed-1 run per discipline on `arrivals`, for the
/// chrome://tracing export: (process name, recorder, `cfg`'s clock —
/// the timestamps are its cycles).
pub(crate) fn traced(
    cfg: MachineConfig,
    arrivals: &[Arrival],
    duration_s: f64,
    runs: &[Run],
) -> Vec<(String, Box<Recorder>, f64)> {
    runs.iter()
        .map(|&(discipline, name, prefix)| {
            let sink = obs::Sink::record(true);
            let (_, sink) = run_once(cfg, discipline, 1, arrivals, duration_s, sink, prefix);
            let recorder = sink.into_recorder().expect("sink was attached");
            (name.to_string(), recorder, cfg.clock_mhz)
        })
        .collect()
}
