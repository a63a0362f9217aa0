//! Figure 9: multi-core protocol processing — arrival rate × core
//! count × dispatch policy, Conventional vs. LDLP.
//!
//! Each cell runs `crates/smp`'s deterministic N-core simulator:
//! per-core split L1 caches over a shared coherent L2, RSS-style
//! flow hashing / first-seen round-robin / LDLP-aware layer
//! affinity (software pipelining with bounded hand-off queues).
//! The sweep fans independent (cell, variant, seed) jobs across
//! worker threads and reduces in deterministic index order, so the
//! CSV is byte-identical for any `--threads` value.
//!
//! Expected shape: with the whole five-layer stack on every core
//! (hash / round-robin dispatch), each private 8 KB I-cache cycles
//! ~30 KB of layer code and the paper's single-core thrashing recurs on
//! N cores at N× the rate; LDLP batching amortises but cannot eliminate
//! it. Layer-affinity dispatch pins 1–2 layers per core so stage code
//! *stays resident*, collapsing I-misses per message — at the price of
//! hand-off queueing and a bottleneck stage that saturates before a
//! round-robin fleet does. The crossover is the figure's headline.

use crate::harness::{average, grid, merge, sums};
use crate::{f, Output, RunOpts};
use ldlp::{BatchPolicy, Discipline};
use obs::Recorder;
use simnet::impair::ImpairCounters;
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use smp::{tag_flows, DispatchPolicy, SmpConfig, SmpSim};

/// Paper workload: 552-byte signalling-sized messages.
pub const MSG_BYTES: u32 = 552;

/// Synthetic flow population per run — enough concurrent flows that
/// hashing can spread load over eight cores.
pub const FLOWS: u32 = 64;

/// One (discipline, dispatch) curve in the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Discipline label used in the CSV (`conv` / `ldlp`).
    pub discipline_label: &'static str,
    pub discipline: Discipline,
    /// Dispatch label used in the CSV (`hash` / `rr` / `aff`).
    pub dispatch_label: &'static str,
    pub dispatch: DispatchPolicy,
}

/// The six swept curves: {Conventional, LDLP} × {hash, rr, aff}.
pub fn variants() -> [Variant; 6] {
    let disciplines = [
        ("conv", Discipline::Conventional),
        ("ldlp", Discipline::Ldlp(BatchPolicy::DCacheFit)),
    ];
    let dispatches = [
        ("hash", DispatchPolicy::FlowHash),
        ("rr", DispatchPolicy::RoundRobin),
        ("aff", DispatchPolicy::LayerAffinity),
    ];
    let mut out = [Variant {
        discipline_label: "",
        discipline: Discipline::Conventional,
        dispatch_label: "",
        dispatch: DispatchPolicy::FlowHash,
    }; 6];
    let mut i = 0;
    for (dl, d) in disciplines {
        for (pl, p) in dispatches {
            out[i] = Variant {
                discipline_label: dl,
                discipline: d,
                dispatch_label: pl,
                dispatch: p,
            };
            i += 1;
        }
    }
    out
}

/// Core counts swept (smoke keeps the 1-vs-4 contrast only).
pub fn core_counts(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1, 4]
    } else {
        &[1, 2, 4, 8]
    }
}

/// Arrival rates swept (msg/s). The full grid spans light load
/// through single-core saturation up past the affinity pipeline's
/// bottleneck-stage capacity, so the round-robin/affinity crossover
/// at high core counts is visible.
pub fn rates(smoke: bool) -> &'static [f64] {
    if smoke {
        &[4000.0, 20000.0]
    } else {
        &[2000.0, 6000.0, 12000.0, 20000.0, 28000.0, 36000.0]
    }
}

/// One variant's seed-averaged measurements at a grid cell.
#[derive(Debug, Clone)]
pub struct VariantPoint {
    pub discipline: &'static str,
    pub dispatch: &'static str,
    pub report: SimReport,
    /// Mean dirty-line transfers between cores in the shared L2.
    pub l2_transfers: f64,
    /// Mean cross-core invalidations on shared-table writes.
    pub l2_invalidations: f64,
    /// Mean cycles stalled on L2/coherence traffic.
    pub l2_stall_cycles: f64,
    /// Mean messages crossing an inter-core hand-off queue.
    pub handoff_msgs: f64,
}

/// One (rate, cores) grid cell: all six variants.
#[derive(Debug, Clone)]
pub struct Figure9Point {
    pub rate: f64,
    pub cores: usize,
    pub variants: Vec<VariantPoint>,
}

/// A run's report, its coherence and hand-off counts, and its per-core
/// recorders named `core<i>`.
type Job = (SimReport, [f64; 4], Vec<(String, Box<Recorder>)>);

/// One (rate, cores, variant, seed) run; `sinks: Some(collect_spans)`
/// attaches one sink per core.
fn run_cell(
    rate: f64,
    cores: usize,
    variant: &Variant,
    seed: u64,
    duration_s: f64,
    sinks: Option<bool>,
) -> Job {
    let raw = PoissonSource::new(rate, MSG_BYTES, seed).take_until(duration_s);
    let arrivals = tag_flows(&raw, FLOWS, seed);
    let cfg = SmpConfig {
        duration_s,
        placement_seed: seed,
        ..SmpConfig::new(cores, variant.dispatch, variant.discipline)
    };
    let mut sim = SmpSim::new(&cfg);
    if let Some(collect_spans) = sinks {
        sim.set_sinks(collect_spans);
    }
    sim.run(&arrivals);
    let out = sim.outcome(ImpairCounters::default());
    (
        out.report,
        [
            out.coherence.transfers as f64,
            out.coherence.invalidations as f64,
            out.coherence.stall_cycles as f64,
            out.handoff_msgs as f64,
        ],
        sim.take_recorders(),
    )
}

/// The full sweep: every (rate, cores) cell × six variants ×
/// `opts.seeds` placements, averaged per variant in seed order. Under
/// `opts.metrics` it also returns the recorders, folded per job (core
/// order) then across jobs (index order), so the merged document is
/// thread-count invariant.
pub fn sweep(opts: &RunOpts) -> (Vec<Figure9Point>, Option<Box<Recorder>>) {
    let vars = variants();
    let mut cells = Vec::new();
    for &rate in rates(opts.smoke) {
        for &cores in core_counts(opts.smoke) {
            for v in &vars {
                cells.push((rate, cores, v));
            }
        }
    }
    let mut jobs = grid(opts, &cells, |&(rate, cores, v), seed| {
        let sinks = opts.metrics.then_some(false);
        let (report, extras, recs) = run_cell(rate, cores, v, seed, opts.duration_s, sinks);
        (report, extras, merge(recs.into_iter().map(|(_, rec)| Some(rec))))
    });
    let metrics = merge(jobs.iter_mut().flatten().map(|job| job.2.take()));
    let points = cells
        .chunks(vars.len())
        .zip(jobs.chunks(vars.len()))
        .map(|(cell, jobs)| Figure9Point {
            rate: cell[0].0,
            cores: cell[0].1,
            variants: cell
                .iter()
                .zip(jobs)
                .map(|(&(_, _, v), seeds)| {
                    let [l2_transfers, l2_invalidations, l2_stall_cycles, handoff_msgs] =
                        sums(seeds.iter().map(|job| job.1)).map(|a| a / opts.seeds as f64);
                    VariantPoint {
                        discipline: v.discipline_label,
                        dispatch: v.dispatch_label,
                        report: average(seeds.iter().map(|job| job.0.clone())),
                        l2_transfers,
                        l2_invalidations,
                        l2_stall_cycles,
                        handoff_msgs,
                    }
                })
                .collect(),
        })
        .collect();
    (points, metrics)
}

/// CSV schema: one row per (rate, cores, discipline, dispatch).
pub const FIGURE9_HEADER: [&str; 17] = [
    "rate",
    "cores",
    "discipline",
    "dispatch",
    "imiss_per_msg",
    "dmiss_per_msg",
    "mean_latency_us",
    "p99_latency_us",
    "throughput",
    "goodput",
    "drops",
    "shed",
    "mean_batch",
    "l2_transfers",
    "l2_invalidations",
    "l2_stall_cycles",
    "handoff_msgs",
];

/// Rows for [`FIGURE9_HEADER`].
pub fn figure9_rows(points: &[Figure9Point]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for p in points {
        for v in &p.variants {
            rows.push(vec![
                f(p.rate, 0),
                p.cores.to_string(),
                v.discipline.to_string(),
                v.dispatch.to_string(),
                f(v.report.mean_imiss, 2),
                f(v.report.mean_dmiss, 2),
                f(v.report.mean_latency_us, 1),
                f(v.report.p99_latency_us, 1),
                f(v.report.throughput, 0),
                f(v.report.goodput, 0),
                v.report.drops.to_string(),
                v.report.shed.to_string(),
                f(v.report.mean_batch, 3),
                f(v.l2_transfers, 1),
                f(v.l2_invalidations, 1),
                f(v.l2_stall_cycles, 0),
                f(v.handoff_msgs, 1),
            ]);
        }
    }
    rows
}

pub fn run(opts: &RunOpts) -> Output {
    let (points, metrics) = sweep(opts);
    // One heavy-load cell at four cores: the contrast the figure is
    // about, with one track per (variant, core).
    let mut trace = Vec::new();
    if opts.trace {
        let rate = rates(opts.smoke)[rates(opts.smoke).len() - 1];
        for v in variants() {
            for (core, rec) in run_cell(rate, 4, &v, 1, opts.duration_s, Some(true)).2 {
                let name = format!("{}-{}/{}", v.discipline_label, v.dispatch_label, core);
                trace.push((name, rec, smp::CORE_MACHINE.clock_mhz)); // timestamps are CPU cycles
            }
        }
    }
    Output {
        metrics,
        trace,
        ..Output::table(
            format!(
                "Figure 9: multi-core sweep (Poisson, 552-byte messages, {FLOWS} flows,\n\
                 cores {:?}, {} rates x 6 variants x {} placements x {}s, {} worker threads)",
                core_counts(opts.smoke),
                rates(opts.smoke).len(),
                opts.seeds,
                opts.duration_s,
                opts.effective_threads()
            ),
            &FIGURE9_HEADER,
            figure9_rows(&points),
            &[0, 1, 2, 3, 4, 7, 9, 10, 16],
            "",
        )
    }
}
