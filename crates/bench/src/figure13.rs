//! Figure 13: closed-loop overload — retrying client populations
//! against a multi-core server, sweeping offered load from half to
//! three times capacity.
//!
//! Open-loop Poisson sweeps (figures 5–10) hold the arrival process
//! fixed no matter how the server behaves; production overload is
//! closed-loop: clients that time out *retransmit*, so a slow
//! server recruits its own extra load. Each cell here runs
//! [`smp::SmpSim::run_closed`] against a [`ClosedPopulation`] of
//! retrying clients in three traffic classes (call signalling, DNS,
//! bulk RPC) and reports goodput — *useful* acknowledgements per
//! second — against throughput, which also counts work the server
//! finished after the client stopped waiting (`stale`). The gap
//! between the two curves is the metastable-collapse signature:
//! past saturation an unbudgeted-retry population keeps the queue
//! full of duplicate copies and goodput falls even though the
//! server never idles.
//!
//! Axes: load multiplier × {conv, ldlp} × four admission policies ×
//! retry budget {on, off}. The `ldlp` variant runs the
//! layer-affinity pipeline with [`HandoffFlowControl::StallProducer`],
//! so its `bp_stall_cycles` column shows real backpressure instead
//! of clairvoyant batch sizing. The sweep fans independent
//! (cell, seed) jobs across worker threads and reduces in
//! deterministic index order, so the CSV is byte-identical for any
//! `--threads` value.
//!
//! Expected shape: below capacity every variant tracks the offered
//! line. Past capacity the unbudgeted-retry rows (`budget=off`) fill
//! the queues with duplicate copies — throughput stays pinned at
//! capacity while *goodput* collapses, the metastable-failure
//! signature. Head-drop admission bounds the queueing delay of
//! everything that completes, so acknowledgements outrun retransmit
//! timers and the collapse flattens; weighted-fair admission (`wfq`)
//! additionally protects the light signalling class from bulk-RPC
//! retry floods.

use crate::harness::{average, grid, sums};
use crate::{f, Output, RunOpts};
use ldlp::{AdmissionPolicy, BatchPolicy, Discipline};
use simnet::closed::{Class, ClosedPopulation};
use simnet::stats::SimReport;
use simnet::ClosedConfig;
use smp::{DispatchPolicy, HandoffFlowControl, SmpConfig, SmpSim};

/// Server cores per cell (the figure 9 smoke contrast point).
pub const CORES: usize = 4;

/// Closed-loop client population. Divisible by [`Class::COUNT`] so
/// the three classes are equally populated; deep enough that the
/// retry traffic of waiting clients can push offered load well past
/// capacity even while the loop itself throttles first
/// transmissions.
pub const CLIENTS: u32 = 600;

/// Admission weights for the `wfq` rows: call signalling gets the
/// largest share, bulk RPC the smallest (order is
/// [`Class::ALL`] = call, DNS, RPC).
pub const WEIGHTS: [u32; Class::COUNT] = [4, 2, 1];

/// One (discipline, dispatch, flow-control) server build.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// CSV label (`conv` / `ldlp`).
    pub label: &'static str,
    pub discipline: Discipline,
    pub dispatch: DispatchPolicy,
    pub flow_control: HandoffFlowControl,
    /// Measured useful-completion capacity of this build at
    /// [`CORES`] cores (msg/s), read off its saturation plateau
    /// under this figure's configuration (shallow hand-off rings
    /// included). The load multiplier axis is relative to *this*
    /// build's capacity, so "2x" means the same relative overload
    /// for both variants.
    pub capacity_msg_s: f64,
}

/// The two server builds: conventional per-message processing with
/// RSS-style flow hashing, and the LDLP layer-affinity pipeline
/// with stall-the-producer hand-off flow control.
pub fn variants() -> [Variant; 2] {
    [
        Variant {
            label: "conv",
            discipline: Discipline::Conventional,
            dispatch: DispatchPolicy::FlowHash,
            flow_control: HandoffFlowControl::SizeToFree,
            capacity_msg_s: 14_000.0,
        },
        Variant {
            label: "ldlp",
            discipline: Discipline::Ldlp(BatchPolicy::DCacheFit),
            dispatch: DispatchPolicy::LayerAffinity,
            flow_control: HandoffFlowControl::StallProducer,
            capacity_msg_s: 20_000.0,
        },
    ]
}

/// One admission policy under test.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionVariant {
    /// CSV label (`tail` / `head` / `shed` / `wfq`).
    pub label: &'static str,
    pub policy: AdmissionPolicy,
}

/// The four admission policies: the paper's tail-drop, head-drop
/// (bounds the queueing delay of everything that completes — the
/// anti-metastability lever), interrupt-level shedding, and
/// per-class weighted-fair admission with [`WEIGHTS`].
pub fn admissions() -> [AdmissionVariant; 4] {
    [
        AdmissionVariant {
            label: "tail",
            policy: AdmissionPolicy::TailDrop,
        },
        AdmissionVariant {
            label: "head",
            policy: AdmissionPolicy::HeadDrop,
        },
        AdmissionVariant {
            label: "shed",
            policy: AdmissionPolicy::ShedOldest { down_to: 64 },
        },
        AdmissionVariant {
            label: "wfq",
            policy: AdmissionPolicy::WeightedFair,
        },
    ]
}

/// Offered-load multipliers relative to each variant's capacity
/// (smoke keeps one underload and one overload point).
pub fn loads(smoke: bool) -> &'static [f64] {
    if smoke {
        &[0.5, 2.0]
    } else {
        &[0.5, 1.0, 1.5, 2.0, 3.0]
    }
}

/// One grid cell: everything but the seed.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub load: f64,
    pub variant: Variant,
    pub admission: AdmissionVariant,
    /// `true`: the default bounded retry budget (clients abandon
    /// after `max_retries`); `false`: clients retransmit until
    /// acknowledged — the metastable configuration.
    pub budget_on: bool,
}

/// The full cell grid in CSV row order.
pub fn cells(smoke: bool) -> Vec<Cell> {
    let mut out = Vec::new();
    for &load in loads(smoke) {
        for variant in variants() {
            for admission in admissions() {
                for budget_on in [true, false] {
                    out.push(Cell {
                        load,
                        variant,
                        admission,
                        budget_on,
                    });
                }
            }
        }
    }
    out
}

/// Per-seed side metrics carried alongside the [`SimReport`]:
/// client-side retry accounting, per-class losses and useful
/// fractions, and producer backpressure.
const EXTRAS: usize = 12;

type Job = (SimReport, [f64; EXTRAS]);

fn run_cell(cell: &Cell, seed: u64, duration_s: f64) -> Job {
    let v = cell.variant;
    // A closed loop with N clients and mean think time Z offers
    // first transmissions at N / (Z + R); sizing Z = N / target
    // hits the target when responses are fast and lets retries —
    // not the think process — carry the load past capacity.
    let think_s = CLIENTS as f64 / (cell.load * v.capacity_msg_s);
    let mut pc = ClosedConfig::new(CLIENTS, think_s, duration_s, seed);
    pc.retry_budget_on = cell.budget_on;
    let mut pop = ClosedPopulation::new(&pc);
    let cfg = SmpConfig {
        duration_s,
        placement_seed: seed,
        admission: cell.admission.policy,
        flow_control: v.flow_control,
        // Shallow inter-stage rings: enough slack for steady-state
        // batching but small enough that an overloaded bottleneck
        // stage actually exerts backpressure on its producer
        // (visible as `bp_stall_cycles` in the `ldlp` rows).
        handoff_cap: 4,
        ..SmpConfig::new(CORES, v.dispatch, v.discipline)
    };
    let mut sim = SmpSim::new(&cfg);
    sim.run_closed(&mut pop, WEIGHTS);
    let out = sim.outcome(pop.channel_counters());
    assert!(
        out.report.conservation_holds(),
        "figure13 cell violates conservation: load={} variant={} admission={} budget={}",
        cell.load,
        v.label,
        cell.admission.label,
        cell.budget_on
    );
    let st = pop.stats();
    let frac = |useful: u64, requests: u64| {
        if requests == 0 {
            0.0
        } else {
            useful as f64 / requests as f64
        }
    };
    let loss = |class: Class| {
        let i = class.index();
        (out.shed_by_class[i] + out.drops_by_class[i]) as f64
    };
    let bp: u64 = out.per_core.iter().map(|c| c.bp_stall_cycles).sum();
    (
        out.report,
        [
            st.retry_amplification(),
            st.requests as f64,
            st.transmissions as f64,
            st.abandoned_requests as f64,
            loss(Class::Call),
            loss(Class::Dns),
            loss(Class::Rpc),
            frac(st.per_class_useful[Class::Call.index()], st.per_class_requests[Class::Call.index()]),
            frac(st.per_class_useful[Class::Rpc.index()], st.per_class_requests[Class::Rpc.index()]),
            out.per_core.iter().map(|c| c.bp_stalls).sum::<u64>() as f64,
            bp as f64,
            out.handoff_msgs as f64,
        ],
    )
}

/// One cell's seed-averaged measurements.
#[derive(Debug, Clone)]
pub struct Figure13Point {
    pub cell: Cell,
    pub report: SimReport,
    pub extras: [f64; EXTRAS],
}

/// The full sweep: every cell × `opts.seeds` placements, averaged
/// per cell in seed order.
pub fn sweep(opts: &RunOpts) -> Vec<Figure13Point> {
    let cells = cells(opts.smoke);
    let jobs = grid(opts, &cells, |cell, seed| run_cell(cell, seed, opts.duration_s));
    cells
        .into_iter()
        .zip(jobs)
        .map(|(cell, seeds)| Figure13Point {
            cell,
            report: average(seeds.iter().map(|job| job.0.clone())),
            extras: sums(seeds.iter().map(|job| job.1)).map(|a| a / opts.seeds as f64),
        })
        .collect()
}

/// CSV schema: one row per (load, variant, admission, budget).
/// `goodput` counts useful acknowledgements per second; `stale` is
/// work the server completed after the client stopped waiting;
/// `gave_up` is requests whose retry budget ran out client-side.
pub const FIGURE13_HEADER: [&str; 24] = [
    "load",
    "target_rate",
    "variant",
    "admission",
    "budget",
    "requests",
    "transmissions",
    "retry_amp",
    "goodput",
    "throughput",
    "mean_latency_us",
    "p99_latency_us",
    "completed",
    "stale",
    "gave_up",
    "drops",
    "shed",
    "loss_call",
    "loss_dns",
    "loss_rpc",
    "useful_frac_call",
    "useful_frac_rpc",
    "bp_stall_cycles",
    "handoff_msgs",
];

/// Rows for [`FIGURE13_HEADER`].
pub fn figure13_rows(points: &[Figure13Point]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                f(p.cell.load, 1),
                f(p.cell.load * p.cell.variant.capacity_msg_s, 0),
                p.cell.variant.label.to_string(),
                p.cell.admission.label.to_string(),
                (if p.cell.budget_on { "on" } else { "off" }).to_string(),
                f(p.extras[1], 1),
                f(p.extras[2], 1),
                f(p.extras[0], 3),
                f(p.report.goodput, 0),
                f(p.report.throughput, 0),
                f(p.report.mean_latency_us, 1),
                f(p.report.p99_latency_us, 1),
                p.report.completed.to_string(),
                p.report.abandoned.to_string(),
                f(p.extras[3], 1),
                p.report.drops.to_string(),
                p.report.shed.to_string(),
                f(p.extras[4], 1),
                f(p.extras[5], 1),
                f(p.extras[6], 1),
                f(p.extras[7], 3),
                f(p.extras[8], 3),
                f(p.extras[10], 0),
                f(p.extras[11], 1),
            ]
        })
        .collect()
}

pub fn run(opts: &RunOpts) -> Output {
    Output::table(
        format!(
            "Figure 13: closed-loop overload ({CLIENTS} retrying clients in 3 classes,\n\
             {CORES} cores, loads {:?} x capacity, {} cells x {} seeds x {}s, {} worker threads)",
            loads(opts.smoke),
            cells(opts.smoke).len(),
            opts.seeds,
            opts.duration_s,
            opts.effective_threads()
        ),
        &FIGURE13_HEADER,
        figure13_rows(&sweep(opts)),
        &[0, 2, 3, 4, 7, 8, 9, 11, 13, 22],
        "",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tiny_opts;

    #[test]
    fn smoke_grid_shape_and_conservation() {
        // run_cell asserts the conservation law per cell; this test
        // checks the grid shape and that the overload rows actually
        // overload (retries amplify, something is refused or shed).
        let points = sweep(&tiny_opts(1));
        assert_eq!(points.len(), 2 * 2 * 4 * 2, "loads x variants x admissions x budgets");
        let rows = figure13_rows(&points);
        assert_eq!(rows.len(), points.len());
        assert!(rows.iter().all(|r| r.len() == FIGURE13_HEADER.len()));
        let over: Vec<&Figure13Point> =
            points.iter().filter(|p| p.cell.load > 1.0).collect();
        assert!(
            over.iter().any(|p| p.extras[0] > 1.05),
            "overload rows should show retry amplification"
        );
        assert!(
            over.iter().any(|p| p.report.drops + p.report.shed > 0),
            "overload rows should refuse or shed something"
        );
    }

    #[test]
    fn underload_rows_are_healthy() {
        let points = sweep(&tiny_opts(1));
        for p in points.iter().filter(|p| p.cell.load < 1.0) {
            assert!(p.report.completed > 0, "underload cell completed nothing");
            assert!(
                p.extras[0] < 1.5,
                "underload should not amplify heavily: {} at {}/{}/{}",
                p.extras[0],
                p.cell.variant.label,
                p.cell.admission.label,
                p.cell.budget_on
            );
        }
    }
}
