//! Experiment G1: the paper's Section 1 goal — "support 10000 pairs of
//! setup/teardown requests per second with processing latency of 100
//! microseconds for setup requests, using just a commodity workstation
//! processor."
//!
//! Runs the four-layer Q.93B-shaped signalling stack under paired
//! SETUP/RELEASE load across call rates, conventional vs. LDLP, on a
//! 500 MHz 1996 workstation model.

use crate::harness::averages;
use crate::sweep::run_for;
use crate::{f, Output, RunOpts};
use ldlp::{BatchPolicy, Discipline, StackEngine};
use signaling::workload::{call_arrivals, goal_machine, signaling_stack, SIGNALING_LAYERS};
use simnet::stats::SimReport;

pub const SIGNALING_GOAL_HEADER: [&str; 11] = [
    "pairs_per_s",
    "conv_latency_us",
    "ldlp_latency_us",
    "conv_p99_us",
    "ldlp_p99_us",
    "conv_processing_us",
    "ldlp_processing_us",
    "conv_drops",
    "ldlp_drops",
    "conv_throughput",
    "ldlp_throughput",
];

pub fn run(opts: &RunOpts) -> Output {
    let clock = goal_machine().clock_mhz;
    let instr: u64 = SIGNALING_LAYERS.iter().map(|l| l.3).sum();
    let disciplines = [Discipline::Conventional, Discipline::Ldlp(BatchPolicy::DCacheFit)];
    let pairs = [2_000.0, 5_000.0, 8_000.0, 10_000.0, 12_000.0, 15_000.0];
    let cells: Vec<(f64, Discipline)> =
        pairs.iter().flat_map(|&p| disciplines.map(|d| (p, d))).collect();
    let reports = averages(opts, &cells, |&(pairs_per_s, discipline), seed| {
        let arrivals = call_arrivals(pairs_per_s, 0.02, opts.duration_s, seed);
        let (m, layers) = signaling_stack(goal_machine(), seed);
        run_for(&mut StackEngine::new(m, layers, discipline), &arrivals, opts.duration_s)
    });
    let proc_us = |r: &SimReport| {
        (instr as f64
            + r.mean_imiss * goal_machine().read_miss_penalty as f64
            + r.mean_dmiss * goal_machine().read_miss_penalty as f64)
            / clock
    };
    let rows = pairs
        .iter()
        .zip(reports.chunks(2))
        .map(|(&pairs, r)| {
            // Each metric of conventional, then of LDLP.
            let mut row = vec![f(pairs, 0)];
            row.extend(r.iter().map(|x| f(x.mean_latency_us, 2)));
            row.extend(r.iter().map(|x| f(x.p99_latency_us, 2)));
            row.extend(r.iter().map(|x| f(proc_us(x), 2)));
            row.extend(r.iter().map(|x| x.drops.to_string()));
            row.extend(r.iter().map(|x| f(x.throughput, 1)));
            row
        })
        .collect();
    Output::table(
        format!(
            "Signalling goal (paper Section 1): 10,000 setup/teardown pairs/s at\n\
             <= 100 us setup processing latency, on a {} MHz workstation.\n\
             Stack: {} layers, {} KB total code, ~{} instructions/message.",
            clock,
            SIGNALING_LAYERS.len(),
            SIGNALING_LAYERS.iter().map(|l| l.1).sum::<u64>() / 1024,
            instr
        ),
        &SIGNALING_GOAL_HEADER,
        rows,
        &[0, 1, 2, 5, 6, 7, 8],
        "'latency' is end-to-end (queueing included); 'processing' is the\n\
         amortized per-message processing cost the paper's 100 us goal refers\n\
         to. LDLP meets the goal at 10k pairs/s; conventional scheduling sheds\n\
         load.",
    )
}
