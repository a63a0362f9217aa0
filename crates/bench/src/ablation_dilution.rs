//! Ablation A2 (paper Section 5.4): cache dilution and dense layouts.
//!
//! The TCP/IP trace shows ~25% of instruction bytes fetched into the
//! cache never execute; Mosberger-style outlining packs the hot path
//! densely and recovers most of that. This ablation (1) measures dilution
//! in the instrumented trace and projects the dense layout's saving, and
//! (2) reruns the synthetic Figure 5/6 experiment with layers shrunk by
//! the measured dilution, quantifying what outlining buys each schedule.

use crate::harness::averages;
use crate::sweep::{poisson, run_for};
use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;
use layout::outline::{outline, HotColdFunction};
use ldlp::synth::stack_with;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use memtrace::dilution::code_dilution;
use netstack::footprint::{build_receive_ack_trace, FUNCTIONS};

pub const ABLATION_DILUTION_HEADER: [&str; 9] = [
    "rate",
    "conv_imiss_diluted",
    "conv_imiss_dense",
    "ldlp_imiss_diluted",
    "ldlp_imiss_dense",
    "conv_lat_diluted",
    "conv_lat_dense",
    "ldlp_lat_diluted",
    "ldlp_lat_dense",
];

pub fn run(opts: &RunOpts) -> Output {
    // Part 1: measured dilution in the TCP/IP trace and the outlining
    // projection over the Figure 1 function inventory.
    let trace = build_receive_ack_trace();
    let d = code_dilution(&trace, 32);
    let funcs: Vec<HotColdFunction> = FUNCTIONS
        .iter()
        .map(|s| HotColdFunction {
            size: s.size,
            hot_bytes: (s.touched_lines() * 32).min(s.size),
        })
        .collect();
    let rep = outline(&funcs, 32, 1.0 - d.dilution());

    // Part 2: what a dense layout does to each schedule. Layers shrink by
    // the measured dilution (6 KB -> ~4.5 KB of hot code per layer).
    let diluted = 6 * 1024u64;
    let dense = ((diluted as f64) * (1.0 - d.dilution())) as u64;
    let (conv, ldlp) = (Discipline::Conventional, Discipline::Ldlp(BatchPolicy::DCacheFit));
    let rates = [2000.0, 4000.0, 6000.0, 8000.0];
    let cells: Vec<(f64, u64, Discipline)> = rates
        .iter()
        .flat_map(|&rate| [conv, ldlp].map(|d| [(rate, diluted, d), (rate, dense, d)]))
        .flatten()
        .collect();
    let reports = averages(opts, &cells, |&(rate, code_bytes, discipline), seed| {
        let cfg = MachineConfig::synthetic_benchmark();
        let (m, layers) = stack_with(cfg, seed, 5, code_bytes, 256);
        let mut engine = StackEngine::new(m, layers, discipline);
        run_for(&mut engine, &poisson(rate, seed, opts.duration_s), opts.duration_s)
    });
    // Per rate: I-misses, then latency, of each (discipline, layout) cell.
    let rows = rates
        .iter()
        .zip(reports.chunks(4))
        .map(|(&rate, r)| {
            let mut row = vec![f(rate, 0)];
            row.extend(r.iter().map(|x| f(x.mean_imiss, 2)));
            row.extend(r.iter().map(|x| f(x.mean_latency_us, 2)));
            row
        })
        .collect();
    Output::table(
        format!(
            "Measured cache dilution in the TCP/IP receive & ack trace: {:.1}%\n\
             (paper estimate: ~25%). Executed {} bytes across {} lines;\n\
             a perfectly dense layout needs {} lines ({:.1}% fewer).\n\n\
             Outlining projection over the Figure 1 inventory: {} -> {} lines\n\
             ({:.1}% reduction), moving {} cold bytes out of line.\n\n\
             Synthetic rerun: 5 layers of {diluted} B (diluted) vs {dense} B (dense), {} seeds:",
            d.dilution() * 100.0,
            d.executed_bytes,
            d.lines,
            d.dense_lines,
            d.dense_reduction() * 100.0,
            rep.lines_before,
            rep.lines_after,
            rep.reduction() * 100.0,
            rep.cold_bytes_moved,
            opts.seeds
        ),
        &ABLATION_DILUTION_HEADER,
        rows,
        &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        "Dense layouts cut conventional misses by roughly the dilution; LDLP\n\
         already amortizes code fetches, so outlining and LDLP compose — each\n\
         removes a different multiplier on the same cost.",
    )
}
