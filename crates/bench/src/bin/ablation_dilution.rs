//! Ablation A2 (paper Section 5.4): cache dilution and dense layouts.
//!
//! The TCP/IP trace shows ~25% of instruction bytes fetched into the
//! cache never execute; Mosberger-style outlining packs the hot path
//! densely and recovers most of that. This ablation (1) measures dilution
//! in the instrumented trace and projects the dense layout's saving, and
//! (2) reruns the synthetic Figure 5/6 experiment with layers shrunk by
//! the measured dilution, quantifying what outlining buys each schedule.

use bench::sweep::seed_average;
use bench::{f, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;
use layout::outline::{outline, HotColdFunction};
use ldlp::synth::stack_with;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use memtrace::dilution::code_dilution;
use netstack::footprint::{build_receive_ack_trace, FUNCTIONS};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

fn run(code_bytes: u64, discipline: Discipline, rate: f64, opts: &RunOpts) -> SimReport {
    seed_average(opts, |seed| {
        let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s);
        let (m, layers) = stack_with(
            MachineConfig::synthetic_benchmark(),
            seed,
            5,
            code_bytes,
            256,
        );
        let mut engine = StackEngine::new(m, layers, discipline);
        let cfg = SimConfig {
            duration_s: opts.duration_s,
            ..SimConfig::default()
        };
        run_sim(&mut engine, &arrivals, &cfg)
    })
}

fn main() {
    let opts = RunOpts::from_args();

    // Part 1: measured dilution in the TCP/IP trace and the outlining
    // projection over the Figure 1 function inventory.
    let trace = build_receive_ack_trace();
    let d = code_dilution(&trace, 32);
    println!(
        "Measured cache dilution in the TCP/IP receive & ack trace: {:.1}%\n\
         (paper estimate: ~25%). Executed {} bytes across {} lines;\n\
         a perfectly dense layout needs {} lines ({:.1}% fewer).\n",
        d.dilution() * 100.0,
        d.executed_bytes,
        d.lines,
        d.dense_lines,
        d.dense_reduction() * 100.0
    );
    let funcs: Vec<HotColdFunction> = FUNCTIONS
        .iter()
        .map(|s| HotColdFunction {
            size: s.size,
            hot_bytes: (s.touched_lines() * 32).min(s.size),
        })
        .collect();
    let rep = outline(&funcs, 32, 1.0 - d.dilution());
    println!(
        "Outlining projection over the Figure 1 inventory: {} -> {} lines\n\
         ({:.1}% reduction), moving {} cold bytes out of line.\n",
        rep.lines_before,
        rep.lines_after,
        rep.reduction() * 100.0,
        rep.cold_bytes_moved
    );

    // Part 2: what a dense layout does to each schedule. Layers shrink by
    // the measured dilution (6 KB -> ~4.5 KB of hot code per layer).
    let diluted = 6 * 1024u64;
    let dense = ((diluted as f64) * (1.0 - d.dilution())) as u64;
    println!(
        "Synthetic rerun: 5 layers of {diluted} B (diluted) vs {dense} B (dense), {} seeds:\n",
        opts.seeds
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for rate in [2000.0, 4000.0, 6000.0, 8000.0] {
        let conv_dil = run(diluted, Discipline::Conventional, rate, &opts);
        let conv_den = run(dense, Discipline::Conventional, rate, &opts);
        let ldlp_dil = run(diluted, Discipline::Ldlp(BatchPolicy::DCacheFit), rate, &opts);
        let ldlp_den = run(dense, Discipline::Ldlp(BatchPolicy::DCacheFit), rate, &opts);
        rows.push(vec![
            f(rate, 0),
            f(conv_dil.mean_imiss, 0),
            f(conv_den.mean_imiss, 0),
            f(ldlp_dil.mean_imiss, 0),
            f(ldlp_den.mean_imiss, 0),
            f(conv_dil.mean_latency_us, 0),
            f(conv_den.mean_latency_us, 0),
        ]);
        csv.push(vec![
            f(rate, 0),
            f(conv_dil.mean_imiss, 2),
            f(conv_den.mean_imiss, 2),
            f(ldlp_dil.mean_imiss, 2),
            f(ldlp_den.mean_imiss, 2),
            f(conv_dil.mean_latency_us, 2),
            f(conv_den.mean_latency_us, 2),
            f(ldlp_dil.mean_latency_us, 2),
            f(ldlp_den.mean_latency_us, 2),
        ]);
    }
    print_table(
        &[
            "rate",
            "conv I dil",
            "conv I dense",
            "LDLP I dil",
            "LDLP I dense",
            "conv lat dil",
            "conv lat dense",
        ],
        &rows,
    );
    println!(
        "\nDense layouts cut conventional misses by roughly the dilution; LDLP\n\
         already amortizes code fetches, so outlining and LDLP compose — each\n\
         removes a different multiplier on the same cost."
    );
    write_csv(
        &opts.out_dir.join("ablation_dilution.csv"),
        &[
            "rate",
            "conv_imiss_diluted",
            "conv_imiss_dense",
            "ldlp_imiss_diluted",
            "ldlp_imiss_dense",
            "conv_lat_diluted",
            "conv_lat_dense",
            "ldlp_lat_diluted",
            "ldlp_lat_dense",
        ],
        &csv,
    );
}
