//! Figure 9: multi-core protocol processing — I-misses per message and
//! latency vs. arrival rate, core count, and dispatch policy.
//!
//! Expected shape: with the whole five-layer stack on every core
//! (hash / round-robin dispatch), each private 8 KB I-cache cycles
//! ~30 KB of layer code and the paper's single-core thrashing recurs on
//! N cores at N× the rate; LDLP batching amortises but cannot eliminate
//! it. Layer-affinity dispatch pins 1–2 layers per core so stage code
//! *stays resident*, collapsing I-misses per message — at the price of
//! hand-off queueing and a bottleneck stage that saturates before a
//! round-robin fleet does. The crossover is the figure's headline.
//!
//! Writes `results/figure9.csv` (or `results/figure9_smoke.csv` under
//! `--smoke`, compared byte-for-byte against a committed golden file in
//! CI). Byte-identical for any `--threads` value.

use bench::figure9::{core_counts, rates, sweep_observed, traced_runs, FIGURE9_HEADER};
use bench::{obs_io, print_table, write_csv, RunOpts};

fn main() {
    let mut opts = RunOpts::from_args();
    if opts.seeds == RunOpts::default().seeds {
        opts.seeds = if opts.smoke { 2 } else { 10 };
    }
    println!(
        "Figure 9: multi-core sweep (Poisson, 552-byte messages, {} flows,\n\
         cores {:?}, {} rates x 6 variants x {} placements x {}s, {} worker threads)\n",
        bench::figure9::FLOWS,
        core_counts(opts.smoke),
        rates(opts.smoke).len(),
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );

    let (points, recorder) = sweep_observed(&opts, opts.metrics);
    let rows = bench::figure9::figure9_rows(&points);

    // The printed table is the headline subset; the CSV has every column.
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r[0].clone(),  // rate
                r[1].clone(),  // cores
                r[2].clone(),  // discipline
                r[3].clone(),  // dispatch
                r[4].clone(),  // imiss_per_msg
                r[7].clone(),  // p99_latency_us
                r[9].clone(),  // goodput
                r[10].clone(), // drops
                r[16].clone(), // handoff_msgs
            ]
        })
        .collect();
    print_table(
        &[
            "rate(msg/s)",
            "cores",
            "disc",
            "disp",
            "imiss/msg",
            "p99(us)",
            "goodput",
            "drops",
            "handoffs",
        ],
        &table,
    );

    let name = if opts.smoke {
        "figure9_smoke.csv"
    } else {
        "figure9.csv"
    };
    write_csv(&opts.out_dir.join(name), &FIGURE9_HEADER, &rows);
    if let Some(rec) = recorder {
        obs_io::write_metrics(&opts.out_dir, &obs_io::run_meta("figure9", &opts), &rec);
    }
    if opts.trace {
        // One heavy-load cell at four cores: the contrast the figure is
        // about, with one track per (variant, core).
        let rate = rates(opts.smoke)[rates(opts.smoke).len() - 1];
        let traced = traced_runs(&opts, rate, 4);
        let clock_mhz = smp::SmpConfig::new(
            4,
            smp::DispatchPolicy::FlowHash,
            ldlp::Discipline::Conventional,
        )
        .machine
        .clock_mhz;
        let parts: Vec<obs::TracePart> = traced
            .iter()
            .map(|(name, rec)| obs::TracePart {
                process: name,
                recorder: rec,
                units_per_us: clock_mhz, // timestamps are CPU cycles
            })
            .collect();
        obs_io::write_trace(&opts.out_dir, &parts);
    }
}
