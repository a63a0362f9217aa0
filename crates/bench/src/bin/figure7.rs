//! Figure 7: latency as a function of CPU clock speed, driven by
//! self-similar Ethernet-trace-like traffic (the Bellcore October 1989
//! trace in the paper; a calibrated Pareto ON/OFF aggregate here — see
//! DESIGN.md's substitution table).
//!
//! Expected shape (paper): latency rises as the clock falls; conventional
//! scheduling collapses below ~40 MHz while LDLP batches to maintain
//! throughput and degrades gracefully.

use bench::figures::{figure7_rows, FIGURE7_HEADER};
use bench::sweep::{clock_sweep_observed, traced_clock_runs};
use bench::{f, figure7_clocks, obs_io, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;

fn main() {
    let mut opts = RunOpts::from_args();
    // Trace-driven runs need more simulated time than the Poisson sweeps
    // for the burst structure to matter; default to 5 s if unchanged.
    if (opts.duration_s - RunOpts::default().duration_s).abs() < f64::EPSILON {
        opts.duration_s = 5.0;
    }
    println!(
        "Figure 7: latency vs. CPU clock (self-similar trace-like traffic,\n\
         ~1000 pkt/s offered, {} seeds x {}s each, {} worker threads)\n",
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );
    let base = MachineConfig::synthetic_benchmark();
    let clocks = figure7_clocks();
    let (points, recorder) = clock_sweep_observed(&opts, base, &clocks, opts.metrics);

    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            f(p.x, 0),
            f(p.conventional.mean_latency_us, 0),
            f(p.ldlp.mean_latency_us, 0),
            f(p.conventional.drops as f64, 0),
            f(p.ldlp.drops as f64, 0),
            f(p.ldlp.mean_batch, 1),
        ]);
    }
    let csv = figure7_rows(&points);
    print_table(
        &[
            "clock(MHz)",
            "conv lat(us)",
            "LDLP lat(us)",
            "conv drops",
            "LDLP drops",
            "LDLP batch",
        ],
        &rows,
    );
    write_csv(&opts.out_dir.join("figure7.csv"), &FIGURE7_HEADER, &csv);
    if let Some(rec) = recorder {
        obs_io::write_metrics(&opts.out_dir, &obs_io::run_meta("figure7", &opts), &rec);
    }
    if opts.trace {
        let mid = clocks[clocks.len() / 2];
        let traced = traced_clock_runs(&opts, base, mid);
        let parts: Vec<obs::TracePart> = traced
            .iter()
            .map(|(name, rec)| obs::TracePart {
                process: name,
                recorder: rec,
                units_per_us: mid, // timestamps are cycles of the traced clock
            })
            .collect();
        obs_io::write_trace(&opts.out_dir, &parts);
    }
}
