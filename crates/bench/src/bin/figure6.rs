//! Figure 6: latency as a function of arrival rate, Poisson traffic.
//!
//! Expected shape (paper): both schedules sit near the single-message
//! service time (~300 us) at light load; conventional saturates near
//! 3500 msg/s and its latency climbs toward the 500-packet buffer bound
//! (~100 ms, with drops); LDLP keeps latency low to ~9500 msg/s because
//! batching raises throughput and cuts queueing.

use bench::figures::{figure6_rows, FIGURE6_HEADER};
use bench::sweep::{poisson_sweep_observed, traced_poisson_runs};
use bench::{f, figure5_rates, obs_io, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "Figure 6: latency vs. arrival rate (Poisson, 552-byte messages,\n\
         {} placements x {}s each, 500-packet buffer, {} worker threads)\n",
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );
    let cfg = MachineConfig::synthetic_benchmark();
    let rates = figure5_rates();
    let (points, recorder) = poisson_sweep_observed(&opts, cfg, &rates, opts.metrics);

    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            f(p.x, 0),
            f(p.conventional.mean_latency_us, 0),
            f(p.ldlp.mean_latency_us, 0),
            f(p.conventional.drops as f64, 0),
            f(p.ldlp.drops as f64, 0),
            f(p.conventional.throughput, 0),
            f(p.ldlp.throughput, 0),
        ]);
    }
    let csv = figure6_rows(&points);
    print_table(
        &[
            "rate(msg/s)",
            "conv lat(us)",
            "LDLP lat(us)",
            "conv drops",
            "LDLP drops",
            "conv tput",
            "LDLP tput",
        ],
        &rows,
    );
    write_csv(&opts.out_dir.join("figure6.csv"), &FIGURE6_HEADER, &csv);
    if let Some(rec) = recorder {
        obs_io::write_metrics(&opts.out_dir, &obs_io::run_meta("figure6", &opts), &rec);
    }
    if opts.trace {
        let mid = rates[rates.len() / 2];
        let traced = traced_poisson_runs(&opts, cfg, mid);
        let parts: Vec<obs::TracePart> = traced
            .iter()
            .map(|(name, rec)| obs::TracePart {
                process: name,
                recorder: rec,
                units_per_us: cfg.clock_mhz, // timestamps are CPU cycles
            })
            .collect();
        obs_io::write_trace(&opts.out_dir, &parts);
    }
}
