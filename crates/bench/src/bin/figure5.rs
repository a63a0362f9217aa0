//! Figure 5: instruction- and data-cache misses per message as a function
//! of arrival rate, Poisson 552-byte messages, conventional vs. LDLP.
//!
//! Expected shape (paper): conventional sits flat near 1000 misses/msg;
//! LDLP's instruction misses fall steeply as batching engages, its data
//! misses rise slightly, and the curve flattens beyond ~8500 msg/s where
//! the D-cache-fit batch cap (14 messages) binds.

use bench::figures::{figure5_rows, FIGURE5_HEADER};
use bench::sweep::{poisson_sweep_observed, traced_poisson_runs};
use bench::{f, figure5_rates, obs_io, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "Figure 5: cache misses per message vs. arrival rate\n\
         (Poisson, 552-byte messages, {} placements x {}s each,\n\
         {} worker threads)\n",
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );
    let cfg = MachineConfig::synthetic_benchmark();
    let rates = figure5_rates();
    let (points, recorder) = poisson_sweep_observed(&opts, cfg, &rates, opts.metrics);

    let mut rows = Vec::new();
    for p in &points {
        let ilp = p.ilp.as_ref().expect("poisson sweep provides ILP");
        rows.push(vec![
            f(p.x, 0),
            f(p.conventional.mean_imiss, 0),
            f(p.conventional.mean_dmiss, 0),
            f(ilp.mean_imiss, 0),
            f(ilp.mean_dmiss, 0),
            f(p.ldlp.mean_imiss, 0),
            f(p.ldlp.mean_dmiss, 0),
            f(p.ldlp.mean_batch, 1),
        ]);
    }
    let csv = figure5_rows(&points);
    print_table(
        &[
            "rate(msg/s)",
            "conv I",
            "conv D",
            "ILP I",
            "ILP D",
            "LDLP I",
            "LDLP D",
            "LDLP batch",
        ],
        &rows,
    );
    println!(
        "\nILP's instruction misses match conventional's — integrating the\n\
         data loops cannot help when the code, not the data, is the traffic\n\
         (the paper's Figure 2/4 argument for small messages)."
    );
    write_csv(&opts.out_dir.join("figure5.csv"), &FIGURE5_HEADER, &csv);
    if let Some(rec) = recorder {
        obs_io::write_metrics(&opts.out_dir, &obs_io::run_meta("figure5", &opts), &rec);
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
