//! Figure 14: several stacks interleaved — per-class latency, I-cache
//! cost, and SLO attainment of a mixed multi-protocol service.
//!
//! One deterministic stream interleaves five message classes (call
//! signalling, service RPC, media control, DNS, CBOR agent messaging),
//! each with its own handler footprint, session table, heavy-tailed
//! size band, and latency SLO. Expected shape: on one core every
//! variant saturates and sheds; as cores grow, the conventional rows
//! keep paying the cold-cache tax of five handler footprints evicting
//! each other at every class boundary, while LDLP batching amortises
//! it and layer-affinity placement keeps stage code resident — the
//! tight-SLO media-control class is the first to notice the
//! difference, the loose-SLO agent class the last.
//!
//! Writes `results/figure14.csv` (or `results/figure14_smoke.csv`
//! under `--smoke`, compared byte-for-byte against a committed golden
//! file in CI). Byte-identical for any `--threads` value.

use bench::figure14::{core_counts, sweep_observed, FIGURE14_HEADER, FLOWS, RATE_MSG_S};
use bench::{obs_io, print_table, write_csv, RunOpts};

fn main() {
    let mut opts = RunOpts::from_args();
    if opts.seeds == RunOpts::default().seeds {
        opts.seeds = if opts.smoke { 2 } else { 10 };
    }
    println!(
        "Figure 14: mixed multi-protocol service ({} msg/s across 5 classes, {} flows,\n\
         cores {:?}, 3 variants x {} streams x {}s, {} worker threads)\n",
        RATE_MSG_S,
        FLOWS,
        core_counts(opts.smoke),
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );

    let (points, recorder) = sweep_observed(&opts, opts.metrics);
    let rows = bench::figure14::figure14_rows(&points);

    // The printed table is the headline subset; the CSV has every column.
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r[0].clone(),  // cores
                r[1].clone(),  // variant
                r[2].clone(),  // class
                r[3].clone(),  // offered
                r[4].clone(),  // completed
                r[9].clone(),  // p99_latency_us
                r[10].clone(), // imiss_per_msg
                r[13].clone(), // slo_attainment
                r[14].clone(), // slo_met
            ]
        })
        .collect();
    print_table(
        &[
            "cores",
            "variant",
            "class",
            "offered",
            "completed",
            "p99(us)",
            "imiss/msg",
            "slo_att",
            "met",
        ],
        &table,
    );

    let name = if opts.smoke {
        "figure14_smoke.csv"
    } else {
        "figure14.csv"
    };
    write_csv(&opts.out_dir.join(name), &FIGURE14_HEADER, &rows);
    if let Some(rec) = recorder {
        obs_io::write_metrics(&opts.out_dir, &obs_io::run_meta("figure14", &opts), &rec);
    }
}
