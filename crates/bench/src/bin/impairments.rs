//! The saturated-path impairment sweep: LDLP vs. conventional goodput
//! and latency across loss rates 0–10% (independent and bursty) and
//! reorder depths, with SSCOP-style retransmission recovering the
//! signalling workload, and a wire-level pass driving real corrupted
//! frames through netstack's checksum-reject, reassembly-timeout, and
//! TCP out-of-order paths.
//!
//! Writes `results/impairments.csv` (or `results/impairments_smoke.csv`
//! under `--smoke`, the reduced CI configuration that is compared
//! byte-for-byte against a committed golden file). The conservation law
//! `offered == completed + rejected + drops + shed + in_flight` is
//! asserted in every cell of the sweep.

use bench::impairments::{
    grid, impairment_sweep, impairments_rows, observed_cell, HOLD_S, IMPAIRMENTS_HEADER,
    OBSERVED_CELL, PAIRS_PER_S,
};
use bench::{f, obs_io, print_table, write_csv, RunOpts};

fn main() {
    let mut opts = RunOpts::from_args();
    if opts.seeds == RunOpts::default().seeds {
        opts.seeds = if opts.smoke { 1 } else { 5 };
    }
    println!(
        "Impairment sweep: {} setup/teardown pairs/s ({} s mean hold) across\n\
         a lossy channel with retransmission, conventional vs. LDLP, over\n\
         {} grid cells x {} seeds.\n",
        f(PAIRS_PER_S, 0),
        HOLD_S,
        grid(opts.smoke).len(),
        opts.seeds
    );

    let points = impairment_sweep(&opts);
    let rows = impairments_rows(&points);

    // The printed table is the headline subset; the CSV has every column.
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r[0].clone(),  // loss_pct
                r[1].clone(),  // burst
                r[2].clone(),  // reorder_depth
                r[5].clone(),  // conv_goodput
                r[6].clone(),  // ldlp_goodput
                r[7].clone(),  // conv_latency_us
                r[8].clone(),  // ldlp_latency_us
                r[13].clone(), // retransmits
                r[14].clone(), // abandoned
            ]
        })
        .collect();
    print_table(
        &[
            "loss%",
            "burst",
            "depth",
            "conv goodput",
            "LDLP goodput",
            "conv lat(us)",
            "LDLP lat(us)",
            "retransmits",
            "abandoned",
        ],
        &table,
    );
    println!(
        "\nGoodput counts only messages that completed the full stack —\n\
         corrupted deliveries cost cycles but are rejected at the AAL5 CRC.\n\
         Conservation (offered == completed + rejected + drops + shed +\n\
         in_flight) held in every cell."
    );

    let name = if opts.smoke {
        "impairments_smoke.csv"
    } else {
        "impairments.csv"
    };
    write_csv(&opts.out_dir.join(name), &IMPAIRMENTS_HEADER, &rows);

    if opts.trace || opts.metrics {
        // One observed rerun of the representative cell: the signalling
        // workload (cycle timestamps) and the wire exchange (millisecond
        // timestamps) each get a recorder.
        let (mut sim_rec, wire_rec) = observed_cell(opts.duration_s, opts.trace);
        if opts.trace {
            let clock_mhz = signaling::workload::goal_machine().clock_mhz;
            let parts = [
                obs::TracePart {
                    process: "signaling",
                    recorder: &sim_rec,
                    units_per_us: clock_mhz,
                },
                obs::TracePart {
                    process: "wire",
                    recorder: &wire_rec,
                    units_per_us: 0.001, // millisecond-stamped iface events
                },
            ];
            obs_io::write_trace(&opts.out_dir, &parts);
        }
        if opts.metrics {
            // The two recorders use disjoint name prefixes, so a merge
            // yields one metrics document covering both levels.
            sim_rec.merge(&wire_rec);
            let mut meta = obs_io::run_meta("impairments", &opts);
            meta.push(("observed_loss_pct", f(OBSERVED_CELL.loss_pct, 1)));
            meta.push((
                "observed_reorder_depth",
                OBSERVED_CELL.reorder_depth.to_string(),
            ));
            obs_io::write_metrics(&opts.out_dir, &meta, &sim_rec);
        }
    }
}
