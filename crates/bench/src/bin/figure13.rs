//! Figure 13: closed-loop overload — goodput, latency, and retry
//! amplification vs. offered load from 0.5x to 3x capacity.
//!
//! Open-loop figures hold the arrival process fixed; here the clients
//! close the loop. A client that times out retransmits, so a slow
//! server recruits extra load exactly when it can least afford it.
//! Expected shape: below capacity every variant tracks the offered
//! line. Past capacity the unbudgeted-retry rows (`budget=off`) fill
//! the queues with duplicate copies — throughput stays pinned at
//! capacity while *goodput* collapses, the metastable-failure
//! signature. Head-drop admission bounds the queueing delay of
//! everything that completes, so acknowledgements outrun retransmit
//! timers and the collapse flattens; weighted-fair admission (`wfq`)
//! additionally protects the light signalling class from bulk-RPC
//! retry floods. The `ldlp` rows run the layer-affinity pipeline under
//! stall-the-producer hand-off flow control, so backpressure is real
//! (charged `bp_stall_cycles`), not clairvoyant batch sizing.
//!
//! Writes `results/figure13.csv` (or `results/figure13_smoke.csv`
//! under `--smoke`, compared byte-for-byte against a committed golden
//! file in CI). Byte-identical for any `--threads` value.

use bench::figure13::{cells, loads, sweep, FIGURE13_HEADER};
use bench::{print_table, write_csv, RunOpts};

fn main() {
    let mut opts = RunOpts::from_args();
    if opts.seeds == RunOpts::default().seeds {
        opts.seeds = if opts.smoke { 2 } else { 10 };
    }
    println!(
        "Figure 13: closed-loop overload ({} retrying clients in 3 classes,\n\
         {} cores, loads {:?} x capacity, {} cells x {} seeds x {}s, {} worker threads)\n",
        bench::figure13::CLIENTS,
        bench::figure13::CORES,
        loads(opts.smoke),
        cells(opts.smoke).len(),
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );

    let points = sweep(&opts);
    let rows = bench::figure13::figure13_rows(&points);

    // The printed table is the headline subset; the CSV has every column.
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r[0].clone(),  // load
                r[2].clone(),  // variant
                r[3].clone(),  // admission
                r[4].clone(),  // budget
                r[7].clone(),  // retry_amp
                r[8].clone(),  // goodput
                r[9].clone(),  // throughput
                r[11].clone(), // p99_latency_us
                r[13].clone(), // stale
                r[22].clone(), // bp_stall_cycles
            ]
        })
        .collect();
    print_table(
        &[
            "load",
            "variant",
            "adm",
            "budget",
            "retry_amp",
            "goodput",
            "thruput",
            "p99(us)",
            "stale",
            "bp_stall",
        ],
        &table,
    );

    let name = if opts.smoke {
        "figure13_smoke.csv"
    } else {
        "figure13.csv"
    };
    write_csv(&opts.out_dir.join(name), &FIGURE13_HEADER, &rows);
}
