//! Figure 10: million-flow data working sets — D-misses per message and
//! tail latency vs. concurrent-flow population and lookup scheme.
//!
//! Expected shape: at 10^2 flows every scheme's working set fits the
//! D-cache and lookups are nearly free; by 10^5–10^6 flows the
//! open-addressing table's probe footprint dwarfs the cache, every
//! cache-missing lookup pays cold-line reads, and D-misses per message
//! climb until they erode LDLP's instruction-cache win — the paper's
//! small-message argument inverted by data-side scale. The lookup-cache
//! columns reproduce Jain's DEC-TR-592 ordering (LRU > FIFO > random
//! hit rate, deeper caches hitting more) *and* its cost side: a deep
//! linearly-scanned cache pays its own footprint on every miss, so
//! under heavy-tailed Zipf popularity the hit-rate win is bought with
//! scan D-misses. Packet trains (self-similar locality) make even a
//! shallow cache effective.
//!
//! Writes `results/figure10.csv` (or `results/figure10_smoke.csv` under
//! `--smoke`, compared byte-for-byte against a committed golden file in
//! CI). Byte-identical for any `--threads` value.

use bench::figure10::{figure10_rows, populations, sweep, variants, FIGURE10_HEADER, RATE};
use bench::{print_table, write_csv, RunOpts};

fn main() {
    let mut opts = RunOpts::from_args();
    if opts.seeds == RunOpts::default().seeds {
        opts.seeds = if opts.smoke { 2 } else { 3 };
    }
    println!(
        "Figure 10: flow-population sweep (Poisson {} msg/s, 552-byte messages,\n\
         populations {:?}, 2 disciplines x {} lookup variants x {} placements x {}s,\n\
         {} worker threads)\n",
        RATE,
        populations(opts.smoke),
        variants(opts.smoke).len(),
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );

    let points = sweep(&opts);
    let rows = figure10_rows(&points);

    // The printed table is the headline subset; the CSV has every column.
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r[0].clone(),  // population
                r[1].clone(),  // discipline
                r[2].clone(),  // scheme
                r[3].clone(),  // cache_slots
                r[4].clone(),  // popmodel
                r[6].clone(),  // dmiss_per_msg
                r[8].clone(),  // p99_latency_us
                r[12].clone(), // cache_hit_rate
                r[13].clone(), // mean_probes
            ]
        })
        .collect();
    print_table(
        &[
            "flows",
            "disc",
            "scheme",
            "slots",
            "popmodel",
            "dmiss/msg",
            "p99(us)",
            "hit_rate",
            "probes",
        ],
        &table,
    );

    let name = if opts.smoke {
        "figure10_smoke.csv"
    } else {
        "figure10.csv"
    };
    write_csv(&opts.out_dir.join(name), &FIGURE10_HEADER, &rows);
}
