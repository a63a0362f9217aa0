//! Figure 4's regime boundary, made quantitative: "for large-message
//! protocols, one is a good blocking factor, and so a conventional
//! protocol implementation performs well. It is small-message protocols
//! which benefit from LDLP."
//!
//! Sweeps the message size from 64 bytes to 16 KB at a fixed offered
//! *byte* rate, comparing all three disciplines. Small messages: ILP is
//! indistinguishable from conventional and LDLP wins. Large messages:
//! the message itself dominates the working set, the D-cache-fit batch
//! degenerates to 1, LDLP converges to conventional — and ILP takes over
//! as the winning technique (its data loops touch the message once
//! instead of once per layer).

use bench::figure4_regimes::{run_cell, BYTE_RATE, MSG_BYTES};
use bench::sweep::seed_average;
use bench::{f, print_table, write_csv, RunOpts};
use ldlp::{BatchPolicy, Discipline};
use simnet::stats::SimReport;

fn run(discipline: Discipline, msg_bytes: u32, opts: &RunOpts) -> SimReport {
    seed_average(opts, |seed| {
        run_cell(discipline, msg_bytes, seed, opts.duration_s).0
    })
}

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "Figure 4 regimes: message size vs. winning discipline at a fixed\n\
         {:.1} MB/s offered load ({} seeds x {}s)\n",
        BYTE_RATE / 1e6,
        opts.seeds,
        opts.duration_s
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for msg in MSG_BYTES {
        let conv = run(Discipline::Conventional, msg, &opts);
        let ilp = run(Discipline::Ilp, msg, &opts);
        let ldlp = run(Discipline::Ldlp(BatchPolicy::DCacheFit), msg, &opts);
        let total =
            |r: &SimReport| r.mean_imiss + r.mean_dmiss;
        let winner = {
            let c = conv.mean_latency_us;
            let i = ilp.mean_latency_us;
            let l = ldlp.mean_latency_us;
            if l <= i && l < c * 0.95 {
                "LDLP"
            } else if i < c * 0.95 && i < l {
                "ILP"
            } else {
                "tie"
            }
        };
        rows.push(vec![
            msg.to_string(),
            f(total(&conv), 0),
            f(total(&ilp), 0),
            f(total(&ldlp), 0),
            f(conv.mean_latency_us, 0),
            f(ilp.mean_latency_us, 0),
            f(ldlp.mean_latency_us, 0),
            f(ldlp.mean_batch, 1),
            winner.to_string(),
        ]);
        csv.push(vec![
            msg.to_string(),
            f(conv.mean_imiss, 2),
            f(conv.mean_dmiss, 2),
            f(ilp.mean_imiss, 2),
            f(ilp.mean_dmiss, 2),
            f(ldlp.mean_imiss, 2),
            f(ldlp.mean_dmiss, 2),
            f(conv.mean_latency_us, 2),
            f(ilp.mean_latency_us, 2),
            f(ldlp.mean_latency_us, 2),
            f(ldlp.mean_batch, 3),
        ]);
    }
    print_table(
        &[
            "msg(B)",
            "conv misses",
            "ILP misses",
            "LDLP misses",
            "conv lat",
            "ILP lat",
            "LDLP lat",
            "batch",
            "winner",
        ],
        &rows,
    );
    println!(
        "\nThe boundary sits where message size crosses the per-layer code\n\
         footprint (Figure 4): below it LDLP batches and wins; above it the\n\
         batch collapses to 1 and ILP's single data pass takes over. The\n\
         paper's advice — decide which regime your protocol is in before\n\
         picking a technique — drops out of one table."
    );
    write_csv(
        &opts.out_dir.join("figure4_regimes.csv"),
        &[
            "msg_bytes",
            "conv_imiss",
            "conv_dmiss",
            "ilp_imiss",
            "ilp_dmiss",
            "ldlp_imiss",
            "ldlp_dmiss",
            "conv_lat_us",
            "ilp_lat_us",
            "ldlp_lat_us",
            "ldlp_batch",
        ],
        &csv,
    );
}
