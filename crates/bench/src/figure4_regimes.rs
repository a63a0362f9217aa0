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

use crate::harness::averages;
use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

/// Offered load in bytes/second — 552-byte messages at 5000 msg/s.
pub const BYTE_RATE: f64 = 552.0 * 5000.0;

/// The message sizes swept, bytes.
pub const MSG_BYTES: [u32; 6] = [64, 256, 552, 1024, 4096, 16384];

/// One (discipline, message size, seed) run. The engine is returned
/// with the report so its machine's counters can be read.
pub fn run_cell(
    discipline: Discipline,
    msg_bytes: u32,
    seed: u64,
    duration_s: f64,
) -> (SimReport, StackEngine) {
    let rate = (BYTE_RATE / msg_bytes as f64).min(20_000.0);
    let arrivals = PoissonSource::new(rate, msg_bytes, seed).take_until(duration_s);
    let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
    let mut engine = StackEngine::new(m, layers, discipline);
    let cfg = SimConfig {
        duration_s,
        pool_bufs: 32,
        pool_buf_bytes: 17 * 1024,
        pool_seed: seed,
    };
    (run_sim(&mut engine, &arrivals, &cfg), engine)
}

pub const FIGURE4_REGIMES_HEADER: [&str; 11] = [
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
];

pub fn run(opts: &RunOpts) -> Output {
    let disciplines = [
        Discipline::Conventional,
        Discipline::Ilp,
        Discipline::Ldlp(BatchPolicy::DCacheFit),
    ];
    let cells: Vec<(u32, Discipline)> = MSG_BYTES
        .iter()
        .flat_map(|&msg| disciplines.map(|d| (msg, d)))
        .collect();
    let reports = averages(opts, &cells, |&(msg, d), seed| {
        run_cell(d, msg, seed, opts.duration_s).0
    });
    let mut rows = Vec::new();
    let mut winners = Vec::new();
    for (&msg, r) in MSG_BYTES.iter().zip(reports.chunks(3)) {
        let [c, i, l] = [0, 1, 2].map(|k| r[k].mean_latency_us);
        let winner = if l <= i && l < c * 0.95 {
            "LDLP"
        } else if i < c * 0.95 && i < l {
            "ILP"
        } else {
            "tie"
        };
        winners.push(format!("{msg} B: {winner}"));
        // Misses of conv, ILP and LDLP, then their latencies, then LDLP's batch.
        let mut row = vec![msg.to_string()];
        for x in r {
            row.extend([f(x.mean_imiss, 2), f(x.mean_dmiss, 2)]);
        }
        row.extend([f(c, 2), f(i, 2), f(l, 2), f(r[2].mean_batch, 3)]);
        rows.push(row);
    }
    let note = format!(
        "Lowest latency (a 5% margin, else a tie): {}.\n\n\
         The boundary sits where message size crosses the per-layer code\n\
         footprint (Figure 4): below it LDLP batches and wins; above it the\n\
         batch collapses to 1 and ILP's single data pass takes over. The\n\
         paper's advice — decide which regime your protocol is in before\n\
         picking a technique — drops out of one table.",
        winners.join(", ")
    );
    Output::table(
        format!(
            "Figure 4 regimes: message size vs. winning discipline at a fixed\n\
             {:.1} MB/s offered load ({} seeds x {}s)",
            BYTE_RATE / 1e6,
            opts.seeds,
            opts.duration_s
        ),
        &FIGURE4_REGIMES_HEADER,
        rows,
        &[0, 1, 3, 5, 7, 8, 9, 10],
        &note,
    )
}
