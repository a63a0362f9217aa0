//! Ablation A1 (paper Section 5.2): CISC code density.
//!
//! "Networking code is substantially smaller on the i386 than on the
//! Alpha ... the NetBSD TCP and IP code is 55% smaller." Denser code
//! means more of the stack fits the I-cache, so the conventional schedule
//! suffers less and LDLP's relative benefit shrinks. This ablation reruns
//! the Figure 5/6 sweep on an i386-like machine (identical caches,
//! 0.45x code size) and compares the LDLP speedup on both architectures.

use crate::sweep::{poisson, sweep, SweepPoint, CONV, LDLP};
use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;

pub const ABLATION_CISC_HEADER: [&str; 9] = [
    "rate",
    "alpha_conv_imiss",
    "alpha_ldlp_imiss",
    "alpha_conv_lat_us",
    "alpha_ldlp_lat_us",
    "i386_conv_imiss",
    "i386_ldlp_imiss",
    "i386_conv_lat_us",
    "i386_ldlp_lat_us",
];

pub fn run(opts: &RunOpts) -> Output {
    let rates = [1000.0, 3000.0, 5000.0, 7000.0, 9000.0];
    let machines = [MachineConfig::synthetic_benchmark(), MachineConfig::i386_like()];
    let cells: Vec<(f64, MachineConfig)> = machines
        .iter()
        .flat_map(|&m| rates.map(|rate| (rate, m)))
        .collect();
    let (points, _) = sweep(opts, &cells, poisson, &[CONV, LDLP]);
    let (alpha, i386) = points.split_at(rates.len());
    let speedup = |p: &SweepPoint| {
        if p.ldlp.mean_latency_us > 0.0 {
            p.conventional.mean_latency_us / p.ldlp.mean_latency_us
        } else {
            0.0
        }
    };
    let mut speedups = Vec::new();
    let mut rows = Vec::new();
    for (a, i) in alpha.iter().zip(i386) {
        speedups.push(format!("{}: {} / {}", f(a.x, 0), f(speedup(a), 2), f(speedup(i), 2)));
        let mut row = vec![f(a.x, 0)];
        for p in [a, i] {
            let (conv, ldlp) = (&p.conventional, &p.ldlp);
            row.extend([conv.mean_imiss, ldlp.mean_imiss].map(|v| f(v, 2)));
            row.extend([conv.mean_latency_us, ldlp.mean_latency_us].map(|v| f(v, 2)));
        }
        rows.push(row);
    }
    let note = format!(
        "LDLP latency speedup by rate (alpha / i386): {}.\n\n\
         The denser i386-like stack (13.5 KB of code vs 30 KB) still exceeds\n\
         the 8 KB I-cache, but by less: conventional misses are far lower and\n\
         LDLP's latency speedup shrinks accordingly — 'CISC processors ...\n\
         may therefore benefit less from LDLP' (Section 5.2).",
        speedups.join(", ")
    );
    Output::table(
        format!(
            "Ablation: instruction-set code density (Alpha vs. i386-like, {} seeds)",
            opts.seeds
        ),
        &ABLATION_CISC_HEADER,
        rows,
        &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        &note,
    )
}
