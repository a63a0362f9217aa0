//! Ablation A8: instruction prefetching.
//!
//! Section 4: "Some processors can prefetch instructions from the second
//! level cache to hide some of the cache miss cost, although ultimately
//! the execution rate is bounded by the second level cache bandwidth."
//! Section 5.4 adds that "instruction prefetching increases the relative
//! benefit of dense cache layouts." This ablation reruns the latency
//! sweep with next-line I-prefetch on and off: prefetch roughly halves
//! the conventional schedule's stall bill (straight-line protocol code is
//! the best case for it) — moving its saturation point — while LDLP,
//! having already removed most fetches, gains little. Prefetch and LDLP
//! attack the same cost from opposite ends.

use crate::harness::averages;
use crate::sweep::{poisson, run_for};
use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};

pub const ABLATION_PREFETCH_HEADER: [&str; 9] = [
    "rate",
    "conv_lat_us",
    "conv_pf_lat_us",
    "ldlp_lat_us",
    "ldlp_pf_lat_us",
    "conv_drops",
    "conv_pf_drops",
    "ldlp_drops",
    "ldlp_pf_drops",
];

pub fn run(opts: &RunOpts) -> Output {
    let plain = MachineConfig::synthetic_benchmark();
    let pf = plain.with_prefetch();
    let (conv, ldlp) = (Discipline::Conventional, Discipline::Ldlp(BatchPolicy::DCacheFit));
    let rates = [2000.0, 4000.0, 6000.0, 8000.0];
    let cells: Vec<(f64, MachineConfig, Discipline)> = rates
        .iter()
        .flat_map(|&rate| [conv, ldlp].map(|d| [(rate, plain, d), (rate, pf, d)]))
        .flatten()
        .collect();
    let reports = averages(opts, &cells, |&(rate, cfg, discipline), seed| {
        let (m, layers) = paper_stack(cfg, seed);
        let mut engine = StackEngine::new(m, layers, discipline);
        run_for(&mut engine, &poisson(rate, seed, opts.duration_s), opts.duration_s)
    });
    let rows = rates
        .iter()
        .zip(reports.chunks(4))
        .map(|(&rate, r)| {
            // Latency, then drops, of conv, conv+PF, LDLP, LDLP+PF.
            let mut row = vec![f(rate, 0)];
            row.extend(r.iter().map(|x| f(x.mean_latency_us, 2)));
            row.extend(r.iter().map(|x| x.drops.to_string()));
            row
        })
        .collect();
    Output::table(
        format!(
            "Ablation: next-line instruction prefetch ({} seeds x {}s)",
            opts.seeds, opts.duration_s
        ),
        &ABLATION_PREFETCH_HEADER,
        rows,
        &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        "Prefetch halves the conventional stall bill (straight-line protocol\n\
         code is its best case) and pushes conventional saturation up — but\n\
         LDLP without prefetch still beats conventional with it, and adding\n\
         prefetch to LDLP changes little: there is not much left to hide.",
    )
}
