//! Ablation A6: TLB pressure — extending the locality argument below the
//! caches, per the paper's citation of Pagels, Druschel & Peterson
//! ("Analysis of cache and TLB effectiveness in processing network I/O").
//!
//! The paper's traces exclude PAL code, the Alpha firmware that refills
//! the TLB, so TLB costs are invisible in its tables — but the mechanism
//! is the same: a 30 KB stack scattered over the address space touches
//! more instruction pages per message than a 12-entry ITB holds, and
//! blocked scheduling amortizes the refills exactly like the cache
//! misses. This ablation reruns the Figure 5 sweep with Alpha-21064-style
//! TLBs enabled.

use crate::harness::{grid, sums};
use crate::sweep::{poisson, run_for};
use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::stack_with;
use ldlp::{BatchPolicy, Discipline, StackEngine};

pub const ABLATION_TLB_HEADER: [&str; 7] = [
    "rate",
    "conv_itlb_per_msg",
    "ldlp_itlb_per_msg",
    "conv_dtlb_per_msg",
    "ldlp_dtlb_per_msg",
    "conv_lat_us",
    "ldlp_lat_us",
];

pub fn run(opts: &RunOpts) -> Output {
    let rates = [1000.0, 3000.0, 5000.0, 7000.0, 9000.0];
    let disciplines = [Discipline::Conventional, Discipline::Ldlp(BatchPolicy::DCacheFit)];
    let cells: Vec<(f64, Discipline)> =
        rates.iter().flat_map(|&rate| disciplines.map(|d| (rate, d))).collect();
    let runs = grid(opts, &cells, |&(rate, discipline), seed| {
        let cfg = MachineConfig::synthetic_benchmark().with_alpha_tlbs();
        // The value-added stack (8 layers x 9 KB, ~20 scattered pages):
        // the paper's transport stack fits a 12-entry ITB, so ITB
        // pressure only appears once presentation/encryption layers grow
        // the working set (Section 6's scenario).
        let (m, layers) = stack_with(cfg, seed, 8, 9 * 1024, 256);
        let mut engine = StackEngine::new(m, layers, discipline);
        let r = run_for(&mut engine, &poisson(rate, seed, opts.duration_s), opts.duration_s);
        let s = engine.machine().stats();
        let n = r.completed.max(1) as f64;
        [s.itlb.misses as f64 / n, s.dtlb.misses as f64 / n, r.mean_latency_us]
    });
    // Per cell: (ITB refills, DTB refills, latency) per message, seed means.
    let means: Vec<[f64; 3]> = runs
        .into_iter()
        .map(|seeds| sums(seeds).map(|a| a / opts.seeds as f64))
        .collect();
    let rows = rates
        .iter()
        .zip(means.chunks(2))
        .map(|(&rate, m)| {
            let ([ci, cd, cl], [li, ld, ll]) = (m[0], m[1]);
            vec![f(rate, 0), f(ci, 3), f(li, 3), f(cd, 3), f(ld, 3), f(cl, 2), f(ll, 2)]
        })
        .collect();
    Output::table(
        format!(
            "Ablation: TLB refills per message (Alpha 21064 ITB/DTB model,\n\
             {} seeds x {}s)",
            opts.seeds, opts.duration_s
        ),
        &ABLATION_TLB_HEADER,
        rows,
        &[0, 1, 2, 3, 4, 5, 6],
        "The 30 KB transport stack fits a 12-entry ITB, but this value-added\n\
         stack's ~20 scattered instruction pages do not: the conventional\n\
         schedule refills the ITB per message while LDLP's refills amortize\n\
         over the batch — the cache story, one level down.",
    )
}
