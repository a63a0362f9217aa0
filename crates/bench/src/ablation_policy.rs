//! Ablation A3 (paper Section 3.2): batch-sizing policy.
//!
//! Compares LDLP batch policies — take-all-available, cap-at-D-cache-fit
//! (the paper's special case, 14 messages for this geometry), and fixed
//! block sizes — against the Lam-style analytical optimum from
//! `ldlp::blocking`.

use crate::harness::averages;
use crate::sweep::{poisson, run_for};
use crate::{f, Output, RunOpts};
use cachesim::MachineConfig;
use ldlp::blocking::BlockingModel;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};

const POLICIES: [(&str, BatchPolicy); 6] = [
    ("all-available", BatchPolicy::AllAvailable),
    ("dcache-fit(14)", BatchPolicy::DCacheFit),
    ("fixed-2", BatchPolicy::Fixed(2)),
    ("fixed-6", BatchPolicy::Fixed(6)),
    ("fixed-12", BatchPolicy::Fixed(12)),
    ("fixed-32", BatchPolicy::Fixed(32)),
];

pub const ABLATION_POLICY_HEADER: [&str; 8] = [
    "rate",
    "policy",
    "imiss",
    "dmiss",
    "latency_us",
    "batch",
    "drops",
    "throughput",
];

pub fn run(opts: &RunOpts) -> Output {
    let model = BlockingModel::paper_synthetic();
    let cells: Vec<(f64, &str, BatchPolicy)> = [6000.0, 9000.0]
        .into_iter()
        .flat_map(|rate| POLICIES.map(|(name, policy)| (rate, name, policy)))
        .collect();
    let reports = averages(opts, &cells, |&(rate, _, policy), seed| {
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        let mut engine = StackEngine::new(m, layers, Discipline::Ldlp(policy));
        run_for(&mut engine, &poisson(rate, seed, opts.duration_s), opts.duration_s)
    });
    let rows = cells
        .iter()
        .zip(&reports)
        .map(|(&(rate, name, _), r)| {
            vec![
                f(rate, 0),
                name.to_string(),
                f(r.mean_imiss, 2),
                f(r.mean_dmiss, 2),
                f(r.mean_latency_us, 2),
                f(r.mean_batch, 3),
                r.drops.to_string(),
                f(r.throughput, 1),
            ]
        })
        .collect();
    Output::table(
        format!(
            "Ablation: LDLP batch policy at the paper's geometry.\n\
             Analytical model: D-cache-fit cap = {}, capacity-model optimum = {}\n\
             (predicted misses/msg at B=1: {:.0}, at optimum: {:.0})",
            model.dcache_fit(),
            model.optimal_blocking_factor(64),
            model.misses_per_message(1),
            model.misses_per_message(model.optimal_blocking_factor(64)),
        ),
        &ABLATION_POLICY_HEADER,
        rows,
        &[0, 1, 2, 3, 4, 5, 6],
        "Fixed-32 over-batches: D-cache thrashing raises data misses (and the\n\
         batch outgrows the message pool's residency). The D-cache-fit cap\n\
         tracks the analytical optimum; all-available behaves the same at\n\
         sustainable loads because the queue rarely exceeds the cap.",
    )
}
