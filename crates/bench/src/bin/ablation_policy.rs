//! Ablation A3 (paper Section 3.2): batch-sizing policy.
//!
//! Compares LDLP batch policies — take-all-available, cap-at-D-cache-fit
//! (the paper's special case, 14 messages for this geometry), and fixed
//! block sizes — against the Lam-style analytical optimum from
//! `ldlp::blocking`.

use bench::sweep::seed_average;
use bench::{f, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;
use ldlp::blocking::BlockingModel;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

fn run(policy: BatchPolicy, rate: f64, opts: &RunOpts) -> SimReport {
    seed_average(opts, |seed| {
        let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s);
        let (m, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        let mut engine = StackEngine::new(m, layers, Discipline::Ldlp(policy));
        let cfg = SimConfig {
            duration_s: opts.duration_s,
            ..SimConfig::default()
        };
        run_sim(&mut engine, &arrivals, &cfg)
    })
}

fn main() {
    let opts = RunOpts::from_args();
    let model = BlockingModel::paper_synthetic();
    println!(
        "Ablation: LDLP batch policy at the paper's geometry.\n\
         Analytical model: D-cache-fit cap = {}, capacity-model optimum = {}\n\
         (predicted misses/msg at B=1: {:.0}, at optimum: {:.0})\n",
        model.dcache_fit(),
        model.optimal_blocking_factor(64),
        model.misses_per_message(1),
        model.misses_per_message(model.optimal_blocking_factor(64)),
    );

    let policies: [(&str, BatchPolicy); 6] = [
        ("all-available", BatchPolicy::AllAvailable),
        ("dcache-fit(14)", BatchPolicy::DCacheFit),
        ("fixed-2", BatchPolicy::Fixed(2)),
        ("fixed-6", BatchPolicy::Fixed(6)),
        ("fixed-12", BatchPolicy::Fixed(12)),
        ("fixed-32", BatchPolicy::Fixed(32)),
    ];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for rate in [6000.0, 9000.0] {
        for (name, policy) in policies {
            let r = run(policy, rate, &opts);
            rows.push(vec![
                f(rate, 0),
                name.to_string(),
                f(r.mean_imiss, 0),
                f(r.mean_dmiss, 0),
                f(r.mean_latency_us, 0),
                f(r.mean_batch, 1),
                r.drops.to_string(),
            ]);
            csv.push(vec![
                f(rate, 0),
                name.to_string(),
                f(r.mean_imiss, 2),
                f(r.mean_dmiss, 2),
                f(r.mean_latency_us, 2),
                f(r.mean_batch, 3),
                r.drops.to_string(),
                f(r.throughput, 1),
            ]);
        }
    }
    print_table(
        &["rate", "policy", "I miss", "D miss", "lat(us)", "batch", "drops"],
        &rows,
    );
    println!(
        "\nFixed-32 over-batches: D-cache thrashing raises data misses (and the\n\
         batch outgrows the message pool's residency). The D-cache-fit cap\n\
         tracks the analytical optimum; all-available behaves the same at\n\
         sustainable loads because the queue rarely exceeds the cap."
    );
    write_csv(
        &opts.out_dir.join("ablation_policy.csv"),
        &[
            "rate", "policy", "imiss", "dmiss", "latency_us", "batch", "drops", "throughput",
        ],
        &csv,
    );
}
