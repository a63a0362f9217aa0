//! Ablation A4 (paper Section 6): "If the future brings processors with
//! large primary caches, will LDLP become irrelevant?"
//!
//! Sweeps the primary cache size from the paper's 8 KB to 64 KB
//! (Rosenblum's 1998 prediction) for two stacks: the paper's 30 KB
//! transport stack, and a 72 KB "value-added" stack — presentation and
//! encryption layers, "the sum of the parts including more functionality
//! than is strictly necessary" — that the paper predicts will keep
//! outgrowing caches.

use bench::sweep::seed_average;
use bench::{f, print_table, write_csv, RunOpts};
use cachesim::{CacheConfig, MachineConfig};
use ldlp::synth::stack_sequential;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::stats::SimReport;
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

fn machine(cache_kb: u64) -> MachineConfig {
    MachineConfig {
        icache: CacheConfig::direct_mapped(cache_kb * 1024, 32),
        dcache: Some(CacheConfig::direct_mapped(cache_kb * 1024, 32)),
        // Rosenblum: bigger caches come with deeper miss penalties.
        read_miss_penalty: if cache_kb >= 32 { 30 } else { 20 },
        ..MachineConfig::synthetic_benchmark()
    }
}

fn run(
    cache_kb: u64,
    layers: usize,
    code_bytes: u64,
    discipline: Discipline,
    rate: f64,
    opts: &RunOpts,
) -> SimReport {
    seed_average(opts, |seed| {
        let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s);
        // Sequential (Cord-quality) placement isolates *capacity* effects:
        // with random placement, conflict misses keep LDLP relevant even
        // when the stack nominally fits (see `stack_with` and layout::place
        // for that experiment).
        let (m, stack) = stack_sequential(machine(cache_kb), layers, code_bytes, 256);
        let mut engine = StackEngine::new(m, stack, discipline);
        run_sim(
            &mut engine,
            &arrivals,
            &SimConfig {
                duration_s: opts.duration_s,
                pool_seed: seed,
                ..SimConfig::default()
            },
        )
    })
}

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "Ablation: primary cache size vs. LDLP relevance ({} seeds, 6000 msg/s)\n",
        opts.seeds
    );
    let rate = 6000.0;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (stack_name, layers, code) in [
        ("transport 30KB", 5usize, 6 * 1024u64),
        ("value-added 72KB", 8, 9 * 1024),
    ] {
        for cache_kb in [8u64, 16, 32, 64] {
            let conv = run(cache_kb, layers, code, Discipline::Conventional, rate, &opts);
            let ldlp = run(
                cache_kb,
                layers,
                code,
                Discipline::Ldlp(BatchPolicy::DCacheFit),
                rate,
                &opts,
            );
            let speedup = if ldlp.mean_latency_us > 0.0 {
                conv.mean_latency_us / ldlp.mean_latency_us
            } else {
                1.0
            };
            rows.push(vec![
                stack_name.to_string(),
                format!("{cache_kb}KB"),
                f(conv.mean_imiss, 0),
                f(ldlp.mean_imiss, 0),
                f(conv.mean_latency_us, 0),
                f(ldlp.mean_latency_us, 0),
                f(speedup, 2),
            ]);
            csv.push(vec![
                stack_name.to_string(),
                cache_kb.to_string(),
                f(conv.mean_imiss, 2),
                f(ldlp.mean_imiss, 2),
                f(conv.mean_latency_us, 2),
                f(ldlp.mean_latency_us, 2),
                f(speedup, 3),
            ]);
        }
    }
    print_table(
        &[
            "stack",
            "cache",
            "conv I",
            "LDLP I",
            "conv lat(us)",
            "LDLP lat(us)",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\nOnce the stack fits the cache (32KB+ for the transport stack) both\n\
         schedules converge — LDLP costs only its 40-instruction queueing\n\
         overhead. The value-added stack keeps LDLP relevant at 64 KB,\n\
         matching the paper's closing prediction."
    );
    write_csv(
        &opts.out_dir.join("ablation_cachesize.csv"),
        &[
            "stack",
            "cache_kb",
            "conv_imiss",
            "ldlp_imiss",
            "conv_lat_us",
            "ldlp_lat_us",
            "speedup",
        ],
        &csv,
    );
}
