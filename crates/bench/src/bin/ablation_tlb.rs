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

use bench::sweep::per_seed;
use bench::{f, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;
use ldlp::synth::stack_with;
use ldlp::{BatchPolicy, Discipline, StackEngine};
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{run_sim, SimConfig};

fn run(discipline: Discipline, rate: f64, opts: &RunOpts) -> (f64, f64, f64) {
    let runs = per_seed(opts, |seed| {
        let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s);
        let cfg = MachineConfig::synthetic_benchmark().with_alpha_tlbs();
        // The value-added stack (8 layers x 9 KB, ~20 scattered pages):
        // the paper's transport stack fits a 12-entry ITB, so ITB
        // pressure only appears once presentation/encryption layers grow
        // the working set (Section 6's scenario).
        let (m, layers) = stack_with(cfg, seed, 8, 9 * 1024, 256);
        let mut engine = StackEngine::new(m, layers, discipline);
        let r = run_sim(
            &mut engine,
            &arrivals,
            &SimConfig {
                duration_s: opts.duration_s,
                ..SimConfig::default()
            },
        );
        let s = engine.machine().stats();
        let n = r.completed.max(1) as f64;
        (
            s.itlb.misses as f64 / n,
            s.dtlb.misses as f64 / n,
            r.mean_latency_us,
        )
    });
    let n = opts.seeds as f64;
    let (mut itlb, mut dtlb, mut lat) = (0.0, 0.0, 0.0);
    for (i, d, l) in runs {
        itlb += i;
        dtlb += d;
        lat += l;
    }
    (itlb / n, dtlb / n, lat / n)
}

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "Ablation: TLB refills per message (Alpha 21064 ITB/DTB model,\n\
         {} seeds x {}s)\n",
        opts.seeds, opts.duration_s
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for rate in [1000.0, 3000.0, 5000.0, 7000.0, 9000.0] {
        let (ci, cd, cl) = run(Discipline::Conventional, rate, &opts);
        let (li, ld, ll) = run(Discipline::Ldlp(BatchPolicy::DCacheFit), rate, &opts);
        rows.push(vec![
            f(rate, 0),
            f(ci, 1),
            f(li, 1),
            f(cd, 1),
            f(ld, 1),
            f(cl, 0),
            f(ll, 0),
        ]);
        csv.push(vec![
            f(rate, 0),
            f(ci, 3),
            f(li, 3),
            f(cd, 3),
            f(ld, 3),
            f(cl, 2),
            f(ll, 2),
        ]);
    }
    print_table(
        &[
            "rate",
            "conv ITB/msg",
            "LDLP ITB/msg",
            "conv DTB/msg",
            "LDLP DTB/msg",
            "conv lat(us)",
            "LDLP lat(us)",
        ],
        &rows,
    );
    println!(
        "\nThe 30 KB transport stack fits a 12-entry ITB, but this value-added\n\
         stack's ~20 scattered instruction pages do not: the conventional\n\
         schedule refills the ITB per message while LDLP's refills amortize\n\
         over the batch — the cache story, one level down."
    );
    write_csv(
        &opts.out_dir.join("ablation_tlb.csv"),
        &[
            "rate",
            "conv_itlb_per_msg",
            "ldlp_itlb_per_msg",
            "conv_dtlb_per_msg",
            "ldlp_dtlb_per_msg",
            "conv_lat_us",
            "ldlp_lat_us",
        ],
        &csv,
    );
}
