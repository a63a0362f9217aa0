//! Ablation A1 (paper Section 5.2): CISC code density.
//!
//! "Networking code is substantially smaller on the i386 than on the
//! Alpha ... the NetBSD TCP and IP code is 55% smaller." Denser code
//! means more of the stack fits the I-cache, so the conventional schedule
//! suffers less and LDLP's relative benefit shrinks. This ablation reruns
//! the Figure 5/6 sweep on an i386-like machine (identical caches,
//! 0.45x code size) and compares the LDLP speedup on both architectures.

use bench::sweep::poisson_sweep;
use bench::{f, print_table, write_csv, RunOpts};
use cachesim::MachineConfig;

fn main() {
    let opts = RunOpts::from_args();
    println!(
        "Ablation: instruction-set code density (Alpha vs. i386-like, {} seeds)\n",
        opts.seeds
    );
    let rates: Vec<f64> = vec![1000.0, 3000.0, 5000.0, 7000.0, 9000.0];
    let alpha = poisson_sweep(&opts, MachineConfig::synthetic_benchmark(), &rates);
    let i386 = poisson_sweep(&opts, MachineConfig::i386_like(), &rates);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (a, i) in alpha.iter().zip(&i386) {
        let speedup = |p: &bench::sweep::SweepPoint| {
            if p.ldlp.mean_latency_us > 0.0 {
                p.conventional.mean_latency_us / p.ldlp.mean_latency_us
            } else {
                0.0
            }
        };
        rows.push(vec![
            f(a.x, 0),
            f(a.conventional.mean_imiss, 0),
            f(a.ldlp.mean_imiss, 0),
            f(speedup(a), 2),
            f(i.conventional.mean_imiss, 0),
            f(i.ldlp.mean_imiss, 0),
            f(speedup(i), 2),
        ]);
        csv.push(vec![
            f(a.x, 0),
            f(a.conventional.mean_imiss, 2),
            f(a.ldlp.mean_imiss, 2),
            f(a.conventional.mean_latency_us, 2),
            f(a.ldlp.mean_latency_us, 2),
            f(i.conventional.mean_imiss, 2),
            f(i.ldlp.mean_imiss, 2),
            f(i.conventional.mean_latency_us, 2),
            f(i.ldlp.mean_latency_us, 2),
        ]);
    }
    print_table(
        &[
            "rate",
            "alpha conv I",
            "alpha LDLP I",
            "alpha speedup",
            "i386 conv I",
            "i386 LDLP I",
            "i386 speedup",
        ],
        &rows,
    );
    println!(
        "\nThe denser i386-like stack (13.5 KB of code vs 30 KB) still exceeds\n\
         the 8 KB I-cache, but by less: conventional misses are far lower and\n\
         LDLP's latency speedup shrinks accordingly — 'CISC processors ...\n\
         may therefore benefit less from LDLP' (Section 5.2)."
    );
    write_csv(
        &opts.out_dir.join("ablation_cisc.csv"),
        &[
            "rate",
            "alpha_conv_imiss",
            "alpha_ldlp_imiss",
            "alpha_conv_lat_us",
            "alpha_ldlp_lat_us",
            "i386_conv_imiss",
            "i386_ldlp_imiss",
            "i386_conv_lat_us",
            "i386_ldlp_lat_us",
        ],
        &csv,
    );
}
