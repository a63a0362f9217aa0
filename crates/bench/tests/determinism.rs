//! Every experiment's output is byte-identical for any worker count:
//! each `bench::EXPERIMENTS` entry runs at reduced options (2 seeds ×
//! 0.05 s, `--smoke`, `--metrics`) on 1, 2 and 8 threads, and every file
//! a run would write — CSVs, SVG and metrics JSON — must match the
//! serial run's. The entries whose grids exercise a scheduling-sensitive
//! path have a test of their own; one table-driven test walks the rest.

use bench::harness::{experiment, Flags, EXPERIMENTS};

/// The entries checked by a named test below.
const NAMED: [&str; 8] =
    ["figure5", "figure6", "figure7", "figure9", "figure10", "figure13", "figure14", "impairments"];

/// Runs entry `name` at 1, 2 and 8 threads, asserts every file it writes
/// is the same at each, and returns the serial run's files.
fn invariant(name: &str) -> Vec<(String, String)> {
    let e = experiment(name);
    let files = |threads| {
        let line = format!("--seeds 2 --duration 0.05 --smoke --metrics --threads {threads}");
        let flags = Flags::parse(line.split_whitespace().map(String::from)).expect("flags");
        let opts = e.opts(&flags);
        e.artifacts(&opts, &(e.run)(&opts))
    };
    let serial = files(1);
    for threads in [2, 8] {
        let parallel = files(threads);
        let same_names = parallel.iter().map(|f| &f.0).eq(serial.iter().map(|f| &f.0));
        assert!(same_names, "{name}: the files written differ at {threads} threads");
        for ((file, text), (_, serial_text)) in parallel.iter().zip(&serial) {
            assert!(text == serial_text, "{name}: {file} differs between 1 and {threads} threads");
        }
    }
    serial
}

/// [`invariant`], then: `name`'s smoke CSV has `rows` data rows and
/// contains every one of `cells`. Returns the serial run's files.
fn invariant_csv(name: &str, rows: usize, cells: &[&str]) -> Vec<(String, String)> {
    let files = invariant(name);
    let csv = &files.iter().find(|f| f.0 == format!("{name}_smoke.csv")).expect("the CSV").1;
    assert_eq!(csv.lines().count(), rows + 1, "{name}: one row per grid point");
    for cell in cells {
        assert!(csv.contains(&format!(",{cell},")), "{name}: {cell} rows present");
    }
    files
}

#[test]
fn every_experiment_is_thread_count_invariant() {
    // A renamed entry must not slip out of both halves.
    for name in NAMED {
        experiment(name);
    }
    for e in EXPERIMENTS.iter().filter(|e| !NAMED.contains(&e.name)) {
        invariant(e.name);
    }
}

#[test]
fn poisson_sweep_csv_is_thread_count_invariant() {
    invariant_csv("figure5", bench::figure5_rates().len(), &[]);
}

#[test]
fn metrics_json_is_thread_count_invariant() {
    let files = invariant_csv("figure6", bench::figure5_rates().len(), &[]);
    // The document really carries per-layer spans and value histograms.
    let metrics = &files.iter().find(|f| f.0 == "metrics.json").expect("metrics.json").1;
    assert!(metrics.contains("\"ldlp/rx:"), "per-layer span entries");
    assert!(metrics.contains("\"ldlp/latency_us\""), "latency histogram");
    assert!(metrics.contains("\"conv/batch\""), "batch spans");
}

#[test]
fn clock_sweep_csv_is_thread_count_invariant() {
    invariant_csv("figure7", bench::figure7_clocks().len(), &[]);
}

#[test]
fn seed_average_is_thread_count_invariant() {
    // `poisson_sweep` averages each rate's `grid` jobs. The f64 averages
    // must match exactly, not approximately: the reduction order is fixed
    // by seed, not by completion.
    let cfg = cachesim::MachineConfig::synthetic_benchmark();
    let run = |threads| {
        let opts = bench::RunOpts {
            seeds: 3,
            duration_s: 0.05,
            threads: Some(threads),
            ..Default::default()
        };
        bench::sweep::poisson_sweep(&opts, cfg, &[4000.0, 9000.0])
    };
    let (serial, parallel) = (run(1), run(4));
    for (s, p) in serial.iter().zip(&parallel) {
        let ilp = (s.ilp.as_ref().expect("ilp"), p.ilp.as_ref().expect("ilp"));
        for (s, p) in [(&s.conventional, &p.conventional), (&s.ldlp, &p.ldlp), ilp] {
            assert_eq!(s.mean_latency_us.to_bits(), p.mean_latency_us.to_bits());
            assert_eq!(s.mean_imiss.to_bits(), p.mean_imiss.to_bits());
            assert_eq!(s.drops, p.drops);
        }
    }
    assert!(serial.len() == 2 && serial[0].conventional.mean_imiss > 0.0);
}

#[test]
fn figure9_csv_is_thread_count_invariant() {
    // 2 rates × {1, 4} cores × 6 variants: flow hashing, round-robin and
    // the layer-affinity pipeline's cross-core hand-offs.
    invariant_csv("figure9", 2 * 2 * 6, &["aff"]);
}

#[test]
fn figure10_csv_is_thread_count_invariant() {
    // 2 populations × 2 disciplines × 3 lookup schemes: flow-table probe
    // charging and the seeded random-eviction cache.
    invariant_csv("figure10", 2 * 2 * 3, &["fifo", "rand"]);
}

#[test]
fn figure13_csv_is_thread_count_invariant() {
    // 2 loads × 2 variants × 4 admission policies × 2 retry budgets: the
    // closed loop's acknowledgement frontier, weighted-fair admission and
    // the stall-the-producer hand-off.
    invariant_csv("figure13", 2 * 2 * 4 * 2, &["wfq", "off"]);
}

#[test]
fn figure14_csv_is_thread_count_invariant() {
    // {1, 4} cores × {conv, ldlp, aff} × 5 classes: per-class miss
    // attribution and class-sample percentiles.
    invariant_csv("figure14", 2 * 3 * 5, &["sig", "rpc", "media", "dns", "agent"]);
}

#[test]
fn impairment_sweep_csv_is_thread_count_invariant() {
    invariant_csv("impairments", bench::impairments::grid(true).len(), &[]);
}
