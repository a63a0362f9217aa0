//! Regenerates every table and figure into `results/` by invoking each
//! experiment binary in sequence, timing each one, and merging the
//! per-binary perf fragments (`results/perf/<bin>.json`) into a
//! machine-readable `results/perf_summary.json`: wall time per binary,
//! footprint-replay hit rate, and the worker-thread count used.

// Wall-clock timing is this binary's purpose: it reports how long each
// experiment took, never feeds the clock into simulated results.
#![allow(clippy::disallowed_methods)]

use std::process::Command;
use std::time::Instant;

use bench::{perf, RunOpts};

fn main() {
    let opts = RunOpts::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = opts.effective_threads();
    let bins = [
        "table1",
        "figure1",
        "table3",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "figure10",
        "figure13",
        "figure14",
        "figure4_regimes",
        "signaling_goal",
        "trace_replay",
        "dynamics",
        "ablation_cisc",
        "ablation_dilution",
        "ablation_policy",
        "ablation_cachesize",
        "ablation_transmit",
        "ablation_tlb",
        "ablation_layout",
        "ablation_prefetch",
    ];
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let total_start = Instant::now();
    let mut timings: Vec<(&str, f64)> = Vec::new();
    for bin in bins {
        println!("\n=== {bin} ===\n");
        let start = Instant::now();
        let status = Command::new(exe_dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed with {status}");
        timings.push((bin, start.elapsed().as_secs_f64()));
    }
    let total_s = total_start.elapsed().as_secs_f64();

    // Merge the children's perf fragments with the wall times measured
    // here into one machine-readable summary.
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut bypasses = 0u64;
    let mut entries = Vec::new();
    for (bin, wall_s) in &timings {
        let fragment = std::fs::read_to_string(opts.out_dir.join("perf").join(format!("{bin}.json")))
            .unwrap_or_default();
        let h = perf::json_u64(&fragment, "replay_hits").unwrap_or(0);
        let m = perf::json_u64(&fragment, "replay_misses").unwrap_or(0);
        let b = perf::json_u64(&fragment, "replay_bypasses").unwrap_or(0);
        let reason = match perf::json_str(&fragment, "bypass_reason") {
            Some(why) => format!("\"{why}\""),
            None => "null".to_string(),
        };
        hits += h;
        misses += m;
        bypasses += b;
        let rate = if h + m + b > 0 {
            h as f64 / (h + m + b) as f64
        } else {
            0.0
        };
        entries.push(format!(
            "    {{\"name\": \"{bin}\", \"wall_s\": {wall_s:.3}, \"replay_hits\": {h}, \
             \"replay_misses\": {m}, \"replay_bypasses\": {b}, \"bypass_reason\": {reason}, \
             \"replay_hit_rate\": {rate:.4}}}"
        ));
    }
    let overall = cachesim::ReplayStats {
        hits,
        misses,
        bypasses,
    };
    let summary = format!(
        "{{\n  \"threads\": {},\n  \"total_wall_s\": {:.3},\n  \"replay_hit_rate\": {:.4},\n  \
         \"replay_hits\": {},\n  \"replay_misses\": {},\n  \"replay_bypasses\": {},\n  \
         \"binaries\": [\n{}\n  ]\n}}\n",
        threads,
        total_s,
        overall.hit_rate(),
        hits,
        misses,
        bypasses,
        entries.join(",\n")
    );
    let path = opts.out_dir.join("perf_summary.json");
    std::fs::create_dir_all(&opts.out_dir).expect("output dir");
    std::fs::write(&path, summary).expect("write perf summary");
    // Floored, not rounded: 99.95 % must never print as 100 %.
    println!(
        "\nAll experiments regenerated into {} in {total_s:.1}s \
         ({threads} worker threads, replay hit rate {:.2}%).",
        opts.out_dir.display(),
        (overall.hit_rate() * 1e4).floor() / 100.0
    );
    println!("wrote {}", path.display());
}
