//! Regenerates every table and figure into `results/` by invoking each
//! experiment binary ([`bench::EXPERIMENTS`]) in sequence, timing each
//! one, and writing the suite total and per-binary wall times to
//! `results/perf_summary.json`.

// Wall-clock timing is this binary's purpose: it reports how long each
// experiment took, never feeds the clock into simulated results.
#![allow(clippy::disallowed_methods)]

use std::process::Command;
use std::time::Instant;

use bench::{RunOpts, EXPERIMENTS};

fn main() {
    let opts = RunOpts::from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = opts.effective_threads();
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let total_start = Instant::now();
    let mut entries = Vec::new();
    for bin in EXPERIMENTS {
        println!("\n=== {bin} ===\n");
        let start = Instant::now();
        let status = Command::new(exe_dir.join(bin))
            .args(&args)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        assert!(status.success(), "{bin} failed with {status}");
        let wall_s = start.elapsed().as_secs_f64();
        entries.push(format!(
            "    {{\"name\": \"{bin}\", \"wall_s\": {wall_s:.3}}}"
        ));
    }
    let total_s = total_start.elapsed().as_secs_f64();

    let summary = format!(
        "{{\n  \"threads\": {threads},\n  \"total_wall_s\": {total_s:.3},\n  \
         \"binaries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = opts.out_dir.join("perf_summary.json");
    std::fs::create_dir_all(&opts.out_dir).expect("output dir");
    std::fs::write(&path, summary).expect("write perf summary");
    println!(
        "\nAll experiments regenerated into {} in {total_s:.1}s ({threads} worker threads).",
        opts.out_dir.display()
    );
    println!("wrote {}", path.display());
}
