//! Regenerates every table and figure into `results/` by running each
//! [`bench::EXPERIMENTS`] entry in this process, in order, timing each
//! one, and writing the suite total and per-experiment wall times to
//! `results/perf_summary.json`. Flags apply to every entry, over each
//! entry's own defaults.

// Wall-clock timing is this binary's purpose: it reports how long each
// experiment took, never feeds the clock into simulated results.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use bench::harness::{flags, write_files, EXPERIMENTS};

fn main() {
    let flags = flags();
    let threads = flags.opts.effective_threads();
    let out_dir = &flags.opts.out_dir;
    let total_start = Instant::now();
    let mut entries = Vec::new();
    for e in &EXPERIMENTS {
        println!("\n=== {} ===\n", e.name);
        let start = Instant::now();
        e.drive(&flags);
        let wall_s = start.elapsed().as_secs_f64();
        entries.push(format!(
            "    {{\"name\": \"{}\", \"wall_s\": {wall_s:.3}}}",
            e.name
        ));
    }
    let total_s = total_start.elapsed().as_secs_f64();

    let summary = format!(
        "{{\n  \"threads\": {threads},\n  \"total_wall_s\": {total_s:.3},\n  \
         \"binaries\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    write_files(out_dir, &[("perf_summary.json".into(), summary)]);
    println!(
        "\nAll experiments regenerated into {} in {total_s:.1}s ({threads} worker threads).",
        out_dir.display()
    );
    println!("wrote {}", out_dir.join("perf_summary.json").display());
}
