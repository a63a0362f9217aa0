//! Touring the measurement apparatus: build the receive-and-acknowledge
//! reference trace, print its Figure-1 map and Table-1 working set,
//! replay it through machines of two generations (the DEC 3000/400 and
//! Rosenblum's 1998 prediction), save it to disk in the text trace
//! format, and reload it.
//!
//! Run with: `cargo run --release --example trace_explorer`

use cachesim::MachineConfig;
use memtrace::replay::replay_steady;
use memtrace::workingset::{line_size_sweep, working_set};
use memtrace::{figmap, io, phases};
use netstack::footprint::build_receive_ack_trace;

fn main() {
    let trace = build_receive_ack_trace();
    trace.validate().expect("trace is well-formed");
    println!(
        "built the receive & acknowledge trace: {} functions, {} references\n",
        trace.functions.len(),
        trace.refs.len()
    );

    // Table 1.
    let ws = working_set(&trace, 32);
    println!("{}", ws.render());

    // Figure 1 phases (footers).
    print!("{}", phases::render(&phases::phase_summaries(&trace)));

    // A slice of the active-code map.
    let coverage = figmap::function_coverage(&trace);
    let map = figmap::render(&trace, &coverage);
    println!("\nactive-code map (first 12 rows):");
    for line in map.lines().take(13) {
        println!("  {line}");
    }

    // Line-size sensitivity (Table 3's code column).
    println!("\ncode working set vs line size (Table 3):");
    for row in line_size_sweep(&trace, &[8, 16, 32, 64], 32) {
        println!(
            "  {:>3} B lines: {:>5} lines ({:+.0}% vs 32 B)",
            row.line_size, row.code.lines, row.code.d_lines_pct
        );
    }

    // Replay through two machine generations.
    println!("\nreplay, 5 packets back to back:");
    for (name, cfg) in [
        ("DEC 3000/400 (8KB L1)", MachineConfig::dec3000_400()),
        ("Rosenblum 1998 (64KB L1)", MachineConfig::rosenblum_1998()),
    ] {
        // Stall cycles of the first (cold) and fifth (warm) packet; every
        // miss costs the one primary-miss penalty.
        let mut machine = cachesim::Machine::new(cfg);
        let mut cold_stalls = 0;
        let mut steady_stalls = 0;
        for i in 0..5 {
            let before = machine.stats().stall_cycles;
            memtrace::replay::replay(&trace, &mut machine);
            let stalls = machine.stats().stall_cycles - before;
            if i == 0 {
                cold_stalls = stalls;
            } else if i == 4 {
                steady_stalls = stalls;
            }
        }
        let (cold, steady) = replay_steady(&trace, cfg, 5);
        println!(
            "  {name:<34} cold {:>5} misses / {:>6} stalls, steady {:>5} misses / {:>6} stalls",
            cold.total_misses(),
            cold_stalls,
            steady.total_misses(),
            steady_stalls,
        );
    }

    // Serialize, reload, verify.
    let text = io::to_text(&trace);
    let path = std::env::temp_dir().join("receive_ack.trace");
    std::fs::write(&path, &text).expect("write trace");
    let reloaded = io::from_text(&std::fs::read_to_string(&path).expect("read back"))
        .expect("parse trace");
    assert_eq!(
        working_set(&reloaded, 32),
        working_set(&trace, 32),
        "round trip preserves the analysis"
    );
    println!(
        "\nsaved {} KB of trace to {} and reloaded it — analyses agree.",
        text.len() / 1024,
        path.display()
    );
}
