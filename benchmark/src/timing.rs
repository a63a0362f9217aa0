//! Host-side clocks and noise probes. The only module of the benchmark
//! that reads the wall clock: the simulator crates stay `Instant`-free
//! under the repo's `nondeterminism` rule, and the benchmark confines
//! its own exemption here.
#![allow(clippy::disallowed_methods)]

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds this (single-threaded) process has spent on a CPU, from
/// `/proc/self/schedstat`; 0 where the file is absent. Wall time minus
/// this is time the host gave to someone else.
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (`VmHWM`) in MB; 0 where
/// `/proc/self/status` is absent.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times a fixed kernel (integer mixing over a 256 KiB table: some ALU,
/// some L2) and returns milliseconds. The work never changes, so a
/// change in the reading is a change in the machine, not in the repo.
pub fn calibrate_ms() -> f64 {
    const WORDS: usize = 32 * 1024;
    let mut table = vec![0u64; WORDS];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let t0 = now_ns();
    for round in 0..12u64 {
        for i in 0..WORDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (WORDS - 1);
            table[i] = table[j].wrapping_add(x ^ round);
        }
    }
    std::hint::black_box(&table);
    (now_ns() - t0) as f64 / 1e6
}
