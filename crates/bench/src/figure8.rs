//! Figure 8: cache effects in checksum routines — the elaborate 4.4BSD
//! `in_cksum` vs. a simple tight loop, with warm and cold instruction
//! caches (paper Section 5.1).
//!
//! Both routines exist for real in `netstack::checksum` (and are
//! property-tested to agree); this harness models their cycle cost on the
//! paper's machine: per-byte instruction costs fitted to the figure's
//! warm curves, plus a cache-fill cost of one miss per active code line
//! when the cache is cold. Expected shape: warm, the elaborate routine
//! wins at nearly all sizes; cold, the simple routine wins up to ~900
//! bytes.

use crate::{f, Output, RunOpts};
use cachesim::{CacheConfig, Machine, MachineConfig, Region};
use netstack::checksum::{ELABORATE_FOOTPRINT_BYTES, SIMPLE_FOOTPRINT_BYTES};

/// Primary-miss fill cost used for the checksum study (the DEC 3000/400's
/// full fill path through the secondary cache).
const FILL_PENALTY: u64 = 30;

/// Warm-cache instruction cycles of the elaborate routine: high fixed
/// cost (setup, unrolling prologue), low per-byte cost.
fn elaborate_instr(n: u64) -> u64 {
    176 + (0.70 * n as f64) as u64
}

/// Warm-cache instruction cycles of the simple routine: low fixed cost,
/// high per-byte cost.
fn simple_instr(n: u64) -> u64 {
    80 + (1.54 * n as f64) as u64
}

/// Active code bytes of the elaborate routine for an `n`-byte message:
/// the full 992 bytes once the 32-byte unrolled loop is entered, less for
/// tiny messages that only touch the fix-up paths.
fn elaborate_active(n: u64) -> u64 {
    if n >= 32 {
        ELABORATE_FOOTPRINT_BYTES
    } else {
        448
    }
}

fn machine() -> Machine {
    Machine::new(MachineConfig {
        icache: CacheConfig::direct_mapped(8 * 1024, 32),
        dcache: CacheConfig::direct_mapped(8 * 1024, 32),
        read_miss_penalty: FILL_PENALTY,
        ..MachineConfig::dec3000_400()
    })
}

/// Cycles to checksum `n` bytes with a routine of the given active code
/// region, cold or warm. The message data is cache-resident in all cases,
/// as in the paper's measurement.
fn cycles(m: &mut Machine, code: Region, instr: u64, cold: bool) -> u64 {
    if cold {
        m.flush_caches();
    } else {
        // Ensure warm: fetch once outside the measurement.
        m.fetch_code(code);
    }
    let before = m.cycles();
    m.fetch_code(code);
    m.execute(instr);
    m.cycles() - before
}

pub const FIGURE8_HEADER: [&str; 5] = [
    "size",
    "elaborate_warm",
    "simple_warm",
    "elaborate_cold",
    "simple_cold",
];

pub fn run(_: &RunOpts) -> Output {
    let mut m = machine();
    let elaborate_code_base = 0x10_000u64;
    let simple_code_base = 0x20_000u64;

    let mut rows = Vec::new();
    let mut crossover: Option<u64> = None;
    for n in (0..=1000u64).step_by(16) {
        let e_code = Region::new(elaborate_code_base, elaborate_active(n));
        let s_code = Region::new(simple_code_base, SIMPLE_FOOTPRINT_BYTES);
        let e_warm = cycles(&mut m, e_code, elaborate_instr(n), false);
        let s_warm = cycles(&mut m, s_code, simple_instr(n), false);
        let e_cold = cycles(&mut m, e_code, elaborate_instr(n), true);
        let s_cold = cycles(&mut m, s_code, simple_instr(n), true);
        if crossover.is_none() && n > 0 && e_cold <= s_cold {
            crossover = Some(n);
        }
        rows.push(vec![
            n.to_string(),
            e_warm.to_string(),
            s_warm.to_string(),
            e_cold.to_string(),
            s_cold.to_string(),
        ]);
    }
    let mut note = match crossover {
        Some(n) => format!(
            "Cold-cache crossover: the elaborate routine overtakes the simple\n\
             one at {n} bytes (paper: ~900 bytes). Warm, the elaborate routine\n\
             wins from {} bytes up.",
            (0..=1000)
                .step_by(16)
                .find(|&n| n > 0 && elaborate_instr(n) <= simple_instr(n))
                .unwrap_or(0)
        ),
        None => "No cold-cache crossover below 1000 bytes.".into(),
    };
    note += &format!(
        "\n\nCache-fill cost at the crossover: {} cycles (elaborate) vs {} (simple).",
        f(
            (elaborate_active(900).div_ceil(32) * FILL_PENALTY) as f64,
            0
        ),
        f((SIMPLE_FOOTPRINT_BYTES.div_ceil(32) * FILL_PENALTY) as f64, 0)
    );
    Output::table(
        format!("Figure 8: checksum cycles vs. message size (fill penalty {FILL_PENALTY} cycles)"),
        &FIGURE8_HEADER,
        rows,
        &[0, 1, 2, 3, 4],
        &note,
    )
}
