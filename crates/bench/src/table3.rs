//! Table 3: effect of cache-line size on the working set of the TCP/IP
//! trace. Percentage changes are relative to the 32-byte baseline, for
//! bytes (lines x line size) and line counts, per class.

use crate::{Output, RunOpts};
use memtrace::workingset::line_size_sweep;
use netstack::footprint::build_receive_ack_trace;

/// The paper's Table 3: per line size, (code, ro, mut) x (d_bytes%, d_lines%).
const PAPER: [(u64, [i32; 6]); 4] = [
    (64, [17, -41, 44, -28, 55, -22]),
    (16, [-13, 73, -31, 38, -38, 23]),
    (8, [-20, 216, -55, 81, -56, 75]),
    // The paper marks data columns N/A at 4 bytes (64-bit words).
    (4, [-25, 500, 0, 0, 0, 0]),
];

pub const TABLE3_HEADER: [&str; 10] = [
    "line_size",
    "code_d_bytes_pct",
    "code_d_lines_pct",
    "ro_d_bytes_pct",
    "ro_d_lines_pct",
    "mut_d_bytes_pct",
    "mut_d_lines_pct",
    "code_lines",
    "ro_lines",
    "mut_lines",
];

pub fn run(_: &RunOpts) -> Output {
    let trace = build_receive_ack_trace();
    let sweep = line_size_sweep(&trace, &[4, 8, 16, 32, 64], 32);
    let row_at = |ls: u64| sweep.iter().find(|r| r.line_size == ls).expect("swept");
    let rows = [64u64, 32, 16, 8, 4]
        .into_iter()
        .map(|ls| {
            let r = row_at(ls);
            vec![
                ls.to_string(),
                format!("{:.1}", r.code.d_bytes_pct),
                format!("{:.1}", r.code.d_lines_pct),
                format!("{:.1}", r.ro_data.d_bytes_pct),
                format!("{:.1}", r.ro_data.d_lines_pct),
                format!("{:.1}", r.mut_data.d_bytes_pct),
                format!("{:.1}", r.mut_data.d_lines_pct),
                r.code.lines.to_string(),
                r.ro_data.lines.to_string(),
                r.mut_data.lines.to_string(),
            ]
        })
        .collect();
    let mut note = String::from("The paper's deltas (code dB dL, RO dB dL, mut dB dL):\n");
    for (ls, p) in PAPER {
        let pct: Vec<String> = p.iter().map(|v| format!("{v:+}%")).collect();
        let data = if ls == 4 { "N/A (64-bit words)".into() } else { pct[2..].join(" ") };
        note += &format!("  {ls:>2} B: {} {}, {data}\n", pct[0], pct[1]);
    }
    note += &format!(
        "\nDoubling the I-cache line to 64 bytes cuts code working-set lines by\n\
         {:.0}% (paper: 41%) — 'large instruction cache line sizes are probably\n\
         appropriate for protocol code' (Section 5.3).",
        -row_at(64).code.d_lines_pct
    );
    Output::table(
        "Table 3: effect of cache-line size on working set (32-byte baseline)".into(),
        &TABLE3_HEADER,
        rows,
        &[0, 1, 2, 3, 4, 5, 6],
        &note,
    )
}
