//! Figure 1 + Table 2: the phases of the receive-and-acknowledge path and
//! the map of active code.
//!
//! The note carries the per-phase reference footers of Figure 1
//! (write/read/code bytes and references) beside the paper's, followed by
//! the per-function coverage map; `figure1_map.svg` is a browsable
//! Figure-1 lookalike.

use crate::{Csv, Output, RunOpts};
use memtrace::{figmap, phases};
use netstack::footprint::build_receive_ack_trace;

/// (bytes, references) for one class of accesses in one phase.
type BytesRefs = (u64, u64);

/// The paper's Figure 1 column footers: (phase, write bytes/refs, read
/// bytes/refs, code bytes/refs).
const PAPER_FOOTERS: [(&str, BytesRefs, BytesRefs, BytesRefs); 3] = [
    ("entry", (1056, 89), (1856, 121), (3008, 564)),
    ("pkt intr", (6848, 1585), (18496, 6251), (13664, 43138)),
    ("exit", (7328, 1089), (10752, 2103), (18240, 10518)),
];

pub const PHASES_HEADER: [&str; 7] = [
    "phase",
    "write_bytes",
    "write_refs",
    "read_bytes",
    "read_refs",
    "code_bytes",
    "code_refs",
];

pub const COVERAGE_HEADER: [&str; 6] = ["function", "size", "touched", "entry", "pkt_intr", "exit"];

pub fn run(_: &RunOpts) -> Output {
    let trace = build_receive_ack_trace();
    let summaries = phases::phase_summaries(&trace);
    let mut note = String::from(
        "Per-phase reference summaries (paper's published footers in parentheses):\n\n",
    );
    let mut phase_rows = Vec::new();
    for (s, paper) in summaries.iter().zip(PAPER_FOOTERS.iter()) {
        note += &format!("{}:\n", s.name);
        let mut row = vec![s.name.clone()];
        let classes = [
            ("Write:", &s.write, paper.1),
            ("Read: ", &s.read, paper.2),
            ("Code: ", &s.code, paper.3),
        ];
        for (class, got, (bytes, refs)) in classes {
            note += &format!(
                "  {class} {:>6} bytes {:>6} refs   (paper: {bytes} bytes {refs} refs)\n",
                got.bytes, got.refs
            );
            row.extend([got.bytes.to_string(), got.refs.to_string()]);
        }
        phase_rows.push(row);
    }
    let coverage = figmap::function_coverage(&trace);
    note += "\nActive-code map (bar = fraction of the function executed per phase):\n\n";
    note += &figmap::render(&trace, &coverage);
    let coverage_rows = coverage
        .iter()
        .filter(|c| c.touched_total > 0)
        .map(|c| {
            let mut row = vec![c.name.clone(), c.size.to_string(), c.touched_total.to_string()];
            row.extend(c.touched_per_phase.iter().map(|t| t.to_string()));
            row
        })
        .collect();
    Output {
        title: "Figure 1 / Table 2: phases of the TCP receive & acknowledge path".into(),
        csvs: vec![
            Csv {
                header: &PHASES_HEADER,
                rows: phase_rows,
                shown: &[],
            },
            Csv {
                header: &COVERAGE_HEADER,
                rows: coverage_rows,
                shown: &[],
            },
        ],
        note,
        svg: Some(figmap::render_svg(&trace, &coverage)),
        ..Output::default()
    }
}
