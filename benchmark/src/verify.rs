//! Verify the traffic, don't guess it.
//!
//! The benchmark times re-assembled copies of the shipped binaries'
//! cells. These checks prove the copies compute what the originals do:
//! the smoke grids rendered through [`crate::sweeps`] must equal the
//! committed `results/figure{9,10,13,14}_smoke_golden.csv` byte for
//! byte, and figures 5 and 7 — which have no smoke golden — must equal
//! what `bench::sweep`'s own runners render for the same small grid.

use crate::sweeps::{self, Ctx, SeedPlan, Tally};
use crate::trace::Rec;
use bench::{csv_text, figures, RunOpts};
use cachesim::MachineConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    Figure5,
    Figure7,
    Figure9,
    Figure10,
    Figure13,
    Figure14,
}

pub const ALL: [Check; 6] = [
    Check::Figure5,
    Check::Figure7,
    Check::Figure9,
    Check::Figure10,
    Check::Figure13,
    Check::Figure14,
];

/// The checks that cover the sweeps a workload runs.
pub fn checks_for(workload: &str) -> &'static [Check] {
    match workload {
        "uni_sweep" => &[Check::Figure5, Check::Figure7],
        "smp_open" => &[Check::Figure9],
        "smp_closed" => &[Check::Figure13],
        "mixed_classes" => &[Check::Figure14],
        "flow_tables" => &[Check::Figure10],
        "cold_placements" => &[Check::Figure9, Check::Figure5],
        _ => &ALL,
    }
}

/// The smoke goldens were written by `<figure> --smoke`: 2 seeds × 1 s.
const GOLDEN_SEEDS: u64 = 2;
const GOLDEN_DURATION_S: f64 = 1.0;

fn golden(name: &str) -> Result<String, String> {
    let path = format!("results/{name}_smoke_golden.csv");
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e} (run from the repo root)"))
}

/// The first rows that differ, for the abort message.
fn row_diff(ours: &str, theirs: &str) -> String {
    let mut out = String::new();
    let (mut a, mut b) = (ours.lines(), theirs.lines());
    let mut shown = 0;
    for row in 1.. {
        let (x, y) = (a.next(), b.next());
        if x.is_none() && y.is_none() || shown == 5 {
            break;
        }
        if x != y {
            shown += 1;
            out += &format!(
                "  row {row}:\n    benchmark: {}\n    reference: {}\n",
                x.unwrap_or("<missing>"),
                y.unwrap_or("<missing>")
            );
        }
    }
    out
}

impl Check {
    pub fn label(self) -> &'static str {
        match self {
            Check::Figure5 => "figure5 vs bench::sweep::poisson_sweep",
            Check::Figure7 => "figure7 vs bench::sweep::clock_sweep",
            Check::Figure9 => "figure9 vs results/figure9_smoke_golden.csv",
            Check::Figure10 => "figure10 vs results/figure10_smoke_golden.csv",
            Check::Figure13 => "figure13 vs results/figure13_smoke_golden.csv",
            Check::Figure14 => "figure14 vs results/figure14_smoke_golden.csv",
        }
    }

    /// Renders both sides and compares them; `Err` carries a row diff.
    pub fn run(self) -> Result<(), String> {
        let mut rec = Rec::new(false);
        let mut tally = Tally::default();
        let ctx = &mut Ctx {
            seeds: SeedPlan::shipped(0),
            rec: &mut rec,
            tally: &mut tally,
        };
        let (s, d) = (GOLDEN_SEEDS, GOLDEN_DURATION_S);
        let small = |duration_s: f64| RunOpts {
            seeds: 2,
            duration_s,
            threads: Some(1),
            ..RunOpts::default()
        };
        let cfg = MachineConfig::synthetic_benchmark();
        let (ours, reference) = match self {
            Check::Figure5 => {
                let points =
                    bench::sweep::poisson_sweep(&small(0.05), cfg, &bench::figure5_rates());
                (
                    sweeps::figure5(ctx, 2, 0.05),
                    csv_text(&figures::FIGURE5_HEADER, &figures::figure5_rows(&points)),
                )
            }
            Check::Figure7 => {
                let points = bench::sweep::clock_sweep(&small(0.25), cfg, &bench::figure7_clocks());
                (
                    sweeps::figure7(ctx, 2, 0.25),
                    csv_text(&figures::FIGURE7_HEADER, &figures::figure7_rows(&points)),
                )
            }
            Check::Figure9 => (sweeps::figure9(ctx, true, s, d), golden("figure9")?),
            Check::Figure10 => (sweeps::figure10(ctx, true, s, d), golden("figure10")?),
            Check::Figure13 => (sweeps::figure13(ctx, true, s, d), golden("figure13")?),
            Check::Figure14 => (sweeps::figure14(ctx, true, s, d), golden("figure14")?),
        };
        if tally.failed_cells > 0 {
            return Err(format!(
                "{}: {} of {} cells failed their checks",
                self.label(),
                tally.failed_cells,
                tally.cells
            ));
        }
        if ours != reference {
            return Err(format!(
                "{}: output differs\n{}",
                self.label(),
                row_diff(&ours, &reference)
            ));
        }
        Ok(())
    }
}

/// Runs `checks`, printing one line each; `Err` on the first mismatch.
pub fn run_checks(checks: &[Check]) -> Result<(), String> {
    for c in checks {
        c.run()?;
        println!("verify ok: {}", c.label());
    }
    Ok(())
}
