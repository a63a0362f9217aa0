//! Figures 5–7, the uniprocessor simulation figures, and their CSV rows.
//!
//! * Figure 5: instruction- and data-cache misses per message as a
//!   function of arrival rate, Poisson 552-byte messages, conventional
//!   vs. LDLP. Expected shape (paper): conventional sits flat near 1000
//!   misses/msg; LDLP's instruction misses fall steeply as batching
//!   engages, its data misses rise slightly, and the curve flattens
//!   beyond ~8500 msg/s where the D-cache-fit batch cap (14 messages)
//!   binds.
//! * Figure 6: latency as a function of arrival rate, Poisson traffic.
//!   Expected shape (paper): both schedules sit near the single-message
//!   service time (~300 us) at light load; conventional saturates near
//!   3500 msg/s and its latency climbs toward the 500-packet buffer bound
//!   (~100 ms, with drops); LDLP keeps latency low to ~9500 msg/s because
//!   batching raises throughput and cuts queueing.
//! * Figure 7: latency as a function of CPU clock speed, driven by
//!   self-similar Ethernet-trace-like traffic (the Bellcore October 1989
//!   trace in the paper; a calibrated Pareto ON/OFF aggregate here — see
//!   DESIGN.md's substitution table). Expected shape (paper): latency
//!   rises as the clock falls; conventional scheduling collapses below
//!   ~40 MHz while LDLP batches to maintain throughput and degrades
//!   gracefully.
//!
//! Figures 5 and 6 run the same sweep and differ in the columns they
//! write; the row functions are shared with `benchmark/`.

use crate::sweep::{
    clock_cells, poisson, self_similar, sweep, traced, Arrivals, Run, SweepPoint, CONV, ILP, LDLP,
};
use crate::{f, figure5_rates, figure7_clocks, Output, RunOpts};
use cachesim::MachineConfig;

pub const FIGURE5_HEADER: [&str; 11] = [
    "rate",
    "conv_imiss",
    "conv_dmiss",
    "ldlp_imiss",
    "ldlp_dmiss",
    "ldlp_batch",
    "conv_batch",
    "conv_imiss_std",
    "ldlp_imiss_std",
    "ilp_imiss",
    "ilp_dmiss",
];

pub fn figure5_rows(points: &[SweepPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            let ilp = p.ilp.as_ref().expect("poisson sweep provides ILP");
            vec![
                f(p.x, 0),
                f(p.conventional.mean_imiss, 2),
                f(p.conventional.mean_dmiss, 2),
                f(p.ldlp.mean_imiss, 2),
                f(p.ldlp.mean_dmiss, 2),
                f(p.ldlp.mean_batch, 3),
                f(p.conventional.mean_batch, 3),
                f(p.conventional.imiss_std, 2),
                f(p.ldlp.imiss_std, 2),
                f(ilp.mean_imiss, 2),
                f(ilp.mean_dmiss, 2),
            ]
        })
        .collect()
}

pub const FIGURE6_HEADER: [&str; 11] = [
    "rate",
    "conv_latency_us",
    "ldlp_latency_us",
    "conv_p99_us",
    "ldlp_p99_us",
    "conv_drops",
    "ldlp_drops",
    "conv_throughput",
    "ldlp_throughput",
    "conv_latency_std_us",
    "ldlp_latency_std_us",
];

pub fn figure6_rows(points: &[SweepPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                f(p.x, 0),
                f(p.conventional.mean_latency_us, 2),
                f(p.ldlp.mean_latency_us, 2),
                f(p.conventional.p99_latency_us, 2),
                f(p.ldlp.p99_latency_us, 2),
                p.conventional.drops.to_string(),
                p.ldlp.drops.to_string(),
                f(p.conventional.throughput, 1),
                f(p.ldlp.throughput, 1),
                f(p.conventional.latency_std_us, 2),
                f(p.ldlp.latency_std_us, 2),
            ]
        })
        .collect()
}

pub const FIGURE7_HEADER: [&str; 8] = [
    "clock_mhz",
    "conv_latency_us",
    "ldlp_latency_us",
    "conv_drops",
    "ldlp_drops",
    "ldlp_batch",
    "conv_throughput",
    "ldlp_throughput",
];

pub fn figure7_rows(points: &[SweepPoint]) -> Vec<Vec<String>> {
    points
        .iter()
        .map(|p| {
            vec![
                f(p.x, 0),
                f(p.conventional.mean_latency_us, 2),
                f(p.ldlp.mean_latency_us, 2),
                p.conventional.drops.to_string(),
                p.ldlp.drops.to_string(),
                f(p.ldlp.mean_batch, 3),
                f(p.conventional.throughput, 1),
                f(p.ldlp.throughput, 1),
            ]
        })
        .collect()
}

/// A figure's CSV: its header, its row function and the printed columns.
type Table = (&'static [&'static str], fn(&[SweepPoint]) -> Vec<Vec<String>>, &'static [usize]);

/// Sweeps `cells` into `table` and, under `--trace`, traces the middle
/// cell at seed 1.
fn uni_figure(
    opts: &RunOpts,
    title: &str,
    cells: &[(f64, MachineConfig)],
    arrivals: Arrivals,
    runs: &[Run],
    (header, rows, shown): Table,
    note: &str,
) -> Output {
    let (points, metrics) = sweep(opts, cells, arrivals, runs);
    let (x, cfg) = cells[cells.len() / 2];
    let trace = if opts.trace {
        traced(cfg, &arrivals(x, 1, opts.duration_s), opts.duration_s, runs)
    } else {
        Vec::new()
    };
    let title = format!(
        "{title},\n{} seeds x {}s each, {} worker threads)",
        opts.seeds,
        opts.duration_s,
        opts.effective_threads()
    );
    Output {
        metrics,
        trace,
        ..Output::table(title, header, rows(&points), shown, note)
    }
}

fn poisson_cells() -> Vec<(f64, MachineConfig)> {
    let cfg = MachineConfig::synthetic_benchmark();
    figure5_rates().into_iter().map(|rate| (rate, cfg)).collect()
}

/// Figure 5: cache misses per message vs. arrival rate.
pub fn figure5(opts: &RunOpts) -> Output {
    uni_figure(
        opts,
        "Figure 5: cache misses per message vs. arrival rate\n(Poisson, 552-byte messages",
        &poisson_cells(),
        poisson,
        &[CONV, LDLP, ILP],
        (&FIGURE5_HEADER, figure5_rows, &[0, 1, 2, 9, 10, 3, 4, 5]),
        "ILP's instruction misses match conventional's — integrating the\n\
         data loops cannot help when the code, not the data, is the traffic\n\
         (the paper's Figure 2/4 argument for small messages).",
    )
}

/// Figure 6: latency vs. arrival rate.
pub fn figure6(opts: &RunOpts) -> Output {
    uni_figure(
        opts,
        "Figure 6: latency vs. arrival rate\n(Poisson, 552-byte messages, 500-packet buffer",
        &poisson_cells(),
        poisson,
        &[CONV, LDLP, ILP],
        (&FIGURE6_HEADER, figure6_rows, &[0, 1, 2, 5, 6, 7, 8]),
        "",
    )
}

/// Figure 7: latency vs. CPU clock.
pub fn figure7(opts: &RunOpts) -> Output {
    uni_figure(
        opts,
        "Figure 7: latency vs. CPU clock\n(self-similar trace-like traffic, ~1000 pkt/s offered",
        &clock_cells(MachineConfig::synthetic_benchmark(), &figure7_clocks()),
        self_similar,
        &[CONV, LDLP],
        (&FIGURE7_HEADER, figure7_rows, &[0, 1, 2, 3, 4, 5]),
        "",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_run_produces_chrome_trace_events() {
        let opts = RunOpts {
            trace: true,
            metrics: true,
            ..crate::harness::tiny_opts(1)
        };
        let out = figure6(&opts);
        let names: Vec<&str> = out.trace.iter().map(|t| t.0.as_str()).collect();
        assert_eq!(names, ["conventional", "ldlp", "ilp"]);
        let traced = |t: &(String, Box<obs::Recorder>, f64)| !t.1.events().is_empty();
        assert!(out.trace.iter().all(traced), "every run collected span events");
        let files = crate::harness::experiment("figure6").artifacts(&opts, &out);
        let text = |name: &str| &files.iter().find(|f| f.0 == name).expect(name).1;
        let json = text("trace.json");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "complete events present");
        assert!(json.contains("ldlp/rx:"), "layer span names present");
        // The metrics document carries per-layer spans and value histograms.
        let metrics = text("metrics.json");
        assert!(metrics.contains("\"ldlp/rx:"), "per-layer span entries");
        assert!(metrics.contains("\"ldlp/latency_us\""), "latency histogram");
        assert!(metrics.contains("\"conv/batch\""), "batch spans");
    }
}
