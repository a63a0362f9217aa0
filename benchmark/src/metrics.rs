//! The metrics: names, units, directions, bounds and definitions — the
//! single table `BENCHMARK.json`, the binary's output and `compare` all
//! read. Adding a metric is adding a row.

use crate::json::Value;
use crate::probes::PROBES;
use crate::sweeps::Tally;
use crate::timing::peak_rss_mb;
use crate::trace::{total_ns, Span, PHASES};
use crate::workloads::WORKLOADS;
use simnet::stats::percentile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What a run measured, as the metric definitions read it. Host times
/// are floors (see `measure`); the traced fields are empty in an
/// untraced run.
pub struct Readings<'a> {
    /// Counts and simulated statistics of one rep (every rep's are equal).
    pub tally: &'a Tally,
    pub wall_ns: u64,
    pub setup_ns: u64,
    /// Per-cell wall floors, ascending, in milliseconds.
    pub cell_ms: &'a [f64],
    pub traced_wall_ns: u64,
    /// Span floors of the traced reps.
    pub spans: &'a [Span],
    pub cpu_s: f64,
    pub steal_frac: f64,
    pub calib_ms: f64,
    pub reps_discarded: usize,
}

type Definition = fn(&Readings) -> f64;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Readings<'_> {
    fn msgs(&self) -> f64 {
        self.tally.msgs_offered as f64
    }

    fn phase_ns(&self, phase: &str) -> f64 {
        total_ns(self.spans, phase) as f64
    }

    /// Geometric mean of the cells' p99 latencies, over the cells that
    /// completed anything: the grids mix underloaded cells (hundreds of
    /// µs) with saturated ones (tens of ms), and the median of such a
    /// bimodal set jumps 12–40 % from seed to seed where the geometric
    /// mean moves 1–5 %.
    fn p99_geomean_us(&self) -> f64 {
        let logs: Vec<f64> = self
            .tally
            .p99_us
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|p| p.ln())
            .collect();
        if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression.
    pub bound: f64,
    /// `compare` also tolerates this much in the metric's own unit:
    /// ten per cent of a 6 ms set-up is below what a clock can resolve.
    pub abs_floor: f64,
    /// Simulated statistics repeat exactly for a seed; `compare`
    /// demands equality of them and says so.
    pub exact: bool,
    pub value: Definition,
}

const fn host(
    name: &'static str,
    unit: &'static str,
    better: Better,
    (bound, abs_floor): (f64, f64),
    value: Definition,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        abs_floor,
        exact: false,
        value,
    }
}

const fn simulated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    value: Definition,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        abs_floor: 0.0,
        exact: true,
        value,
    }
}

/// The bounds on the simulated metrics are what the contract's relative
/// form can express: wide enough for the seed-to-seed spread, because
/// the driver varies the seed. Between two commits at one seed they
/// must be *equal*, which `compare` checks.
pub const END_TO_END: [EndToEnd; 8] = [
    host("wall_s", "s", Better::Lower, (0.20, 0.0), |r| {
        r.wall_ns as f64 / 1e9
    }),
    host(
        "sim_msgs_per_host_s",
        "msg/s",
        Better::Higher,
        (0.20, 0.0),
        |r| ratio(r.msgs(), r.wall_ns as f64 / 1e9),
    ),
    host("setup_s", "s", Better::Lower, (0.25, 0.05), |r| {
        r.setup_ns as f64 / 1e9
    }),
    host("peak_rss_mb", "MB", Better::Lower, (0.15, 2.0), |_| {
        peak_rss_mb()
    }),
    simulated(
        "sim_imiss_per_msg",
        "misses/msg",
        Better::Lower,
        0.05,
        |r| ratio(r.tally.imiss_weighted, r.msgs()),
    ),
    simulated(
        "sim_dmiss_per_msg",
        "misses/msg",
        Better::Lower,
        0.15,
        |r| ratio(r.tally.dmiss_weighted, r.msgs()),
    ),
    simulated("sim_p99_latency_us", "us", Better::Lower, 0.20, |r| {
        r.p99_geomean_us()
    }),
    simulated("sim_goodput_frac", "ratio", Better::Higher, 0.05, |r| {
        ratio(r.tally.msgs_completed as f64, r.msgs())
    }),
];

/// Per-layer metrics other than the phase times and the probes.
const LAYER_COUNTS: [(&str, &str, Better, Definition); 28] = [
    ("simnet.sim.run_ns_per_msg", "ns/msg", Better::Lower, |r| {
        ratio(r.phase_ns("simnet.sim.run"), r.tally.msgs_sim as f64)
    }),
    ("smp.sim.run_ns_per_msg", "ns/msg", Better::Lower, |r| {
        ratio(r.phase_ns("smp.sim.run"), r.tally.msgs_smp as f64)
    }),
    (
        "smp.sim.run_closed_ns_per_msg",
        "ns/msg",
        Better::Lower,
        |r| {
            ratio(
                r.phase_ns("smp.sim.run_closed"),
                r.tally.msgs_smp_closed as f64,
            )
        },
    ),
    ("cell_ms_p50", "ms", Better::Lower, |r| {
        percentile(r.cell_ms, 0.5)
    }),
    ("cell_ms_p90", "ms", Better::Lower, |r| {
        percentile(r.cell_ms, 0.9)
    }),
    ("cells", "count", Better::Higher, |r| r.tally.cells as f64),
    ("msgs_offered", "msg", Better::Higher, |r| r.msgs()),
    ("cachesim.replay.hits", "count", Better::Higher, |r| {
        r.tally.replay.hits as f64
    }),
    ("cachesim.replay.misses", "count", Better::Lower, |r| {
        r.tally.replay.misses as f64
    }),
    ("cachesim.replay.bypasses", "count", Better::Lower, |r| {
        r.tally.replay.bypasses as f64
    }),
    ("cachesim.replay.hit_rate", "ratio", Better::Higher, |r| {
        let s = r.tally.replay;
        ratio(s.hits as f64, (s.hits + s.misses + s.bypasses) as f64)
    }),
    (
        "cachesim.replay.misses_per_kmsg",
        "misses/kmsg",
        Better::Lower,
        |r| ratio(r.tally.replay.misses as f64 * 1e3, r.msgs()),
    ),
    (
        "cachesim.coherence.transfers",
        "count",
        Better::Lower,
        |r| r.tally.coh_transfers as f64,
    ),
    (
        "cachesim.coherence.invalidations",
        "count",
        Better::Lower,
        |r| r.tally.coh_invalidations as f64,
    ),
    (
        "cachesim.coherence.stall_cycles",
        "cycles",
        Better::Lower,
        |r| r.tally.coh_stall_cycles as f64,
    ),
    ("smp.handoff_msgs", "msg", Better::Lower, |r| {
        r.tally.handoff_msgs as f64
    }),
    ("smp.bp_stall_cycles", "cycles", Better::Lower, |r| {
        r.tally.bp_stall_cycles as f64
    }),
    ("simnet.closed.transmissions", "count", Better::Lower, |r| {
        r.tally.closed_transmissions as f64
    }),
    ("simnet.closed.retry_amp", "ratio", Better::Lower, |r| {
        ratio(
            r.tally.closed_transmissions as f64,
            r.tally.closed_requests as f64,
        )
    }),
    ("simnet.sim.mean_batch", "msg", Better::Higher, |r| {
        ratio(r.tally.batch_weighted, r.msgs())
    }),
    ("netstack.table.mean_probes", "count", Better::Lower, |r| {
        ratio(r.tally.table_probes as f64, r.tally.table_walks as f64)
    }),
    (
        "netstack.table.cache_hit_rate",
        "ratio",
        Better::Higher,
        |r| {
            let t = r.tally;
            ratio(
                t.table_cache_hits as f64,
                (t.table_cache_hits + t.table_walks) as f64,
            )
        },
    ),
    ("host.cpu_s", "s", Better::Lower, |r| r.cpu_s),
    ("host.steal_frac", "ratio", Better::Lower, |r| r.steal_frac),
    ("host.calib_ms", "ms", Better::Lower, |r| r.calib_ms),
    ("host.reps_discarded", "count", Better::Lower, |r| {
        r.reps_discarded as f64
    }),
    ("span_coverage_frac", "ratio", Better::Higher, |r| {
        ratio(
            PHASES.iter().map(|p| r.phase_ns(p)).sum(),
            r.traced_wall_ns as f64,
        )
    }),
    ("trace_overhead_frac", "ratio", Better::Lower, |r| {
        ratio(r.traced_wall_ns as f64, r.wall_ns as f64) - 1.0
    }),
];

/// Every per-layer metric in print order: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let phases = PHASES
        .iter()
        .map(|p| (format!("{p}_s"), "s", Better::Lower));
    let counts = LAYER_COUNTS
        .iter()
        .map(|&(n, u, b, _)| (n.to_string(), u, b));
    let probes = PROBES.iter().map(|&(n, u, _)| {
        let better = if n.ends_with("par_speedup_2t") {
            Better::Higher
        } else {
            Better::Lower
        };
        (n.to_string(), u, better)
    });
    phases.chain(counts).chain(probes).collect()
}

/// A run's metric values: `(name, value, unit)`.
pub type Values = Vec<(String, f64, &'static str)>;

pub fn end_to_end_values(r: &Readings) -> Values {
    END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), (m.value)(r), m.unit))
        .collect()
}

/// The per-layer values, in [`per_layer`] order. Runs the probes.
pub fn per_layer_values(r: &Readings) -> Values {
    let phases = PHASES
        .iter()
        .map(|p| (format!("{p}_s"), r.phase_ns(p) / 1e9, "s"));
    let counts = LAYER_COUNTS
        .iter()
        .map(|&(n, u, _, value)| (n.to_string(), value(r), u));
    let probes = PROBES
        .iter()
        .map(|&(n, u, probe)| (n.to_string(), probe(), u));
    phases.chain(counts).chain(probes).collect()
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 10;

/// The `BENCHMARK.json` document, generated so it cannot drift from the
/// tables above (`run.sh manifest` prints it; a test holds the committed
/// file to it).
pub fn manifest() -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    Value::obj([
        (
            "command",
            Value::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![s("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer()
                    .iter()
                    .map(|(name, unit, better)| {
                        Value::obj([
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            assert!(seen.insert(w.name.to_string()), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name.to_string()), "{} used twice", m.name);
        }
        let layers = per_layer();
        assert!(layers.len() <= 128);
        for (name, unit, _) in &layers {
            assert!(name_ok(name) && unit_ok(unit), "{name} [{unit}]");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().compact().len() < 64 * 1024);
    }

    #[test]
    fn printed_names_are_the_listed_names() {
        let tally = Tally {
            msgs_offered: 10,
            p99_us: vec![1.0, 0.0, 4.0],
            ..Tally::default()
        };
        let r = Readings {
            tally: &tally,
            wall_ns: 20,
            setup_ns: 3,
            cell_ms: &[5.0, 7.0],
            traced_wall_ns: 21,
            spans: &[],
            cpu_s: 0.0,
            steal_frac: 0.0,
            calib_ms: 0.0,
            reps_discarded: 0,
        };
        let e2e = end_to_end_values(&r);
        assert!(e2e.iter().all(|(_, v, _)| v.is_finite()));
        assert_eq!(e2e[6], ("sim_p99_latency_us".to_string(), 2.0, "us"));
        // What a traced run prints (this runs the probes) against what
        // the manifest lists.
        let printed = per_layer_values(&r);
        assert!(printed.iter().all(|(_, v, _)| v.is_finite()));
        let listed = per_layer();
        assert!(printed
            .iter()
            .map(|p| (&p.0, p.2))
            .eq(listed.iter().map(|l| (&l.0, l.1))));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
        );
    }
}
