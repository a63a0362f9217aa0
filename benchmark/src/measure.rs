//! One run of one workload: reps until the time budget is spent, then
//! the metrics.
//!
//! **How host times are estimated.** The box this runs on is a shared
//! two-core VM: the same rep measured 1.9 s and 3.2 s minutes apart, and
//! medians of six reps still spread 22 % between runs. The simulator is
//! deterministic, so rep *k* executes exactly the instructions rep 1
//! did, cell by cell; whatever a cell took beyond its fastest observed
//! time was the machine, not the code. Each host-time metric is
//! therefore the *floor*: for every cell the minimum over the run's
//! reps, summed over cells (plus the minimum reduce-and-export tail).
//! A disturbance has to hit the same 10 ms cell in every rep to get
//! through, which cut the run-to-run spread to 1–6 %. The rep-level
//! minimum, median and maximum are reported beside it.

use crate::metrics::{end_to_end_values, per_layer_values, Readings, Values};
use crate::timing::{calibrate_ms, cpu_ns, now_ns};
use crate::trace::Span;
use crate::workloads::{Rep, Size, Workload};
use simnet::stats::percentile;

pub struct Options {
    pub workload: &'static Workload,
    pub size: Size,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A rep and the host's state around it.
struct Sample {
    rep: Rep,
    traced: bool,
    cpu_ns: u64,
    /// Slowest calibration reading next to the rep, ms.
    calib_ms: f64,
}

impl Sample {
    /// Share of the rep's wall time this process was not on a CPU.
    fn steal_frac(&self) -> f64 {
        1.0 - (self.cpu_ns as f64 / self.rep.wall_ns.max(1) as f64).min(1.0)
    }

    /// The kernel advances `schedstat` at scheduler ticks (up to 4 ms
    /// apart), so only a rep of a quarter second or more resolves its
    /// off-CPU share well below [`MAX_STEAL_FRAC`]. `--quick` reps are
    /// shorter and are never set aside for it.
    fn stolen(&self) -> bool {
        self.rep.wall_ns >= 250_000_000 && self.steal_frac() > MAX_STEAL_FRAC
    }
}

/// A rep is set aside when the host visibly interfered with it.
const MAX_STEAL_FRAC: f64 = 0.05;
const MAX_CALIB_DRIFT: f64 = 0.10;
const MIN_REPS: usize = 3;
/// A run never outlasts this, whatever `--seconds` says.
const HARD_STOP_S: f64 = 150.0;

/// Lowest of a few back-to-back calibration readings.
fn calibration() -> f64 {
    (0..4).map(|_| calibrate_ms()).fold(f64::INFINITY, f64::min)
}

/// Position-wise minimum of equally long series.
fn floor_of<'a>(mut series: impl Iterator<Item = &'a [u64]>) -> Vec<u64> {
    let mut floor = series.next().map(<[u64]>::to_vec).unwrap_or_default();
    for s in series {
        for (f, &v) in floor.iter_mut().zip(s) {
            *f = (*f).min(v);
        }
    }
    floor
}

/// The floor estimate over a set of reps (see the module comment).
#[derive(Debug, Default, PartialEq)]
pub struct Floors {
    pub cell_ns: Vec<u64>,
    pub setup_ns: u64,
    pub wall_ns: u64,
}

pub fn floors(reps: &[&Rep]) -> Floors {
    let cell_ns = floor_of(reps.iter().map(|r| r.cell_ns.as_slice()));
    let setup_ns = floor_of(reps.iter().map(|r| r.cell_setup_ns.as_slice()))
        .iter()
        .sum();
    let tail_ns = reps
        .iter()
        .map(|r| r.wall_ns.saturating_sub(r.cell_ns.iter().sum()))
        .min()
        .unwrap_or(0);
    Floors {
        wall_ns: cell_ns.iter().sum::<u64>() + tail_ns,
        cell_ns,
        setup_ns,
    }
}

/// Floor duration of every span position over the traced reps, keyed by
/// the (identical) span structure of the first.
fn span_floors(reps: &[&Rep]) -> Vec<Span> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    let durs: Vec<Vec<u64>> = reps
        .iter()
        .map(|r| r.spans.iter().map(Span::dur_ns).collect())
        .collect();
    let floor = floor_of(durs.iter().map(Vec::as_slice));
    first
        .spans
        .iter()
        .zip(floor)
        .map(|(s, d)| Span {
            end_ns: s.start_ns + d,
            ..s.clone()
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMedMax {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

fn min_med_max(mut values: Vec<f64>) -> MinMedMax {
    values.sort_by(f64::total_cmp);
    MinMedMax {
        min: percentile(&values, 0.0),
        median: percentile(&values, 0.5),
        max: percentile(&values, 1.0),
    }
}

/// What a run reports.
pub struct Outcome {
    pub metrics: Values,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub reps: usize,
    pub reps_discarded: usize,
    /// Rep-level wall and set-up seconds over the accepted untraced reps.
    pub rep_wall_s: MinMedMax,
    pub rep_setup_s: MinMedMax,
    /// Spans of the last traced rep, for the trace file.
    pub spans: Vec<Span>,
}

/// Runs the workload for `opts.seconds` and computes the metrics of the
/// requested kind: end-to-end from untraced reps, or per-layer from
/// alternating untraced and traced reps plus the probes.
pub fn run(opts: &Options) -> Outcome {
    let t0 = now_ns();
    let elapsed_s = || (now_ns() - t0) as f64 / 1e9;
    let mut samples: Vec<Sample> = Vec::new();
    let mut calib_before = calibration();
    loop {
        // In a traced run every second rep is traced; the untraced ones
        // give the base the tracing overhead is measured against.
        let traced = opts.trace && samples.len() % 2 == 1;
        let cpu0 = cpu_ns();
        let rep = opts.workload.run_rep(opts.size, opts.seed, traced);
        let cpu_ns = cpu_ns() - cpu0;
        let calib_after = calibration();
        samples.push(Sample {
            rep,
            traced,
            cpu_ns,
            calib_ms: calib_before.max(calib_after),
        });
        calib_before = calib_after;
        let enough = samples.len() >= if opts.trace { 2 * MIN_REPS } else { MIN_REPS };
        if (elapsed_s() >= opts.seconds && enough) || elapsed_s() >= HARD_STOP_S {
            break;
        }
    }

    // The simulator is deterministic: every rep must have computed the
    // same thing, down to the last count.
    let first = &samples[0].rep;
    let repeatable = samples
        .iter()
        .all(|s| s.rep.digest == first.digest && s.rep.tally == first.tally);

    let best_calib = samples
        .iter()
        .map(|s| s.calib_ms)
        .fold(f64::INFINITY, f64::min);
    let quiet = |s: &Sample| !s.stolen() && s.calib_ms <= best_calib * (1.0 + MAX_CALIB_DRIFT);
    let pick = |traced: bool| -> Vec<&Sample> {
        let all: Vec<&Sample> = samples.iter().filter(|s| s.traced == traced).collect();
        let kept: Vec<&Sample> = all.iter().copied().filter(|s| quiet(s)).collect();
        if kept.len() >= MIN_REPS {
            kept
        } else {
            all
        }
    };
    let untraced = pick(false);
    let traced = pick(true);
    let reps_discarded = samples.len() - untraced.len() - traced.len();

    let reps: Vec<&Rep> = untraced.iter().map(|s| &s.rep).collect();
    let traced_reps: Vec<&Rep> = traced.iter().map(|s| &s.rep).collect();
    let base = floors(&reps);
    let tally = &first.tally;
    let secs = |ns: u64| ns as f64 / 1e9;
    let median_of = |read: fn(&Sample) -> f64| {
        let mut values: Vec<f64> = untraced.iter().map(|s| read(s)).collect();
        values.sort_by(f64::total_cmp);
        percentile(&values, 0.5)
    };
    let mut cell_ms: Vec<f64> = base.cell_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    cell_ms.sort_by(f64::total_cmp);
    let readings = Readings {
        tally,
        wall_ns: base.wall_ns,
        setup_ns: base.setup_ns,
        cell_ms: &cell_ms,
        traced_wall_ns: floors(&traced_reps).wall_ns,
        spans: &span_floors(&traced_reps),
        cpu_s: median_of(|s| s.cpu_ns as f64 / 1e9),
        steal_frac: median_of(Sample::steal_frac),
        calib_ms: median_of(|s| s.calib_ms),
        reps_discarded,
    };
    let metrics = if opts.trace {
        per_layer_values(&readings)
    } else {
        end_to_end_values(&readings)
    };

    Outcome {
        correct: repeatable
            && tally.failed_cells == 0
            && metrics.iter().all(|(_, v, _)| v.is_finite()),
        attempted: tally.cells * samples.len() as u64,
        failed: samples.iter().map(|s| s.rep.tally.failed_cells).sum(),
        digest: first.digest,
        reps: untraced.len() + traced.len(),
        reps_discarded,
        rep_wall_s: min_med_max(reps.iter().map(|r| secs(r.wall_ns)).collect()),
        rep_setup_s: min_med_max(
            reps.iter()
                .map(|r| secs(r.cell_setup_ns.iter().sum()))
                .collect(),
        ),
        spans: samples
            .iter()
            .rev()
            .find(|s| s.traced)
            .map(|s| s.rep.spans.clone())
            .unwrap_or_default(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::Tally;

    fn rep(wall_ns: u64, cells: &[(u64, u64)]) -> Rep {
        Rep {
            wall_ns,
            cell_setup_ns: cells.iter().map(|c| c.0).collect(),
            cell_ns: cells.iter().map(|c| c.1).collect(),
            spans: Vec::new(),
            tally: Tally::default(),
            digest: 0,
        }
    }

    #[test]
    fn floors_take_each_cell_at_its_fastest() {
        // Rep a was disturbed in cell 1, rep b in cell 0 and the tail.
        let a = rep(100 + 900 + 10, &[(10, 100), (50, 900)]);
        let b = rep(400 + 300 + 50, &[(40, 400), (20, 300)]);
        let f = floors(&[&a, &b]);
        assert_eq!(f.cell_ns, [100, 300]);
        assert_eq!(f.setup_ns, 10 + 20);
        assert_eq!(f.wall_ns, 100 + 300 + 10);
        // A single rep is its own floor.
        assert_eq!(floors(&[&a]).wall_ns, a.wall_ns);
    }
}
