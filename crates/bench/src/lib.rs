//! # bench — experiment harnesses
//!
//! One binary per table and figure of the paper (see DESIGN.md's
//! per-experiment index), plus Criterion microbenchmarks of the real code
//! paths. Each binary prints the paper's rows/series as an aligned table
//! and writes a CSV into `results/`.
//!
//! Common flags for the simulation figures:
//!
//! * `--seeds N` — random placements to average over (paper: 100;
//!   default here: 20 for a quick regeneration).
//! * `--duration S` — simulated seconds per (rate, seed) point
//!   (paper: 1.0; default: 1.0).
//! * `--out DIR` — output directory (default `results/`).
//! * `--threads N` — worker threads for the sweep runner (default: the
//!   `SMP_THREADS` environment variable, else all host cores). Output is
//!   byte-identical for every thread count; `--threads 1` is the serial
//!   reference path.

use std::io::Write;
use std::path::{Path, PathBuf};

/// Common experiment options parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Number of seeded random placements to average over.
    pub seeds: u64,
    /// Simulated duration per point, seconds.
    pub duration_s: f64,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Worker threads for the sweep runner; `None` defers to
    /// `SMP_THREADS`, then to the host's available parallelism.
    pub threads: Option<usize>,
    /// Reduced CI configuration (fewer grid points and seeds); binaries
    /// that honour it also write a `*_smoke.csv` so the golden file the
    /// CI compares against never collides with full results.
    pub smoke: bool,
    /// Write a chrome://tracing event file (`OUT_DIR/trace.json`) from a
    /// fully-traced representative run.
    pub trace: bool,
    /// Write deterministic per-layer metrics (`OUT_DIR/metrics.json`)
    /// accumulated over the whole sweep, merged in seed order — the file
    /// is byte-identical for every `--threads` count.
    pub metrics: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            seeds: 20,
            duration_s: 1.0,
            out_dir: PathBuf::from("results"),
            threads: None,
            smoke: false,
            trace: false,
            metrics: false,
        }
    }
}

impl RunOpts {
    /// Parses `--seeds`, `--duration`, `--out`, `--threads`, `--smoke`
    /// from `std::env::args`.
    pub fn from_args() -> Self {
        let mut opts = RunOpts::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--seeds" => {
                    opts.seeds = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--seeds needs a number"));
                    i += 2;
                }
                "--duration" => {
                    opts.duration_s = args
                        .get(i + 1)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--duration needs seconds"));
                    i += 2;
                }
                "--out" => {
                    opts.out_dir = args
                        .get(i + 1)
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--out needs a directory"));
                    i += 2;
                }
                "--threads" => {
                    opts.threads = Some(
                        args.get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| die("--threads needs a count")),
                    );
                    i += 2;
                }
                "--smoke" => {
                    opts.smoke = true;
                    i += 1;
                }
                "--trace" => {
                    opts.trace = true;
                    i += 1;
                }
                "--metrics" => {
                    opts.metrics = true;
                    i += 1;
                }
                other => die(&format!("unknown flag {other}")),
            }
        }
        if opts.seeds == 0 {
            die("--seeds must be at least 1");
        }
        opts
    }

    /// The worker-thread count this run will actually use.
    pub fn effective_threads(&self) -> usize {
        simnet::par::resolve_threads(self.threads)
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: <bin> [--seeds N] [--duration S] [--out DIR] [--threads N] [--smoke] \
         [--trace] [--metrics]"
    );
    std::process::exit(2);
}

/// Renders a CSV document as a string (exactly what [`write_csv`] puts on
/// disk — the determinism tests compare this text across thread counts).
pub fn csv_text(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut text = String::new();
    text.push_str(&header.join(","));
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    text
}

/// Writes a CSV file, creating the directory if needed.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let mut f = std::fs::File::create(path).expect("create CSV");
    f.write_all(csv_text(header, rows).as_bytes())
        .expect("write CSV");
    println!("wrote {}", path.display());
}

/// Prints an aligned text table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with `d` decimals.
pub fn f(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// The arrival-rate grid of Figures 5 and 6 (messages/second).
pub fn figure5_rates() -> Vec<f64> {
    (1..=20).map(|i| i as f64 * 500.0).collect()
}

/// The CPU-clock grid of Figure 7 (MHz).
pub fn figure7_clocks() -> Vec<f64> {
    vec![10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0, 70.0, 80.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_grids() {
        let r = figure5_rates();
        assert_eq!(r.first(), Some(&500.0));
        assert_eq!(r.last(), Some(&10_000.0));
        assert_eq!(r.len(), 20);
        assert_eq!(figure7_clocks().len(), 11);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(f(10.0, 0), "10");
    }

    #[test]
    fn perf_fragment_round_trips() {
        let text = perf::fragment_json("figure5", 8);
        assert_eq!(perf::json_u64(&text, "threads"), Some(8));
        assert!(perf::json_u64(&text, "replay_hits").is_some());
        assert_eq!(perf::json_u64(&text, "no_such_key"), None);
    }

    #[test]
    fn threads_flag_resolution() {
        let opts = RunOpts {
            threads: Some(3),
            ..RunOpts::default()
        };
        assert_eq!(opts.effective_threads(), 3);
        assert!(RunOpts::default().effective_threads() >= 1);
    }

    #[test]
    fn smoke_flag_defaults_off() {
        assert!(!RunOpts::default().smoke);
    }

    #[test]
    fn impairment_grid_shapes() {
        // 3 loss points x {iid, bursty} x 2 depths, minus the two
        // bursty-at-zero-loss cells; 6 loss points for the full grid.
        assert_eq!(impairments::grid(true).len(), 10);
        assert_eq!(impairments::grid(false).len(), 22);
        assert!(impairments::grid(false)
            .iter()
            .all(|c| !(c.bursty && c.loss_pct == 0.0)));
        let ch = impairments::cell_channel(
            impairments::ImpairCell {
                loss_pct: 5.0,
                bursty: true,
                reorder_depth: 8,
            },
            3,
        );
        assert_eq!(ch.drop_prob, 0.0, "bursty cells lose via the chain only");
        let ge = ch.gilbert.expect("bursty cell has a chain");
        assert!((ge.mean_loss() - 0.05).abs() < 1e-12);
        assert_eq!(ch.corrupt_prob, 0.025);
    }

    #[test]
    fn wire_exercise_clean_link_fires_no_exception_paths() {
        let w = impairments::wire_exercise(simnet::ImpairConfig::default());
        assert_eq!(w.checksum_rejects, 0);
        assert_eq!(w.ooo_buffered, 0);
        assert_eq!(w.reassembly_timeouts, 0);
    }

    #[test]
    fn wire_exercise_impaired_link_fires_them() {
        let w = impairments::wire_exercise(simnet::ImpairConfig {
            drop_prob: 0.10,
            corrupt_prob: 0.05,
            reorder_prob: 0.25,
            reorder_depth: 8,
            seed: 3,
            ..simnet::ImpairConfig::default()
        });
        assert!(w.tcp_retransmits > 0, "losses force TCP retransmission");
        assert!(w.checksum_rejects > 0, "byte flips are caught by checksums");
        let w2 = impairments::wire_exercise(simnet::ImpairConfig {
            drop_prob: 0.10,
            corrupt_prob: 0.05,
            reorder_prob: 0.25,
            reorder_depth: 8,
            seed: 3,
            ..simnet::ImpairConfig::default()
        });
        assert_eq!(w, w2, "the wire pass is deterministic");
    }

    #[test]
    fn csv_writing() {
        let dir = std::env::temp_dir().join("bench_csv_test");
        let path = dir.join("t.csv");
        write_csv(&path, &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        std::fs::remove_dir_all(dir).ok();
    }
}

pub mod perf {
    //! Process-wide apparatus-performance counters and the per-binary
    //! perf fragment consumed by `all_experiments`.
    //!
    //! Every simulation run harvests its machine's footprint-replay
    //! counters into process-wide atomics; a binary then writes one JSON
    //! fragment (`results/perf/<name>.json`) which `all_experiments`
    //! merges — together with the wall time it measured for the child —
    //! into `results/perf_summary.json`.

    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);
    static BYPASSES: AtomicU64 = AtomicU64::new(0);
    /// First bypass reason any harvested machine reported. Stays unset
    /// when every machine replayed cleanly, so the fragment's
    /// `bypass_reason` is `null` exactly when `replay_bypasses` is an
    /// honest zero.
    static BYPASS_REASON: OnceLock<&'static str> = OnceLock::new();

    /// Folds one machine's replay counters into the process totals.
    pub fn note_replay(s: &cachesim::ReplayStats) {
        HITS.fetch_add(s.hits, Ordering::Relaxed);
        MISSES.fetch_add(s.misses, Ordering::Relaxed);
        BYPASSES.fetch_add(s.bypasses, Ordering::Relaxed);
    }

    /// Folds one machine's replay counters *and* its bypass reason into
    /// the process totals. Prefer this over [`note_replay`] whenever the
    /// machine itself is at hand: a config the memoizer can never serve
    /// (unified cache, board cache) then shows up in the perf fragment
    /// as a named reason instead of a silent zero.
    pub fn note_machine(m: &cachesim::Machine) {
        note_replay(&m.replay_stats());
        if let Some(why) = m.replay_bypass_reason().or_else(|| m.replay_ineligibility()) {
            let _ = BYPASS_REASON.set(why);
        }
    }

    /// The first bypass reason harvested so far, if any.
    pub fn bypass_reason() -> Option<&'static str> {
        BYPASS_REASON.get().copied()
    }

    /// The process-wide replay totals accumulated so far.
    pub fn replay_totals() -> cachesim::ReplayStats {
        cachesim::ReplayStats {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            bypasses: BYPASSES.load(Ordering::Relaxed),
        }
    }

    /// Renders the fragment JSON for a binary.
    pub fn fragment_json(name: &str, threads: usize) -> String {
        let t = replay_totals();
        let reason = match bypass_reason() {
            Some(why) => format!("\"{why}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"name\": \"{}\",\n  \"threads\": {},\n  \"replay_hits\": {},\n  \
             \"replay_misses\": {},\n  \"replay_bypasses\": {},\n  \"bypass_reason\": {},\n  \
             \"replay_hit_rate\": {:.4}\n}}\n",
            name,
            threads,
            t.hits,
            t.misses,
            t.bypasses,
            reason,
            t.hit_rate()
        )
    }

    /// Writes `OUT_DIR/perf/<name>.json` with this process's replay
    /// totals and thread count.
    pub fn write_fragment(out_dir: &Path, name: &str, threads: usize) {
        let dir = out_dir.join("perf");
        std::fs::create_dir_all(&dir).expect("create perf directory");
        std::fs::write(dir.join(format!("{name}.json")), fragment_json(name, threads))
            .expect("write perf fragment");
    }

    /// Pulls an integer field out of a fragment (good enough for the
    /// JSON this module itself writes).
    pub fn json_u64(text: &str, key: &str) -> Option<u64> {
        let pat = format!("\"{key}\":");
        let at = text.find(&pat)? + pat.len();
        let rest = text[at..].trim_start();
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Pulls a string field out of a fragment; `None` for a `null`
    /// value or an absent key (same caveats as [`json_u64`]).
    pub fn json_str(text: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":");
        let at = text.find(&pat)? + pat.len();
        let rest = text[at..].trim_start();
        let inner = rest.strip_prefix('"')?;
        let end = inner.find('"')?;
        inner.get(..end).map(str::to_string)
    }
}

pub mod sweep {
    //! Shared sweep runners for the simulation figures.
    //!
    //! All runners fan their independent (point, seed) jobs across
    //! `opts.effective_threads()` workers via [`simnet::par::run_indexed`]
    //! and reduce in deterministic seed order, so every CSV is
    //! byte-identical to a `--threads 1` run.

    use crate::RunOpts;
    use cachesim::MachineConfig;
    use ldlp::synth::paper_stack;
    use ldlp::{BatchPolicy, Discipline, StackEngine};
    use simnet::par::run_indexed;
    use simnet::stats::SimReport;
    use simnet::traffic::{Arrival, PoissonSource, SelfSimilarSource, TrafficSource};
    use simnet::{run_sim, SimConfig};

    /// One rate/clock point: averaged reports for the disciplines.
    #[derive(Debug, Clone)]
    pub struct SweepPoint {
        /// The swept parameter (arrival rate or clock MHz).
        pub x: f64,
        pub conventional: SimReport,
        pub ldlp: SimReport,
        /// Integrated layer processing — the prior art the paper contrasts
        /// with: helps data-heavy large messages, not small-message code
        /// locality. Populated by the Poisson sweep only.
        pub ilp: Option<SimReport>,
    }

    /// Runs one (engine-discipline, arrivals) pair on a fresh stack.
    pub fn run_once(
        cfg: MachineConfig,
        discipline: Discipline,
        placement_seed: u64,
        arrivals: &[Arrival],
        duration_s: f64,
    ) -> SimReport {
        run_once_with_sink(
            cfg,
            discipline,
            placement_seed,
            arrivals,
            duration_s,
            obs::Sink::Off,
            "",
        )
        .0
    }

    /// [`run_once`] with an observability sink attached to the engine for
    /// the duration of the run; events are interned as `<prefix><name>`.
    /// Returns the sink so one recorder can thread through several runs.
    pub fn run_once_with_sink(
        cfg: MachineConfig,
        discipline: Discipline,
        placement_seed: u64,
        arrivals: &[Arrival],
        duration_s: f64,
        sink: obs::Sink,
        prefix: &str,
    ) -> (SimReport, obs::Sink) {
        let (machine, layers) = paper_stack(cfg, placement_seed);
        let mut engine = StackEngine::new(machine, layers, discipline);
        engine.set_sink(sink, prefix);
        let sim_cfg = SimConfig {
            duration_s,
            pool_seed: placement_seed,
            ..SimConfig::default()
        };
        let report = run_sim(&mut engine, arrivals, &sim_cfg);
        crate::perf::note_machine(engine.machine());
        (report, engine.take_sink())
    }

    /// Runs `run(seed)` for seeds `1..=opts.seeds` across the worker
    /// pool and returns the per-seed results in seed order.
    pub fn per_seed<T, R>(opts: &RunOpts, run: R) -> Vec<T>
    where
        T: Send,
        R: Fn(u64) -> T + Sync,
    {
        run_indexed(opts.seeds as usize, opts.effective_threads(), |i| {
            run(i as u64 + 1)
        })
    }

    /// Averages `run(seed)` reports over `1..=opts.seeds`, fanned across
    /// the worker pool; the reduction folds in seed order so the average
    /// is identical for any thread count.
    pub fn seed_average<R>(opts: &RunOpts, run: R) -> SimReport
    where
        R: Fn(u64) -> SimReport + Sync,
    {
        SimReport::average(&per_seed(opts, run)).expect("at least one seed")
    }

    /// Figures 5 and 6: Poisson arrivals of 552-byte messages across the
    /// rate grid, conventional vs. LDLP, averaged over placements. Each
    /// (rate, seed) pair is one parallel job covering all three
    /// disciplines on the same arrival stream.
    pub fn poisson_sweep(opts: &RunOpts, cfg: MachineConfig, rates: &[f64]) -> Vec<SweepPoint> {
        poisson_sweep_observed(opts, cfg, rates, false).0
    }

    /// [`poisson_sweep`] with optional metrics recording: when `observe`
    /// is set, every (rate, seed) job runs with a metrics-mode sink and
    /// the per-job recorders are merged in job-index order — so the
    /// merged histograms are identical for every worker-thread count.
    pub fn poisson_sweep_observed(
        opts: &RunOpts,
        cfg: MachineConfig,
        rates: &[f64],
        observe: bool,
    ) -> (Vec<SweepPoint>, Option<Box<obs::Recorder>>) {
        type Job = (SimReport, SimReport, SimReport, Option<Box<obs::Recorder>>);
        let seeds = opts.seeds as usize;
        let mut runs: Vec<Job> = run_indexed(rates.len() * seeds, opts.effective_threads(), |i| {
            let rate = rates[i / seeds];
            let seed = (i % seeds) as u64 + 1;
            let arrivals = PoissonSource::new(rate, 552, seed).take_until(opts.duration_s);
            let sink = if observe {
                obs::Sink::record(false)
            } else {
                obs::Sink::Off
            };
            let (conv, sink) =
                run_once_with_sink(cfg, Discipline::Conventional, seed, &arrivals, opts.duration_s, sink, "conv/");
            let (ldlp, sink) = run_once_with_sink(
                cfg,
                Discipline::Ldlp(BatchPolicy::DCacheFit),
                seed,
                &arrivals,
                opts.duration_s,
                sink,
                "ldlp/",
            );
            let (ilp, sink) =
                run_once_with_sink(cfg, Discipline::Ilp, seed, &arrivals, opts.duration_s, sink, "ilp/");
            (conv, ldlp, ilp, sink.into_recorder())
        });
        let merged = merge_recorders(runs.iter_mut().map(|r| r.3.take()));
        let points = rates
            .iter()
            .enumerate()
            .map(|(ri, &rate)| {
                let chunk = &runs[ri * seeds..(ri + 1) * seeds];
                let pick = |sel: fn(&Job) -> &SimReport| {
                    SimReport::average(&chunk.iter().map(|r| sel(r).clone()).collect::<Vec<_>>())
                        .expect("at least one seed")
                };
                SweepPoint {
                    x: rate,
                    conventional: pick(|r| &r.0),
                    ldlp: pick(|r| &r.1),
                    ilp: Some(pick(|r| &r.2)),
                }
            })
            .collect();
        (points, merged)
    }

    /// Folds per-job recorders into one, in job-index order (the jobs ran
    /// on worker threads, but `run_indexed` returns them in index order,
    /// so the fold is deterministic for any thread count).
    pub(crate) fn merge_recorders(
        recorders: impl Iterator<Item = Option<Box<obs::Recorder>>>,
    ) -> Option<Box<obs::Recorder>> {
        let mut merged: Option<Box<obs::Recorder>> = None;
        for rec in recorders.flatten() {
            match merged.as_mut() {
                None => merged = Some(rec),
                Some(m) => m.merge(&rec),
            }
        }
        merged
    }

    /// Figure 7: trace-driven self-similar traffic at a fixed offered
    /// load, sweeping the CPU clock.
    pub fn clock_sweep(opts: &RunOpts, base: MachineConfig, clocks: &[f64]) -> Vec<SweepPoint> {
        clock_sweep_observed(opts, base, clocks, false).0
    }

    type ClockJob = (SimReport, SimReport, Option<Box<obs::Recorder>>);

    /// [`clock_sweep`] with optional metrics recording, merged in
    /// job-index order like [`poisson_sweep_observed`].
    pub fn clock_sweep_observed(
        opts: &RunOpts,
        base: MachineConfig,
        clocks: &[f64],
        observe: bool,
    ) -> (Vec<SweepPoint>, Option<Box<obs::Recorder>>) {
        let seeds = opts.seeds as usize;
        let mut runs = run_indexed(clocks.len() * seeds, opts.effective_threads(), |i| {
            let cfg = base.with_clock_mhz(clocks[i / seeds]);
            let seed = (i % seeds) as u64 + 1;
            let arrivals = SelfSimilarSource::bellcore_like(seed).take_until(opts.duration_s);
            let sink = if observe {
                obs::Sink::record(false)
            } else {
                obs::Sink::Off
            };
            let (conv, sink) =
                run_once_with_sink(cfg, Discipline::Conventional, seed, &arrivals, opts.duration_s, sink, "conv/");
            let (ldlp, sink) = run_once_with_sink(
                cfg,
                Discipline::Ldlp(BatchPolicy::DCacheFit),
                seed,
                &arrivals,
                opts.duration_s,
                sink,
                "ldlp/",
            );
            (conv, ldlp, sink.into_recorder())
        });
        let merged = merge_recorders(runs.iter_mut().map(|r| r.2.take()));
        let points = clocks
            .iter()
            .enumerate()
            .map(|(ci, &mhz)| {
                let chunk = &runs[ci * seeds..(ci + 1) * seeds];
                let avg = |sel: fn(&ClockJob) -> &SimReport| {
                    SimReport::average(&chunk.iter().map(|r| sel(r).clone()).collect::<Vec<_>>())
                        .expect("at least one seed")
                };
                SweepPoint {
                    x: mhz,
                    conventional: avg(|r| &r.0),
                    ldlp: avg(|r| &r.1),
                    ilp: None,
                }
            })
            .collect();
        (points, merged)
    }

    /// One fully-traced run per discipline at a single representative
    /// point (seed 1), for the chrome://tracing export. Returns
    /// `(process name, recorder)` pairs in a fixed order.
    pub fn traced_poisson_runs(
        opts: &RunOpts,
        cfg: MachineConfig,
        rate: f64,
    ) -> Vec<(&'static str, Box<obs::Recorder>)> {
        let arrivals = PoissonSource::new(rate, 552, 1).take_until(opts.duration_s);
        let runs: [(Discipline, &'static str, &'static str); 3] = [
            (Discipline::Conventional, "conventional", "conv/"),
            (Discipline::Ldlp(BatchPolicy::DCacheFit), "ldlp", "ldlp/"),
            (Discipline::Ilp, "ilp", "ilp/"),
        ];
        runs.into_iter()
            .map(|(d, name, prefix)| {
                let (_, sink) = run_once_with_sink(
                    cfg,
                    d,
                    1,
                    &arrivals,
                    opts.duration_s,
                    obs::Sink::record(true),
                    prefix,
                );
                (name, sink.into_recorder().expect("sink was attached"))
            })
            .collect()
    }

    /// Like [`traced_poisson_runs`] but over the self-similar trace
    /// source at one clock speed (conventional and LDLP only, matching
    /// the Figure 7 sweep).
    pub fn traced_clock_runs(
        opts: &RunOpts,
        base: MachineConfig,
        clock_mhz: f64,
    ) -> Vec<(&'static str, Box<obs::Recorder>)> {
        let cfg = base.with_clock_mhz(clock_mhz);
        let arrivals = SelfSimilarSource::bellcore_like(1).take_until(opts.duration_s);
        let runs: [(Discipline, &'static str, &'static str); 2] = [
            (Discipline::Conventional, "conventional", "conv/"),
            (Discipline::Ldlp(BatchPolicy::DCacheFit), "ldlp", "ldlp/"),
        ];
        runs.into_iter()
            .map(|(d, name, prefix)| {
                let (_, sink) = run_once_with_sink(
                    cfg,
                    d,
                    1,
                    &arrivals,
                    opts.duration_s,
                    obs::Sink::record(true),
                    prefix,
                );
                (name, sink.into_recorder().expect("sink was attached"))
            })
            .collect()
    }
}

pub mod obs_io {
    //! Exporters for the observability layer: a chrome://tracing event
    //! file and a deterministic per-run metrics JSON, both written into
    //! the experiment's output directory behind `--trace` / `--metrics`.

    use obs::{Recorder, TracePart};
    use std::path::Path;

    /// Writes `OUT_DIR/trace.json` (chrome trace-event format — open
    /// chrome://tracing or https://ui.perfetto.dev and load the file).
    pub fn write_trace(out_dir: &Path, parts: &[TracePart]) {
        std::fs::create_dir_all(out_dir).expect("create output directory");
        let path = out_dir.join("trace.json");
        std::fs::write(&path, obs::trace::chrome_trace_json(parts)).expect("write trace JSON");
        println!("wrote {} (load in chrome://tracing)", path.display());
    }

    /// Writes `OUT_DIR/metrics.json`. The meta block deliberately
    /// excludes the worker-thread count: the file must be byte-identical
    /// for every `--threads` value.
    pub fn write_metrics(out_dir: &Path, meta: &[(&str, String)], rec: &Recorder) {
        std::fs::create_dir_all(out_dir).expect("create output directory");
        let path = out_dir.join("metrics.json");
        std::fs::write(&path, obs::metrics::metrics_json(meta, rec)).expect("write metrics JSON");
        println!("wrote {}", path.display());
    }

    /// The standard meta block for a sweep binary.
    pub fn run_meta(experiment: &str, opts: &crate::RunOpts) -> Vec<(&'static str, String)> {
        vec![
            ("experiment", experiment.to_string()),
            ("seeds", opts.seeds.to_string()),
            ("duration_s", format!("{}", opts.duration_s)),
            ("smoke", opts.smoke.to_string()),
        ]
    }
}

pub mod impairments {
    //! The saturated-path impairment sweep (`results/impairments.csv`):
    //! the signalling workload rerun across a lossy channel with
    //! retransmission enabled, LDLP vs. conventional, over loss rates
    //! 0–10% (i.i.d. and Gilbert–Elliott bursty) and reorder depths.
    //! Every cell also drives real wire frames through the same
    //! impairment model at the netstack level, so the CSV records which
    //! exception paths fired: checksum rejection, TCP out-of-order
    //! buffering and retransmission, and IP reassembly timeout.

    use crate::{f, RunOpts};
    use ldlp::{BatchPolicy, Discipline, StackEngine};
    use netstack::iface::{Channel, Device, Interface};
    use netstack::ipfrag::REASSEMBLY_TIMEOUT_MS;
    use netstack::tcp::machine::{TcpConfig, TcpEvent, TcpStack};
    use netstack::tcp::pcb::TcpState;
    use netstack::wire::ethernet::EthernetAddr;
    use netstack::wire::ipv4::Ipv4Addr;
    use signaling::workload::{goal_machine, signaling_stack};
    use signaling::{lossy_call_arrivals, LossyCallConfig, RecoveryStats, RetryPolicy};
    use simnet::impair::{reorder_deliveries, GilbertElliott, ImpairConfig, ImpairState};
    use simnet::par::run_indexed;
    use simnet::stats::SimReport;
    use simnet::{run_sim_impaired, SimConfig};

    /// Call-attempt rate of the sweep: near the goal machine's knee, so
    /// the impairments act on a loaded switch rather than an idle one.
    pub const PAIRS_PER_S: f64 = 8_000.0;
    /// Mean call hold time, seconds (RELEASE follows SETUP by this).
    pub const HOLD_S: f64 = 0.02;

    /// One cell of the impairment grid.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct ImpairCell {
        /// Mean packet loss, percent.
        pub loss_pct: f64,
        /// Losses clustered by the Gilbert–Elliott chain instead of
        /// falling independently.
        pub bursty: bool,
        /// NIC-queue reorder depth (0 = in-order delivery).
        pub reorder_depth: usize,
    }

    /// The sweep grid: loss points x {i.i.d., bursty} x reorder depths.
    /// The bursty variant is skipped at zero loss (it would be identical
    /// to the i.i.d. row).
    pub fn grid(smoke: bool) -> Vec<ImpairCell> {
        let loss_pct: &[f64] = if smoke {
            &[0.0, 2.0, 10.0]
        } else {
            &[0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
        };
        let mut cells = Vec::new();
        for &loss in loss_pct {
            for bursty in [false, true] {
                if bursty && loss == 0.0 {
                    continue;
                }
                for depth in [0usize, 8] {
                    cells.push(ImpairCell {
                        loss_pct: loss,
                        bursty,
                        reorder_depth: depth,
                    });
                }
            }
        }
        cells
    }

    /// The channel a cell stands for. Corruption scales with the loss
    /// rate (half of it), so the checksum-reject path is exercised in
    /// every impaired cell; bursty cells lose the same mean fraction in
    /// runs of ~4 packets.
    pub fn cell_channel(cell: ImpairCell, seed: u64) -> ImpairConfig {
        let loss = cell.loss_pct / 100.0;
        ImpairConfig {
            drop_prob: if cell.bursty { 0.0 } else { loss },
            gilbert: cell
                .bursty
                .then(|| GilbertElliott::bursty(loss, 4.0, 0.5)),
            corrupt_prob: loss / 2.0,
            seed,
            ..ImpairConfig::default()
        }
    }

    /// Exception-path counters from the wire-level pass.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct WireCounters {
        /// Frames rejected by a checksum after a payload byte flip.
        pub checksum_rejects: u64,
        /// TCP segments retransmitted to cover losses.
        pub tcp_retransmits: u64,
        /// TCP segments buffered past a receive gap.
        pub ooo_buffered: u64,
        /// IP reassemblies reclaimed by the timer after fragment loss.
        pub reassembly_timeouts: u64,
        /// IP reassemblies displaced by a newer datagram when the
        /// per-host reassembly table was full (distinct from timeouts).
        pub reassembly_evictions: u64,
    }

    /// A link-layer [`Device`] with the impairment channel on its
    /// transmit side: frames are dropped, corrupted (one byte flipped
    /// mid-frame, exactly what a checksum must catch), duplicated, or
    /// held back `reorder_slip` deliveries. `netstack` cannot depend on
    /// `simnet`, so the adapter lives here in the harness.
    pub struct ImpairedDevice<D: Device> {
        inner: D,
        chan: ImpairState,
        /// Held (reordered) frames: (deliveries still to pass them, frame).
        held: Vec<(usize, Vec<u8>)>,
    }

    impl<D: Device> ImpairedDevice<D> {
        /// Wraps `inner` with the impairment channel `cfg`.
        pub fn new(inner: D, cfg: ImpairConfig) -> Self {
            ImpairedDevice {
                inner,
                chan: ImpairState::new(cfg),
                held: Vec::new(),
            }
        }

        /// Channel counters accumulated so far.
        pub fn counters(&self) -> simnet::ImpairCounters {
            self.chan.counters()
        }

        /// A frame is being delivered: held frames each move one slot
        /// closer and any that are due go out ahead of it.
        fn advance_held(&mut self) {
            let mut i = 0;
            while i < self.held.len() {
                self.held[i].0 -= 1;
                if self.held[i].0 == 0 {
                    let (_, frame) = self.held.remove(i);
                    self.inner.transmit(frame);
                } else {
                    i += 1;
                }
            }
        }
    }

    impl<D: Device> Device for ImpairedDevice<D> {
        fn transmit(&mut self, mut frame: Vec<u8>) {
            let fate = self.chan.next_fate();
            if fate.dropped {
                return;
            }
            if fate.corrupted {
                let mid = frame.len() / 2;
                if let Some(b) = frame.get_mut(mid) {
                    *b ^= 0xff;
                }
            }
            // Same release rule as `simnet::impair`: every frame
            // crossing the channel advances the held ones, so holds are
            // bounded even if every frame reorders.
            self.advance_held();
            if fate.reorder_slip > 0 {
                self.held.push((fate.reorder_slip, frame));
                return;
            }
            let dup = fate.duplicated.then(|| frame.clone());
            self.inner.transmit(frame);
            if let Some(copy) = dup {
                self.inner.transmit(copy);
            }
        }

        fn receive(&mut self) -> Option<Vec<u8>> {
            self.inner.receive()
        }
    }

    fn wire_host(n: u8) -> Interface {
        Interface::new(
            EthernetAddr([2, 0, 0, 0, 0, n]),
            Ipv4Addr::new(192, 168, 96, n),
            TcpStack::new(TcpConfig::default()),
        )
    }

    /// How many fragmented UDP datagrams [`wire_exercise`] sends. Each
    /// fragments into three frames, so together with the TCP transfer
    /// the exchange pushes enough frames that a corruption probability
    /// of a few percent reliably trips a checksum somewhere.
    pub const WIRE_UDP_DATAGRAMS: usize = 24;

    /// Drives a 4 KB TCP transfer and fragmented UDP datagrams
    /// across an impaired link and reports which exception paths fired.
    /// TCP recovers losses by retransmission; fragments stranded by a
    /// lost sibling are reclaimed by the reassembly timer at the end.
    /// Completion is not asserted — at the heaviest impairment the
    /// point is precisely how much recovery work was needed — and the
    /// whole exchange is deterministic for a given channel config.
    pub fn wire_exercise(cfg: ImpairConfig) -> WireCounters {
        wire_exercise_with_sink(cfg, obs::Sink::Off).0
    }

    /// [`wire_exercise`] with an observability sink on the receiving
    /// interface: instant events (`wire/frame_in`, `wire/parse_error`,
    /// `wire/fragment_in`, …) stamped in milliseconds of link time.
    pub fn wire_exercise_with_sink(cfg: ImpairConfig, sink: obs::Sink) -> (WireCounters, obs::Sink) {
        let (ad, bd) = Channel::pair();
        let mut ad = ImpairedDevice::new(ad, cfg);
        let mut bd = ImpairedDevice::new(
            bd,
            ImpairConfig {
                seed: cfg.seed.wrapping_add(1),
                ..cfg
            },
        );
        let mut a = wire_host(1);
        let mut b = wire_host(2);
        b.set_sink(sink, "wire/");
        let (a_ip, a_mac, b_ip, b_mac) = (a.ip(), a.mac(), b.ip(), b.mac());
        a.add_arp_entry(b_ip, b_mac);
        b.add_arp_entry(a_ip, a_mac);
        b.udp_bind(4000).unwrap();
        b.tcp.listen(b_ip, 9).unwrap();
        let conn = a.tcp.connect(a_ip, b_ip, 9, 0).unwrap();

        let payload: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let (mut sent, mut received, mut udp_sent) = (0usize, 0usize, 0usize);
        let mut srv = None;
        let mut buf = [0u8; 2048];
        let mut now: u64 = 0;
        while now < 120_000 {
            // Pump both directions until quiet (bounded: duplicates and
            // releases of held frames can extend an exchange).
            for _ in 0..200 {
                let n = a.poll(&mut ad, now) + b.poll(&mut bd, now);
                a.flush_tcp(&mut ad);
                b.flush_tcp(&mut bd);
                if n == 0 {
                    break;
                }
            }
            if srv.is_none() {
                srv = b
                    .tcp
                    .take_events()
                    .iter()
                    .find_map(|(id, e)| matches!(e, TcpEvent::Accepted { .. }).then_some(*id));
            }
            if a.tcp.state(conn) == TcpState::Established && sent < payload.len() {
                sent += a
                    .tcp
                    .send(conn, &payload[sent..(sent + 1000).min(payload.len())], now)
                    .unwrap_or(0);
                a.flush_tcp(&mut ad);
            }
            if let Some(s) = srv {
                while let Ok(n) = b.tcp.recv(s, &mut buf) {
                    if n == 0 {
                        break;
                    }
                    received += n;
                }
            }
            if udp_sent < WIRE_UDP_DATAGRAMS {
                // A 3000-byte datagram fragments into three frames; any
                // lost fragment strands its siblings until the timer.
                a.udp_send(&mut ad, 4001, b_ip, 4000, &[0xab; 3000]);
                udp_sent += 1;
            }
            while b.udp_recv(4000).is_some() {}
            if received >= payload.len() && udp_sent >= WIRE_UDP_DATAGRAMS {
                break;
            }
            now += 1100; // step past the TCP RTO so losses retransmit
            a.tcp.poll(now);
            b.tcp.poll(now);
            a.flush_tcp(&mut ad);
            b.flush_tcp(&mut bd);
        }
        // One idle poll far enough out for stranded reassemblies to expire.
        let end = now + REASSEMBLY_TIMEOUT_MS + 1;
        a.poll(&mut ad, end);
        b.poll(&mut bd, end);
        let counters = WireCounters {
            checksum_rejects: a.stats().parse_errors + b.stats().parse_errors,
            tcp_retransmits: a.tcp.stats().retransmits + b.tcp.stats().retransmits,
            ooo_buffered: a.tcp.stats().ooo_buffered + b.tcp.stats().ooo_buffered,
            reassembly_timeouts: a.reassembly_stats().timeouts + b.reassembly_stats().timeouts,
            reassembly_evictions: a.reassembly_stats().evictions + b.reassembly_stats().evictions,
        };
        (counters, b.take_sink())
    }

    /// One finished cell: seed-averaged reports for both disciplines,
    /// recovery bookkeeping summed across seeds, and the wire-level
    /// exception-path counters.
    #[derive(Debug, Clone)]
    pub struct ImpairPoint {
        pub cell: ImpairCell,
        pub conventional: SimReport,
        pub ldlp: SimReport,
        /// Summed over seeds (totals, not means).
        pub recovery: RecoveryStats,
        pub wire: WireCounters,
    }

    fn fold_recovery(into: &mut RecoveryStats, s: &RecoveryStats) {
        into.calls += s.calls;
        into.connected += s.connected;
        into.abandoned += s.abandoned;
        into.transmissions += s.transmissions;
        into.retransmits += s.retransmits;
        into.releases_sent += s.releases_sent;
        into.abandon_releases += s.abandon_releases;
        into.exhausted_sends += s.exhausted_sends;
    }

    fn run_discipline(
        discipline: Discipline,
        seed: u64,
        deliveries: &[simnet::ImpairedArrival],
        net: simnet::ImpairCounters,
        duration_s: f64,
    ) -> SimReport {
        run_discipline_with_sink(discipline, seed, deliveries, net, duration_s, obs::Sink::Off, "").0
    }

    fn run_discipline_with_sink(
        discipline: Discipline,
        seed: u64,
        deliveries: &[simnet::ImpairedArrival],
        net: simnet::ImpairCounters,
        duration_s: f64,
        sink: obs::Sink,
        prefix: &str,
    ) -> (SimReport, obs::Sink) {
        let (machine, layers) = signaling_stack(goal_machine(), seed);
        // AAL5 (layer 0) carries the CRC-32, so corrupted deliveries die
        // there after costing exactly one layer of processing.
        let mut engine = StackEngine::new(machine, layers, discipline).with_verify_layer(0);
        engine.set_sink(sink, prefix);
        let sim_cfg = SimConfig {
            duration_s,
            pool_seed: seed,
            ..SimConfig::default()
        };
        let report = run_sim_impaired(&mut engine, deliveries, &sim_cfg, net);
        crate::perf::note_machine(engine.machine());
        assert!(
            report.conservation_holds(),
            "conservation violated: {report:?}"
        );
        (report, engine.take_sink())
    }

    /// The representative cell the `--trace`/`--metrics` pass reruns at
    /// seed 1: mid-grid loss with reordering, present in both the smoke
    /// and full grids.
    pub const OBSERVED_CELL: ImpairCell = ImpairCell {
        loss_pct: 2.0,
        bursty: false,
        reorder_depth: 8,
    };

    /// Reruns [`OBSERVED_CELL`] with sinks attached: the signalling
    /// workload under both disciplines shares one recorder (cycle
    /// timestamps), and the wire-level exchange gets its own (millisecond
    /// timestamps). Returns `(sim recorder, wire recorder)`.
    pub fn observed_cell(
        duration_s: f64,
        collect_spans: bool,
    ) -> (Box<obs::Recorder>, Box<obs::Recorder>) {
        let cell = OBSERVED_CELL;
        let seed = 1;
        let cfg = LossyCallConfig {
            pairs_per_s: PAIRS_PER_S,
            hold_s: HOLD_S,
            duration_s,
            seed,
            channel: cell_channel(cell, seed),
            retry: RetryPolicy::default(),
        };
        let (deliveries, counters, _stats) = lossy_call_arrivals(&cfg);
        let sink = obs::Sink::record(collect_spans);
        let (_, sink) = run_discipline_with_sink(
            Discipline::Conventional,
            seed,
            &deliveries,
            counters,
            duration_s,
            sink,
            "conv/",
        );
        let (_, sink) = run_discipline_with_sink(
            Discipline::Ldlp(BatchPolicy::DCacheFit),
            seed,
            &deliveries,
            counters,
            duration_s,
            sink,
            "ldlp/",
        );
        let sim_rec = sink.into_recorder().expect("sink was attached");
        let (_, wire_sink) = wire_exercise_with_sink(
            ImpairConfig {
                reorder_prob: 0.25,
                reorder_depth: cell.reorder_depth,
                ..cell_channel(cell, 0x0eed)
            },
            obs::Sink::record(collect_spans),
        );
        let wire_rec = wire_sink.into_recorder().expect("sink was attached");
        (sim_rec, wire_rec)
    }

    fn run_cell(cell: ImpairCell, seeds: u64, duration_s: f64) -> ImpairPoint {
        let mut conv = Vec::new();
        let mut ldlp = Vec::new();
        let mut recovery = RecoveryStats::default();
        for seed in 1..=seeds {
            let cfg = LossyCallConfig {
                pairs_per_s: PAIRS_PER_S,
                hold_s: HOLD_S,
                duration_s,
                seed,
                channel: cell_channel(cell, seed),
                retry: RetryPolicy::default(),
            };
            let (mut deliveries, mut counters, stats) = lossy_call_arrivals(&cfg);
            fold_recovery(&mut recovery, &stats);
            if cell.reorder_depth > 0 {
                let (reordered, rc) = reorder_deliveries(
                    &deliveries,
                    ImpairConfig {
                        reorder_prob: 0.25,
                        reorder_depth: cell.reorder_depth,
                        seed: seed ^ 0x5eed,
                        ..ImpairConfig::default()
                    },
                );
                deliveries = reordered;
                counters.reordered += rc.reordered;
            }
            conv.push(run_discipline(
                Discipline::Conventional,
                seed,
                &deliveries,
                counters,
                duration_s,
            ));
            ldlp.push(run_discipline(
                Discipline::Ldlp(BatchPolicy::DCacheFit),
                seed,
                &deliveries,
                counters,
                duration_s,
            ));
        }
        let wire = wire_exercise(ImpairConfig {
            reorder_prob: if cell.reorder_depth > 0 { 0.25 } else { 0.0 },
            reorder_depth: cell.reorder_depth,
            ..cell_channel(cell, 0x0eed)
        });
        ImpairPoint {
            cell,
            conventional: SimReport::average(&conv).expect("at least one seed"),
            ldlp: SimReport::average(&ldlp).expect("at least one seed"),
            recovery,
            wire,
        }
    }

    /// Runs the sweep, one parallel job per cell, reduced in grid order
    /// so the CSV is byte-identical for every thread count.
    pub fn impairment_sweep(opts: &RunOpts) -> Vec<ImpairPoint> {
        let cells = grid(opts.smoke);
        run_indexed(cells.len(), opts.effective_threads(), |i| {
            run_cell(cells[i], opts.seeds, opts.duration_s)
        })
    }

    pub const IMPAIRMENTS_HEADER: [&str; 20] = [
        "loss_pct",
        "burst",
        "reorder_depth",
        "conv_throughput",
        "ldlp_throughput",
        "conv_goodput",
        "ldlp_goodput",
        "conv_latency_us",
        "ldlp_latency_us",
        "conv_p99_us",
        "ldlp_p99_us",
        "conv_rejected",
        "ldlp_rejected",
        "retransmits",
        "abandoned",
        "wire_checksum_rejects",
        "wire_tcp_retransmits",
        "wire_ooo_buffered",
        "wire_reassembly_timeouts",
        "wire_reassembly_evictions",
    ];

    pub fn impairments_rows(points: &[ImpairPoint]) -> Vec<Vec<String>> {
        points
            .iter()
            .map(|p| {
                vec![
                    f(p.cell.loss_pct, 1),
                    (p.cell.bursty as u8).to_string(),
                    p.cell.reorder_depth.to_string(),
                    f(p.conventional.throughput, 1),
                    f(p.ldlp.throughput, 1),
                    f(p.conventional.goodput, 1),
                    f(p.ldlp.goodput, 1),
                    f(p.conventional.mean_latency_us, 2),
                    f(p.ldlp.mean_latency_us, 2),
                    f(p.conventional.p99_latency_us, 2),
                    f(p.ldlp.p99_latency_us, 2),
                    p.conventional.rejected.to_string(),
                    p.ldlp.rejected.to_string(),
                    p.recovery.retransmits.to_string(),
                    p.recovery.abandoned.to_string(),
                    p.wire.checksum_rejects.to_string(),
                    p.wire.tcp_retransmits.to_string(),
                    p.wire.ooo_buffered.to_string(),
                    p.wire.reassembly_timeouts.to_string(),
                    p.wire.reassembly_evictions.to_string(),
                ]
            })
            .collect()
    }
}

pub mod figure9 {
    //! Figure 9: multi-core protocol processing — arrival rate × core
    //! count × dispatch policy, Conventional vs. LDLP.
    //!
    //! Each cell runs `crates/smp`'s deterministic N-core simulator:
    //! per-core split L1 caches over a shared coherent L2, RSS-style
    //! flow hashing / first-seen round-robin / LDLP-aware layer
    //! affinity (software pipelining with bounded hand-off queues).
    //! The sweep fans independent (cell, variant, seed) jobs across
    //! worker threads and reduces in deterministic index order, so the
    //! CSV is byte-identical for any `--threads` value.

    use crate::sweep::merge_recorders;
    use crate::{f, RunOpts};
    use ldlp::{BatchPolicy, Discipline};
    use simnet::impair::ImpairCounters;
    use simnet::par::run_indexed;
    use simnet::stats::SimReport;
    use simnet::traffic::{PoissonSource, TrafficSource};
    use smp::{tag_flows, DispatchPolicy, SmpConfig, SmpSim};

    /// Paper workload: 552-byte signalling-sized messages.
    pub const MSG_BYTES: u32 = 552;

    /// Synthetic flow population per run — enough concurrent flows that
    /// hashing can spread load over eight cores.
    pub const FLOWS: u32 = 64;

    /// One (discipline, dispatch) curve in the sweep.
    #[derive(Debug, Clone, Copy)]
    pub struct Variant {
        /// Discipline label used in the CSV (`conv` / `ldlp`).
        pub discipline_label: &'static str,
        pub discipline: Discipline,
        /// Dispatch label used in the CSV (`hash` / `rr` / `aff`).
        pub dispatch_label: &'static str,
        pub dispatch: DispatchPolicy,
    }

    /// The six swept curves: {Conventional, LDLP} × {hash, rr, aff}.
    pub fn variants() -> [Variant; 6] {
        let disciplines = [
            ("conv", Discipline::Conventional),
            ("ldlp", Discipline::Ldlp(BatchPolicy::DCacheFit)),
        ];
        let dispatches = [
            ("hash", DispatchPolicy::FlowHash),
            ("rr", DispatchPolicy::RoundRobin),
            ("aff", DispatchPolicy::LayerAffinity),
        ];
        let mut out = [Variant {
            discipline_label: "",
            discipline: Discipline::Conventional,
            dispatch_label: "",
            dispatch: DispatchPolicy::FlowHash,
        }; 6];
        let mut i = 0;
        for (dl, d) in disciplines {
            for (pl, p) in dispatches {
                out[i] = Variant {
                    discipline_label: dl,
                    discipline: d,
                    dispatch_label: pl,
                    dispatch: p,
                };
                i += 1;
            }
        }
        out
    }

    /// Core counts swept (smoke keeps the 1-vs-4 contrast only).
    pub fn core_counts(smoke: bool) -> &'static [usize] {
        if smoke {
            &[1, 4]
        } else {
            &[1, 2, 4, 8]
        }
    }

    /// Arrival rates swept (msg/s). The full grid spans light load
    /// through single-core saturation up past the affinity pipeline's
    /// bottleneck-stage capacity, so the round-robin/affinity crossover
    /// at high core counts is visible.
    pub fn rates(smoke: bool) -> &'static [f64] {
        if smoke {
            &[4000.0, 20000.0]
        } else {
            &[2000.0, 6000.0, 12000.0, 20000.0, 28000.0, 36000.0]
        }
    }

    /// One variant's seed-averaged measurements at a grid cell.
    #[derive(Debug, Clone)]
    pub struct VariantPoint {
        pub discipline: &'static str,
        pub dispatch: &'static str,
        pub report: SimReport,
        /// Mean dirty-line transfers between cores in the shared L2.
        pub l2_transfers: f64,
        /// Mean cross-core invalidations on shared-table writes.
        pub l2_invalidations: f64,
        /// Mean cycles stalled on L2/coherence traffic.
        pub l2_stall_cycles: f64,
        /// Mean messages crossing an inter-core hand-off queue.
        pub handoff_msgs: f64,
    }

    /// One (rate, cores) grid cell: all six variants.
    #[derive(Debug, Clone)]
    pub struct Figure9Point {
        pub rate: f64,
        pub cores: usize,
        pub variants: Vec<VariantPoint>,
    }

    type Job = (SimReport, [f64; 4], Option<Box<obs::Recorder>>);

    fn run_cell(
        rate: f64,
        cores: usize,
        variant: &Variant,
        seed: u64,
        duration_s: f64,
        observe: bool,
    ) -> Job {
        let raw = PoissonSource::new(rate, MSG_BYTES, seed).take_until(duration_s);
        let arrivals = tag_flows(&raw, FLOWS, seed);
        let cfg = SmpConfig {
            duration_s,
            placement_seed: seed,
            ..SmpConfig::new(cores, variant.dispatch, variant.discipline)
        };
        let mut sim = SmpSim::new(&cfg);
        if observe {
            sim.set_sinks(false);
        }
        sim.run(&arrivals);
        let out = sim.outcome(ImpairCounters::default());
        crate::perf::note_replay(&out.replay);
        // Empty when not observing: no sinks were attached.
        let rec = merge_recorders(sim.take_recorders().into_iter().map(|(_, rec)| Some(rec)));
        (
            out.report,
            [
                out.coherence.transfers as f64,
                out.coherence.invalidations as f64,
                out.coherence.stall_cycles as f64,
                out.handoff_msgs as f64,
            ],
            rec,
        )
    }

    /// The full sweep: every (rate, cores) cell × six variants ×
    /// `opts.seeds` placements, averaged per variant in seed order.
    pub fn sweep(opts: &RunOpts) -> Vec<Figure9Point> {
        sweep_observed(opts, false).0
    }

    /// [`sweep`] with optional metrics recording; per-core recorders
    /// are folded per job (core order) then across jobs (index order),
    /// so the merged document is thread-count invariant.
    pub fn sweep_observed(
        opts: &RunOpts,
        observe: bool,
    ) -> (Vec<Figure9Point>, Option<Box<obs::Recorder>>) {
        let rates = rates(opts.smoke);
        let core_counts = core_counts(opts.smoke);
        let vars = variants();
        let nv = vars.len();
        let seeds = opts.seeds as usize;
        let mut cells: Vec<(f64, usize)> = Vec::new();
        for &rate in rates {
            for &cores in core_counts {
                cells.push((rate, cores));
            }
        }
        let mut runs: Vec<Job> = run_indexed(
            cells.len() * nv * seeds,
            opts.effective_threads(),
            |i| {
                let (rate, cores) = cells[i / (nv * seeds)];
                let variant = &vars[(i / seeds) % nv];
                let seed = (i % seeds) as u64 + 1;
                run_cell(rate, cores, variant, seed, opts.duration_s, observe)
            },
        );

        let mut points = Vec::new();
        for (ci, &(rate, cores)) in cells.iter().enumerate() {
            let mut per_variant = Vec::new();
            for (vi, v) in vars.iter().enumerate() {
                let chunk = &runs[ci * nv * seeds + vi * seeds..ci * nv * seeds + (vi + 1) * seeds];
                let reports: Vec<SimReport> = chunk.iter().map(|job| job.0.clone()).collect();
                let report = SimReport::average(&reports).expect("at least one seed");
                let mut acc = [0.0f64; 4];
                for job in chunk {
                    for (a, x) in acc.iter_mut().zip(job.1) {
                        *a += x;
                    }
                }
                for a in &mut acc {
                    *a /= seeds as f64;
                }
                per_variant.push(VariantPoint {
                    discipline: v.discipline_label,
                    dispatch: v.dispatch_label,
                    report,
                    l2_transfers: acc[0],
                    l2_invalidations: acc[1],
                    l2_stall_cycles: acc[2],
                    handoff_msgs: acc[3],
                });
            }
            points.push(Figure9Point {
                rate,
                cores,
                variants: per_variant,
            });
        }
        let merged = merge_recorders(runs.iter_mut().map(|job| job.2.take()));
        (points, merged)
    }

    /// Span-traced runs at one representative cell, for `trace.json`:
    /// each (discipline, dispatch) variant contributes one track per
    /// core, named `<disc>-<disp>/core<i>`.
    pub fn traced_runs(
        opts: &RunOpts,
        rate: f64,
        cores: usize,
    ) -> Vec<(String, Box<obs::Recorder>)> {
        let seed = 1u64;
        let raw = PoissonSource::new(rate, MSG_BYTES, seed).take_until(opts.duration_s);
        let arrivals = tag_flows(&raw, FLOWS, seed);
        let mut out = Vec::new();
        for v in variants() {
            let cfg = SmpConfig {
                duration_s: opts.duration_s,
                placement_seed: seed,
                ..SmpConfig::new(cores, v.dispatch, v.discipline)
            };
            let mut sim = SmpSim::new(&cfg);
            sim.set_sinks(true);
            sim.run(&arrivals);
            let outcome = sim.outcome(ImpairCounters::default());
            crate::perf::note_replay(&outcome.replay);
            for (name, rec) in sim.take_recorders() {
                out.push((
                    format!("{}-{}/{}", v.discipline_label, v.dispatch_label, name),
                    rec,
                ));
            }
        }
        out
    }

    /// CSV schema: one row per (rate, cores, discipline, dispatch).
    pub const FIGURE9_HEADER: [&str; 17] = [
        "rate",
        "cores",
        "discipline",
        "dispatch",
        "imiss_per_msg",
        "dmiss_per_msg",
        "mean_latency_us",
        "p99_latency_us",
        "throughput",
        "goodput",
        "drops",
        "shed",
        "mean_batch",
        "l2_transfers",
        "l2_invalidations",
        "l2_stall_cycles",
        "handoff_msgs",
    ];

    /// Rows for [`FIGURE9_HEADER`], shared between the `figure9` binary
    /// and the thread-count determinism regression test.
    pub fn figure9_rows(points: &[Figure9Point]) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for p in points {
            for v in &p.variants {
                rows.push(vec![
                    f(p.rate, 0),
                    p.cores.to_string(),
                    v.discipline.to_string(),
                    v.dispatch.to_string(),
                    f(v.report.mean_imiss, 2),
                    f(v.report.mean_dmiss, 2),
                    f(v.report.mean_latency_us, 1),
                    f(v.report.p99_latency_us, 1),
                    f(v.report.throughput, 0),
                    f(v.report.goodput, 0),
                    v.report.drops.to_string(),
                    v.report.shed.to_string(),
                    f(v.report.mean_batch, 3),
                    f(v.l2_transfers, 1),
                    f(v.l2_invalidations, 1),
                    f(v.l2_stall_cycles, 0),
                    f(v.handoff_msgs, 1),
                ]);
            }
        }
        rows
    }
}

pub mod figure10 {
    //! Figure 10: million-flow data working sets — cache-aware flow
    //! lookup tables under Zipf and packet-train flow popularity.
    //!
    //! Every message charges one flow-table lookup through the engine's
    //! private machine: a small per-flow lookup cache (Jain's
    //! DEC-TR-592 schemes: LRU / FIFO / random × 1–64 slots) is scanned
    //! first, and on a miss the open-addressing flow table's *actual
    //! probe sequence* is replayed as data references, so D-misses per
    //! lookup are simulated, not guessed. The table is loaded once and
    //! then only looked up, so that sequence is a function of the key
    //! order: the host computes the layout
    //! (`netstack::table::PlacementIndex`, a displacement per flow over
    //! an occupancy bitmap) instead of building 10^6 slots to ask ~2 000
    //! questions of them. The sweep spans concurrent
    //! flow populations 10^2 → 10^6 × {Conventional, LDLP} × lookup
    //! scheme, fanned across worker threads and reduced in index order
    //! — the CSV is byte-identical for any `--threads` value.

    use crate::{f, RunOpts};
    use cachesim::MachineConfig;
    use ldlp::synth::paper_stack;
    use ldlp::{BatchPolicy, Discipline, StackEngine};
    use netstack::table::{mix64, CacheScheme, LookupCache, PlacementIndex, MAX_CACHE_SLOTS};
    use simnet::par::run_indexed;
    use simnet::stats::SimReport;
    use simnet::traffic::{PoissonSource, TrafficSource};
    use simnet::{run_sim_lookup, LookupCharge, SimConfig};
    use std::sync::{Arc, Mutex};

    /// Paper workload: 552-byte signalling-sized messages.
    pub const MSG_BYTES: u32 = 552;

    /// Fixed offered load (msg/s) — well inside single-CPU capacity, so
    /// latency differences come from lookup D-misses, not queueing.
    pub const RATE: f64 = 2000.0;

    /// Simulated address of the open-addressing flow table.
    pub const FLOW_TABLE_BASE: u64 = 0x4000_0000;
    /// Simulated address of the per-flow lookup cache.
    pub const LOOKUP_CACHE_BASE: u64 = 0x4800_0000;
    /// Bytes per *simulated* table / cache slot (key + value + occupancy
    /// tag). The host holds no such slots — [`TableCharge`] computes which
    /// indices a walk probes, all the model reads — and that changes
    /// nothing here.
    pub const SLOT_BYTES: u64 = 16;

    /// Concurrent-flow populations swept (smoke keeps the 10^2 vs 10^4
    /// contrast only; the full grid spans 10^2 → 10^6).
    pub fn populations(smoke: bool) -> &'static [u64] {
        if smoke {
            &[100, 10_000]
        } else {
            &[100, 1_000, 10_000, 100_000, 1_000_000]
        }
    }

    /// Flow-popularity model for the arrival stream's flow IDs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PopModel {
        /// Independent Zipf(s=1) draws per message.
        Zipf,
        /// Packet trains: a Zipf-drawn flow persists for a
        /// Pareto-distributed burst of messages (self-similar locality).
        Train,
    }

    impl PopModel {
        pub fn label(self) -> &'static str {
            match self {
                PopModel::Zipf => "zipf",
                PopModel::Train => "train",
            }
        }
    }

    /// One swept lookup configuration.
    #[derive(Debug, Clone, Copy)]
    pub struct Variant {
        pub scheme: CacheScheme,
        pub cache_slots: usize,
        pub popmodel: PopModel,
    }

    /// The swept lookup configurations. The full grid reproduces Jain's
    /// cache-scheme comparison (LRU depth sweep, FIFO and random at a
    /// common depth) plus a packet-train locality column; smoke keeps
    /// the three schemes at one depth.
    pub fn variants(smoke: bool) -> &'static [Variant] {
        const FULL: [Variant; 6] = [
            Variant { scheme: CacheScheme::Lru, cache_slots: 1, popmodel: PopModel::Zipf },
            Variant { scheme: CacheScheme::Lru, cache_slots: 16, popmodel: PopModel::Zipf },
            Variant { scheme: CacheScheme::Lru, cache_slots: 64, popmodel: PopModel::Zipf },
            Variant { scheme: CacheScheme::Fifo, cache_slots: 16, popmodel: PopModel::Zipf },
            Variant { scheme: CacheScheme::Random, cache_slots: 16, popmodel: PopModel::Zipf },
            Variant { scheme: CacheScheme::Lru, cache_slots: 16, popmodel: PopModel::Train },
        ];
        const SMOKE: [Variant; 3] = [
            Variant { scheme: CacheScheme::Lru, cache_slots: 16, popmodel: PopModel::Zipf },
            Variant { scheme: CacheScheme::Fifo, cache_slots: 16, popmodel: PopModel::Zipf },
            Variant { scheme: CacheScheme::Random, cache_slots: 16, popmodel: PopModel::Zipf },
        ];
        if smoke {
            &SMOKE
        } else {
            &FULL
        }
    }

    /// Deterministic xorshift64* stream for flow draws.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(mix64(seed) | 1)
        }

        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in [0, 1).
        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Zipf(s = 1) sampler over `1..=n` via a precomputed harmonic CDF
    /// and binary search.
    pub struct Zipf {
        cdf: Vec<f64>,
    }

    impl Zipf {
        pub fn new(n: u64) -> Self {
            let mut cdf = Vec::with_capacity(n as usize);
            let mut acc = 0.0f64;
            for k in 1..=n {
                acc += 1.0 / k as f64;
                cdf.push(acc);
            }
            for c in &mut cdf {
                *c /= acc;
            }
            Zipf { cdf }
        }

        /// Maps a uniform `u` in [0, 1) to a 0-based flow rank.
        pub fn draw(&self, u: f64) -> u32 {
            let i = self.cdf.partition_point(|&c| c <= u);
            i.min(self.cdf.len().saturating_sub(1)) as u32
        }

        /// The sampler over `1..=n`, built once per process and shared.
        /// A CDF is a pure function of `n` and costs 8 B per flow (8 MB
        /// and ~7 ms at 10^6) against the ~2 000 draws a cell makes from
        /// it, and every cell of a population — any seed, variant or
        /// worker thread — draws from the same one. The table lives for
        /// the process because [`flow_sequence`]'s callers have nowhere
        /// to keep it between cells; the sweep has five populations.
        fn shared(n: u64) -> Arc<Zipf> {
            static BY_POPULATION: Mutex<Vec<(u64, Arc<Zipf>)>> = Mutex::new(Vec::new());
            // Entries are pushed whole, so the table is valid even if a
            // holder of the lock panicked.
            let mut table = BY_POPULATION.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((_, zipf)) = table.iter().find(|(pop, _)| *pop == n) {
                return Arc::clone(zipf);
            }
            let zipf = Arc::new(Zipf::new(n));
            table.push((n, Arc::clone(&zipf)));
            zipf
        }
    }

    /// The per-message flow-ID sequence: `n` draws over a population of
    /// `pop` flows, ranked by Zipf popularity. `Train` mode holds each
    /// drawn flow for a Pareto(α = 1.5) burst (capped at 64 messages),
    /// so consecutive messages revisit the same table entry — the
    /// locality a lookup cache exploits.
    pub fn flow_sequence(pop: u64, n: usize, seed: u64, model: PopModel) -> Vec<u32> {
        let zipf = Zipf::shared(pop);
        let mut rng = Rng::new(seed ^ mix64(pop));
        let mut out = Vec::with_capacity(n);
        match model {
            PopModel::Zipf => {
                for _ in 0..n {
                    out.push(zipf.draw(rng.next_f64()));
                }
            }
            PopModel::Train => {
                while out.len() < n {
                    let flow = zipf.draw(rng.next_f64());
                    let u = rng.next_f64();
                    let burst = (1.0 - u).powf(-1.0 / 1.5).min(64.0) as usize;
                    for _ in 0..burst.max(1) {
                        if out.len() == n {
                            break;
                        }
                        out.push(flow);
                    }
                }
            }
        }
        out
    }

    /// Slot indices in lookup-cache scan order; the prefix a lookup
    /// scanned is a slice of this.
    const SCAN_ORDER: [u32; MAX_CACHE_SLOTS] = {
        let mut order = [0; MAX_CACHE_SLOTS];
        let mut i = 0;
        while i < MAX_CACHE_SLOTS {
            order[i] = i as u32;
            i += 1;
        }
        order
    };

    /// Charges each message's flow lookup to the engine's machine: scan
    /// the lookup cache (its resident footprint), and on a cache miss
    /// replay the open-addressing table's probe sequence as data reads
    /// plus one cache-fill write.
    pub struct TableCharge {
        /// The flow table's layout, not the table: `charge` reads which
        /// slots a walk probes, never a key or a value, and for a table
        /// loaded once and then only looked up that is a function of
        /// the key sequence.
        layout: PlacementIndex,
        cache: LookupCache<u64, u32>,
        key_salt: u64,
        probes_total: u64,
        lookups: u64,
    }

    impl TableCharge {
        /// Lays out the flow table with `pop` live entries, flow `i`'s
        /// key the `i`-th loaded. Keys are drawn from a per-seed key
        /// space so slot placement (and thus probe clustering) varies
        /// across placements; `mix64` is a bijection, so they are
        /// pairwise distinct.
        pub fn new(pop: u64, scheme: CacheScheme, cache_slots: usize, seed: u64) -> Self {
            let key_salt = mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pop);
            let keys = (0..pop as usize).map(|flow| mix64(key_salt ^ flow as u64));
            TableCharge {
                layout: PlacementIndex::build(keys),
                cache: LookupCache::new(scheme, cache_slots, seed),
                key_salt,
                probes_total: 0,
                lookups: 0,
            }
        }

        /// Probe count per successful table walk, averaged over the run.
        pub fn mean_probes(&self) -> f64 {
            if self.lookups == 0 {
                0.0
            } else {
                self.probes_total as f64 / self.lookups as f64
            }
        }

        pub fn cache_stats(&self) -> netstack::table::LookupCacheStats {
            self.cache.stats()
        }
    }

    impl LookupCharge for TableCharge {
        fn charge(&mut self, flow_id: u32, machine: &mut cachesim::Machine) -> u64 {
            let key = mix64(self.key_salt ^ flow_id as u64);
            // The cache's linear scan stops at the hit slot (LRU's
            // move-to-front keeps hot flows near the front — Jain's
            // argument for the scheme); a miss scans every entry.
            let scanned_slots = match self.cache.position(&key) {
                Some(pos) => pos + 1,
                None => self.cache.len(),
            };
            debug_assert!(scanned_slots <= SCAN_ORDER.len());
            let scanned = SCAN_ORDER.get(..scanned_slots).unwrap_or_default();
            let mut dm = machine.read_data_probes(LOOKUP_CACHE_BASE, SLOT_BYTES, scanned);
            if self.cache.get(&key).is_some() {
                return dm;
            }
            self.lookups += 1;
            // A flow outside the population is an absent key: the walk
            // is counted and nothing is charged for it.
            if let Some(walk) = self.layout.probes(flow_id as usize, &key) {
                for slot in walk {
                    self.probes_total += 1;
                    dm += machine.read_data_probes(FLOW_TABLE_BASE, SLOT_BYTES, &[slot]);
                }
                self.cache.insert(key, flow_id);
                dm += machine.write_data_slot(LOOKUP_CACHE_BASE, SLOT_BYTES, 0);
            }
            dm
        }
    }

    /// One variant's seed-averaged measurements at a grid cell.
    #[derive(Debug, Clone)]
    pub struct VariantPoint {
        pub scheme: &'static str,
        pub cache_slots: usize,
        pub popmodel: &'static str,
        pub report: SimReport,
        /// Lookup-cache hit rate over the run.
        pub cache_hit_rate: f64,
        /// Mean open-addressing probes per table walk (cache misses).
        pub mean_probes: f64,
    }

    /// One (population, discipline) grid cell: all swept variants.
    #[derive(Debug, Clone)]
    pub struct Figure10Point {
        pub population: u64,
        pub discipline: &'static str,
        pub variants: Vec<VariantPoint>,
    }

    type Job = (SimReport, [f64; 4]);

    fn run_cell(
        pop: u64,
        discipline: Discipline,
        variant: &Variant,
        seed: u64,
        duration_s: f64,
    ) -> Job {
        let arrivals = PoissonSource::new(RATE, MSG_BYTES, seed).take_until(duration_s);
        let flow_ids = flow_sequence(pop, arrivals.len(), seed, variant.popmodel);
        let (machine, layers) = paper_stack(MachineConfig::synthetic_benchmark(), seed);
        let mut engine = StackEngine::new(machine, layers, discipline);
        let mut lookup = TableCharge::new(pop, variant.scheme, variant.cache_slots, seed);
        let sim_cfg = SimConfig {
            duration_s,
            pool_seed: seed,
            ..SimConfig::default()
        };
        let report = run_sim_lookup(&mut engine, &arrivals, &flow_ids, &sim_cfg, &mut lookup);
        crate::perf::note_machine(engine.machine());
        let stats = lookup.cache_stats();
        (
            report,
            [
                stats.hits as f64,
                stats.misses as f64,
                lookup.probes_total as f64,
                lookup.lookups as f64,
            ],
        )
    }

    /// The full sweep: every (population, discipline) cell × swept
    /// variants × `opts.seeds` placements, averaged in seed order.
    pub fn sweep(opts: &RunOpts) -> Vec<Figure10Point> {
        let pops = populations(opts.smoke);
        let disciplines: [(&'static str, Discipline); 2] = [
            ("conv", Discipline::Conventional),
            ("ldlp", Discipline::Ldlp(BatchPolicy::DCacheFit)),
        ];
        let vars = variants(opts.smoke);
        let nv = vars.len();
        let seeds = opts.seeds as usize;
        let mut cells: Vec<(u64, usize)> = Vec::new();
        for &pop in pops {
            for (di, _) in disciplines.iter().enumerate() {
                cells.push((pop, di));
            }
        }
        let runs: Vec<Job> = run_indexed(cells.len() * nv * seeds, opts.effective_threads(), |i| {
            let (pop, di) = cells[i / (nv * seeds)];
            let variant = &vars[(i / seeds) % nv];
            let seed = (i % seeds) as u64 + 1;
            run_cell(pop, disciplines[di].1, variant, seed, opts.duration_s)
        });

        let mut points = Vec::new();
        for (ci, &(pop, di)) in cells.iter().enumerate() {
            let mut per_variant = Vec::new();
            for (vi, v) in vars.iter().enumerate() {
                let chunk = &runs[ci * nv * seeds + vi * seeds..ci * nv * seeds + (vi + 1) * seeds];
                let reports: Vec<SimReport> = chunk.iter().map(|job| job.0.clone()).collect();
                let report = SimReport::average(&reports).expect("at least one seed");
                let mut acc = [0.0f64; 4];
                for job in chunk {
                    for (a, x) in acc.iter_mut().zip(job.1) {
                        *a += x;
                    }
                }
                let [hits, misses, probes, walks] = acc;
                per_variant.push(VariantPoint {
                    scheme: v.scheme.label(),
                    cache_slots: v.cache_slots,
                    popmodel: v.popmodel.label(),
                    report,
                    cache_hit_rate: if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
                    mean_probes: if walks > 0.0 { probes / walks } else { 0.0 },
                });
            }
            points.push(Figure10Point {
                population: pop,
                discipline: disciplines[di].0,
                variants: per_variant,
            });
        }
        points
    }

    /// CSV schema: one row per (population, discipline, variant).
    pub const FIGURE10_HEADER: [&str; 14] = [
        "population",
        "discipline",
        "scheme",
        "cache_slots",
        "popmodel",
        "imiss_per_msg",
        "dmiss_per_msg",
        "mean_latency_us",
        "p99_latency_us",
        "throughput",
        "drops",
        "mean_batch",
        "cache_hit_rate",
        "mean_probes",
    ];

    /// Rows for [`FIGURE10_HEADER`], shared between the `figure10`
    /// binary and the thread-count determinism regression test.
    pub fn figure10_rows(points: &[Figure10Point]) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for p in points {
            for v in &p.variants {
                rows.push(vec![
                    p.population.to_string(),
                    p.discipline.to_string(),
                    v.scheme.to_string(),
                    v.cache_slots.to_string(),
                    v.popmodel.to_string(),
                    f(v.report.mean_imiss, 2),
                    f(v.report.mean_dmiss, 2),
                    f(v.report.mean_latency_us, 1),
                    f(v.report.p99_latency_us, 1),
                    f(v.report.throughput, 0),
                    v.report.drops.to_string(),
                    f(v.report.mean_batch, 3),
                    f(v.cache_hit_rate, 4),
                    f(v.mean_probes, 3),
                ]);
            }
        }
        rows
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use netstack::table::OaTable;

        #[test]
        fn zipf_draws_are_skewed_and_in_range() {
            let pop = 1000u64;
            let seq = flow_sequence(pop, 4000, 7, PopModel::Zipf);
            assert_eq!(seq.len(), 4000);
            assert!(seq.iter().all(|&v| (v as u64) < pop));
            let head = seq.iter().filter(|&&v| v < 10).count();
            // Zipf(s=1) over 1000 puts ~39% of mass on the top 10.
            assert!(head > seq.len() / 5, "top-10 flows got {head}/4000");
            assert_eq!(seq, flow_sequence(pop, 4000, 7, PopModel::Zipf));
        }

        #[test]
        fn trains_revisit_flows_in_runs() {
            let seq = flow_sequence(10_000, 4000, 3, PopModel::Train);
            let repeats = seq.windows(2).filter(|w| w[0] == w[1]).count();
            let zipf = flow_sequence(10_000, 4000, 3, PopModel::Zipf);
            let zipf_repeats = zipf.windows(2).filter(|w| w[0] == w[1]).count();
            assert!(
                repeats > zipf_repeats + 200,
                "trains: {repeats} adjacent repeats vs zipf's {zipf_repeats}"
            );
        }

        #[test]
        fn table_charge_hits_every_live_flow() {
            let mut machine = cachesim::Machine::new(MachineConfig::synthetic_benchmark());
            let mut tc = TableCharge::new(500, CacheScheme::Lru, 4, 1);
            for flow in 0..500u32 {
                tc.charge(flow, &mut machine);
            }
            let stats = tc.cache_stats();
            assert_eq!(stats.hits + stats.misses, 500);
            assert_eq!(tc.lookups, stats.misses, "every cache miss walked the table");
            assert!(tc.mean_probes() >= 1.0);
        }

        /// The reference for [`TableCharge`]: the flow table itself,
        /// loaded key by key, each lookup's logged probe run charged.
        struct BuiltTableCharge {
            table: OaTable<u64, ()>,
            cache: LookupCache<u64, u32>,
            key_salt: u64,
            probes_total: u64,
            lookups: u64,
        }

        impl BuiltTableCharge {
            fn new(pop: u64, scheme: CacheScheme, cache_slots: usize, seed: u64) -> Self {
                let key_salt = mix64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pop);
                let mut table = OaTable::with_capacity(pop as usize);
                for flow in 0..pop {
                    table.insert(mix64(key_salt ^ flow), ());
                }
                BuiltTableCharge {
                    table,
                    cache: LookupCache::new(scheme, cache_slots, seed),
                    key_salt,
                    probes_total: 0,
                    lookups: 0,
                }
            }
        }

        impl LookupCharge for BuiltTableCharge {
            fn charge(&mut self, flow_id: u32, machine: &mut cachesim::Machine) -> u64 {
                let key = mix64(self.key_salt ^ flow_id as u64);
                let scanned_slots = match self.cache.position(&key) {
                    Some(pos) => pos + 1,
                    None => self.cache.len(),
                };
                let mut dm =
                    machine.read_data_probes(LOOKUP_CACHE_BASE, SLOT_BYTES, &SCAN_ORDER[..scanned_slots]);
                if self.cache.get(&key).is_some() {
                    return dm;
                }
                self.lookups += 1;
                if self.table.get_mut(&key).is_some() {
                    let probes = self.table.last_probes();
                    self.probes_total += probes.len() as u64;
                    dm += machine.read_data_probes(FLOW_TABLE_BASE, SLOT_BYTES, probes);
                    self.cache.insert(key, flow_id);
                    dm += machine.write_data_slot(LOOKUP_CACHE_BASE, SLOT_BYTES, 0);
                }
                dm
            }
        }

        /// The computed layout is the built table's: the same charged
        /// misses message by message, probe mean, cache counters and
        /// machine totals over a whole 10^5-flow cell, under every
        /// scheme — out-of-population flows included.
        #[test]
        fn computed_layout_charges_like_the_built_table() {
            let (pop, seed) = (100_000u64, 3u64);
            let mut flows = flow_sequence(pop, 2_000, seed, PopModel::Zipf);
            flows.extend([pop as u32, 17, u32::MAX, pop as u32 - 1]);
            for scheme in [CacheScheme::Lru, CacheScheme::Fifo, CacheScheme::Random] {
                let mut computed = TableCharge::new(pop, scheme, 16, seed);
                let mut built = BuiltTableCharge::new(pop, scheme, 16, seed);
                assert_eq!(computed.layout.capacity(), built.table.capacity());
                let cfg = MachineConfig::synthetic_benchmark();
                let (mut m_computed, mut m_built) =
                    (cachesim::Machine::new(cfg), cachesim::Machine::new(cfg));
                for &flow in &flows {
                    assert_eq!(
                        computed.charge(flow, &mut m_computed),
                        built.charge(flow, &mut m_built),
                        "{scheme:?}: flow {flow}"
                    );
                }
                assert_eq!(
                    (computed.probes_total, computed.lookups),
                    (built.probes_total, built.lookups)
                );
                assert_eq!(
                    computed.mean_probes().to_bits(),
                    (built.probes_total as f64 / built.lookups as f64).to_bits()
                );
                assert_eq!(computed.cache_stats(), built.cache.stats());
                assert_eq!(
                    format!("{:?}", m_computed.stats()),
                    format!("{:?}", m_built.stats()),
                    "{scheme:?}: machine totals"
                );
                assert!(computed.cache_stats().misses > 0, "{scheme:?}: the table was walked");
            }
        }

        /// A flow the table never held misses the cache, counts as a
        /// walk and charges nothing for it.
        #[test]
        fn out_of_population_flow_counts_a_lookup_and_charges_no_probes() {
            let mut machine = cachesim::Machine::new(MachineConfig::synthetic_benchmark());
            let mut tc = TableCharge::new(500, CacheScheme::Lru, 4, 1);
            for flow in [500u32, 501, u32::MAX] {
                assert_eq!(tc.charge(flow, &mut machine), 0, "empty cache, no walk: no reads");
            }
            assert_eq!((tc.lookups, tc.probes_total), (3, 0));
            assert_eq!(tc.mean_probes(), 0.0);
            let stats = tc.cache_stats();
            assert_eq!((stats.hits, stats.misses), (0, 3), "absent flows are never cached");
            assert_eq!(machine.stats().dcache.misses, 0);
            // A live flow after them walks and fills as usual.
            assert!(tc.charge(499, &mut machine) > 0);
            assert_eq!(tc.lookups, 4);
            assert!(tc.probes_total >= 1);
        }

        /// The shared per-population CDF is invisible: repeat calls,
        /// calls with other populations in between and calls from four
        /// threads at once all return the one sequence.
        #[test]
        fn flow_sequences_repeat_across_calls_populations_and_threads() {
            let pops = [100u64, 1_000, 10_000, 100_000];
            let draw = |pop: u64| {
                (
                    flow_sequence(pop, 500, 11, PopModel::Zipf),
                    flow_sequence(pop, 500, 11, PopModel::Train),
                )
            };
            let want: Vec<_> = pops.iter().map(|&pop| draw(pop)).collect();
            for (i, &pop) in pops.iter().enumerate().rev() {
                assert_eq!(draw(pop), want[i], "population {pop}, interleaved");
            }
            // 77 777 is no other test's population: the four threads race
            // to build its CDF as well as to read the cached ones.
            let start = std::sync::Barrier::new(4);
            let raced: Vec<_> = std::thread::scope(|s| {
                let threads: Vec<_> = (0..4)
                    .map(|t| {
                        let (want, start) = (&want, &start);
                        s.spawn(move || {
                            start.wait();
                            let fresh = draw(77_777);
                            for i in 0..pops.len() {
                                let at = (i + t) % pops.len();
                                assert_eq!(draw(pops[at]), want[at], "thread {t}");
                            }
                            fresh
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("drawing thread"))
                    .collect()
            });
            let serial = draw(77_777);
            assert!(raced.iter().all(|r| *r == serial));
            assert_eq!(want[1].0, {
                let zipf = Zipf::new(1_000);
                let mut rng = Rng::new(11 ^ mix64(1_000));
                (0..500).map(|_| zipf.draw(rng.next_f64())).collect::<Vec<_>>()
            });
        }

        #[test]
        fn bigger_population_means_more_lookup_dmisses() {
            let opts = RunOpts {
                seeds: 2,
                duration_s: 0.05,
                smoke: true,
                ..RunOpts::default()
            };
            let points = sweep(&opts);
            assert_eq!(points.len(), 4, "2 populations x 2 disciplines");
            let dmiss = |pop: u64, disc: &str| -> f64 {
                points
                    .iter()
                    .find(|p| p.population == pop && p.discipline == disc)
                    .map(|p| p.variants[0].report.mean_dmiss)
                    .unwrap_or(f64::NAN)
            };
            assert!(
                dmiss(10_000, "conv") > dmiss(100, "conv"),
                "10^4 flows should miss more than 10^2: {} vs {}",
                dmiss(10_000, "conv"),
                dmiss(100, "conv")
            );
        }
    }
}

pub mod figure13 {
    //! Figure 13: closed-loop overload — retrying client populations
    //! against a multi-core server, sweeping offered load from half to
    //! three times capacity.
    //!
    //! Open-loop Poisson sweeps (figures 5–10) hold the arrival process
    //! fixed no matter how the server behaves; production overload is
    //! closed-loop: clients that time out *retransmit*, so a slow
    //! server recruits its own extra load. Each cell here runs
    //! [`smp::SmpSim::run_closed`] against a [`ClosedPopulation`] of
    //! retrying clients in three traffic classes (call signalling, DNS,
    //! bulk RPC) and reports goodput — *useful* acknowledgements per
    //! second — against throughput, which also counts work the server
    //! finished after the client stopped waiting (`stale`). The gap
    //! between the two curves is the metastable-collapse signature:
    //! past saturation an unbudgeted-retry population keeps the queue
    //! full of duplicate copies and goodput falls even though the
    //! server never idles.
    //!
    //! Axes: load multiplier × {conv, ldlp} × four admission policies ×
    //! retry budget {on, off}. The `ldlp` variant runs the
    //! layer-affinity pipeline with [`HandoffFlowControl::StallProducer`],
    //! so its `bp_stall_cycles` column shows real backpressure instead
    //! of clairvoyant batch sizing. The sweep fans independent
    //! (cell, seed) jobs across worker threads and reduces in
    //! deterministic index order, so the CSV is byte-identical for any
    //! `--threads` value.

    use crate::{f, RunOpts};
    use ldlp::{AdmissionPolicy, BatchPolicy, Discipline};
    use simnet::closed::{Class, ClosedPopulation};
    use simnet::par::run_indexed;
    use simnet::stats::SimReport;
    use simnet::ClosedConfig;
    use smp::{DispatchPolicy, HandoffFlowControl, SmpConfig, SmpSim};

    /// Server cores per cell (the figure 9 smoke contrast point).
    pub const CORES: usize = 4;

    /// Closed-loop client population. Divisible by [`Class::COUNT`] so
    /// the three classes are equally populated; deep enough that the
    /// retry traffic of waiting clients can push offered load well past
    /// capacity even while the loop itself throttles first
    /// transmissions.
    pub const CLIENTS: u32 = 600;

    /// Admission weights for the `wfq` rows: call signalling gets the
    /// largest share, bulk RPC the smallest (order is
    /// [`Class::ALL`] = call, DNS, RPC).
    pub const WEIGHTS: [u32; Class::COUNT] = [4, 2, 1];

    /// One (discipline, dispatch, flow-control) server build.
    #[derive(Debug, Clone, Copy)]
    pub struct Variant {
        /// CSV label (`conv` / `ldlp`).
        pub label: &'static str,
        pub discipline: Discipline,
        pub dispatch: DispatchPolicy,
        pub flow_control: HandoffFlowControl,
        /// Measured useful-completion capacity of this build at
        /// [`CORES`] cores (msg/s), read off its saturation plateau
        /// under this figure's configuration (shallow hand-off rings
        /// included). The load multiplier axis is relative to *this*
        /// build's capacity, so "2x" means the same relative overload
        /// for both variants.
        pub capacity_msg_s: f64,
    }

    /// The two server builds: conventional per-message processing with
    /// RSS-style flow hashing, and the LDLP layer-affinity pipeline
    /// with stall-the-producer hand-off flow control.
    pub fn variants() -> [Variant; 2] {
        [
            Variant {
                label: "conv",
                discipline: Discipline::Conventional,
                dispatch: DispatchPolicy::FlowHash,
                flow_control: HandoffFlowControl::SizeToFree,
                capacity_msg_s: 14_000.0,
            },
            Variant {
                label: "ldlp",
                discipline: Discipline::Ldlp(BatchPolicy::DCacheFit),
                dispatch: DispatchPolicy::LayerAffinity,
                flow_control: HandoffFlowControl::StallProducer,
                capacity_msg_s: 20_000.0,
            },
        ]
    }

    /// One admission policy under test.
    #[derive(Debug, Clone, Copy)]
    pub struct AdmissionVariant {
        /// CSV label (`tail` / `head` / `shed` / `wfq`).
        pub label: &'static str,
        pub policy: AdmissionPolicy,
    }

    /// The four admission policies: the paper's tail-drop, head-drop
    /// (bounds the queueing delay of everything that completes — the
    /// anti-metastability lever), interrupt-level shedding, and
    /// per-class weighted-fair admission with [`WEIGHTS`].
    pub fn admissions() -> [AdmissionVariant; 4] {
        [
            AdmissionVariant {
                label: "tail",
                policy: AdmissionPolicy::TailDrop,
            },
            AdmissionVariant {
                label: "head",
                policy: AdmissionPolicy::HeadDrop,
            },
            AdmissionVariant {
                label: "shed",
                policy: AdmissionPolicy::ShedOldest { down_to: 64 },
            },
            AdmissionVariant {
                label: "wfq",
                policy: AdmissionPolicy::WeightedFair,
            },
        ]
    }

    /// Offered-load multipliers relative to each variant's capacity
    /// (smoke keeps one underload and one overload point).
    pub fn loads(smoke: bool) -> &'static [f64] {
        if smoke {
            &[0.5, 2.0]
        } else {
            &[0.5, 1.0, 1.5, 2.0, 3.0]
        }
    }

    /// One grid cell: everything but the seed.
    #[derive(Debug, Clone, Copy)]
    pub struct Cell {
        pub load: f64,
        pub variant: Variant,
        pub admission: AdmissionVariant,
        /// `true`: the default bounded retry budget (clients abandon
        /// after `max_retries`); `false`: clients retransmit until
        /// acknowledged — the metastable configuration.
        pub budget_on: bool,
    }

    /// The full cell grid in CSV row order.
    pub fn cells(smoke: bool) -> Vec<Cell> {
        let mut out = Vec::new();
        for &load in loads(smoke) {
            for variant in variants() {
                for admission in admissions() {
                    for budget_on in [true, false] {
                        out.push(Cell {
                            load,
                            variant,
                            admission,
                            budget_on,
                        });
                    }
                }
            }
        }
        out
    }

    /// Per-seed side metrics carried alongside the [`SimReport`]:
    /// client-side retry accounting, per-class losses and useful
    /// fractions, and producer backpressure.
    const EXTRAS: usize = 12;

    type Job = (SimReport, [f64; EXTRAS]);

    fn run_cell(cell: &Cell, seed: u64, duration_s: f64) -> Job {
        let v = cell.variant;
        // A closed loop with N clients and mean think time Z offers
        // first transmissions at N / (Z + R); sizing Z = N / target
        // hits the target when responses are fast and lets retries —
        // not the think process — carry the load past capacity.
        let think_s = CLIENTS as f64 / (cell.load * v.capacity_msg_s);
        let mut pc = ClosedConfig::new(CLIENTS, think_s, duration_s, seed);
        pc.retry_budget_on = cell.budget_on;
        let mut pop = ClosedPopulation::new(&pc);
        let cfg = SmpConfig {
            duration_s,
            placement_seed: seed,
            admission: cell.admission.policy,
            flow_control: v.flow_control,
            // Shallow inter-stage rings: enough slack for steady-state
            // batching but small enough that an overloaded bottleneck
            // stage actually exerts backpressure on its producer
            // (visible as `bp_stall_cycles` in the `ldlp` rows).
            handoff_cap: 4,
            ..SmpConfig::new(CORES, v.dispatch, v.discipline)
        };
        let mut sim = SmpSim::new(&cfg);
        sim.run_closed(&mut pop, WEIGHTS);
        let out = sim.outcome(pop.channel_counters());
        crate::perf::note_replay(&out.replay);
        assert!(
            out.report.conservation_holds(),
            "figure13 cell violates conservation: load={} variant={} admission={} budget={}",
            cell.load,
            v.label,
            cell.admission.label,
            cell.budget_on
        );
        let st = pop.stats();
        let frac = |useful: u64, requests: u64| {
            if requests == 0 {
                0.0
            } else {
                useful as f64 / requests as f64
            }
        };
        let loss = |class: Class| {
            let i = class.index();
            (out.shed_by_class[i] + out.drops_by_class[i]) as f64
        };
        let bp: u64 = out.per_core.iter().map(|c| c.bp_stall_cycles).sum();
        (
            out.report,
            [
                st.retry_amplification(),
                st.requests as f64,
                st.transmissions as f64,
                st.abandoned_requests as f64,
                loss(Class::Call),
                loss(Class::Dns),
                loss(Class::Rpc),
                frac(st.per_class_useful[Class::Call.index()], st.per_class_requests[Class::Call.index()]),
                frac(st.per_class_useful[Class::Rpc.index()], st.per_class_requests[Class::Rpc.index()]),
                out.per_core.iter().map(|c| c.bp_stalls).sum::<u64>() as f64,
                bp as f64,
                out.handoff_msgs as f64,
            ],
        )
    }

    /// One cell's seed-averaged measurements.
    #[derive(Debug, Clone)]
    pub struct Figure13Point {
        pub cell: Cell,
        pub report: SimReport,
        pub extras: [f64; EXTRAS],
    }

    /// The full sweep: every cell × `opts.seeds` placements, averaged
    /// per cell in seed order.
    pub fn sweep(opts: &RunOpts) -> Vec<Figure13Point> {
        let cells = cells(opts.smoke);
        let seeds = opts.seeds as usize;
        let runs: Vec<Job> = run_indexed(cells.len() * seeds, opts.effective_threads(), |i| {
            run_cell(&cells[i / seeds], (i % seeds) as u64 + 1, opts.duration_s)
        });
        let mut points = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            let chunk = &runs[ci * seeds..(ci + 1) * seeds];
            let reports: Vec<SimReport> = chunk.iter().map(|job| job.0.clone()).collect();
            let report = SimReport::average(&reports).expect("at least one seed");
            let mut extras = [0.0f64; EXTRAS];
            for job in chunk {
                for (a, x) in extras.iter_mut().zip(job.1) {
                    *a += x;
                }
            }
            for a in &mut extras {
                *a /= seeds as f64;
            }
            points.push(Figure13Point {
                cell: *cell,
                report,
                extras,
            });
        }
        points
    }

    /// CSV schema: one row per (load, variant, admission, budget).
    /// `goodput` counts useful acknowledgements per second; `stale` is
    /// work the server completed after the client stopped waiting;
    /// `gave_up` is requests whose retry budget ran out client-side.
    pub const FIGURE13_HEADER: [&str; 24] = [
        "load",
        "target_rate",
        "variant",
        "admission",
        "budget",
        "requests",
        "transmissions",
        "retry_amp",
        "goodput",
        "throughput",
        "mean_latency_us",
        "p99_latency_us",
        "completed",
        "stale",
        "gave_up",
        "drops",
        "shed",
        "loss_call",
        "loss_dns",
        "loss_rpc",
        "useful_frac_call",
        "useful_frac_rpc",
        "bp_stall_cycles",
        "handoff_msgs",
    ];

    /// Rows for [`FIGURE13_HEADER`], shared between the `figure13`
    /// binary and the thread-count determinism regression test.
    pub fn figure13_rows(points: &[Figure13Point]) -> Vec<Vec<String>> {
        points
            .iter()
            .map(|p| {
                vec![
                    f(p.cell.load, 1),
                    f(p.cell.load * p.cell.variant.capacity_msg_s, 0),
                    p.cell.variant.label.to_string(),
                    p.cell.admission.label.to_string(),
                    (if p.cell.budget_on { "on" } else { "off" }).to_string(),
                    f(p.extras[1], 1),
                    f(p.extras[2], 1),
                    f(p.extras[0], 3),
                    f(p.report.goodput, 0),
                    f(p.report.throughput, 0),
                    f(p.report.mean_latency_us, 1),
                    f(p.report.p99_latency_us, 1),
                    p.report.completed.to_string(),
                    p.report.abandoned.to_string(),
                    f(p.extras[3], 1),
                    p.report.drops.to_string(),
                    p.report.shed.to_string(),
                    f(p.extras[4], 1),
                    f(p.extras[5], 1),
                    f(p.extras[6], 1),
                    f(p.extras[7], 3),
                    f(p.extras[8], 3),
                    f(p.extras[10], 0),
                    f(p.extras[11], 1),
                ]
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn tiny_opts() -> RunOpts {
            RunOpts {
                seeds: 1,
                duration_s: 0.05,
                smoke: true,
                threads: Some(2),
                ..RunOpts::default()
            }
        }

        #[test]
        fn smoke_grid_shape_and_conservation() {
            // run_cell asserts the conservation law per cell; this test
            // checks the grid shape and that the overload rows actually
            // overload (retries amplify, something is refused or shed).
            let points = sweep(&tiny_opts());
            assert_eq!(points.len(), 2 * 2 * 4 * 2, "loads x variants x admissions x budgets");
            let rows = figure13_rows(&points);
            assert_eq!(rows.len(), points.len());
            assert!(rows.iter().all(|r| r.len() == FIGURE13_HEADER.len()));
            let over: Vec<&Figure13Point> =
                points.iter().filter(|p| p.cell.load > 1.0).collect();
            assert!(
                over.iter().any(|p| p.extras[0] > 1.05),
                "overload rows should show retry amplification"
            );
            assert!(
                over.iter().any(|p| p.report.drops + p.report.shed > 0),
                "overload rows should refuse or shed something"
            );
        }

        #[test]
        fn underload_rows_are_healthy() {
            let points = sweep(&tiny_opts());
            for p in points.iter().filter(|p| p.cell.load < 1.0) {
                assert!(p.report.completed > 0, "underload cell completed nothing");
                assert!(
                    p.extras[0] < 1.5,
                    "underload should not amplify heavily: {} at {}/{}/{}",
                    p.extras[0],
                    p.cell.variant.label,
                    p.cell.admission.label,
                    p.cell.budget_on
                );
            }
        }
    }
}

pub mod figure14 {
    //! Figure 14: several stacks interleaved — the mixed multi-protocol
    //! service, class by class, Conventional vs. LDLP vs. LDLP with
    //! layer-affinity dispatch.
    //!
    //! Figures 5–13 drive one protocol at a time; a production
    //! small-message box interleaves several. Each cell here feeds one
    //! deterministic mixed stream (`crates/workload`: call signalling,
    //! service RPC, media control, DNS, and CBOR agent messaging, each
    //! heavy-tailed within its own size band) through the N-core
    //! simulator with the per-class service profiles of
    //! [`workload::profiles`], and reports *per class*: p50/p99
    //! latency, I-misses per message, and attainment against the
    //! class's latency SLO. The interleaving is the point — five
    //! handler footprints take turns evicting each other, so the
    //! conventional rows pay the paper's cold-cache tax on every class
    //! boundary while LDLP batching and layer-affinity placement keep
    //! hot code resident. The per-class view shows who pays: the
    //! tight-SLO media-control class cares about the p99 the agent
    //! class's fat handler inflicts on it.
    //!
    //! The sweep fans independent (cell, seed) jobs across worker
    //! threads and reduces in deterministic index order, so the CSV is
    //! byte-identical for any `--threads` value.

    use crate::sweep::merge_recorders;
    use crate::{f, RunOpts};
    use ldlp::{BatchPolicy, Discipline};
    use simnet::impair::ImpairCounters;
    use simnet::par::run_indexed;
    use simnet::stats::{ClassReport, SimReport};
    use smp::{DispatchPolicy, SmpConfig, SmpSim, MAX_WCLASS};
    use workload::{class_counts, evaluate, generate, profiles, to_flow_arrivals, MixConfig, WireClass};

    /// Aggregate offered load of the mixed stream (msg/s). Chosen so a
    /// single core saturates and eight cores do not: the figure's axis
    /// is how each variant shares the recovery among the classes.
    pub const RATE_MSG_S: f64 = 12_000.0;

    /// Synthetic flow population, split into five equal per-class bands
    /// by [`workload::to_flow_arrivals`].
    pub const FLOWS: u32 = 80;

    /// One (discipline, dispatch) server build.
    #[derive(Debug, Clone, Copy)]
    pub struct Variant {
        /// CSV label (`conv` / `ldlp` / `aff`).
        pub label: &'static str,
        pub discipline: Discipline,
        pub dispatch: DispatchPolicy,
    }

    /// The three builds the figure contrasts: conventional per-message
    /// processing, LDLP batching, and LDLP under layer-affinity
    /// dispatch — both LDLP rows use RSS-style flow hashing except the
    /// affinity row, whose dispatch *is* the variant.
    pub fn variants() -> [Variant; 3] {
        [
            Variant {
                label: "conv",
                discipline: Discipline::Conventional,
                dispatch: DispatchPolicy::FlowHash,
            },
            Variant {
                label: "ldlp",
                discipline: Discipline::Ldlp(BatchPolicy::DCacheFit),
                dispatch: DispatchPolicy::FlowHash,
            },
            Variant {
                label: "aff",
                discipline: Discipline::Ldlp(BatchPolicy::DCacheFit),
                dispatch: DispatchPolicy::LayerAffinity,
            },
        ]
    }

    /// Core counts swept (smoke keeps the 1-vs-4 contrast only).
    pub fn core_counts(smoke: bool) -> &'static [usize] {
        if smoke {
            &[1, 4]
        } else {
            &[1, 2, 4, 8]
        }
    }

    type Job = (SimReport, Vec<ClassReport>, Option<Box<obs::Recorder>>);

    fn run_cell(cores: usize, variant: &Variant, seed: u64, duration_s: f64, observe: bool) -> Job {
        let mix = MixConfig::service_mix(RATE_MSG_S, duration_s, seed);
        let stream = generate(&mix);
        let counts = class_counts(&stream);
        let arrivals = to_flow_arrivals(&stream, FLOWS, seed);
        let cfg = SmpConfig {
            duration_s,
            placement_seed: seed,
            wclass: profiles(),
            ..SmpConfig::new(cores, variant.dispatch, variant.discipline)
        };
        let mut sim = SmpSim::new(&cfg);
        if observe {
            sim.set_sinks(false);
        }
        sim.run(&arrivals);
        let out = sim.outcome(ImpairCounters::default());
        crate::perf::note_replay(&out.replay);
        assert!(
            out.report.conservation_holds(),
            "figure14 cell violates conservation: cores={cores} variant={}",
            variant.label
        );
        for c in WireClass::ALL {
            let r = out.classes.get(c.index()).unwrap_or_else(|| {
                panic!("figure14: missing class report for {c:?}")
            });
            assert_eq!(
                r.offered,
                counts[c.index()],
                "figure14: {c:?} offered diverges from the generator (cores={cores} variant={})",
                variant.label
            );
            assert_eq!(
                r.offered,
                r.completed + r.rejected + r.drops + r.shed,
                "figure14: {c:?} buckets do not close (cores={cores} variant={})",
                variant.label
            );
        }
        // Empty when not observing: no sinks were attached.
        let rec = merge_recorders(sim.take_recorders().into_iter().map(|(_, rec)| Some(rec)));
        (out.report, out.classes, rec)
    }

    /// One (cores, variant) cell's seed-averaged measurements.
    #[derive(Debug, Clone)]
    pub struct Figure14Point {
        pub cores: usize,
        pub variant: Variant,
        pub report: SimReport,
        /// Per-class reports indexed by class id (index 0 unused).
        pub classes: Vec<ClassReport>,
    }

    /// The full sweep: every (cores, variant) cell × `opts.seeds` mixed
    /// streams, averaged per cell in seed order.
    pub fn sweep(opts: &RunOpts) -> Vec<Figure14Point> {
        sweep_observed(opts, false).0
    }

    /// [`sweep`] with optional metrics recording; per-core recorders
    /// are folded per job (core order) then across jobs (index order),
    /// so the merged document is thread-count invariant. With the
    /// class profiles installed the recorders carry the per-class
    /// `w<id>/latency_us` histograms.
    pub fn sweep_observed(
        opts: &RunOpts,
        observe: bool,
    ) -> (Vec<Figure14Point>, Option<Box<obs::Recorder>>) {
        let vars = variants();
        let mut cells: Vec<(usize, Variant)> = Vec::new();
        for &cores in core_counts(opts.smoke) {
            for v in vars {
                cells.push((cores, v));
            }
        }
        let seeds = opts.seeds as usize;
        let mut runs: Vec<Job> = run_indexed(cells.len() * seeds, opts.effective_threads(), |i| {
            let (cores, variant) = cells[i / seeds];
            run_cell(cores, &variant, (i % seeds) as u64 + 1, opts.duration_s, observe)
        });
        let mut points = Vec::new();
        for (ci, &(cores, variant)) in cells.iter().enumerate() {
            let chunk = &runs[ci * seeds..(ci + 1) * seeds];
            let reports: Vec<SimReport> = chunk.iter().map(|job| job.0.clone()).collect();
            let report = SimReport::average(&reports).expect("at least one seed");
            let classes: Vec<ClassReport> = (0..MAX_WCLASS)
                .map(|w| {
                    let per_seed: Vec<ClassReport> = chunk
                        .iter()
                        .filter_map(|job| job.1.get(w).copied())
                        .collect();
                    ClassReport::average(&per_seed).unwrap_or_default()
                })
                .collect();
            points.push(Figure14Point {
                cores,
                variant,
                report,
                classes,
            });
        }
        let merged = merge_recorders(runs.iter_mut().map(|job| job.2.take()));
        (points, merged)
    }

    /// CSV schema: one row per (cores, variant, class).
    pub const FIGURE14_HEADER: [&str; 15] = [
        "cores",
        "variant",
        "class",
        "offered",
        "completed",
        "rejected",
        "drops",
        "shed",
        "p50_latency_us",
        "p99_latency_us",
        "imiss_per_msg",
        "dmiss_per_msg",
        "slo_us",
        "slo_attainment",
        "slo_met",
    ];

    /// Rows for [`FIGURE14_HEADER`], shared between the `figure14`
    /// binary and the thread-count determinism regression test.
    pub fn figure14_rows(points: &[Figure14Point]) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for p in points {
            let verdicts = evaluate(&p.classes);
            for c in WireClass::ALL {
                let Some(r) = p.classes.get(c.index()) else {
                    continue;
                };
                let met = verdicts
                    .iter()
                    .find(|v| v.class == c)
                    .map(|v| if v.met { "yes" } else { "no" })
                    .unwrap_or("n/a");
                rows.push(vec![
                    p.cores.to_string(),
                    p.variant.label.to_string(),
                    c.label().to_string(),
                    r.offered.to_string(),
                    r.completed.to_string(),
                    r.rejected.to_string(),
                    r.drops.to_string(),
                    r.shed.to_string(),
                    f(r.p50_latency_us, 1),
                    f(r.p99_latency_us, 1),
                    f(r.mean_imiss, 2),
                    f(r.mean_dmiss, 2),
                    f(r.slo_us, 0),
                    f(r.slo_attainment, 4),
                    met.to_string(),
                ]);
            }
        }
        rows
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn tiny_opts() -> RunOpts {
            RunOpts {
                seeds: 1,
                duration_s: 0.05,
                smoke: true,
                threads: Some(2),
                ..RunOpts::default()
            }
        }

        #[test]
        fn smoke_grid_shape_and_per_class_coverage() {
            // run_cell asserts per-class conservation per seed; this
            // test checks the grid shape and that every class carries
            // real traffic in every cell.
            let points = sweep(&tiny_opts());
            assert_eq!(points.len(), 2 * 3, "cores x variants");
            let rows = figure14_rows(&points);
            assert_eq!(rows.len(), points.len() * WireClass::ALL.len());
            assert!(rows.iter().all(|r| r.len() == FIGURE14_HEADER.len()));
            for p in &points {
                for c in WireClass::ALL {
                    let r = &p.classes[c.index()];
                    assert!(r.offered > 0, "{c:?} absent at {}x{}", p.cores, p.variant.label);
                    assert!(
                        (0.0..=1.0).contains(&r.slo_attainment),
                        "attainment out of range"
                    );
                }
            }
        }

        #[test]
        fn saturated_single_core_recovers_with_cores() {
            // One core at 12k msg/s of mixed traffic is past saturation
            // for every build (queueing dominates the tail); four cores
            // recover the tail, and the interleaving tax shows up as the
            // conventional build's I-miss rate staying flat while
            // affinity collapses it. The per-class view must agree with
            // the aggregate.
            let points = sweep(&tiny_opts());
            let total =
                |p: &Figure14Point| p.classes.iter().map(|c| c.completed).sum::<u64>();
            let find = |cores: usize, label: &str| {
                points
                    .iter()
                    .find(|p| p.cores == cores && p.variant.label == label)
                    .expect("grid point")
            };
            for v in variants() {
                let one = find(1, v.label);
                let four = find(4, v.label);
                assert!(
                    four.report.p99_latency_us < one.report.p99_latency_us,
                    "{}: 4 cores should cut the saturated single-core tail",
                    v.label
                );
                assert_eq!(total(one), one.report.completed, "class tallies cover the run");
                assert_eq!(total(four), four.report.completed);
            }
            let conv = find(4, "conv");
            let aff = find(4, "aff");
            for c in WireClass::ALL {
                assert!(
                    aff.classes[c.index()].mean_imiss < conv.classes[c.index()].mean_imiss,
                    "{c:?}: affinity should cut per-class I-misses"
                );
            }
        }
    }
}

pub mod figures {
    //! CSV row construction for the simulation figures, shared between
    //! the binaries and the determinism regression tests (which assert
    //! the parallel runner's CSV text is byte-identical to serial).

    use crate::f;
    use crate::sweep::SweepPoint;

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
}
