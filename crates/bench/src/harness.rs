//! The one experiment harness.
//!
//! Every table, figure and ablation is one [`Experiment`] entry of
//! [`EXPERIMENTS`]: its name, its `--seeds`/`--duration` defaults for full
//! and `--smoke` runs, the files it writes, and a `run` that turns
//! [`RunOpts`] into an [`Output`]. A binary's whole body is [`main`]: parse
//! the flags over the entry's defaults, run it, write every artifact, then
//! print. Sweeps fan their (cell, seed) jobs out through [`grid`].
//!
//! Flags, the same for every binary:
//!
//! * `--seeds N` — random placements to average over (paper: 100; the
//!   entry's default otherwise, 20 for most).
//! * `--duration S` — simulated seconds per (point, seed) job.
//! * `--out DIR` — output directory (default `results/`).
//! * `--threads N` — worker threads for [`grid`] (default: the
//!   `SMP_THREADS` environment variable, else all host cores). Output is
//!   byte-identical for every thread count; `--threads 1` is the serial
//!   reference path.
//! * `--smoke` — the entry's reduced configuration. Every file it writes
//!   gets a `_smoke` suffix (`figure9_smoke.csv`), so a smoke run never
//!   overwrites a full result.
//! * `--metrics` / `--trace` — `metrics.json` / `trace.json` from the
//!   entries that record them.

use crate::{
    ablation_cachesize, ablation_cisc, ablation_dilution, ablation_layout, ablation_policy,
    ablation_prefetch, ablation_tlb, ablation_transmit, dynamics, figure1, figure10, figure13,
    figure14, figure4_regimes, figure8, figure9, figures, impairments, signaling_goal, table1,
    table3, trace_replay,
};
use obs::Recorder;
use simnet::par::run_indexed;
use simnet::stats::SimReport;
use std::path::{Path, PathBuf};

/// Common experiment options: the flags resolved over an entry's defaults.
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
    /// Reduced CI configuration (fewer grid points and seeds); every
    /// file the run writes gets a `_smoke` suffix, so the golden file the
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
    /// The worker-thread count this run will actually use.
    pub fn effective_threads(&self) -> usize {
        simnet::par::resolve_threads(self.threads)
    }
}

/// The flags as given on the command line. `--seeds` and `--duration`
/// are `None` when absent, so an entry's own default and an explicit
/// value equal to some other default can be told apart.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    pub seeds: Option<u64>,
    pub duration_s: Option<f64>,
    /// Every other flag, as the run options it sets.
    pub opts: RunOpts,
}

const USAGE: &str = "usage: <bin> [--seeds N] [--duration S] [--out DIR] [--threads N] [--smoke] \
                     [--trace] [--metrics]";

impl Flags {
    /// Parses the arguments that follow the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        fn value<T: std::str::FromStr>(
            args: &mut impl Iterator<Item = String>,
            err: &str,
        ) -> Result<T, String> {
            args.next().and_then(|v| v.parse().ok()).ok_or_else(|| err.to_string())
        }
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seeds" => flags.seeds = Some(value(&mut args, "--seeds needs a number")?),
                "--duration" => {
                    flags.duration_s = Some(value(&mut args, "--duration needs seconds")?)
                }
                "--out" => flags.opts.out_dir = value(&mut args, "--out needs a directory")?,
                "--threads" => {
                    flags.opts.threads = Some(value(&mut args, "--threads needs a count")?)
                }
                "--smoke" => flags.opts.smoke = true,
                "--trace" => flags.opts.trace = true,
                "--metrics" => flags.opts.metrics = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if flags.seeds == Some(0) {
            return Err("--seeds must be at least 1".into());
        }
        Ok(flags)
    }
}

/// [`Flags::parse`] over the process arguments. A bad flag prints the
/// error and the usage message and exits 2.
pub fn flags() -> Flags {
    Flags::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("{USAGE}");
        std::process::exit(2)
    })
}

/// One CSV of an [`Output`].
#[derive(Debug)]
pub struct Csv {
    pub header: &'static [&'static str],
    pub rows: Vec<Vec<String>>,
    /// The columns the printed table shows, by index; empty: not printed.
    pub shown: &'static [usize],
}

/// What one run produced. [`Experiment::drive`] writes it, then prints it.
#[derive(Debug, Default)]
pub struct Output {
    /// Printed above the tables.
    pub title: String,
    /// One per `.csv` in the entry's `files`, in that order.
    pub csvs: Vec<Csv>,
    /// Printed below the tables: whatever is not a table.
    pub note: String,
    /// The contents of the entry's `.svg` file, if it declares one.
    pub svg: Option<String>,
    /// The recorder merged over the run (under `--metrics`).
    pub metrics: Option<Box<Recorder>>,
    /// Meta pairs `metrics.json` carries after the standard block.
    pub meta: Vec<(&'static str, String)>,
    /// Traced runs (under `--trace`): process name, recorder, and the
    /// recorder's timestamp units per microsecond.
    pub trace: Vec<(String, Box<Recorder>, f64)>,
}

impl Output {
    /// An output with one CSV, printed through its columns `shown`, and
    /// a note.
    pub fn table(
        title: String,
        header: &'static [&'static str],
        rows: Vec<Vec<String>>,
        shown: &'static [usize],
        note: &str,
    ) -> Output {
        Output {
            title,
            csvs: vec![Csv { header, rows, shown }],
            note: note.to_string(),
            ..Output::default()
        }
    }
}

/// One table, figure or ablation.
#[derive(Debug)]
pub struct Experiment {
    /// The binary's name.
    pub name: &'static str,
    /// `(--seeds, --duration)` when those flags are absent, for a full
    /// and for a `--smoke` run.
    pub full: (u64, f64),
    pub smoke: (u64, f64),
    /// The files a run writes into `--out`, its CSVs in [`Output::csvs`]
    /// order. `metrics.json` and `trace.json` come on top when the run
    /// records them.
    pub files: &'static [&'static str],
    pub run: fn(&RunOpts) -> Output,
}

/// An entry with the common defaults: 20 placements × 1 s, and 2 × 0.1 s
/// under `--smoke`.
const fn entry(
    name: &'static str,
    files: &'static [&'static str],
    run: fn(&RunOpts) -> Output,
) -> Experiment {
    Experiment {
        name,
        full: (20, 1.0),
        smoke: (2, 0.1),
        files,
        run,
    }
}

/// `e` with its own defaults for a full and a `--smoke` run.
const fn with(full: (u64, f64), smoke: (u64, f64), e: Experiment) -> Experiment {
    Experiment { full, smoke, ..e }
}

/// Every experiment, in the order `all_experiments` runs them.
pub const EXPERIMENTS: [Experiment; 24] = [
    entry("table1", &["table1.csv"], table1::run),
    entry(
        "figure1",
        &["figure1_phases.csv", "figure1_coverage.csv", "figure1_map.svg"],
        figure1::run,
    ),
    entry("table3", &["table3.csv"], table3::run),
    entry("figure5", &["figure5.csv"], figures::figure5),
    entry("figure6", &["figure6.csv"], figures::figure6),
    // Trace-driven runs need more simulated time than the Poisson
    // sweeps for the burst structure to matter.
    with((20, 5.0), (2, 0.25), entry("figure7", &["figure7.csv"], figures::figure7)),
    entry("figure8", &["figure8.csv"], figure8::run),
    // The smoke goldens of figures 9–14 and impairments are 1 s runs.
    with((10, 1.0), (2, 1.0), entry("figure9", &["figure9.csv"], figure9::run)),
    with((3, 1.0), (2, 1.0), entry("figure10", &["figure10.csv"], figure10::run)),
    with((10, 1.0), (2, 1.0), entry("figure13", &["figure13.csv"], figure13::run)),
    with((10, 1.0), (2, 1.0), entry("figure14", &["figure14.csv"], figure14::run)),
    entry("figure4_regimes", &["figure4_regimes.csv"], figure4_regimes::run),
    with(
        (10, 1.0),
        (2, 1.0),
        entry("signaling_goal", &["signaling_goal.csv"], signaling_goal::run),
    ),
    with((5, 1.0), (1, 1.0), entry("impairments", &["impairments.csv"], impairments::run)),
    entry("trace_replay", &["trace_replay.csv"], trace_replay::run),
    entry("dynamics", &["dynamics.csv"], dynamics::run),
    entry("ablation_cisc", &["ablation_cisc.csv"], ablation_cisc::run),
    entry("ablation_dilution", &["ablation_dilution.csv"], ablation_dilution::run),
    entry("ablation_policy", &["ablation_policy.csv"], ablation_policy::run),
    entry("ablation_cachesize", &["ablation_cachesize.csv"], ablation_cachesize::run),
    entry("ablation_transmit", &["ablation_transmit.csv"], ablation_transmit::run),
    entry("ablation_tlb", &["ablation_tlb.csv"], ablation_tlb::run),
    entry("ablation_layout", &["ablation_layout.csv"], ablation_layout::run),
    entry("ablation_prefetch", &["ablation_prefetch.csv"], ablation_prefetch::run),
];

/// The file name `file` gets in `--out`: `figure9.csv`, or
/// `figure9_smoke.csv` under `--smoke`.
pub fn artifact_name(file: &str, smoke: bool) -> String {
    match file.rsplit_once('.') {
        Some((stem, ext)) if smoke => format!("{stem}_smoke.{ext}"),
        _ => file.to_string(),
    }
}

impl Experiment {
    /// The entry's run options: `flags` over its full or `--smoke` defaults.
    pub fn opts(&self, flags: &Flags) -> RunOpts {
        let (seeds, duration_s) = if flags.opts.smoke { self.smoke } else { self.full };
        RunOpts {
            seeds: flags.seeds.unwrap_or(seeds),
            duration_s: flags.duration_s.unwrap_or(duration_s),
            ..flags.opts.clone()
        }
    }

    /// Every file `out` becomes, as (name in `--out`, contents): the
    /// declared files, then `metrics.json` and `trace.json` when recorded.
    pub fn artifacts(&self, opts: &RunOpts, out: &Output) -> Vec<(String, String)> {
        let mut csvs = out.csvs.iter();
        let mut files: Vec<(String, String)> = self
            .files
            .iter()
            .map(|&file| {
                let text = if file.ends_with(".svg") {
                    out.svg.clone()
                } else {
                    csvs.next().map(|c| csv_text(c.header, &c.rows))
                };
                let text = text.unwrap_or_else(|| panic!("{}: no output for {file}", self.name));
                (artifact_name(file, opts.smoke), text)
            })
            .collect();
        assert!(csvs.next().is_none(), "{}: more CSVs than declared files", self.name);
        if let Some(rec) = &out.metrics {
            let mut meta = vec![
                ("experiment", self.name.to_string()),
                ("seeds", opts.seeds.to_string()),
                ("duration_s", format!("{}", opts.duration_s)),
                ("smoke", opts.smoke.to_string()),
            ];
            meta.extend(out.meta.iter().cloned());
            files.push(("metrics.json".into(), obs::metrics::metrics_json(&meta, rec)));
        }
        if !out.trace.is_empty() {
            let parts: Vec<obs::TracePart> = out
                .trace
                .iter()
                .map(|(process, recorder, units_per_us)| obs::TracePart {
                    process,
                    recorder,
                    units_per_us: *units_per_us,
                })
                .collect();
            files.push(("trace.json".into(), obs::trace::chrome_trace_json(&parts)));
        }
        files
    }

    /// Runs the entry under `flags`, writes every artifact into `--out`,
    /// then prints: the title, the tables, the note and the files written.
    /// Nothing is printed before the files are on disk, so a closed
    /// stdout cannot cost an artifact.
    pub fn drive(&self, flags: &Flags) {
        let opts = self.opts(flags);
        let out = (self.run)(&opts);
        let files = self.artifacts(&opts, &out);
        write_files(&opts.out_dir, &files);
        println!("{}\n", out.title);
        for csv in out.csvs.iter().filter(|c| !c.shown.is_empty()) {
            let header: Vec<String> = csv.header.iter().map(|h| h.to_string()).collect();
            let table: Vec<Vec<String>> = std::iter::once(&header)
                .chain(&csv.rows)
                .map(|row| csv.shown.iter().map(|&i| row[i].clone()).collect())
                .collect();
            print_table(&table);
            println!();
        }
        if !out.note.is_empty() {
            println!("{}\n", out.note.trim_end());
        }
        for (name, _) in &files {
            println!("wrote {}", opts.out_dir.join(name).display());
        }
    }
}

/// The [`EXPERIMENTS`] entry named `name`.
pub fn experiment(name: &str) -> &'static Experiment {
    let entry = EXPERIMENTS.iter().find(|e| e.name == name);
    entry.unwrap_or_else(|| panic!("{name} is not an EXPERIMENTS entry"))
}

/// The whole body of the experiment binary `name`.
pub fn main(name: &str) {
    experiment(name).drive(&flags());
}

/// Renders a CSV document as a string (exactly what [`Experiment::drive`]
/// puts on disk).
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

/// Writes `(name, contents)` files into `dir`, creating it if needed.
pub fn write_files(dir: &Path, files: &[(String, String)]) {
    std::fs::create_dir_all(dir).expect("create output directory");
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap_or_else(|e| panic!("write {name}: {e}"));
    }
}

/// Prints an aligned text table whose first row is the header.
fn print_table(table: &[Vec<String>]) {
    let widths: Vec<usize> = (0..table[0].len())
        .map(|i| table.iter().map(|row| row[i].len()).max().unwrap_or(0))
        .collect();
    for (k, row) in table.iter().enumerate() {
        let cells: Vec<String> =
            row.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}")).collect();
        println!("{}", cells.join("  "));
        if k == 0 {
            println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        }
    }
}

/// Runs `job(cell, seed)` for every cell and every seed `1..=opts.seeds`
/// on `opts.effective_threads()` workers, and returns each cell's results
/// in seed order. Jobs are indexed cell-major, seed-minor, and the
/// parallel executor hands them back in index order, so a reduction over
/// the result — a seed-order average, an index-order recorder merge — is
/// the same for every thread count.
pub fn grid<C, T, F>(opts: &RunOpts, cells: &[C], job: F) -> Vec<Vec<T>>
where
    C: Sync,
    T: Send,
    F: Fn(&C, u64) -> T + Sync,
{
    let seeds = opts.seeds as usize;
    let runs = run_indexed(cells.len() * seeds, opts.effective_threads(), |i| {
        job(&cells[i / seeds], (i % seeds) as u64 + 1)
    });
    let mut runs = runs.into_iter();
    cells.iter().map(|_| runs.by_ref().take(seeds).collect()).collect()
}

/// [`grid`] over jobs that each produce one report: every cell's
/// seed-order mean, in cell order.
pub(crate) fn averages<C, F>(opts: &RunOpts, cells: &[C], job: F) -> Vec<SimReport>
where
    C: Sync,
    F: Fn(&C, u64) -> SimReport + Sync,
{
    grid(opts, cells, job).into_iter().map(average).collect()
}

/// The seed-order mean of one cell's reports.
pub(crate) fn average(reports: impl IntoIterator<Item = SimReport>) -> SimReport {
    SimReport::average(&reports.into_iter().collect::<Vec<_>>()).expect("at least one seed")
}

/// Element-wise totals of per-seed side metrics, added in seed order.
pub(crate) fn sums<T, const N: usize>(rows: impl IntoIterator<Item = [T; N]>) -> [T; N]
where
    T: Copy + Default + std::ops::AddAssign,
{
    let mut acc = [T::default(); N];
    for row in rows {
        for (a, x) in acc.iter_mut().zip(row) {
            *a += x;
        }
    }
    acc
}

/// Folds recorders into the first one, in iteration order.
pub(crate) fn merge(recorders: impl IntoIterator<Item = Option<Box<Recorder>>>) -> Option<Box<Recorder>> {
    let mut merged: Option<Box<Recorder>> = None;
    for rec in recorders.into_iter().flatten() {
        match merged.as_mut() {
            None => merged = Some(rec),
            Some(m) => m.merge(&rec),
        }
    }
    merged
}

/// Unit-test options: `seeds` × 0.05 s on the smoke grid, two workers.
#[cfg(test)]
pub(crate) fn tiny_opts(seeds: u64) -> RunOpts {
    RunOpts {
        seeds,
        duration_s: 0.05,
        smoke: true,
        threads: Some(2),
        ..RunOpts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a command line such as `"--smoke --seeds 20"`.
    fn parse(line: &str) -> Result<Flags, String> {
        Flags::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_resolve_over_the_entry_defaults() {
        let (fig7, fig14) = (experiment("figure7"), experiment("figure14"));
        // An explicit value equal to the global default is honoured.
        let opts = fig14.opts(&parse("--smoke --seeds 20").unwrap());
        assert_eq!((opts.seeds, opts.smoke), (20, true));
        assert_eq!(fig7.opts(&parse("--duration 1").unwrap()).duration_s, 1.0);
        // An absent flag gives the entry's default, `--smoke` its smoke one.
        assert_eq!(fig14.opts(&parse("").unwrap()).seeds, 10);
        assert_eq!(fig7.opts(&Flags::default()).duration_s, 5.0);
        assert_eq!(fig14.opts(&parse("--smoke").unwrap()).seeds, 2);
        let opts = experiment("figure5").opts(&parse("--threads 3 --out d --metrics").unwrap());
        assert_eq!((opts.seeds, opts.threads, opts.metrics), (20, Some(3), true));
        assert_eq!(opts.out_dir, PathBuf::from("d"));
    }

    #[test]
    fn bad_flags_are_errors() {
        let bad = ["--seeds x", "--seeds", "--seeds 0", "--duration soon", "--threads -1", "--out"];
        for line in bad.into_iter().chain(["--bogus"]) {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn grid_is_cell_major_and_seed_minor() {
        let opts = RunOpts {
            seeds: 3,
            threads: Some(2),
            ..RunOpts::default()
        };
        let got = grid(&opts, &[10u64, 20], |&cell, seed| cell + seed);
        assert_eq!(got, vec![vec![11, 12, 13], vec![21, 22, 23]]);
    }
}
