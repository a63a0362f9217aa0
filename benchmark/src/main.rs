//! `sysbench` — the repo's system benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh [--quick] [--seed S] [--seconds N] [--workload W]
//!     every workload (or W), each run in its own process:
//!     verify + untraced reps, then traced reps + probes;
//!     writes benchmark/out/results.json
//! run.sh --workload W --seed S --seconds N --trace 0|1 [--quick]
//!     one run; the last line of stdout is the result as JSON
//! run.sh verify | compare A.json B.json | manifest
//! ```

mod compare;
mod json;
mod measure;
mod metrics;
mod probes;
mod sweeps;
mod timing;
mod trace;
mod verify;
mod workloads;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Size, Workload, WORKLOADS};

const OUT_DIR: &str = "benchmark/out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--quick] [--seed S] [--seconds N] [--workload W] [--trace 0|1]\n\
         \x20      run.sh verify | compare A.json B.json | manifest\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

#[derive(Debug)]
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => out.quick = true,
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

impl Args {
    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            0.5
        } else {
            metrics::RUN_SECONDS as f64
        })
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn record_path(workload: &str, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("run_{workload}_trace{}.json", u8::from(trace)))
}

fn metrics_object(rows: &metrics::Values) -> Value {
    Value::obj(rows.iter().map(|(name, v, unit)| {
        (
            name.as_str(),
            Value::obj([
                ("value", Value::Num(*v)),
                ("unit", Value::Str(unit.to_string())),
            ]),
        )
    }))
}

fn min_med_max(s: &measure::MinMedMax) -> Value {
    Value::obj([
        ("min", Value::Num(s.min)),
        ("median", Value::Num(s.median)),
        ("max", Value::Num(s.max)),
    ])
}

/// One run of one workload. Prints every metric by name with its unit,
/// leaves a record (and, traced, the span file) under `benchmark/out/`,
/// and ends stdout with the result line.
fn run_one(args: &Args, w: &'static Workload, trace: bool) -> Result<bool, String> {
    if !trace {
        verify::run_checks(verify::checks_for(w.name))?;
    }
    let out = measure::run(&measure::Options {
        workload: w,
        size: args.size(),
        seed: args.seed,
        seconds: args.seconds(),
        trace,
    });
    println!(
        "{} seed {} trace {}: {} reps ({} set aside), {} cells a rep, {} failed, sim_digest {:016x}",
        w.name,
        args.seed,
        u8::from(trace),
        out.reps,
        out.reps_discarded,
        out.attempted / (out.reps + out.reps_discarded).max(1) as u64,
        out.failed,
        out.digest
    );
    println!(
        "  rep wall_s min/median/max {:.4} {:.4} {:.4}",
        out.rep_wall_s.min, out.rep_wall_s.median, out.rep_wall_s.max
    );
    for (name, v, unit) in &out.metrics {
        println!("  {name:40} {v:>16.6} {unit}");
    }
    let metrics = metrics_object(&out.metrics);
    let record = Value::obj([
        ("workload", Value::Str(w.name.to_string())),
        ("trace", Value::Num(f64::from(u8::from(trace)))),
        ("seed", Value::Num(args.seed as f64)),
        ("quick", Value::Bool(args.quick)),
        ("seconds", Value::Num(args.seconds())),
        ("correct", Value::Bool(out.correct)),
        ("cells_attempted", Value::Num(out.attempted as f64)),
        ("failed_cells", Value::Num(out.failed as f64)),
        ("sim_digest", Value::Str(format!("{:016x}", out.digest))),
        ("reps", Value::Num(out.reps as f64)),
        ("reps_discarded", Value::Num(out.reps_discarded as f64)),
        ("rep_wall_s", min_med_max(&out.rep_wall_s)),
        ("rep_setup_s", min_med_max(&out.rep_setup_s)),
        ("metrics", metrics.clone()),
    ]);
    write_file(&record_path(w.name, trace), &record.pretty())?;
    if trace {
        let path = Path::new(OUT_DIR).join(format!("trace_{}.json", w.name));
        write_file(
            &path,
            &trace::trace_json(w.name, args.seed, &out.spans).compact(),
        )?;
    }
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(out.correct)),
            ("attempted", Value::Num(out.attempted as f64)),
            ("failed", Value::Num(out.failed as f64)),
            ("metrics", metrics),
        ])
        .compact()
    );
    Ok(out.correct)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload, two child processes each (a process per run keeps
/// `peak_rss_mb` per workload and every run single-threaded), then the
/// merged `results.json`.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut merged = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let mut fields = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.quick {
                cmd.arg("--quick");
            }
            // A child that dies early must not leave an older record
            // to be read in its place.
            let path = record_path(w.name, trace);
            let _ = std::fs::remove_file(&path);
            let status = cmd
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            all_ok &= status.success();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let record = json::parse(&text)?;
            let metrics = record.get("metrics").cloned().unwrap_or(Value::Null);
            if trace {
                fields.push(("per_layer".to_string(), metrics));
            } else {
                // The untraced run is the run of record for everything
                // but the per-layer metrics.
                fields.extend(
                    record
                        .fields()
                        .iter()
                        .filter(|(k, _)| !matches!(k.as_str(), "workload" | "trace" | "metrics"))
                        .cloned(),
                );
                fields.push(("end_to_end".to_string(), metrics));
            }
        }
        merged.push((w.name.to_string(), Value::Obj(fields)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Value::obj([
        (
            "meta",
            Value::obj([
                (
                    "git_rev",
                    Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Value::Str(tool_line("rustc", &["--version"]))),
                ("nproc", Value::Num(nproc as f64)),
                ("threads_per_run", Value::Num(1.0)),
            ]),
        ),
        ("workloads", Value::Obj(merged)),
    ]);
    let path = Path::new(OUT_DIR).join("results.json");
    write_file(&path, &results.pretty())?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

fn load(path: &str) -> Result<Value, String> {
    json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

/// A failure to report: bad usage (exit 2) or a failed run (exit 1).
enum Fail {
    Usage(String),
    Run(String),
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail::Run(msg)
    }
}

fn dispatch(argv: &[String]) -> Result<bool, Fail> {
    match argv.first().map(String::as_str) {
        Some("verify") => Ok(verify::run_checks(&verify::ALL).map(|()| true)?),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some("compare") => match argv {
            [_, a, b] => Ok(compare::compare(&load(a)?, &load(b)?)?),
            _ => Err(Fail::Usage("compare takes two result files".into())),
        },
        _ => {
            let args = parse_args(argv).map_err(Fail::Usage)?;
            match (args.trace, args.workload) {
                (Some(trace), Some(w)) => Ok(run_one(&args, w, trace)?),
                (Some(_), None) => Err(Fail::Usage("--trace needs --workload".into())),
                (None, _) => Ok(run_suite(&args)?),
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Fail::Run(msg)) => {
            eprintln!("sysbench: {msg}");
            ExitCode::FAILURE
        }
        Err(Fail::Usage(msg)) => {
            eprintln!("sysbench: {msg}");
            usage()
        }
    }
}
