//! The experiment table owns the artifact list. Every committed
//! `results/*.csv` and `*.svg` has exactly one producer in
//! `bench::EXPERIMENTS` (a `<stem>_smoke_golden.csv` belongs to the entry
//! that writes `<stem>.csv`), every declared file is committed, and the
//! committed bytes are what the producers write: every declared CSV's
//! smoke golden and `metrics_smoke_golden.json` here, every full output
//! but figure9's and figure13's under
//! `cargo test --release -p bench --test artifacts -- --ignored`.

use bench::harness::{artifact_name, experiment, Experiment, Flags, EXPERIMENTS};
use std::path::PathBuf;
use std::process::Command;

fn results() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn read(name: &str) -> String {
    std::fs::read_to_string(results().join(name)).unwrap_or_else(|e| panic!("results/{name}: {e}"))
}

/// The committed golden a declared CSV's smoke run is held to.
fn golden(file: &str) -> String {
    format!("{}_smoke_golden.csv", file.trim_end_matches(".csv"))
}

/// Every file `e` writes under the flags `line`, as (name, contents).
fn run(e: &Experiment, line: &str) -> Vec<(String, String)> {
    let flags = Flags::parse(line.split_whitespace().map(String::from)).expect("valid flags");
    let opts = e.opts(&flags);
    e.artifacts(&opts, &(e.run)(&opts))
}

fn text<'a>(files: &'a [(String, String)], name: &str) -> &'a str {
    &files.iter().find(|f| f.0 == name).unwrap_or_else(|| panic!("{name} was not written")).1
}

/// What keeps `table` from being the one producer of the committed results.
fn ownership_problems<'a>(table: impl Iterator<Item = &'a Experiment> + Clone) -> Vec<String> {
    let mut committed: Vec<String> = std::fs::read_dir(results())
        .expect("read results/")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".csv") || name.ends_with(".svg"))
        .collect();
    committed.sort();
    let mut problems = Vec::new();
    for name in &committed {
        let producers: Vec<&str> = table
            .clone()
            .filter(|e| e.files.iter().any(|&f| f == name || golden(f) == *name))
            .map(|e| e.name)
            .collect();
        if producers.len() != 1 {
            problems.push(format!("results/{name} has producers {producers:?}"));
        }
    }
    for e in table {
        for f in e.files.iter().filter(|f| !committed.iter().any(|c| c == *f)) {
            problems.push(format!("{}: {f} is not committed", e.name));
        }
    }
    problems
}

#[test]
fn every_committed_result_has_exactly_one_producer() {
    assert_eq!(ownership_problems(EXPERIMENTS.iter()), Vec::<String>::new());
    // A table without `impairments` leaves its CSV and its golden unowned.
    assert_eq!(
        ownership_problems(EXPERIMENTS.iter().filter(|e| e.name != "impairments")),
        [
            "results/impairments.csv has producers []",
            "results/impairments_smoke_golden.csv has producers []",
        ]
    );
}

#[test]
fn smoke_goldens_and_the_metrics_golden_reproduce() {
    for e in &EXPERIMENTS {
        let files = run(e, "--smoke");
        for file in e.files.iter().filter(|f| f.ends_with(".csv")) {
            let name = artifact_name(file, true);
            assert!(
                text(&files, &name) == read(&golden(file)),
                "{name} differs from results/{}",
                golden(file)
            );
        }
    }
    let files = run(experiment("figure6"), "--seeds 2 --duration 0.1 --metrics");
    assert!(text(&files, "metrics.json") == read("metrics_smoke_golden.json"));
}

#[test]
#[ignore = "full grids: cargo test --release -p bench --test artifacts -- --ignored"]
fn full_grids_reproduce_the_committed_results() {
    // figure9 and figure13 are 70 % of the suite's time; their smoke
    // goldens and the determinism test hold them.
    for e in EXPERIMENTS.iter().filter(|e| !["figure9", "figure13"].contains(&e.name)) {
        for threads in [1, 4] {
            let files = run(e, &format!("--threads {threads}"));
            for &file in e.files {
                assert!(
                    text(&files, file) == read(file),
                    "{file} at {threads} threads drifted from results/{file}"
                );
            }
        }
    }
}

#[test]
fn a_bad_flag_exits_2_with_the_usage_message() {
    for args in [&["--seeds", "many"][..], &["--seeds"], &["--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_figure8"))
            .args(args)
            .output()
            .expect("run figure8");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: ") && stderr.contains("usage: "), "{stderr}");
    }
}

#[test]
fn a_closed_stdout_costs_no_artifact() {
    // Nothing reads stdout any more, as after `| head -1`: every print fails.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::env::temp_dir().join(format!("bench_closed_stdout_{}", std::process::id()));
    Command::new(env!("CARGO_BIN_EXE_figure14"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .stdout(writer)
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run figure14");
    let csv = std::fs::read_to_string(out.join("figure14_smoke.csv")).expect("CSV written");
    std::fs::remove_dir_all(&out).ok();
    assert!(csv == read("figure14_smoke_golden.csv"));
}
