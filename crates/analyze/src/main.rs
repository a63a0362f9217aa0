//! CLI for the static invariant analyzer.
//!
//! ```text
//! cargo run -p analyze -- --check                 # gate: exit 1 on any violation
//! cargo run -p analyze -- --fix-inventory         # also write results/analyze_report.json
//! cargo run -p analyze -- --check --path f.rs \
//!     --crate-name simnet --role lib              # scan one file (fixture tests)
//! ```

use analyze::source::FileRole;
use analyze::{scan_source, scan_workspace, Finding, Scan, Status};
use std::path::PathBuf;
use std::process::ExitCode;

/// Violation output format: `plain` for local runs, `github` for CI
/// (`::error file=...,line=...::` workflow commands render inline on
/// the PR diff).
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Plain,
    Github,
}

struct Opts {
    check: bool,
    fix_inventory: bool,
    root: Option<PathBuf>,
    path: Option<PathBuf>,
    crate_name: String,
    role: FileRole,
    format: Format,
}

fn usage() -> ! {
    eprintln!(
        "usage: analyze [--check] [--fix-inventory] [--root DIR] [--format plain|github]\n\
         \x20      [--path FILE --crate-name NAME --role lib|bin|test|bench]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        check: false,
        fix_inventory: false,
        root: None,
        path: None,
        crate_name: "simnet".to_string(),
        role: FileRole::Lib,
        format: Format::Plain,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => opts.check = true,
            "--fix-inventory" => opts.fix_inventory = true,
            "--root" => opts.root = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--path" => opts.path = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--crate-name" => opts.crate_name = args.next().unwrap_or_else(|| usage()),
            "--role" => {
                opts.role = match args.next().as_deref() {
                    Some("lib") => FileRole::Lib,
                    Some("bin") => FileRole::Bin,
                    Some("test") => FileRole::Test,
                    Some("bench") => FileRole::Bench,
                    _ => usage(),
                }
            }
            "--format" => {
                opts.format = match args.next().as_deref() {
                    Some("plain") => Format::Plain,
                    Some("github") => Format::Github,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !opts.check && !opts.fix_inventory {
        opts.check = true;
    }
    opts
}

/// Escapes a message for a GitHub Actions workflow-command value:
/// `%`, CR and LF must be percent-encoded.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// The workspace root: `--root` if given, else the manifest's
/// grandparent (`crates/analyze/../..`), which works from any cwd.
fn workspace_root(opts: &Opts) -> PathBuf {
    opts.root.clone().unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    })
}

fn main() -> ExitCode {
    let opts = parse_args();

    let scan: Scan = if let Some(path) = &opts.path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("analyze: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let findings = scan_source(&path.to_string_lossy(), &opts.crate_name, opts.role, &text);
        Scan { findings, dead_surface: Default::default() }
    } else {
        match scan_workspace(&workspace_root(&opts)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("analyze: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let findings = &scan.findings;
    let violations: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.status == Status::Violation)
        .collect();
    let allowed = findings.len() - violations.len();

    if opts.fix_inventory {
        let root = workspace_root(&opts);
        let results = root.join("results");
        let out = results.join("analyze_report.json");
        if let Err(e) = std::fs::create_dir_all(&results)
            .and_then(|()| std::fs::write(&out, analyze::report_json(&scan)))
        {
            eprintln!("analyze: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
        println!("analyze: wrote {} ({} findings)", out.display(), findings.len());
    }

    for v in &violations {
        match opts.format {
            Format::Plain => println!("{}:{}: [{}] {}", v.path, v.line, v.rule, v.message),
            Format::Github => println!(
                "::error file={},line={},title=analyze {}::{}",
                v.path,
                v.line.max(1),
                v.rule,
                gh_escape(&v.message)
            ),
        }
    }
    println!(
        "analyze: {} violation(s), {} justified hazard(s) across {} finding(s)",
        violations.len(),
        allowed,
        findings.len()
    );
    if opts.check && !violations.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
