//! # analyze — static determinism & hot-path invariant analyzer
//!
//! The workspace's headline guarantees — CSVs byte-identical across
//! any worker count, impairment fates replayable from the seed with a
//! fixed RNG-draw budget — are runtime-tested but easy to break
//! silently: one `HashMap` iteration, one `Instant::now()`, one
//! conditional RNG draw, and a refactor ships a nondeterminism bug the
//! goldens only catch later (or never, if the goldens get
//! regenerated). This crate scans the workspace sources and fails CI
//! when an unjustified hazard appears.
//!
//! The rule catalog (see `DESIGN.md` §5.3):
//!
//! | id | rule |
//! |----|------|
//! | R1 `nondeterminism`  | no wall clock / `thread_rng` / hash-order containers in sim crates |
//! | R2 `rng-draw-budget` | `simnet::impair` fns declare `// draws: N`, checked against call sites |
//! | R3 `unsafe-safety`   | every `unsafe` carries a `// SAFETY:` comment |
//! | R5 `float-reduction` | no ad-hoc `f64` folds in par-consuming files |
//! | G1 `panic-path`      | may-panic facts (unwrap/expect/panic!/indexing/division) reachable from `hot_path` roots |
//! | G2 `alloc-path`      | may-allocate facts reachable from `hot_path` roots |
//! | G3 `charge-coverage` | charged-structure touches in measured windows reach a cachesim charge |
//! | G4 `dead-surface`    | every `pub` library item is reached from a bin, example, test, doctest or `benchmark/src` |
//! | — `allow-grammar`    | malformed allows, or allows naming no suppressible rule (unsuppressible) |
//! | — `graph-config`     | missing roots / dangling annotations / stale config (unsuppressible) |
//!
//! R1–R3 and R5 are per-line (there is no R4: panics are G1's alone,
//! judged where a hot path can reach them); G1–G3 propagate leaf facts
//! across function boundaries over the workspace call graph (`graph`
//! module, see `DESIGN.md` §5.8). Roots are marked
//! `// analyze::hot_path(<name>[, rules = "..."])` above a `fn`. G4
//! walks name mentions instead of calls, from every program that uses
//! the libraries; its edges over-approximate, so it can miss dead code
//! but never lists live code (`rules::dead_surface`).
//!
//! Escape hatch (reviewed, justified, reported):
//! `// analyze::allow(<rule>, reason = "...")` — suppresses the rule
//! on its own line or the next code line; the reason is carried into
//! `results/analyze_report.json` so the inventory of accepted hazards
//! stays visible. `<rule>` must be one of [`rules::ALLOWABLE_RULES`].

pub mod graph;
pub mod rules;
pub mod source;

pub use rules::graph_rules::GraphConfig;

use rules::{ALLOWABLE_RULES, RULE_ALLOW_GRAMMAR, RULE_GRAPH_CONFIG};
use source::{FileRole, SourceFile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Outcome of one rule hit after allow-annotations are applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// A live violation: fails `--check`.
    Violation,
    /// Suppressed by an `analyze::allow` with this justification.
    Allowed(String),
}

/// One reportable finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id.
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation of the hazard.
    pub message: String,
    /// Violation or justified.
    pub status: Status,
}

/// A whole scan: every finding, plus the `dead-surface` totals.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Violations and justified hazards, sorted by path and line.
    pub findings: Vec<Finding>,
    /// Roots, candidates and unreached candidates of `dead-surface`.
    pub dead_surface: rules::dead_surface::Totals,
}

/// Applies the allow-annotation policy to one raw hit.
fn apply_allows(file: &SourceFile, rule: &str, line: usize) -> Status {
    match file.allow_for(rule, line) {
        Some(a) => Status::Allowed(a.reason.clone()),
        None => Status::Violation,
    }
}

/// Runs the per-file rules (R1–R3, R5 and the annotation-grammar checks)
/// over one parsed file. Graph rules need the whole workspace; see
/// [`scan_sources`].
pub fn scan_file(file: &SourceFile) -> Vec<Finding> {
    let path = file.path.to_string_lossy().replace('\\', "/");
    let mut out = Vec::new();
    for raw in rules::run_all(file) {
        out.push(Finding {
            rule: raw.rule.to_string(),
            path: path.clone(),
            line: raw.line,
            message: raw.message,
            status: apply_allows(file, raw.rule, raw.line),
        });
    }
    // Malformed allows, then allows naming a rule they cannot suppress.
    let unknown = file.allows.iter().filter(|a| !ALLOWABLE_RULES.contains(&a.rule.as_str()));
    let grammar = file.bad_allows.iter().map(|b| (b.line, b.what.clone())).chain(unknown.map(|a| {
        let known = ALLOWABLE_RULES.join(", ");
        (a.line, format!("analyze::allow names unknown rule `{}` (known: {known})", a.rule))
    }));
    for (line, message) in grammar {
        out.push(Finding {
            rule: RULE_ALLOW_GRAMMAR.to_string(),
            path: path.clone(),
            line,
            message,
            status: Status::Violation,
        });
    }
    for bad in &file.bad_hot_paths {
        out.push(Finding {
            rule: RULE_GRAPH_CONFIG.to_string(),
            path: path.clone(),
            line: bad.line,
            message: bad.what.clone(),
            status: Status::Violation,
        });
    }
    out
}

/// Scans one in-memory source file with the per-file rules. Public so
/// the fixture tests (and the `--path` CLI mode) can run rules against
/// arbitrary snippets.
pub fn scan_source(path: &str, crate_dir: &str, role: FileRole, text: &str) -> Vec<Finding> {
    let file = SourceFile::parse(PathBuf::from(path), crate_dir.to_string(), role, text);
    let mut out = scan_file(&file);
    out.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    out
}

/// Scans a whole set of parsed files: per-file rules on each file,
/// then the call-graph taint rules, configuration checks and
/// `dead-surface` over the set. This is the full analysis
/// `scan_workspace` runs; tests call it with synthetic file sets and
/// custom configs.
pub fn scan_sources(files: &[SourceFile], cfg: &GraphConfig) -> Scan {
    let mut out = Vec::new();
    for file in files {
        out.extend(scan_file(file));
    }
    let g = graph::build(files);
    let (dead, dead_surface) = rules::dead_surface::check(files);
    for gf in rules::graph_rules::check(files, &g, cfg).into_iter().chain(dead) {
        let (path, status) = match gf.file {
            Some(fi) => {
                let file = &files[fi];
                let status = if gf.raw.rule == RULE_GRAPH_CONFIG {
                    Status::Violation // config errors are not suppressible
                } else {
                    apply_allows(file, gf.raw.rule, gf.raw.line)
                };
                (file.path.to_string_lossy().replace('\\', "/"), status)
            }
            None => ("<workspace>".to_string(), Status::Violation),
        };
        out.push(Finding {
            rule: gf.raw.rule.to_string(),
            path,
            line: gf.raw.line,
            message: gf.raw.message,
            status,
        });
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message)));
    Scan { findings: out, dead_surface }
}

/// Classifies a file path inside a crate directory.
fn role_of(rel_in_crate: &Path) -> FileRole {
    let s = rel_in_crate.to_string_lossy().replace('\\', "/");
    if s.starts_with("tests/") {
        FileRole::Test
    } else if s.starts_with("benches/") {
        FileRole::Bench
    } else if s.starts_with("src/bin/") || s == "src/main.rs" || s.starts_with("examples/") {
        FileRole::Bin
    } else {
        FileRole::Lib
    }
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // `fixtures/` trees hold deliberate known-bad snippets for
            // the analyzer's own tests; they are not compiled and must
            // not fail the workspace gate.
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses every `.rs` file of every crate under `<root>/crates`, plus
/// the root-level `tests/` and `examples/` trees (which belong to
/// `crates/core` via path-mapped targets) and `benchmark/src`.
/// `third_party/` stand-ins are outside the determinism boundary and
/// are not collected.
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no crates/ dir)", root.display()),
        ));
    }
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    // (tree, crate, role): each crate judges its files' roles by path.
    // The root-level integration tests and examples are path-mapped
    // targets of crates/core, scanned as Test/Bin roles so only the
    // universally scoped rules (R3, allow-grammar) apply, and they stay
    // out of the call graph (graph covers Lib files only).
    // `benchmark/src` is its own workspace, read as a bin: a
    // `dead-surface` root.
    let mut trees: Vec<(PathBuf, String, Option<FileRole>)> = crate_dirs
        .into_iter()
        .map(|d| {
            let name = d.file_name().map(|n| n.to_string_lossy().into_owned());
            (d.clone(), name.unwrap_or_default(), None)
        })
        .collect();
    let bin = FileRole::Bin;
    for (dir, role) in [("tests", FileRole::Test), ("examples", bin), ("benchmark/src", bin)] {
        trees.push((root.join(dir), "core".to_string(), Some(role)));
    }
    let mut sources = Vec::new();
    for (dir, crate_name, role) in trees.into_iter().filter(|t| t.0.is_dir()) {
        let mut files = Vec::new();
        collect_rs(&dir, &mut files)?;
        for f in files {
            let role = role.unwrap_or_else(|| role_of(f.strip_prefix(&dir).unwrap_or(&f)));
            let rel = f.strip_prefix(root).unwrap_or(&f);
            let text = std::fs::read_to_string(&f)?;
            sources.push(SourceFile::parse(
                PathBuf::from(rel.to_string_lossy().replace('\\', "/")),
                crate_name.clone(),
                role,
                &text,
            ));
        }
    }
    Ok(sources)
}

/// Scans the whole workspace: per-file rules plus the call-graph taint
/// rules with the production [`GraphConfig`].
pub fn scan_workspace(root: &Path) -> std::io::Result<Scan> {
    let sources = collect_workspace(root)?;
    Ok(scan_sources(&sources, &GraphConfig::default()))
}

/// Serialises a scan as the `results/analyze_report.json` document.
/// Hand-rolled (the workspace has no serde) but strict: all strings
/// are escaped.
pub fn report_json(scan: &Scan) -> String {
    let findings = &scan.findings;
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }
    let violations = findings
        .iter()
        .filter(|f| f.status == Status::Violation)
        .count();
    let allowed = findings.len() - violations;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"summary\": {{ \"total\": {}, \"violations\": {}, \"allowed\": {} }},",
        findings.len(),
        violations,
        allowed
    );
    let d = scan.dead_surface;
    let _ = writeln!(
        out,
        "  \"dead_surface\": {{ \"roots\": {}, \"candidates\": {}, \"unreached\": {} }},",
        d.roots, d.candidates, d.unreached
    );
    let _ = writeln!(out, "  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let comma = if i + 1 == findings.len() { "" } else { "," };
        let (status, reason) = match &f.status {
            Status::Violation => ("violation", String::new()),
            Status::Allowed(r) => ("allowed", format!(", \"reason\": \"{}\"", esc(r))),
        };
        let _ = writeln!(
            out,
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"status\": \"{}\"{}, \
             \"message\": \"{}\" }}{}",
            esc(&f.rule),
            esc(&f.path),
            f.line,
            status,
            reason,
            esc(&f.message),
            comma
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_findings_do_not_fail_but_are_reported() {
        let text = "// analyze::allow(nondeterminism, reason = \"lookup-only map\")\n\
                    use std::collections::HashMap;\n";
        let fs = scan_source("crates/simnet/src/x.rs", "simnet", FileRole::Lib, text);
        assert_eq!(fs.len(), 1);
        assert!(matches!(&fs[0].status, Status::Allowed(r) if r == "lookup-only map"));
    }

    #[test]
    fn report_json_escapes_and_counts() {
        let fs = vec![Finding {
            rule: "nondeterminism".into(),
            path: "a\"b.rs".into(),
            line: 3,
            message: "quote \" and backslash \\".into(),
            status: Status::Violation,
        }];
        let j = report_json(&Scan { findings: fs, dead_surface: Default::default() });
        assert!(j.contains("\"violations\": 1"));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("backslash \\\\"));
    }
}
