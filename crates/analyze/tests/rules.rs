//! The analyzer's own acceptance suite: every rule has at least one
//! known-good and one known-bad fixture, the CLI exits nonzero on each
//! bad fixture and zero on each good one, and the real workspace scans
//! clean.

use analyze::source::FileRole;
use analyze::{scan_source, scan_workspace, Finding, Status};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    (path, text)
}

/// Scans a fixture under a virtual crate/role.
fn scan_fixture(name: &str, crate_dir: &str, role: FileRole) -> Vec<Finding> {
    let (path, text) = fixture(name);
    scan_source(&path.to_string_lossy(), crate_dir, role, &text)
}

fn violations<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.status == Status::Violation)
        .collect()
}

fn assert_clean(findings: &[Finding], ctx: &str) {
    let bad: Vec<_> = findings
        .iter()
        .filter(|f| f.status == Status::Violation)
        .collect();
    assert!(bad.is_empty(), "{ctx} should be clean, got {bad:#?}");
}

// ------------------------------------------------------------------
// Per-rule fixture tests (lib API)
// ------------------------------------------------------------------

#[test]
fn r1_nondeterminism_bad_fixture_fails() {
    let f = scan_fixture("nondeterminism_bad.rs", "simnet", FileRole::Lib);
    let v = violations(&f, "nondeterminism");
    // HashMap + HashSet uses/fields, two wall-clock types, thread_rng.
    assert!(v.len() >= 6, "expected >=6 R1 violations, got {v:#?}");
    assert!(v.iter().any(|f| f.message.contains("thread_rng")));
    assert!(v.iter().any(|f| f.message.contains("Instant")));
}

#[test]
fn r1_nondeterminism_good_fixture_passes_and_reports_justifications() {
    let f = scan_fixture("nondeterminism_good.rs", "simnet", FileRole::Lib);
    assert_clean(&f, "nondeterminism_good.rs");
    let allowed: Vec<_> = f
        .iter()
        .filter(|x| matches!(x.status, Status::Allowed(_)))
        .collect();
    assert_eq!(allowed.len(), 2, "both justified HashMaps reported: {f:#?}");
}

#[test]
fn r1_only_applies_to_sim_crate_library_code() {
    let (_, text) = fixture("nondeterminism_bad.rs");
    // Same hazards in a non-sim crate, a bench binary, or test code are
    // out of scope.
    assert_clean(
        &scan_source("crates/layout/src/x.rs", "layout", FileRole::Lib, &text),
        "non-sim crate",
    );
    assert_clean(
        &scan_source("crates/bench/src/bin/x.rs", "bench", FileRole::Bin, &text),
        "bench binary",
    );
    assert_clean(
        &scan_source("crates/simnet/tests/x.rs", "simnet", FileRole::Test, &text),
        "test target",
    );
}

#[test]
fn r2_rng_budget_bad_fixture_fails_both_ways() {
    let f = scan_fixture("rng_budget_bad_impair.rs", "simnet", FileRole::Lib);
    let v = violations(&f, "rng-draw-budget");
    assert_eq!(v.len(), 2, "{v:#?}");
    assert!(v.iter().any(|f| f.message.contains("no `// draws: N`")));
    assert!(v
        .iter()
        .any(|f| f.message.contains("declares `draws: 2`") && f.message.contains("3 RNG")));
}

#[test]
fn r2_rng_budget_good_fixture_passes() {
    let f = scan_fixture("rng_budget_good_impair.rs", "simnet", FileRole::Lib);
    assert_clean(&f, "rng_budget_good_impair.rs");
}

#[test]
fn r3_unsafe_bad_fixture_fails() {
    let f = scan_fixture("unsafe_bad.rs", "netstack", FileRole::Lib);
    assert_eq!(violations(&f, "unsafe-safety").len(), 2, "{f:#?}");
}

#[test]
fn r3_unsafe_good_fixture_passes_even_in_tests() {
    // R3 applies to tests too, so scan as a test target to prove the
    // good fixture's comments satisfy it there as well.
    let f = scan_fixture("unsafe_good.rs", "netstack", FileRole::Test);
    assert_clean(&f, "unsafe_good.rs");
}

#[test]
fn r5_float_reduction_bad_fixture_fails() {
    let f = scan_fixture("float_reduction_bad.rs", "bench", FileRole::Lib);
    let v = violations(&f, "float-reduction");
    assert_eq!(v.len(), 2, "sum::<f64> and .fold: {v:#?}");
}

#[test]
fn r5_float_reduction_good_fixture_passes() {
    let f = scan_fixture("float_reduction_good.rs", "bench", FileRole::Lib);
    assert_clean(&f, "float_reduction_good.rs");
}

#[test]
fn r5_ignores_files_that_do_not_touch_the_parallel_executor() {
    let text = "pub fn mean(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() / xs.len() as f64 }\n";
    assert_clean(
        &scan_source("crates/simnet/src/x.rs", "simnet", FileRole::Lib, text),
        "serial f64 sum",
    );
}

#[test]
fn allow_grammar_bad_fixture_fails() {
    let f = scan_fixture("allow_grammar_bad.rs", "simnet", FileRole::Lib);
    let v = violations(&f, "allow-grammar");
    assert_eq!(v.len(), 2, "missing reason and empty reason: {v:#?}");
    // And the unjustified hazard underneath stays a violation.
    assert!(!violations(&f, "nondeterminism").is_empty());
}

#[test]
fn allow_naming_an_unknown_rule_fails() {
    let f = scan_fixture("allow_grammar_unknown_rule_bad.rs", "simnet", FileRole::Lib);
    let v = violations(&f, "allow-grammar");
    assert_eq!(v.len(), 1, "{f:#?}");
    assert!(
        v[0].message.contains("unknown rule `panic-free-library`"),
        "{}",
        v[0].message
    );
    // The allow suppresses nothing: the hazard below it stays live.
    assert!(!violations(&f, "nondeterminism").is_empty(), "{f:#?}");
}

// ------------------------------------------------------------------
// CLI exit codes (the CI contract)
// ------------------------------------------------------------------

fn run_cli(fixture_name: &str, crate_dir: &str, role: &str) -> std::process::ExitStatus {
    let (path, _) = fixture(fixture_name);
    Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--check", "--path"])
        .arg(&path)
        .args(["--crate-name", crate_dir, "--role", role])
        .output()
        .expect("spawn analyze binary")
        .status
}

#[test]
fn cli_exits_nonzero_on_every_bad_fixture() {
    for (name, crate_dir) in [
        ("nondeterminism_bad.rs", "simnet"),
        ("rng_budget_bad_impair.rs", "simnet"),
        ("unsafe_bad.rs", "netstack"),
        ("float_reduction_bad.rs", "bench"),
        ("allow_grammar_bad.rs", "simnet"),
        ("allow_grammar_unknown_rule_bad.rs", "simnet"),
    ] {
        let status = run_cli(name, crate_dir, "lib");
        assert!(!status.success(), "{name} must fail the gate");
    }
}

#[test]
fn cli_exits_zero_on_every_good_fixture() {
    for (name, crate_dir) in [
        ("nondeterminism_good.rs", "simnet"),
        ("rng_budget_good_impair.rs", "simnet"),
        ("unsafe_good.rs", "netstack"),
        ("float_reduction_good.rs", "bench"),
    ] {
        let status = run_cli(name, crate_dir, "lib");
        assert!(status.success(), "{name} must pass the gate");
    }
}

// ------------------------------------------------------------------
// The real workspace passes clean
// ------------------------------------------------------------------

/// The real workspace's findings, scanned once for every test here.
fn workspace_findings() -> &'static [Finding] {
    static FINDINGS: std::sync::OnceLock<Vec<Finding>> = std::sync::OnceLock::new();
    FINDINGS.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        scan_workspace(root).expect("scan workspace").findings
    })
}

#[test]
fn workspace_scans_clean() {
    let findings = workspace_findings();
    let bad: Vec<_> = findings
        .iter()
        .filter(|f| f.status == Status::Violation)
        .collect();
    assert!(
        bad.is_empty(),
        "workspace must have zero unjustified hazards, got {bad:#?}"
    );
    // The justified-hazard inventory is non-empty (the replay memoizer
    // keeps its HashMaps, invariant-backed expects stay): the report
    // must carry their reasons.
    assert!(findings
        .iter()
        .any(|f| matches!(&f.status, Status::Allowed(r) if !r.is_empty())));
}

/// Ceiling on the justified-hazard inventory (`results/analyze_report.json`).
/// A change that removes hazards lowers it to the new count; one that
/// adds hazards must remove as many elsewhere. Regenerating the report
/// alone never makes room.
const INVENTORY_BUDGET: usize = 77;

#[test]
fn inventory_ratchet_holds() {
    let findings = workspace_findings();
    let in_wire: Vec<_> = findings
        .iter()
        .filter(|f| f.path.starts_with("crates/netstack/src/wire/"))
        .collect();
    assert!(
        in_wire.is_empty(),
        "the wire codecs index nothing: {in_wire:#?}"
    );
    assert!(
        findings.iter().all(|f| f.rule != "panic-free-library"),
        "panic-free-library is not a rule"
    );
    assert!(
        findings.len() <= INVENTORY_BUDGET,
        "{} findings exceed the inventory budget of {INVENTORY_BUDGET}",
        findings.len()
    );
}

// ------------------------------------------------------------------
// Graph taint rules: fixture pairs (lib API over scan_sources)
// ------------------------------------------------------------------

use analyze::source::SourceFile;
use analyze::{scan_sources, GraphConfig};

/// Parses the named fixtures as library files of one virtual crate and
/// scans them with a GraphConfig requiring exactly `roots`.
fn scan_graph_fixtures(names: &[&str], roots: &[&str]) -> Vec<Finding> {
    let files: Vec<SourceFile> = names
        .iter()
        .map(|n| {
            let (path, text) = fixture(n);
            SourceFile::parse(path, "fixturecrate".to_string(), FileRole::Lib, &text)
        })
        .collect();
    let cfg = GraphConfig {
        required_roots: roots.iter().map(|s| s.to_string()).collect(),
        sim_crates: Vec::new(),
        path_markers: Vec::new(),
    };
    scan_sources(&files, &cfg).findings
}

#[test]
fn g1_panic_path_bad_fixture_fails_with_call_chain() {
    let f = scan_graph_fixtures(&["graph_panic_path_bad.rs"], &["fixture-rx"]);
    let v = violations(&f, "panic-path");
    assert_eq!(v.len(), 1, "{f:#?}");
    // The finding names the root and spells out the chain from it.
    assert!(v[0].message.contains("fixture-rx"), "{}", v[0].message);
    assert!(
        v[0].message.contains("rx_loop -> classify -> lookup"),
        "chain in message: {}",
        v[0].message
    );
}

#[test]
fn g1_panic_path_good_fixture_passes_and_reports_the_reason() {
    let f = scan_graph_fixtures(&["graph_panic_path_good.rs"], &["fixture-rx"]);
    assert_clean(&f, "graph_panic_path_good.rs");
    assert!(
        f.iter()
            .any(|x| matches!(&x.status, Status::Allowed(r) if r.contains("drawn from TABLE"))),
        "justification lands in the inventory: {f:#?}"
    );
}

#[test]
fn g2_alloc_path_bad_fixture_fails() {
    let f = scan_graph_fixtures(&["graph_alloc_path_bad.rs"], &["fixture-steady"]);
    let v = violations(&f, "alloc-path");
    assert_eq!(v.len(), 1, "{f:#?}");
    assert!(v[0].message.contains(".push("), "{}", v[0].message);
    // The root is scoped to alloc-path only, so no panic-path findings.
    assert!(violations(&f, "panic-path").is_empty());
}

#[test]
fn g2_alloc_path_good_fixture_passes() {
    let f = scan_graph_fixtures(&["graph_alloc_path_good.rs"], &["fixture-steady"]);
    assert_clean(&f, "graph_alloc_path_good.rs");
}

#[test]
fn g3_charge_coverage_bad_fixture_fails() {
    let f = scan_graph_fixtures(&["graph_charge_bad.rs"], &["fixture-window"]);
    let v = violations(&f, "charge-coverage");
    assert_eq!(v.len(), 1, "{f:#?}");
    assert!(
        v[0].message.contains("touches `OaTable::probe`")
            && v[0].message.contains("reaches no cachesim charge"),
        "{}",
        v[0].message
    );
}

#[test]
fn g3_charge_coverage_good_fixture_passes_without_allows() {
    let f = scan_graph_fixtures(&["graph_charge_good.rs"], &["fixture-window"]);
    assert_clean(&f, "graph_charge_good.rs");
    // Clean because the touch reaches Machine::stall, not because it
    // was suppressed: the good fixture carries no allow comments.
    assert!(f
        .iter()
        .all(|x| !matches!(&x.status, Status::Allowed(_)) || x.rule != "charge-coverage"));
}

// ------------------------------------------------------------------
// Loud failure on stale graph configuration (regression)
// ------------------------------------------------------------------

#[test]
fn stale_graph_config_fails_loudly_not_silently() {
    // A required root that no longer exists anywhere must fail the
    // scan even though every real hazard is justified.
    let files: Vec<SourceFile> = [("graph_panic_path_good.rs", "fixturecrate")]
        .iter()
        .map(|(n, c)| {
            let (path, text) = fixture(n);
            SourceFile::parse(path, c.to_string(), FileRole::Lib, &text)
        })
        .collect();
    let cfg = GraphConfig {
        required_roots: vec!["fixture-rx".into(), "renamed-away-loop".into()],
        sim_crates: vec!["fixturecrate".into(), "deleted_crate".into()],
        path_markers: vec!["impair".into()],
    };
    let f = scan_sources(&files, &cfg).findings;
    let v = violations(&f, "graph-config");
    let msgs: Vec<&str> = v.iter().map(|x| x.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("renamed-away-loop") && m.contains("annotated nowhere")),
        "missing root is loud: {msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("deleted_crate") && m.contains("stale crate")),
        "stale crate entry is loud: {msgs:#?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("`impair`") && m.contains("matches no scanned file")),
        "empty path-scope is loud: {msgs:#?}"
    );
}

#[test]
fn graph_config_violations_cannot_be_suppressed() {
    // graph-config findings have no file/line to hang an allow on and
    // must stay violations even in a file full of allow comments.
    let f = scan_graph_fixtures(&["graph_panic_path_good.rs"], &["no-such-root"]);
    assert!(!violations(&f, "graph-config").is_empty(), "{f:#?}");
}

// ------------------------------------------------------------------
// dead-surface: what keeps a `pub` item reached
// ------------------------------------------------------------------

/// A library with two roots' worth of surface: `step` is reached only
/// as a fn pointer, `dead` only from its own unit test, `Table::unused`
/// from nowhere, and `Default::default` is a trait-impl method.
const SURFACE: &str = "\
pub struct Table { n: u64 }
impl Table {
    pub fn run(&self) -> u64 { self.n }
    pub fn unused(&self) -> u64 { self.n }
}
impl Default for Table {
    fn default() -> Self { Table { n: 1 } }
}
pub fn step(t: &Table) -> u64 { t.run() }
pub fn dead() {}
#[cfg(test)]
mod tests {
    #[test]
    fn calls_dead() { super::dead(); }
}
";

/// Scans `lib` (a library file) with one root file; returns the scan
/// and the `dead-surface` violations' messages.
fn dead_surface(lib: &str, path: &str, role: FileRole, root: &str) -> (analyze::Scan, Vec<String>) {
    let files = [
        SourceFile::parse("crates/x/src/lib.rs".into(), "x".into(), FileRole::Lib, lib),
        SourceFile::parse(path.into(), "x".into(), role, root),
    ];
    let cfg = GraphConfig { required_roots: vec![], sim_crates: vec![], path_markers: vec![] };
    let scan = scan_sources(&files, &cfg);
    let msgs = violations(&scan.findings, "dead-surface").into_iter();
    let msgs = msgs.map(|f| f.message.clone()).collect();
    (scan, msgs)
}

#[test]
fn dead_surface_follows_fn_pointers_and_ignores_test_callers_and_trait_impls() {
    let root = "fn main() { let f: fn(&x::Table) -> u64 = x::step; f(&Default::default()); }";
    let (scan, msgs) = dead_surface(SURFACE, "crates/x/src/main.rs", FileRole::Bin, root);
    assert_eq!(msgs.len(), 2, "{msgs:#?}");
    assert!(msgs[0].contains("`pub fn Table::unused`"), "{}", msgs[0]);
    assert!(msgs[1].contains("`pub fn dead`"), "a #[cfg(test)] caller keeps nothing: {}", msgs[1]);
    let d = scan.dead_surface;
    assert_eq!((d.roots, d.candidates, d.unreached), (1, 5, 2), "{d:?}");
}

#[test]
fn dead_surface_roots_include_benchmark_sources_and_doctests() {
    let root = "fn main() { x::dead(); }";
    let (_, msgs) = dead_surface(SURFACE, "benchmark/src/main.rs", FileRole::Bin, root);
    assert!(!msgs.iter().any(|m| m.contains("`pub fn dead`")), "{msgs:#?}");

    let doc = SURFACE.replace("pub fn dead()", "/// ```\n/// x::dead();\n/// ```\npub fn dead()");
    let (scan, msgs) = dead_surface(&doc, "tests/t.rs", FileRole::Test, "#[test]\nfn t() {}");
    assert!(!msgs.iter().any(|m| m.contains("`pub fn dead`")), "{msgs:#?}");
    assert_eq!(scan.dead_surface.roots, 2, "the test file and the doctest");
}

#[test]
fn dead_surface_keeps_are_reported_with_their_reason() {
    let kept = SURFACE.replace(
        "    pub fn unused",
        "    // analyze::allow(dead-surface, reason = \"kept for the fixture\")\n    pub fn unused",
    );
    let root = "fn main() { x::step(&Default::default()); x::dead(); }";
    let (scan, msgs) = dead_surface(&kept, "src/main.rs", FileRole::Bin, root);
    assert!(msgs.is_empty(), "{msgs:#?}");
    assert!(scan.findings.iter().any(|f| f.rule == "dead-surface"
        && matches!(&f.status, Status::Allowed(r) if r == "kept for the fixture")));
    assert_eq!(scan.dead_surface.unreached, 1, "an allowed item still counts as unreached");
}

// ------------------------------------------------------------------
// clippy.toml stays a subset of the analyzer's determinism ban list
// ------------------------------------------------------------------

#[test]
fn clippy_disallowed_lists_are_subset_of_nondeterminism_rules() {
    use analyze::rules::nondeterminism::{PATH_PATTERNS, WORD_PATTERNS};
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let toml = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
    // Cheap line-level extraction: every disallowed entry is a table
    // with a `path = "..."` key on its own line.
    let paths: Vec<String> = toml
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let (_, rest) = l.split_once("path = \"")?;
            Some(rest.split('"').next()?.to_string())
        })
        .collect();
    assert!(
        paths.len() >= 4,
        "expected the four known disallowed entries, parsed {paths:#?}"
    );
    for p in &paths {
        let covered = PATH_PATTERNS.iter().any(|(pat, _)| p.contains(pat))
            || WORD_PATTERNS
                .iter()
                .any(|(pat, _)| p.split("::").any(|seg| seg == *pat));
        assert!(
            covered,
            "clippy disallows `{p}` but the analyzer's nondeterminism rule would miss it; \
             add it to PATH_PATTERNS/WORD_PATTERNS so single-file scans agree with clippy"
        );
    }
}

// ------------------------------------------------------------------
// CLI output formats
// ------------------------------------------------------------------

#[test]
fn cli_github_format_emits_error_annotations() {
    let (path, _) = fixture("nondeterminism_bad.rs");
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--check", "--path"])
        .arg(&path)
        .args([
            "--crate-name",
            "simnet",
            "--role",
            "lib",
            "--format",
            "github",
        ])
        .output()
        .expect("spawn analyze binary");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("::error file=")
            && l.contains(",line=")
            && l.contains("nondeterminism")),
        "github annotations on stdout: {stdout}"
    );

    // Default (plain) format stays the human-readable one.
    let plain = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["--check", "--path"])
        .arg(&path)
        .args(["--crate-name", "simnet", "--role", "lib"])
        .output()
        .expect("spawn analyze binary");
    let plain_out = String::from_utf8_lossy(&plain.stdout);
    assert!(
        !plain_out.contains("::error"),
        "plain format must not emit workflow commands: {plain_out}"
    );
}
