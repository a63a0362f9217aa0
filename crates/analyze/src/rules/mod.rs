//! The rule catalog. Each rule is a pure function from a
//! [`SourceFile`] to raw findings; the driver in `lib.rs` applies the
//! allow-annotations afterwards so every rule stays oblivious to the
//! escape hatch (and the escape hatch works uniformly).

use crate::source::SourceFile;

pub mod dead_surface;
pub mod float_reduction;
pub mod graph_rules;
pub mod nondeterminism;
pub mod rng_budget;
pub mod unsafe_safety;

/// A raw rule hit, before allow-annotations are applied.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule id (`nondeterminism`, `rng-draw-budget`, ...).
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation of the hazard.
    pub message: String,
}

/// Stable rule ids, used in reports and in `analyze::allow(<rule>,..)`.
pub const RULE_NONDETERMINISM: &str = "nondeterminism";
/// See [`RULE_NONDETERMINISM`].
pub const RULE_RNG_BUDGET: &str = "rng-draw-budget";
/// See [`RULE_NONDETERMINISM`].
pub const RULE_UNSAFE_SAFETY: &str = "unsafe-safety";
/// See [`RULE_NONDETERMINISM`].
pub const RULE_FLOAT_REDUCTION: &str = "float-reduction";
/// Malformed `analyze::allow` annotations (not suppressible).
pub const RULE_ALLOW_GRAMMAR: &str = "allow-grammar";
/// G1 — may-panic facts reachable from a `hot_path` root.
pub const RULE_PANIC_PATH: &str = "panic-path";
/// G2 — may-allocate facts reachable from a `hot_path` root.
pub const RULE_ALLOC_PATH: &str = "alloc-path";
/// G3 — charged-structure touches in a measured window must reach a
/// cachesim charge call.
pub const RULE_CHARGE_COVERAGE: &str = "charge-coverage";
/// `pub` items no bin, example, integration test, doctest or
/// `benchmark/src` call site reaches (see [`dead_surface`]).
pub const RULE_DEAD_SURFACE: &str = "dead-surface";
/// Graph/rule configuration errors: missing required roots, dangling
/// annotations, stale path/crate lists (not suppressible).
pub const RULE_GRAPH_CONFIG: &str = "graph-config";

/// The rules an `analyze::allow(<rule>, ..)` may name: every suppressible
/// rule. An allow naming anything else (a typo, a deleted rule) would
/// silently suppress nothing, so it is an `allow-grammar` violation.
pub const ALLOWABLE_RULES: &[&str] = &[
    RULE_NONDETERMINISM,
    RULE_RNG_BUDGET,
    RULE_UNSAFE_SAFETY,
    RULE_FLOAT_REDUCTION,
    RULE_PANIC_PATH,
    RULE_ALLOC_PATH,
    RULE_CHARGE_COVERAGE,
    RULE_DEAD_SURFACE,
];

/// Runs every rule over `file`.
pub fn run_all(file: &SourceFile) -> Vec<RawFinding> {
    let mut out = Vec::new();
    out.extend(nondeterminism::check(file));
    out.extend(rng_budget::check(file));
    out.extend(unsafe_safety::check(file));
    out.extend(float_reduction::check(file));
    out.sort_by_key(|f| f.line);
    out
}
