//! The workspace-wide symbol/call-graph model behind the taint rules
//! (`panic-path`, `alloc-path`, `charge-coverage` — see
//! `rules::graph_rules` and `DESIGN.md` §5.8).
//!
//! A light token-level parser (no `syn`, keeping the crate
//! zero-dependency) walks the scrubbed code of every **library** file
//! and extracts:
//!
//! * `fn` definitions, with their impl/trait context and body span;
//! * call sites, classified by receiver (free, `Type::method`, or a
//!   method call whose receiver type is recovered from struct fields,
//!   typed `let` bindings, and parameter lists);
//! * leaf facts per function: may-panic tokens, may-allocate tokens,
//!   `cachesim` charge calls, and touches of charged data structures;
//! * `// analyze::hot_path(<name>)` root annotations, attached to the
//!   next `fn` below them.
//!
//! ## Resolution policy (conservative, documented)
//!
//! This is a may-analysis: edges over-approximate, so reachability
//! never misses a real path at the cost of some impossible ones.
//!
//! * `f(...)` / `module::f(...)` → every top-level `fn f` in the
//!   caller's crate; if the crate has none, every one in the
//!   workspace.
//! * `Type::m(...)` / `Self::m(...)` → every `fn m` in an `impl` of
//!   `Type` (or of a trait named `Type`, covering `dyn`/generic
//!   dispatch through trait methods).
//! * `recv.m(...)` with a recoverable receiver type `T` (a typed
//!   `let`, a parameter, `self`, or a struct field — `self.f.m()`
//!   resolves `f` against the impl's own struct first, then a
//!   workspace-wide field-name map) → every `fn m` in impls of `T`.
//!   When `T` has no workspace impls (std containers), the call gets
//!   **no** edges: std is assumed panic-documented and its allocation
//!   behaviour is matched by token facts instead.
//! * `recv.m(...)` with an unrecoverable receiver → every impl
//!   `fn m` in the caller's crate; if none, every one in the
//!   workspace. This is the ambiguity hot spot: method-name
//!   collisions across types add impossible edges, accepted as
//!   over-approximation (suppress at the *leaf* fact with
//!   `analyze::allow`, which neutralises every path through it).
//!
//! Known blind spots (under-approximation, kept deliberate):
//! function pointers / closures passed as values, macro-*generated*
//! callees (calls written inside macro arguments are seen), trait
//! method declarations without bodies, and `#[cfg(test)]`-masked
//! definitions (excluded from the graph entirely, so a hot path can
//! never launder a hazard through test-only code — pinned by the
//! fixture tests).

use crate::source::{FileRole, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Data structures whose probe/slot touches must be charged to the
/// cache model inside a measured window (`charge-coverage`).
pub const CHARGED_TYPES: &[&str] = &[
    "OaTable",
    "LookupCache",
    "DescRing",
    "Reassembler",
    "SignalingSwitch",
];

/// The `cachesim::Machine` entry points that constitute a charge.
pub const CHARGE_FNS: &[&str] = &["read_data_probes", "write_data_slot", "stall"];

/// Owned std collection types whose `.clone()` allocates.
const COLLECTION_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// Index of a function in [`CodeGraph::fns`].
pub type FnId = usize;

/// `(impl type, trait name)` of the innermost enclosing impl block.
type ImplCtx = (Option<String>, Option<String>);

/// What a leaf fact asserts about its line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// The line can panic (unwrap/expect/panic!/literal index/...).
    MayPanic,
    /// The line can allocate (push/Box::new/format!/collect/...).
    MayAlloc,
    /// The line charges the cache model (read_data_probes/...).
    Charge,
    /// The line calls into a charged data structure.
    Touch,
}

/// One leaf fact inside a function body.
#[derive(Debug, Clone)]
pub struct Fact {
    /// What kind of fact.
    pub kind: FactKind,
    /// 1-based line.
    pub line: usize,
    /// The matched token / call, for messages.
    pub what: String,
}

/// One function definition in the graph.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (no path).
    pub name: String,
    /// `impl` block's Self type (last path segment), if any.
    pub impl_type: Option<String>,
    /// Trait being implemented (or defined, for default methods).
    pub trait_name: Option<String>,
    /// Index into the file list the graph was built from.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based inclusive body span (opening to closing brace line).
    pub body: (usize, usize),
    /// Crate directory the file belongs to.
    pub crate_dir: String,
    /// True for `#[cfg(test)]`/`#[test]`-masked definitions.
    pub is_test: bool,
    /// Hot-path root annotations attached to this fn.
    pub roots: Vec<crate::source::HotPath>,
}

impl FnDef {
    /// `Type::name` or bare `name`, for path strings in messages.
    pub fn qual_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The resolved call graph plus per-function facts.
#[derive(Debug)]
pub struct CodeGraph {
    /// All function definitions, in (file, line) order.
    pub fns: Vec<FnDef>,
    /// Resolved callees per function (sorted, deduplicated).
    pub calls: Vec<Vec<FnId>>,
    /// Leaf facts per function.
    pub facts: Vec<Vec<Fact>>,
    /// Hot-path annotations that attached to no function:
    /// (file index, line, name).
    pub unattached_roots: Vec<(usize, usize, String)>,
}

// ---------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    Ident,
    Num,
    Punct,
}

#[derive(Debug, Clone)]
struct Tok {
    s: String,
    line: usize,
    kind: TokKind,
}

impl Tok {
    fn is(&self, s: &str) -> bool {
        self.s == s
    }
    fn is_ident(&self) -> bool {
        self.kind == TokKind::Ident
    }
}

/// Tokenizes scrubbed code: identifiers, numeric literals, and
/// punctuation (with `::`, `->`, `..`, `=>` kept as single tokens).
fn tokenize(code: &[String]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        let ln = idx + 1;
        let b: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_alphabetic() || c == '_' {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.push(Tok {
                    s: b[start..i].iter().collect(),
                    line: ln,
                    kind: TokKind::Ident,
                });
            } else if c.is_ascii_digit() {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Numbers absorb `.` only when it is not `..`.
                    if b[i] == '.' && (i + 1 >= b.len() || b[i + 1] == '.' || !b[i + 1].is_ascii_alphanumeric()) {
                        break;
                    }
                    i += 1;
                }
                out.push(Tok {
                    s: b[start..i].iter().collect(),
                    line: ln,
                    kind: TokKind::Num,
                });
            } else {
                let two: String = b[i..(i + 2).min(b.len())].iter().collect();
                let tok = match two.as_str() {
                    "::" | "->" | ".." | "=>" => {
                        i += 2;
                        two
                    }
                    _ => {
                        i += 1;
                        c.to_string()
                    }
                };
                out.push(Tok {
                    s: tok,
                    line: ln,
                    kind: TokKind::Punct,
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------
// Item parsing
// ---------------------------------------------------------------

#[derive(Debug, Clone)]
enum Scope {
    Impl {
        ty: Option<String>,
        tr: Option<String>,
    },
    Fn(FnId),
    Other,
}

/// How a call's receiver was classified.
#[derive(Debug, Clone)]
enum Recv {
    /// Plain `f(...)` or `module::f(...)`.
    Free,
    /// `Type::m(...)` (or `Self::`, resolved to the impl type).
    Qualified(String),
    /// `recv.m(...)` with a recovered receiver type.
    Typed(String),
    /// `recv.m(...)` with an unknown receiver type.
    Unknown,
}

#[derive(Debug, Clone)]
struct RawCall {
    caller: FnId,
    name: String,
    recv: Recv,
    line: usize,
}

/// Per-file parse output folded into the graph builder.
#[derive(Debug, Default)]
struct ParseOut {
    raw_calls: Vec<RawCall>,
    /// struct name -> field name -> base type.
    struct_fields: BTreeMap<String, BTreeMap<String, String>>,
    /// per-fn typed bindings (params + typed lets): name -> base type.
    fn_locals: BTreeMap<FnId, BTreeMap<String, String>>,
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "move", "in", "as", "break",
    "continue", "unsafe", "where", "ref", "mut", "box", "await", "yield", "let", "fn",
];

/// Pointer-like wrappers that are looked *through* when recovering a
/// receiver type: a method called on a `Box<dyn LookupCache>` field
/// dispatches to `LookupCache` impls, not to `Box`.
const TRANSPARENT_WRAPPERS: &[&str] = &["Box", "Rc", "Arc", "Option", "RefCell", "Cell", "Mutex"];

/// Extracts the base type name from a type token slice: strips
/// references, lifetimes, `mut`, `dyn`, `impl`, looks through
/// [`TRANSPARENT_WRAPPERS`], then takes the last path segment before
/// any remaining generic argument list. Tuples, slices and fn-pointer
/// types yield `None`.
fn type_base(toks: &[Tok]) -> Option<String> {
    let mut i = 0;
    loop {
        let t = toks.get(i)?;
        match t.s.as_str() {
            "&" | "'" | "*" => i += 1,
            "mut" | "dyn" | "impl" | "const" => i += 1,
            _ if t.kind == TokKind::Ident && i > 0 && toks[i - 1].is("'") => {
                i += 1; // lifetime name
            }
            _ => break,
        }
    }
    // Path: ident (:: ident)*; keep the last segment.
    let mut last: Option<String> = None;
    while let Some(t) = toks.get(i) {
        if t.is_ident() {
            last = Some(t.s.clone());
            i += 1;
            if toks.get(i).is_some_and(|n| n.is("::")) {
                i += 1;
                continue;
            }
        }
        break;
    }
    let last = last?;
    if TRANSPARENT_WRAPPERS.contains(&last.as_str()) && toks.get(i).is_some_and(|t| t.is("<")) {
        // Recurse into the generic payload (up to the matching `>`).
        let start = i + 1;
        let mut depth = 1i32;
        let mut j = start;
        while j < toks.len() && depth > 0 {
            match toks[j].s.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        let end = j.saturating_sub(1).max(start);
        if let Some(inner) = type_base(&toks[start..end]) {
            return Some(inner);
        }
    }
    Some(last)
}

/// Builds the code graph from every library-role file in `files`
/// (tests, benches and binaries are outside the hot-path contract).
pub fn build(files: &[SourceFile]) -> CodeGraph {
    let mut fns: Vec<FnDef> = Vec::new();
    let mut out = ParseOut::default();

    for (fi, file) in files.iter().enumerate() {
        if file.role != FileRole::Lib {
            continue;
        }
        parse_file(fi, file, &mut fns, &mut out);
    }

    // Attach hot-path annotations: each annotation binds to the first
    // fn defined at/after its line in the same file, provided no other
    // fn starts in between (the annotation sits in the fn's header).
    let mut unattached = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for hp in &file.hot_paths {
            let target = fns
                .iter_mut()
                .filter(|f| f.file == fi && f.sig_line >= hp.line)
                .min_by_key(|f| f.sig_line);
            match target {
                Some(f) if !f.is_test => f.roots.push(hp.clone()),
                _ => unattached.push((fi, hp.line, hp.name.clone())),
            }
        }
    }

    // Resolution index tables (test definitions excluded: a call can
    // never resolve into cfg(test)-masked code).
    let mut top_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut method_by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    let mut by_type_method: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
    let mut by_trait_method: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
    let mut field_types: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (sname, sfields) in &out.struct_fields {
        let _ = sname;
        for (fname, ftype) in sfields {
            field_types.entry(fname).or_default().insert(ftype);
        }
    }
    for (id, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        match &f.impl_type {
            None => top_by_name.entry(&f.name).or_default().push(id),
            Some(ty) => {
                method_by_name.entry(&f.name).or_default().push(id);
                by_type_method.entry((ty, &f.name)).or_default().push(id);
                if let Some(tr) = &f.trait_name {
                    by_trait_method.entry((tr, &f.name)).or_default().push(id);
                }
            }
        }
    }

    let mut calls: Vec<Vec<FnId>> = vec![Vec::new(); fns.len()];
    let mut facts: Vec<Vec<Fact>> = vec![Vec::new(); fns.len()];

    let resolve_type_method = |ty: &str, name: &str| -> Vec<FnId> {
        let mut v: Vec<FnId> = by_type_method
            .get(&(ty, name))
            .cloned()
            .unwrap_or_default();
        v.extend(by_trait_method.get(&(ty, name)).cloned().unwrap_or_default());
        v
    };

    for rc in &out.raw_calls {
        let caller = &fns[rc.caller];
        if caller.is_test {
            continue;
        }
        // Charge facts: a call to a cachesim charge entry point, by
        // any receiver form.
        if CHARGE_FNS.contains(&rc.name.as_str()) {
            facts[rc.caller].push(Fact {
                kind: FactKind::Charge,
                line: rc.line,
                what: rc.name.clone(),
            });
        }
        let crate_filter = |ids: Vec<FnId>| -> Vec<FnId> {
            let local: Vec<FnId> = ids
                .iter()
                .copied()
                .filter(|&id| fns[id].crate_dir == caller.crate_dir)
                .collect();
            if local.is_empty() {
                ids
            } else {
                local
            }
        };
        let (targets, touch_type): (Vec<FnId>, Option<String>) = match &rc.recv {
            Recv::Free => (
                crate_filter(top_by_name.get(rc.name.as_str()).cloned().unwrap_or_default()),
                None,
            ),
            Recv::Qualified(ty) | Recv::Typed(ty) => {
                let t = resolve_type_method(ty, &rc.name);
                let touch = CHARGED_TYPES.contains(&ty.as_str()).then(|| ty.clone());
                (t, touch)
            }
            Recv::Unknown => (
                crate_filter(
                    method_by_name
                        .get(rc.name.as_str())
                        .cloned()
                        .unwrap_or_default(),
                ),
                None,
            ),
        };
        // A touch only counts when the caller is *outside* the charged
        // structure itself: internal helper calls are the structure's
        // own implementation, not a sim-code access to be costed.
        if let Some(ty) = touch_type {
            let caller_is_charged = caller
                .impl_type
                .as_deref()
                .is_some_and(|t| CHARGED_TYPES.contains(&t));
            if !caller_is_charged {
                facts[rc.caller].push(Fact {
                    kind: FactKind::Touch,
                    line: rc.line,
                    what: format!("{ty}::{}", rc.name),
                });
            }
        }
        calls[rc.caller].extend(targets);
    }
    for c in &mut calls {
        c.sort_unstable();
        c.dedup();
    }

    // Line-based token facts, attributed to the innermost enclosing fn.
    for (fi, file) in files.iter().enumerate() {
        if file.role != FileRole::Lib {
            continue;
        }
        let mut file_fns: Vec<FnId> = (0..fns.len()).filter(|&id| fns[id].file == fi).collect();
        file_fns.sort_by_key(|&id| fns[id].body.1 - fns[id].body.0);
        for (idx, code) in file.code.iter().enumerate() {
            let line = idx + 1;
            if file.is_test(line) {
                continue;
            }
            // Innermost fn containing this line (smallest span first).
            let Some(&owner) = file_fns
                .iter()
                .find(|&&id| fns[id].body.0 <= line && line <= fns[id].body.1)
            else {
                continue;
            };
            if fns[owner].is_test {
                continue;
            }
            let locals = out.fn_locals.get(&owner);
            line_facts(code, line, locals, &field_types, &mut facts[owner]);
        }
    }
    for f in &mut facts {
        f.sort_by(|a, b| (a.line, &a.what).cmp(&(b.line, &b.what)));
        f.dedup_by(|a, b| a.line == b.line && a.what == b.what && a.kind == b.kind);
    }

    CodeGraph {
        fns,
        calls,
        facts,
        unattached_roots: unattached,
    }
}

/// Parses one file's items into `fns`/`out`.
fn parse_file(fi: usize, file: &SourceFile, fns: &mut Vec<FnDef>, out: &mut ParseOut) {
    let toks = tokenize(&file.code);
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending: Option<Scope> = None;
    let mut i = 0usize;

    // Innermost enclosing fn on the scope stack.
    fn current_fn(stack: &[Scope]) -> Option<FnId> {
        stack.iter().rev().find_map(|s| match s {
            Scope::Fn(id) => Some(*id),
            _ => None,
        })
    }
    fn current_impl(stack: &[Scope]) -> (Option<String>, Option<String>) {
        for s in stack.iter().rev() {
            if let Scope::Impl { ty, tr } = s {
                return (ty.clone(), tr.clone());
            }
        }
        (None, None)
    }
    /// Skips a balanced `<...>` group starting at `i` (which must be `<`).
    fn skip_angles(toks: &[Tok], mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < toks.len() {
            match toks[i].s.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }
    /// Skips a balanced brace/paren/bracket group starting at the
    /// opener `i`; returns the index after the closer.
    fn skip_group(toks: &[Tok], mut i: usize, open: &str, close: &str) -> usize {
        let mut depth = 0i32;
        while i < toks.len() {
            if toks[i].is(open) {
                depth += 1;
            } else if toks[i].is(close) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }
    /// Reads a `path::like::This` at `i`; returns (last segment, next index).
    fn read_path(toks: &[Tok], mut i: usize) -> (Option<String>, usize) {
        let mut last = None;
        while i < toks.len() && toks[i].is_ident() {
            last = Some(toks[i].s.clone());
            i += 1;
            if i + 1 < toks.len() && toks[i].is("::") {
                i += 1;
            } else {
                break;
            }
        }
        (last, i)
    }

    while i < toks.len() {
        let t = &toks[i];
        match t.s.as_str() {
            "{" => {
                stack.push(pending.take().unwrap_or(Scope::Other));
                i += 1;
            }
            "}" => {
                if let Some(Scope::Fn(id)) = stack.pop() {
                    fns[id].body.1 = t.line;
                }
                i += 1;
            }
            "impl" if t.is_ident() => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is("<")) {
                    j = skip_angles(&toks, j);
                }
                let (first, mut k) = read_path(&toks, j);
                if toks.get(k).is_some_and(|t| t.is("<")) {
                    k = skip_angles(&toks, k);
                }
                let (ty, tr) = if toks.get(k).is_some_and(|t| t.is("for")) {
                    let (second, mut m) = read_path(&toks, k + 1);
                    if toks.get(m).is_some_and(|t| t.is("<")) {
                        m = skip_angles(&toks, m);
                    }
                    k = m;
                    (second, first)
                } else {
                    (first, None)
                };
                pending = Some(Scope::Impl { ty, tr });
                i = k; // continue scanning until the `{` (where clauses pass through)
            }
            "trait" if t.is_ident() => {
                let name = toks.get(i + 1).filter(|t| t.is_ident()).map(|t| t.s.clone());
                pending = Some(Scope::Impl {
                    ty: name.clone(),
                    tr: name,
                });
                i += 2;
            }
            "struct" if t.is_ident() => {
                i = parse_struct(&toks, i, out);
            }
            "enum" | "union" if t.is_ident() => {
                // Skip the whole item: variant payloads look like types
                // and must not be read as calls.
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
                    j += 1;
                }
                i = if toks.get(j).is_some_and(|t| t.is("{")) {
                    skip_group(&toks, j, "{", "}")
                } else {
                    j + 1
                };
            }
            "macro_rules" if t.is_ident() => {
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is("{") {
                    j += 1;
                }
                i = skip_group(&toks, j, "{", "}");
            }
            "fn" if t.is_ident() => {
                i = parse_fn(fi, file, &toks, i, &mut stack, &mut pending, fns, out, &current_impl);
            }
            "let" if t.is_ident() && current_fn(&stack).is_some() => {
                // `let [mut] name : Type` — record the typed binding.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is("mut")) {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_ident())
                    && toks.get(j + 1).is_some_and(|t| t.is(":"))
                {
                    let name = toks[j].s.clone();
                    let start = j + 2;
                    let mut k = start;
                    let mut depth = 0i32;
                    while k < toks.len() {
                        match toks[k].s.as_str() {
                            "<" | "(" | "[" => depth += 1,
                            ">" | ")" | "]" => depth -= 1,
                            "=" | ";" if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if let Some(base) = type_base(&toks[start..k]) {
                        if let Some(id) = current_fn(&stack) {
                            out.fn_locals.entry(id).or_default().insert(name, base);
                        }
                    }
                    i = k;
                } else {
                    i += 1;
                }
            }
            _ if t.is_ident()
                && !KEYWORDS.contains(&t.s.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is("(")) =>
            {
                if let Some(caller) = current_fn(&stack) {
                    let recv = classify_receiver(&toks, i, caller, &stack, out, &current_impl);
                    out.raw_calls.push(RawCall {
                        caller,
                        name: t.s.clone(),
                        recv,
                        line: t.line,
                    });
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Classifies the receiver of the call whose name token is at `i`.
fn classify_receiver(
    toks: &[Tok],
    i: usize,
    caller: FnId,
    stack: &[Scope],
    out: &ParseOut,
    current_impl: &dyn Fn(&[Scope]) -> ImplCtx,
) -> Recv {
    let prev = |k: usize| -> Option<&Tok> { i.checked_sub(k).and_then(|j| toks.get(j)) };
    let impl_ty = || current_impl(stack).0;
    let field_lookup = |owner: Option<String>, field: &str| -> Option<String> {
        // The impl's own struct first, then the workspace field map
        // (unique only): ambiguity degrades to Unknown, never a wrong
        // single binding.
        if let Some(owner) = owner {
            if let Some(t) = out
                .struct_fields
                .get(&owner)
                .and_then(|fs| fs.get(field))
            {
                return Some(t.clone());
            }
        }
        let mut hits: BTreeSet<&String> = BTreeSet::new();
        for fs in out.struct_fields.values() {
            if let Some(t) = fs.get(field) {
                hits.insert(t);
            }
        }
        match hits.len() {
            1 => hits.into_iter().next().cloned(),
            _ => None,
        }
    };
    match prev(1) {
        Some(p) if p.is(".") => {
            match prev(2) {
                Some(r) if r.is_ident() => {
                    let rname = &r.s;
                    let via_dot = prev(3).is_some_and(|t| t.is("."));
                    if via_dot {
                        // `<something>.r.m(` — r is a field.
                        let owner = match prev(4) {
                            Some(s) if s.is("self") => impl_ty(),
                            _ => None,
                        };
                        match field_lookup(owner, rname) {
                            Some(t) => Recv::Typed(t),
                            None => Recv::Unknown,
                        }
                    } else if rname == "self" {
                        match impl_ty() {
                            Some(t) => Recv::Typed(t),
                            None => Recv::Unknown,
                        }
                    } else {
                        // Plain binding: typed let / param, else a
                        // field of the impl's struct (method bodies
                        // often alias `let x = &mut self.x` — not
                        // tracked; see module docs).
                        match out
                            .fn_locals
                            .get(&caller)
                            .and_then(|m| m.get(rname))
                            .cloned()
                        {
                            Some(t) => Recv::Typed(t),
                            None => Recv::Unknown,
                        }
                    }
                }
                _ => Recv::Unknown,
            }
        }
        Some(p) if p.is("::") => match prev(2) {
            Some(q) if q.is_ident() => {
                let qn = &q.s;
                if qn == "Self" {
                    match impl_ty() {
                        Some(t) => Recv::Qualified(t),
                        None => Recv::Free,
                    }
                } else if qn.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    Recv::Qualified(qn.clone())
                } else {
                    Recv::Free
                }
            }
            _ => Recv::Free,
        },
        _ => Recv::Free,
    }
}

/// Parses a `struct` item starting at token `i` (the `struct`
/// keyword); records named fields' base types; returns the index
/// after the item.
fn parse_struct(toks: &[Tok], i: usize, out: &mut ParseOut) -> usize {
    let Some(name) = toks.get(i + 1).filter(|t| t.is_ident()).map(|t| t.s.clone()) else {
        return i + 1;
    };
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is("<")) {
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].s.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    match toks.get(j).map(|t| t.s.as_str()) {
        Some("(") => {
            // Tuple struct: skip to `;`.
            while j < toks.len() && !toks[j].is(";") {
                j += 1;
            }
            j + 1
        }
        Some("{") => {
            // Named fields: `[pub [(..)]] name : Type ,`.
            let mut k = j + 1;
            let mut depth = 1i32;
            let fields = out.struct_fields.entry(name).or_default();
            while k < toks.len() && depth > 0 {
                match toks[k].s.as_str() {
                    "{" => {
                        depth += 1;
                        k += 1;
                    }
                    "}" => {
                        depth -= 1;
                        k += 1;
                    }
                    "pub" if depth == 1 => {
                        k += 1;
                        if toks.get(k).is_some_and(|t| t.is("(")) {
                            let mut pd = 0i32;
                            while k < toks.len() {
                                match toks[k].s.as_str() {
                                    "(" => pd += 1,
                                    ")" => {
                                        pd -= 1;
                                        if pd == 0 {
                                            k += 1;
                                            break;
                                        }
                                    }
                                    _ => {}
                                }
                                k += 1;
                            }
                        }
                    }
                    _ if depth == 1
                        && toks[k].is_ident()
                        && toks.get(k + 1).is_some_and(|t| t.is(":")) =>
                    {
                        let fname = toks[k].s.clone();
                        let start = k + 2;
                        let mut e = start;
                        let mut td = 0i32;
                        while e < toks.len() {
                            match toks[e].s.as_str() {
                                "<" | "(" | "[" => td += 1,
                                ">" | ")" | "]" => {
                                    if td == 0 && toks[e].is("}") {
                                        break;
                                    }
                                    td -= 1;
                                    if td < 0 {
                                        break;
                                    }
                                }
                                "," if td == 0 => break,
                                "}" if td == 0 => break,
                                _ => {}
                            }
                            e += 1;
                        }
                        if let Some(base) = type_base(&toks[start..e]) {
                            fields.insert(fname, base);
                        }
                        k = e;
                    }
                    _ => k += 1,
                }
            }
            k
        }
        _ => j + 1, // unit struct `struct X;`
    }
}

/// Parses a `fn` item starting at token `i` (the `fn` keyword):
/// registers the definition, records typed params, and returns the
/// index of the body `{` (so the main loop pushes the scope) or just
/// past the `;` for body-less declarations.
#[allow(clippy::too_many_arguments)]
fn parse_fn(
    fi: usize,
    file: &SourceFile,
    toks: &[Tok],
    i: usize,
    stack: &mut [Scope],
    pending: &mut Option<Scope>,
    fns: &mut Vec<FnDef>,
    out: &mut ParseOut,
    current_impl: &dyn Fn(&[Scope]) -> ImplCtx,
) -> usize {
    let Some(name_tok) = toks.get(i + 1).filter(|t| t.is_ident()) else {
        return i + 1; // `fn(` type position
    };
    let name = name_tok.s.clone();
    let sig_line = toks[i].line;
    let mut j = i + 2;
    // Generics.
    if toks.get(j).is_some_and(|t| t.is("<")) {
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].s.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Params.
    let mut params: Vec<(String, String)> = Vec::new();
    if toks.get(j).is_some_and(|t| t.is("(")) {
        let start = j + 1;
        let mut depth = 1i32;
        let mut k = start;
        let mut param_start = start;
        let flush = |s: usize, e: usize, params: &mut Vec<(String, String)>| {
            let p = &toks[s..e];
            if p.iter().any(|t| t.is("self")) {
                return;
            }
            // pattern : type — split at the first top-level `:`.
            let mut d = 0i32;
            for (ci, t) in p.iter().enumerate() {
                match t.s.as_str() {
                    "<" | "(" | "[" => d += 1,
                    ">" | ")" | "]" => d -= 1,
                    ":" if d == 0 => {
                        let pname = p[..ci]
                            .iter()
                            .rev()
                            .find(|t| t.is_ident() && !t.is("mut") && !t.is("ref"));
                        if let (Some(pn), Some(base)) = (pname, type_base(&p[ci + 1..])) {
                            params.push((pn.s.clone(), base));
                        }
                        return;
                    }
                    _ => {}
                }
            }
        };
        while k < toks.len() {
            match toks[k].s.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        flush(param_start, k, &mut params);
                        k += 1;
                        break;
                    }
                }
                "," if depth == 1 => {
                    flush(param_start, k, &mut params);
                    param_start = k + 1;
                }
                _ => {}
            }
            k += 1;
        }
        j = k;
    }
    // Return type / where clause: scan to the body `{` or `;`.
    while j < toks.len() && !toks[j].is("{") && !toks[j].is(";") {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is("{")) {
        return j + 1; // declaration without a body
    }
    let (impl_type, trait_name) = current_impl(stack);
    let id = fns.len();
    fns.push(FnDef {
        name,
        impl_type,
        trait_name,
        file: fi,
        sig_line,
        body: (toks[j].line, file.len().max(toks[j].line)),
        crate_dir: file.crate_dir.clone(),
        is_test: file.is_test(sig_line),
        roots: Vec::new(),
    });
    if !params.is_empty() {
        out.fn_locals.entry(id).or_default().extend(params);
    }
    *pending = Some(Scope::Fn(id));
    j // the main loop consumes this `{` and pushes the scope
}

// ---------------------------------------------------------------
// Line-based token facts
// ---------------------------------------------------------------

const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!", "todo!(", "unimplemented!("];

const ALLOC_TOKENS: &[&str] = &[
    "Box::new",
    "vec![",
    "format!(",
    ".to_string()",
    ".to_owned()",
    ".to_vec()",
    "String::from(",
    ".collect(",
    ".collect::<",
    "with_capacity(",
    ".push(",
    ".push_back(",
    ".push_front(",
    ".insert(",
    ".extend(",
    ".reserve(",
    ".resize(",
];

/// Extracts may-panic / may-allocate token facts from one scrubbed
/// line belonging to a function with typed bindings `locals`.
fn line_facts(
    code: &str,
    line: usize,
    locals: Option<&BTreeMap<String, String>>,
    field_types: &BTreeMap<&str, BTreeSet<&str>>,
    out: &mut Vec<Fact>,
) {
    for pat in PANIC_TOKENS {
        if code.contains(pat) {
            out.push(Fact {
                kind: FactKind::MayPanic,
                line,
                what: format!("`{pat}`"),
            });
        }
    }
    if let Some(ix) = literal_index(code) {
        out.push(Fact {
            kind: FactKind::MayPanic,
            line,
            what: format!("indexing by literal `{ix}`"),
        });
    }
    if let Some(r) = range_slice_index(code) {
        out.push(Fact {
            kind: FactKind::MayPanic,
            line,
            what: format!("range-slice indexing `[{r}]`"),
        });
    }
    if let Some(d) = int_div_by_ident(code) {
        out.push(Fact {
            kind: FactKind::MayPanic,
            line,
            what: format!("integer division/remainder by `{d}`"),
        });
    }
    for pat in ALLOC_TOKENS {
        if code.contains(pat) {
            out.push(Fact {
                kind: FactKind::MayAlloc,
                line,
                what: format!("`{pat}`"),
            });
        }
    }
    // `.clone()` of a binding/field whose type is an owned collection.
    let mut from = 0;
    while let Some(pos) = code[from..].find(".clone()") {
        let at = from + pos;
        let recv: String = code[..at]
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let ty = locals
            .and_then(|m| m.get(&recv))
            .map(|t| t.as_str())
            .or_else(|| {
                field_types
                    .get(recv.as_str())
                    .filter(|s| s.len() == 1)
                    .and_then(|s| s.iter().next().copied())
            });
        if ty.is_some_and(|t| COLLECTION_TYPES.contains(&t)) {
            out.push(Fact {
                kind: FactKind::MayAlloc,
                line,
                what: format!("`{recv}.clone()` of a collection"),
            });
        }
        from = at + 1;
    }
}

/// The bracket contents of every `expr[...]` index on a scrubbed line:
/// a `[` whose preceding token can end an expression (an identifier that
/// is not a keyword, `)` or `]`). Array types, literals and patterns
/// (`[u8; 4]`, `&[0, 1]`, `let [a, ..] = x`) never match.
fn index_brackets(code: &str) -> impl Iterator<Item = &str> {
    code.match_indices('[').filter_map(move |(i, _)| {
        let before = code[..i].trim_end();
        let word = before.rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).next()?;
        let indexable =
            before.ends_with([')', ']']) || !(word.is_empty() || KEYWORDS.contains(&word));
        let len = code[i + 1..].find(']')?;
        indexable.then(|| code[i + 1..i + 1 + len].trim())
    })
}

/// Finds `expr[<integer literal>]`, e.g. `w[0]`; returns the literal.
fn literal_index(code: &str) -> Option<&str> {
    index_brackets(code)
        .find(|s| !s.is_empty() && s.bytes().all(|c| c.is_ascii_digit() || c == b'_'))
}

/// Finds `expr[a..b]`-style range slicing (any range with at least one
/// bound, `..=` included; the full-range `[..]` cannot panic and is
/// ignored). Returns the bracket content.
fn range_slice_index(code: &str) -> Option<&str> {
    index_brackets(code).find(|s| s.contains("..") && *s != "..")
}

/// Finds `lhs / ident` or `lhs % ident` — integer division/remainder
/// whose divisor is a runtime value. Heuristics, documented in
/// `DESIGN.md` §5.8: lines with a float hint (`f64`/`f32`/a float
/// literal) are skipped (float division cannot panic), and
/// `SCREAMING_CASE` const divisors are skipped (a constant zero
/// divisor fails the build via the `unconditional_panic` lint).
fn int_div_by_ident(code: &str) -> Option<String> {
    if code.contains("f64") || code.contains("f32") {
        return None;
    }
    let b = code.as_bytes();
    // Float literal hint: digit '.' digit.
    for w in b.windows(3) {
        if w[1] == b'.' && w[0].is_ascii_digit() && w[2].is_ascii_digit() {
            return None;
        }
    }
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if (c == b'/' || c == b'%')
            && (i == 0 || b[i - 1] != b'/')
            && b.get(i + 1) != Some(&b'/')
            && b.get(i + 1) != Some(&b'=')
        {
            // LHS must end an expression (ident, `)`, `]`, or a digit).
            let lhs = b[..i].iter().rev().find(|c| !c.is_ascii_whitespace());
            let lhs_ok =
                matches!(lhs, Some(c) if c.is_ascii_alphanumeric() || matches!(c, b'_' | b')' | b']'));
            if lhs_ok {
                let mut j = i + 1;
                while j < b.len() && b[j].is_ascii_whitespace() {
                    j += 1;
                }
                let start = j;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j > start && !b[start].is_ascii_digit() {
                    // `x / y.max(1)` cannot divide by zero.
                    let clamped = code[j..].starts_with(".max(")
                        && code.as_bytes().get(j + 5).is_some_and(|c| (b'1'..=b'9').contains(c));
                    if clamped {
                        i = j;
                        continue;
                    }
                    let ident = &code[start..j];
                    let screaming = ident
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
                    if !screaming && ident != "self" {
                        return Some(ident.to_string());
                    }
                    // `self.CONST`? impossible; `x / self.field` —
                    // treat `self` like any other runtime divisor by
                    // reading the field name after it.
                    if ident == "self" && b.get(j) == Some(&b'.') {
                        let fs = j + 1;
                        let mut fe = fs;
                        while fe < b.len() && (b[fe].is_ascii_alphanumeric() || b[fe] == b'_') {
                            fe += 1;
                        }
                        if fe > fs {
                            return Some(format!("self.{}", &code[fs..fe]));
                        }
                    }
                }
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lib(path: &str, crate_dir: &str, text: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(path), crate_dir.into(), FileRole::Lib, text)
    }

    fn graph_of(texts: &[(&str, &str, &str)]) -> (CodeGraph, Vec<SourceFile>) {
        let files: Vec<SourceFile> = texts
            .iter()
            .map(|(p, c, t)| lib(p, c, t))
            .collect();
        (build(&files), files)
    }

    fn fn_named<'g>(g: &'g CodeGraph, name: &str) -> &'g FnDef {
        g.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }
    fn id_named(g: &CodeGraph, name: &str) -> FnId {
        g.fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn fns_and_impl_context_are_extracted() {
        let (g, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct T { v: u32 }\n\
             impl T {\n    pub fn m(&self) -> u32 { self.v }\n}\n\
             impl Clone for T {\n    fn clone(&self) -> T { T { v: self.v } }\n}\n\
             pub fn free() {}\n",
        )]);
        let m = fn_named(&g, "m");
        assert_eq!(m.impl_type.as_deref(), Some("T"));
        assert!(m.trait_name.is_none());
        let c = fn_named(&g, "clone");
        assert_eq!(c.impl_type.as_deref(), Some("T"));
        assert_eq!(c.trait_name.as_deref(), Some("Clone"));
        assert!(fn_named(&g, "free").impl_type.is_none());
    }

    #[test]
    fn typed_receivers_resolve_and_std_gets_no_edges() {
        let (g, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct Ring { n: u64 }\n\
             impl Ring {\n    pub fn pop(&mut self) -> u64 { self.n }\n}\n\
             pub struct Owner { ring: Ring }\n\
             impl Owner {\n    pub fn step(&mut self, v: Vec<u64>) -> u64 {\n        let x = v.len() as u64;\n        self.ring.pop() + x\n    }\n}\n",
        )]);
        let step = id_named(&g, "step");
        let pop = id_named(&g, "pop");
        assert_eq!(g.calls[step], vec![pop], "field-typed call resolves; Vec::len has no workspace target");
    }

    #[test]
    fn untyped_method_calls_bind_same_crate_first() {
        let (g, _) = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub struct A;\nimpl A {\n    pub fn work(&self) {}\n}\n\
                 pub fn drive(x: &A) { x.work() }\n\
                 pub fn blind() { helper().work() }\nfn helper() -> A { A }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "pub struct B;\nimpl B {\n    pub fn work(&self) { panic!(\"boom\") }\n}\n",
            ),
        ]);
        let blind = id_named(&g, "blind");
        let a_work = g
            .fns
            .iter()
            .position(|f| f.name == "work" && f.crate_dir == "a")
            .unwrap();
        assert!(
            g.calls[blind].contains(&a_work),
            "unknown receiver binds same-crate impl"
        );
        let b_work = g
            .fns
            .iter()
            .position(|f| f.name == "work" && f.crate_dir == "b")
            .unwrap();
        assert!(
            !g.calls[blind].contains(&b_work),
            "same-crate candidates shadow cross-crate ones"
        );
    }

    #[test]
    fn facts_panic_alloc_charge_touch() {
        let (g, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct OaTable { n: u64 }\n\
             impl OaTable {\n    pub fn get(&self) -> u64 { self.n }\n}\n\
             pub struct M;\nimpl M {\n    pub fn stall(&mut self, _n: u64) {}\n}\n\
             pub struct S { table: OaTable, m: M }\n\
             impl S {\n    pub fn hot(&mut self, v: &[u64], k: u64) -> u64 {\n\
                 let x = v.first().unwrap();\n\
                 let mut out: Vec<u64> = Vec::new();\n\
                 out.push(*x);\n\
                 let t = self.table.get();\n\
                 self.m.stall(1);\n\
                 t % k\n    }\n}\n",
        )]);
        let hot = id_named(&g, "hot");
        let kinds: Vec<(FactKind, &str)> = g.facts[hot]
            .iter()
            .map(|f| (f.kind, f.what.as_str()))
            .collect();
        assert!(kinds.iter().any(|(k, w)| *k == FactKind::MayPanic && w.contains("unwrap")));
        assert!(kinds.iter().any(|(k, w)| *k == FactKind::MayAlloc && w.contains("push")));
        assert!(kinds.iter().any(|(k, w)| *k == FactKind::Charge && w.contains("stall")));
        assert!(kinds.iter().any(|(k, w)| *k == FactKind::Touch && w.contains("OaTable::get")));
        assert!(
            kinds.iter().any(|(k, w)| *k == FactKind::MayPanic && w.contains("remainder")),
            "{kinds:?}"
        );
    }

    #[test]
    fn touches_inside_the_charged_type_do_not_count() {
        let (g, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub struct OaTable { n: u64 }\n\
             impl OaTable {\n    fn probe(&self) -> u64 { self.n }\n    pub fn get(&self) -> u64 { self.probe() }\n}\n",
        )]);
        let get = id_named(&g, "get");
        assert!(
            g.facts[get].iter().all(|f| f.kind != FactKind::Touch),
            "internal helper calls are not touches"
        );
    }

    #[test]
    fn hot_path_annotations_attach_to_the_next_fn() {
        let (g, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "x",
            "// analyze::hot_path(my-root)\npub fn rooted() {}\n\
             // analyze::hot_path(dangling)\n",
        )]);
        assert_eq!(fn_named(&g, "rooted").roots.len(), 1);
        assert_eq!(fn_named(&g, "rooted").roots[0].name, "my-root");
        assert_eq!(g.unattached_roots.len(), 1);
        assert_eq!(g.unattached_roots[0].2, "dangling");
    }

    #[test]
    fn cfg_test_fns_are_excluded_from_the_graph() {
        let (g, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "x",
            "pub fn caller() { helper() }\n\
             #[cfg(test)]\nmod tests {\n    pub fn helper() { panic!(\"test only\") }\n}\n",
        )]);
        let caller = id_named(&g, "caller");
        assert!(
            g.calls[caller].is_empty(),
            "calls never resolve into cfg(test) code"
        );
    }

    #[test]
    fn calls_inside_closures_and_macro_args_belong_to_the_enclosing_fn() {
        let (g, _) = graph_of(&[(
            "crates/x/src/lib.rs",
            "x",
            "fn leaf() {}\n\
             pub fn outer(v: &[u64]) -> u64 {\n\
                 let s: u64 = v.iter().map(|x| { leaf(); *x }).sum();\n\
                 assert!(s > 0, \"{}\", check(s));\n    s\n}\n\
             fn check(x: u64) -> u64 { x }\n",
        )]);
        let outer = id_named(&g, "outer");
        assert!(g.calls[outer].contains(&id_named(&g, "leaf")), "closure body call");
        assert!(g.calls[outer].contains(&id_named(&g, "check")), "macro-arg call");
    }

    #[test]
    fn div_heuristics_skip_floats_and_consts() {
        assert_eq!(int_div_by_ident("let a = x / y;"), Some("y".into()));
        assert_eq!(int_div_by_ident("let a = x % cap;"), Some("cap".into()));
        assert_eq!(int_div_by_ident("let a = x as f64 / rate;"), None);
        assert_eq!(int_div_by_ident("let a = 1.5 / rate;"), None);
        assert_eq!(int_div_by_ident("let a = x / DESC_BYTES;"), None);
        assert_eq!(int_div_by_ident("let a = x / 4;"), None);
        assert_eq!(int_div_by_ident("// not code"), None);
        assert_eq!(
            int_div_by_ident("let s = n / self.cap;"),
            Some("self.cap".into())
        );
    }

    #[test]
    fn range_slice_shapes() {
        assert_eq!(range_slice_index("&buf[..4]"), Some("..4"));
        assert_eq!(range_slice_index("&buf[a..b]"), Some("a..b"));
        assert_eq!(range_slice_index("set[..=pos].rotate_right(1)"), Some("..=pos"));
        assert_eq!(range_slice_index("&buf[..]"), None, "full range cannot panic");
        assert_eq!(range_slice_index("for i in 0..n {"), None);
        assert_eq!(range_slice_index("let x: [u8; 4];"), None);
        assert_eq!(range_slice_index("let [first, ..] = self.0;"), None, "a pattern");
        assert_eq!(range_slice_index("[1, rest @ ..] => rest,"), None, "a slice pattern");
    }

    #[test]
    fn literal_index_shapes() {
        assert_eq!(literal_index("let x = w[0];"), Some("0"));
        assert_eq!(literal_index("foo.bar()[12]"), Some("12"));
        assert_eq!(literal_index("let a: [u8; 4] = [0, 1, 2, 3];"), None);
        assert_eq!(literal_index("&buf[..4]"), None);
        assert_eq!(literal_index("v[i]"), None);
        assert_eq!(literal_index("#[cfg(test)]"), None);
        assert_eq!(literal_index("for b in [0] {"), None, "an array after a keyword");
    }
}
