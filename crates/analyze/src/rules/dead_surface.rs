//! `dead-surface`: the `pub` items no program reaches (`DESIGN.md`
//! §5.8).
//!
//! Candidates are the `pub` fns, inherent methods, consts, statics and
//! types of library files, outside `#[cfg(test)]`; trait-impl methods
//! never are. Roots are every non-library file (bins, examples,
//! integration tests, `benchmark/src`), every code block in a doc
//! comment (doctests) and every item-level macro call. A name a root mentions is reached, and a
//! reached name reaches every identifier in the definitions of the
//! items so named: signature and body, fields, a const's value, an
//! inherent impl's header, a whole trait impl (with its `Self` type, or
//! its trait if `Self` is foreign), plus `Self` as the impl type,
//! format-string captures (`"{LIMIT}"`) and a `use ... as` alias's
//! original. A `pub use` or test-only code reaches nothing. Names are
//! not resolved to paths, so the edges over-approximate: the rule can
//! miss dead code (a dead `new` hides behind every live one) but never
//! lists live code. A file set without a root is a snippet, not a
//! program, and gets no findings.

use super::graph_rules::GraphFinding;
use super::{RawFinding, RULE_DEAD_SURFACE};
use crate::graph::{skip_angles, skip_group, tokenize, type_base, Tok};
use crate::source::{FileRole, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// The rule's totals, carried into `results/analyze_report.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Root files plus doc-comment code blocks.
    pub roots: usize,
    /// `pub` items considered.
    pub candidates: usize,
    /// Candidates no root reaches (allowed ones included).
    pub unreached: usize,
}

/// Finds the unreached candidates of `files`, plus the totals.
pub fn check(files: &[SourceFile]) -> (Vec<GraphFinding>, Totals) {
    if files.iter().all(|f| f.role == FileRole::Lib) {
        return (Vec::new(), Totals::default());
    }
    let mut s = Surface::default();
    for (fi, file) in files.iter().enumerate() {
        let toks = tokenize(&file.code);
        if file.role != FileRole::Lib {
            s.roots.extend(mentions(file, &toks, 0, toks.len(), None));
            s.root_count += 1;
            continue;
        }
        s.walk(fi, file, &toks, 0, toks.len(), None);
        for block in doctests(&file.lines) {
            s.roots.extend(tokenize(&block).into_iter().filter(Tok::is_ident).map(|t| t.s));
            s.root_count += 1;
        }
    }
    for (self_ty, tr, m) in std::mem::take(&mut s.trait_impls) {
        match [self_ty, tr].into_iter().flatten().find(|n| s.types.contains(n)) {
            Some(owner) => s.bodies.entry(owner).or_default().extend(m),
            None => s.roots.extend(m),
        }
    }
    let mut reached = BTreeSet::new();
    let mut queue: Vec<String> = std::mem::take(&mut s.roots).into_iter().collect();
    while let Some(name) = queue.pop() {
        if let Some(body) = s.bodies.get(&name).filter(|_| !reached.contains(&name)) {
            queue.extend(body.iter().cloned());
        }
        reached.insert(name);
    }
    let out: Vec<_> = s.candidates.iter().filter(|c| !reached.contains(&c.name)).map(|c| {
        let message = format!(
            "`pub {} {}` is reached from no bin, example, integration test, doctest or \
             benchmark/src call site — delete it",
            c.kind, c.display
        );
        let raw = RawFinding { rule: RULE_DEAD_SURFACE, line: c.line, message };
        GraphFinding { file: Some(c.file), raw }
    }).collect();
    let totals =
        Totals { roots: s.root_count, candidates: s.candidates.len(), unreached: out.len() };
    (out, totals)
}

/// One `pub` item that must be reached.
struct Candidate {
    file: usize,
    line: usize,
    kind: String,
    name: String,
    /// `Type::name` for an inherent method or const.
    display: String,
}

#[derive(Default)]
struct Surface {
    /// Name -> every identifier the definitions of that name mention.
    bodies: BTreeMap<String, BTreeSet<String>>,
    /// `(Self type, trait, mentions)` per trait impl, attached once
    /// every type name is known.
    trait_impls: Vec<(Option<String>, Option<String>, BTreeSet<String>)>,
    /// Struct, enum, union, type-alias and trait names.
    types: BTreeSet<String>,
    candidates: Vec<Candidate>,
    roots: BTreeSet<String>,
    root_count: usize,
}

impl Surface {
    /// Records the items of `toks[i..end]`; `owner` is the `Self` type
    /// inside an inherent impl.
    fn walk(&mut self, fi: usize, file: &SourceFile, toks: &[Tok], mut i: usize, end: usize,
        owner: Option<&str>) {
        let is = |i: usize, s: &str| toks.get(i).is_some_and(|t| t.is(s));
        while i < end {
            let start = i;
            if is(i, "#") {
                i = skip_group(toks, i + 1 + usize::from(is(i + 1, "!")), "[", "]");
                continue;
            }
            let public = is(i, "pub") && !is(i + 1, "(");
            if is(i, "pub") {
                i = if public { i + 1 } else { skip_group(toks, i + 1, "(", ")") };
            }
            let qualified = |q: &[&str], at: usize| q.iter().any(|q| is(at, q));
            while qualified(&["unsafe", "async", "default", "\""], i)
                || (is(i, "extern") && !is(i + 1, "crate"))
                || (is(i, "const") && qualified(&["fn", "unsafe", "async", "extern"], i + 1))
            {
                i += 1;
            }
            let Some(kw) = toks.get(i) else { break };
            let test = file.is_test(kw.line);
            let name_at = i + 1 + usize::from(is(i + 1, "mut"));
            let name = toks.get(name_at).filter(|t| t.is_ident() && !t.is("_"));
            let name = name.map(|t| t.s.clone());
            match kw.s.as_str() {
                k @ ("fn" | "struct" | "enum" | "union" | "trait" | "const" | "static"
                | "type") => {
                    let e = item_end(toks, i, !matches!(k, "const" | "static" | "type"));
                    if let (false, Some(name)) = (test, name) {
                        if !matches!(k, "fn" | "const" | "static") {
                            self.types.insert(name.clone());
                        }
                        let m = mentions(file, toks, start, e, owner);
                        self.bodies.entry(name.clone()).or_default().extend(m);
                        if public && k != "trait" {
                            let display = owner.map_or(name.clone(), |o| format!("{o}::{name}"));
                            let (line, kind) = (toks[start].line, k.to_string());
                            self.candidates.push(Candidate { file: fi, line, kind, name, display });
                        }
                    }
                    i = e;
                }
                "impl" => {
                    let brace = (i..end).find(|&j| toks[j].is("{")).unwrap_or(end);
                    let e = skip_group(toks, brace, "{", "}");
                    let h = if is(i + 1, "<") { skip_angles(toks, i + 1) } else { i + 1 };
                    let header = &toks[h.min(brace)..brace];
                    let stop = header.iter().position(|t| t.is("where")).unwrap_or(header.len());
                    let mut depth = 0i32;
                    let split = header[..stop].iter().position(|t| {
                        depth += i32::from(t.is("<")) - i32::from(t.is(">"));
                        depth == 0 && t.is("for")
                    });
                    match (test, split) {
                        (true, _) => {}
                        (false, Some(f)) => {
                            let self_ty = type_base(&header[f + 1..stop]);
                            let m = mentions(file, toks, start, e, self_ty.as_deref());
                            self.trait_impls.push((self_ty, type_base(&header[..f]), m));
                        }
                        (false, None) => {
                            if let Some(ty) = type_base(&header[..stop]) {
                                let m = mentions(file, toks, start, brace, None);
                                self.bodies.entry(ty.clone()).or_default().extend(m);
                                self.walk(fi, file, toks, brace + 1, e - 1, Some(&ty));
                            }
                        }
                    }
                    i = e;
                }
                "mod" if is(i + 2, "{") => {
                    let e = skip_group(toks, i + 2, "{", "}");
                    if !test {
                        self.walk(fi, file, toks, i + 3, e - 1, None);
                    }
                    i = e;
                }
                "use" => {
                    // `use a::B as C;`: mentioning `C` reaches `B`.
                    let e = item_end(toks, i, false);
                    for w in toks[i..e].windows(3).filter(|w| w[1].is("as") && !test) {
                        self.bodies.entry(w[2].s.clone()).or_default().insert(w[0].s.clone());
                    }
                    i = e;
                }
                // `macro_rules! name {..}` is an item named `name`; any
                // other item-level macro call is a root.
                _ if kw.is_ident() && is(i + 1, "!") => {
                    let e = item_end(toks, i, true);
                    let m = mentions(file, toks, start, e, None);
                    match toks.get(i + 2).filter(|_| kw.is("macro_rules")) {
                        _ if test => {}
                        Some(name) => self.bodies.entry(name.s.clone()).or_default().extend(m),
                        None => self.roots.extend(m),
                    }
                    i = e;
                }
                _ => i += 1,
            }
        }
    }
}

/// Every identifier in `toks[start..end]`, `Self` read as `owner`,
/// plus the identifiers format strings on those lines capture.
fn mentions(file: &SourceFile, toks: &[Tok], start: usize, end: usize, owner: Option<&str>)
    -> BTreeSet<String> {
    let mut m: BTreeSet<String> = toks[start..end].iter().filter(|t| t.is_ident())
        .map(|t| owner.filter(|_| t.is("Self")).unwrap_or(&t.s).to_string())
        .collect();
    if let (Some(a), Some(b)) = (toks.get(start), end.checked_sub(1).and_then(|e| toks.get(e))) {
        for line in &file.lines[a.line - 1..b.line] {
            m.extend(line.split('{').skip(1).filter_map(|s| {
                let n = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
                let ident = n > 0 && !s.starts_with(|c: char| c.is_ascii_digit());
                (ident && s[n..].starts_with(['}', ':'])).then(|| s[..n].to_string())
            }));
        }
    }
    m
}

/// The fenced code blocks of a file's `///` and `//!` comments (a
/// `text` block too: the rule may miss dead code, never list live code).
fn doctests(lines: &[String]) -> Vec<Vec<String>> {
    let mut blocks: Vec<Vec<String>> = Vec::new();
    let mut open = false;
    for line in lines {
        let t = line.trim_start();
        let Some(doc) = t.strip_prefix("///").or_else(|| t.strip_prefix("//!")) else {
            continue;
        };
        if doc.trim_start().starts_with("```") {
            open = !open;
            blocks.extend(open.then(Vec::new));
        } else if let Some(block) = blocks.last_mut().filter(|_| open) {
            block.push(doc.to_string());
        }
    }
    blocks
}

/// Index just past the item whose keyword is at `i`: its braced body
/// when `braced` (fn, struct, trait, ...) and a `{` comes first, else
/// its top-level `;`.
fn item_end(toks: &[Tok], mut i: usize, braced: bool) -> usize {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        match t.s.as_str() {
            "{" if braced && depth == 0 => return skip_group(toks, i, "{", "}"),
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}
