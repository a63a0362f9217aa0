//! The per-file source model every rule runs against.
//!
//! A [`SourceFile`] splits a `.rs` file into three parallel views with
//! identical line structure:
//!
//! * `code` — the source with every comment and every string/char
//!   literal blanked to spaces, so token searches cannot match inside
//!   doc text or format strings;
//! * `comments` — the comment text per line (and nothing else), which
//!   is where `SAFETY:`, `draws: N`, and `analyze::allow(...)`
//!   annotations live;
//! * `lines` — the raw text, used only for messages.
//!
//! On top of that it marks `#[cfg(test)]` / `#[test]` regions (rules
//! that exempt test code consult [`SourceFile::is_test`]) and parses
//! the allow-annotation grammar:
//!
//! ```text
//! // analyze::allow(<rule>, reason = "<non-empty justification>")
//! ```
//!
//! An allow suppresses findings of `<rule>` on the annotation's own
//! line and on the next line that contains code (so it works both as a
//! trailing comment and as a standalone comment above the hazard). A
//! missing or empty `reason` is itself reported, as rule
//! `allow-grammar` — an unjustified escape hatch never passes.

use std::path::PathBuf;

/// Where a file sits in its crate, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source under `src/` (not `src/bin/`, not `main.rs`).
    Lib,
    /// A binary: `src/bin/*` or `src/main.rs`.
    Bin,
    /// Integration tests under `tests/`.
    Test,
    /// Cargo benches under `benches/`.
    Bench,
}

/// One parsed allow annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule id the annotation names, e.g. `nondeterminism`.
    pub rule: String,
    /// The justification string (non-empty by construction).
    pub reason: String,
    /// 1-based line of the annotation.
    pub line: usize,
}

/// A malformed allow annotation (reported as rule `allow-grammar`).
#[derive(Debug, Clone)]
pub struct BadAllow {
    /// 1-based line of the annotation.
    pub line: usize,
    /// What was wrong with it.
    pub what: String,
}

/// One parsed hot-path root annotation:
///
/// ```text
/// // analyze::hot_path(<name>)
/// // analyze::hot_path(<name>, rules = "panic-path, alloc-path")
/// ```
///
/// Marks the next `fn` definition as a taint-propagation root for the
/// call-graph rules (all three when `rules` is empty). See
/// `DESIGN.md` §5.8.
#[derive(Debug, Clone)]
pub struct HotPath {
    /// Root name, e.g. `engine-batch-loop`.
    pub name: String,
    /// Graph rules this root seeds; empty means all graph rules.
    pub rules: Vec<String>,
    /// 1-based line of the annotation.
    pub line: usize,
}

/// A `.rs` file prepared for rule scanning.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, e.g. `crates/simnet/src/impair.rs`.
    pub path: PathBuf,
    /// Directory name under `crates/` (`core`, `simnet`, ...). Note
    /// this is the directory, not the package name (`crates/core` is
    /// package `ldlp`).
    pub crate_dir: String,
    /// Role of the file inside its crate.
    pub role: FileRole,
    /// Raw lines.
    pub lines: Vec<String>,
    /// Lines with comments and string/char literals blanked.
    pub code: Vec<String>,
    /// Comment text per line (block comments contribute per line).
    pub comments: Vec<String>,
    /// True for lines inside `#[cfg(test)]` items or `#[test]` fns.
    test_mask: Vec<bool>,
    /// Well-formed allow annotations, in line order.
    pub allows: Vec<Allow>,
    /// Malformed allow annotations.
    pub bad_allows: Vec<BadAllow>,
    /// Well-formed hot-path root annotations, in line order.
    pub hot_paths: Vec<HotPath>,
    /// Malformed hot-path annotations (reported as `graph-config`).
    pub bad_hot_paths: Vec<BadAllow>,
}

impl SourceFile {
    /// Parses `text` as the file at `path` (workspace-relative).
    pub fn parse(path: PathBuf, crate_dir: String, role: FileRole, text: &str) -> Self {
        let lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let (code, comments) = scrub(&lines);
        let test_mask = mark_test_regions(&code);
        let (allows, bad_allows) = parse_allows(&comments);
        let (hot_paths, bad_hot_paths) = parse_hot_paths(&comments);
        SourceFile {
            path,
            crate_dir,
            role,
            lines,
            code,
            comments,
            test_mask,
            allows,
            bad_allows,
            hot_paths,
            bad_hot_paths,
        }
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True if the file has no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// True if 1-based `line` is inside test-only code (or the whole
    /// file is a `tests/`-style target).
    pub fn is_test(&self, line: usize) -> bool {
        self.role == FileRole::Test
            || self
                .test_mask
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or(false)
    }

    /// The allow annotation (if any) covering 1-based `line` for
    /// `rule`: one on the same line, or one on the nearest annotation
    /// line directly above (walking up through comment-only lines).
    pub fn allow_for(&self, rule: &str, line: usize) -> Option<&Allow> {
        // Trailing on the same line wins.
        if let Some(a) = self.allows.iter().find(|a| a.line == line && a.rule == rule) {
            return Some(a);
        }
        // Standalone annotation above: the annotation's line must have
        // no code, and every line strictly between it and `line` must
        // be code-free or an attribute (`#[...]` lines are part of the
        // annotated item's header, e.g. a scoped clippy allow).
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let idx = l - 1;
            let trimmed = self.code[idx].trim();
            let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#![");
            let has_code = !trimmed.is_empty() && !is_attr;
            if let Some(a) = self.allows.iter().find(|a| a.line == l && a.rule == rule) {
                if !has_code {
                    return Some(a);
                }
                return None;
            }
            if has_code {
                return None;
            }
            l -= 1;
        }
        None
    }

    /// Walks upward from the line before 1-based `line` through the
    /// item's contiguous header (comments, attributes, blank lines are
    /// NOT allowed — the header stops at the first blank or code line)
    /// and returns true if any comment in it satisfies `pred`. Also
    /// checks the trailing comment on `line` itself.
    pub fn header_comment_matches(&self, line: usize, mut pred: impl FnMut(&str) -> bool) -> bool {
        if pred(&self.comments[line - 1]) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            let idx = l - 1;
            let code = self.code[idx].trim();
            let comment = self.comments[idx].trim();
            let is_attr = code.starts_with("#[") || code.starts_with("#![");
            if !code.is_empty() && !is_attr {
                return false;
            }
            if code.is_empty() && comment.is_empty() {
                // Blank line terminates the header block.
                return false;
            }
            if pred(comment) {
                return true;
            }
            l -= 1;
        }
        false
    }
}

/// Blanks comments and string/char literals, preserving line structure.
/// Returns `(code, comments)` where `comments[i]` is the concatenated
/// comment text of line `i`.
fn scrub(lines: &[String]) -> (Vec<String>, Vec<String>) {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Normal,
        /// Inside `/* ... */`, with nesting depth.
        Block(u32),
        /// Inside a normal string literal.
        Str,
        /// Inside a raw string literal with N hashes.
        Raw(u32),
    }

    let mut code = Vec::with_capacity(lines.len());
    let mut comments = vec![String::new(); lines.len()];
    let mut st = St::Normal;

    for (li, line) in lines.iter().enumerate() {
        let b: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(b.len());
        let mut i = 0usize;
        while i < b.len() {
            match st {
                St::Block(depth) => {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        st = St::Block(depth + 1);
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        st = if depth == 1 { St::Normal } else { St::Block(depth - 1) };
                        out.push_str("  ");
                        i += 2;
                    } else {
                        comments[li].push(b[i]);
                        out.push(' ');
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == '\\' && i + 1 < b.len() {
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == '"' {
                        out.push('"');
                        st = St::Normal;
                        i += 1;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                St::Raw(hashes) => {
                    // Close on `"` followed by exactly `hashes` hashes.
                    if b[i] == '"'
                        && b[i + 1..].iter().take(hashes as usize).filter(|&&c| c == '#').count()
                            == hashes as usize
                    {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        st = St::Normal;
                        i += 1 + hashes as usize;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                St::Normal => {
                    let c = b[i];
                    if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
                        // Line comment: rest of the line is comment text.
                        let text: String = b[i + 2..].iter().collect();
                        // Doc comments start with another / or !.
                        comments[li].push_str(text.trim_start_matches(['/', '!']));
                        while out.len() < b.len() {
                            out.push(' ');
                        }
                        i = b.len();
                    } else if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        st = St::Block(1);
                        out.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        out.push('"');
                        st = St::Str;
                        i += 1;
                    } else if c == 'r'
                        && i + 1 < b.len()
                        && (b[i + 1] == '"' || b[i + 1] == '#')
                        && !prev_is_ident(&b, i)
                    {
                        // Raw string r"..." / r#"..."#.
                        let mut j = i + 1;
                        let mut hashes = 0u32;
                        while j < b.len() && b[j] == '#' {
                            hashes += 1;
                            j += 1;
                        }
                        if j < b.len() && b[j] == '"' {
                            out.push('r');
                            for _ in 0..hashes {
                                out.push('#');
                            }
                            out.push('"');
                            st = St::Raw(hashes);
                            i = j + 1;
                        } else {
                            out.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs. lifetime. A char literal is
                        // 'x' or an escape '\..'; anything else (e.g.
                        // 'static, 'a,) is a lifetime and passes through.
                        if i + 1 < b.len() && b[i + 1] == '\\' {
                            // Escape: skip to the closing quote.
                            let mut j = i + 2;
                            while j < b.len() && b[j] != '\'' {
                                j += 1;
                            }
                            for _ in i..=j.min(b.len() - 1) {
                                out.push(' ');
                            }
                            i = j + 1;
                        } else if i + 2 < b.len() && b[i + 2] == '\'' {
                            out.push_str("   ");
                            i += 3;
                        } else {
                            out.push(c);
                            i += 1;
                        }
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
            }
        }
        code.push(out);
    }
    (code, comments)
}

fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// Marks the body of every `#[cfg(test)]`-gated item and every
/// `#[test]` fn by matching braces on the scrubbed code.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    for (i, line) in code.iter().enumerate() {
        let t = line.trim();
        if !(t.starts_with("#[cfg(test)]") || t.starts_with("#[test]")) {
            continue;
        }
        // Find the item's opening brace from the next line on (the
        // attribute line itself never opens the body).
        let mut depth = 0i32;
        let mut opened = false;
        for (j, l) in code.iter().enumerate().skip(i) {
            mask[j] = true;
            for c in l.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
        }
    }
    mask
}

/// Parses every `analyze::allow(rule, reason = "...")` out of the
/// per-line comment text.
fn parse_allows(comments: &[String]) -> (Vec<Allow>, Vec<BadAllow>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (idx, c) in comments.iter().enumerate() {
        let line = idx + 1;
        // A directive is a comment that *starts* with the call form;
        // prose that merely mentions `analyze::allow(...)` mid-sentence
        // (docs, this file) is not an annotation.
        let Some(rest) = c.trim_start().strip_prefix("analyze::allow(") else {
            continue;
        };
        // Grammar: `<rule> , reason = "<text without quotes>" )` — the
        // reason may contain anything but a double quote (parens are
        // fine; invariants like `set.len() == 1` read naturally).
        let Some((rule_part, after_rule)) = rest.split_once(',') else {
            bad.push(BadAllow {
                line,
                what: "analyze::allow needs `rule, reason = \"...\"`".into(),
            });
            continue;
        };
        let rule = rule_part.trim().to_string();
        if rule.is_empty() || rule.contains(')') {
            bad.push(BadAllow {
                line,
                what: "analyze::allow missing rule name".into(),
            });
            continue;
        }
        let reason = after_rule
            .trim_start()
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('"'))
            .and_then(|r| r.split_once('"'))
            .filter(|(_, tail)| tail.trim_start().starts_with(')'))
            .map(|(reason, _)| reason.trim());
        match reason {
            Some(r) if !r.is_empty() => allows.push(Allow {
                rule,
                reason: r.to_string(),
                line,
            }),
            _ => bad.push(BadAllow {
                line,
                what: format!(
                    "analyze::allow({rule}) needs a non-empty reason = \"...\" justification \
                     closed by `)`"
                ),
            }),
        }
    }
    (allows, bad)
}

/// Parses every `analyze::hot_path(name[, rules = "a, b"])` out of the
/// per-line comment text. Names are kebab-case identifiers; the
/// optional `rules` list restricts which graph rules treat the
/// annotated fn as a root (validated against the rule catalog by the
/// graph checker, not here).
fn parse_hot_paths(comments: &[String]) -> (Vec<HotPath>, Vec<BadAllow>) {
    let mut roots = Vec::new();
    let mut bad = Vec::new();
    for (idx, c) in comments.iter().enumerate() {
        let line = idx + 1;
        let Some(rest) = c.trim_start().strip_prefix("analyze::hot_path(") else {
            continue;
        };
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        };
        // Form 1: `name)`.
        if let Some((name, _)) = rest.split_once(')') {
            if !name.contains(',') {
                let name = name.trim();
                if name_ok(name) {
                    roots.push(HotPath {
                        name: name.to_string(),
                        rules: Vec::new(),
                        line,
                    });
                } else {
                    bad.push(BadAllow {
                        line,
                        what: format!("analyze::hot_path name `{name}` must be kebab-case"),
                    });
                }
                continue;
            }
        }
        // Form 2: `name, rules = "a, b")`.
        let parsed = rest.split_once(',').and_then(|(name, after)| {
            let name = name.trim();
            let list = after
                .trim_start()
                .strip_prefix("rules")
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('='))
                .map(str::trim_start)
                .and_then(|r| r.strip_prefix('"'))
                .and_then(|r| r.split_once('"'))
                .filter(|(_, tail)| tail.trim_start().starts_with(')'))
                .map(|(list, _)| list)?;
            let rules: Vec<String> = list
                .split(',')
                .map(|r| r.trim().to_string())
                .filter(|r| !r.is_empty())
                .collect();
            if name_ok(name) && !rules.is_empty() {
                Some(HotPath {
                    name: name.to_string(),
                    rules,
                    line,
                })
            } else {
                None
            }
        });
        match parsed {
            Some(hp) => roots.push(hp),
            None => bad.push(BadAllow {
                line,
                what: "analyze::hot_path needs `name` or `name, rules = \"rule, rule\"`".into(),
            }),
        }
    }
    (roots, bad)
}

/// True if `hay` contains `needle` as a whole word (neither neighbour
/// is an identifier character).
pub fn contains_word(hay: &str, needle: &str) -> bool {
    find_word(hay, needle).is_some()
}

/// Byte offset of the first whole-word occurrence of `needle`.
pub fn find_word(hay: &str, needle: &str) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from("crates/x/src/lib.rs"),
            "x".into(),
            FileRole::Lib,
            text,
        )
    }

    #[test]
    fn strings_and_comments_are_blanked_but_structure_kept() {
        let f = parse("let a = \"HashMap inside\"; // HashMap in comment\nlet b = 1;\n");
        assert!(!f.code[0].contains("HashMap"));
        assert!(f.comments[0].contains("HashMap in comment"));
        assert_eq!(f.code[1], "let b = 1;");
    }

    #[test]
    fn raw_strings_and_char_literals_are_blanked() {
        let f = parse("let s = r#\"HashMap \" quote\"#; let c = '\\n'; let l: &'static str = s;");
        assert!(!f.code[0].contains("HashMap"));
        assert!(f.code[0].contains("&'static str"), "{}", f.code[0]);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = parse("/* outer /* inner */ still comment */ let x = 1;\n/* a\nb */ let y = 2;");
        assert!(f.code[0].contains("let x = 1;"));
        assert!(!f.code[0].contains("outer"));
        assert!(f.code[2].contains("let y = 2;"));
        assert!(f.comments[1].contains('a') || f.comments[0].contains('a'));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let f = parse("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n");
        assert!(!f.is_test(1));
        assert!(f.is_test(2));
        assert!(f.is_test(4));
        assert!(f.is_test(5));
        assert!(!f.is_test(6));
    }

    #[test]
    fn allow_grammar_requires_reason() {
        let f = parse(
            "// analyze::allow(nondeterminism, reason = \"lookup-only\")\nlet m = 1;\n\
             // analyze::allow(nondeterminism)\nlet n = 2;\n",
        );
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "nondeterminism");
        assert_eq!(f.allows[0].reason, "lookup-only");
        assert_eq!(f.bad_allows.len(), 1);
        assert!(f.allow_for("nondeterminism", 2).is_some());
        assert!(f.allow_for("nondeterminism", 4).is_none());
    }

    #[test]
    fn trailing_allow_covers_its_own_line_only() {
        let f = parse("let m = 1; // analyze::allow(r, reason = \"x\")\nlet n = 2;\n");
        assert!(f.allow_for("r", 1).is_some());
        assert!(f.allow_for("r", 2).is_none(), "line 1 has code, so it does not project down");
    }

    #[test]
    fn word_matching_respects_identifier_boundaries() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("type MyHashMap = ();", "HashMap"));
        assert!(!contains_word("HashMapLike", "HashMap"));
    }
}
