//! Item-level parsing: a tokenizer-backed pass over the scanner's code
//! channel that extracts `fn` items (with their enclosing `mod` / `impl`
//! context), the calls each function makes, and its loop-body line
//! ranges.
//!
//! This is deliberately *not* a full Rust parser. It tracks brace depth
//! and a scope stack (module / impl / fn / loop / plain block) over a
//! token stream, which is enough to answer the questions the workspace
//! rules ask — "which function does line N belong to", "what does it
//! call", "is this line inside a loop body" — without type inference or
//! macro expansion. Known precision limits are documented in
//! `DESIGN.md` §13.

use crate::context::FileContext;
use crate::scanner::Line;

/// One token of the code channel, tagged with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// `::`
    PathSep,
    /// Any single significant symbol (`{`, `}`, `(`, `)`, `.`, `;`, `!`, …).
    Sym(char),
}

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub enum Call {
    /// `foo(…)`, `path::to::foo(…)` — free-function call with its path
    /// segments (last segment is the function name).
    Path { line: usize, segs: Vec<String> },
    /// `.foo(…)` — method call, resolvable by name only.
    Method { line: usize, name: String },
}

impl Call {
    /// 1-based line the call occurs on.
    pub fn line(&self) -> usize {
        match self {
            Call::Path { line, .. } => *line,
            Call::Method { line, .. } => *line,
        }
    }
}

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name; impl methods are qualified as `Type::name`.
    pub name: String,
    /// Crate the function lives in (from the file's [`FileContext`]).
    pub crate_name: String,
    /// Module path inside the crate: file module plus any inline `mod`
    /// blocks, e.g. `["engine"]` or `["engine", "detail"]`.
    pub modules: Vec<String>,
    /// Whether the item is `pub` (any visibility qualifier counts:
    /// `pub`, `pub(crate)`, …).
    pub is_pub: bool,
    /// Whether the function sits in a test region.
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the body's closing brace (start_line for
    /// body-less declarations).
    pub end_line: usize,
    /// Calls made in the body, in source order.
    pub calls: Vec<Call>,
    /// Loop-body line ranges (inclusive, including the loop header line —
    /// a header allocation re-runs per iteration of any enclosing loop).
    pub loop_ranges: Vec<(usize, usize)>,
}

impl FnItem {
    /// Whether `line` falls inside this function.
    pub fn contains_line(&self, line: usize) -> bool {
        line >= self.start_line && line <= self.end_line
    }

    /// Whether `line` is inside one of the function's loop bodies.
    pub fn line_in_loop(&self, line: usize) -> bool {
        self.loop_ranges
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
    }

    /// Display form used in taint paths: `crate::fn` or
    /// `crate::Type::method`.
    pub fn display(&self) -> String {
        format!("{}::{}", self.crate_name, self.name)
    }

    /// Full path segments for call resolution:
    /// `[crate, mod…, (Type,) name]`.
    pub fn path_segs(&self) -> Vec<String> {
        let mut segs = vec![self.crate_name.clone()];
        segs.extend(self.modules.iter().cloned());
        // `Type::name` contributes two resolution segments.
        for part in self.name.split("::") {
            segs.push(part.to_string());
        }
        segs
    }

    /// Bare function name (method name for impl methods).
    pub fn bare_name(&self) -> &str {
        self.name.rsplit("::").next().unwrap_or(&self.name)
    }

    /// True for impl methods (`Type::name`).
    pub fn is_method(&self) -> bool {
        self.name.contains("::")
    }
}

/// Rust keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "in", "as", "move", "mut", "ref",
    "else", "break", "continue", "unsafe", "where", "impl", "dyn", "pub", "use", "mod", "struct",
    "enum", "trait", "type", "const", "static", "crate", "self", "Self", "super", "async", "await",
    "box",
];

/// Tokenizes the code channel of scanned lines. String/char interiors and
/// comments are already blanked, so no literal content reaches here.
pub(crate) fn tokenize(lines: &[Line]) -> Vec<(usize, Tok)> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_alphabetic() || c == '_' {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    i += 1;
                }
                toks.push((lineno, Tok::Ident(s)));
            } else if c.is_ascii_digit() {
                // Numeric literal (incl. hex, suffixes, floats): skip as a
                // unit so `1.0` does not produce a `.` token.
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric()
                        || chars[i] == '_'
                        || chars[i] == '.'
                        || ((chars[i] == '+' || chars[i] == '-')
                            && matches!(chars.get(i.wrapping_sub(1)), Some('e') | Some('E'))))
                {
                    // Stop `0..10` from being eaten as one number.
                    if chars[i] == '.' && chars.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
            } else if c == ':' && chars.get(i + 1) == Some(&':') {
                toks.push((lineno, Tok::PathSep));
                i += 2;
            } else {
                toks.push((lineno, Tok::Sym(c)));
                i += 1;
            }
        }
    }
    toks
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ScopeKind {
    Module(String),
    Impl(String),
    Fn(usize),
    Loop(usize),
    Block,
}

/// Parses one scanned file into its function items.
pub fn parse_file(ctx: &FileContext, lines: &[Line]) -> Vec<FnItem> {
    let toks = tokenize(lines);
    let file_modules = file_module_path(ctx);
    let mut items: Vec<FnItem> = Vec::new();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending: Option<ScopeKind> = None;

    let mut i = 0;
    while i < toks.len() {
        let (lineno, tok) = &toks[i];
        match tok {
            Tok::Ident(word) => match word.as_str() {
                "mod" => {
                    if let Some((_, Tok::Ident(name))) = toks.get(i + 1) {
                        pending = Some(ScopeKind::Module(name.clone()));
                    }
                    i += 1;
                }
                "impl" => {
                    pending = Some(ScopeKind::Impl(impl_type_name(&toks, i + 1)));
                    i += 1;
                }
                "fn" => {
                    if let Some((_, Tok::Ident(name))) = toks.get(i + 1) {
                        // Nested fns inside a fn body are parsed as their
                        // own items too (they get their own scope).
                        let impl_type = scopes.iter().rev().find_map(|s| match s {
                            ScopeKind::Impl(t) => Some(t.clone()),
                            _ => None,
                        });
                        let qualified = match impl_type {
                            Some(t) => format!("{t}::{name}"),
                            None => name.clone(),
                        };
                        let mut modules = file_modules.clone();
                        for s in &scopes {
                            if let ScopeKind::Module(m) = s {
                                modules.push(m.clone());
                            }
                        }
                        let is_pub = is_pub_before(&toks, i);
                        let in_test = lines.get(lineno - 1).map(|l| l.in_test).unwrap_or(false);
                        items.push(FnItem {
                            name: qualified,
                            crate_name: ctx.crate_name.clone(),
                            modules,
                            is_pub,
                            in_test,
                            start_line: *lineno,
                            end_line: *lineno,
                            calls: Vec::new(),
                            loop_ranges: Vec::new(),
                        });
                        pending = Some(ScopeKind::Fn(items.len() - 1));
                    }
                    i += 1;
                }
                "for" | "while" | "loop" => {
                    // Only loop headers inside an already-open fn body
                    // matter. A pending scope means we are between a
                    // `fn`/`impl`/`mod` keyword and its `{` — the `for` of
                    // `impl T for U` or a `for<'a>` bound, not a loop.
                    let in_fn = scopes.iter().any(|s| matches!(s, ScopeKind::Fn(_)));
                    if in_fn && pending.is_none() {
                        pending = Some(ScopeKind::Loop(*lineno));
                    }
                    i += 1;
                }
                _ => {
                    record_body_facts(&toks, i, &mut items, &scopes);
                    i += 1;
                }
            },
            Tok::Sym('{') => {
                scopes.push(pending.take().unwrap_or(ScopeKind::Block));
                i += 1;
            }
            Tok::Sym('}') => {
                match scopes.pop() {
                    Some(ScopeKind::Fn(idx)) => items[idx].end_line = *lineno,
                    Some(ScopeKind::Loop(start)) => {
                        let owner = scopes.iter().rev().find_map(|s| match s {
                            ScopeKind::Fn(idx) => Some(*idx),
                            _ => None,
                        });
                        if let Some(idx) = owner {
                            items[idx].loop_ranges.push((start, *lineno));
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            Tok::Sym(';') => {
                // `mod x;`, trait `fn f(…);`, `impl Trait for T;` — the
                // pending scope never opens.
                pending = None;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    // Unclosed scopes (truncated/odd files): close items at the last line.
    let last = lines.len();
    for s in scopes {
        if let ScopeKind::Fn(idx) = s {
            items[idx].end_line = last;
        }
    }
    items
}

/// Records a call for an identifier token when inside a fn.
fn record_body_facts(toks: &[(usize, Tok)], i: usize, items: &mut [FnItem], scopes: &[ScopeKind]) {
    let Some(fn_idx) = scopes.iter().rev().find_map(|s| match s {
        ScopeKind::Fn(idx) => Some(*idx),
        _ => None,
    }) else {
        return;
    };
    let (lineno, Tok::Ident(name)) = &toks[i] else {
        return;
    };
    if NON_CALL_KEYWORDS.contains(&name.as_str()) {
        return;
    }
    // A call is an identifier directly followed by `(`, or by `::<…>(`
    // (turbofish — skipped here; rare enough to ignore).
    let followed_by_paren = matches!(toks.get(i + 1), Some((_, Tok::Sym('('))));
    if !followed_by_paren {
        return;
    }
    let is_method = matches!(toks.get(i.wrapping_sub(1)), Some((_, Tok::Sym('.')))) && i > 0;
    if is_method {
        items[fn_idx].calls.push(Call::Method {
            line: *lineno,
            name: name.clone(),
        });
        return;
    }
    // Collect the leading path: (Ident ::)* name
    let mut segs = vec![name.clone()];
    let mut j = i;
    while j >= 2
        && matches!(toks.get(j - 1), Some((_, Tok::PathSep)))
        && matches!(toks.get(j - 2), Some((_, Tok::Ident(_))))
    {
        if let Some((_, Tok::Ident(seg))) = toks.get(j - 2) {
            segs.insert(0, seg.clone());
        }
        j -= 2;
    }
    items[fn_idx].calls.push(Call::Path {
        line: *lineno,
        segs,
    });
}

/// Extracts the implemented type name from the tokens after `impl`:
/// `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo` → `Foo`.
fn impl_type_name(toks: &[(usize, Tok)], mut i: usize) -> String {
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while let Some((_, tok)) = toks.get(i) {
        match tok {
            Tok::Sym('<') => angle += 1,
            Tok::Sym('>') => angle -= 1,
            Tok::Sym('{') | Tok::Sym(';') => break,
            Tok::Ident(w) if angle == 0 => {
                if w == "for" {
                    saw_for = true;
                    after_for = None;
                } else if w == "where" {
                    break;
                } else if saw_for {
                    // Keep the *last* path segment after `for`
                    // (`impl T for a::b::Type` → `Type`).
                    after_for = Some(w.clone());
                } else {
                    last_ident = Some(w.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    after_for.or(last_ident).unwrap_or_else(|| "_".to_string())
}

/// `pub` (with optional `(crate)`-style restriction) anywhere in the few
/// tokens before `fn` counts as public for taint-root purposes.
fn is_pub_before(toks: &[(usize, Tok)], fn_idx: usize) -> bool {
    // Scan back over at most 8 tokens: `pub (crate) const unsafe async fn`.
    let start = fn_idx.saturating_sub(8);
    toks[start..fn_idx]
        .iter()
        .rev()
        .take_while(|(_, t)| !matches!(t, Tok::Sym(';') | Tok::Sym('{') | Tok::Sym('}')))
        .any(|(_, t)| matches!(t, Tok::Ident(w) if w == "pub"))
}

/// The module path a file contributes: `crates/serve/src/engine.rs` →
/// `["engine"]`, `src/lib.rs` → `[]`, `crates/core/src/bin/x.rs` → `["x"]`.
fn file_module_path(ctx: &FileContext) -> Vec<String> {
    let rel = &ctx.rel_path;
    let rest = rel
        .strip_prefix("crates/")
        .and_then(|t| t.split_once('/').map(|x| x.1))
        .unwrap_or(rel);
    let Some(in_src) = rest.strip_prefix("src/") else {
        // tests/examples/benches: use the file stem as a pseudo-module.
        return stem_of(rest).into_iter().collect();
    };
    let stem = in_src.trim_end_matches(".rs");
    if stem == "lib" || stem == "main" {
        return Vec::new();
    }
    stem.split('/')
        .filter(|s| *s != "bin" && *s != "mod")
        .map(str::to_string)
        .collect()
}

fn stem_of(path: &str) -> Option<String> {
    path.rsplit('/')
        .next()
        .map(|f| f.trim_end_matches(".rs").to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;
    use crate::scanner::scan;

    fn parse(path: &str, src: &str) -> Vec<FnItem> {
        let ctx = classify(path).expect("policed path");
        parse_file(&ctx, &scan(src))
    }

    #[test]
    fn extracts_fns_with_spans_and_visibility() {
        let src = "pub fn a() {\n    b();\n}\nfn b() {}\n";
        let items = parse("crates/glm/src/x.rs", src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "a");
        assert!(items[0].is_pub);
        assert_eq!((items[0].start_line, items[0].end_line), (1, 3));
        assert!(!items[1].is_pub);
    }

    #[test]
    fn impl_methods_are_type_qualified() {
        let src = "struct S;\nimpl S {\n    pub fn m(&self) { helper(); }\n}\nimpl Clone for S {\n    fn clone(&self) -> S { S }\n}\n";
        let items = parse("crates/glm/src/x.rs", src);
        assert_eq!(items[0].name, "S::m");
        assert_eq!(items[1].name, "S::clone");
        assert!(items[0].is_method());
        assert_eq!(items[0].bare_name(), "m");
    }

    #[test]
    fn calls_carry_paths() {
        let src = "fn f() {\n    g();\n    mod_a::h(1);\n    x.method(2);\n}\n";
        let items = parse("crates/glm/src/x.rs", src);
        let calls = &items[0].calls;
        assert!(matches!(&calls[0], Call::Path { segs, .. } if segs == &["g"]));
        assert!(matches!(&calls[1], Call::Path { segs, .. } if segs == &["mod_a", "h"]));
        assert!(matches!(&calls[2], Call::Method { name, .. } if name == "method"));
    }

    #[test]
    fn loop_bodies_are_ranged() {
        let src = "fn f(v: &[u32]) {\n    let mut s = 0;\n    for x in v {\n        s += x;\n    }\n    while s > 0 {\n        s -= 1;\n    }\n}\n";
        let items = parse("crates/linalg/src/x.rs", src);
        assert_eq!(items[0].loop_ranges, vec![(3, 5), (6, 8)]);
        assert!(items[0].line_in_loop(4));
        assert!(!items[0].line_in_loop(2));
    }

    #[test]
    fn impl_trait_for_type_is_not_a_loop() {
        let src = "impl Iterator for S {\n    type Item = u32;\n    fn next(&mut self) -> Option<u32> { None }\n}\n";
        let items = parse("crates/glm/src/x.rs", src);
        assert_eq!(items[0].name, "S::next");
        assert!(items[0].loop_ranges.is_empty());
    }

    #[test]
    fn inline_mods_extend_the_module_path() {
        let src = "mod inner {\n    pub fn f() {}\n}\n";
        let items = parse("crates/serve/src/engine.rs", src);
        assert_eq!(items[0].modules, vec!["engine", "inner"]);
        assert_eq!(items[0].path_segs(), vec!["serve", "engine", "inner", "f"]);
        assert_eq!(items[0].display(), "serve::f");
    }

    #[test]
    fn test_regions_are_flagged() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let items = parse("crates/glm/src/x.rs", src);
        assert!(!items[0].in_test);
        assert!(items[1].in_test);
    }

    #[test]
    fn numbers_do_not_confuse_the_tokenizer() {
        let src = "fn f() {\n    let x = 1.0e-3;\n    let r = 0..10;\n    g(0xcbf2_9ce4);\n}\n";
        let items = parse("crates/glm/src/x.rs", src);
        // `1.0e-3` must not produce a `.` token that looks like a method
        // call; `g` is still seen as a call.
        assert_eq!(items[0].calls.len(), 1);
        assert!(matches!(&items[0].calls[0], Call::Path { segs, .. } if segs == &["g"]));
    }

    #[test]
    fn fn_without_body_has_no_span_growth() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) { helper(); }\n}\n";
        let items = parse("crates/glm/src/x.rs", src);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].end_line, items[0].start_line);
        assert_eq!(items[1].calls.len(), 1);
    }
}
