//! The loop finder: which lines of a file sit inside a loop body of a
//! non-test function.
//!
//! It walks the identifiers and punctuation of the scanner's code channel
//! with a brace-scope stack (fn, loop, test region or plain block). That is
//! enough to answer "is line N inside a loop of fn F, outside test code"
//! without a real parser.

use crate::scanner::{is_ident_char, Line};

/// One loop body of a non-test function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBody {
    /// The enclosing function's name.
    pub fn_name: String,
    /// 1-based line of the loop keyword (a header allocation re-runs per
    /// iteration of any enclosing loop, so the header counts).
    pub start: usize,
    /// 1-based line of the body's closing brace.
    pub end: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Sym(char),
}

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Fn(String),
    Loop(usize),
    /// `impl`/`mod`/`trait` headers: their `for` is not a loop.
    Item,
    Block,
}

/// Identifiers and single-char symbols of the code channel, with 1-based
/// line numbers. Numeric literals are skipped.
fn tokenize(lines: &[Line]) -> Vec<(usize, Tok)> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut chars = line.code.chars().peekable();
        while let Some(c) = chars.next() {
            if is_ident_char(c) {
                let mut word = String::from(c);
                while let Some(&n) = chars.peek().filter(|&&n| is_ident_char(n)) {
                    word.push(n);
                    chars.next();
                }
                if !c.is_ascii_digit() {
                    toks.push((idx + 1, Tok::Ident(word)));
                }
            } else if !c.is_whitespace() {
                toks.push((idx + 1, Tok::Sym(c)));
            }
        }
    }
    toks
}

/// Whether the attribute tokens (after `#[`, up to the matching `]`) gate
/// test code: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, ….
fn is_test_attr(attr: &[Tok]) -> bool {
    let is = |t: &Tok, w: &str| matches!(t, Tok::Ident(i) if i == w);
    match attr.first() {
        Some(first) if is(first, "test") => true,
        Some(first) if is(first, "cfg") => attr.iter().any(|t| is(t, "test")),
        _ => false,
    }
}

/// Every loop body of every non-test function in the file, in the order
/// the loops close.
pub fn find_loops(lines: &[Line]) -> Vec<LoopBody> {
    let toks = tokenize(lines);
    let mut loops = Vec::new();
    // (kind, inside test code) per open brace.
    let mut scopes: Vec<(Kind, bool)> = Vec::new();
    let mut pending: Option<Kind> = None;
    let mut pending_test = false;
    let mut i = 0;
    while i < toks.len() {
        let (line, tok) = &toks[i];
        i += 1;
        match tok {
            Tok::Sym('#') => {
                let inner = toks.get(i).is_some_and(|t| t.1 == Tok::Sym('!'));
                let open = i + usize::from(inner);
                if toks.get(open).is_some_and(|t| t.1 == Tok::Sym('[')) {
                    let mut depth = 0;
                    let mut end = open;
                    for (j, (_, t)) in toks.iter().enumerate().skip(open) {
                        match t {
                            Tok::Sym('[') => depth += 1,
                            Tok::Sym(']') => depth -= 1,
                            _ => {}
                        }
                        end = j;
                        if depth == 0 {
                            break;
                        }
                    }
                    let attr: Vec<Tok> = toks[open + 1..end].iter().map(|t| t.1.clone()).collect();
                    pending_test |= !inner && is_test_attr(&attr);
                    i = end + 1;
                }
            }
            Tok::Ident(word) => match word.as_str() {
                "fn" => {
                    if let Some((_, Tok::Ident(name))) = toks.get(i) {
                        pending = Some(Kind::Fn(name.clone()));
                    }
                }
                // `impl` also appears in a signature (`x: impl Fn()`), where
                // the fn is already pending.
                "impl" | "trait" | "mod" if pending.is_none() => {
                    pending = Some(Kind::Item);
                    pending_test |= word == "mod"
                        && matches!(toks.get(i), Some((_, Tok::Ident(n))) if n == "tests");
                }
                // Only a loop keyword inside an open fn body, and not
                // between an item keyword and its `{` (`impl T for U`, a
                // `for<'a>` bound), starts a loop.
                "for" | "while" | "loop" => {
                    let in_fn = scopes.iter().any(|(k, _)| matches!(k, Kind::Fn(_)));
                    if in_fn && pending.is_none() {
                        pending = Some(Kind::Loop(*line));
                    }
                }
                _ => {}
            },
            Tok::Sym('{') => {
                let test = pending_test || scopes.last().is_some_and(|s| s.1);
                scopes.push((pending.take().unwrap_or(Kind::Block), test));
                pending_test = false;
            }
            Tok::Sym('}') => {
                if let Some((Kind::Loop(start), false)) = scopes.pop() {
                    let owner = scopes.iter().rev().find_map(|(k, _)| match k {
                        Kind::Fn(name) => Some(name.clone()),
                        _ => None,
                    });
                    if let Some(fn_name) = owner {
                        loops.push(LoopBody {
                            fn_name,
                            start,
                            end: *line,
                        });
                    }
                }
            }
            // `mod x;`, a trait's `fn f(…);`, `#[cfg(test)] use …;`: the
            // pending scope never opens.
            Tok::Sym(';') => {
                pending = None;
                pending_test = false;
            }
            Tok::Sym(_) => {}
        }
    }
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn spans(src: &str) -> Vec<(String, usize, usize)> {
        find_loops(&scan(src))
            .into_iter()
            .map(|l| (l.fn_name, l.start, l.end))
            .collect()
    }

    #[test]
    fn loop_bodies_are_ranged_per_fn() {
        let src = "fn f(v: &[u32]) {\n    let mut s = 0;\n    for x in v {\n        s += x;\n    }\n    while s > 0 {\n        s -= 1;\n    }\n}\n";
        assert_eq!(spans(src), vec![("f".into(), 3, 5), ("f".into(), 6, 8)]);
    }

    #[test]
    fn nested_loops_each_get_a_span() {
        let src = "fn g() {\n    loop {\n        for i in 0..3 {\n            h(i);\n        }\n    }\n}\n";
        assert_eq!(spans(src), vec![("g".into(), 3, 5), ("g".into(), 2, 6)]);
    }

    #[test]
    fn impl_trait_for_type_is_not_a_loop() {
        let src = "impl Iterator for S {\n    type Item = u32;\n    fn next(&mut self) -> Option<u32> { None }\n}\n";
        assert!(spans(src).is_empty());
    }

    #[test]
    fn signatures_are_not_loops_or_items() {
        let src = "fn k<F>(f: F) where F: for<'a> Fn(&'a u32) {\n    f(&1);\n}\n";
        assert!(spans(src).is_empty());
        let src = "fn m(xs: impl Iterator<Item = u32>) -> u32 {\n    for x in xs {}\n    0\n}\n";
        assert_eq!(spans(src), vec![("m".into(), 2, 2)]);
    }

    #[test]
    fn test_regions_have_no_loops() {
        let src = "fn lib() {\n    for _ in 0..2 {}\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        for _ in 0..2 {}\n    }\n}\n#[test]\nfn u() {\n    loop {}\n}\n";
        assert_eq!(spans(src), vec![("lib".into(), 2, 2)]);
    }

    #[test]
    fn out_of_line_test_mod_does_not_poison_the_rest() {
        let src = "#[cfg(test)]\nmod tests;\nfn lib() {\n    loop {}\n}\n";
        assert_eq!(spans(src), vec![("lib".into(), 4, 4)]);
    }

    #[test]
    fn non_test_attributes_and_inner_attributes_do_not_gate() {
        let src = "#![cfg_attr(test, allow(dead_code))]\n#[inline]\nfn f() {\n    #[expect(clippy::x, reason = \"test\")]\n    loop {}\n}\n";
        assert_eq!(spans(src), vec![("f".into(), 5, 5)]);
    }

    #[test]
    fn numbers_and_strings_do_not_confuse_the_walk() {
        let src =
            "fn f() {\n    let x = 1.0e-3;\n    let s = \"for {\";\n    while x > 0.0 {}\n}\n";
        assert_eq!(spans(src), vec![("f".into(), 4, 4)]);
    }
}
