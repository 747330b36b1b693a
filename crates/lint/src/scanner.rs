//! A small comment/string-aware source scanner.
//!
//! The analyzer never parses Rust properly — it classifies every character
//! of a source file as *code*, *comment*, or *literal content*, then hands
//! the rules a per-line view where comment text and the inside of
//! string/char literals are blanked out of the code channel (and comment
//! text is preserved separately for waiver parsing). On top of that it
//! tracks `#[cfg(test)]` / `#[test]` / `mod tests` brace regions so rules
//! can skip test code.
//!
//! Handled syntax: line comments (`//`, `///`, `//!`), nested block
//! comments (`/* /* */ */`), string literals with escapes, raw strings
//! (`r"…"`, `r#"…"#`, any hash depth), byte strings, char literals with
//! escapes, and the lifetime-vs-char-literal ambiguity (`'a` vs `'a'`).

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code channel: source text with comments and the interior
    /// of string/char literals replaced by spaces (delimiters kept), so
    /// byte offsets still line up with the original.
    pub code: String,
    /// The line's comment text (contents of `//…` and `/*…*/` segments),
    /// concatenated.
    pub comment: String,
    /// Whether the line sits inside a test region (`#[cfg(test)]` item,
    /// `#[test]` function, or `mod tests { … }`).
    pub in_test: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    ByteStr,
    Char,
}

/// Scans `source` into per-line code/comment channels with test-region
/// flags.
pub fn scan(source: &str) -> Vec<Line> {
    let channels = split_channels(source);
    mark_test_regions(channels)
}

/// First pass: split each line into code and comment channels.
fn split_channels(source: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut state = State::Code;
    for raw in source.split('\n') {
        let raw = raw.strip_suffix('\r').unwrap_or(raw);
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let chars: Vec<char> = raw.chars().collect();
        let mut i = 0;
        // A line comment never survives past its line.
        if state == State::LineComment {
            state = State::Code;
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        code.push_str("  ");
                        i += 2;
                        // Doc-comment sigils are comment punctuation, not text.
                        while chars.get(i) == Some(&'/') || chars.get(i) == Some(&'!') {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' if is_raw_string_start(&chars, i) => {
                        let hashes = count_hashes(&chars, i + 1);
                        state = State::RawStr(hashes);
                        for _ in 0..(2 + hashes as usize) {
                            code.push(' ');
                        }
                        code.pop();
                        code.push('"');
                        i += 2 + hashes as usize;
                    }
                    'b' if next == Some('"') => {
                        state = State::ByteStr;
                        code.push_str("b\"");
                        i += 2;
                    }
                    '\'' if is_char_literal_start(&chars, i) => {
                        state = State::Char;
                        code.push('\'');
                        i += 1;
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::LineComment => {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        if depth == 1 {
                            state = State::Code;
                        } else {
                            state = State::BlockComment(depth - 1);
                        }
                        code.push_str("  ");
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        code.push_str("  ");
                        i += 2;
                    } else {
                        comment.push(c);
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Str | State::ByteStr => match c {
                    '\\' => {
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        state = State::Code;
                        code.push('"');
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw_string(&chars, i, hashes) {
                        state = State::Code;
                        code.push('"');
                        for _ in 0..hashes {
                            code.push(' ');
                        }
                        i += 1 + hashes as usize;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Char => match c {
                    '\\' => {
                        code.push_str("  ");
                        i += 2;
                    }
                    '\'' => {
                        state = State::Code;
                        code.push('\'');
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
            }
        }
        // Multiline string/char states persist; escapes that consumed the
        // (nonexistent) char past end-of-line are harmless.
        lines.push(Line {
            code,
            comment,
            in_test: false,
        });
    }
    lines
}

/// `r"`, `r#"`, `r##"` … at position `i` (where `chars[i] == 'r'`), not part
/// of an identifier like `for` or `r2`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn count_hashes(chars: &[char], mut i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Distinguishes a char literal from a lifetime: `'a'` vs `'a`. A quote
/// starts a char literal when the quoted content is followed by a closing
/// quote (`'x'`, `'\n'`), or when it cannot be a lifetime (`'1'`).
fn is_char_literal_start(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true,
        Some(&c) if is_ident_char(c) => chars.get(i + 2) == Some(&'\''),
        Some(_) => true, // e.g. '(' — lifetimes are identifiers only
        None => false,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Second pass: flag lines inside `#[cfg(test)]` / `#[test]` / `mod tests`
/// brace regions. Works on the code channel only, so attributes or
/// `mod tests` text inside strings and comments cannot start a region.
fn mark_test_regions(mut lines: Vec<Line>) -> Vec<Line> {
    let mut depth: i64 = 0;
    // Brace depths at which a test region opened; a line is test code when
    // this stack is non-empty.
    let mut region_stack: Vec<i64> = Vec::new();
    // Set when a test-ish attribute or `mod tests` header was seen and we
    // are waiting for its opening brace.
    let mut pending = false;
    // Collects attribute text across lines while inside `#[ … ]`.
    let mut attr: Option<String> = None;
    let mut attr_depth: i64 = 0;

    for line in &mut lines {
        line.in_test = !region_stack.is_empty();
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if let Some(text) = attr.as_mut() {
                text.push(c);
                match c {
                    '[' => attr_depth += 1,
                    ']' => {
                        attr_depth -= 1;
                        if attr_depth == 0 {
                            if is_test_attr(text) {
                                pending = true;
                                line.in_test = true;
                            }
                            attr = None;
                        }
                    }
                    _ => {}
                }
                i += 1;
                continue;
            }
            match c {
                '#' if chars.get(i + 1) == Some(&'[') || starts_with_inner_attr(&chars, i) => {
                    // `#![…]` inner attributes never gate items; skip them
                    // so `#![warn(missing_docs)]` cannot trip attr logic.
                    if chars.get(i + 1) == Some(&'!') {
                        i += 1;
                        continue;
                    }
                    attr = Some(String::new());
                    attr_depth = 0;
                    i += 1;
                    continue;
                }
                '{' => {
                    depth += 1;
                    if pending {
                        region_stack.push(depth);
                        pending = false;
                        line.in_test = true;
                    }
                }
                '}' => {
                    if let Some(&open) = region_stack.last() {
                        if depth == open {
                            region_stack.pop();
                        }
                    }
                    depth -= 1;
                }
                ';' => {
                    // `#[cfg(test)] mod tests;` — the region lives in
                    // another file; nothing to mark here.
                    pending = false;
                }
                'm' if word_at(&chars, i, "mod") => {
                    if let Some(name) = ident_after(&chars, i + 3) {
                        if name == "tests" || name.ends_with("_tests") || name.ends_with("_test") {
                            pending = true;
                        }
                    }
                    i += 3;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
    }
    lines
}

fn starts_with_inner_attr(chars: &[char], i: usize) -> bool {
    chars.get(i + 1) == Some(&'!') && chars.get(i + 2) == Some(&'[')
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[cfg_attr(test, …)]`
/// — any attribute whose text contains `test` as a standalone word.
fn is_test_attr(text: &str) -> bool {
    let trimmed = text.trim_start_matches('[');
    let head: String = trimmed.chars().take_while(|c| is_ident_char(*c)).collect();
    if head == "test" {
        return true;
    }
    if head != "cfg" && head != "cfg_attr" {
        return false;
    }
    contains_word(text, "test")
}

/// Whether `needle` appears in `haystack` delimited by non-identifier
/// characters.
pub fn contains_word(haystack: &str, needle: &str) -> bool {
    find_word(haystack, needle, 0).is_some()
}

/// Finds the next word-delimited occurrence of `needle` at or after byte
/// offset `from`.
pub fn find_word(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = haystack.as_bytes();
    let mut start = from;
    while let Some(pos) = haystack.get(start..).and_then(|h| h.find(needle)) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn word_at(chars: &[char], i: usize, word: &str) -> bool {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let w: Vec<char> = word.chars().collect();
    if chars.len() < i + w.len() || chars[i..i + w.len()] != w[..] {
        return false;
    }
    match chars.get(i + w.len()) {
        Some(&c) => !is_ident_char(c),
        None => true,
    }
}

fn ident_after(chars: &[char], mut i: usize) -> Option<String> {
    while chars.get(i).is_some_and(|c| c.is_whitespace()) {
        i += 1;
    }
    let mut name = String::new();
    while chars.get(i).is_some_and(|c| is_ident_char(*c)) {
        name.push(chars[i]);
        i += 1;
    }
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_blanked_but_kept_in_comment_channel() {
        let lines = scan("let x = 1; // HashMap here\n");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(lines[0].comment.contains("HashMap here"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let lines = scan("/// uses .unwrap() freely\nfn f() {}\n");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains(".unwrap()"));
    }

    #[test]
    fn nested_block_comments_blank_until_fully_closed() {
        let src = "a /* outer /* inner */ still comment */ b\n";
        let code = &codes(src)[0];
        assert!(code.contains('a') && code.contains('b'));
        assert!(!code.contains("outer") && !code.contains("inner") && !code.contains("still"));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let got = codes("x /* start\nmiddle HashMap\nend */ y\n");
        assert!(got[0].contains('x'));
        assert!(!got[1].contains("HashMap"));
        assert!(got[2].contains('y'));
    }

    #[test]
    fn string_contents_are_blanked_delimiters_kept() {
        let code = &codes("let s = \"Instant::now() inside\";\n")[0];
        assert!(!code.contains("Instant::now"));
        assert!(code.contains('"'));
        assert!(code.ends_with(';'));
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let code = &codes(r#"let s = "a\"b HashMap"; let t = 1;"#)[0];
        assert!(!code.contains("HashMap"));
        assert!(code.contains("let t = 1;"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let code = &codes(r##"let s = r#"thread_rng() "quoted" more"#; done();"##)[0];
        assert!(!code.contains("thread_rng"));
        assert!(code.contains("done();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let code = &codes("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'x'; g(x) }\n")[0];
        // The lifetime must not open a char literal that eats the rest.
        assert!(code.contains("g(x)"));
        assert!(!code.contains("'x'") || code.contains("' '"));
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        let code = &codes("let q = '\"'; let h = HashMap::new();\n")[0];
        assert!(code.contains("HashMap"));
    }

    #[test]
    fn cfg_test_region_is_tracked_through_braces() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap() }\n}\nfn lib2() {}\n";
        let lines = scan(src);
        assert!(!lines[0].in_test, "lib code before region");
        assert!(lines[3].in_test, "inside cfg(test) mod");
        assert!(!lines[5].in_test, "after the region closes");
    }

    #[test]
    fn mod_tests_without_attr_is_a_test_region() {
        let lines = scan("mod tests {\n    fn t() {}\n}\nfn lib() {}\n");
        assert!(lines[1].in_test);
        assert!(!lines[3].in_test);
    }

    #[test]
    fn test_attr_on_fn_marks_its_body() {
        let lines = scan("#[test]\nfn t() {\n    body();\n}\nfn lib() {}\n");
        assert!(lines[2].in_test);
        assert!(!lines[4].in_test);
    }

    #[test]
    fn cfg_test_out_of_line_mod_does_not_poison_the_rest() {
        let lines = scan("#[cfg(test)]\nmod tests;\nfn lib() {}\n");
        assert!(!lines[2].in_test);
    }

    #[test]
    fn attr_inside_string_does_not_start_a_region() {
        let lines = scan("let s = \"#[cfg(test)]\";\nfn f() { body(); }\n");
        assert!(!lines[1].in_test);
    }

    #[test]
    fn mod_tests_in_comment_does_not_start_a_region() {
        let lines = scan("// mod tests {\nfn f() { body(); }\n");
        assert!(!lines[1].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let lines = scan("#[cfg(not(feature = \"x\"))]\nfn f() {\n    body();\n}\n");
        assert!(!lines[2].in_test);
    }

    #[test]
    fn find_word_respects_boundaries() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("MyHashMap", "HashMap"));
        assert!(!contains_word("HashMapLike", "HashMap"));
        assert_eq!(find_word("a HashMap b HashMap", "HashMap", 3), Some(12));
    }
}
