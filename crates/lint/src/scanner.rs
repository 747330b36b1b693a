//! A comment/string-aware source scanner.
//!
//! The analyzer never parses Rust properly. It classifies every character
//! of a source file as *code*, *comment* or *literal content*, and hands
//! the rule a per-line view: comment text and the inside of string/char
//! literals are blanked out of the code channel, and comment text is kept
//! separately for waiver parsing.
//!
//! Handled syntax: line comments (`//`, `///`, `//!`), nested block
//! comments (`/* /* */ */`), string literals with escapes, raw strings
//! (`r"…"`, `r#"…"#`, any hash depth), byte strings, char literals with
//! escapes, and the lifetime-vs-char-literal ambiguity (`'a` vs `'a'`).

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line's code channel: source text with comments and the interior
    /// of string/char literals replaced by spaces (delimiters kept).
    pub code: String,
    /// The line's comment text (contents of `//…` and `/*…*/` segments),
    /// concatenated.
    pub comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

/// Splits `source` into per-line code and comment channels.
pub fn scan(source: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut state = State::Code;
    for raw in source.split('\n') {
        let chars: Vec<char> = raw.strip_suffix('\r').unwrap_or(raw).chars().collect();
        let mut code = String::with_capacity(chars.len());
        let mut comment = String::new();
        // A line comment never survives past its line; multiline string
        // and block-comment states do.
        if state == State::LineComment {
            state = State::Code;
        }
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            // How many source chars this step consumes; code gets `width`
            // spaces unless the arm pushed something itself.
            let mut width = 1;
            let mut keep = None;
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        width = 2;
                        // Doc-comment sigils are punctuation, not text.
                        while matches!(chars.get(i + width), Some('/' | '!')) {
                            width += 1;
                        }
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        width = 2;
                    }
                    '"' => {
                        state = State::Str;
                        keep = Some('"');
                    }
                    'b' if next == Some('"') => {
                        state = State::Str;
                        code.push('b');
                        keep = Some('"');
                        width = 2;
                    }
                    'r' if is_raw_string_start(&chars, i) => {
                        let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
                        state = State::RawStr(hashes);
                        keep = Some('"');
                        width = 2 + hashes;
                    }
                    '\'' if is_char_literal_start(&chars, i) => {
                        state = State::Char;
                        keep = Some('\'');
                    }
                    _ => keep = Some(c),
                },
                State::LineComment => comment.push(c),
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = match depth {
                            1 => State::Code,
                            _ => State::BlockComment(depth - 1),
                        };
                        width = 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        width = 2;
                    } else {
                        comment.push(c);
                    }
                }
                State::Str | State::Char => {
                    let close = if state == State::Str { '"' } else { '\'' };
                    if c == '\\' {
                        width = 2;
                    } else if c == close {
                        state = State::Code;
                        keep = Some(close);
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                        state = State::Code;
                        keep = Some('"');
                        width = 1 + hashes;
                    }
                }
            }
            match keep {
                Some(k) => {
                    code.push(k);
                    code.extend(std::iter::repeat_n(' ', width - 1));
                }
                None => code.extend(std::iter::repeat_n(' ', width)),
            }
            i += width;
        }
        lines.push(Line { code, comment });
    }
    lines
}

/// `r"`, `r#"`, `r##"` … at position `i` (where `chars[i] == 'r'`), not part
/// of an identifier like `for` or `r2`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 && is_ident_char(chars[i - 1]) {
        return false;
    }
    let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
    chars.get(i + 1 + hashes) == Some(&'"')
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

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_blanked_but_kept_in_comment_channel() {
        let lines = scan("let x = 1; // Vec::new() here\n");
        assert!(!lines[0].code.contains("Vec::new"));
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(lines[0].comment.contains("Vec::new() here"));
    }

    #[test]
    fn doc_comments_are_comments() {
        let lines = scan("/// uses .clone() freely\nfn f() {}\n");
        assert!(!lines[0].code.contains("clone"));
        assert_eq!(lines[0].comment.trim(), "uses .clone() freely");
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
        let got = codes("x /* start\nmiddle vec![]\nend */ y\n");
        assert!(got[0].contains('x'));
        assert!(!got[1].contains("vec!"));
        assert!(got[2].contains('y'));
    }

    #[test]
    fn string_contents_are_blanked_delimiters_kept() {
        let code = &codes("let s = \"format!() inside\";\n")[0];
        assert!(!code.contains("format!"));
        assert!(code.contains('"'));
        assert!(code.ends_with(';'));
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        let code = &codes(r#"let s = "a\"b .to_vec("; let t = 1;"#)[0];
        assert!(!code.contains("to_vec"));
        assert!(code.contains("let t = 1;"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let code = &codes(r##"let s = r#".clone() "quoted" more"#; done();"##)[0];
        assert!(!code.contains("clone"));
        assert!(code.contains("done();"));
        let code = &codes("let b = b\"vec![]\"; after();")[0];
        assert!(!code.contains("vec!"));
        assert!(code.contains("after();"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let code = &codes("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'x'; g(x) }\n")[0];
        // The lifetime must not open a char literal that eats the rest.
        assert!(code.contains("g(x)"));
        assert!(code.contains("<'a>"));
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        let code = &codes("let q = '\"'; let h = Vec::new();\n")[0];
        assert!(code.contains("Vec::new"));
    }
}
