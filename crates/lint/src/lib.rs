//! mlstar-lint: the one workspace rule that no compiler lint expresses.
//!
//! `hot_loop_alloc` flags an allocation (`Vec::new`, `vec!`, `.to_vec(`,
//! `.clone(`, `.collect(`, `format!`) inside a `for`/`while`/`loop` body
//! of a non-test function in a hot-path module ([`HOT_PATH_MODULES`]).
//! It needs loop context, which no configurable clippy lint has. Every
//! other workspace invariant is held by rustc, by clippy (the root
//! `clippy.toml` and the `#![deny]` block at each library crate root) or
//! by the crate graph; DESIGN.md §9 lists which holds what.
//!
//! Waive a finding with `// lint:allow(hot_loop_alloc): <reason>` at the
//! end of the line, or alone on the line above it. A waiver that is
//! malformed, names another rule or suppresses nothing is a violation
//! itself, so stale waivers cannot accumulate.
//!
//! Run it as `cargo lint`; `tests/lint_gate.rs` at the workspace root runs
//! the same scan on every `cargo test`.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod loops;
mod scanner;
pub mod walk;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use scanner::is_ident_char;

/// The rule's name, in diagnostics and in waivers.
pub const RULE: &str = "hot_loop_alloc";

/// Hot-path modules, as `(crate directory, top-level modules)`. An empty
/// module list means the whole crate.
pub const HOT_PATH_MODULES: &[(&str, &[&str])] = &[
    ("linalg", &[]),
    (
        "glm",
        &["cd", "gradient", "lazy_l1", "lbfgs", "path", "sgd"],
    ),
    ("serve", &["engine"]),
    ("exec", &[]),
];

const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec(",
    ".clone(",
    ".collect(",
    "format!",
];

/// One diagnostic. `rule` is [`RULE`] for an allocation and `"waiver"`
/// for a bad waiver comment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of scanning a whole workspace.
#[derive(Debug)]
pub struct ScanReport {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

/// The crate directory of `rel_path` when the file is library code of a
/// hot-path module.
fn hot_crate(rel_path: &str) -> Option<&str> {
    let (krate, rest) = rel_path.strip_prefix("crates/")?.split_once("/src/")?;
    let module = rest.split('/').next()?.trim_end_matches(".rs");
    let hot = HOT_PATH_MODULES
        .iter()
        .any(|(c, mods)| *c == krate && (mods.is_empty() || mods.contains(&module)));
    (hot && module != "main" && module != "bin").then_some(krate)
}

/// Whether `code` contains `token` with a word boundary before it, so
/// `SparseVec::new` does not match `Vec::new`.
fn contains_alloc_token(code: &str, token: &str) -> bool {
    code.match_indices(token).any(|(pos, _)| {
        !token.starts_with(is_ident_char)
            || code[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !is_ident_char(c) && c != ':')
    })
}

/// Checks the `(rule): reason` tail of a `lint:allow` comment.
fn parse_waiver(tail: &str) -> Result<(), String> {
    let Some((name, after)) = tail
        .trim_start()
        .strip_prefix('(')
        .and_then(|rest| rest.split_once(')'))
    else {
        return Err(format!(
            "malformed waiver: expected `lint:allow({RULE}): <reason>`"
        ));
    };
    let name = name.trim();
    if name != RULE {
        return Err(format!(
            "`{name}` cannot be waived here: `{RULE}` is this analyzer's only rule; \
             a clippy finding takes `#[expect(clippy::…, reason = \"…\")]`"
        ));
    }
    let reason = after.trim_start().strip_prefix(':').map_or("", str::trim);
    if reason.is_empty() {
        return Err(format!(
            "waiver has no reason: write `lint:allow({RULE}): <why this is safe>`"
        ));
    }
    Ok(())
}

/// Runs the rule and the waiver check over one file. `rel_path` decides
/// whether the file is a hot-path module; waivers are checked everywhere.
pub fn check_file(rel_path: &str, source: &str) -> Vec<Violation> {
    let lines = scanner::scan(source);
    let violation = |line, rule, message| Violation {
        file: rel_path.to_string(),
        line,
        rule,
        message,
    };
    let mut out = Vec::new();

    // (comment line, target line, used)
    let mut waivers: Vec<(usize, usize, bool)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(tail) = line.comment.trim_start().strip_prefix("lint:allow") else {
            continue;
        };
        match parse_waiver(tail) {
            Err(message) => out.push(violation(idx + 1, "waiver", message)),
            Ok(()) => {
                // A trailing waiver covers its own line; a waiver alone on
                // its line covers the next line with code.
                let target = lines
                    .iter()
                    .enumerate()
                    .skip(idx)
                    .find(|(_, l)| !l.code.trim().is_empty())
                    .map_or(idx, |(j, _)| j);
                waivers.push((idx + 1, target + 1, false));
            }
        }
    }

    if let Some(krate) = hot_crate(rel_path) {
        // One finding per line, however many loops nest around it.
        let mut found: BTreeMap<usize, String> = BTreeMap::new();
        for body in loops::find_loops(&lines) {
            for (idx, line) in lines.iter().enumerate().take(body.end).skip(body.start - 1) {
                if let Some(token) = ALLOC_TOKENS
                    .iter()
                    .find(|t| contains_alloc_token(&line.code, t))
                {
                    found.entry(idx + 1).or_insert_with(|| {
                        format!(
                            "`{token}` allocates inside a loop in hot-path fn `{krate}::{}`: hoist the buffer out of the loop or reuse scratch space",
                            body.fn_name
                        )
                    });
                }
            }
        }
        for (line, message) in found {
            match waivers.iter_mut().find(|w| w.1 == line) {
                Some(w) => w.2 = true,
                None => out.push(violation(line, RULE, message)),
            }
        }
    }

    for (line, _, used) in waivers {
        if !used {
            let message = "waiver suppresses nothing; remove the stale comment".to_string();
            out.push(violation(line, "waiver", message));
        }
    }
    out.sort();
    out
}

/// Scans every policed `.rs` file under `root`; violations come sorted by
/// file, then line.
pub fn scan_workspace(root: &Path) -> io::Result<ScanReport> {
    let files = walk::rust_sources(root)?;
    let mut violations = Vec::new();
    for rel in &files {
        violations.extend(check_file(rel, &fs::read_to_string(root.join(rel))?));
    }
    Ok(ScanReport {
        violations,
        files_scanned: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(path: &str, src: &str) -> Vec<&'static str> {
        check_file(path, src).into_iter().map(|v| v.rule).collect()
    }

    const KERNEL: &str = "pub fn kernel(rows: &[Vec<f64>]) -> f64 {\n    let mut acc = 0.0;\n    for r in rows {\n        let copy = r.to_vec();\n        acc += copy.len() as f64;\n    }\n    acc\n}\n";

    #[test]
    fn fires_in_hot_modules_only() {
        for hot in [
            "crates/linalg/src/ops.rs",
            "crates/glm/src/sgd.rs",
            "crates/exec/src/lib.rs",
            "crates/serve/src/engine.rs",
        ] {
            assert_eq!(rules(hot, KERNEL), vec![RULE], "{hot}");
        }
        for cold in [
            "crates/glm/src/metrics.rs",
            "crates/core/src/exec.rs",
            "crates/data/src/x.rs",
            "crates/linalg/tests/t.rs",
            "crates/linalg/src/bin/b.rs",
            "src/lib.rs",
        ] {
            assert!(rules(cold, KERNEL).is_empty(), "{cold}");
        }
    }

    #[test]
    fn diagnostics_carry_line_and_function() {
        let v = check_file("crates/linalg/src/ops.rs", KERNEL);
        assert_eq!(v[0].line, 4);
        assert_eq!(
            v[0].to_string(),
            "crates/linalg/src/ops.rs:4: [hot_loop_alloc] `.to_vec(` allocates inside a loop in hot-path fn `linalg::kernel`: hoist the buffer out of the loop or reuse scratch space"
        );
    }

    #[test]
    fn every_alloc_token_fires_and_lookalikes_do_not() {
        for stmt in [
            "let v: Vec<u8> = Vec::new();",
            "let v = vec![0u8; 4];",
            "let v = s.to_vec();",
            "let v = s.clone();",
            "let v: Vec<u8> = s.iter().copied().collect();",
            "let v = format!(\"{x}\");",
        ] {
            let src = format!("fn f() {{\n    loop {{\n        {stmt}\n    }}\n}}\n");
            assert_eq!(rules("crates/linalg/src/x.rs", &src), vec![RULE], "{stmt}");
        }
        for stmt in [
            "let v = SparseVec::new();",
            "let v = myvec![1];",
            "s.clone_from(&t);",
        ] {
            let src = format!("fn f() {{\n    loop {{\n        {stmt}\n    }}\n}}\n");
            assert!(rules("crates/linalg/src/x.rs", &src).is_empty(), "{stmt}");
        }
    }

    #[test]
    fn hoisted_allocation_and_test_code_are_fine() {
        let hoisted = "pub fn kernel(rows: &[Vec<f64>]) -> f64 {\n    let mut scratch = Vec::new();\n    for r in rows {\n        scratch.extend_from_slice(r);\n    }\n    scratch.len() as f64\n}\n";
        assert!(rules("crates/linalg/src/ops.rs", hoisted).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{KERNEL}}}\n");
        assert!(rules("crates/linalg/src/ops.rs", &in_tests).is_empty());
    }

    #[test]
    fn waivers_suppress_own_line_or_next_code_line() {
        let trailing = KERNEL.replace(
            "r.to_vec();",
            "r.to_vec(); // lint:allow(hot_loop_alloc): the copy is the output",
        );
        assert!(rules("crates/linalg/src/ops.rs", &trailing).is_empty());
        let above = KERNEL.replace(
            "        let copy",
            "        // lint:allow(hot_loop_alloc): the copy is the output\n\n        let copy",
        );
        assert!(rules("crates/linalg/src/ops.rs", &above).is_empty());
    }

    #[test]
    fn bad_waivers_are_violations() {
        let stale = "// lint:allow(hot_loop_alloc): nothing allocates here\npub fn f() {}\n";
        let unknown = "// lint:allow(panic_in_lib): a deleted rule\npub fn f() {}\n";
        let no_reason = "// lint:allow(hot_loop_alloc):\npub fn f() {}\n";
        let malformed = "// lint:allow hot_loop_alloc\npub fn f() {}\n";
        for src in [stale, unknown, no_reason, malformed] {
            assert_eq!(rules("crates/data/src/x.rs", src), vec!["waiver"], "{src}");
        }
        // A malformed waiver does not suppress the finding it sits on.
        let bad = KERNEL.replace("r.to_vec();", "r.to_vec(); // lint:allow(hot_loop_alloc):");
        assert_eq!(
            rules("crates/linalg/src/ops.rs", &bad),
            vec![RULE, "waiver"]
        );
    }

    #[test]
    fn prose_mentioning_waiver_syntax_is_not_a_waiver() {
        let src = "/// Waive with `// lint:allow(panic_in_lib): reason`.\npub fn f() {}\n";
        assert!(rules("crates/data/src/x.rs", src).is_empty());
    }
}
