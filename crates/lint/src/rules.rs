//! The rule set and the per-file / per-workspace rule passes.
//!
//! Every rule operates on the scanner's blanked code channel, so tokens
//! inside strings, chars, and comments never fire. Item-aware rules
//! (taint, hot-loop allocation, RNG placement) additionally consult the
//! parsed function items and the workspace call graph. Waivers are
//! ordinary comments of the form:
//!
//! ```text
//! // lint:allow(<rule>): <reason>
//! ```
//!
//! A waiver suppresses `<rule>` on its own line; a waiver that is the only
//! thing on its line suppresses the next line with code instead. Waivers
//! must name a real rule and carry a non-empty reason, and every waiver
//! must actually suppress something — otherwise the waiver itself is a
//! violation (`invalid_waiver`), so stale waivers cannot accumulate.

use crate::context::{FileContext, FileRole};
use crate::scanner::{self, Line};
use crate::FileUnit;

/// Identifier for one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// A nondeterminism source (default-hasher collection, wall clock,
    /// env read, OS thread identity) in — or transitively reachable
    /// from — sim-critical code. Diagnostics carry the call path from
    /// the nearest sim-critical public API to the sink.
    DeterminismTaint,
    /// `thread_rng` / `rand::random` / `from_entropy` outside the bench
    /// crate — all simulation randomness must flow through `SeedStream`.
    AmbientRand,
    /// Raw `thread::spawn` / `thread::scope` outside the allowlisted
    /// host-parallelism modules.
    ThreadSpawn,
    /// Allocation (`Vec::new`, `vec!`, `.to_vec(`, `.clone(`, `.collect(`,
    /// `format!`) inside a `for`/`while`/`loop` body in a designated
    /// hot-path module.
    HotLoopAlloc,
    /// A private FNV-1a implementation outside `mlstar-codec`.
    DuplicateHashImpl,
    /// `.unwrap()` / `.expect(` in non-test library code without a waiver.
    PanicInLib,
    /// Bare `==` / `!=` against float literals or float constants in
    /// non-test code.
    FloatEq,
    /// `print!` / `println!` in library code (binaries own stdout; the
    /// bench crate's reporting harness is exempt).
    PrintInLib,
    /// A waiver comment that is malformed, names an unknown rule, or
    /// suppresses nothing.
    InvalidWaiver,
    /// A `SeedStream`/`ChaCha`/`StdRng` sampling site reachable from a
    /// worker-side entry point (`net::worker` public fns or a
    /// `ComputeBackend::run_ops` impl) — all RNG must stay on the
    /// orchestrator. Diagnostics carry the call chain.
    RngPlacement,
}

impl RuleId {
    pub const ALL: &'static [RuleId] = &[
        RuleId::DeterminismTaint,
        RuleId::AmbientRand,
        RuleId::ThreadSpawn,
        RuleId::HotLoopAlloc,
        RuleId::DuplicateHashImpl,
        RuleId::PanicInLib,
        RuleId::FloatEq,
        RuleId::PrintInLib,
        RuleId::InvalidWaiver,
        RuleId::RngPlacement,
    ];

    /// The name used in diagnostics and in `lint:allow(<name>)` waivers.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::DeterminismTaint => "determinism_taint",
            RuleId::AmbientRand => "ambient_rand",
            RuleId::ThreadSpawn => "thread_spawn",
            RuleId::HotLoopAlloc => "hot_loop_alloc",
            RuleId::DuplicateHashImpl => "duplicate_hash_impl",
            RuleId::PanicInLib => "panic_in_lib",
            RuleId::FloatEq => "float_eq",
            RuleId::PrintInLib => "print_in_lib",
            RuleId::InvalidWaiver => "invalid_waiver",
            RuleId::RngPlacement => "rng_placement",
        }
    }

    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description used by `--list-rules` and the generated
    /// DESIGN.md §9 rule table — the single source of truth for what each
    /// rule means.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::DeterminismTaint => {
                "nondeterminism sink (HashMap/clock/env/thread-id) in or reachable from sim-critical APIs, with call path"
            }
            RuleId::AmbientRand => "thread_rng/rand::random/from_entropy outside crates/bench",
            RuleId::ThreadSpawn => "thread::spawn/scope outside allowlisted host-parallelism modules",
            RuleId::HotLoopAlloc => "allocation inside a loop body in a hot-path module",
            RuleId::DuplicateHashImpl => "private FNV-1a implementation outside mlstar-codec",
            RuleId::PanicInLib => ".unwrap()/.expect( in non-test library code (waivable)",
            RuleId::FloatEq => "bare ==/!= against float literals/constants outside tests",
            RuleId::PrintInLib => "print!/println! in library code outside crates/bench",
            RuleId::InvalidWaiver => "malformed, unknown, or stale lint:allow waiver",
            RuleId::RngPlacement => {
                "SeedStream/ChaCha/StdRng sampling reachable from worker-side code, with call chain"
            }
        }
    }

    /// Where the rule applies, for the generated DESIGN.md §9 table.
    pub fn scope(self) -> &'static str {
        match self {
            RuleId::DeterminismTaint => {
                "sim-critical lib/bin code, plus anything its public APIs reach"
            }
            RuleId::AmbientRand => "everywhere except crates/bench",
            RuleId::ThreadSpawn => "lib/bin code outside `core::exec`, `serve::engine`, `net::pool`",
            RuleId::HotLoopAlloc => {
                "loop bodies in `linalg`, `glm::{cd, gradient, lazy_l1, lbfgs, optimizer, path, sgd}`, `serve::engine`, `core::exec`"
            }
            RuleId::DuplicateHashImpl => "every crate except `codec`",
            RuleId::PanicInLib => "non-test library code",
            RuleId::FloatEq => "non-test lib/bin code",
            RuleId::PrintInLib => "library code except crates/bench",
            RuleId::InvalidWaiver => "waiver comments",
            RuleId::RngPlacement => {
                "functions reachable from `net::worker` pub fns or `run_ops` impls"
            }
        }
    }
}

/// Renders the DESIGN.md §9 rule table from the registry, so the docs
/// cannot drift from the rule set (`tests/docs_sync.rs` pins the match).
pub fn design_rule_table() -> String {
    let mut out = String::from("| Rule | Scope | Enforces |\n|---|---|---|\n");
    for rule in RuleId::ALL {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            rule.name(),
            rule.scope(),
            rule.summary()
        ));
    }
    out
}

/// One diagnostic: a rule fired at a file:line. `path` carries the call
/// chain for path-aware rules (`determinism_taint`), rendered as
/// `crate::fn` display names ending with the sink token; it is empty for
/// purely line-level findings.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: RuleId,
    pub message: String,
    pub path: Vec<String>,
}

#[derive(Debug)]
pub(crate) struct Waiver {
    /// 1-based line the waiver comment sits on.
    pub(crate) comment_line: usize,
    /// 1-based line the waiver suppresses.
    pub(crate) target_line: usize,
    pub(crate) rule: RuleId,
    pub(crate) used: bool,
}

/// Pushes a violation for `unit` unless a waiver covers it (marking the
/// waiver used either way, so it does not read as stale).
pub(crate) fn push(
    unit: &mut FileUnit,
    out: &mut Vec<Violation>,
    lineno: usize,
    rule: RuleId,
    message: String,
    path: Vec<String>,
) {
    if let Some(w) = unit
        .waivers
        .iter_mut()
        .find(|w| w.target_line == lineno && w.rule == rule)
    {
        w.used = true;
        return;
    }
    out.push(Violation {
        file: unit.ctx.rel_path.clone(),
        line: lineno,
        rule,
        message,
        path,
    });
}

/// Parses `lint:allow(rule): reason` waivers out of the comment channel.
/// Returns the usable waivers plus violations for malformed ones.
pub(crate) fn collect_waivers(ctx: &FileContext, lines: &[Line]) -> (Vec<Waiver>, Vec<Violation>) {
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        // A waiver must be the whole comment (`// lint:allow(...): ...`);
        // prose that merely mentions the syntax mid-sentence is not parsed.
        let trimmed = line.comment.trim_start();
        let Some(tail) = trimmed.strip_prefix("lint:allow") else {
            continue;
        };
        let parsed = parse_waiver_tail(tail);
        match parsed {
            Ok(rule) => {
                // A comment-only line waives the next line that has code;
                // a trailing comment waives its own line.
                let own_line_has_code = !line.code.trim().is_empty();
                let target_line = if own_line_has_code {
                    lineno
                } else {
                    lines
                        .iter()
                        .enumerate()
                        .skip(idx + 1)
                        .find(|(_, l)| !l.code.trim().is_empty())
                        .map(|(j, _)| j + 1)
                        .unwrap_or(lineno)
                };
                waivers.push(Waiver {
                    comment_line: lineno,
                    target_line,
                    rule,
                    used: false,
                });
            }
            Err(why) => bad.push(Violation {
                file: ctx.rel_path.clone(),
                line: lineno,
                rule: RuleId::InvalidWaiver,
                message: why,
                path: Vec::new(),
            }),
        }
    }
    (waivers, bad)
}

/// Parses the `(rule): reason` tail of a waiver comment.
fn parse_waiver_tail(tail: &str) -> Result<RuleId, String> {
    let tail = tail.trim_start();
    let Some(rest) = tail.strip_prefix('(') else {
        return Err("malformed waiver: expected `lint:allow(<rule>): <reason>`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("malformed waiver: missing `)` after rule name".to_string());
    };
    let name = rest[..close].trim();
    let Some(rule) = RuleId::from_name(name) else {
        let known: Vec<&str> = RuleId::ALL.iter().map(|r| r.name()).collect();
        return Err(format!(
            "unknown rule `{name}` in waiver (known: {})",
            known.join(", ")
        ));
    };
    if rule == RuleId::InvalidWaiver {
        return Err(format!("rule `{name}` cannot be waived"));
    }
    let after = &rest[close + 1..];
    let reason = after
        .trim_start()
        .strip_prefix(':')
        .map(str::trim)
        .unwrap_or("");
    if reason.is_empty() {
        return Err(
            "waiver has no reason: write `lint:allow(<rule>): <why this is safe>`".to_string(),
        );
    }
    Ok(rule)
}

// ---------------------------------------------------------------------------
// Per-file line-level passes
// ---------------------------------------------------------------------------

pub(crate) fn pass_ambient_rand(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    for unit in units.iter_mut() {
        if unit.ctx.is_timing_crate() {
            continue;
        }
        for idx in 0..unit.lines.len() {
            let lineno = idx + 1;
            if unit.lines[idx].in_test {
                continue;
            }
            let code = unit.lines[idx].code.clone();
            for token in ["thread_rng", "from_entropy"] {
                if scanner::contains_word(&code, token) {
                    push(
                        unit,
                        out,
                        lineno,
                        RuleId::AmbientRand,
                        format!(
                            "`{token}` draws OS entropy: all randomness must flow through SeedStream"
                        ),
                        Vec::new(),
                    );
                }
            }
            if code.contains("rand::random") {
                push(
                    unit,
                    out,
                    lineno,
                    RuleId::AmbientRand,
                    "`rand::random` draws OS entropy: all randomness must flow through SeedStream"
                        .to_string(),
                    Vec::new(),
                );
            }
        }
    }
}

/// Modules allowed to touch raw threads: the host-parallelism shims
/// whose merge order is proven deterministic (fixed shard partitioning,
/// ordered joins) and the net backend's scoped worker pool (rank-ordered
/// spawn, join-all-before-return).
pub const THREAD_ALLOWLIST: &[(&str, &str)] =
    &[("core", "exec"), ("net", "pool"), ("serve", "engine")];

pub(crate) fn pass_thread_spawn(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    for unit in units.iter_mut() {
        if unit.ctx.is_timing_crate() || !matches!(unit.ctx.role, FileRole::Lib | FileRole::Bin) {
            continue;
        }
        let module = file_module(&unit.ctx);
        if THREAD_ALLOWLIST
            .iter()
            .any(|(c, m)| *c == unit.ctx.crate_name && *m == module)
        {
            continue;
        }
        for idx in 0..unit.lines.len() {
            let lineno = idx + 1;
            if unit.lines[idx].in_test {
                continue;
            }
            let code = unit.lines[idx].code.clone();
            for token in ["thread::spawn", "thread::scope"] {
                if code.contains(token) {
                    push(
                        unit,
                        out,
                        lineno,
                        RuleId::ThreadSpawn,
                        format!(
                            "`{token}` outside the allowlisted modules (core::exec, net::pool, serve::engine): raw threads bypass the deterministic merge order"
                        ),
                        Vec::new(),
                    );
                }
            }
        }
    }
}

/// Hot-path modules policed for per-iteration allocation. An empty module
/// list means the whole crate.
pub const HOT_PATH_MODULES: &[(&str, &[&str])] = &[
    ("linalg", &[]),
    (
        "glm",
        &[
            "cd",
            "gradient",
            "lazy_l1",
            "lbfgs",
            "optimizer",
            "path",
            "sgd",
        ],
    ),
    ("serve", &["engine"]),
    ("core", &["exec"]),
];

pub(crate) fn pass_hot_loop_alloc(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    for unit in units.iter_mut() {
        if unit.ctx.role != FileRole::Lib {
            continue;
        }
        let module = file_module(&unit.ctx);
        let hot = HOT_PATH_MODULES.iter().any(|(c, mods)| {
            *c == unit.ctx.crate_name && (mods.is_empty() || mods.contains(&module.as_str()))
        });
        if !hot {
            continue;
        }
        let items = unit.items.clone();
        for item in &items {
            if item.in_test {
                continue;
            }
            for &(start, end) in &item.loop_ranges {
                for lineno in start..=end {
                    let Some(line) = unit.lines.get(lineno - 1) else {
                        continue;
                    };
                    if line.in_test {
                        continue;
                    }
                    let code = line.code.clone();
                    for token in ["Vec::new", ".to_vec(", ".clone(", ".collect(", "format!"] {
                        if contains_alloc_token(&code, token) {
                            push(
                                unit,
                                out,
                                lineno,
                                RuleId::HotLoopAlloc,
                                format!(
                                    "`{token}` allocates inside a loop in hot-path fn `{}`: hoist the buffer out of the loop or reuse scratch space",
                                    item.display()
                                ),
                                Vec::new(),
                            );
                        }
                    }
                    if let Some(pos) = scanner::find_word(&code, "vec", 0) {
                        if code[pos + 3..].starts_with('!') {
                            push(
                                unit,
                                out,
                                lineno,
                                RuleId::HotLoopAlloc,
                                format!(
                                    "`vec!` allocates inside a loop in hot-path fn `{}`: hoist the buffer out of the loop or reuse scratch space",
                                    item.display()
                                ),
                                Vec::new(),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Substring match with a word boundary before the token's first
/// identifier character, so `SparseVec::new` does not match `Vec::new`.
fn contains_alloc_token(code: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = code[from..].find(token) {
        let pos = from + rel;
        let starts_ident = token
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if !starts_ident {
            return true;
        }
        let boundary = pos == 0
            || code[..pos]
                .chars()
                .next_back()
                .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_' && c != ':');
        if boundary {
            return true;
        }
        from = pos + token.len();
    }
    false
}

pub(crate) fn pass_duplicate_hash_impl(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    for unit in units.iter_mut() {
        if unit.ctx.crate_name == "codec" {
            continue;
        }
        for idx in 0..unit.lines.len() {
            let lineno = idx + 1;
            if unit.lines[idx].in_test {
                continue;
            }
            let code = unit.lines[idx].code.clone();
            let fn_impl = scanner::find_word(&code, "fnv1a", 0)
                .is_some_and(|pos| code[..pos].trim_end().ends_with("fn"));
            let compact: String = code
                .chars()
                .filter(|c| !c.is_whitespace() && *c != '_')
                .collect::<String>()
                .to_ascii_lowercase();
            let offset_const = compact.contains("0xcbf29ce484222325");
            if fn_impl || offset_const {
                push(
                    unit,
                    out,
                    lineno,
                    RuleId::DuplicateHashImpl,
                    "FNV-1a implementation outside mlstar-codec: use `mlstar_codec::fnv1a` / `mlstar_codec::Fnv1a` so every fingerprint shares one audited hash"
                        .to_string(),
                    Vec::new(),
                );
            }
        }
    }
}

pub(crate) fn pass_panic_in_lib(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    for unit in units.iter_mut() {
        if unit.ctx.role != FileRole::Lib {
            continue;
        }
        for idx in 0..unit.lines.len() {
            let lineno = idx + 1;
            if unit.lines[idx].in_test {
                continue;
            }
            let compact: String = unit.lines[idx]
                .code
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect();
            if compact.contains(".unwrap()") {
                push(
                    unit,
                    out,
                    lineno,
                    RuleId::PanicInLib,
                    "`.unwrap()` in library code: propagate an error or waive with `// lint:allow(panic_in_lib): <reason>`".to_string(),
                    Vec::new(),
                );
            }
            if compact.contains(".expect(") {
                push(
                    unit,
                    out,
                    lineno,
                    RuleId::PanicInLib,
                    "`.expect(` in library code: propagate an error or waive with `// lint:allow(panic_in_lib): <reason>`".to_string(),
                    Vec::new(),
                );
            }
        }
    }
}

pub(crate) fn pass_float_eq(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    for unit in units.iter_mut() {
        if !matches!(unit.ctx.role, FileRole::Lib | FileRole::Bin) {
            continue;
        }
        for idx in 0..unit.lines.len() {
            let lineno = idx + 1;
            if unit.lines[idx].in_test {
                continue;
            }
            let code = unit.lines[idx].code.clone();
            let bytes = code.as_bytes();
            let mut i = 0;
            while i + 1 < bytes.len() {
                let two = &bytes[i..i + 2];
                let is_eq = two == b"==";
                let is_ne = two == b"!=";
                if !(is_eq || is_ne) {
                    i += 1;
                    continue;
                }
                // Skip `<=`, `>=`, `===`-ish runs.
                let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                let next = bytes.get(i + 2).copied().unwrap_or(b' ');
                if is_eq
                    && (prev == b'='
                        || prev == b'<'
                        || prev == b'>'
                        || prev == b'!'
                        || next == b'=')
                {
                    i += 2;
                    continue;
                }
                if is_ne && next == b'=' {
                    i += 2;
                    continue;
                }
                let left = &code[..i];
                let right = &code[i + 2..];
                if operand_is_floaty(left, true) || operand_is_floaty(right, false) {
                    let op = if is_eq { "==" } else { "!=" };
                    push(
                        unit,
                        out,
                        lineno,
                        RuleId::FloatEq,
                        format!(
                            "bare `{op}` against a float: compare with an epsilon or total ordering"
                        ),
                        Vec::new(),
                    );
                }
                i += 2;
            }
        }
    }
}

/// Heuristic float detection on one side of a comparison operator. Only
/// literal-ish operands fire (float literals, `f64::`/`f32::` constants,
/// `as f64` casts): the analyzer has no type information, so it flags the
/// comparisons it can prove rather than guessing at variables.
fn operand_is_floaty(text: &str, is_left: bool) -> bool {
    let token: String = if is_left {
        let t: String = text
            .trim_end()
            .chars()
            .rev()
            .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':'))
            .collect();
        t.chars().rev().collect()
    } else {
        let trimmed = text.trim_start();
        let trimmed = trimmed.strip_prefix('-').unwrap_or(trimmed).trim_start();
        trimmed
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':'))
            .collect()
    };
    if token.is_empty() {
        return false;
    }
    if token.starts_with("f64::") || token.starts_with("f32::") {
        return true;
    }
    if token.ends_with("f64") || token.ends_with("f32") {
        // `1.0f64`, `0f32` literal suffixes (and `x as f64` loses the cast
        // during token collection, leaving just `f64` — also floaty).
        if token == "f64" || token == "f32" {
            return true;
        }
        if token.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return true;
        }
    }
    is_float_literal(&token)
}

/// `1.0`, `0.5`, `3.` — digits, one dot, optional digits; rejects ranges
/// (`0..1`), tuple-field access (`x.0` never reaches here with a leading
/// digit), and plain integers.
fn is_float_literal(token: &str) -> bool {
    let mut seen_digit = false;
    let mut seen_dot = false;
    for c in token.chars() {
        match c {
            '0'..='9' => seen_digit = true,
            '_' => {}
            '.' => {
                if seen_dot || !seen_digit {
                    return false;
                }
                seen_dot = true;
            }
            'e' | 'E' | '+' | '-' => {
                // Exponent forms like 1e-3 count as floats if a dot or the
                // exponent marker follows digits.
                return seen_digit && token.contains(['e', 'E']);
            }
            _ => return false,
        }
    }
    seen_digit && seen_dot
}

pub(crate) fn pass_print_in_lib(units: &mut [FileUnit], out: &mut Vec<Violation>) {
    for unit in units.iter_mut() {
        if unit.ctx.role != FileRole::Lib || unit.ctx.is_timing_crate() {
            continue;
        }
        for idx in 0..unit.lines.len() {
            let lineno = idx + 1;
            if unit.lines[idx].in_test {
                continue;
            }
            let code = unit.lines[idx].code.clone();
            for token in ["println!", "print!"] {
                if scanner::find_word(&code, token, 0).is_some() {
                    push(
                        unit,
                        out,
                        lineno,
                        RuleId::PrintInLib,
                        format!(
                            "`{token}` in library code: stdout belongs to binaries; use a return value or eprintln! for diagnostics"
                        ),
                        Vec::new(),
                    );
                    break;
                }
            }
        }
    }
}

/// The top-level file module of a path: `crates/core/src/exec.rs` →
/// `exec`, `crates/glm/src/sgd.rs` → `sgd`, `src/lib.rs` → `lib`.
pub(crate) fn file_module(ctx: &FileContext) -> String {
    let rest = ctx
        .rel_path
        .strip_prefix("crates/")
        .and_then(|t| t.split_once('/').map(|x| x.1))
        .unwrap_or(&ctx.rel_path);
    let in_src = rest.strip_prefix("src/").unwrap_or(rest);
    in_src
        .trim_end_matches(".rs")
        .split('/')
        .next()
        .unwrap_or("")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_file;
    use crate::context::classify;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(&classify(path).expect("classifiable path"), src)
    }

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        check(path, src)
            .into_iter()
            .map(|v| v.rule.name())
            .collect()
    }

    #[test]
    fn hashmap_fires_only_in_sim_critical_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            rules_fired("crates/cluster/src/x.rs", src),
            vec!["determinism_taint"]
        );
        // `data` and `linalg` feed the simulation too, so they are held to
        // the same determinism bar.
        assert_eq!(
            rules_fired("crates/data/src/x.rs", src),
            vec!["determinism_taint"]
        );
        // Non-sim-critical crates only fire when the use is reachable from
        // a sim-critical public API, which a lone `use` never is.
        assert_eq!(
            rules_fired("crates/bench/src/x.rs", src),
            Vec::<&str>::new()
        );
        assert_eq!(rules_fired("src/lib.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn hashmap_in_test_region_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(rules_fired("crates/glm/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_fires_outside_bench() {
        let src = "fn t() -> std::time::Instant { std::time::Instant::now() }\n";
        assert_eq!(
            rules_fired("crates/core/src/x.rs", src),
            vec!["determinism_taint"]
        );
        assert_eq!(
            rules_fired("crates/lint/src/x.rs", src),
            vec!["determinism_taint"]
        );
        assert!(rules_fired("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn taint_paths_span_call_chains() {
        let src = "\
pub fn api_entry(n: u64) -> u64 {\n    mid(n)\n}\n\
fn mid(n: u64) -> u64 {\n    leaf(n)\n}\n\
fn leaf(n: u64) -> u64 {\n    let m = std::collections::HashMap::new();\n    m.len() as u64 + n\n}\n";
        let v = check("crates/glm/src/tainty.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RuleId::DeterminismTaint);
        assert_eq!(
            v[0].path,
            vec!["glm::api_entry", "glm::mid", "glm::leaf", "HashMap"]
        );
        assert!(v[0]
            .message
            .contains("`glm::api_entry` → `glm::mid` → `glm::leaf`"));
    }

    #[test]
    fn env_and_thread_id_are_taint_sinks() {
        let src = "pub fn f() -> bool { std::env::var(\"X\").is_ok() }\n";
        assert_eq!(
            rules_fired("crates/core/src/x.rs", src),
            vec!["determinism_taint"]
        );
        let src2 = "pub fn f() -> std::thread::ThreadId { std::thread::current().id() }\n";
        assert_eq!(
            rules_fired("crates/core/src/x.rs", src2),
            vec!["determinism_taint"]
        );
        // Non-sim-critical crates may read the environment freely.
        assert!(rules_fired("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn ambient_rand_fires_outside_bench() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(
            rules_fired("crates/data/src/x.rs", src),
            vec!["ambient_rand"]
        );
        assert!(rules_fired("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_fires_outside_allowlist() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules_fired("crates/glm/src/x.rs", src),
            vec!["thread_spawn"]
        );
        // Allowlisted modules and the bench crate are exempt.
        assert!(rules_fired("crates/core/src/exec.rs", src).is_empty());
        assert!(rules_fired("crates/serve/src/engine.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/x.rs", src).is_empty());
        // Test code may spawn threads.
        assert!(rules_fired("crates/glm/tests/t.rs", src).is_empty());
    }

    #[test]
    fn hot_loop_alloc_fires_in_hot_modules_only() {
        let src = "\
pub fn kernel(rows: &[Vec<f64>]) -> f64 {\n    let mut acc = 0.0;\n    for r in rows {\n        let copy = r.to_vec();\n        acc += copy.len() as f64;\n    }\n    acc\n}\n";
        assert_eq!(
            rules_fired("crates/linalg/src/ops.rs", src),
            vec!["hot_loop_alloc"]
        );
        assert_eq!(
            rules_fired("crates/glm/src/sgd.rs", src),
            vec!["hot_loop_alloc"]
        );
        assert_eq!(
            rules_fired("crates/core/src/exec.rs", src),
            vec!["hot_loop_alloc"]
        );
        // Cold modules of the same crates are exempt.
        assert!(rules_fired("crates/glm/src/metrics.rs", src).is_empty());
        assert!(rules_fired("crates/core/src/engine.rs", src).is_empty());
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn hoisted_allocation_outside_the_loop_is_fine() {
        let src = "\
pub fn kernel(rows: &[Vec<f64>]) -> f64 {\n    let mut scratch = Vec::new();\n    let mut acc = 0.0;\n    for r in rows {\n        scratch.extend_from_slice(r);\n        acc += scratch.len() as f64;\n        scratch.clear();\n    }\n    acc\n}\n";
        assert!(rules_fired("crates/linalg/src/ops.rs", src).is_empty());
    }

    #[test]
    fn duplicate_hash_impl_fires_outside_codec() {
        let src = "fn fnv1a(bytes: &[u8]) -> u64 {\n    let mut h = 0xcbf2_9ce4_8422_2325u64;\n    h\n}\n";
        let fired = rules_fired("crates/data/src/x.rs", src);
        assert_eq!(fired, vec!["duplicate_hash_impl", "duplicate_hash_impl"]);
        assert!(rules_fired("crates/codec/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_lib_fires_but_not_in_tests_or_bins() {
        let src = "pub fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_fired("crates/data/src/x.rs", src),
            vec!["panic_in_lib"]
        );
        assert!(rules_fired("crates/bench/src/bin/b.rs", src).is_empty());
        assert!(rules_fired("tests/t.rs", src).is_empty());
    }

    #[test]
    fn expect_err_and_unwrap_or_do_not_fire() {
        let src = "pub fn f() { x.unwrap_or(0); y.unwrap_or_else(g); z.expect_err(\"m\"); }\n";
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_doc_comment_is_fine() {
        let src = "/// let v = parse(s).unwrap();\npub fn parse() {}\n";
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn waiver_on_same_line_suppresses() {
        let src =
            "pub fn f() { x.unwrap(); } // lint:allow(panic_in_lib): infallible by construction\n";
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn waiver_on_preceding_line_suppresses_next_code_line() {
        let src =
            "// lint:allow(panic_in_lib): infallible by construction\npub fn f() { x.unwrap(); }\n";
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_suppress() {
        let src = "pub fn f() { x.unwrap(); } // lint:allow(determinism_taint): wrong rule\n";
        let fired = rules_fired("crates/data/src/x.rs", src);
        // The unwrap still fires, and the waiver is stale (suppresses nothing).
        assert!(fired.contains(&"panic_in_lib"));
        assert!(fired.contains(&"invalid_waiver"));
    }

    #[test]
    fn waiver_without_reason_is_invalid() {
        let src = "pub fn f() { x.unwrap(); } // lint:allow(panic_in_lib):\n";
        let fired = rules_fired("crates/data/src/x.rs", src);
        assert!(fired.contains(&"invalid_waiver"));
        assert!(
            fired.contains(&"panic_in_lib"),
            "a malformed waiver must not suppress"
        );
    }

    #[test]
    fn waiver_with_unknown_rule_is_invalid() {
        let src = "// lint:allow(no_such_rule): whatever\npub fn f() {}\n";
        assert_eq!(
            rules_fired("crates/data/src/x.rs", src),
            vec!["invalid_waiver"]
        );
    }

    #[test]
    fn old_rule_names_in_waivers_are_invalid() {
        let src = "// lint:allow(std_hash): superseded name\npub fn f() {}\n";
        assert_eq!(
            rules_fired("crates/data/src/x.rs", src),
            vec!["invalid_waiver"]
        );
    }

    #[test]
    fn prose_mentioning_waiver_syntax_is_not_a_waiver() {
        let src =
            "/// Waive with `// lint:allow(panic_in_lib): reason` if needed.\npub fn f() {}\n";
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
        let src2 =
            "//! ```text\n//! // lint:allow(determinism_taint): example\n//! ```\npub fn g() {}\n";
        assert!(rules_fired("crates/data/src/x.rs", src2).is_empty());
    }

    #[test]
    fn stale_waiver_is_reported() {
        let src = "// lint:allow(panic_in_lib): nothing here panics\npub fn f() {}\n";
        assert_eq!(
            rules_fired("crates/data/src/x.rs", src),
            vec!["invalid_waiver"]
        );
    }

    #[test]
    fn float_eq_literal_comparisons_fire() {
        assert_eq!(
            rules_fired("crates/data/src/x.rs", "let b = raw == 1.0;\n"),
            vec!["float_eq"]
        );
        assert_eq!(
            rules_fired("crates/data/src/x.rs", "if x != 0.5 { g(); }\n"),
            vec!["float_eq"]
        );
        assert_eq!(
            rules_fired("crates/data/src/x.rs", "if x == f64::INFINITY { g(); }\n"),
            vec!["float_eq"]
        );
    }

    #[test]
    fn float_eq_ignores_int_comparisons_ranges_and_le_ge() {
        assert!(rules_fired("crates/data/src/x.rs", "let b = n == 1;\n").is_empty());
        assert!(rules_fired("crates/data/src/x.rs", "for i in 0..10 { f(i); }\n").is_empty());
        assert!(rules_fired("crates/data/src/x.rs", "let b = x <= 1.0 && y >= 0.5;\n").is_empty());
        assert!(rules_fired("crates/data/src/x.rs", "let b = a.0 == b.0;\n").is_empty());
    }

    #[test]
    fn float_eq_allowed_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { assert!(x == 1.0); }\n}\n";
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn print_in_lib_fires_except_bench_and_bins() {
        let src = "pub fn report() { println!(\"x\"); }\n";
        assert_eq!(
            rules_fired("crates/data/src/x.rs", src),
            vec!["print_in_lib"]
        );
        assert!(rules_fired("crates/bench/src/x.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/b.rs", src).is_empty());
    }

    #[test]
    fn eprintln_is_allowed() {
        let src = "pub fn warn() { eprintln!(\"x\"); }\n";
        assert!(rules_fired("crates/data/src/x.rs", src).is_empty());
    }

    #[test]
    fn tokens_inside_strings_do_not_fire() {
        let src = "pub const DOC: &str = \"HashMap Instant::now() .unwrap() thread_rng\";\n";
        assert!(rules_fired("crates/cluster/src/x.rs", src).is_empty());
    }

    #[test]
    fn diagnostics_carry_file_and_line() {
        let v = check(
            "crates/glm/src/x.rs",
            "fn a() {}\nuse std::collections::HashSet;\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].file, "crates/glm/src/x.rs");
    }

    #[test]
    fn file_module_extraction() {
        let ctx = classify("crates/core/src/exec.rs").unwrap();
        assert_eq!(file_module(&ctx), "exec");
        let root = classify("src/lib.rs").unwrap();
        assert_eq!(file_module(&root), "lib");
    }
}
