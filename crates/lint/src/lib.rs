//! mlstar-lint: the workspace's own static analyzer.
//!
//! The reproduction's headline claim is *bit-reproducible* distributed GLM
//! training on a simulated cluster. That property is easy to break with a
//! single `HashMap` iteration or stray `Instant::now()`, and no rustc or
//! clippy lint polices it. This crate does, with zero dependencies beyond
//! std (the build environment has no registry access).
//!
//! v2 grew the line scanner into a lightweight item-level analyzer: a
//! tokenizer-backed parser ([`parse`]) extracts `fn`/`impl`/`mod` items
//! per file, [`callgraph`] resolves intra-workspace calls by name
//! (module-path heuristic, no type inference), and [`taint`] walks the
//! graph so a nondeterminism sink two calls deep from a public API is
//! reported with its full call path.
//!
//! Rules (see [`rules::RuleId`]):
//!
//! | rule | enforced where |
//! |------|----------------|
//! | `determinism_taint` | sim-critical crates + anything their public APIs reach (path-carrying) |
//! | `ambient_rand` | everywhere except crates/bench |
//! | `thread_spawn` | lib/bin code outside the allowlisted host-parallelism modules |
//! | `hot_loop_alloc` | loop bodies in designated hot-path modules |
//! | `duplicate_hash_impl` | any crate except mlstar-codec |
//! | `panic_in_lib` | non-test library code (waivable) |
//! | `float_eq` | non-test lib/bin code (literal/constant comparisons) |
//! | `print_in_lib` | library code outside crates/bench |
//! | `invalid_waiver` | waiver comments themselves |
//! | `rng_placement` | functions reachable from worker-side entry points |
//!
//! Waive a finding with `// lint:allow(<rule>): <reason>` on the same
//! line or the line above. Stale or malformed waivers are violations, so
//! the waiver inventory stays honest.
//!
//! Run it as `cargo lint` (alias for `cargo run -p mlstar-lint --`; add
//! `--json` for machine-readable output with per-rule timings); the
//! integration test in `tests/workspace_clean.rs` runs the same scan on
//! every `cargo test`, which is what wires the analyzer into the tier-1
//! gate.

pub mod callgraph;
pub mod context;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod taint;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

pub use callgraph::CallGraph;
pub use context::{classify, FileContext, FileRole};
pub use parse::FnItem;
pub use rules::{RuleId, Violation};

/// One analyzed source file: classification, scanned lines, parsed
/// function items, and its waiver table.
#[derive(Debug)]
pub struct FileUnit {
    pub ctx: FileContext,
    pub lines: Vec<scanner::Line>,
    pub items: Vec<parse::FnItem>,
    pub(crate) waivers: Vec<rules::Waiver>,
}

/// Wall-time spent in one analysis phase or rule pass (reporting only —
/// timings never influence diagnostics).
#[derive(Debug, Clone)]
pub struct PassTiming {
    pub name: &'static str,
    pub micros: u128,
}

/// Result of scanning a whole workspace.
#[derive(Debug)]
pub struct ScanReport {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
    /// Functions extracted by the item parser.
    pub functions: usize,
    /// Resolved call-graph edges.
    pub edges: usize,
    /// Per-phase / per-rule wall time.
    pub timings: Vec<PassTiming>,
}

fn timed<T>(name: &'static str, timings: &mut Vec<PassTiming>, f: impl FnOnce() -> T) -> T {
    // lint:allow(determinism_taint): reporting-only pass timings, never part of any diagnostic
    let t0 = std::time::Instant::now();
    let out = f();
    timings.push(PassTiming {
        name,
        micros: t0.elapsed().as_micros(),
    });
    out
}

/// Runs the full analysis (scan → parse → call graph → rule passes) over
/// an in-memory file set. This is the core the single-file [`check_file`]
/// helper and the workspace scan both share.
pub fn analyze_sources(sources: Vec<(FileContext, String)>) -> ScanReport {
    let mut timings: Vec<PassTiming> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();

    let mut units: Vec<FileUnit> = timed("parse", &mut timings, || {
        sources
            .into_iter()
            .map(|(ctx, source)| {
                let lines = scanner::scan(&source);
                let (waivers, mut malformed) = rules::collect_waivers(&ctx, &lines);
                violations.append(&mut malformed);
                let items = parse::parse_file(&ctx, &lines);
                FileUnit {
                    ctx,
                    lines,
                    items,
                    waivers,
                }
            })
            .collect()
    });
    let files_scanned = units.len();
    let functions = units.iter().map(|u| u.items.len()).sum();

    let graph = timed("callgraph", &mut timings, || CallGraph::build(&units));
    let edges = graph.edge_count;

    timed("determinism_taint", &mut timings, || {
        taint::pass_determinism_taint(&mut units, &graph, &mut violations)
    });
    timed("ambient_rand", &mut timings, || {
        rules::pass_ambient_rand(&mut units, &mut violations)
    });
    timed("thread_spawn", &mut timings, || {
        rules::pass_thread_spawn(&mut units, &mut violations)
    });
    timed("hot_loop_alloc", &mut timings, || {
        rules::pass_hot_loop_alloc(&mut units, &mut violations)
    });
    timed("duplicate_hash_impl", &mut timings, || {
        rules::pass_duplicate_hash_impl(&mut units, &mut violations)
    });
    timed("panic_in_lib", &mut timings, || {
        rules::pass_panic_in_lib(&mut units, &mut violations)
    });
    timed("float_eq", &mut timings, || {
        rules::pass_float_eq(&mut units, &mut violations)
    });
    timed("print_in_lib", &mut timings, || {
        rules::pass_print_in_lib(&mut units, &mut violations)
    });
    timed("rng_placement", &mut timings, || {
        taint::pass_rng_placement(&mut units, &graph, &mut violations)
    });

    // Every waiver must have suppressed something.
    for unit in &units {
        for w in &unit.waivers {
            if !w.used {
                violations.push(Violation {
                    file: unit.ctx.rel_path.clone(),
                    line: w.comment_line,
                    rule: RuleId::InvalidWaiver,
                    message: format!(
                        "waiver for `{}` suppresses nothing; remove the stale comment",
                        w.rule.name()
                    ),
                    path: Vec::new(),
                });
            }
        }
    }

    // Fully deterministic emit order: file → line → rule → message. The
    // message tiebreaker matters when one pass emits several diagnostics
    // on the same line (e.g. two taint paths ending on one line).
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    ScanReport {
        violations,
        files_scanned,
        functions,
        edges,
        timings,
    }
}

/// Runs every applicable rule over one file's source text. Call paths are
/// resolved within the file only — the workspace scan sees cross-file
/// chains too.
pub fn check_file(ctx: &FileContext, source: &str) -> Vec<Violation> {
    analyze_sources(vec![(ctx.clone(), source.to_string())]).violations
}

/// Scans every policed `.rs` file under `root` and returns all violations,
/// sorted by file then line.
pub fn scan_workspace(root: &Path) -> io::Result<ScanReport> {
    let files = walk::rust_sources(root)?;
    let mut sources = Vec::new();
    for rel in &files {
        let Some(ctx) = classify(rel) else {
            continue;
        };
        let source = fs::read_to_string(root.join(rel))?;
        sources.push((ctx, source));
    }
    Ok(analyze_sources(sources))
}
