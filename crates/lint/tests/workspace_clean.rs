//! The tier-1 gate: the real workspace must carry zero lint violations.
//! This test runs on every `cargo test`, so a stray `HashMap`, ambient
//! clock read, or unwaived library panic fails the build, not just CI.

use std::path::Path;

use mlstar_lint::{scan_workspace, walk};

#[test]
fn workspace_has_zero_violations() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let scan = scan_workspace(&root).expect("workspace is readable");
    assert!(
        scan.files_scanned > 20,
        "suspiciously few files scanned ({}) — walker broke?",
        scan.files_scanned
    );
    let rendered: Vec<String> = scan
        .violations
        .iter()
        .map(mlstar_lint::report::human_line)
        .collect();
    assert!(
        rendered.is_empty(),
        "workspace lint violations:\n{}",
        rendered.join("\n")
    );
}

/// The perf budget: the call-graph passes (and everything else) must keep
/// `cargo lint` interactive. Counters go to stderr so a budget failure
/// comes with context.
#[test]
fn self_lint_fits_the_perf_budget() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let t0 = std::time::Instant::now();
    let scan = scan_workspace(&root).expect("workspace is readable");
    let elapsed = t0.elapsed();
    eprintln!(
        "self-lint: {} file(s), {} fn(s), {} edge(s) in {:?}",
        scan.files_scanned, scan.functions, scan.edges, elapsed
    );
    assert!(
        scan.functions > 100,
        "parser found only {} fns",
        scan.functions
    );
    assert!(scan.edges > 100, "call graph has only {} edges", scan.edges);
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "full workspace self-lint took {elapsed:?} (budget 2s)"
    );
}
