//! Tier-1 gate: `cargo test` at the workspace root must fail if a hot-path
//! module allocates inside a loop, or if a `lint:allow` waiver is stale or
//! malformed. The same scan is available interactively as `cargo lint`.

use std::path::Path;

use mlstar_lint::{scan_workspace, walk};

#[test]
fn workspace_passes_mlstar_lint() {
    let root = walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let scan = scan_workspace(&root).expect("workspace sources are readable");
    assert!(
        scan.files_scanned > 20,
        "suspiciously few files scanned ({}) — did the walker break?",
        scan.files_scanned
    );
    let rendered: Vec<String> = scan.violations.iter().map(ToString::to_string).collect();
    assert!(
        rendered.is_empty(),
        "mlstar-lint violations (hoist the allocation, or waive with \
         `// lint:allow(hot_loop_alloc): <reason>`):\n{}",
        rendered.join("\n")
    );
}
