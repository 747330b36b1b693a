//! End-to-end CLI tests: exit codes, diagnostics, --help.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn lint_bin() -> &'static str {
    env!("CARGO_BIN_EXE_mlstar-lint")
}

fn workspace_root() -> PathBuf {
    mlstar_lint::walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("inside workspace")
}

/// Builds a throwaway mini-workspace containing one violating file.
struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn violating(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("mlstar-lint-cli-{}-{tag}", std::process::id()));
        let src_dir = root.join("crates/linalg/src");
        fs::create_dir_all(&src_dir).expect("mkdir temp workspace");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("write manifest");
        fs::write(
            src_dir.join("demo.rs"),
            "pub fn f(rows: &[Vec<u8>]) -> usize {\n    let mut n = 0;\n    for r in rows {\n        n += r.to_vec().len();\n    }\n    n\n}\n",
        )
        .expect("write violating source");
        TempWorkspace { root }
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn clean_workspace_exits_zero() {
    let out = Command::new(lint_bin())
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run mlstar-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "expected exit 0 on the real workspace\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("0 violation(s)"), "stderr was: {stderr}");
}

#[test]
fn violations_exit_nonzero_with_file_line_diagnostics() {
    let tmp = TempWorkspace::violating("human");
    let out = Command::new(lint_bin())
        .arg("--root")
        .arg(&tmp.root)
        .output()
        .expect("run mlstar-lint");
    assert_eq!(out.status.code(), Some(1), "violations must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/linalg/src/demo.rs:4: [hot_loop_alloc]"),
        "stdout was: {stdout}"
    );
}

#[test]
fn help_exits_zero() {
    let out = Command::new(lint_bin())
        .arg("--help")
        .output()
        .expect("run mlstar-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"), "stdout was: {stdout}");
}

#[test]
fn unknown_flag_exits_two() {
    let out = Command::new(lint_bin())
        .arg("--bogus")
        .output()
        .expect("run mlstar-lint");
    assert_eq!(out.status.code(), Some(2));
}
