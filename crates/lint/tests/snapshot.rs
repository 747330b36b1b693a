//! Golden-diagnostic snapshot: the exact rule, message and file:line of
//! every finding over the firing corpus is pinned in
//! `fixtures/expected_diagnostics.txt`. Any analyzer change that moves a
//! line or rewrites a message shows up as a readable diff; after an
//! intentional change, replace the file with the rendering the failure
//! prints.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use mlstar_lint::check_file;

fn firing_fixtures() -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("firing");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|file| {
            let text = fs::read_to_string(&file).expect("fixture readable");
            (file, text)
        })
        .collect()
}

fn declared_path(file: &Path, text: &str) -> String {
    text.lines()
        .find_map(|l| l.strip_prefix("//@ path:"))
        .unwrap_or_else(|| panic!("{file:?} missing `//@ path:` header"))
        .trim()
        .to_string()
}

#[test]
fn firing_corpus_diagnostics_match_the_committed_snapshot() {
    let mut actual = String::new();
    for (file, text) in firing_fixtures() {
        let declared = declared_path(&file, &text);
        let name = file.file_name().expect("file name").to_string_lossy();
        writeln!(actual, "# {name} (as {declared})").expect("write to String");
        for v in check_file(&declared, &text) {
            writeln!(actual, "{v}").expect("write to String");
        }
        actual.push('\n');
    }
    let snapshot_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("expected_diagnostics.txt");
    let expected = fs::read_to_string(&snapshot_path)
        .unwrap_or_else(|e| panic!("read {snapshot_path:?}: {e}"));
    assert_eq!(
        actual, expected,
        "fixture diagnostics drifted from fixtures/expected_diagnostics.txt; \
         if the change is intentional, replace that file with:\n{actual}"
    );
}

/// Diagnostics come out sorted (file → line → rule → message), so
/// snapshot diffs and CI logs never churn from emit-order drift.
#[test]
fn diagnostics_are_emitted_in_sorted_order() {
    let mut checked = 0usize;
    for (file, text) in firing_fixtures() {
        let found = check_file(&declared_path(&file, &text), &text);
        checked += found.len();
        assert!(
            found.windows(2).all(|w| w[0] <= w[1]),
            "unsorted diagnostics in {file:?}: {found:?}"
        );
    }
    assert!(
        checked >= 5,
        "only {checked} diagnostics checked — corpus missing?"
    );
}
