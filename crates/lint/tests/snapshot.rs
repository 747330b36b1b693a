//! Golden-diagnostic snapshot: the exact rule, call path, and file:line
//! of every finding over the firing corpus is pinned in
//! `fixtures/expected_diagnostics.txt`. Any analyzer change that moves a
//! line, rewrites a message, or drops a path shows up as a readable diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! MLSTAR_UPDATE_SNAPSHOTS=1 cargo test -p mlstar-lint --test snapshot
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use mlstar_lint::{check_file, classify, report};

fn render_corpus() -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("firing");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();

    let mut out = String::new();
    for file in files {
        let text = fs::read_to_string(&file).expect("fixture readable");
        let declared = text
            .lines()
            .find_map(|l| l.strip_prefix("//@ path:"))
            .unwrap_or_else(|| panic!("{file:?} missing `//@ path:` header"))
            .trim()
            .to_string();
        let ctx = classify(&declared).expect("policed path");
        let name = file.file_name().unwrap().to_string_lossy().into_owned();
        writeln!(out, "# {name} (as {declared})").unwrap();
        for v in check_file(&ctx, &text) {
            writeln!(out, "{}", report::human_line(&v)).unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn firing_corpus_diagnostics_match_the_committed_snapshot() {
    let snapshot_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("expected_diagnostics.txt");
    let actual = render_corpus();

    if std::env::var_os("MLSTAR_UPDATE_SNAPSHOTS").is_some() {
        fs::write(&snapshot_path, &actual).expect("write snapshot");
        return;
    }

    let expected = fs::read_to_string(&snapshot_path).unwrap_or_else(|e| {
        panic!(
            "read {snapshot_path:?}: {e}\n\
             (regenerate with MLSTAR_UPDATE_SNAPSHOTS=1)"
        )
    });
    assert_eq!(
        actual, expected,
        "fixture diagnostics drifted from fixtures/expected_diagnostics.txt;\n\
         if the change is intentional, regenerate with\n\
         MLSTAR_UPDATE_SNAPSHOTS=1 cargo test -p mlstar-lint --test snapshot"
    );
}

#[test]
fn snapshot_pins_a_multi_hop_taint_path() {
    let rendered = render_corpus();
    let chain = "`glm::api_entry` → `glm::fold_stats` → `glm::bucket_keys` → `HashMap`";
    assert!(
        rendered.contains(chain),
        "expected the three-hop taint chain {chain:?} in:\n{rendered}"
    );
}

/// Diagnostics must come out sorted (file → line → rule → message) from
/// every entry point, so snapshot diffs and CI logs never churn from
/// emit-order drift.
#[test]
fn diagnostics_are_emitted_in_sorted_order() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("firing");
    let mut checked = 0usize;
    for entry in fs::read_dir(&dir).expect("firing dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "rs") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("fixture readable");
        let declared = text
            .lines()
            .find_map(|l| l.strip_prefix("//@ path:"))
            .expect("declared path")
            .trim()
            .to_string();
        let ctx = classify(&declared).expect("policed path");
        let keys: Vec<_> = check_file(&ctx, &text)
            .into_iter()
            .map(|v| (v.file, v.line, v.rule, v.message))
            .collect();
        checked += keys.len();
        for w in keys.windows(2) {
            assert!(
                w[0] <= w[1],
                "unsorted diagnostics in {path:?}: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }
    assert!(
        checked > 10,
        "only {checked} diagnostics checked — corpus missing?"
    );
}

/// The multi-hop rng_placement chain is pinned the same way as the taint
/// chain: the pass must keep reporting *why*, not just *where*.
#[test]
fn snapshot_pins_rng_chain() {
    let rendered = render_corpus();
    let rng_chain = "`net::run_worker` → `net::refill_batch` → `net::draw_row` → `SeedStream`";
    assert!(
        rendered.contains(rng_chain),
        "expected the worker RNG chain {rng_chain:?} in:\n{rendered}"
    );
}
