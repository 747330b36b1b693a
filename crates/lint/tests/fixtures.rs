//! Runs the analyzer over the fixture corpus. Every fixture declares the
//! path it pretends to live at and the distinct set of rules it expects
//! to fire:
//!
//! ```text
//! //@ path: crates/linalg/src/demo.rs
//! //@ expect: hot_loop_alloc, waiver     (empty for clean fixtures)
//! ```

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use mlstar_lint::check_file;

struct Fixture {
    file: PathBuf,
    declared_path: String,
    expected: BTreeSet<String>,
}

fn parse_fixture(file: &Path) -> Fixture {
    let text = fs::read_to_string(file).unwrap_or_else(|e| panic!("read {file:?}: {e}"));
    let mut declared_path = None;
    let mut expected = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("//@ path:") {
            declared_path = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("//@ expect:") {
            expected = Some(
                rest.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect::<BTreeSet<_>>(),
            );
        }
    }
    Fixture {
        file: file.to_path_buf(),
        declared_path: declared_path
            .unwrap_or_else(|| panic!("{file:?} missing `//@ path:` header")),
        expected: expected.unwrap_or_else(|| panic!("{file:?} missing `//@ expect:` header")),
    }
}

fn fixtures_in(subdir: &str) -> Vec<Fixture> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(subdir);
    let mut out: Vec<Fixture> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read_dir {dir:?}: {e}"))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| parse_fixture(&p))
        .collect();
    out.sort_by(|a, b| a.file.cmp(&b.file));
    assert!(!out.is_empty(), "no fixtures found in {dir:?}");
    out
}

fn fired_rules(fx: &Fixture) -> BTreeSet<String> {
    let source = fs::read_to_string(&fx.file).expect("fixture readable");
    check_file(&fx.declared_path, &source)
        .into_iter()
        .map(|v| v.rule.to_string())
        .collect()
}

#[test]
fn firing_fixtures_fire_exactly_their_declared_rules() {
    for fx in fixtures_in("firing") {
        assert!(
            !fx.expected.is_empty(),
            "{:?} declares no expected rules",
            fx.file
        );
        let fired = fired_rules(&fx);
        assert_eq!(
            fired, fx.expected,
            "{:?} (as {}) fired {:?}, expected {:?}",
            fx.file, fx.declared_path, fired, fx.expected
        );
    }
}

#[test]
fn clean_fixtures_fire_nothing() {
    for fx in fixtures_in("clean") {
        assert!(
            fx.expected.is_empty(),
            "{:?} is in clean/ but expects rules",
            fx.file
        );
        let fired = fired_rules(&fx);
        assert!(
            fired.is_empty(),
            "{:?} (as {}) unexpectedly fired {:?}",
            fx.file,
            fx.declared_path,
            fired
        );
    }
}

#[test]
fn every_diagnostic_kind_has_a_firing_fixture() {
    let mut covered = BTreeSet::new();
    for fx in fixtures_in("firing") {
        covered.extend(fx.expected.iter().cloned());
    }
    for rule in [mlstar_lint::RULE, "waiver"] {
        assert!(covered.contains(rule), "`{rule}` has no firing fixture");
    }
}

#[test]
fn violations_point_at_real_lines() {
    for fx in fixtures_in("firing") {
        let source = fs::read_to_string(&fx.file).expect("fixture readable");
        let line_count = source.lines().count();
        for v in check_file(&fx.declared_path, &source) {
            assert!(
                v.line >= 1 && v.line <= line_count,
                "{:?}: line {} out of range",
                fx.file,
                v.line
            );
            assert!(!v.message.is_empty());
            assert_eq!(v.file, fx.declared_path);
        }
    }
}
