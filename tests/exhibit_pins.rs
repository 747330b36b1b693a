//! Every exhibit artefact, pinned: `exhibit all --quick --json` is run
//! through `mlstar-bench`'s library into a fresh directory, and each file
//! it writes is compared with its line in `tests/fixtures/exhibits.txt`.
//!
//! A fixture line reads `<artefact> <byte length> <FNV-1a digest>`, in
//! file-name order. A moved, missing or extra artefact fails the test;
//! the failure names it, prints the first lines of what was written, and
//! prints the whole computed table in the fixture's syntax, so a change
//! that moves an exhibit on purpose pastes the table and states the move
//! as the fixture's diff.
//!
//! The file holds one `#[test]`: the exhibits read the output directory
//! from the process-wide `MLSTAR_OUT` and set the process-wide quick
//! mode, which a second test on a parallel thread would share.

use std::fs;
use std::path::Path;

use mllib_star::codec::fnv1a;
use mlstar_bench::cli;
use mlstar_bench::figures::EXHIBITS;

const FIXTURE: &str = include_str!("fixtures/exhibits.txt");

/// Lines of a moved or extra artefact printed in the failure, and the
/// characters printed of each (a JSON report is one line).
const HEAD_LINES: usize = 6;
const HEAD_CHARS: usize = 160;

/// The fixture's `(artefact, length, digest)` lines.
fn parse(fixture: &str) -> Vec<(&str, usize, u64)> {
    fixture
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let &[name, len, digest] = &words[..] else {
                panic!("fixture line is not `<artefact> <length> <digest>`: {l:?}");
            };
            let len = len
                .parse()
                .unwrap_or_else(|_| panic!("bad length in {l:?}"));
            let digest =
                u64::from_str_radix(digest, 16).unwrap_or_else(|_| panic!("bad digest in {l:?}"));
            (name, len, digest)
        })
        .collect()
}

/// Every file in `dir`, by name, with its contents.
fn artefacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read the output directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().expect("a file name").to_string_lossy();
            (
                name.into_owned(),
                fs::read(&path).expect("read an artefact"),
            )
        })
        .collect();
    files.sort();
    files
}

fn head(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes)
        .lines()
        .take(HEAD_LINES)
        .map(|l| format!("    {}\n", l.chars().take(HEAD_CHARS).collect::<String>()))
        .collect()
}

#[test]
fn exhibit_artefacts_match_their_pins() {
    let out = std::env::temp_dir().join(format!("mlstar_exhibit_pins_{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).expect("create the output directory");
    std::env::set_var("MLSTAR_OUT", &out);

    let argv = ["all", "--quick", "--json"].map(String::from);
    if let Err(f) = cli::run(EXHIBITS, &argv) {
        panic!("exit {}: {}", f.code, f.message);
    }
    let got = artefacts(&out);
    fs::remove_dir_all(&out).expect("remove the output directory");

    let pinned = parse(FIXTURE);
    let computed: String = got
        .iter()
        .map(|(name, bytes)| format!("{name} {} {:016x}\n", bytes.len(), fnv1a(bytes)))
        .collect();
    let mut moved = String::new();
    for (name, bytes) in &got {
        let pin = pinned.iter().find(|p| p.0 == name);
        let what = match pin {
            None => "extra",
            Some(&(_, len, digest)) if (len, digest) == (bytes.len(), fnv1a(bytes)) => continue,
            Some(_) => "moved",
        };
        moved.push_str(&format!("{what}: {name}, which begins\n{}", head(bytes)));
    }
    for (name, ..) in &pinned {
        if !got.iter().any(|(n, _)| n == name) {
            moved.push_str(&format!("missing: {name}\n"));
        }
    }
    assert!(
        moved.is_empty(),
        "exhibit artefacts moved:\n{moved}\nthe computed table:\n{computed}"
    );
}
