//! Workspace traversal: finds every `.rs` file the analyzer polices.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS metadata,
/// vendored dependency stubs, lint fixtures (which violate on purpose),
/// benchmark result dumps, and `benchmarks/`, a cargo workspace of its
/// own that this workspace's policy does not cover.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "vendor",
    "fixtures",
    "bench_results",
    "benchmarks",
    ".github",
    "node_modules",
];

/// Recursively collects workspace-relative paths (forward slashes) of all
/// `.rs` files under `root`, sorted for deterministic output.
pub fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut found = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let abs = root.join(&rel_dir);
        let entries = fs::read_dir(&abs)?;
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(name)
            } else {
                rel_dir.join(name)
            };
            let ftype = entry.file_type()?;
            if ftype.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(rel);
                }
            } else if ftype.is_file() && name.ends_with(".rs") {
                let unix: String = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                found.push(unix);
            }
        }
    }
    found.sort();
    Ok(found)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`. Returns `None` when no workspace root is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walking_this_workspace_finds_our_own_sources_and_skips_vendor() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("the lint crate lives inside the workspace");
        let files = rust_sources(&root).expect("workspace is readable");
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"));
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        assert!(root.join("benchmarks/src").is_dir(), "the skip is live");
        assert!(files.iter().all(|f| !f.starts_with("benchmarks/")));
        assert!(files.iter().all(|f| !f.contains("/fixtures/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "output is deterministic");
    }
}
