//! File classification: which crate a file belongs to and what role it
//! plays (library, binary, test, example, bench), derived purely from its
//! workspace-relative path. Rules consult this to decide applicability.

/// What kind of target a `.rs` file contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/**` excluding `src/main.rs` and `src/bin/**`.
    Lib,
    /// `src/main.rs`, `src/bin/**`, or a stray root-level script.
    Bin,
    /// `tests/**` — integration tests.
    TestCode,
    /// `examples/**`.
    Example,
    /// `benches/**`.
    Bench,
}

/// Classification of one workspace source file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name (`"cluster"`, `"glm"`, …) or `"root"` for the
    /// top-level `mllib-star` package.
    pub crate_name: String,
    pub role: FileRole,
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
}

/// Crates whose library code participates in the simulated cluster and
/// must therefore be deterministic: no std hash collections, no ambient
/// time or randomness.
pub const SIM_CRITICAL_CRATES: &[&str] = &[
    "cluster",
    "codec",
    "core",
    "collectives",
    "ps",
    "glm",
    "data",
    "linalg",
    "serve",
    "net",
];

/// The one crate allowed to read wall-clock time and hold measurement
/// loops: host-side benchmarking is its entire purpose.
pub const TIMING_CRATE: &str = "bench";

impl FileContext {
    pub fn is_sim_critical(&self) -> bool {
        SIM_CRITICAL_CRATES.contains(&self.crate_name.as_str())
    }

    pub fn is_timing_crate(&self) -> bool {
        self.crate_name == TIMING_CRATE
    }
}

/// Classifies a workspace-relative path (forward slashes). Returns `None`
/// for files the analyzer does not police (vendored stubs, fixtures,
/// generated output) — the directory walker already skips those, but
/// classification is defensive about it too.
pub fn classify(rel_path: &str) -> Option<FileContext> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let first = rel_path.split('/').next().unwrap_or("");
    if matches!(first, "vendor" | "target" | "fixtures" | "bench_results") {
        return None;
    }

    let (crate_name, rest) = match rel_path.strip_prefix("crates/") {
        Some(tail) => {
            let mut it = tail.splitn(2, '/');
            let name = it.next().unwrap_or("");
            let rest = it.next()?;
            (name.to_string(), rest)
        }
        None => ("root".to_string(), rel_path),
    };
    if rest.split('/').any(|seg| seg == "fixtures") {
        return None;
    }

    let role = if rest.starts_with("tests/") {
        FileRole::TestCode
    } else if rest.starts_with("benches/") {
        FileRole::Bench
    } else if rest.starts_with("examples/") {
        FileRole::Example
    } else if rest == "src/main.rs" || rest.starts_with("src/bin/") {
        FileRole::Bin
    } else if rest.starts_with("src/") {
        FileRole::Lib
    } else {
        // build.rs and other root-level scripts: treat like binaries.
        FileRole::Bin
    };

    Some(FileContext {
        crate_name,
        role,
        rel_path: rel_path.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_lib_file() {
        let ctx = classify("crates/glm/src/sgd.rs").unwrap();
        assert_eq!(ctx.crate_name, "glm");
        assert_eq!(ctx.role, FileRole::Lib);
        assert!(ctx.is_sim_critical());
    }

    #[test]
    fn bins_tests_examples_benches() {
        assert_eq!(
            classify("crates/bench/src/bin/exhibit.rs").unwrap().role,
            FileRole::Bin
        );
        assert_eq!(
            classify("tests/paper_claims.rs").unwrap().role,
            FileRole::TestCode
        );
        assert_eq!(
            classify("examples/quickstart.rs").map(|c| c.role),
            Some(FileRole::Example)
        );
        assert_eq!(
            classify("crates/bench/benches/linalg_ops.rs").unwrap().role,
            FileRole::Bench
        );
    }

    #[test]
    fn root_package_files() {
        let ctx = classify("src/lib.rs").unwrap();
        assert_eq!(ctx.crate_name, "root");
        assert!(!ctx.is_sim_critical());
    }

    #[test]
    fn non_policed_paths_are_skipped() {
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("crates/lint/fixtures/firing/hash.rs").is_none());
        assert!(classify("target/debug/build/foo.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn timing_crate_is_bench() {
        assert!(classify("crates/bench/src/report.rs")
            .unwrap()
            .is_timing_crate());
        assert!(!classify("crates/core/src/driver.rs")
            .unwrap()
            .is_timing_crate());
    }
}
