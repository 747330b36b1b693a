//! What the benchmark reads from the host: process CPU time for the
//! `cpu_ns_per_unit` metric, and the stamp written into result files.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json;

/// The benchmark's one reader of the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Stopwatch {
        // lint:allow(determinism_taint): measuring wall-clock time is what a benchmark is for; nothing the program computes depends on it
        Stopwatch(Instant::now())
    }

    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100 on
/// every Linux ABI; reading it properly needs `sysconf`, i.e. libc.
const USER_HZ: f64 = 100.0;

/// User + system CPU nanoseconds of this process so far, summed over all
/// its threads, exited ones included. `None` off Linux.
pub fn process_cpu_ns() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks as f64 * (1e9 / USER_HZ))
}

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name in field 2 may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // `after_comm` starts at field 3 (state); utime is 11 fields later.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Where and from what a result file was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub git_sha: String,
    pub rustc: String,
    pub nproc: usize,
    pub host_threads: usize,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Non-blank lines per `crates/*/src`, sorted by crate.
    pub loc: Vec<(String, usize)>,
}

impl Stamp {
    pub fn collect(seed: u64, seconds: f64, smoke: bool) -> Stamp {
        let root = repo_root();
        Stamp {
            git_sha: command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            // Every training call of a run is checked to have used 1.
            host_threads: 1,
            seed,
            seconds,
            smoke,
            loc: crate_loc(&root.join("crates")),
        }
    }

    pub fn to_json(&self) -> String {
        let loc: Vec<String> = self
            .loc
            .iter()
            .map(|(name, lines)| format!("{}:{lines}", json::string(name)))
            .collect();
        format!(
            "{{\"git_sha\":{},\"rustc\":{},\"nproc\":{},\"host_threads\":{},\"seed\":{},\"seconds\":{},\"smoke\":{},\"loc\":{{{}}}}}",
            json::string(&self.git_sha),
            json::string(&self.rustc),
            self.nproc,
            self.host_threads,
            self.seed,
            json::number(self.seconds),
            self.smoke,
            loc.join(",")
        )
    }
}

/// First output line of a command, or `"unknown"` when it cannot run
/// (the acceptance checkout, for one, is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn crate_loc(crates_dir: &Path) -> Vec<(String, usize)> {
    let Ok(entries) = fs::read_dir(crates_dir) else {
        return Vec::new();
    };
    let mut loc: Vec<(String, usize)> = entries
        .flatten()
        .filter(|e| e.path().join("src").is_dir())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, non_blank_lines(&e.path().join("src")))
        })
        .collect();
    loc.sort();
    loc
}

/// Non-blank lines of every `.rs` file under `dir`.
fn non_blank_lines(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                non_blank_lines(&path)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                fs::read_to_string(&path)
                    .map(|text| text.lines().filter(|l| !l.trim().is_empty()).count())
                    .unwrap_or(0)
            } else {
                0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        // Field 2 is "(a b) c)": spaces and a parenthesis inside.
        let line = "1234 (a b) c) S 1 1234 1234 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_clock_is_monotonic_on_linux() {
        if let (Some(a), Some(b)) = (process_cpu_ns(), process_cpu_ns()) {
            assert!(b >= a);
        }
    }

    #[test]
    fn stamp_counts_the_workspace_crates() {
        let stamp = Stamp::collect(7, 1.5, true);
        let names: Vec<&str> = stamp.loc.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"glm") && names.contains(&"net"),
            "{names:?}"
        );
        assert!(stamp.loc.iter().all(|(_, lines)| *lines > 0));
        let doc = json::parse(&stamp.to_json()).unwrap();
        assert_eq!(doc.get("seed").and_then(json::Value::as_f64), Some(7.0));
        assert!(doc.get("loc").and_then(|l| l.get("glm")).is_some());
    }
}
