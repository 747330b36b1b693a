//! CLI for mlstar-lint. See `--help`.

use std::path::PathBuf;
use std::process::ExitCode;

use mlstar_lint::{scan_workspace, walk};

const USAGE: &str = "\
mlstar-lint: flags allocation inside loops of this workspace's hot-path modules

USAGE:
    cargo lint [-- OPTIONS]

OPTIONS:
    --root <DIR>    scan <DIR> instead of the enclosing cargo workspace
    -h, --help      print this help

EXIT CODES:
    0  no violations
    1  violations found
    2  usage or I/O error

Waive a finding with `// lint:allow(hot_loop_alloc): <reason>` at the end
of the offending line or alone on the line above it.";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root requires a directory argument"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let root = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| walk::find_workspace_root(&cwd))
    });
    let Some(root) = root else {
        eprintln!("error: no enclosing cargo workspace; pass --root <DIR>");
        return ExitCode::from(2);
    };

    let scan = match scan_workspace(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for v in &scan.violations {
        println!("{v}");
    }
    eprintln!(
        "mlstar-lint: {} file(s) scanned; {} violation(s)",
        scan.files_scanned,
        scan.violations.len()
    );
    if scan.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
