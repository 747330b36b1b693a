//! CLI for mlstar-lint. See `--help`.

use std::path::PathBuf;
use std::process::ExitCode;

use mlstar_lint::{report, scan_workspace, walk, RuleId};

const USAGE: &str = "\
mlstar-lint: determinism & panic-policy static analyzer for this workspace

USAGE:
    cargo run -p mlstar-lint [-- OPTIONS]

OPTIONS:
    --json          emit the report as JSON on stdout
    --root <DIR>    scan <DIR> instead of the enclosing cargo workspace
    --list-rules    print every rule name with a one-line description
    -h, --help      print this help

EXIT CODES:
    0  no violations
    1  violations found
    2  usage or I/O error

Waive a finding with `// lint:allow(<rule>): <reason>` on the offending
line or the line above it.";

struct Options {
    json: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        root: None,
        list_rules: false,
        help: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "-h" | "--help" => opts.help = true,
            "--root" => match it.next() {
                Some(dir) => opts.root = Some(PathBuf::from(dir)),
                None => return Err("--root requires a directory argument".to_string()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if opts.list_rules {
        for rule in RuleId::ALL {
            println!("{:<22} {}", rule.name(), rule.summary());
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root {
        Some(dir) => dir,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: cannot read current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match walk::find_workspace_root(&cwd) {
                Some(d) => d,
                None => {
                    eprintln!("error: no enclosing cargo workspace; pass --root <DIR>");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let scan = match scan_workspace(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if opts.json {
        println!("{}", report::json_report(&scan));
    } else {
        for v in &scan.violations {
            println!("{}", report::human_line(v));
        }
        let analysis_us: u128 = scan.timings.iter().map(|t| t.micros).sum();
        eprintln!(
            "mlstar-lint: {} file(s), {} fn(s), {} call edge(s) scanned in {}.{:03}ms; {} violation(s)",
            scan.files_scanned,
            scan.functions,
            scan.edges,
            analysis_us / 1000,
            analysis_us % 1000,
            scan.violations.len()
        );
    }
    if scan.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
