//! The one command line of the `exhibit` binary:
//! `exhibit <name> [--quick] [--json] [--flag value]…`.
//!
//! [`run`] is the whole program: it finds the exhibit, parses its options
//! against the exhibit's [`Flag`] table and calls it. An unknown name,
//! flag or value is a [`Failure::bad_args`] (exit 2), a broken contract
//! inside an exhibit a [`Failure::contract`] (exit 1).

use std::fmt::Display;
use std::str::FromStr;

/// One value-taking option of an exhibit: the flag as typed (`--workers`),
/// the placeholder for its value in the help text (`<k>`), and one help
/// line that names the default.
pub type Flag = (&'static str, &'static str, &'static str);

/// One row of the exhibit table: the name typed after `exhibit`, one line
/// saying what it regenerates, its options beyond `--quick` and `--json`,
/// and the exhibit itself.
pub type Exhibit = (
    &'static str,
    &'static str,
    &'static [Flag],
    fn(&Args) -> Result<(), Failure>,
);

/// Why an exhibit stopped early.
#[derive(Debug, PartialEq)]
pub struct Failure {
    /// Process exit code: 2 for a bad command line, 1 for a failed contract.
    pub code: u8,
    /// What went wrong; [`run`] prefixes it with `exhibit <name>: `.
    pub message: String,
}

impl Failure {
    /// A bad command line (exit 2).
    pub fn bad_args(message: impl Into<String>) -> Failure {
        Failure {
            code: 2,
            message: message.into(),
        }
    }

    /// A contract the exhibit asserts did not hold (exit 1).
    pub fn contract(message: impl Into<String>) -> Failure {
        Failure {
            code: 1,
            message: message.into(),
        }
    }
}

/// The parsed options of one exhibit run.
#[derive(Debug, Default)]
pub struct Args {
    /// `--quick`: small datasets and round budgets, seconds per exhibit.
    pub quick: bool,
    /// `--json`: also write `<exhibit>*.json` under `MLSTAR_OUT`.
    pub json: bool,
    values: Vec<(Flag, String)>,
}

impl Args {
    /// The value given for `flag` parsed as `T`, or `default` when the
    /// flag was not given. A value that does not parse is a usage error.
    pub fn get<T: FromStr<Err: Display>>(&self, flag: &str, default: T) -> Result<T, Failure> {
        let Some(((name, value, _), raw)) = self.values.iter().rev().find(|(f, _)| f.0 == flag)
        else {
            return Ok(default);
        };
        raw.parse()
            .map_err(|e| Failure::bad_args(format!("{name} needs {value}, got {raw:?}: {e}")))
    }
}

/// Parses `argv` (the words after the exhibit name) against `flags`;
/// `Ok(None)` means `--help` was asked for.
pub fn parse(flags: &[Flag], argv: &[String]) -> Result<Option<Args>, Failure> {
    let mut args = Args::default();
    let mut words = argv.iter();
    while let Some(word) = words.next() {
        match word.as_str() {
            "-h" | "--help" => return Ok(None),
            "--quick" => args.quick = true,
            "--json" => args.json = true,
            other => {
                let flag = flags.iter().find(|f| f.0 == other).ok_or_else(|| {
                    Failure::bad_args(format!("unexpected argument {other:?} (see --help)"))
                })?;
                let value = words.next().ok_or_else(|| {
                    Failure::bad_args(format!("{} needs a value {}", flag.0, flag.1))
                })?;
                args.values.push((*flag, value.clone()));
            }
        }
    }
    Ok(Some(args))
}

/// The help lines every exhibit shares.
const SHARED_HELP: &str =
    "    --quick                small datasets and round budgets: seconds, for CI
    --json                 also write the JSON artefacts (per-round telemetry, reports)
    -h, --help             this message

Prints the exhibit to stdout and writes its artefacts to
bench_results/ (override the directory with MLSTAR_OUT).";

fn print_help(exhibits: &[Exhibit], chosen: Option<&Exhibit>) {
    let (name, what, flags) = match chosen {
        Some(&(name, what, flags, _)) => (name, what, flags),
        None => (
            "<name>",
            "the paper's tables and figures, and the repo's studies",
            &[][..],
        ),
    };
    println!("exhibit {name}: {what}\n\nUSAGE:");
    println!("    cargo run --release -p mlstar-bench --bin exhibit -- {name} [OPTIONS]\n");
    if chosen.is_none() {
        println!("EXHIBITS:");
        for (name, what, ..) in exhibits {
            println!("    {name:<15} {what}");
        }
        println!("    {:<15} every exhibit above, in this order\n", "all");
    }
    println!("OPTIONS:");
    for (flag, value, help) in flags {
        println!("    {:<22} {help}", format!("{flag} {value}"));
    }
    println!("{SHARED_HELP}");
}

/// Runs the program `exhibit <argv…>` over the table `exhibits`. The
/// error message names the binary and the exhibit it came from.
pub fn run(exhibits: &[Exhibit], argv: &[String]) -> Result<(), Failure> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(Failure::bad_args("exhibit: which one? (see --help)"));
    };
    if name == "-h" || name == "--help" {
        print_help(exhibits, None);
        return Ok(());
    }
    let all = name == "all";
    let chosen: Vec<&Exhibit> = exhibits.iter().filter(|e| all || name == e.0).collect();
    if chosen.is_empty() {
        return Err(Failure::bad_args(format!(
            "exhibit: unknown exhibit {name:?} (see --help)"
        )));
    }
    for e in chosen {
        let &(name, _, flags, exhibit) = e;
        let named = |f: Failure| Failure {
            message: format!("exhibit {name}: {}", f.message),
            ..f
        };
        // `all` takes only the two shared switches.
        let flags = if all { &[] } else { flags };
        let Some(args) = parse(flags, rest).map_err(named)? else {
            print_help(exhibits, (!all).then_some(e));
            return Ok(());
        };
        crate::figures::set_quick_mode(args.quick);
        exhibit(&args).map_err(named)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[("--workers", "<k>", "executors (default 4)")];

    fn words(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn wants_two_workers(args: &Args) -> Result<(), Failure> {
        match args.get("--workers", 4usize)? {
            2 => Ok(()),
            k => Err(Failure::contract(format!("{k} workers"))),
        }
    }

    const TABLE: &[Exhibit] = &[("demo", "does nothing", FLAGS, wants_two_workers)];

    #[test]
    fn switches_values_and_defaults() {
        let args = parse(FLAGS, &words("--json --workers 3 --workers 8"))
            .unwrap()
            .unwrap();
        assert!(args.json && !args.quick);
        assert_eq!(args.get("--workers", 4usize), Ok(8), "last one wins");
        assert_eq!(args.get("--rounds", 12u64), Ok(12));
        assert!(parse(FLAGS, &words("--quick -h")).unwrap().is_none());
    }

    #[test]
    fn bad_command_lines_exit_2_and_name_the_exhibit() {
        for (argv, needle) in [
            ("", "exhibit: which one"),
            ("fig7", "exhibit: unknown exhibit \"fig7\""),
            ("demo --smoke", "exhibit demo: unexpected argument"),
            (
                "demo --workers",
                "exhibit demo: --workers needs a value <k>",
            ),
            ("demo --workers many", "--workers needs <k>, got \"many\""),
            ("all --workers 2", "exhibit demo: unexpected argument"),
        ] {
            let f = run(TABLE, &words(argv)).unwrap_err();
            assert_eq!(f.code, 2, "{argv}");
            assert!(f.message.contains(needle), "{argv}: {}", f.message);
        }
    }

    #[test]
    fn runs_the_exhibit_and_reports_its_contract() {
        assert_eq!(run(TABLE, &words("demo --workers 2")), Ok(()));
        assert_eq!(run(TABLE, &words("demo --help")), Ok(()));
        assert_eq!(run(TABLE, &words("--help")), Ok(()));
        let f = run(TABLE, &words("all")).unwrap_err();
        assert_eq!((f.code, f.message.as_str()), (1, "exhibit demo: 4 workers"));
    }
}
