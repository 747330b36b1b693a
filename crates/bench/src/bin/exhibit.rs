//! `exhibit <name> [--quick] [--json] [options]`: regenerates one exhibit,
//! or `all` of them; see `mlstar_bench::figures::EXHIBITS`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match mlstar_bench::cli::run(mlstar_bench::figures::EXHIBITS, &argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
