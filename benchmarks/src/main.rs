//! The repo benchmark.
//!
//! Eight workloads drive the program through its public entry points
//! (`System::train`, `train_net`, `fit_path`, `ScoringEngine::run`) on
//! inputs generated from `--seed`, time the calls, check what they
//! return, and then replay each call's layer calls under spans for the
//! per-layer numbers. `benchmarks/README.md` explains the workloads, the
//! metrics and how they interact; `BENCHMARK.json` is the contract.

mod alloc;
mod diff;
mod host;
mod json;
mod replay;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
benchmark: end-to-end and per-layer benchmark of the MLlib* reproduction

USAGE:
    benchmark [run] [OPTIONS]          run workloads, print every metric
    benchmark diff <a.json> <b.json>   compare two result files
    benchmark manifest                 print BENCHMARK.json from the tables
    benchmark list                     print workload and metric names

OPTIONS (run):
    --workload <name>   run this workload only (repeatable; default: all,
                        interleaved round-robin)
    --seed <n>          seed of every generated input (default 1)
    --seconds <s>       timed-region budget per workload (default: the
                        run_seconds of BENCHMARK.json)
    --trace <0|1>       0: timed repeats only; 1: traced pass only (plus a
                        few untimed-by-spans calls for the overhead figure);
                        default: both
    --json <path>       write the result file (`benchmark diff` reads it)
    --trace-out <path>  write the spans as Chrome trace-event JSON
    --smoke             1 warm-up + 2 repeats, round counts / 20: seconds
    -h, --help          this message

With exactly one --workload, the last line of standard output is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics, or
with --trace 1 the per-layer metrics. The exit code is 1 if any operation
failed an output check, 2 on a usage error.";

struct RunArgs {
    opts: run::Options,
    /// `--trace` was given: print the driver line with these metrics.
    trace_flag: Option<bool>,
    json_path: Option<String>,
    trace_path: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workloads = Vec::new();
    let mut seed = 1u64;
    let mut seconds = f64::from(spec::RUN_SECONDS);
    let mut smoke = false;
    let mut trace_flag = None;
    let mut json_path = None;
    let mut trace_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let index = spec::workload_index(name)
                    .ok_or_else(|| format!("unknown workload {name:?} (see `benchmark list`)"))?;
                if !workloads.contains(&index) {
                    workloads.push(index);
                }
            }
            "--seed" => {
                let text = value("a whole number")?;
                seed = text
                    .parse()
                    .map_err(|_| format!("--seed {text:?} is not a whole number"))?;
            }
            "--seconds" => {
                let text = value("a number of seconds")?;
                seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {text:?} is not in (0, 600]"))?;
            }
            "--trace" => {
                trace_flag = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is not 0 or 1")),
                });
            }
            "--json" => json_path = Some(value("a path")?.clone()),
            "--trace-out" => trace_path = Some(value("a path")?.clone()),
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        workloads = (0..spec::WORKLOADS.len()).collect();
    }
    workloads.sort_unstable();
    Ok(RunArgs {
        opts: run::Options {
            workloads,
            seed,
            seconds,
            smoke,
            timed: trace_flag != Some(true),
            traced: trace_flag != Some(false),
        },
        trace_flag,
        json_path,
        trace_path,
    })
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs {
        opts,
        trace_flag,
        json_path,
        trace_path,
    } = parse_run(args)?;
    // The trainers read this once per run; anything but 1 host thread
    // would measure a different program.
    if std::env::var_os("MLSTAR_HOST_THREADS").is_some() {
        return Err(
            "MLSTAR_HOST_THREADS must be unset: the benchmark measures host_threads = 1".into(),
        );
    }

    let (results, tracers) = run::run(&opts);
    report::print_table(&results);

    if let Some(path) = json_path {
        let stamp = host::Stamp::collect(opts.seed, opts.seconds, opts.smoke);
        std::fs::write(&path, report::result_json(&stamp, &results))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("\nwrote {path}");
    }
    if let Some(path) = trace_path {
        let tracers: Vec<&trace::Tracer> = tracers.iter().collect();
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        std::fs::write(&path, trace::chrome_json(&tracers, &names))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} (open in chrome://tracing or ui.perfetto.dev)");
    }

    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let correct = results.iter().all(run::WorkloadResult::correct);
    println!(
        "\n{} workload(s), {} operation(s) attempted, {failed} failed",
        results.len(),
        results.iter().map(|r| r.attempted).sum::<u64>()
    );
    if let [only] = results.as_slice() {
        println!("{}", report::driver_line(only, trace_flag == Some(true)));
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn list() {
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<30} {}", w.name, w.why);
        println!("  {:<30} unit of work: {}", "", w.unit_of_work);
    }
    println!("\nend-to-end metrics (bound = share of the parent's median it may worsen by):");
    for m in &spec::END_TO_END {
        let bound = m.bound.unwrap_or(0.0);
        println!(
            "  {:<40} {:<8} {:<6} bound {bound:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    println!("\nper-layer metrics:");
    for m in spec::PER_LAYER.iter() {
        println!(
            "  {:<40} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("manifest") => spec::validate().map(|()| {
            print!("{}", spec::manifest_json());
            ExitCode::SUCCESS
        }),
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("diff") => match &args[1..] {
            [a, b] => diff::diff_files(a, b).map(|worse| {
                if worse == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }),
            _ => Err("diff needs exactly two result files".to_string()),
        },
        Some("run") => run_command(&args[1..]),
        _ => run_command(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e} (see --help)");
        ExitCode::from(2)
    })
}
