//! Calibrates the simulator's cost model against a *real* training run
//! (`DESIGN.md` §15.4): trains one system on the `mlstar-net` thread
//! backend, fits GFLOP/s, bytes/s and per-message latency from the
//! measured per-worker round timings of the linked workers (the last
//! worker runs in process on the orchestrating thread, with no frames)
//! by least squares, re-simulates the
//! same training under the fitted cluster, and reports measured vs.
//! simulated makespan. A rate the run did not identify (non-positive
//! coefficient, floored) is reported as clamped, not as a number.
//!
//! Asserted: the net-trained weights are bit-identical to the
//! re-simulated ones (a cluster changes the clock, never the math).

use mlstar_core::{AngelConfig, PsSystemConfig, System, TrainConfig};
use mlstar_data::SyntheticConfig;
use mlstar_net::{train_net, NetConfig, NetTrainOutput, TransportKind};
use mlstar_sim::{fit_rates, ClusterSpec, NetworkSpec, NodeSpec, RateSample};

use crate::cli::{Args, Failure, Flag};
use crate::report::{banner, write_json, Json, Table};

pub(super) const FLAGS: &[Flag] = &[
    super::SYSTEM_FLAG,
    ("--transport", "<channel|tcp>", "default channel"),
    (
        "--workers",
        "<k>",
        "workers (default 4): k − 1 threads plus the calling thread",
    ),
    ("--rounds", "<n>", "rounds (default 8; 4 with --quick)"),
];

/// What the table and the JSON say in place of a floored rate.
const CLAMPED: &str = "clamped (not identified by this run)";

/// Runs the net-calibrate exhibit.
pub fn run(args: &Args) -> Result<(), Failure> {
    let system: System = args.get("--system", System::MllibStar)?;
    let transport_name: String = args.get("--transport", "channel".to_owned())?;
    let transport = match transport_name.as_str() {
        "channel" => TransportKind::Channel,
        "tcp" => TransportKind::Tcp,
        other => {
            return Err(Failure::bad_args(format!(
                "unknown transport {other:?} (see --help)"
            )))
        }
    };
    let workers: usize = args.get("--workers", 4)?;
    let rounds: u64 = args.get("--rounds", if args.quick { 4 } else { 8 })?;
    let (rows, feats) = if args.quick { (180, 24) } else { (600, 48) };
    let cluster = ClusterSpec::uniform(workers, NodeSpec::standard(), NetworkSpec::gbps1());
    let cfg = TrainConfig {
        max_rounds: rounds,
        ..TrainConfig::default()
    };
    let ps = PsSystemConfig::default();
    let angel = AngelConfig::default();
    let net_cfg = NetConfig {
        transport,
        ..NetConfig::default()
    };

    // The measured run on real threads, plus two smaller probe runs.
    // Within one balanced run every worker ships the same bytes per
    // round, which leaves the regression rank-deficient; varying the
    // dataset size varies the bytes column so all three rates are
    // identifiable.
    let datasets = [rows, rows * 2 / 3, rows / 3]
        .map(|probe_rows| SyntheticConfig::small("net-calibrate", probe_rows, feats).generate());
    let ds = &datasets[0];
    banner(&format!(
        "net-calibrate — {system} on {transport_name} transport: {} examples × {} features, \
         {workers} workers × {rounds} rounds",
        ds.len(),
        ds.num_features(),
    ));
    let runs = datasets
        .iter()
        .map(|probe| train_net(system, probe, &cluster, &cfg, &ps, &angel, &net_cfg))
        .collect::<Result<Vec<NetTrainOutput>, _>>()
        .map_err(|e| Failure::contract(format!("net-backend run failed: {e}")))?;
    let run = &runs[0];
    let measured_s: f64 = run.batches.iter().map(|b| b.wall_s).sum();
    println!(
        "measured: {} dispatch batches in {:.3}s wall ({:.1} batches/s), {:.4}s inside rounds",
        run.batches.len(),
        run.wall_s,
        run.batches_per_sec(),
        measured_s,
    );

    // Fit the cost model from the per-worker round timings of all runs.
    // The last worker runs in process on the orchestrating thread: it
    // moves no frames and its turnaround holds no codec or transport, so
    // only the linked workers' samples are fitted.
    let samples: Vec<RateSample> = runs
        .iter()
        .flat_map(|run| run.batches.iter().flat_map(|b| b.workers.iter()))
        .filter(|w| !w.local)
        .map(|w| RateSample {
            flops: w.flops,
            bytes: (w.bytes_out + w.bytes_in) as f64,
            messages: w.messages as f64,
            seconds: w.turnaround_s,
        })
        .collect();
    let rates = fit_rates(&samples).ok_or_else(|| {
        Failure::contract(format!(
            "rate fit is rank-deficient ({} samples from linked workers) — need more \
             workers (at least 2) or rounds",
            samples.len()
        ))
    })?;
    println!(
        "fitted from {} samples of the {} linked workers; worker {} ran on the orchestrating \
         thread",
        samples.len(),
        workers.saturating_sub(1),
        workers.saturating_sub(1),
    );

    // Re-simulate the identical training under the fitted cluster and
    // compare makespans. Only the simulated clock may differ: the weights
    // must stay bit-identical to the net-backed run.
    let resim = system.train(ds, &rates.cluster(workers), &cfg, &ps, &angel);
    if super::weight_bits(&run.output) != super::weight_bits(&resim) {
        return Err(Failure::contract(
            "weights differ between the net run and the re-simulation",
        ));
    }
    let simulated_s: f64 = resim.round_stats.iter().map(|r| r.elapsed_s).sum();
    let error_pct = if measured_s > 0.0 {
        (simulated_s - measured_s).abs() / measured_s * 100.0
    } else {
        f64::INFINITY
    };

    // A floored coefficient is not a measurement: say so instead.
    let fitted = [rates.gflops, rates.bandwidth_bps, rates.latency_s];
    let shown = |i: usize, text: String| {
        if rates.clamped[i] {
            CLAMPED.to_owned()
        } else {
            text
        }
    };
    let rate_json = |i: usize| {
        if rates.clamped[i] {
            Json::from(CLAMPED)
        } else {
            Json::from(fitted[i])
        }
    };
    let mut table = Table::new("quantity | value");
    for (quantity, value) in [
        ("fitted GFLOP/s", shown(0, format!("{:.3}", fitted[0]))),
        (
            "fitted bandwidth",
            shown(1, format!("{:.1} MB/s", fitted[1] / 1e6)),
        ),
        (
            "fitted latency",
            shown(2, format!("{:.1} µs", fitted[2] * 1e6)),
        ),
        ("measured makespan", format!("{measured_s:.4}s")),
        ("simulated makespan", format!("{simulated_s:.4}s")),
        ("makespan error", format!("{error_pct:.1}%")),
    ] {
        table.row(&[quantity.into(), value]);
    }
    table.print();
    println!("\nweights are bit-identical between net run and re-simulation ✔");

    if args.json {
        let json = Json::obj([
            ("report", "net_calibrate".into()),
            ("system", system.name().into()),
            ("transport", transport_name.into()),
            ("workers", workers.into()),
            ("rounds", run.output.rounds_run.into()),
            ("dispatch_batches", run.batches.len().into()),
            ("fit_samples", samples.len().into()),
            (
                "rates",
                Json::obj([
                    ("gflops", rate_json(0)),
                    ("bandwidth_bps", rate_json(1)),
                    ("latency_s", rate_json(2)),
                ]),
            ),
            (
                "makespan",
                Json::obj([
                    ("measured_s", measured_s.into()),
                    ("simulated_s", simulated_s.into()),
                    ("error_pct", error_pct.into()),
                ]),
            ),
            ("wall_s", run.wall_s.into()),
            ("batches_per_sec", run.batches_per_sec().into()),
        ]);
        let path = write_json("net_calibrate.json", &json);
        println!("wrote {}", path.display());
    }
    Ok(())
}
