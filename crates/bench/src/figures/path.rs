//! Exercises the cross-validated lambda-path workload end to end: solves
//! a warm-started coordinate-descent λ path over K folds, schedules the
//! fold chains as parallel round-engine jobs at several executor counts,
//! and reports the per-λ validation curve plus scheduling telemetry.
//!
//! The executor sweep doubles as a live determinism check: fold models,
//! validation curves and the chosen λ must be bit-identical at every
//! executor count — only the simulated timeline may change.

use mlstar_core::{cross_validate_path, CvConfig, CvResult};
use mlstar_data::SyntheticConfig;
use mlstar_glm::{Loss, PathConfig};
use mlstar_sim::{ClusterSpec, NetworkSpec, NodeSpec};

use crate::cli::{Args, Failure, Flag};
use crate::report::{banner, write_json, Json, Table};

pub(super) const FLAGS: &[Flag] = &[
    super::DATASET_FLAG,
    ("--folds", "<k>", "folds (default 5; 3 with --quick)"),
    ("--lambdas", "<n>", "grid size (default 20; 5 with --quick)"),
    ("--l1-ratio", "<a>", "ℓ₁ ratio α in [0,1] (default 1.0)"),
];

/// The pieces of a [`CvResult`] that must not depend on the cluster:
/// every fold model's weight bits, the validation-loss bits, the chosen λ.
type ModelFingerprint = (Vec<u64>, Vec<u64>, usize);

fn model_fingerprint(cv: &CvResult) -> ModelFingerprint {
    let weights = cv.folds.iter().flat_map(|f| f.points.iter());
    let weight_bits = weights.flat_map(|p| p.weights.as_slice().iter().map(|w| w.to_bits()));
    let loss_bits = cv.mean_val_loss.iter().map(|l| l.to_bits());
    (
        weight_bits.collect(),
        loss_bits.collect(),
        cv.best_lambda_idx,
    )
}

/// Runs the path exhibit.
pub fn run(args: &Args) -> Result<(), Failure> {
    let dataset: String = args.get("--dataset", "synthetic".to_owned())?;
    let folds: usize = args.get("--folds", if args.quick { 3 } else { 5 })?;
    let n_lambdas: usize = args.get("--lambdas", if args.quick { 5 } else { 20 })?;
    let l1_ratio: f64 = args.get("--l1-ratio", 1.0)?;
    let synthetic = if args.quick {
        SyntheticConfig::small("path-bench-smoke", 120, 24)
    } else {
        SyntheticConfig::small("path-bench", 1500, 96)
    };
    let ds = super::named_dataset(&dataset, synthetic)?;
    banner(&format!(
        "path — {dataset}: {} examples × {} features, {folds} folds × {n_lambdas} λs (α={l1_ratio})",
        ds.len(),
        ds.num_features(),
    ));

    let cfg = CvConfig {
        loss: Loss::Logistic,
        folds,
        path: PathConfig {
            n_lambdas,
            l1_ratio,
            ..PathConfig::default()
        },
        seed: 42,
    };
    let executor_sweep: &[usize] = if args.quick { &[2, 4] } else { &[2, 4, 8] };

    let mut table = Table::new(
        "executors | jobs | rounds | sweeps | nnz visited | best λ | val loss | makespan",
    );
    let mut runs: Vec<Json> = Vec::new();
    let mut baseline: Option<(ModelFingerprint, CvResult)> = None;
    for &executors in executor_sweep {
        let cluster = ClusterSpec::uniform(executors, NodeSpec::standard(), NetworkSpec::gbps1());
        let cv = cross_validate_path(&ds, &cluster, &cfg)
            .map_err(|e| Failure::contract(format!("cross-validated path: {e}")))?;
        let fp = model_fingerprint(&cv);
        let total_sweeps: usize = cv.jobs.iter().map(|j| j.sweeps).sum();
        // The solver's work count: what the CV scheduler prices as flops.
        let nnz_visited: u64 = cv
            .folds
            .iter()
            .flat_map(|f| f.points.iter())
            .map(|p| p.stats.nnz_visited)
            .sum();
        let best_val_loss = cv.mean_val_loss[cv.best_lambda_idx];
        table.row(&[
            executors.to_string(),
            cv.jobs.len().to_string(),
            cv.round_phases.len().to_string(),
            total_sweeps.to_string(),
            nnz_visited.to_string(),
            format!("{:.5}", cv.best_lambda),
            format!("{best_val_loss:.5}"),
            format!("{:.3}s", cv.makespan_s),
        ]);
        runs.push(Json::obj([
            ("label", format!("executors={executors}").into()),
            ("executors", executors.into()),
            ("folds", folds.into()),
            ("n_lambdas", cv.lambdas.len().into()),
            ("l1_ratio", l1_ratio.into()),
            (
                "grid",
                Json::obj([
                    ("lambda_max", cv.lambda_max.into()),
                    ("best_lambda", cv.best_lambda.into()),
                    ("best_lambda_idx", cv.best_lambda_idx.into()),
                    ("best_val_loss", best_val_loss.into()),
                ]),
            ),
            (
                "work",
                Json::obj([
                    ("jobs", cv.jobs.len().into()),
                    ("total_sweeps", total_sweeps.into()),
                    ("nnz_visited", nnz_visited.into()),
                ]),
            ),
            ("makespan_s", cv.makespan_s.into()),
        ]));
        match &baseline {
            None => baseline = Some((fp, cv)),
            Some((first, _)) if *first != fp => {
                return Err(Failure::contract(format!(
                    "fold models, validation curves or best λ at {executors} executors \
                     differ from {} executors",
                    executor_sweep[0]
                )));
            }
            Some(_) => {}
        }
    }
    table.print();
    println!("\nmodels, validation curves and best λ are bit-identical across the sweep ✔");

    // The regularization path at a glance (from the baseline run).
    if let Some((_, cv)) = &baseline {
        println!("\n    k |        λ | mean val loss | mean nnz");
        for (k, &lambda) in cv.lambdas.iter().enumerate() {
            let mean_nnz: f64 = cv.folds.iter().map(|f| f.points[k].nnz as f64).sum::<f64>()
                / cv.folds.len() as f64;
            println!(
                "{marker} {k:>3} | {lambda:>8.5} | {:>13.6} | {mean_nnz:>8.1}",
                cv.mean_val_loss[k],
                marker = if k == cv.best_lambda_idx { "→" } else { " " },
            );
        }
    }

    if args.json {
        let json = Json::obj([("report", "path_bench".into()), ("runs", Json::Arr(runs))]);
        let path = write_json("path_bench.json", &json);
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
