//! Acceptance tests for the coordinate-descent lambda-path stack:
//!
//! 1. **Solver correctness** — cyclic CD reaches the same optimum as the
//!    full-batch MGD reference on a smooth L2 problem, to ≤ 1e-6
//!    relative objective gap.
//! 2. **Scheduling invariance** — the K-fold cross-validated path
//!    produces bit-identical fold models, validation curves, and chosen
//!    λ at every executor count; only the simulated timeline changes
//!    (and it shrinks as executors are added, since per-job durations
//!    are scheduling-independent).
//! 3. **Pinned output** — literal FNV-1a digests of `fit_path` and
//!    `cross_validate_path` results, so a refactor of the solver stack
//!    that changes any bit fails here, not only in run-vs-run checks.

use mllib_star::codec::fnv1a;
use mllib_star::core::{cross_validate_path, CvConfig, CvResult};
use mllib_star::data::SyntheticConfig;
use mllib_star::glm::{
    cd_fit, fit_path, mgd_step, objective_value, CdConfig, ElasticNet, Loss, PathConfig,
    PathResult, Regularizer,
};
use mllib_star::linalg::{CscMatrix, DenseVector};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};

fn cluster(executors: usize) -> ClusterSpec {
    ClusterSpec::uniform(executors, NodeSpec::standard(), NetworkSpec::gbps1())
}

#[test]
fn cd_matches_the_mgd_reference_optimum_on_l2() {
    let ds = SyntheticConfig::small("cd-vs-mgd", 80, 10).generate();
    let loss = Loss::Squared;
    let reg = Regularizer::L2 { lambda: 0.05 };

    // Coordinate descent, solved tight.
    let cols = CscMatrix::from_rows(ds.rows(), ds.num_features());
    let mut w_cd = DenseVector::zeros(ds.num_features());
    let mut margins = Vec::new();
    let stats = cd_fit(
        &loss,
        &ElasticNet::new(0.05, 0.0),
        &cols,
        ds.labels(),
        &mut w_cd,
        &mut margins,
        &CdConfig {
            max_sweeps: 5000,
            tol: 1e-12,
        },
    )
    .expect("cd solve");
    assert!(stats.converged, "CD must meet tolerance on a tiny problem");

    // Reference: full-batch MGD with a provably stable step, iterated to
    // high precision. The objective's curvature along any direction is
    // bounded by max‖xᵢ‖² + λ for squared loss.
    let max_norm_sq = ds
        .rows()
        .iter()
        .map(|r| r.norm2_sq())
        .fold(0.0f64, f64::max);
    let eta = 0.9 / (max_norm_sq + reg.lambda());
    let batch: Vec<usize> = (0..ds.len()).collect();
    let mut w_mgd = DenseVector::zeros(ds.num_features());
    let mut buf = DenseVector::zeros(ds.num_features());
    for _ in 0..50_000 {
        mgd_step(
            loss,
            reg,
            &mut w_mgd,
            ds.rows(),
            ds.labels(),
            &batch,
            eta,
            &mut buf,
        );
    }

    let f_cd = objective_value(loss, reg, &w_cd, ds.rows(), ds.labels());
    let f_mgd = objective_value(loss, reg, &w_mgd, ds.rows(), ds.labels());
    let gap = (f_cd - f_mgd).abs() / f_mgd.max(1e-12);
    assert!(
        gap <= 1e-6,
        "relative objective gap {gap:.3e} (cd {f_cd:.12} vs mgd {f_mgd:.12})"
    );
}

/// The model-side content of a [`CvResult`]: every fold weight, every
/// validation loss, and the winner — as raw bits.
fn model_bits(cv: &CvResult) -> (Vec<u64>, Vec<u64>, usize, f64) {
    let weights = cv
        .folds
        .iter()
        .flat_map(|f| f.points.iter())
        .flat_map(|p| p.weights.as_slice().iter().map(|w| w.to_bits()))
        .collect();
    let losses = cv.mean_val_loss.iter().map(|l| l.to_bits()).collect();
    (weights, losses, cv.best_lambda_idx, cv.best_lambda)
}

#[test]
fn cv_is_bit_reproducible_across_executor_counts() {
    let ds = SyntheticConfig::small("cv-sched", 90, 16).generate();
    let cfg = CvConfig {
        folds: 3,
        path: PathConfig {
            n_lambdas: 6,
            ..PathConfig::default()
        },
        ..CvConfig::default()
    };

    let runs: Vec<CvResult> = [2usize, 3, 5, 8]
        .iter()
        .map(|&e| cross_validate_path(&ds, &cluster(e), &cfg).expect("cv run"))
        .collect();

    // Identical model math at every executor count.
    let baseline = model_bits(&runs[0]);
    for run in &runs[1..] {
        assert_eq!(
            model_bits(run),
            baseline,
            "fold models / validation curves / best λ must not depend on scheduling"
        );
    }
    // Per-job solver work is scheduling-independent too.
    let work = |cv: &CvResult| -> Vec<(usize, usize, usize, u64)> {
        cv.jobs
            .iter()
            .map(|j| (j.fold, j.lambda_idx, j.sweeps, j.flops.to_bits()))
            .collect()
    };
    for run in &runs[1..] {
        assert_eq!(work(run), work(&runs[0]));
    }

    // The timeline is what changes: every job still runs (folds × λs),
    // and adding executors never lengthens the makespan, because job
    // durations are drawn identically regardless of placement.
    for run in &runs {
        assert_eq!(run.jobs.len(), cfg.folds * run.lambdas.len());
        assert!(run.makespan_s > 0.0);
    }
    for pair in runs.windows(2) {
        assert!(
            pair[1].makespan_s <= pair[0].makespan_s + 1e-12,
            "more executors must not slow the simulated workload: {} → {}",
            pair[0].makespan_s,
            pair[1].makespan_s
        );
    }

    // And the whole result — timeline included — is reproducible
    // run-over-run on the same cluster.
    let again = cross_validate_path(&ds, &cluster(3), &cfg).expect("repeat run");
    assert_eq!(again, runs[1]);
}

/// Every output bit of a solved path: `λ_max`, then per point its λ,
/// weights, nnz, objective and solver telemetry.
fn path_bytes(path: &PathResult) -> Vec<u8> {
    let mut out = path.lambda_max.to_bits().to_le_bytes().to_vec();
    for p in &path.points {
        out.extend(p.lambda.to_bits().to_le_bytes());
        for w in p.weights.as_slice() {
            out.extend(w.to_bits().to_le_bytes());
        }
        out.extend((p.nnz as u64).to_le_bytes());
        out.extend(p.objective.to_bits().to_le_bytes());
        out.extend((p.stats.sweeps as u64).to_le_bytes());
        out.push(u8::from(p.stats.converged));
        out.extend(p.stats.coord_updates.to_le_bytes());
        out.extend(p.stats.nnz_visited.to_le_bytes());
    }
    out
}

#[test]
fn path_and_cv_outputs_are_pinned() {
    let ds = SyntheticConfig::small("cd-pinned", 120, 24).generate();
    let cols = CscMatrix::from_rows(ds.rows(), ds.num_features());
    let expected: [(Loss, f64, u64); 6] = [
        (Loss::Logistic, 1.0, 0xe071dea66873dce3),
        (Loss::Logistic, 0.5, 0x380a4572de450f17),
        (Loss::Logistic, 0.0, 0x5291f0c68614e08d),
        (Loss::Squared, 1.0, 0x70a6e82cdcc726c6),
        (Loss::Squared, 0.5, 0x20587a41d8c15edc),
        (Loss::Squared, 0.0, 0xf2f8d1a549abb9b1),
    ];
    let got = expected.map(|(loss, l1_ratio, _)| {
        let cfg = PathConfig {
            n_lambdas: 8,
            l1_ratio,
            ..PathConfig::default()
        };
        let path = fit_path(&loss, &cols, ds.labels(), &cfg).expect("path solve");
        // The digest must cover real solutions, not a path of zero models.
        assert!(
            path.points.iter().any(|p| p.nnz > 0),
            "{loss:?} α={l1_ratio}"
        );
        (loss, l1_ratio, fnv1a(&path_bytes(&path)))
    });
    assert_eq!(got, expected);

    let cfg = CvConfig {
        folds: 3,
        path: PathConfig {
            n_lambdas: 6,
            ..PathConfig::default()
        },
        ..CvConfig::default()
    };
    let cv = cross_validate_path(&ds, &cluster(3), &cfg).expect("cv run");
    let (weights, losses, best_idx, best_lambda) = model_bits(&cv);
    let mut bytes = Vec::new();
    for bits in weights.iter().chain(&losses) {
        bytes.extend(bits.to_le_bytes());
    }
    bytes.extend((best_idx as u64).to_le_bytes());
    bytes.extend(best_lambda.to_bits().to_le_bytes());
    assert_eq!(fnv1a(&bytes), 0xe9a7fb51f37531e3);
}
