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
//! 4. **Reference loop** — `cd_fit` agrees bit for bit with the plain
//!    coordinate-descent loop that recomputes `l'(m_i, y_i)` at every
//!    nonzero it reads, on random sparse problems stopped mid-trajectory.

use mllib_star::codec::fnv1a;
use mllib_star::core::{cross_validate_path, CvConfig, CvResult};
use mllib_star::data::SyntheticConfig;
use mllib_star::glm::{
    cd_fit, fit_path, lambda_max, mgd_step, objective_value, recompute_margins, CdConfig, CdError,
    CdStats, ElasticNet, Loss, PathConfig, PathResult, Regularizer,
};
use mllib_star::linalg::{CscMatrix, DenseVector, SparseVector};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};
use proptest::prelude::*;

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

#[test]
fn non_finite_labels_are_refused() {
    let rows = [
        SparseVector::from_pairs(3, &[(0, 2.0), (2, 1.0)]).unwrap(),
        SparseVector::from_pairs(3, &[(1, 2.0), (2, 1.0)]).unwrap(),
        SparseVector::from_pairs(3, &[(0, 1.5)]).unwrap(),
        SparseVector::from_pairs(3, &[(1, 1.5)]).unwrap(),
    ];
    let cols = CscMatrix::from_rows(&rows, 3);
    let want = CdError::NonFiniteLabel { row: 1 };
    for y in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let labels = [1.0, y, 1.0, -1.0];
        for loss in [Loss::Logistic, Loss::Squared] {
            let mut w = DenseVector::zeros(3);
            let mut margins = Vec::new();
            let err = cd_fit(
                &loss,
                &ElasticNet::new(0.01, 0.5),
                &cols,
                &labels,
                &mut w,
                &mut margins,
                &CdConfig::default(),
            )
            .expect_err("cd_fit must refuse a non-finite label");
            assert_eq!(err, want, "cd_fit, {loss:?}, label {y}");
            assert!(err.to_string().contains("row 1"), "{err}");
            let err = fit_path(&loss, &cols, &labels, &PathConfig::default())
                .expect_err("fit_path must refuse a non-finite label");
            assert_eq!(err, want, "fit_path, {loss:?}, label {y}");
        }
    }
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

/// Cyclic proximal coordinate descent written the plain way: the loss
/// derivative `l'(m_i, y_i)` is recomputed at every nonzero the gradient
/// reads. The oracle for `cd_fit`, which must match it bit for bit.
fn cd_fit_reference(
    loss: &Loss,
    penalty: &ElasticNet,
    cols: &CscMatrix,
    labels: &[f64],
    w: &mut DenseVector,
    margins: &mut Vec<f64>,
    cfg: &CdConfig,
) -> CdStats {
    let curvature = loss.curvature_bound().expect("a smooth loss");
    recompute_margins(cols, w, margins);

    let n = cols.n_rows() as f64;
    let mut stats = CdStats {
        sweeps: 0,
        converged: cols.n_rows() == 0,
        coord_updates: 0,
        nnz_visited: 0,
    };
    if cols.n_rows() == 0 {
        return stats;
    }

    for _ in 0..cfg.max_sweeps {
        stats.sweeps += 1;
        let mut max_delta = 0.0f64;
        for j in 0..cols.n_cols() {
            let norm_sq = cols.col_norm2_sq(j);
            if norm_sq == 0.0 {
                continue;
            }
            let lj = curvature * norm_sq / n;
            let col = cols.col(j);
            let mut g = 0.0;
            for (i, x) in col.iter() {
                g += x * loss.dloss(margins[i], labels[i]);
            }
            g /= n;
            let wj = w.get(j);
            let new = penalty.prox_1d(wj - g / lj, 1.0 / lj);
            let delta = new - wj;
            stats.coord_updates += 1;
            stats.nnz_visited += col.nnz() as u64;
            if delta != 0.0 {
                w.set(j, new);
                for (i, x) in col.iter() {
                    margins[i] += delta * x;
                }
                stats.nnz_visited += col.nnz() as u64;
            }
            max_delta = max_delta.max(delta.abs());
        }
        if max_delta <= cfg.tol {
            stats.converged = true;
            break;
        }
    }
    stats
}

/// An `n × d` problem drawn from `seed`: about 40 % of the entries are
/// nonzero in [−2, 2], labels are ±1 (logistic) or in [−3, 3] (squared),
/// and about half of the warm start's coordinates are exact zeros.
fn sparse_problem(seed: u64, n: usize, d: usize, loss: Loss) -> (CscMatrix, Vec<f64>, DenseVector) {
    let mut state = seed;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pairs = Vec::new();
        for j in 0..d as u32 {
            if unit() < 0.4 {
                pairs.push((j, 4.0 * unit() - 2.0));
            }
        }
        rows.push(SparseVector::from_pairs(d, &pairs).expect("indices below d"));
        labels.push(match loss {
            Loss::Logistic if unit() < 0.5 => 1.0,
            Loss::Logistic => -1.0,
            _ => 6.0 * unit() - 3.0,
        });
    }
    let w0 = (0..d)
        .map(|_| {
            if unit() < 0.5 {
                0.0
            } else {
                2.0 * unit() - 1.0
            }
        })
        .collect();
    (
        CscMatrix::from_rows(&rows, d),
        labels,
        DenseVector::from_vec(w0),
    )
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Weights, margins and `CdStats` of `cd_fit` equal the reference
    /// loop's after 1–5 sweeps with `tol = 0` (mid-trajectory states, not
    /// converged optima), and after a default-config solve.
    #[test]
    fn cd_fit_matches_the_reference_loop_bit_for_bit(
        seed in any::<u64>(),
        n in 1usize..=40,
        d in 1usize..=12,
        logistic in any::<bool>(),
        l1_ratio in prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
        lambda_frac in prop_oneof![Just(1.0), 0.001f64..1.0],
        sweeps in 0usize..=5,
    ) {
        let loss = if logistic { Loss::Logistic } else { Loss::Squared };
        let (cols, labels, w0) = sparse_problem(seed, n, d, loss);
        let lambda = lambda_max(&loss, &cols, &labels, l1_ratio) * lambda_frac;
        let pen = ElasticNet::new(lambda, l1_ratio);
        let cfg = match sweeps {
            0 => CdConfig::default(),
            s => CdConfig { max_sweeps: s, tol: 0.0 },
        };

        let (mut w_ref, mut m_ref) = (w0.clone(), Vec::new());
        let want = cd_fit_reference(&loss, &pen, &cols, &labels, &mut w_ref, &mut m_ref, &cfg);
        let (mut w, mut m) = (w0, Vec::new());
        let got = cd_fit(&loss, &pen, &cols, &labels, &mut w, &mut m, &cfg).expect("cd solve");

        prop_assert_eq!(got, want);
        prop_assert_eq!(bits(w.as_slice()), bits(w_ref.as_slice()));
        prop_assert_eq!(bits(&m), bits(&m_ref));
    }
}
