//! K-fold cross-validated lambda paths as a simulated cluster workload.
//!
//! Path CV is the canonical embarrassingly parallel training workload the
//! round engine had never been exercised on: K folds × L lambdas, where
//! the *folds* are independent but the lambdas within a fold are
//! sequential (each solve warm-starts the next — the invariant
//! `mlstar_glm::fit_path_on_grid` documents). The scheduler here maps that
//! shape onto the simulated cluster:
//!
//! * every fold's path runs as a chain of jobs on one executor
//!   (fold `f` → executor `f mod E`, deterministically);
//! * one BSP round per lambda index, so job `(f, k)` runs in round `k`
//!   and the barrier models the driver collecting validation losses;
//! * per-job telemetry (sweeps, flops, simulated start/end) comes from the
//!   actual coordinate-descent work counters, not estimates.
//!
//! The solver math never sees the cluster: fold models, validation losses
//! and the chosen λ are bit-identical for any executor count — only the
//! simulated timeline changes. `tests/path_cv.rs` pins exactly that.

use mlstar_data::SparseDataset;
use mlstar_glm::{fit_path_on_grid, lambda_grid, lambda_max, CdError, Loss, PathConfig, PathPoint};
use mlstar_linalg::CscMatrix;
use mlstar_sim::{
    dense_op_flops, pass_flops, Activity, ClusterSpec, CostModel, GanttRecorder, NodeId,
    PhaseTotals, RoundBuilder, SeedStream, SimTime,
};
use rand::seq::SliceRandom;

/// Configuration of a K-fold cross-validated lambda path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvConfig {
    /// The (smooth) loss to fit. Hinge has no curvature bound and is
    /// rejected by the coordinate-descent solver.
    pub loss: Loss,
    /// Number of folds K ≥ 2.
    pub folds: usize,
    /// Path settings shared by every fold (grid size, ε, ℓ₁ ratio, CD
    /// tolerances).
    pub path: PathConfig,
    /// Seed for the fold split (the only randomness in the workload).
    pub seed: u64,
}

impl Default for CvConfig {
    fn default() -> Self {
        CvConfig {
            loss: Loss::Logistic,
            folds: 5,
            path: PathConfig::default(),
            seed: 42,
        }
    }
}

/// Why cross-validation refused to run.
#[derive(Debug, Clone, PartialEq)]
pub enum CvError {
    /// Fewer than two folds requested.
    BadFolds(usize),
    /// Not enough examples to populate every fold.
    NotEnoughData {
        /// Examples available.
        rows: usize,
        /// Folds requested.
        folds: usize,
    },
    /// The underlying coordinate-descent solver refused (nonsmooth loss,
    /// shape mismatch, non-finite label).
    Solver(CdError),
}

impl std::fmt::Display for CvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CvError::BadFolds(k) => write!(f, "cross-validation needs at least 2 folds, got {k}"),
            CvError::NotEnoughData { rows, folds } => {
                write!(f, "{rows} examples cannot populate {folds} folds")
            }
            CvError::Solver(e) => write!(f, "path solver refused: {e}"),
        }
    }
}

impl From<CdError> for CvError {
    fn from(e: CdError) -> Self {
        CvError::Solver(e)
    }
}

impl std::error::Error for CvError {}

/// Telemetry for one scheduled job: fold `f` solving lambda index `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvJobStats {
    /// Fold index.
    pub fold: usize,
    /// Lambda index within the grid (0 = λ_max).
    pub lambda_idx: usize,
    /// The λ value solved.
    pub lambda: f64,
    /// Executor the job was placed on (`fold mod executors`).
    pub executor: usize,
    /// Coordinate-descent sweeps the solve took.
    pub sweeps: usize,
    /// Whether the solve met tolerance.
    pub converged: bool,
    /// Simulated flops charged for the job (CD work + validation scoring).
    pub flops: f64,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated end time, seconds.
    pub end_s: f64,
}

/// One fold's share of the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CvFoldResult {
    /// Fold index.
    pub fold: usize,
    /// Held-out examples in this fold.
    pub val_rows: usize,
    /// The fold's warm-started path over the shared grid.
    pub points: Vec<PathPoint>,
    /// Mean held-out loss per lambda (same order as the grid).
    pub val_losses: Vec<f64>,
}

/// The outcome of [`cross_validate_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// `λ_max` computed on the full dataset.
    pub lambda_max: f64,
    /// The shared lambda grid, decreasing.
    pub lambdas: Vec<f64>,
    /// Per-fold paths and validation curves.
    pub folds: Vec<CvFoldResult>,
    /// Validation loss per lambda, averaged over folds.
    pub mean_val_loss: Vec<f64>,
    /// Index into `lambdas` of the best (lowest mean validation loss)
    /// point; ties break toward the stronger λ.
    pub best_lambda_idx: usize,
    /// The chosen λ.
    pub best_lambda: f64,
    /// Per-job scheduling telemetry, in `(lambda_idx, fold)` order.
    pub jobs: Vec<CvJobStats>,
    /// Per-round phase breakdown (one round per lambda index).
    pub round_phases: Vec<PhaseTotals>,
    /// End of the simulated timeline, seconds.
    pub makespan_s: f64,
}

/// Deterministic fold assignment: a seeded shuffle of the row indices,
/// dealt round-robin. Returns `fold_of[row]`.
fn assign_folds(n: usize, folds: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut SeedStream::new(seed).child("cv-folds").rng());
    let mut fold_of = vec![0usize; n];
    for (pos, &row) in order.iter().enumerate() {
        fold_of[row] = pos % folds;
    }
    fold_of
}

/// Runs a K-fold cross-validated, warm-started lambda path on the
/// simulated cluster.
///
/// The grid is computed once from the full dataset so every fold solves
/// the same lambdas; each fold's chain of solves is scheduled on one
/// executor with one BSP round per lambda index. See the module docs for
/// the determinism contract.
///
/// # Errors
///
/// [`CvError::BadFolds`] / [`CvError::NotEnoughData`] on a degenerate
/// split, [`CvError::Solver`] if coordinate descent rejects the loss.
pub fn cross_validate_path(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &CvConfig,
) -> Result<CvResult, CvError> {
    if cfg.folds < 2 {
        return Err(CvError::BadFolds(cfg.folds));
    }
    if ds.len() < cfg.folds {
        return Err(CvError::NotEnoughData {
            rows: ds.len(),
            folds: cfg.folds,
        });
    }

    // The shared grid, anchored at the full-dataset λ_max.
    let full_cols = CscMatrix::from_rows(ds.rows(), ds.num_features());
    let lmax = lambda_max(&cfg.loss, &full_cols, ds.labels(), cfg.path.l1_ratio);
    let lambdas = lambda_grid(lmax, cfg.path.n_lambdas, cfg.path.eps);
    drop(full_cols);

    let fold_of = assign_folds(ds.len(), cfg.folds, cfg.seed);

    // Solve every fold's path. Pure math — no cluster state in sight, so
    // the scheduling below cannot perturb it.
    let mut folds = Vec::with_capacity(cfg.folds);
    let mut val_nnz = Vec::with_capacity(cfg.folds);
    for f in 0..cfg.folds {
        let train_idx: Vec<usize> = (0..ds.len()).filter(|&i| fold_of[i] != f).collect();
        let val_idx: Vec<usize> = (0..ds.len()).filter(|&i| fold_of[i] == f).collect();
        let train = ds.subset(&train_idx);
        let cols = CscMatrix::from_rows(train.rows(), train.num_features());
        let points = fit_path_on_grid(
            &cfg.loss,
            &cols,
            train.labels(),
            &lambdas,
            cfg.path.l1_ratio,
            &cfg.path.cd,
        )?;

        let mut losses = Vec::with_capacity(points.len());
        let mut held_nnz = 0usize;
        for p in &points {
            let mut total = 0.0;
            for &i in &val_idx {
                let m = p.weights.dot_sparse(&ds.rows()[i]);
                total += cfg.loss.value(m, ds.labels()[i]);
            }
            losses.push(total / val_idx.len() as f64);
        }
        for &i in &val_idx {
            held_nnz += ds.rows()[i].nnz();
        }
        val_nnz.push(held_nnz);
        folds.push(CvFoldResult {
            fold: f,
            val_rows: val_idx.len(),
            points,
            val_losses: losses,
        });
    }

    // Mean validation curve and the winning λ (ties → stronger λ, i.e.
    // the first index, following the usual parsimony convention).
    let mut mean_val_loss = Vec::with_capacity(lambdas.len());
    for k in 0..lambdas.len() {
        let total: f64 = folds.iter().map(|f| f.val_losses[k]).sum();
        mean_val_loss.push(total / folds.len() as f64);
    }
    let mut best_lambda_idx = 0;
    for (k, &loss) in mean_val_loss.iter().enumerate() {
        if loss < mean_val_loss[best_lambda_idx] {
            best_lambda_idx = k;
        }
    }

    // Schedule the fold chains onto the cluster: round k runs every
    // fold's λ_k job in parallel, placed by `fold mod executors`; the
    // round barrier models the driver collecting that λ's validation
    // losses. Job durations come from the solver's own work counters.
    let cost = CostModel::new(cluster.clone());
    let executors = cost.num_executors().max(1);
    let nodes: Vec<NodeId> = (0..executors).map(NodeId::Executor).collect();
    let mut gantt = GanttRecorder::new();
    let mut rng = SeedStream::new(cfg.seed).child("cv-sim").rng();
    let mut jobs = Vec::with_capacity(cfg.folds * lambdas.len());
    let mut round_phases = Vec::with_capacity(lambdas.len());
    let mut clock = SimTime::ZERO;
    let dim = ds.num_features();
    for (k, &lambda) in lambdas.iter().enumerate() {
        let mut round = RoundBuilder::new(&mut gantt, k as u64, clock, &nodes);
        for (f, fold) in folds.iter().enumerate() {
            let ex = f % executors;
            let stats = fold.points[k].stats;
            // CD work (each visited nonzero is a dot+axpy pair, like a
            // training pass) + one prox/bookkeeping sweep over the dense
            // weights per CD sweep + scoring the held-out rows once.
            let flops = pass_flops(stats.nnz_visited as usize)
                + dense_op_flops(dim) * stats.sweeps as f64
                + pass_flops(val_nnz[f]);
            let start = round.clock(NodeId::Executor(ex));
            let duration = cost.executor_compute(ex, flops, &mut rng);
            round.work(NodeId::Executor(ex), Activity::Compute, duration);
            let end = round.clock(NodeId::Executor(ex));
            jobs.push(CvJobStats {
                fold: f,
                lambda_idx: k,
                lambda,
                executor: ex,
                sweeps: stats.sweeps,
                converged: stats.converged,
                flops,
                start_s: start.as_secs_f64(),
                end_s: end.as_secs_f64(),
            });
        }
        let (end, phases) = round.finish_with_phases();
        round_phases.push(phases);
        clock = end;
    }
    Ok(CvResult {
        lambda_max: lmax,
        best_lambda: lambdas[best_lambda_idx],
        lambdas,
        folds,
        mean_val_loss,
        best_lambda_idx,
        jobs,
        round_phases,
        makespan_s: gantt.makespan().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_sim::{NetworkSpec, NodeSpec};

    fn tiny() -> SparseDataset {
        SyntheticConfig::small("cv", 60, 12).generate()
    }

    fn cluster(executors: usize) -> ClusterSpec {
        ClusterSpec::uniform(executors, NodeSpec::standard(), NetworkSpec::gbps1())
    }

    fn cfg() -> CvConfig {
        CvConfig {
            folds: 3,
            path: PathConfig {
                n_lambdas: 4,
                ..PathConfig::default()
            },
            ..CvConfig::default()
        }
    }

    #[test]
    fn rejects_degenerate_splits() {
        let ds = tiny();
        let err = cross_validate_path(&ds, &cluster(2), &CvConfig { folds: 1, ..cfg() });
        assert_eq!(err.unwrap_err(), CvError::BadFolds(1));
        let small = SyntheticConfig::small("cv-small", 2, 4).generate();
        let err = cross_validate_path(&small, &cluster(2), &CvConfig { folds: 3, ..cfg() });
        assert!(matches!(
            err.unwrap_err(),
            CvError::NotEnoughData { rows: 2, folds: 3 }
        ));
    }

    #[test]
    fn rejects_hinge() {
        let ds = tiny();
        let err = cross_validate_path(
            &ds,
            &cluster(2),
            &CvConfig {
                loss: Loss::Hinge,
                ..cfg()
            },
        );
        assert!(matches!(err.unwrap_err(), CvError::Solver(_)));
    }

    #[test]
    fn folds_partition_the_rows() {
        let fold_of = assign_folds(10, 3, 7);
        assert_eq!(fold_of.len(), 10);
        let mut counts = [0usize; 3];
        for &f in &fold_of {
            counts[f] += 1;
        }
        // Round-robin deal: sizes differ by at most one.
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| (3..=4).contains(&c)), "{counts:?}");
        // Deterministic.
        assert_eq!(fold_of, assign_folds(10, 3, 7));
        assert_ne!(fold_of, assign_folds(10, 3, 8));
    }

    #[test]
    fn produces_full_telemetry() {
        let ds = tiny();
        let r = cross_validate_path(&ds, &cluster(2), &cfg()).unwrap();
        assert_eq!(r.lambdas.len(), 4);
        assert_eq!(r.folds.len(), 3);
        assert_eq!(r.jobs.len(), 12);
        assert_eq!(r.round_phases.len(), 4);
        assert_eq!(r.mean_val_loss.len(), 4);
        assert!(r.best_lambda_idx < 4);
        assert_eq!(r.best_lambda, r.lambdas[r.best_lambda_idx]);
        assert!(r.makespan_s > 0.0);
        for j in &r.jobs {
            assert!(j.end_s >= j.start_s);
            assert_eq!(j.executor, j.fold % 2);
            assert!(j.flops > 0.0);
            assert_eq!(j.lambda, r.lambdas[j.lambda_idx]);
        }
        // Jobs of the same executor never overlap.
        for a in &r.jobs {
            for b in &r.jobs {
                if a.executor == b.executor && (a.fold, a.lambda_idx) != (b.fold, b.lambda_idx) {
                    assert!(a.end_s <= b.start_s + 1e-12 || b.end_s <= a.start_s + 1e-12);
                }
            }
        }
    }

    #[test]
    fn warm_chains_are_sequential_within_a_fold() {
        let ds = tiny();
        let r = cross_validate_path(&ds, &cluster(3), &cfg()).unwrap();
        for f in 0..3 {
            let mut chain: Vec<&CvJobStats> = r.jobs.iter().filter(|j| j.fold == f).collect();
            chain.sort_by_key(|j| j.lambda_idx);
            for pair in chain.windows(2) {
                assert!(
                    pair[1].start_s >= pair[0].end_s - 1e-12,
                    "fold {f}: λ_{} started before λ_{} finished",
                    pair[1].lambda_idx,
                    pair[0].lambda_idx
                );
            }
        }
    }
}
