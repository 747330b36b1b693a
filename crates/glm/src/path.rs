//! Warm-started regularization paths (glmnet-style).
//!
//! A lasso/elastic-net model is rarely fit at one λ: the useful object is
//! the *path* — solutions at a geometric grid of strengths from
//! `λ_max` (the smallest λ whose solution is exactly zero) down to
//! `ε·λ_max`. Fitting the grid in decreasing order and warm-starting each
//! solve from the previous solution makes the whole path cost a small
//! multiple of a single solve, because neighboring λ's solutions are
//! close.
//!
//! Invariants the K-fold CV scheduler in `mlstar-core` leans on:
//!
//! * the grid is a pure function of `(λ_max, n_lambdas, eps)` — no RNG;
//! * within one grid the fits are *sequential* (each warm-starts the
//!   next), while separate folds are independent — that is exactly the
//!   parallelism shape the scheduler exploits;
//! * results depend only on the inputs, never on scheduling.

use mlstar_linalg::{CscMatrix, DenseVector};

use crate::cd::{cd_fit, cd_objective, CdConfig, CdError, CdStats};
use crate::{ElasticNet, Loss};

/// ℓ₁ ratios below this are clamped when computing `λ_max`: as `α → 0`
/// the lasso zero-threshold `λ_max = max_j |g_j(0)| / α` diverges, so pure
/// ridge paths start from the `α = 0.001` strength, following glmnet.
pub const MIN_L1_RATIO_FOR_LAMBDA_MAX: f64 = 1e-3;

/// Configuration of a warm-started lambda path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathConfig {
    /// Number of grid points (≥ 1).
    pub n_lambdas: usize,
    /// Grid floor as a fraction of `λ_max` (the grid spans
    /// `[ε·λ_max, λ_max]` geometrically).
    pub eps: f64,
    /// Elastic-net mixing `α ∈ [0, 1]` shared by every grid point.
    pub l1_ratio: f64,
    /// Per-point coordinate-descent settings.
    pub cd: CdConfig,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            n_lambdas: 20,
            eps: 1e-2,
            l1_ratio: 1.0,
            cd: CdConfig::default(),
        }
    }
}

/// One solved point of a lambda path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPoint {
    /// Regularization strength λ.
    pub lambda: f64,
    /// The solution at this λ.
    pub weights: DenseVector,
    /// Exact-nonzero count of the solution (the sparsity the path trades
    /// against fit).
    pub nnz: usize,
    /// Regularized training objective at the solution.
    pub objective: f64,
    /// Solver telemetry for this point.
    pub stats: CdStats,
}

/// A solved lambda path, in decreasing-λ order.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// The `λ_max` the grid was anchored at.
    pub lambda_max: f64,
    /// The solved points, `points[k].lambda` strictly decreasing.
    pub points: Vec<PathPoint>,
}

impl PathResult {
    /// Total coordinate-descent sweeps across the path.
    pub fn total_sweeps(&self) -> usize {
        self.points.iter().map(|p| p.stats.sweeps).sum()
    }
}

/// The smallest λ at which the elastic-net solution is exactly zero:
/// `λ_max = max_j |(1/n) Σ_i x_ij · l'(0, y_i)| / max(α, 0.001)`.
///
/// Returns `0.0` for an empty matrix (every λ then yields the zero
/// model).
pub fn lambda_max(loss: &Loss, cols: &CscMatrix, labels: &[f64], l1_ratio: f64) -> f64 {
    if cols.n_rows() == 0 {
        return 0.0;
    }
    let n = cols.n_rows() as f64;
    let mut best = 0.0f64;
    for j in 0..cols.n_cols() {
        let mut g = 0.0;
        for (i, x) in cols.col(j).iter() {
            g += x * loss.dloss(0.0, labels[i]);
        }
        best = best.max((g / n).abs());
    }
    best / l1_ratio.max(MIN_L1_RATIO_FOR_LAMBDA_MAX)
}

/// The geometric grid `λ_k = λ_max · ε^(k/(K−1))`, `k = 0..K`, in
/// decreasing order; a single-point grid is `[λ_max]`.
///
/// # Panics
///
/// Panics if `n_lambdas == 0` or `eps ∉ (0, 1]`.
pub fn lambda_grid(lambda_max: f64, n_lambdas: usize, eps: f64) -> Vec<f64> {
    assert!(n_lambdas >= 1, "a path needs at least one lambda");
    assert!(
        eps > 0.0 && eps <= 1.0,
        "grid floor eps must be in (0, 1], got {eps}"
    );
    let mut out = Vec::with_capacity(n_lambdas);
    if n_lambdas == 1 {
        out.push(lambda_max);
        return out;
    }
    let denom = (n_lambdas - 1) as f64;
    for k in 0..n_lambdas {
        out.push(lambda_max * eps.powf(k as f64 / denom));
    }
    out
}

/// Fits a warm-started path over an explicit λ grid (assumed decreasing;
/// each solve starts from the previous solution, the first from zeros).
///
/// This is the entry point the CV scheduler uses so that every fold
/// solves the *same* grid (computed once from the full dataset).
///
/// # Errors
///
/// Propagates [`CdError`] from the underlying solver, a NaN or infinite
/// label ([`CdError::NonFiniteLabel`]) included.
pub fn fit_path_on_grid(
    loss: &Loss,
    cols: &CscMatrix,
    labels: &[f64],
    lambdas: &[f64],
    l1_ratio: f64,
    cd: &CdConfig,
) -> Result<Vec<PathPoint>, CdError> {
    let mut points = Vec::with_capacity(lambdas.len());
    let mut w = DenseVector::zeros(cols.n_cols());
    let mut margins = Vec::with_capacity(cols.n_rows());
    for &lambda in lambdas {
        let pen = ElasticNet::new(lambda, l1_ratio);
        let stats = cd_fit(loss, &pen, cols, labels, &mut w, &mut margins, cd)?;
        let objective = cd_objective(loss, &pen, &margins, labels, &w);
        points.push(PathPoint {
            lambda,
            // lint:allow(hot_loop_alloc): the per-λ snapshot is the path's output, not a loop temporary
            weights: w.clone(),
            nnz: w.count_nonzero(),
            objective,
            stats,
        });
    }
    Ok(points)
}

/// Fits the full warm-started path: computes `λ_max`, lays the geometric
/// grid, and solves it in decreasing order.
///
/// # Errors
///
/// Propagates [`CdError`] from the underlying solver, a NaN or infinite
/// label ([`CdError::NonFiniteLabel`]) included.
///
/// # Panics
///
/// Panics if `cfg.n_lambdas == 0`, `cfg.eps ∉ (0, 1]`, or
/// `cfg.l1_ratio ∉ [0, 1]`.
pub fn fit_path(
    loss: &Loss,
    cols: &CscMatrix,
    labels: &[f64],
    cfg: &PathConfig,
) -> Result<PathResult, CdError> {
    let lmax = lambda_max(loss, cols, labels, cfg.l1_ratio);
    let lambdas = lambda_grid(lmax, cfg.n_lambdas, cfg.eps);
    let points = fit_path_on_grid(loss, cols, labels, &lambdas, cfg.l1_ratio, &cfg.cd)?;
    Ok(PathResult {
        lambda_max: lmax,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cd::recompute_margins;
    use mlstar_linalg::SparseVector;

    fn toy() -> (Vec<SparseVector>, Vec<f64>) {
        let rows = vec![
            SparseVector::from_pairs(3, &[(0, 2.0), (2, 1.0)]).unwrap(),
            SparseVector::from_pairs(3, &[(1, 2.0), (2, 1.0)]).unwrap(),
            SparseVector::from_pairs(3, &[(0, 1.5)]).unwrap(),
            SparseVector::from_pairs(3, &[(1, 1.5)]).unwrap(),
        ];
        (rows, vec![1.0, -1.0, 1.0, -1.0])
    }

    #[test]
    fn grid_is_geometric_and_decreasing() {
        let g = lambda_grid(1.0, 5, 1e-2);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], 1.0);
        assert!((g[4] - 0.01).abs() < 1e-12);
        for w in g.windows(2) {
            assert!(w[0] > w[1]);
            // Constant ratio.
            assert!((w[1] / w[0] - g[1] / g[0]).abs() < 1e-9);
        }
        assert_eq!(lambda_grid(2.0, 1, 0.5), vec![2.0]);
    }

    #[test]
    fn lambda_max_zeroes_the_model() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let lmax = lambda_max(&Loss::Logistic, &cols, &labels, 1.0);
        assert!(lmax > 0.0);
        // At λ ≥ λ_max the lasso solution from zero stays exactly zero.
        let mut w = DenseVector::zeros(3);
        let mut margins = Vec::new();
        cd_fit(
            &Loss::Logistic,
            &ElasticNet::new(lmax * 1.0001, 1.0),
            &cols,
            &labels,
            &mut w,
            &mut margins,
            &CdConfig::default(),
        )
        .unwrap();
        assert_eq!(w.count_nonzero(), 0, "{w:?}");
        // Just below λ_max a coordinate activates.
        let mut w = DenseVector::zeros(3);
        cd_fit(
            &Loss::Logistic,
            &ElasticNet::new(lmax * 0.9, 1.0),
            &cols,
            &labels,
            &mut w,
            &mut margins,
            &CdConfig::default(),
        )
        .unwrap();
        assert!(w.count_nonzero() > 0);
    }

    #[test]
    fn lambda_max_clamps_small_l1_ratio() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let pure_ridge = lambda_max(&Loss::Logistic, &cols, &labels, 0.0);
        let clamped = lambda_max(&Loss::Logistic, &cols, &labels, MIN_L1_RATIO_FOR_LAMBDA_MAX);
        assert!(pure_ridge.is_finite());
        assert_eq!(pure_ridge.to_bits(), clamped.to_bits());
    }

    #[test]
    fn path_sparsity_grows_as_lambda_shrinks() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let cfg = PathConfig {
            n_lambdas: 8,
            ..PathConfig::default()
        };
        let path = fit_path(&Loss::Logistic, &cols, &labels, &cfg).unwrap();
        assert_eq!(path.points.len(), 8);
        // First point sits at λ_max: zero model.
        assert_eq!(path.points[0].nnz, 0);
        // nnz is monotone nondecreasing along this toy path, and the last
        // point fits more than the first.
        for w in path.points.windows(2) {
            assert!(w[1].nnz >= w[0].nnz, "{:?}", path.points);
            assert!(w[0].lambda > w[1].lambda);
        }
        assert!(path.points.last().unwrap().nnz >= 2);
        assert!(path.total_sweeps() >= 8);
    }

    #[test]
    fn warm_start_matches_cold_start_solutions() {
        // The warm-started path must land on the same optima a cold solve
        // at each λ finds (to solver tolerance) — warm starting is a
        // speedup, not a different algorithm.
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let cfg = PathConfig {
            n_lambdas: 5,
            cd: CdConfig {
                max_sweeps: 5000,
                tol: 1e-12,
            },
            ..PathConfig::default()
        };
        let path = fit_path(&Loss::Logistic, &cols, &labels, &cfg).unwrap();
        for p in &path.points {
            let mut cold = DenseVector::zeros(3);
            let mut margins = Vec::new();
            cd_fit(
                &Loss::Logistic,
                &ElasticNet::new(p.lambda, 1.0),
                &cols,
                &labels,
                &mut cold,
                &mut margins,
                &cfg.cd,
            )
            .unwrap();
            for i in 0..3 {
                assert!(
                    (cold.get(i) - p.weights.get(i)).abs() < 1e-8,
                    "λ={} coord {i}: cold {} vs warm {}",
                    p.lambda,
                    cold.get(i),
                    p.weights.get(i)
                );
            }
        }
    }

    #[test]
    fn path_objective_is_consistent_with_weights() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let path = fit_path(&Loss::Squared, &cols, &labels, &PathConfig::default()).unwrap();
        for p in &path.points {
            let mut margins = Vec::new();
            recompute_margins(&cols, &p.weights, &mut margins);
            let pen = ElasticNet::new(p.lambda, 1.0);
            let expect = cd_objective(&Loss::Squared, &pen, &margins, &labels, &p.weights);
            assert!((p.objective - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn path_is_bit_deterministic() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let cfg = PathConfig::default();
        let a = fit_path(&Loss::Logistic, &cols, &labels, &cfg).unwrap();
        let b = fit_path(&Loss::Logistic, &cols, &labels, &cfg).unwrap();
        assert_eq!(a, b);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            for i in 0..3 {
                assert_eq!(pa.weights.get(i).to_bits(), pb.weights.get(i).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one lambda")]
    fn empty_grid_rejected() {
        let _ = lambda_grid(1.0, 0, 0.1);
    }
}
