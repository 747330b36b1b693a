//! Cyclic proximal coordinate descent over CSC column views.
//!
//! The SGD/MGD kernels in this crate iterate *examples*; coordinate
//! descent iterates *features*. For each coordinate `j` it takes one
//! Newton-bounded gradient step on the smooth loss and applies the
//! elastic net's scaled proximal operator:
//!
//! ```text
//! L_j  = L · ‖x_j‖₂² / n          (L = Loss::curvature_bound)
//! d_i  = l'(m_i, y_i)
//! g_j  = (1/n) Σ_i x_ij · d_i
//! w_j ← prox_{ω/L_j}(w_j − g_j / L_j)
//! ```
//!
//! The margins `m_i = w·x_i` are maintained incrementally: a coordinate
//! update `Δ = w_j' − w_j` touches only the examples in column `j`
//! (`m_i += Δ·x_ij`), so a full sweep costs `O(nnz)` — the property that
//! makes glmnet-style lambda paths affordable. The derivatives `d_i` are
//! kept beside the margins and recomputed on each margin write, so the
//! gradient read costs no `exp`. Each `d_i` is evaluated from the same
//! `m_i` the gradient would otherwise have passed to `l'`, so no bit of
//! the weights, margins or [`CdStats`] moves. This is the workhorse
//! behind [`crate::fit_path`].

use mlstar_linalg::{CscMatrix, DenseVector};

use crate::{ElasticNet, Loss};

/// Configuration of the cyclic coordinate-descent solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdConfig {
    /// Maximum number of full coordinate sweeps.
    pub max_sweeps: usize,
    /// Convergence tolerance on the largest absolute coordinate change in
    /// a sweep.
    pub tol: f64,
}

impl Default for CdConfig {
    fn default() -> Self {
        CdConfig {
            max_sweeps: 1000,
            tol: 1e-8,
        }
    }
}

/// What one [`cd_fit`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdStats {
    /// Full sweeps performed.
    pub sweeps: usize,
    /// Whether the tolerance was met within `max_sweeps`.
    pub converged: bool,
    /// Individual coordinate updates evaluated (nonempty columns only).
    pub coord_updates: u64,
    /// Stored nonzeros visited across all sweeps (two visits per
    /// coordinate update: gradient read + margin write). The CV scheduler
    /// converts this into simulated flops.
    pub nnz_visited: u64,
}

/// Why coordinate descent refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdError {
    /// The loss has no global curvature bound (hinge), so the
    /// per-coordinate step size is undefined.
    NonsmoothDatafit(&'static str),
    /// `labels` length does not match the number of matrix rows.
    ShapeMismatch {
        /// Rows in the design matrix.
        rows: usize,
        /// Labels supplied.
        labels: usize,
    },
    /// A label is NaN or infinite. Its derivatives would not be finite,
    /// and the convergence test's `f64::max` drops NaN coordinate changes,
    /// so the solve would report convergence to a meaningless point.
    NonFiniteLabel {
        /// The first offending row.
        row: usize,
    },
}

impl std::fmt::Display for CdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdError::NonsmoothDatafit(name) => write!(
                f,
                "coordinate descent needs a smooth datafit with a curvature bound; {name} has none"
            ),
            CdError::ShapeMismatch { rows, labels } => {
                write!(f, "{rows} matrix rows but {labels} labels")
            }
            CdError::NonFiniteLabel { row } => write!(f, "row {row} has a non-finite label"),
        }
    }
}

impl std::error::Error for CdError {}

/// Recomputes `margins[i] = w·x_i` from scratch (one `O(nnz)` pass over
/// the columns), resizing the buffer to the number of rows.
///
/// # Panics
///
/// Panics if `w.dim() != cols.n_cols()`.
pub fn recompute_margins(cols: &CscMatrix, w: &DenseVector, margins: &mut Vec<f64>) {
    assert_eq!(w.dim(), cols.n_cols(), "weight/matrix dimension mismatch");
    margins.clear();
    margins.resize(cols.n_rows(), 0.0);
    for j in 0..cols.n_cols() {
        let wj = w.get(j);
        // exactly-zero weights contribute nothing — a sparsity fast path
        if wj != 0.0 {
            for (i, x) in cols.col(j).iter() {
                margins[i] += wj * x;
            }
        }
    }
}

/// Runs cyclic proximal coordinate descent to (approximate) convergence.
///
/// `w` is the starting point — pass the previous lambda's solution to warm
/// start, zeros to cold start. `margins` is a caller-owned scratch buffer;
/// it is recomputed from `w` on entry (so warm starts need no margin
/// bookkeeping from the caller) and left consistent with the returned `w`.
///
/// Deterministic: coordinates are visited in index order, so results
/// depend only on `(loss, penalty, cols, labels, w₀, cfg)`.
///
/// # Errors
///
/// [`CdError::NonsmoothDatafit`] if the loss lacks a curvature bound;
/// [`CdError::ShapeMismatch`] if `labels` and the matrix disagree;
/// [`CdError::NonFiniteLabel`] if a label is NaN or infinite.
///
/// # Panics
///
/// Panics if `w.dim() != cols.n_cols()`.
pub fn cd_fit(
    loss: &Loss,
    penalty: &ElasticNet,
    cols: &CscMatrix,
    labels: &[f64],
    w: &mut DenseVector,
    margins: &mut Vec<f64>,
    cfg: &CdConfig,
) -> Result<CdStats, CdError> {
    let curvature = loss
        .curvature_bound()
        .ok_or(CdError::NonsmoothDatafit(loss.name()))?;
    if labels.len() != cols.n_rows() {
        return Err(CdError::ShapeMismatch {
            rows: cols.n_rows(),
            labels: labels.len(),
        });
    }
    recompute_margins(cols, w, margins);
    // d[i] = l'(m_i, y_i), refreshed wherever m_i changes, so the gradient
    // read below is a plain column dot product.
    let mut d = Vec::with_capacity(cols.n_rows());
    for (i, (&m, &y)) in margins.iter().zip(labels).enumerate() {
        if !y.is_finite() {
            return Err(CdError::NonFiniteLabel { row: i });
        }
        d.push(loss.dloss(m, y));
    }

    let n = cols.n_rows() as f64;
    let mut stats = CdStats {
        sweeps: 0,
        converged: cols.n_rows() == 0,
        coord_updates: 0,
        nnz_visited: 0,
    };
    if cols.n_rows() == 0 {
        return Ok(stats);
    }

    for _ in 0..cfg.max_sweeps {
        stats.sweeps += 1;
        let mut max_delta = 0.0f64;
        for j in 0..cols.n_cols() {
            let norm_sq = cols.col_norm2_sq(j);
            // an absent feature has an exactly-zero column norm
            if norm_sq == 0.0 {
                continue;
            }
            let lj = curvature * norm_sq / n;
            let col = cols.col(j);
            let mut g = 0.0;
            for (i, x) in col.iter() {
                g += x * d[i];
            }
            g /= n;
            let wj = w.get(j);
            let new = penalty.prox_1d(wj - g / lj, 1.0 / lj);
            let delta = new - wj;
            stats.coord_updates += 1;
            stats.nnz_visited += col.nnz() as u64;
            // an exactly-unchanged coordinate needs no margin pass
            if delta != 0.0 {
                w.set(j, new);
                for (i, x) in col.iter() {
                    margins[i] += delta * x;
                    d[i] = loss.dloss(margins[i], labels[i]);
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
    Ok(stats)
}

/// The regularized objective `(1/n)·Σ_i l(m_i, y_i) + Ω(w)` evaluated
/// from maintained margins (no matrix pass).
///
/// # Panics
///
/// Panics if `margins` and `labels` lengths differ.
pub fn cd_objective(
    loss: &Loss,
    penalty: &ElasticNet,
    margins: &[f64],
    labels: &[f64],
    w: &DenseVector,
) -> f64 {
    assert_eq!(margins.len(), labels.len(), "one margin per label required");
    if margins.is_empty() {
        return penalty.value(w);
    }
    let mut total = 0.0;
    for (m, y) in margins.iter().zip(labels) {
        total += loss.value(*m, *y);
    }
    total / margins.len() as f64 + penalty.value(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{objective_value, Regularizer};
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
    fn hinge_is_rejected() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let mut w = DenseVector::zeros(3);
        let mut margins = Vec::new();
        let err = cd_fit(
            &Loss::Hinge,
            &ElasticNet::new(0.0, 0.0),
            &cols,
            &labels,
            &mut w,
            &mut margins,
            &CdConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CdError::NonsmoothDatafit(_)));
        assert!(err.to_string().contains("hinge"));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let (rows, _) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let mut w = DenseVector::zeros(3);
        let mut margins = Vec::new();
        let err = cd_fit(
            &Loss::Squared,
            &ElasticNet::new(0.0, 0.0),
            &cols,
            &[1.0],
            &mut w,
            &mut margins,
            &CdConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CdError::ShapeMismatch { rows: 4, labels: 1 }));
    }

    #[test]
    fn solves_least_squares_exactly() {
        // Orthogonal design: y = 2·x₀ − 1·x₁, so unregularized least
        // squares recovers the generating weights.
        let rows = vec![
            SparseVector::from_pairs(2, &[(0, 1.0)]).unwrap(),
            SparseVector::from_pairs(2, &[(1, 1.0)]).unwrap(),
        ];
        let labels = vec![2.0, -1.0];
        let cols = CscMatrix::from_rows(&rows, 2);
        let mut w = DenseVector::zeros(2);
        let mut margins = Vec::new();
        let stats = cd_fit(
            &Loss::Squared,
            &ElasticNet::new(0.0, 0.0),
            &cols,
            &labels,
            &mut w,
            &mut margins,
            &CdConfig::default(),
        )
        .unwrap();
        assert!(stats.converged, "{stats:?}");
        assert!((w.get(0) - 2.0).abs() < 1e-8);
        assert!((w.get(1) + 1.0).abs() < 1e-8);
        // Margins track w·x.
        assert!((margins[0] - w.get(0)).abs() < 1e-12);
    }

    #[test]
    fn logistic_l2_objective_decreases_monotonically_per_budget() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let pen = ElasticNet::new(0.1, 0.0);
        let reg = Regularizer::L2 { lambda: 0.1 };
        let mut prev = f64::INFINITY;
        for sweeps in [1usize, 3, 10, 50] {
            let mut w = DenseVector::zeros(3);
            let mut margins = Vec::new();
            let cfg = CdConfig {
                max_sweeps: sweeps,
                tol: 0.0,
            };
            cd_fit(
                &Loss::Logistic,
                &pen,
                &cols,
                &labels,
                &mut w,
                &mut margins,
                &cfg,
            )
            .unwrap();
            let f = objective_value(Loss::Logistic, reg, &w, &rows, &labels);
            assert!(f <= prev + 1e-12, "sweeps={sweeps}: {f} > {prev}");
            prev = f;
        }
    }

    #[test]
    fn l1_zeroes_the_useless_feature() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let mut w = DenseVector::zeros(3);
        let mut margins = Vec::new();
        cd_fit(
            &Loss::Logistic,
            &ElasticNet::new(0.05, 1.0),
            &cols,
            &labels,
            &mut w,
            &mut margins,
            &CdConfig::default(),
        )
        .unwrap();
        assert!(w.get(0) > 0.1);
        assert!(w.get(1) < -0.1);
        // Feature 2 fires identically for both classes: the lasso should
        // produce an exact zero, not a small value.
        assert_eq!(w.get(2), 0.0);
    }

    #[test]
    fn warm_start_converges_in_fewer_sweeps() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let pen = ElasticNet::new(0.01, 0.5);
        let cfg = CdConfig::default();

        let mut cold = DenseVector::zeros(3);
        let mut margins = Vec::new();
        let cold_stats = cd_fit(
            &Loss::Logistic,
            &pen,
            &cols,
            &labels,
            &mut cold,
            &mut margins,
            &cfg,
        )
        .unwrap();

        // Restart from the solution: should converge almost immediately to
        // the same point.
        let mut warm = cold.clone();
        let warm_stats = cd_fit(
            &Loss::Logistic,
            &pen,
            &cols,
            &labels,
            &mut warm,
            &mut margins,
            &cfg,
        )
        .unwrap();
        assert!(warm_stats.sweeps < cold_stats.sweeps);
        for i in 0..3 {
            assert!((warm.get(i) - cold.get(i)).abs() < 1e-7, "coord {i}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let run = || {
            let mut w = DenseVector::zeros(3);
            let mut margins = Vec::new();
            let stats = cd_fit(
                &Loss::Logistic,
                &ElasticNet::new(0.02, 0.7),
                &cols,
                &labels,
                &mut w,
                &mut margins,
                &CdConfig::default(),
            )
            .unwrap();
            (w, stats)
        };
        let (w1, s1) = run();
        let (w2, s2) = run();
        assert_eq!(s1, s2);
        for i in 0..3 {
            assert_eq!(w1.get(i).to_bits(), w2.get(i).to_bits());
        }
    }

    #[test]
    fn empty_matrix_is_trivially_converged() {
        let cols = CscMatrix::from_rows(&[], 2);
        let mut w = DenseVector::zeros(2);
        let mut margins = vec![99.0];
        let stats = cd_fit(
            &Loss::Squared,
            &ElasticNet::new(0.0, 0.0),
            &cols,
            &[],
            &mut w,
            &mut margins,
            &CdConfig::default(),
        )
        .unwrap();
        assert!(stats.converged);
        assert_eq!(stats.sweeps, 0);
        assert!(margins.is_empty());
    }

    #[test]
    fn objective_from_margins_matches_row_objective() {
        let (rows, labels) = toy();
        let cols = CscMatrix::from_rows(&rows, 3);
        let w = DenseVector::from_vec(vec![0.3, -0.2, 0.1]);
        let mut margins = Vec::new();
        recompute_margins(&cols, &w, &mut margins);
        let reg = Regularizer::L2 { lambda: 0.1 };
        let pen = ElasticNet::new(0.1, 0.0);
        let via_margins = cd_objective(&Loss::Logistic, &pen, &margins, &labels, &w);
        let via_rows = objective_value(Loss::Logistic, reg, &w, &rows, &labels);
        assert!((via_margins - via_rows).abs() < 1e-12);
    }
}
