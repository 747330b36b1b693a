//! L-BFGS: the limited-memory quasi-Newton optimizer behind `spark.ml`.
//!
//! The paper's conclusion singles this out: "Spark recently introduced
//! `spark.ml`, its second-generation machine learning library that
//! implements L-BFGS... An interesting question is whether the techniques
//! we have developed for speeding up MLlib could also be used for
//! improving `spark.ml`." This module provides the sequential optimizer
//! (two-loop recursion + Armijo backtracking line search); the distributed
//! `spark.ml`-style driver loop lives in `mlstar-core`.

use mlstar_linalg::{DenseVector, SparseVector};
use std::collections::VecDeque;

use crate::{batch_gradient_into, objective_value, GlmModel, Loss, Regularizer};

/// Configuration for [`Lbfgs`].
#[derive(Debug, Clone)]
pub struct LbfgsConfig {
    /// The loss function.
    pub loss: Loss,
    /// The regularization term (L2 keeps the problem smooth; L1 uses the
    /// subgradient, which works in practice but loses the convergence
    /// guarantee — same caveat as spark.ml's OWL-QN-less path).
    pub reg: Regularizer,
    /// Number of `(s, y)` correction pairs kept (spark.ml's default is 10).
    pub history: usize,
    /// Maximum outer iterations.
    pub max_iters: u64,
    /// Stop when the gradient norm falls below this.
    pub grad_tolerance: f64,
    /// Armijo sufficient-decrease constant (typically 1e-4).
    pub c1: f64,
    /// Backtracking shrink factor (typically 0.5).
    pub backtrack: f64,
    /// Maximum line-search trials per iteration.
    pub max_line_search: u32,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            loss: Loss::Logistic,
            reg: Regularizer::None,
            history: 10,
            max_iters: 100,
            grad_tolerance: 1e-6,
            c1: 1e-4,
            backtrack: 0.5,
            max_line_search: 20,
        }
    }
}

/// The result of an L-BFGS run.
#[derive(Debug, Clone)]
pub struct LbfgsResult {
    /// The final model.
    pub model: GlmModel,
    /// `(iteration, objective)` at every iteration (0 = initial point).
    pub trace: Vec<(u64, f64)>,
    /// The final objective.
    pub final_objective: f64,
    /// Iterations actually run.
    pub iterations: u64,
    /// Total objective/gradient evaluations over the data (what a
    /// distributed implementation pays one communication round for each).
    pub evaluations: u64,
}

/// Limited-memory BFGS with Armijo backtracking.
#[derive(Debug, Clone)]
pub struct Lbfgs {
    config: LbfgsConfig,
}

/// One stored correction pair.
struct Correction {
    s: DenseVector,
    y: DenseVector,
    rho: f64,
}

impl Lbfgs {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `history == 0` or the line-search constants are outside
    /// `(0, 1)`.
    pub fn new(config: LbfgsConfig) -> Self {
        assert!(config.history > 0, "history must be positive");
        assert!(config.c1 > 0.0 && config.c1 < 1.0, "c1 must be in (0, 1)");
        assert!(
            config.backtrack > 0.0 && config.backtrack < 1.0,
            "backtrack must be in (0, 1)"
        );
        Lbfgs { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &LbfgsConfig {
        &self.config
    }

    /// Runs L-BFGS from the zero model on the full dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or rows/labels lengths differ.
    pub fn run(&self, dim: usize, rows: &[SparseVector], labels: &[f64]) -> LbfgsResult {
        assert!(!rows.is_empty(), "cannot optimize over an empty dataset");
        assert_eq!(rows.len(), labels.len(), "one label per row required");
        let cfg = &self.config;
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut evaluations = 0u64;

        let eval_obj = |w: &DenseVector, evals: &mut u64| {
            *evals += 1;
            objective_value(cfg.loss, cfg.reg, w, rows, labels)
        };
        let full_gradient = |w: &DenseVector, g: &mut DenseVector, evals: &mut u64| {
            *evals += 1;
            batch_gradient_into(cfg.loss, w, rows, labels, &all, g);
            cfg.reg.add_gradient(w, g);
        };

        let mut w = DenseVector::zeros(dim);
        let mut grad = DenseVector::zeros(dim);
        full_gradient(&w, &mut grad, &mut evaluations);
        let mut f = eval_obj(&w, &mut evaluations);
        let mut trace = vec![(0u64, f)];
        let mut history: VecDeque<Correction> = VecDeque::with_capacity(cfg.history);
        let mut iterations = 0u64;
        // Scratch buffers reused across iterations; `spare` recycles the
        // storage of evicted correction pairs, so the steady state of the
        // outer loop allocates nothing.
        let mut w_new = DenseVector::zeros(dim);
        let mut grad_new = DenseVector::zeros(dim);
        let mut spare: Option<(DenseVector, DenseVector)> = None;

        for iter in 0..cfg.max_iters {
            if grad.norm2() <= cfg.grad_tolerance {
                break;
            }
            // Two-loop recursion: d = −H·∇f.
            let mut direction = two_loop(&grad, &history);
            direction.scale(-1.0);
            let mut dg = direction.dot(&grad);
            if dg >= 0.0 {
                // Not a descent direction (possible with subgradients);
                // fall back to steepest descent.
                direction.copy_from(&grad);
                direction.scale(-1.0);
                dg = -grad.norm2_sq();
            }

            // Armijo backtracking.
            let mut step = 1.0;
            let mut accepted = false;
            let mut f_new = f;
            for _ in 0..cfg.max_line_search {
                w_new.copy_from(&w);
                w_new.axpy(step, &direction);
                f_new = eval_obj(&w_new, &mut evaluations);
                if f_new <= f + cfg.c1 * step * dg {
                    accepted = true;
                    break;
                }
                step *= cfg.backtrack;
            }
            if !accepted {
                // Line search failed (flat/kinked region) — stop cleanly.
                break;
            }

            full_gradient(&w_new, &mut grad_new, &mut evaluations);

            // Store the correction pair if it has positive curvature.
            let (mut s, mut y) = spare
                .take()
                .unwrap_or_else(|| (DenseVector::zeros(dim), DenseVector::zeros(dim)));
            s.copy_from(&w_new);
            s.axpy(-1.0, &w);
            y.copy_from(&grad_new);
            y.axpy(-1.0, &grad);
            let sy = s.dot(&y);
            if sy > 1e-12 {
                if history.len() == cfg.history {
                    if let Some(evicted) = history.pop_front() {
                        spare = Some((evicted.s, evicted.y));
                    }
                }
                history.push_back(Correction {
                    rho: 1.0 / sy,
                    s,
                    y,
                });
            } else {
                spare = Some((s, y));
            }

            std::mem::swap(&mut w, &mut w_new);
            std::mem::swap(&mut grad, &mut grad_new);
            f = f_new;
            iterations = iter + 1;
            trace.push((iterations, f));
        }

        LbfgsResult {
            model: GlmModel::from_weights(w),
            final_objective: f,
            trace,
            iterations,
            evaluations,
        }
    }
}

/// Computes the L-BFGS search direction `−H·g` from raw `(s, y)`
/// correction pairs (oldest first), skipping pairs without positive
/// curvature. Exposed for distributed drivers (`mlstar-core`'s
/// `spark.ml`-style trainer), which keep their own history.
pub fn lbfgs_direction(grad: &DenseVector, pairs: &[(DenseVector, DenseVector)]) -> DenseVector {
    let mut history: VecDeque<Correction> = VecDeque::with_capacity(pairs.len());
    for (s, y) in pairs {
        let sy = s.dot(y);
        if sy > 1e-12 {
            // The owned history: one copy of each kept pair per call (a
            // line of the allocation ledger, tests/fixtures/allocs.txt).
            let (s, y) = (s.clone(), y.clone());
            history.push_back(Correction {
                rho: 1.0 / sy,
                s,
                y,
            });
        }
    }
    let mut d = two_loop(grad, &history);
    d.scale(-1.0);
    d
}

/// The L-BFGS two-loop recursion: returns `H·g` for the implicit inverse
/// Hessian approximation defined by `history`.
fn two_loop(g: &DenseVector, history: &VecDeque<Correction>) -> DenseVector {
    let mut q = g.clone();
    let mut alphas = Vec::with_capacity(history.len());
    for c in history.iter().rev() {
        let alpha = c.rho * c.s.dot(&q);
        q.axpy(-alpha, &c.y);
        alphas.push(alpha);
    }
    // Initial Hessian scaling γ = s·y / y·y from the newest pair.
    if let Some(last) = history.back() {
        let yy = last.y.norm2_sq();
        if yy > 0.0 {
            q.scale(1.0 / (last.rho * yy));
        }
    }
    for (c, &alpha) in history.iter().zip(alphas.iter().rev()) {
        let beta = c.rho * c.y.dot(&q);
        q.axpy(alpha - beta, &c.s);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgd_step;

    fn problem(n: usize) -> (Vec<SparseVector>, Vec<f64>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let v = 1.0 + 0.05 * (i % 7) as f64;
            if i % 2 == 0 {
                rows.push(SparseVector::from_pairs(6, &[(0, v), (2, 0.5), (4, 0.2)]).unwrap());
                labels.push(1.0);
            } else {
                rows.push(SparseVector::from_pairs(6, &[(1, v), (3, 0.5), (5, 0.2)]).unwrap());
                labels.push(-1.0);
            }
        }
        (rows, labels)
    }

    #[test]
    fn converges_on_logistic_regression() {
        let (rows, labels) = problem(200);
        let result = Lbfgs::new(LbfgsConfig::default()).run(6, &rows, &labels);
        assert!(
            result.final_objective < 0.05,
            "logistic objective {}",
            result.final_objective
        );
        assert!(result.iterations > 0);
        // Trace is monotonically nonincreasing (Armijo guarantees descent).
        for pair in result.trace.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-12);
        }
    }

    #[test]
    fn beats_sgd_per_iteration_on_smooth_problems() {
        let (rows, labels) = problem(200);
        let lbfgs = Lbfgs::new(LbfgsConfig {
            max_iters: 15,
            ..LbfgsConfig::default()
        })
        .run(6, &rows, &labels);
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut w = DenseVector::zeros(6);
        let mut buf = DenseVector::zeros(6);
        for _ in 0..15 {
            mgd_step(
                Loss::Logistic,
                Regularizer::None,
                &mut w,
                &rows,
                &labels,
                &all,
                0.5,
                &mut buf,
            );
        }
        let gd = objective_value(Loss::Logistic, Regularizer::None, &w, &rows, &labels);
        assert!(
            lbfgs.final_objective < gd,
            "L-BFGS {} vs GD {gd} after 15 iterations",
            lbfgs.final_objective
        );
    }

    #[test]
    fn l2_regularized_run_converges_to_interior_optimum() {
        let (rows, labels) = problem(100);
        let cfg = LbfgsConfig {
            reg: Regularizer::L2 { lambda: 0.1 },
            ..LbfgsConfig::default()
        };
        let result = Lbfgs::new(cfg).run(6, &rows, &labels);
        // Gradient (incl. λw) should be near zero at convergence.
        let all: Vec<usize> = (0..rows.len()).collect();
        let mut g = DenseVector::zeros(6);
        batch_gradient_into(
            Loss::Logistic,
            result.model.weights(),
            &rows,
            &labels,
            &all,
            &mut g,
        );
        Regularizer::L2 { lambda: 0.1 }.add_gradient(result.model.weights(), &mut g);
        assert!(g.norm2() < 1e-4, "‖∇f‖ = {}", g.norm2());
    }

    #[test]
    fn hinge_subgradients_still_descend() {
        let (rows, labels) = problem(150);
        let cfg = LbfgsConfig {
            loss: Loss::Hinge,
            max_iters: 40,
            ..LbfgsConfig::default()
        };
        let result = Lbfgs::new(cfg).run(6, &rows, &labels);
        assert!(
            result.final_objective < 0.3,
            "hinge objective {}",
            result.final_objective
        );
    }

    #[test]
    fn history_window_is_bounded() {
        let (rows, labels) = problem(100);
        // history = 1 must still run (memory-limited BFGS).
        let cfg = LbfgsConfig {
            history: 1,
            max_iters: 30,
            ..LbfgsConfig::default()
        };
        let result = Lbfgs::new(cfg).run(6, &rows, &labels);
        assert!(result.final_objective < 0.2);
    }

    #[test]
    fn evaluation_count_is_reported() {
        let (rows, labels) = problem(50);
        let result = Lbfgs::new(LbfgsConfig {
            max_iters: 5,
            ..LbfgsConfig::default()
        })
        .run(6, &rows, &labels);
        // At least 1 objective + 1 gradient per iteration, plus the
        // initial pair.
        assert!(result.evaluations >= 2 * result.iterations + 2);
    }

    #[test]
    #[should_panic(expected = "history must be positive")]
    fn zero_history_rejected() {
        let _ = Lbfgs::new(LbfgsConfig {
            history: 0,
            ..LbfgsConfig::default()
        });
    }

    #[test]
    fn public_direction_is_descent_direction() {
        let (rows, labels) = problem(60);
        let all: Vec<usize> = (0..rows.len()).collect();
        let w = DenseVector::zeros(6);
        let mut g = DenseVector::zeros(6);
        batch_gradient_into(Loss::Logistic, &w, &rows, &labels, &all, &mut g);
        // With no history the direction is plain steepest descent.
        let d = lbfgs_direction(&g, &[]);
        assert!(d.dot(&g) < 0.0);
        let mut expected = g.clone();
        expected.scale(-1.0);
        assert_eq!(d.as_slice(), expected.as_slice());
        // Degenerate (zero-curvature) pairs are skipped, not divided by.
        let zero_pair = vec![(DenseVector::zeros(6), DenseVector::zeros(6))];
        let d2 = lbfgs_direction(&g, &zero_pair);
        assert_eq!(d2.as_slice(), expected.as_slice());
    }

    #[test]
    fn deterministic() {
        let (rows, labels) = problem(80);
        let a = Lbfgs::new(LbfgsConfig::default()).run(6, &rows, &labels);
        let b = Lbfgs::new(LbfgsConfig::default()).run(6, &rows, &labels);
        assert_eq!(a.model.weights().as_slice(), b.model.weights().as_slice());
        assert_eq!(a.trace, b.trace);
    }
}
