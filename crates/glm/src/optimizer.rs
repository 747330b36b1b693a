//! A sequential mini-batch gradient-descent optimizer (Algorithm 1 of the
//! paper), used standalone and as the reference solver that defines the
//! "optimum" in speedup measurements.

use mlstar_linalg::DenseVector;
use mlstar_linalg::SparseVector;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{mgd_step, objective_value, GlmModel, LearningRate, Loss, Regularizer};

/// Configuration for [`MiniBatchGd`].
#[derive(Debug, Clone)]
pub struct MgdConfig {
    /// The loss function.
    pub loss: Loss,
    /// The regularization term.
    pub reg: Regularizer,
    /// The learning-rate schedule (per iteration, like MLlib).
    pub lr: LearningRate,
    /// Mini-batch size; clamped to the dataset size. `usize::MAX` yields
    /// full-batch GD, `1` yields SGD (the two special cases the paper
    /// names).
    pub batch_size: usize,
    /// Maximum number of iterations `T`.
    pub max_iters: u64,
    /// Evaluate the objective every this many iterations (1 = every
    /// iteration). The final iterate is always evaluated.
    pub eval_every: u64,
    /// Stop early when the objective improves by less than this between
    /// consecutive evaluations (0 disables early stopping).
    pub tolerance: f64,
    /// RNG seed for batch sampling.
    pub seed: u64,
}

impl Default for MgdConfig {
    fn default() -> Self {
        MgdConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::InvSqrt(1.0),
            batch_size: 64,
            max_iters: 200,
            eval_every: 1,
            tolerance: 0.0,
            seed: 42,
        }
    }
}

/// The result of a sequential optimization run.
#[derive(Debug, Clone)]
pub struct OptimizerResult {
    /// The final model.
    pub model: GlmModel,
    /// `(iteration, objective)` pairs at each evaluation point.
    pub trace: Vec<(u64, f64)>,
    /// The objective of the final model.
    pub final_objective: f64,
    /// Iterations actually run (may be fewer than `max_iters` if early
    /// stopping triggered).
    pub iterations: u64,
}

impl OptimizerResult {
    /// The best (minimum) objective seen along the trace.
    pub fn best_objective(&self) -> f64 {
        self.trace
            .iter()
            .map(|&(_, f)| f)
            .fold(self.final_objective, f64::min)
    }
}

/// Sequential mini-batch gradient descent (Algorithm 1).
#[derive(Debug, Clone)]
pub struct MiniBatchGd {
    config: MgdConfig,
}

impl MiniBatchGd {
    /// Creates an optimizer with the given configuration.
    pub fn new(config: MgdConfig) -> Self {
        MiniBatchGd { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &MgdConfig {
        &self.config
    }

    /// Runs MGD from the zero model.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `rows`/`labels` lengths differ.
    pub fn run(&self, dim: usize, rows: &[SparseVector], labels: &[f64]) -> OptimizerResult {
        self.run_from(GlmModel::zeros(dim), rows, labels)
    }

    /// Runs MGD from a caller-provided initial model `w₀`.
    pub fn run_from(
        &self,
        init: GlmModel,
        rows: &[SparseVector],
        labels: &[f64],
    ) -> OptimizerResult {
        assert!(!rows.is_empty(), "cannot optimize over an empty dataset");
        assert_eq!(rows.len(), labels.len(), "one label per row required");
        let cfg = &self.config;
        let n = rows.len();
        let batch_size = cfg.batch_size.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut w = init.into_weights();
        let mut grad_buf = DenseVector::zeros(w.dim());
        let mut trace = Vec::new();
        let eval_every = cfg.eval_every.max(1);

        let mut last_eval = objective_value(cfg.loss, cfg.reg, &w, rows, labels);
        trace.push((0, last_eval));

        let mut iterations = 0;
        for t in 0..cfg.max_iters {
            let batch = sample_batch(&mut rng, n, batch_size);
            let eta = cfg.lr.eta(t);
            mgd_step(
                cfg.loss,
                cfg.reg,
                &mut w,
                rows,
                labels,
                &batch,
                eta,
                &mut grad_buf,
            );
            iterations = t + 1;
            if iterations % eval_every == 0 || iterations == cfg.max_iters {
                let f = objective_value(cfg.loss, cfg.reg, &w, rows, labels);
                trace.push((iterations, f));
                if cfg.tolerance > 0.0 && (last_eval - f).abs() < cfg.tolerance {
                    last_eval = f;
                    break;
                }
                last_eval = f;
            }
        }

        OptimizerResult {
            model: GlmModel::from_weights(w),
            final_objective: last_eval,
            trace,
            iterations,
        }
    }
}

/// Samples `batch_size` distinct indices from `[0, n)`.
fn sample_batch(rng: &mut StdRng, n: usize, batch_size: usize) -> Vec<usize> {
    if batch_size >= n {
        (0..n).collect()
    } else {
        rand::seq::index::sample(rng, n, batch_size).into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> (Vec<SparseVector>, Vec<f64>) {
        // y = sign of whether feature 0 or feature 1 fires.
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Vary magnitudes slightly so distinct batch orders produce
            // distinct iterates while the problem stays separable.
            let v = 1.0 + 0.1 * (i % 5) as f64;
            if i % 2 == 0 {
                rows.push(SparseVector::from_pairs(4, &[(0, v), (2, 0.5)]).unwrap());
                labels.push(1.0);
            } else {
                rows.push(SparseVector::from_pairs(4, &[(1, v), (3, 0.5)]).unwrap());
                labels.push(-1.0);
            }
        }
        (rows, labels)
    }

    #[test]
    fn converges_on_separable_data() {
        let (rows, labels) = separable(100);
        let cfg = MgdConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.5),
            batch_size: 10,
            max_iters: 200,
            ..MgdConfig::default()
        };
        let result = MiniBatchGd::new(cfg).run(4, &rows, &labels);
        assert!(
            result.final_objective < 0.05,
            "final objective {}",
            result.final_objective
        );
        assert!(crate::accuracy(result.model.weights(), &rows, &labels) > 0.99);
    }

    #[test]
    fn trace_starts_at_initial_objective() {
        let (rows, labels) = separable(20);
        let result = MiniBatchGd::new(MgdConfig::default()).run(4, &rows, &labels);
        // hinge(0, y) = 1 at the zero model.
        assert_eq!(result.trace[0], (0, 1.0));
        assert!(result.trace.len() as u64 >= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (rows, labels) = separable(50);
        let cfg = MgdConfig {
            seed: 7,
            ..MgdConfig::default()
        };
        let a = MiniBatchGd::new(cfg.clone()).run(4, &rows, &labels);
        let b = MiniBatchGd::new(cfg).run(4, &rows, &labels);
        assert_eq!(a.model.weights().as_slice(), b.model.weights().as_slice());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn different_seeds_differ() {
        let (rows, labels) = separable(50);
        let cfg = MgdConfig {
            batch_size: 8,
            max_iters: 37,
            ..MgdConfig::default()
        };
        let a = MiniBatchGd::new(MgdConfig {
            seed: 1,
            ..cfg.clone()
        })
        .run(4, &rows, &labels);
        let b = MiniBatchGd::new(MgdConfig { seed: 2, ..cfg }).run(4, &rows, &labels);
        assert_ne!(a.model.weights().as_slice(), b.model.weights().as_slice());
    }

    #[test]
    fn early_stopping_halts_before_max_iters() {
        let (rows, labels) = separable(50);
        let cfg = MgdConfig {
            lr: LearningRate::Constant(0.5),
            batch_size: usize::MAX, // full-batch GD: objective stabilizes
            max_iters: 5000,
            tolerance: 1e-9,
            ..MgdConfig::default()
        };
        let result = MiniBatchGd::new(cfg).run(4, &rows, &labels);
        assert!(result.iterations < 5000, "ran {} iters", result.iterations);
    }

    #[test]
    fn full_batch_equals_all_indices() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample_batch(&mut rng, 5, 10), vec![0, 1, 2, 3, 4]);
        let b = sample_batch(&mut rng, 100, 10);
        assert_eq!(b.len(), 10);
        let mut sorted = b.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10, "indices must be distinct");
    }

    #[test]
    fn best_objective_is_minimum_of_trace() {
        let r = OptimizerResult {
            model: GlmModel::zeros(1),
            trace: vec![(0, 1.0), (1, 0.4), (2, 0.6)],
            final_objective: 0.6,
            iterations: 2,
        };
        assert_eq!(r.best_objective(), 0.4);
    }

    #[test]
    fn l2_regularized_run_keeps_weights_bounded() {
        let (rows, labels) = separable(60);
        let cfg = MgdConfig {
            reg: Regularizer::L2 { lambda: 0.5 },
            lr: LearningRate::Constant(0.2),
            max_iters: 300,
            ..MgdConfig::default()
        };
        let result = MiniBatchGd::new(cfg).run(4, &rows, &labels);
        assert!(result.model.weights().norm2() < 5.0);
        assert!(result.final_objective.is_finite());
    }
}
