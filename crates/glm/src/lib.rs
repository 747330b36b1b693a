//! Generalized linear models: losses, regularizers, objectives and
//! sequential optimizers.
//!
//! This crate contains the *math* of the reproduction — everything a single
//! worker computes locally. The distributed systems in `mlstar-core` are
//! thin orchestrations of these kernels:
//!
//! * [`Loss`] — hinge (linear SVM), logistic (LR) and squared losses, with
//!   their derivatives w.r.t. the margin `w·x`.
//! * [`Regularizer`] — none / L2 / L1, with eager and *lazy* update forms.
//!   The lazy L2 form (Bottou's trick, via [`mlstar_linalg::ScaledVector`])
//!   is what the paper uses in MLlib\* to keep per-example updates `O(nnz)`
//!   when L2 ≠ 0.
//! * [`objective_value`] — the regularized objective `f(w, X)` plotted on
//!   every figure of the paper.
//! * [`batch_gradient`] — the worker-side kernel of the *SendGradient*
//!   paradigm (MLlib).
//! * [`sgd_epoch_lazy`] / [`mgd_step`] — the worker-side kernels of the
//!   *SendModel* paradigm (MLlib\*, Petuum, Angel).
//! * [`MiniBatchGd`] — a sequential MGD optimizer (Algorithm 1 of the
//!   paper) used both standalone and as the reference solver that defines
//!   the "optimum" for speedup-at-0.01-loss measurements.
//!
//! Layered on top is the composable [`Datafit`] × [`Penalty`] trait
//! architecture: the enums above are the canonical implementations (the
//! trainers keep dispatching on them, bit-identically), while
//! [`ElasticNet`], the cyclic coordinate-descent solver [`cd_fit`], and
//! the warm-started lambda paths of [`fit_path`] compose against the
//! traits.
//!
//! # Example
//!
//! ```
//! use mlstar_glm::{MgdConfig, MiniBatchGd, LearningRate, Loss, Regularizer};
//! use mlstar_linalg::SparseVector;
//!
//! // Two separable points: y = sign of which feature fires.
//! let rows = vec![
//!     SparseVector::from_pairs(2, &[(0, 1.0)]).unwrap(),
//!     SparseVector::from_pairs(2, &[(1, 1.0)]).unwrap(),
//! ];
//! let labels = vec![1.0, -1.0];
//! let cfg = MgdConfig {
//!     loss: Loss::Hinge,
//!     reg: Regularizer::None,
//!     lr: LearningRate::Constant(0.5),
//!     batch_size: 2,
//!     max_iters: 50,
//!     ..MgdConfig::default()
//! };
//! let result = MiniBatchGd::new(cfg).run(2, &rows, &labels);
//! assert!(result.final_objective < 0.1);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod cd;
mod datafit;
mod gradient;
mod lazy_l1;
mod lbfgs;
mod loss;
mod lr_schedule;
mod metrics;
mod model;
mod objective;
mod optimizer;
mod path;
mod penalty;
mod regularizer;
mod sgd;

pub use cd::{cd_fit, cd_objective, recompute_margins, CdConfig, CdError, CdStats};
pub use datafit::Datafit;
pub use gradient::{batch_gradient, batch_gradient_into};
pub use lazy_l1::LazyL1;
pub use lbfgs::{lbfgs_direction, Lbfgs, LbfgsConfig, LbfgsResult};
pub use loss::Loss;
pub use lr_schedule::LearningRate;
pub use metrics::{
    accuracy, auc, auc_from_scores, margins, model_accuracy, model_auc, BinaryConfusion,
};
pub use model::{logistic, sparse_delta, GlmModel};
pub use objective::{objective_value, objective_value_subset, training_loss};
pub use optimizer::{MgdConfig, MiniBatchGd, OptimizerResult};
pub use path::{
    fit_path, fit_path_on_grid, lambda_grid, lambda_max, PathConfig, PathPoint, PathResult,
    MIN_L1_RATIO_FOR_LAMBDA_MAX,
};
pub use penalty::{soft_threshold, ElasticNet, Penalty};
pub use regularizer::Regularizer;
pub use sgd::{mgd_step, sgd_epoch_eager, sgd_epoch_lazy};
