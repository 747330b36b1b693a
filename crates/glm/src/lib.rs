//! Generalized linear models: losses, regularizers, objectives, the
//! worker-side update kernels, and coordinate-descent lambda paths.
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
//! * [`batch_gradient_into`] — the worker-side kernel of the *SendGradient*
//!   paradigm (MLlib).
//! * [`sgd_epoch_lazy`] / [`mgd_step`] / [`mgd_delta`] — the worker-side
//!   kernels of the *SendModel* paradigm (MLlib\*, Petuum, Angel).
//! * [`ElasticNet`], [`cd_fit`] and [`fit_path`] — the elastic-net penalty,
//!   cyclic proximal coordinate descent over CSC columns, and warm-started
//!   glmnet-style lambda paths. They take the concrete [`Loss`] and
//!   [`ElasticNet`] types directly.
//!
//! # Example
//!
//! ```
//! use mlstar_glm::{fit_path, Loss, PathConfig};
//! use mlstar_linalg::{CscMatrix, SparseVector};
//!
//! // y = +1 when feature 0 fires, −1 when feature 1 does; feature 2 fires
//! // for both classes and carries no signal.
//! let rows = vec![
//!     SparseVector::from_pairs(3, &[(0, 2.0), (2, 1.0)]).unwrap(),
//!     SparseVector::from_pairs(3, &[(1, 2.0), (2, 1.0)]).unwrap(),
//!     SparseVector::from_pairs(3, &[(0, 1.5)]).unwrap(),
//!     SparseVector::from_pairs(3, &[(1, 1.5)]).unwrap(),
//! ];
//! let labels = [1.0, -1.0, 1.0, -1.0];
//! let cols = CscMatrix::from_rows(&rows, 3);
//! let path = fit_path(&Loss::Logistic, &cols, &labels, &PathConfig::default()).unwrap();
//!
//! // The path starts at the zero model and ends sparse but fitted.
//! assert_eq!(path.points[0].nnz, 0);
//! let last = path.points.last().unwrap();
//! assert!(last.weights.get(0) > 0.0 && last.weights.get(1) < 0.0);
//! assert_eq!(last.weights.get(2), 0.0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod cd;
mod gradient;
mod lazy_l1;
mod lbfgs;
mod loss;
mod lr_schedule;
mod metrics;
mod model;
mod objective;
mod path;
mod penalty;
mod regularizer;
mod sgd;

pub use cd::{cd_fit, cd_objective, recompute_margins, CdConfig, CdError, CdStats};
pub use gradient::batch_gradient_into;
pub use lazy_l1::LazyL1;
pub use lbfgs::{lbfgs_direction, Lbfgs, LbfgsConfig, LbfgsResult};
pub use loss::Loss;
pub use lr_schedule::LearningRate;
pub use metrics::{
    accuracy, auc, auc_from_scores, margins, model_accuracy, model_auc, BinaryConfusion,
};
pub use model::{logistic, GlmModel};
pub use objective::{objective_value, objective_value_subset, training_loss};
pub use path::{
    fit_path, fit_path_on_grid, lambda_grid, lambda_max, PathConfig, PathPoint, PathResult,
    MIN_L1_RATIO_FOR_LAMBDA_MAX,
};
pub use penalty::{soft_threshold, ElasticNet};
pub use regularizer::Regularizer;
pub use sgd::{mgd_delta, mgd_step, sgd_epoch_eager, sgd_epoch_lazy, sgd_epoch_lazy_with};
