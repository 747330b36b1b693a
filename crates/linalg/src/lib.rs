//! Vector primitives for GLM training.
//!
//! This crate provides the three vector representations used throughout the
//! MLlib\* reproduction:
//!
//! * [`DenseVector`] — a dense `f64` vector used for models and aggregated
//!   gradients.
//! * [`SparseVector`] — a sorted sparse vector used for training examples
//!   (features are high-dimensional and very sparse in the paper's
//!   workloads).
//! * [`ScaledVector`] — a dense vector with a lazily applied scalar factor.
//!   This implements the representation behind Bottou's "sparse update"
//!   trick for L2-regularized SGD: an L2 shrink step multiplies *every*
//!   coordinate by `(1 - η·λ)`, which would make each SGD step `O(d)`
//!   instead of `O(nnz)`; folding the shrink into a scalar keeps steps
//!   proportional to the number of nonzeros.
//! * [`CscMatrix`] — a compressed-sparse-column transpose of the example
//!   rows, with cached per-column norms. This is the feature-major view the
//!   coordinate-descent solver in `mlstar-glm` sweeps over.
//!
//! All types are deterministic and carry explicit invariants that are
//! checked in debug builds and exercised by property tests.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod csc;
mod dense;
mod error;
mod ops;
mod scaled;
mod sparse;

pub use csc::{CscCol, CscMatrix};
pub use dense::DenseVector;
pub use error::LinalgError;
pub use ops::{average, partition_ranges, sum, weighted_average};
pub use scaled::ScaledVector;
pub use sparse::SparseVector;
