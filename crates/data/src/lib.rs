//! Datasets for the MLlib\* reproduction.
//!
//! Provides:
//!
//! * [`SparseDataset`] — an in-memory sparse classification dataset with
//!   the statistics reported in the paper's Table I.
//! * [`libsvm`] — reader/writer for the LIBSVM text format, so the real
//!   avazu/url/kddb/kdd12 datasets can be dropped in when available.
//! * [`SyntheticConfig`] — a seeded generator of sparse linear
//!   classification problems with power-law feature popularity, used to
//!   build scaled-down look-alikes of the paper's workloads.
//! * [`catalog`] — the five presets (`avazu_like`, `url_like`, `kddb_like`,
//!   `kdd12_like`, `wx_like`) with dimensions scaled ~1000× down from
//!   Table I while preserving the determined/underdetermined character of
//!   each dataset.
//! * [`Partitioner`] / [`BatchSampler`] — row partitioning across workers
//!   and seeded batch sampling.
//! * [`workload`] — the synthetic platform job trace behind the Figure 1
//!   workload-share table.
//!
//! # Example
//!
//! ```
//! use mlstar_data::{catalog, libsvm, Partitioner};
//!
//! // A scaled-down look-alike of the paper's kdd12 dataset…
//! let ds = catalog::kdd12_like().scaled_down(64).generate();
//! assert!(!ds.stats().underdetermined);
//! // …round-trippable through LIBSVM text…
//! let text = libsvm::write_string(&ds);
//! let back = libsvm::read_str(&text, ds.num_features()).unwrap();
//! assert_eq!(ds, back);
//! // …and partitionable across 8 simulated executors.
//! let parts = Partitioner::Shuffled { seed: 1 }.partition(ds.len(), 8);
//! assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), ds.len());
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod batch;
pub mod catalog;
mod dataset;
mod error;
mod fingerprint;
pub mod libsvm;
mod multiclass;
mod partition;
mod synthetic;
pub mod workload;

pub use batch::{BatchSampler, EpochOrder, RowSampler};
pub use dataset::{DatasetStats, SparseDataset};
pub use error::DataError;
pub use fingerprint::{fingerprint_codec, DatasetFingerprint};
pub use multiclass::{MulticlassConfig, MulticlassDataset};
pub use partition::Partitioner;
pub use synthetic::SyntheticConfig;
