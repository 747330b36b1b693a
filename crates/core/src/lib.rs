//! The distributed GLM training systems of the MLlib\* paper.
//!
//! Seven systems, all training the same objective on the same simulated
//! cluster so their convergence curves are directly comparable:
//!
//! | System | Paradigm | Communication | Paper role |
//! |---|---|---|---|
//! | [`Mllib`](System::Mllib) | SendGradient | broadcast + treeAggregate via driver | baseline (Figure 2a) |
//! | [`MllibMa`](System::MllibMa) | SendModel (model averaging) | broadcast + treeAggregate via driver | ablation: B1 fixed, B2 not (Figure 3b) |
//! | [`MllibStar`](System::MllibStar) | SendModel (model averaging) | Reduce-Scatter + AllGather (AllReduce) | the paper's contribution (Figures 2b, 3c) |
//! | [`Petuum`](System::Petuum) | SendModel (model **summation**) | parameter servers, per-batch, SSP | specialized baseline |
//! | [`PetuumStar`](System::PetuumStar) | SendModel (model averaging) | parameter servers, per-batch, SSP | the paper's fixed Petuum |
//! | [`Angel`](System::Angel) | SendModel | parameter servers, per-epoch | specialized baseline |
//! | [`SparkMl`](System::SparkMl) | SendGradient (L-BFGS) | broadcast + treeAggregate via driver | the paper's future-work second-order comparator |
//!
//! The four BSP systems (the MLlib family and `spark.ml`) are one round
//! resolved from an update and a combine; the three parameter-server
//! systems share one PS driver. Every system trains through [`System`].
//!
//! Each run produces a [`ConvergenceTrace`] (objective vs. communication
//! step and simulated time — the two x-axes of Figures 4–6) and a Gantt
//! recording (Figure 3).
//!
//! # Example
//!
//! ```
//! use mlstar_core::{System, TrainConfig};
//! use mlstar_data::SyntheticConfig;
//! use mlstar_glm::LearningRate;
//! use mlstar_sim::ClusterSpec;
//!
//! let dataset = SyntheticConfig::small("demo", 400, 50).generate();
//! let cluster = ClusterSpec::cluster1(); // the paper's 8-executor cluster
//! let cfg = TrainConfig {
//!     lr: LearningRate::Constant(0.05),
//!     max_rounds: 5,
//!     ..TrainConfig::default()
//! };
//! let out = System::MllibStar.train_default(&dataset, &cluster, &cfg);
//! assert!(out.trace.final_objective().unwrap() < 1.0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod bsp;
mod checkpoint;
mod common;
mod config;
mod cv;
mod engine;
mod exec;
mod ps;
mod sequential;
mod sparkml;
mod system;
mod trace;

pub use checkpoint::{
    checkpoint_path, prune_checkpoints, CheckpointError, TrainCheckpoint, CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
};
pub use config::{
    AngelConfig, MaWeighting, PsSystemConfig, TrainConfig, TrainOutput, TrainProvenance,
};
pub use cv::{cross_validate_path, CvConfig, CvError, CvFoldResult, CvJobStats, CvResult};
pub use engine::{CommBytes, RoundStats};
pub use exec::{system_partitions, ComputeBackend, ExecAbort, InProcessBackend};
pub use mlstar_collectives::{CompressionConfig, FrameSwitch, Sparsifier};
pub use mlstar_exec::{ExecError, OpExecutor, OpResult, Shard, WorkerOp};
pub use sequential::reference_optimum;
pub use system::System;
pub use trace::{ConvergenceTrace, TracePoint};
