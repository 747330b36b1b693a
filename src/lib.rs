//! # mllib-star
//!
//! A Rust reproduction of *MLlib\*: Fast Training of GLMs using Spark MLlib*
//! (Zhang et al., ICDE 2019).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`linalg`] — vector primitives (dense, sparse, lazily-scaled),
//! * [`glm`] — losses, regularizers, objectives, sequential SGD/MGD,
//! * [`data`] — datasets, LIBSVM I/O, synthetic generators, partitioners,
//! * [`sim`] — the deterministic simulated-cluster substrate,
//! * [`collectives`] — broadcast / treeAggregate / Reduce-Scatter /
//!   AllGather / AllReduce over the simulated cluster,
//! * [`ps`] — the parameter-server engine (BSP/SSP/ASP as one staleness
//!   bound),
//! * [`core`] — the seven distributed training systems (MLlib, MLlib+MA,
//!   MLlib\*, Petuum, Petuum\*, Angel and `spark.ml`'s L-BFGS), traces,
//!   grid search and runners,
//! * [`serve`] — deterministic model serving: versioned artifacts, a
//!   registry with staged rollout, micro-batched sharded scoring, and
//!   latency telemetry,
//! * [`net`] — the real-thread execution backend: the same trainers,
//!   bit-identical, over an orchestrator/worker command protocol on
//!   in-process channels or loopback TCP, with per-round wall-clock
//!   measurements.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and the per-experiment index.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

pub use mlstar_codec as codec;
pub use mlstar_collectives as collectives;
pub use mlstar_core as core;
pub use mlstar_data as data;
pub use mlstar_glm as glm;
pub use mlstar_linalg as linalg;
pub use mlstar_net as net;
pub use mlstar_ps as ps;
pub use mlstar_serve as serve;
pub use mlstar_sim as sim;
