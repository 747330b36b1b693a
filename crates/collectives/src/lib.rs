//! Communication collectives over the simulated cluster.
//!
//! Every collective in this crate does two things at once:
//!
//! 1. **moves the real vectors** (sums, averages, partitions, reassembles),
//!    so downstream training math is exact, and
//! 2. **charges simulated time** against a [`mlstar_sim::CostModel`] and
//!    records Gantt spans into the caller's [`mlstar_sim::RoundBuilder`],
//!    so wall-clock comparisons reproduce the paper's structure.
//!
//! The collectives map one-to-one onto the communication patterns of
//! Figure 2:
//!
//! * [`broadcast_model`] + [`tree_aggregate`] — MLlib's driver-centric
//!   pattern (Figure 2a), with hierarchical `treeAggregate` relief.
//! * [`reduce_scatter_average`] + [`all_gather`] — the shuffle-based
//!   AllReduce of MLlib\* (Figure 2b), composed by [`all_reduce_average`].
//!
//! A key invariant from the paper (Section IV-B2): with `k` executors and
//! model size `m`, *both* patterns move exactly `2·k·m` bytes per
//! communication step — AllReduce wins on latency (no serialization at the
//! driver NIC), not on volume. Every collective returns the bytes it moved
//! so tests can assert this.
//!
//! [`compressed_all_reduce_average`] breaks the `2·k·m` floor when models
//! are sparse: workers exchange SparCML-style compressed frames (exact or
//! lossy sparsified, optionally 8-bit quantized — see [`CompressionConfig`])
//! whose sizes are the *actual* encoded lengths from [`wire`], with
//! per-worker error feedback re-injecting whatever the wire dropped.
//!
//! # Example
//!
//! ```
//! use mlstar_collectives::all_reduce_average;
//! use mlstar_linalg::DenseVector;
//! use mlstar_sim::{ClusterSpec, CostModel, GanttRecorder, NodeId, RoundBuilder, SimTime};
//!
//! let k = 4;
//! let cost = CostModel::new(ClusterSpec::uniform(
//!     k,
//!     mlstar_sim::NodeSpec::standard(),
//!     mlstar_sim::NetworkSpec::gbps1(),
//! ));
//! let nodes: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
//! let locals: Vec<DenseVector> =
//!     (0..k).map(|r| DenseVector::filled(8, r as f64)).collect();
//! let mut gantt = GanttRecorder::new();
//! let mut round = RoundBuilder::new(&mut gantt, 0, SimTime::ZERO, &nodes);
//! let (avg, bytes_moved) = all_reduce_average(&mut round, &cost, &locals);
//! assert_eq!(avg.get(0), 1.5); // mean of 0,1,2,3
//! assert!(bytes_moved > 0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod allgather;
mod allreduce;
mod broadcast;
mod compress;
mod ring;
mod tree;
pub mod wire;

pub use allgather::all_gather;
pub use allreduce::{all_reduce_average, compressed_all_reduce_average, reduce_scatter_average};
pub use broadcast::broadcast_model;
pub use compress::{compress_update, CompressionConfig, EncodedUpdate, Sparsifier};
pub use ring::ring_all_reduce_average;
pub use tree::{tree_aggregate, tree_aggregate_with};
pub use wire::FrameSwitch;
