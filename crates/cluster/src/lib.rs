//! Deterministic simulated-cluster substrate.
//!
//! The paper's experiments ran on two physical clusters (9 nodes / 1 Gbps
//! and 953 nodes / 10 Gbps). This crate replaces them with a fully
//! deterministic simulation so the reproduction runs on one machine:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`ClusterSpec`] — node compute rates, per-task overheads, network
//!   bandwidth/latency, and a straggler model (the source of Figure 6's
//!   poor scalability on the heterogeneous production cluster).
//! * [`CostModel`] — turns work (flops) and messages (bytes) into
//!   simulated durations.
//! * [`GanttRecorder`] — per-node activity spans; renders the text Gantt
//!   charts of Figure 3 and exports CSV.
//! * [`RoundBuilder`] — composes BSP supersteps (phases + barriers) while
//!   recording spans; used by the MLlib-family systems.
//! * [`EventQueue`] — a deterministic discrete-event queue; used by the
//!   parameter-server engine for asynchronous (SSP/ASP) execution.
//! * [`SeedStream`] — splittable deterministic seeds for per-worker RNGs.
//!
//! The learning *math* is never simulated — only time is.
//!
//! # Example
//!
//! ```
//! use mlstar_sim::{
//!     Activity, ClusterSpec, CostModel, GanttRecorder, NodeId, RoundBuilder, SimTime,
//! };
//!
//! let cost = CostModel::new(ClusterSpec::cluster1());
//! let mut gantt = GanttRecorder::new();
//! let nodes = [NodeId::Driver, NodeId::Executor(0)];
//! let mut round = RoundBuilder::new(&mut gantt, 0, SimTime::ZERO, &nodes);
//! round.work(NodeId::Driver, Activity::Broadcast, cost.transfer(1_000_000));
//! round.barrier();
//! round.work(NodeId::Executor(0), Activity::Compute, cost.driver_compute(1e9));
//! let end = round.finish();
//! assert!(end.as_secs_f64() > 0.5); // 1e9 flops at 2 GFLOP/s
//! assert!(gantt.busy_time(NodeId::Driver) > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod barrier;
mod cost;
mod event;
mod gantt;
mod rng;
mod spec;
mod time;

pub use barrier::{PhaseTotals, RoundBuilder};
pub use cost::{dense_op_flops, pass_flops, CostModel};
pub use event::EventQueue;
pub use gantt::{Activity, ActivityKind, GanttRecorder, NodeId, Span};
pub use rng::{lognormal, normal, SeedStream};
pub use spec::{ClusterSpec, NetworkSpec, NodeSpec, StragglerModel};
pub use time::{SimDuration, SimTime};
