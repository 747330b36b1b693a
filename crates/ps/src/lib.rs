//! Parameter-server substrate.
//!
//! Petuum and Angel — the specialized systems the paper compares against —
//! are both *SendModel* systems built on the parameter-server architecture
//! (Figure 2c): the global model lives sharded across server nodes; workers
//! pull it, compute local updates, and push them back under a consistency
//! protocol (BSP, SSP or ASP).
//!
//! This crate provides that architecture over the simulated cluster:
//!
//! * [`KeyRouter`] — range-partitions model coordinates across shards.
//! * [`ServerGroup`] — the sharded global model with pluggable update
//!   [`Aggregation`] (summation as in Petuum, or incremental averaging as
//!   in the paper's Petuum\* variant).
//! * [`Consistency`] — BSP / SSP(staleness) / ASP admission control.
//! * [`PsEngine`] — a deterministic event-driven execution engine: workers
//!   progress through pull → compute → push state machines on the
//!   discrete-event queue, so staleness has *real* semantics (a pull
//!   observes exactly the pushes applied before it in simulated time).
//!
//! The worker-local computation is supplied by the caller through
//! [`WorkerLogic`], which is how `mlstar-core` expresses the difference
//! between Petuum (per-batch communication) and Angel (per-epoch
//! communication with per-batch allocation overhead).
//!
//! # Example
//!
//! ```
//! use mlstar_linalg::DenseVector;
//! use mlstar_ps::{Aggregation, Consistency, PsConfig, PsEngine, WorkerLogic, WorkerStep};
//! use mlstar_sim::{ClusterSpec, CostModel, NetworkSpec, NodeSpec, SimDuration};
//!
//! struct AddOne;
//! impl WorkerLogic for AddOne {
//!     fn compute(&mut self, worker: usize, _clock: u64, model: &DenseVector) -> WorkerStep {
//!         let mut delta = DenseVector::zeros(model.dim());
//!         delta.set(worker, 1.0);
//!         WorkerStep {
//!             payload: delta,
//!             payload_bytes: Some(mlstar_collectives::wire::encoded_sparse_len(1)),
//!             flops: 1e6,
//!             extra_overhead: SimDuration::ZERO,
//!             local_updates: 1,
//!         }
//!     }
//! }
//!
//! let cost = CostModel::new(ClusterSpec::uniform(2, NodeSpec::standard(), NetworkSpec::gbps1()));
//! let mut engine = PsEngine::new(&cost, PsConfig {
//!     num_servers: 1,
//!     consistency: Consistency::Ssp { staleness: 1 },
//!     aggregation: Aggregation::Sum,
//!     max_clocks: 3,
//!     tick_overhead: SimDuration::from_millis(2),
//!     seed: 1,
//! });
//! let (model, stats) = engine.run(DenseVector::zeros(2), &mut AddOne, |_, _, _| false);
//! assert_eq!(stats.total_pushes, 6);
//! assert_eq!(model.as_slice(), &[3.0, 3.0]);
//! ```

#![warn(missing_docs)]

mod consistency;
mod engine;
mod router;
mod server;

pub use consistency::Consistency;
pub use engine::{PsClockStats, PsConfig, PsEngine, PsRunStats, WorkerLogic, WorkerStep};
pub use router::KeyRouter;
pub use server::{Aggregation, ServerGroup};
