//! Deterministic model serving for the MLlib\* training systems.
//!
//! Training (the `mlstar-core` systems) produces a
//! [`GlmModel`](mlstar_glm::GlmModel); this
//! crate takes it the rest of the way to a serving fleet, deterministically:
//!
//! 1. **Artifacts** ([`ModelArtifact`]) — a model snapshot bundled with
//!    the fingerprint of the dataset it was trained on and the run's
//!    [`TrainProvenance`], wrapped in a checksummed binary codec
//!    ([`ModelArtifact::encode`]) whose decoder fails loudly — distinct
//!    [`ServeError`] variants for bad magic, unsupported version,
//!    truncation, and checksum mismatch — instead of serving a corrupt
//!    model.
//! 2. **Registry** ([`ModelRegistry`]) — named, versioned artifact lines
//!    with staged rollout: publish warms a new version behind the active
//!    one, promote flips it live, pin rolls back. The whole registry
//!    snapshots to disk through the same shared codec
//!    ([`ModelRegistry::write_file`] / [`ModelRegistry::read_file`]).
//! 3. **Engine** ([`ScoringEngine`]) — micro-batched scoring under a
//!    fixed batch-size + batch-deadline policy ([`BatchPolicy`]), scored
//!    by `std::thread` shard workers that live for the whole run.
//! 4. **Workload** ([`QueryWorkload`]) — seeded open-loop request streams
//!    with burst and hot-key-skew knobs.
//! 5. **Telemetry** ([`ServeTelemetry`]) — queue/score/merge latency
//!    decomposition on fixed-bucket histograms ([`LatencyHistogram`]),
//!    batch-fill and queue-depth stats, virtual-time throughput.
//!
//! # The determinism argument
//!
//! The whole pipeline is bit-reproducible, and — more unusually — the
//! *predictions and batch telemetry are independent of the worker-shard
//! count*:
//!
//! - batch formation is a pure function of the arrival sequence and the
//!   [`BatchPolicy`]; shards never influence which requests share a
//!   batch, so fill ratios and queue depths match across shard counts;
//! - each per-row margin is a row-local dot product: no cross-row
//!   floating-point accumulation exists for thread interleaving to
//!   reorder, so scores are bit-identical however the batch is sharded;
//! - shard outputs are concatenated in shard order and merged into
//!   request-id order, erasing scheduling order from the output;
//! - latency telemetry uses the engine's virtual-clock cost model
//!   ([`ScoreCostModel`]), not wall-clock reads (those live only in the
//!   bench crate).
//!
//! This mirrors the training-side discipline (per-worker seed streams,
//! simulated time) that makes the paper's convergence comparisons exactly
//! reproducible.
//!
//! # Example
//!
//! ```
//! use mlstar_core::{System, TrainConfig};
//! use mlstar_data::SyntheticConfig;
//! use mlstar_serve::{
//!     BatchPolicy, ModelArtifact, ModelRegistry, QueryWorkload, ScoringEngine,
//! };
//! use mlstar_sim::ClusterSpec;
//!
//! let dataset = SyntheticConfig::small("serve-demo", 300, 32).generate();
//! let cfg = TrainConfig { max_rounds: 3, ..TrainConfig::default() };
//! let out = System::MllibStar.train_default(&dataset, &ClusterSpec::cluster1(), &cfg);
//!
//! // Package, publish, and serve.
//! let artifact = ModelArtifact::from_run(System::MllibStar, &cfg, &out, &dataset).unwrap();
//! let mut registry = ModelRegistry::new();
//! registry.publish("demo", artifact).unwrap();
//!
//! let requests = QueryWorkload { num_requests: 64, ..QueryWorkload::default() }
//!     .generate(&dataset);
//! let engine =
//!     ScoringEngine::for_artifact(registry.active("demo").unwrap(), BatchPolicy::default(), 4);
//! let run = engine.run(&requests).unwrap();
//! assert_eq!(run.predictions.len(), 64);
//! assert!(run.telemetry.throughput_rps() > 0.0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

mod artifact;
mod engine;
mod error;
mod registry;
mod telemetry;
mod workload;

pub use artifact::{DatasetFingerprint, ModelArtifact, ARTIFACT_MAGIC, CODEC_VERSION};
pub use engine::{BatchPolicy, Prediction, ScoreCostModel, ScoreRequest, ScoringEngine, ServeRun};
pub use error::ServeError;
pub use registry::{ModelRegistry, SnapshotWrite, REGISTRY_MAGIC, REGISTRY_VERSION};
pub use telemetry::{BatchRecord, LatencyHistogram, ServeTelemetry};
pub use workload::QueryWorkload;

// Re-exported so downstream code can name the provenance type without
// depending on mlstar-core directly.
pub use mlstar_core::TrainProvenance;
