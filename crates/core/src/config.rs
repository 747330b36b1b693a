//! Shared training configuration and run output.

use mlstar_collectives::CompressionConfig;
use mlstar_glm::{GlmModel, LearningRate, Loss, Regularizer};
use mlstar_sim::GanttRecorder;

use crate::{ConvergenceTrace, RoundStats};

/// How the SendModel systems combine worker models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaWeighting {
    /// Plain model averaging (the paper's MLlib\* default).
    #[default]
    Uniform,
    /// Weight each worker's model by its partition size — the
    /// "reweighting" refinement of Zhang & Jordan the paper's Remark
    /// points to. Identical to uniform on balanced partitions; corrects
    /// the bias on skewed ones.
    PartitionSize,
}

/// Configuration shared by every distributed trainer.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// The loss (the paper trains hinge-loss SVMs).
    pub loss: Loss,
    /// The regularization term (`L2=0` / `L2=0.1` in the paper).
    pub reg: Regularizer,
    /// Learning-rate schedule (per model update).
    pub lr: LearningRate,
    /// Mini-batch size as a fraction of the sampling pool (the full
    /// dataset for MLlib's global batch; the local partition for PS
    /// workers). The paper grid-searches this; 0.01 is its typical value.
    pub batch_frac: f64,
    /// Maximum communication steps (MLlib rounds / PS global clocks).
    pub max_rounds: u64,
    /// Evaluate the objective every this many communication steps.
    pub eval_every: u64,
    /// Stop when the objective reaches this value (the paper's
    /// optimum + 0.01 threshold), if set.
    pub target_objective: Option<f64>,
    /// Fan-in of MLlib's `treeAggregate`.
    pub tree_fanin: usize,
    /// Per-round probability that one executor's task fails and is
    /// recovered via Spark's lineage (the failed task re-runs from cached
    /// input). Affects simulated time only — recomputation is
    /// deterministic, so results are unchanged. Default 0.
    pub failure_prob: f64,
    /// Tasks per executor per round ("waves"). The paper tuned this and
    /// found 1 optimal; >1 splits each round's local work into sequential
    /// tasks that each pay the Spark task overhead but draw independent
    /// straggler multipliers.
    pub waves: usize,
    /// Aggregation weighting for the model-averaging systems.
    pub ma_weighting: MaWeighting,
    /// If set, rows are partitioned with
    /// [`mlstar_data::Partitioner::SkewedShuffled`]: worker 0 owns this
    /// fraction of the data, clamped to `[1/k, 0.95]`; it must be finite.
    /// `None` = balanced shuffle (the default).
    pub partition_skew: Option<f64>,
    /// Write a training checkpoint every this many communication steps
    /// (BSP rounds / PS global clocks) when a checkpoint directory is
    /// supplied (see [`crate::System::train_checkpointed`]). `0` (the
    /// default) disables checkpointing. Deliberately excluded from the
    /// checkpoint's config digest: changing the cadence must not
    /// invalidate an existing checkpoint.
    pub checkpoint_every: u64,
    /// Keep only the newest this-many checkpoints on disk per system,
    /// deleting older ones after each successful write. `0` (the default)
    /// keeps everything. Like the cadence, retention changes neither the
    /// math nor the simulated time, so it is excluded from the
    /// checkpoint's config digest.
    pub checkpoint_keep: u64,
    /// Compressed-collective policy for the AllReduce systems (MLlib\*):
    /// with [`CompressionConfig::enabled`], model exchange ships
    /// SparCML-style sparse/quantized frames with per-worker error
    /// feedback instead of the dense Reduce-Scatter + AllGather. The
    /// default ([`mlstar_collectives::FrameSwitch::Dense`]) keeps the
    /// legacy dense path bit-for-bit.
    pub compression: CompressionConfig,
    /// Experiment seed (drives partitioning, batch sampling, stragglers).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.1),
            batch_frac: 0.01,
            max_rounds: 200,
            eval_every: 1,
            target_objective: None,
            tree_fanin: 3,
            failure_prob: 0.0,
            waves: 1,
            ma_weighting: MaWeighting::Uniform,
            partition_skew: None,
            checkpoint_every: 0,
            checkpoint_keep: 0,
            compression: CompressionConfig::default(),
            seed: 42,
        }
    }
}

impl TrainConfig {
    /// Objective ceiling above which a run is declared divergent: any
    /// non-finite objective, or one strictly greater than this, stops
    /// training via [`TrainConfig::should_stop`]. The paper's objectives
    /// live in `[0, ~10]`, so anything past `1e9` is a blown-up model,
    /// not slow convergence.
    pub const DIVERGENCE_THRESHOLD: f64 = 1e9;

    /// Resolves the batch size against a pool of `pool_len` examples
    /// (at least 1).
    pub fn batch_size(&self, pool_len: usize) -> usize {
        ((pool_len as f64 * self.batch_frac).round() as usize).clamp(1, pool_len.max(1))
    }

    /// Checks the configuration for parameter values that would make a
    /// run silently train something other than what was asked for.
    /// Trainer entry points assert this, so a bad sweep fails loudly at
    /// configuration time rather than producing a plausible-looking but
    /// wrong convergence curve.
    pub fn validate(&self) -> Result<(), String> {
        self.lr.validate()?;
        let lambda = self.reg.lambda();
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(format!(
                "regularization strength must be finite and ≥ 0, got {lambda}"
            ));
        }
        if !self.batch_frac.is_finite() || self.batch_frac <= 0.0 {
            return Err(format!(
                "batch_frac must be finite and > 0, got {}",
                self.batch_frac
            ));
        }
        if self.eval_every == 0 {
            return Err("eval_every must be ≥ 1".to_string());
        }
        if self.tree_fanin < 2 {
            return Err(format!("tree_fanin must be ≥ 2, got {}", self.tree_fanin));
        }
        if self.waves == 0 {
            return Err("waves must be ≥ 1".to_string());
        }
        if !self.failure_prob.is_finite() || !(0.0..=1.0).contains(&self.failure_prob) {
            return Err(format!(
                "failure_prob must be in [0, 1], got {}",
                self.failure_prob
            ));
        }
        if let Some(skew) = self.partition_skew.filter(|s| !s.is_finite()) {
            return Err(format!("partition_skew must be finite, got {skew}"));
        }
        self.compression.validate()?;
        Ok(())
    }

    /// True if training should stop at this objective value (target
    /// reached, or divergence per
    /// [`TrainConfig::DIVERGENCE_THRESHOLD`]).
    pub fn should_stop(&self, objective: f64) -> bool {
        if !objective.is_finite() || objective > Self::DIVERGENCE_THRESHOLD {
            return true;
        }
        match self.target_objective {
            Some(t) => objective <= t,
            None => false,
        }
    }
}

/// Extra configuration for the parameter-server systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsSystemConfig {
    /// Number of server shards.
    pub num_servers: usize,
    /// SSP staleness bound (0 = BSP). Petuum's tunable in the paper's
    /// grid search.
    pub staleness: u64,
    /// Transmit sparse messages where the algorithm allows it: pulls
    /// fetch only the worker partition's active coordinates, and (under
    /// model *summation* with no regularizer) pushes ship only the
    /// touched coordinates. Real PS systems do this for high-dimensional
    /// sparse models.
    pub sparse_messages: bool,
}

impl Default for PsSystemConfig {
    fn default() -> Self {
        PsSystemConfig {
            num_servers: 2,
            staleness: 2,
            sparse_messages: false,
        }
    }
}

/// Extra configuration for Angel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AngelConfig {
    /// Number of server shards.
    pub num_servers: usize,
    /// SSP staleness bound between workers' epoch clocks (0 = BSP).
    pub staleness: u64,
    /// Simulated memory-allocation bandwidth (bytes/s) for the per-batch
    /// gradient-accumulation vector. The paper: "Angel stores the
    /// accumulated gradients for each batch in a separate vector... there
    /// will be significant overhead on memory allocation and garbage
    /// collection" — this constant is that overhead's knob.
    pub alloc_bandwidth_bps: f64,
    /// Transmit sparse messages where possible (see
    /// [`PsSystemConfig::sparse_messages`]).
    pub sparse_messages: bool,
}

impl Default for AngelConfig {
    fn default() -> Self {
        AngelConfig {
            num_servers: 2,
            staleness: 1,
            alloc_bandwidth_bps: 2e9,
            sparse_messages: false,
        }
    }
}

/// Training provenance extracted from a finished run — everything a
/// downstream consumer (the `mlstar-serve` artifact registry) needs to
/// identify where a model came from without holding the full
/// [`TrainOutput`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainProvenance {
    /// Display name of the system that trained the model (round-trips
    /// through [`crate::System`]'s `Display`/`FromStr` pair).
    pub system: String,
    /// The experiment seed of the run.
    pub seed: u64,
    /// Communication steps actually executed.
    pub rounds_run: u64,
    /// Total model updates performed across the cluster.
    pub total_updates: u64,
    /// True if the run ended by reaching its target objective.
    pub converged: bool,
    /// Final objective value of the convergence trace, if any point was
    /// recorded.
    pub final_objective: Option<f64>,
    /// Host threads used for local compute during the run (the
    /// `MLSTAR_HOST_THREADS` setting, captured once at training start).
    /// Affects wall-clock only, never results — recorded so an artifact
    /// documents the environment it was produced in.
    pub host_threads: usize,
}

/// The output of one distributed training run.
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// Objective vs. step/time curve.
    pub trace: ConvergenceTrace,
    /// Recorded per-node activity spans.
    pub gantt: GanttRecorder,
    /// The final global model.
    pub model: GlmModel,
    /// Total model updates performed across the cluster.
    pub total_updates: u64,
    /// Communication steps actually executed.
    pub rounds_run: u64,
    /// True if the run ended by reaching `target_objective`.
    pub converged: bool,
    /// Per-round telemetry: updates, flops, bytes per communication
    /// pattern, and a per-phase simulated-time breakdown whose phases sum
    /// to each round's elapsed time. One entry per executed round.
    pub round_stats: Vec<RoundStats>,
    /// Host threads used for local compute (read once from
    /// `MLSTAR_HOST_THREADS` at training start, 1 for systems that never
    /// parallelize local passes).
    pub host_threads: usize,
}

impl TrainOutput {
    /// Extracts the run's provenance for export into a serving artifact.
    /// The system is recorded by its `Display` name so the string parses
    /// back via `FromStr`.
    pub fn provenance(&self, system: crate::System, cfg: &TrainConfig) -> TrainProvenance {
        TrainProvenance {
            system: system.to_string(),
            seed: cfg.seed,
            rounds_run: self.rounds_run,
            total_updates: self.total_updates,
            converged: self.converged,
            final_objective: self.trace.final_objective(),
            host_threads: self.host_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_size_resolution() {
        let cfg = TrainConfig {
            batch_frac: 0.01,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.batch_size(10_000), 100);
        assert_eq!(cfg.batch_size(10), 1, "rounds to at least 1");
        assert_eq!(cfg.batch_size(0), 1, "degenerate pool still yields 1");
        let full = TrainConfig {
            batch_frac: 1.0,
            ..TrainConfig::default()
        };
        assert_eq!(full.batch_size(37), 37);
        let over = TrainConfig {
            batch_frac: 5.0,
            ..TrainConfig::default()
        };
        assert_eq!(over.batch_size(37), 37, "clamped to pool");
    }

    #[test]
    fn stop_conditions() {
        let cfg = TrainConfig {
            target_objective: Some(0.1),
            ..TrainConfig::default()
        };
        assert!(!cfg.should_stop(0.5));
        assert!(cfg.should_stop(0.1));
        assert!(cfg.should_stop(0.05));
        assert!(cfg.should_stop(f64::NAN), "divergence stops training");
        assert!(cfg.should_stop(1e12), "blow-up stops training");
        assert!(
            !cfg.should_stop(TrainConfig::DIVERGENCE_THRESHOLD),
            "the threshold itself is still finite training"
        );
        assert!(
            cfg.should_stop(TrainConfig::DIVERGENCE_THRESHOLD * 1.01),
            "just past the threshold stops"
        );
        let no_target = TrainConfig {
            target_objective: None,
            ..TrainConfig::default()
        };
        assert!(!no_target.should_stop(0.0));
        assert!(no_target.should_stop(f64::INFINITY));
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = TrainConfig::default();
        assert!(cfg.batch_frac > 0.0 && cfg.batch_frac <= 1.0);
        assert!(cfg.tree_fanin >= 2);
        assert!(cfg.eval_every >= 1);
        assert_eq!(cfg.waves, 1, "the paper's tuned optimum");
        assert_eq!(cfg.failure_prob, 0.0);
        assert!(PsSystemConfig::default().num_servers >= 1);
        assert!(AngelConfig::default().alloc_bandwidth_bps > 0.0);
        assert_eq!(cfg.checkpoint_every, 0, "checkpointing is opt-in");
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let zero_period = TrainConfig {
            lr: LearningRate::Exponential {
                eta0: 0.1,
                factor: 0.5,
                period: 0,
            },
            ..TrainConfig::default()
        };
        assert!(zero_period.validate().unwrap_err().contains("period"));
        let bad_frac = TrainConfig {
            batch_frac: 0.0,
            ..TrainConfig::default()
        };
        assert!(bad_frac.validate().is_err());
        let bad_eval = TrainConfig {
            eval_every: 0,
            ..TrainConfig::default()
        };
        assert!(bad_eval.validate().is_err());
        let bad_fail = TrainConfig {
            failure_prob: 1.5,
            ..TrainConfig::default()
        };
        assert!(bad_fail.validate().is_err());
        let nan_skew = TrainConfig {
            partition_skew: Some(f64::NAN),
            ..TrainConfig::default()
        };
        assert!(nan_skew
            .validate()
            .unwrap_err()
            .contains("partition_skew must be finite"));
        for lambda in [-1.0, f64::NAN] {
            for reg in [Regularizer::L2 { lambda }, Regularizer::L1 { lambda }] {
                let bad_reg = TrainConfig {
                    reg,
                    ..TrainConfig::default()
                };
                assert!(
                    bad_reg.validate().unwrap_err().contains("regularization"),
                    "{reg:?}"
                );
            }
        }
    }
}
