//! The unified round engine shared by all seven trainers.
//!
//! Every BSP system (MLlib, MLlib+MA, MLlib\*, `spark.ml`) is expressed as
//! a [`RoundStrategy`]: a per-round hook that performs the local work and
//! communication of one communication step against a [`mlstar_sim::RoundBuilder`]
//! and reports the updates it performed. The single [`run_rounds`] driver
//! owns everything the trainers used to duplicate — straggler/failure RNG
//! streams, the `eval_every` trace cadence, convergence/divergence
//! handling via [`TrainConfig::should_stop`], and [`TrainOutput`]
//! assembly.
//!
//! The parameter-server systems (Petuum, Petuum\*, Angel) keep their
//! event-driven engine (`crate::ps`) and share only the output
//! assembly ([`assemble_output`]).
//!
//! Per round, the engine threads structured telemetry into
//! [`TrainOutput::round_stats`]: bytes moved per communication pattern
//! ([`CommBytes`]), flops charged, and a per-phase simulated-time
//! breakdown (compute / communication / straggler-idle / failure-recovery)
//! that sums to the round's elapsed simulated time.

use mlstar_codec::{CodecError, Reader, Writer};
use mlstar_data::{DatasetFingerprint, SparseDataset};
use mlstar_glm::GlmModel;
use mlstar_linalg::DenseVector;
use mlstar_sim::{
    Activity, CostModel, GanttRecorder, NodeId, PhaseTotals, RoundBuilder, SeedStream, SimTime,
};
use rand::rngs::StdRng;
use std::path::Path;

use crate::checkpoint::{
    checkpoint_path, config_digest, BspState, CheckpointError, CheckpointState, EngineState,
    TrainCheckpoint,
};
use crate::common::{eval_objective, maybe_inject_failure, workload_label, BspHarness};
use crate::exec::ComputeBackend;
use crate::{ConvergenceTrace, System, TracePoint, TrainConfig, TrainOutput};

/// Bytes moved in one communication step, split by pattern.
///
/// The BSP patterns are charged from the `mlstar-collectives` return
/// values; the PS patterns from the engine's per-clock pull/push volumes.
/// Tree-aggregate combine work and the `spark.ml` scalar gathers are
/// counted under `tree_aggregate` (they serialize at the driver the same
/// way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommBytes {
    /// Driver → executors model broadcast.
    pub broadcast: u64,
    /// Hierarchical aggregation up to the driver (`treeAggregate`).
    pub tree_aggregate: u64,
    /// Reduce-Scatter half of AllReduce.
    pub reduce_scatter: u64,
    /// AllGather half of AllReduce.
    pub all_gather: u64,
    /// Parameter-server pulls (server → worker).
    pub ps_pull: u64,
    /// Parameter-server pushes (worker → server).
    pub ps_push: u64,
}

impl CommBytes {
    /// Total bytes moved across all patterns.
    pub fn total(&self) -> u64 {
        self.broadcast
            + self.tree_aggregate
            + self.reduce_scatter
            + self.all_gather
            + self.ps_pull
            + self.ps_push
    }
}

/// Structured telemetry for one communication step of a training run.
///
/// Phase times are averaged over the participating nodes so that
/// [`RoundStats::phase_sum`] equals [`RoundStats::elapsed_s`]: for BSP
/// rounds every node's spans tile the round exactly; for PS clocks (whose
/// workers overlap under SSP) `elapsed_s` is *defined* as the per-worker
/// average busy + idle time within the clock, so the identity holds by
/// construction there too.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundStats {
    /// 0-based communication step (BSP round / PS global clock).
    pub round: u64,
    /// Model updates performed across the cluster during this step.
    pub updates: u64,
    /// Floating-point work charged to simulated compute this step.
    pub flops: f64,
    /// Bytes moved, by communication pattern.
    pub bytes: CommBytes,
    /// Seconds of simulated compute (averaged over nodes).
    pub compute_s: f64,
    /// Seconds of simulated communication (averaged over nodes).
    pub comm_s: f64,
    /// Seconds idle at barriers / behind stragglers (averaged over nodes).
    pub idle_s: f64,
    /// Seconds inside failure-recovery windows (averaged over nodes).
    pub recovery_s: f64,
    /// Elapsed simulated seconds of the step.
    pub elapsed_s: f64,
}

impl RoundStats {
    /// Sum of the four phases — equals `elapsed_s` up to floating-point
    /// rounding.
    pub fn phase_sum(&self) -> f64 {
        self.compute_s + self.comm_s + self.idle_s + self.recovery_s
    }
}

/// One in-flight BSP round: a [`RoundBuilder`] plus the engine's byte /
/// flop accumulators and the shared straggler/failure RNG streams.
pub(crate) struct BspRound<'a, 'g> {
    /// The superstep under construction.
    pub rb: RoundBuilder<'g>,
    pub bytes: &'a mut CommBytes,
    pub flops: &'a mut f64,
    pub straggler_rng: &'a mut StdRng,
    pub failure_rng: &'a mut StdRng,
}

impl BspRound<'_, '_> {
    /// Charges `flops` of floating-point work to this step's telemetry.
    pub fn charge_flops(&mut self, flops: f64) {
        *self.flops += flops;
    }

    /// Driver-serialized model broadcast, charged to `bytes.broadcast`.
    pub fn broadcast(&mut self, cost: &CostModel, dim: usize) {
        self.bytes.broadcast += mlstar_collectives::broadcast_model(&mut self.rb, cost, dim) as u64;
    }

    /// Hierarchical aggregation to the driver, charged to
    /// `bytes.tree_aggregate`.
    pub fn tree_aggregate(
        &mut self,
        cost: &CostModel,
        inputs: &[DenseVector],
        fanin: usize,
        send_activity: Activity,
    ) -> DenseVector {
        let (sum, b) =
            mlstar_collectives::tree_aggregate(&mut self.rb, cost, inputs, fanin, send_activity);
        self.bytes.tree_aggregate += b as u64;
        sum
    }

    /// AllReduce as Reduce-Scatter + AllGather, charging each half to its
    /// own pattern counter. Identical composition (and therefore
    /// bit-identical timing and result) to
    /// `mlstar_collectives::all_reduce_average`.
    pub fn all_reduce_average(&mut self, cost: &CostModel, locals: &[DenseVector]) -> DenseVector {
        let (parts, b1) = mlstar_collectives::reduce_scatter_average(&mut self.rb, cost, locals);
        self.bytes.reduce_scatter += b1 as u64;
        let (model, b2) = mlstar_collectives::all_gather(&mut self.rb, cost, &parts);
        self.bytes.all_gather += b2 as u64;
        model
    }

    /// Compressed AllReduce: a single all-to-all exchange of
    /// sparse/quantized frames with per-worker error feedback (see
    /// `mlstar_collectives::compressed_all_reduce_average`). The bytes
    /// charged are the *actual* encoded frame lengths, booked against the
    /// `all_gather` counter — the exchange is one AllGather-shaped phase,
    /// and [`CommBytes`] is checkpoint-serialized, so no new field.
    pub fn compressed_all_reduce_average(
        &mut self,
        cost: &CostModel,
        locals: &[DenseVector],
        comm: &mlstar_collectives::CompressionConfig,
        residuals: &mut Vec<DenseVector>,
    ) -> DenseVector {
        let (model, b) = mlstar_collectives::compressed_all_reduce_average(
            &mut self.rb,
            cost,
            locals,
            comm,
            residuals,
        );
        self.bytes.all_gather += b as u64;
        model
    }

    /// Spark-style lineage failure injection; the recovery work and the
    /// barrier wait it causes are charged to [`RoundStats::recovery_s`],
    /// and the recomputed flops to the step's flop counter.
    pub fn inject_failure(
        &mut self,
        h: &BspHarness<'_>,
        cfg: &TrainConfig,
        flops_of: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        self.rb.set_recovery(true);
        let victim = maybe_inject_failure(
            &mut self.rb,
            h,
            cfg.failure_prob,
            cfg.waves,
            &flops_of,
            self.failure_rng,
            self.straggler_rng,
        );
        self.rb.set_recovery(false);
        if let Some(v) = victim {
            *self.flops += flops_of(v);
        }
        victim
    }
}

/// Mutable engine state threaded through a strategy's steps: the Gantt
/// recording, the simulated clock, the global round counter (shared
/// across every [`RoundBuilder`] a step opens — `spark.ml` opens several
/// per outer iteration), the straggler/failure RNG streams, and the
/// accumulators for the current step's [`RoundStats`].
pub(crate) struct StepCtx {
    pub gantt: GanttRecorder,
    pub now: SimTime,
    round_counter: u64,
    straggler_rng: StdRng,
    failure_rng: StdRng,
    phases: PhaseTotals,
    bytes: CommBytes,
    flops: f64,
}

impl StepCtx {
    pub(crate) fn new(seed: u64) -> Self {
        let seeds = SeedStream::new(seed);
        StepCtx {
            gantt: GanttRecorder::new(),
            now: SimTime::ZERO,
            round_counter: 0,
            straggler_rng: seeds.child("straggler").rng(),
            failure_rng: seeds.child("failures").rng(),
            phases: PhaseTotals::default(),
            bytes: CommBytes::default(),
            flops: 0.0,
        }
    }

    /// Runs `f` inside a fresh superstep starting at the current clock,
    /// then advances the clock to the round's end and folds its phase
    /// breakdown into the step accumulators.
    pub fn round<T>(&mut self, nodes: &[NodeId], f: impl FnOnce(&mut BspRound<'_, '_>) -> T) -> T {
        let rb = RoundBuilder::new(&mut self.gantt, self.round_counter, self.now, nodes);
        self.round_counter += 1;
        let mut rd = BspRound {
            rb,
            bytes: &mut self.bytes,
            flops: &mut self.flops,
            straggler_rng: &mut self.straggler_rng,
            failure_rng: &mut self.failure_rng,
        };
        let out = f(&mut rd);
        let (end, phases) = rd.rb.finish_with_phases();
        self.now = end;
        self.phases.compute_s += phases.compute_s;
        self.phases.comm_s += phases.comm_s;
        self.phases.idle_s += phases.idle_s;
        self.phases.recovery_s += phases.recovery_s;
        out
    }

    /// Drains the step accumulators into a [`RoundStats`] for the step
    /// that began at `start`.
    fn take_step_stats(&mut self, round: u64, start: SimTime, updates: u64) -> RoundStats {
        let phases = std::mem::take(&mut self.phases);
        let bytes = std::mem::take(&mut self.bytes);
        let flops = std::mem::take(&mut self.flops);
        RoundStats {
            round,
            updates,
            flops,
            bytes,
            compute_s: phases.compute_s,
            comm_s: phases.comm_s,
            idle_s: phases.idle_s,
            recovery_s: phases.recovery_s,
            elapsed_s: self.now.since(start).as_secs_f64(),
        }
    }

    /// Discards whatever accumulated outside a counted step (e.g. the
    /// `spark.ml` warm-up gradient in [`RoundStrategy::init`]): the time
    /// stays in the Gantt recording, but no [`RoundStats`] claims it.
    fn discard_step_accumulators(&mut self) {
        self.phases = PhaseTotals::default();
        self.bytes = CommBytes::default();
        self.flops = 0.0;
    }

    /// Snapshots the engine state at a round boundary. Valid only there:
    /// the per-step accumulators are drained by `take_step_stats` at every
    /// boundary, so they are (and must be) empty and are not captured.
    fn export(&self) -> EngineState {
        EngineState {
            now_nanos: self.now.as_nanos(),
            round_counter: self.round_counter,
            straggler_rng: self.straggler_rng.export_state(),
            failure_rng: self.failure_rng.export_state(),
            spans: self.gantt.spans().to_vec(),
        }
    }

    /// Rebuilds a context from an exported round-boundary snapshot. Both
    /// RNG streams resume mid-stride, so every subsequent straggler and
    /// failure draw replays exactly.
    fn restore(state: &EngineState) -> Result<StepCtx, CodecError> {
        let straggler_rng = StdRng::restore_state(&state.straggler_rng)
            .ok_or_else(|| CodecError::Corrupt("invalid straggler RNG state".into()))?;
        let failure_rng = StdRng::restore_state(&state.failure_rng)
            .ok_or_else(|| CodecError::Corrupt("invalid failure RNG state".into()))?;
        Ok(StepCtx {
            gantt: GanttRecorder::from_spans(state.spans.clone()),
            now: SimTime::from_nanos(state.now_nanos),
            round_counter: state.round_counter,
            straggler_rng,
            failure_rng,
            phases: PhaseTotals::default(),
            bytes: CommBytes::default(),
            flops: 0.0,
        })
    }
}

/// One trainer, expressed as the engine's per-round hook.
pub(crate) trait RoundStrategy {
    /// Trace name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// The current global model.
    fn weights(&self) -> &DenseVector;

    /// Consumes the strategy, yielding the final model.
    fn into_weights(self) -> DenseVector;

    /// Objective value at the current model (measurement only — never
    /// charged to simulated time).
    fn objective(&self, ds: &SparseDataset, cfg: &TrainConfig) -> f64 {
        eval_objective(ds, cfg.loss, cfg.reg, self.weights())
    }

    /// One-time setup charged to simulated time but not counted as a
    /// round (e.g. `spark.ml`'s warm-up gradient).
    fn init(
        &mut self,
        _ctx: &mut StepCtx,
        _backend: &mut dyn ComputeBackend,
        _ds: &SparseDataset,
        _cfg: &TrainConfig,
    ) {
    }

    /// Performs communication step `round`: worker-local math as ops on
    /// `backend`, communication against [`StepCtx::round`]. Returns the
    /// number of model updates performed, or `None` to stop training
    /// before this step counts (e.g. `spark.ml`'s gradient-norm and
    /// line-search exits).
    fn step(
        &mut self,
        ctx: &mut StepCtx,
        backend: &mut dyn ComputeBackend,
        ds: &SparseDataset,
        cfg: &TrainConfig,
        round: u64,
    ) -> Option<u64>;

    /// Encodes everything the strategy needs to resume bit-exactly at
    /// a round boundary: model weights, per-worker RNG streams mid-stride,
    /// update counters, optimizer history. Scratch buffers that every
    /// step fully overwrites before reading are deliberately excluded.
    fn save_state(&self, w: &mut Writer);

    /// Restores state written by [`RoundStrategy::save_state`] into a
    /// freshly constructed strategy for the same dataset, cluster, and
    /// config. Dimension or worker-count disagreements mean the payload
    /// does not belong to this run and surface as
    /// [`CodecError::Corrupt`].
    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError>;
}

/// Checkpointing instructions for one [`run_rounds`] call: where to
/// write (cadence comes from [`TrainConfig::checkpoint_every`]), which
/// system name to stamp, and optionally a decoded state to resume from.
pub(crate) struct CheckpointRun<'a> {
    pub dir: &'a Path,
    pub system: System,
    pub resume: Option<BspState>,
}

/// The single BSP driver: owns seeding, the trace cadence, stop handling
/// and output assembly for every [`RoundStrategy`]. When `ckpt` is supplied,
/// a [`TrainCheckpoint`] is written every
/// [`TrainConfig::checkpoint_every`] rounds (unless the run stops at
/// that round), and an embedded `resume` state re-enters the loop at its
/// saved round with every RNG stream mid-stride — producing bit-identical
/// traces, [`RoundStats`], and final models versus never stopping.
pub(crate) fn run_rounds<S: RoundStrategy>(
    ds: &SparseDataset,
    cfg: &TrainConfig,
    mut strategy: S,
    ckpt: Option<CheckpointRun<'_>>,
    backend: &mut dyn ComputeBackend,
) -> Result<TrainOutput, CheckpointError> {
    let validation = cfg.validate();
    assert!(validation.is_ok(), "invalid TrainConfig: {validation:?}");
    let host_threads = backend.host_threads();

    let (meta, resume) = match ckpt {
        Some(CheckpointRun {
            dir,
            system,
            resume,
        }) => {
            let meta = (cfg.checkpoint_every > 0)
                .then(|| (dir, system, DatasetFingerprint::of(ds), config_digest(cfg)));
            (meta, resume)
        }
        None => (None, None),
    };

    let mut trace = ConvergenceTrace::new(strategy.name(), workload_label(ds, cfg.reg));
    let mut total_updates = 0u64;
    let mut rounds_run = 0u64;
    let mut converged = false;
    let mut round_stats = Vec::new();
    let mut ctx;
    let first_round = match resume {
        Some(state) => {
            ctx = StepCtx::restore(&state.engine)?;
            let mut r = Reader::new(&state.strategy);
            strategy.restore_state(&mut r)?;
            r.finish()?;
            // The saved trace already contains the step-0 point, and
            // `init` already ran (its time lives in the restored clock
            // and spans) — re-running either would double-count.
            for p in &state.trace_points {
                trace.push(*p);
            }
            total_updates = state.total_updates;
            rounds_run = state.rounds_done;
            round_stats = state.round_stats;
            state.rounds_done
        }
        None => {
            ctx = StepCtx::new(cfg.seed);
            trace.push(TracePoint {
                step: 0,
                time: SimTime::ZERO,
                objective: strategy.objective(ds, cfg),
                total_updates: 0,
            });
            strategy.init(&mut ctx, backend, ds, cfg);
            ctx.discard_step_accumulators();
            0
        }
    };

    let eval_every = cfg.eval_every.max(1);
    for round in first_round..cfg.max_rounds {
        let start = ctx.now;
        let Some(updates) = strategy.step(&mut ctx, backend, ds, cfg, round) else {
            break;
        };
        total_updates += updates;
        rounds_run = round + 1;
        round_stats.push(ctx.take_step_stats(round, start, updates));

        let mut stopped = false;
        if rounds_run.is_multiple_of(eval_every) || rounds_run == cfg.max_rounds {
            let f = strategy.objective(ds, cfg);
            trace.push(TracePoint {
                step: rounds_run,
                time: ctx.now,
                objective: f,
                total_updates,
            });
            if cfg.should_stop(f) {
                converged = cfg.target_objective.is_some_and(|t| f <= t);
                stopped = true;
            }
        }
        if stopped {
            break;
        }

        if let Some((dir, system, fingerprint, digest)) = &meta {
            if rounds_run.is_multiple_of(cfg.checkpoint_every) {
                let mut w = Writer::new();
                strategy.save_state(&mut w);
                let ck = TrainCheckpoint {
                    system: system.name().to_string(),
                    config_digest: *digest,
                    fingerprint: *fingerprint,
                    state: CheckpointState::Bsp(BspState {
                        rounds_done: rounds_run,
                        total_updates,
                        trace_points: trace.points.clone(),
                        round_stats: round_stats.clone(),
                        engine: ctx.export(),
                        strategy: w.into_payload(),
                    }),
                };
                ck.write_file(&checkpoint_path(dir, *system, rounds_run))?;
                crate::checkpoint::prune_checkpoints(dir, *system, cfg.checkpoint_keep)?;
            }
        }
    }

    Ok(assemble_output(
        trace,
        ctx.gantt,
        strategy.into_weights(),
        total_updates,
        rounds_run,
        converged,
        round_stats,
        host_threads,
    ))
}

/// Unwraps a run that had no checkpoint directory: with no I/O, no
/// decoding and no anchor to miss, it has no reachable error path.
pub(crate) fn expect_uncheckpointed(run: Result<TrainOutput, CheckpointError>) -> TrainOutput {
    match run {
        Ok(out) => out,
        Err(e) => panic!("checkpoint-free run cannot fail: {e}"),
    }
}

/// The one place a [`TrainOutput`] is built — BSP and PS paths both end
/// here.
#[allow(
    clippy::too_many_arguments,
    reason = "every field of TrainOutput the BSP and PS paths compute separately"
)]
pub(crate) fn assemble_output(
    trace: ConvergenceTrace,
    gantt: GanttRecorder,
    weights: DenseVector,
    total_updates: u64,
    rounds_run: u64,
    converged: bool,
    round_stats: Vec<RoundStats>,
    host_threads: usize,
) -> TrainOutput {
    TrainOutput {
        trace,
        gantt,
        model: GlmModel::from_weights(weights),
        total_updates,
        rounds_run,
        converged,
        round_stats,
        host_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_sim::SimDuration;

    #[test]
    fn comm_bytes_total_sums_every_pattern() {
        let b = CommBytes {
            broadcast: 1,
            tree_aggregate: 2,
            reduce_scatter: 4,
            all_gather: 8,
            ps_pull: 16,
            ps_push: 32,
        };
        assert_eq!(b.total(), 63);
        assert_eq!(CommBytes::default().total(), 0);
    }

    #[test]
    fn round_stats_phase_sum() {
        let rs = RoundStats {
            compute_s: 1.0,
            comm_s: 0.5,
            idle_s: 0.25,
            recovery_s: 0.125,
            elapsed_s: 1.875,
            ..RoundStats::default()
        };
        assert!((rs.phase_sum() - rs.elapsed_s).abs() < 1e-12);
    }

    #[test]
    fn step_ctx_accumulates_and_drains() {
        let cost = CostModel::new(mlstar_sim::ClusterSpec::cluster1());
        let mut ctx = StepCtx::new(7);
        let nodes = [NodeId::Driver, NodeId::Executor(0)];
        let start = ctx.now;
        ctx.round(&nodes, |rd| {
            rd.charge_flops(123.0);
            rd.bytes.broadcast += 10;
            rd.rb.work(
                NodeId::Executor(0),
                Activity::Compute,
                SimDuration::from_secs_f64(2.0),
            );
        });
        // A second superstep in the same logical step gets the next round
        // number and extends the same accumulators.
        ctx.round(&nodes, |rd| {
            rd.rb
                .work(NodeId::Driver, Activity::Broadcast, cost.transfer(8_000));
        });
        assert_eq!(ctx.round_counter, 2);
        let stats = ctx.take_step_stats(0, start, 5);
        assert_eq!(stats.updates, 5);
        assert_eq!(stats.flops, 123.0);
        assert_eq!(stats.bytes.broadcast, 10);
        assert!(
            (stats.phase_sum() - stats.elapsed_s).abs() < 1e-9,
            "{stats:?}"
        );
        // Drained: a fresh step starts from zero.
        assert_eq!(ctx.flops, 0.0);
        assert_eq!(ctx.bytes, CommBytes::default());
    }
}
