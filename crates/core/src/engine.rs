//! The unified round engine shared by all seven trainers.
//!
//! The four BSP systems are one trainer, `crate::bsp::BspStrategy`,
//! resolved from an update (SendGradient, SendModel or `spark.ml`'s
//! L-BFGS) and a combine (a driver tree or AllReduce). Each step performs
//! the local work and communication of one communication step against a
//! [`mlstar_sim::RoundBuilder`] and reports the updates it performed. The
//! single [`run_rounds`] loop drives it and owns the rest — straggler and
//! failure RNG streams, the `eval_every` trace cadence, convergence and
//! divergence handling via [`TrainConfig::should_stop`](crate::TrainConfig::should_stop), checkpoints, and
//! [`TrainOutput`] assembly.
//!
//! The parameter-server systems (Petuum, Petuum\*, Angel) keep their
//! event-driven engine (`crate::ps`) and share only [`RoundStats`].
//!
//! Per round, the engine threads structured telemetry into
//! [`TrainOutput::round_stats`]: bytes moved per communication pattern
//! ([`CommBytes`]), flops charged, and a per-phase simulated-time
//! breakdown (compute / communication / straggler-idle / failure-recovery)
//! that sums to the round's elapsed simulated time.

use mlstar_codec::{CodecError, Reader, Writer};
use mlstar_collectives::{
    all_gather, compressed_all_reduce_average, reduce_scatter_average, CompressionConfig,
};
use mlstar_data::DatasetFingerprint;
use mlstar_glm::GlmModel;
use mlstar_linalg::DenseVector;
use mlstar_sim::{
    Activity, CostModel, GanttRecorder, NodeId, PhaseTotals, RoundBuilder, SeedStream, SimTime,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::Path;

use crate::bsp::BspStrategy;
use crate::checkpoint::{
    checkpoint_path, config_digest, BspState, CheckpointError, CheckpointState, EngineState,
    TrainCheckpoint,
};
use crate::common::{workload_label, BspHarness};
use crate::exec::ComputeBackend;
use crate::{ConvergenceTrace, TracePoint, TrainOutput};

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
    /// The driver's update of `flops`, charged to the step's flops and to
    /// the driver's Gantt row.
    pub fn driver_update(&mut self, h: &BspHarness<'_>, flops: f64) {
        *self.flops += flops;
        let time = h.cost.driver_compute(flops);
        self.rb.work(NodeId::Driver, Activity::DriverUpdate, time);
    }

    /// Executor `r`'s task of `flops`, run as `waves` sequential tasks
    /// (one wave is exactly `CostModel::executor_compute`): charged to the
    /// step's flops, and to the executor's Gantt row at a fresh straggler
    /// draw per wave.
    pub fn task(&mut self, h: &BspHarness<'_>, r: usize, flops: f64, waves: usize) {
        *self.flops += flops;
        let time = h.cost.executor_waves(r, flops, waves, self.straggler_rng);
        self.rb.work(NodeId::Executor(r), Activity::Compute, time);
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

    /// [`BspRound::tree_aggregate`] with the driver's work on the last
    /// level given as `driver` (`mlstar_collectives::tree_aggregate_with`).
    pub fn tree_aggregate_with<T>(
        &mut self,
        cost: &CostModel,
        inputs: &[DenseVector],
        fanin: usize,
        send_activity: Activity,
        driver: impl FnOnce(&mut dyn Iterator<Item = &DenseVector>) -> T,
    ) -> T {
        let (out, b) = mlstar_collectives::tree_aggregate_with(
            &mut self.rb,
            cost,
            inputs,
            fanin,
            send_activity,
            driver,
        );
        self.bytes.tree_aggregate += b as u64;
        out
    }

    /// AllReduce of the workers' vectors into their average. Dense, it is
    /// Reduce-Scatter + AllGather, each half charged to its own counter
    /// (the composition of `mlstar_collectives::all_reduce_average`). With
    /// `comm` enabled, it is one all-to-all exchange of sparse/quantized
    /// frames with per-worker error feedback in `residuals`; the actual
    /// encoded bytes are booked against `all_gather` — the exchange is one
    /// AllGather-shaped phase, and [`CommBytes`] is checkpoint-serialized,
    /// so no new field.
    pub fn all_reduce_average(
        &mut self,
        cost: &CostModel,
        locals: &[DenseVector],
        comm: &CompressionConfig,
        residuals: &mut Vec<DenseVector>,
    ) -> DenseVector {
        let rb = &mut self.rb;
        if comm.enabled() {
            let (model, b) = compressed_all_reduce_average(rb, cost, locals, comm, residuals);
            self.bytes.all_gather += b as u64;
            return model;
        }
        let (parts, b1) = reduce_scatter_average(rb, cost, locals);
        self.bytes.reduce_scatter += b1 as u64;
        let (model, b2) = all_gather(rb, cost, &parts);
        self.bytes.all_gather += b2 as u64;
        model
    }

    /// Spark-style lineage failure injection: with probability
    /// `cfg.failure_prob` one executor's task fails this round and lineage
    /// re-runs it (its flops, a fresh straggler draw, the full task
    /// overhead). Deterministic given the failure RNG stream. The recovery
    /// work and the barrier wait it causes are charged to
    /// [`RoundStats::recovery_s`], and the recomputed flops to the step's
    /// flop counter.
    pub fn inject_failure(&mut self, h: &BspHarness<'_>, flops_of: impl Fn(usize) -> f64) {
        let prob = h.cfg.failure_prob;
        if prob <= 0.0 || !self.failure_rng.gen_bool(prob.min(1.0)) {
            return;
        }
        let victim = self.failure_rng.gen_range(0..h.k());
        self.rb.set_recovery(true);
        self.task(h, victim, flops_of(victim), h.cfg.waves);
        self.rb.barrier();
        self.rb.set_recovery(false);
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

/// The single BSP loop: owns seeding, the trace cadence, stop handling and
/// output assembly for the [`BspStrategy`] of any BSP system, on the
/// dataset and config it was resolved for. When `ckpt` names a directory,
/// a [`TrainCheckpoint`] is written there every `checkpoint_every` rounds
/// (unless the run stops at that round), and a decoded state to resume
/// from re-enters the loop at its saved round with every RNG stream
/// mid-stride — producing bit-identical traces, [`RoundStats`], and final
/// models versus never stopping.
pub(crate) fn run_rounds(
    mut strategy: BspStrategy<'_>,
    ckpt: Option<(&Path, Option<BspState>)>,
    backend: &mut dyn ComputeBackend,
) -> Result<TrainOutput, CheckpointError> {
    let (ds, cfg) = (strategy.h.ds, strategy.h.cfg);
    let validation = cfg.validate();
    assert!(validation.is_ok(), "invalid TrainConfig: {validation:?}");
    let host_threads = backend.host_threads();
    let system = strategy.system;
    let (dir, resume) = ckpt.unzip();
    let meta = dir
        .filter(|_| cfg.checkpoint_every > 0)
        .map(|dir| (dir, DatasetFingerprint::of(ds), config_digest(cfg)));

    let mut trace = ConvergenceTrace::new(system.name(), workload_label(ds, cfg.reg));
    let mut total_updates = 0u64;
    let mut rounds_run = 0u64;
    let mut converged = false;
    let mut round_stats = Vec::new();
    let mut ctx;
    let first_round = match resume.flatten() {
        Some(state) => {
            ctx = StepCtx::restore(&state.engine)?;
            let mut r = Reader::new(&state.strategy);
            strategy.restore_state(&mut r)?;
            r.finish()?;
            // The saved trace already contains the step-0 point, and
            // the warm-up already ran (its time lives in the restored clock
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
                objective: strategy.objective(),
                total_updates: 0,
            });
            // The warm-up's time stays in the Gantt recording, but no
            // RoundStats claims it.
            strategy.warm_up(&mut ctx, backend);
            ctx.take_step_stats(0, SimTime::ZERO, 0);
            0
        }
    };

    let eval_every = cfg.eval_every.max(1);
    for round in first_round..cfg.max_rounds {
        let start = ctx.now;
        let stepped = strategy.step(&mut ctx, backend, round);
        if let Some(updates) = stepped {
            total_updates += updates;
            rounds_run = round + 1;
            round_stats.push(ctx.take_step_stats(round, start, updates));
        }

        // A run that stops by itself ends on a point for the model it
        // returns, as one that reaches `max_rounds` does, timed at the end
        // of its last counted round.
        let last = stepped.is_none() || rounds_run == cfg.max_rounds;
        let traced = trace.points.last().is_some_and(|p| p.step == rounds_run);
        if (last || rounds_run.is_multiple_of(eval_every)) && !traced {
            let f = strategy.objective();
            trace.push(TracePoint {
                step: rounds_run,
                time: if stepped.is_some() { ctx.now } else { start },
                objective: f,
                total_updates,
            });
            if cfg.should_stop(f) {
                converged = cfg.target_objective.is_some_and(|t| f <= t);
                break;
            }
        }
        if stepped.is_none() {
            break;
        }

        if let Some((dir, fingerprint, digest)) = &meta {
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
                ck.write_file(&checkpoint_path(dir, system, rounds_run))?;
                crate::checkpoint::prune_checkpoints(dir, system, cfg.checkpoint_keep)?;
            }
        }
    }

    Ok(TrainOutput {
        trace,
        gantt: ctx.gantt,
        model: GlmModel::from_weights(strategy.w),
        total_updates,
        rounds_run,
        converged,
        round_stats,
        host_threads,
    })
}

/// Unwraps a run that had no checkpoint directory: with no I/O, no
/// decoding and no anchor to miss, it has no reachable error path.
pub(crate) fn expect_uncheckpointed(run: Result<TrainOutput, CheckpointError>) -> TrainOutput {
    match run {
        Ok(out) => out,
        Err(e) => panic!("checkpoint-free run cannot fail: {e}"),
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
            *rd.flops += 123.0;
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
