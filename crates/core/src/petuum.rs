//! Petuum and Petuum\*: SendModel over parameter servers, per-batch
//! communication, SSP consistency.
//!
//! The paper (Section III-B1): Petuum workers communicate with the servers
//! **per batch**. The local computation depends on the regularizer:
//!
//! * `Ω = 0` — workers run *parallel SGD inside the batch* (one update per
//!   example), so each communication step carries many model updates;
//! * `Ω ≠ 0` — workers take one gradient-descent step over the batch (L2
//!   makes per-example updates dense and expensive), so each step carries
//!   exactly **one** update — the cause of Petuum's poor showing in
//!   Figure 5(e–h).
//!
//! Original Petuum aggregates by **model summation** (pushing deltas that
//! servers add), which "can lead to potential divergence"; Petuum\* is the
//! paper's variant with **model averaging** instead.

use std::cell::Cell;
use std::rc::Rc;

use mlstar_data::{BatchSampler, SparseDataset};
use mlstar_exec::WorkerOp;
use mlstar_glm::{LearningRate, Regularizer};
use mlstar_linalg::DenseVector;
use mlstar_ps::{Aggregation, Consistency, PsConfig, PsEngine, WorkerLogic, WorkerStep};
use mlstar_sim::{dense_op_flops, pass_flops, ClusterSpec, CostModel, SeedStream, SimDuration};

use crate::checkpoint::{CheckpointError, PsCkptHook, PsCkptRun};
use crate::common::partition_active_coords;
use crate::engine::{assemble_output, ps_round_stats, ClockTracer};
use crate::exec::{dispatch_one, expect_model, to_wire_indices, ComputeBackend};
use crate::{AngelConfig, PsSystemConfig, System, TrainConfig, TrainOutput};

/// The Petuum worker-local computation.
struct PetuumWorker<'a> {
    backend: &'a mut dyn ComputeBackend,
    ds: &'a SparseDataset,
    parts: &'a [Vec<usize>],
    /// Distinct features per partition (sparse-pull volume).
    part_active: Vec<usize>,
    sparse_messages: bool,
    samplers: Vec<BatchSampler>,
    counters: Vec<u64>,
    reg: Regularizer,
    lr: LearningRate,
    batch_frac: f64,
    aggregation: Aggregation,
    updates: Rc<Cell<u64>>,
}

impl WorkerLogic for PetuumWorker<'_> {
    fn compute(&mut self, worker: usize, _clock: u64, model: &DenseVector) -> WorkerStep {
        let dim = model.dim();
        let part = &self.parts[worker];
        if part.is_empty() {
            // Idle worker: push a no-op consistent with the scheme.
            let payload = match self.aggregation {
                Aggregation::Sum => DenseVector::zeros(dim),
                Aggregation::Average { .. } => model.clone(),
            };
            return WorkerStep {
                payload_bytes: None,
                payload,
                flops: 0.0,
                extra_overhead: SimDuration::ZERO,
                local_updates: 0,
            };
        }
        let batch_size =
            ((part.len() as f64 * self.batch_frac).round() as usize).clamp(1, part.len());
        let batch = self.samplers[worker].sample(part, batch_size);
        let batch_nnz: usize = batch.iter().map(|&i| self.ds.rows()[i].nnz()).sum();
        // Sparse pushes are only sound for summation of loss-only deltas
        // (the regularizer's gradient and averaged models are dense).
        let sparse_push = self.sparse_messages
            && self.reg.is_none()
            && matches!(self.aggregation, Aggregation::Sum);

        let (w_local, n_updates, flops) = if self.reg.is_none() {
            // Parallel SGD over the batch: many updates per step.
            let op = WorkerOp::SgdBatch {
                w: model.clone(),
                batch: to_wire_indices(&batch),
                t0: self.counters[worker],
            };
            let (w_local, t) = expect_model(dispatch_one(self.backend, worker, op));
            self.counters[worker] = t;
            (w_local, batch.len() as u64, pass_flops(batch_nnz))
        } else {
            // One dense GD step over the batch: a single update per step.
            // The schedule is evaluated here, so the counter stream never
            // leaves the orchestrator.
            let op = WorkerOp::MgdStep {
                w: model.clone(),
                batch: to_wire_indices(&batch),
                eta: self.lr.eta(self.counters[worker]),
            };
            let (w_local, _) = expect_model(dispatch_one(self.backend, worker, op));
            self.counters[worker] += 1;
            (
                w_local,
                1,
                pass_flops(batch_nnz) + 2.0 * dense_op_flops(dim),
            )
        };

        // Size the sparse push from the *actual* delta the worker ships,
        // not the batch's summed nnz (which counts a feature once per
        // example it appears in). The encoded length is what the wire
        // codec would produce for that delta's index/value frame.
        let payload_bytes = if sparse_push {
            mlstar_glm::sparse_delta(&w_local, model)
                .ok()
                .map(|d| mlstar_collectives::wire::encoded_sparse_len(d.nnz()))
        } else {
            None
        };
        let payload = match self.aggregation {
            Aggregation::Sum => {
                let mut delta = w_local;
                delta.axpy(-1.0, model);
                delta
            }
            Aggregation::Average { .. } => w_local,
        };
        self.updates.set(self.updates.get() + n_updates);
        WorkerStep {
            payload_bytes,
            payload,
            flops,
            extra_overhead: SimDuration::ZERO,
            local_updates: n_updates,
        }
    }

    fn pull_bytes(&self, worker: usize) -> Option<usize> {
        if self.sparse_messages {
            // A pull of only the partition's active coordinates travels as
            // a sparse frame; the engine clamps it to the dense model size.
            Some(mlstar_collectives::wire::encoded_sparse_len(
                self.part_active[worker],
            ))
        } else {
            None
        }
    }
}

/// Trains with original Petuum (model **summation**, per-batch SSP).
pub fn train_petuum(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    ps: &PsSystemConfig,
) -> TrainOutput {
    System::Petuum.train(ds, cluster, cfg, ps, &AngelConfig::default())
}

/// Trains with Petuum\* (the paper's model-**averaging** variant).
pub fn train_petuum_star(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    ps: &PsSystemConfig,
) -> TrainOutput {
    System::PetuumStar.train(ds, cluster, cfg, ps, &AngelConfig::default())
}

/// The Petuum (`star = false`, summation) / Petuum\* (`star = true`,
/// averaging) run over `parts`, with optional anchor checkpointing and
/// replay verification (see [`PsCkptHook`](crate::checkpoint::PsCkptHook)).
#[allow(
    clippy::too_many_arguments,
    reason = "System::run's inputs plus the PS variant and its checkpoint hook"
)]
pub(crate) fn train_petuum_ckpt(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    ps: &PsSystemConfig,
    star: bool,
    ckpt: Option<PsCkptRun<'_>>,
    parts: &[Vec<usize>],
    backend: &mut dyn ComputeBackend,
) -> Result<TrainOutput, CheckpointError> {
    let validation = cfg.validate();
    assert!(validation.is_ok(), "invalid TrainConfig: {validation:?}");
    let k = cluster.num_executors();
    let (aggregation, name) = if star {
        (Aggregation::Average { num_workers: k }, "Petuum*")
    } else {
        (Aggregation::Sum, "Petuum")
    };
    let dim = ds.num_features();
    let seeds = SeedStream::new(cfg.seed);
    let updates = Rc::new(Cell::new(0u64));
    let mut logic = PetuumWorker {
        backend,
        ds,
        parts,
        part_active: partition_active_coords(ds, parts),
        sparse_messages: ps.sparse_messages,
        samplers: (0..k)
            .map(|r| BatchSampler::new(seeds.child("batch").child_idx(r as u64).seed()))
            .collect(),
        counters: vec![0; k],
        reg: cfg.reg,
        lr: cfg.lr,
        batch_frac: cfg.batch_frac,
        aggregation,
        updates: Rc::clone(&updates),
    };

    let cost = CostModel::new(cluster.clone());
    let mut engine = PsEngine::new(
        &cost,
        PsConfig {
            num_servers: ps.num_servers,
            consistency: Consistency::Ssp {
                staleness: ps.staleness,
            },
            aggregation,
            max_clocks: cfg.max_rounds,
            tick_overhead: SimDuration::from_millis(2),
            seed: seeds.child("ps").seed(),
        },
    );

    let mut tracer = ClockTracer::new(ds, cfg, name, Rc::clone(&updates));
    let mut hook = PsCkptHook::new(ds, cfg, ckpt);
    let (final_model, stats) = engine.run(DenseVector::zeros(dim), &mut logic, |clock, time, m| {
        hook.on_clock(&mut tracer, clock, time, m, updates.get())
    });
    hook.finish()?;

    // A PS worker dispatches one op per tick, so no batch ever spreads
    // over host threads.
    Ok(assemble_output(
        tracer.trace,
        engine.gantt().clone(),
        final_model,
        updates.get(),
        stats.clock_times.len() as u64,
        tracer.converged,
        ps_round_stats(&stats, k),
        1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::LearningRate;

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("petuum-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            lr: LearningRate::Constant(0.05),
            batch_frac: 0.3,
            max_rounds: 30,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn petuum_star_converges_without_reg() {
        let ds = tiny_ds();
        let out = train_petuum_star(
            &ds,
            &ClusterSpec::cluster1(),
            &quick_cfg(),
            &PsSystemConfig::default(),
        );
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.6, "{first} → {best}");
    }

    #[test]
    fn reg_zero_does_many_updates_per_clock() {
        let ds = tiny_ds();
        let cfg = quick_cfg();
        let out = train_petuum_star(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig::default(),
        );
        // Parallel SGD: each clock tick does ~batch_size updates per worker.
        assert!(
            out.total_updates > out.rounds_run * 8,
            "updates {} rounds {}",
            out.total_updates,
            out.rounds_run
        );
    }

    #[test]
    fn nonzero_reg_does_one_update_per_clock_per_worker() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            reg: mlstar_glm::Regularizer::L2 { lambda: 0.1 },
            max_rounds: 10,
            ..quick_cfg()
        };
        let out = train_petuum_star(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig {
                staleness: 0,
                num_servers: 2,
                ..Default::default()
            },
        );
        // With BSP (staleness 0) every worker contributes exactly one
        // update per clock.
        assert_eq!(out.total_updates, 8 * 10);
    }

    #[test]
    fn summation_and_averaging_differ() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 5,
            ..quick_cfg()
        };
        let sum = train_petuum(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig::default(),
        );
        let avg = train_petuum_star(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig::default(),
        );
        assert_ne!(
            sum.model.weights().as_slice(),
            avg.model.weights().as_slice(),
            "aggregation schemes must differ"
        );
        assert_eq!(sum.trace.system, "Petuum");
        assert_eq!(avg.trace.system, "Petuum*");
    }

    #[test]
    fn summation_takes_larger_effective_steps_than_averaging() {
        // The paper's remark on aggregation schemes: summation folds in all
        // k workers' full updates per step (faster when it converges,
        // divergence-prone otherwise), whereas averaging damps them by 1/k.
        // After one BSP clock from w₀ = 0, the summed model must have moved
        // strictly further than the averaged one.
        let ds = tiny_ds();
        let cfg = TrainConfig {
            lr: LearningRate::Constant(0.01),
            max_rounds: 1,
            ..quick_cfg()
        };
        let ps = PsSystemConfig {
            staleness: 0,
            num_servers: 2,
            ..Default::default()
        };
        let sum = train_petuum(&ds, &ClusterSpec::cluster1(), &cfg, &ps);
        let avg = train_petuum_star(&ds, &ClusterSpec::cluster1(), &cfg, &ps);
        let sum_norm = sum.model.weights().norm2();
        let avg_norm = avg.model.weights().norm2();
        assert!(
            sum_norm > 2.0 * avg_norm,
            "summation {sum_norm} should move ≫ averaging {avg_norm}"
        );
    }

    #[test]
    fn deterministic() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 5,
            ..quick_cfg()
        };
        let ps = PsSystemConfig::default();
        let a = train_petuum_star(&ds, &ClusterSpec::cluster1(), &cfg, &ps);
        let b = train_petuum_star(&ds, &ClusterSpec::cluster1(), &cfg, &ps);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn sparse_messages_change_time_but_not_math() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 8,
            ..quick_cfg()
        };
        // BSP: under SSP the smaller (actual) sparse frames shift event
        // timing enough to change which pushes a stale pull admits, so the
        // two runs would be different (both valid) SSP executions. The
        // barrier pins admission; only within-clock summation order at the
        // servers can differ with timing.
        let dense = train_petuum(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig {
                sparse_messages: false,
                staleness: 0,
                ..PsSystemConfig::default()
            },
        );
        let sparse = train_petuum(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig {
                sparse_messages: true,
                staleness: 0,
                ..PsSystemConfig::default()
            },
        );
        // Near-identical final models: the wire volume only shifts event
        // timing, which can reorder floating-point summation at the
        // servers (ulp-level differences).
        for (a, b) in dense
            .model
            .weights()
            .as_slice()
            .iter()
            .zip(sparse.model.weights().as_slice())
        {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // …but the sparse run's clock must not be slower.
        let t_dense = dense.trace.points.last().unwrap().time;
        let t_sparse = sparse.trace.points.last().unwrap().time;
        assert!(t_sparse <= t_dense, "sparse {t_sparse} vs dense {t_dense}");
    }
}
