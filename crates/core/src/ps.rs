//! Petuum, Petuum\* and Angel: SendModel over parameter servers.
//!
//! The paper (Section III-B) tells the three systems apart by four choices,
//! and a [`PsPlan`] holds them as values:
//!
//! * **Communication per batch or per epoch.** Petuum workers talk to the
//!   servers once per sampled batch; Angel workers once per local epoch
//!   ("Workers in Angel communicate with the parameter servers per
//!   epoch").
//! * **Parallel SGD or per-batch GD.** Petuum with `Ω = 0` runs parallel
//!   SGD inside the batch (one update per example), so each communication
//!   step carries many updates; with `Ω ≠ 0` it takes one GD step over the
//!   batch (L2 makes per-example updates dense and expensive), so each step
//!   carries exactly **one** update — the cause of Petuum's poor showing in
//!   Figure 5(e–h). "Angel always performs gradient descent on each
//!   batch."
//! * **Summation or averaging.** Petuum and Angel servers add the pushed
//!   deltas, which "can lead to potential divergence"; Petuum\* is the
//!   paper's variant with model averaging instead.
//! * **Angel's allocation cost.** "Angel stores the accumulated gradients
//!   for each batch in a separate vector. For each batch, we need to
//!   allocate memory for the vector and collect it back" (Section V-B2):
//!   every batch of an Angel epoch is charged that allocation.
//!
//! Everything else — the idle worker, batch sizing, sparse push/pull
//! sizing, the pushed payload, the engine, the trace and the anchor
//! checkpoints — is one [`PsWorker`] and one [`train_ps`] driver over
//! [`mlstar_ps::PsEngine`].

use std::path::Path;

use mlstar_data::{BatchSampler, DatasetFingerprint, EpochOrder, SparseDataset};
use mlstar_exec::{OpResult, WorkerOp};
use mlstar_glm::GlmModel;
use mlstar_linalg::DenseVector;
use mlstar_ps::{Aggregation, PsConfig, PsEngine, PsRunStats, WorkerLogic, WorkerStep};
use mlstar_sim::{
    dense_op_flops, pass_flops, ClusterSpec, CostModel, SeedStream, SimDuration, SimTime,
};

use crate::checkpoint::{
    checkpoint_path, config_digest, prune_checkpoints, CheckpointError, CheckpointState, PsAnchor,
    TrainCheckpoint,
};
use crate::common::{eval_objective, partition_active_coords, partition_nnz, workload_label};
use crate::engine::{CommBytes, RoundStats};
use crate::exec::{dispatch_one, expect_model, to_wire_indices, ComputeBackend};
use crate::{
    AngelConfig, ConvergenceTrace, PsSystemConfig, System, TracePoint, TrainConfig, TrainOutput,
};

/// What a worker does with one pulled model, with the row streams it
/// draws from (one per worker).
enum LocalStep {
    /// Petuum with `Ω = 0`: parallel SGD over a sampled batch.
    SgdBatch(Vec<BatchSampler>),
    /// Petuum with `Ω ≠ 0`: one GD step over a sampled batch.
    MgdStep(Vec<BatchSampler>),
    /// Angel: one epoch of per-batch GD steps, each batch charged this
    /// allocation time.
    MgdEpoch(Vec<EpochOrder>, SimDuration),
}

/// One parameter-server system, resolved from its configuration.
pub(crate) struct PsPlan {
    system: System,
    step: LocalStep,
    aggregation: Aggregation,
    num_servers: usize,
    staleness: u64,
    sparse_messages: bool,
}

impl PsPlan {
    /// Resolves `system` (Petuum, Petuum\* or Angel) on `k` workers.
    ///
    /// # Panics
    ///
    /// Panics with a message if `cfg` is invalid, if the plan has no
    /// server shard, or if Angel's allocation bandwidth is not positive
    /// (zero or NaN would make allocation free).
    pub fn resolve(
        system: System,
        cfg: &TrainConfig,
        ps: &PsSystemConfig,
        angel: &AngelConfig,
        dim: usize,
        k: usize,
    ) -> PsPlan {
        let validation = cfg.validate();
        assert!(validation.is_ok(), "invalid TrainConfig: {validation:?}");
        let seeds = SeedStream::new(cfg.seed);
        let samplers = || {
            (0..k)
                .map(|r| BatchSampler::new(seeds.child("batch").child_idx(r as u64).seed()))
                .collect()
        };
        let plan = match system {
            System::Petuum | System::PetuumStar => PsPlan {
                system,
                step: if cfg.reg.is_none() {
                    LocalStep::SgdBatch(samplers())
                } else {
                    LocalStep::MgdStep(samplers())
                },
                aggregation: if system == System::PetuumStar {
                    Aggregation::Average { num_workers: k }
                } else {
                    Aggregation::Sum
                },
                num_servers: ps.num_servers,
                staleness: ps.staleness,
                sparse_messages: ps.sparse_messages,
            },
            System::Angel => {
                let bps = angel.alloc_bandwidth_bps;
                assert!(
                    bps > 0.0,
                    "invalid AngelConfig: alloc_bandwidth_bps must be > 0, got {bps}"
                );
                let orders = (0..k)
                    .map(|r| EpochOrder::new(seeds.child("epoch").child_idx(r as u64).seed()))
                    .collect();
                PsPlan {
                    system,
                    step: LocalStep::MgdEpoch(
                        orders,
                        SimDuration::from_secs_f64((dim * 8) as f64 / bps),
                    ),
                    aggregation: Aggregation::Sum,
                    num_servers: angel.num_servers,
                    staleness: angel.staleness,
                    sparse_messages: angel.sparse_messages,
                }
            }
            _ => unreachable!("{system} is not a parameter-server system"),
        };
        assert!(
            plan.num_servers > 0,
            "invalid {system} configuration: num_servers must be ≥ 1"
        );
        plan
    }
}

/// The worker-local computation of every PS system.
struct PsWorker<'a> {
    backend: &'a mut dyn ComputeBackend,
    ds: &'a SparseDataset,
    cfg: &'a TrainConfig,
    parts: &'a [Vec<usize>],
    part_nnz: Vec<usize>,
    /// Distinct features per partition (sparse-pull volume).
    part_active: Vec<usize>,
    sparse_messages: bool,
    aggregation: Aggregation,
    step: LocalStep,
    counters: Vec<u64>,
}

impl WorkerLogic for PsWorker<'_> {
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
        let batch_size = self.cfg.batch_size(part.len());
        let t0 = self.counters[worker];
        let batch_nnz =
            |batch: &[usize]| -> usize { batch.iter().map(|&i| self.ds.rows()[i].nnz()).sum() };
        let (op, local_updates, flops, extra_overhead) = match &mut self.step {
            LocalStep::SgdBatch(samplers) => {
                let batch = samplers[worker].sample(part, batch_size);
                let flops = pass_flops(batch_nnz(&batch));
                let op = WorkerOp::SgdBatch {
                    w: model.clone(),
                    batch: to_wire_indices(&batch),
                    t0,
                };
                (op, batch.len() as u64, flops, SimDuration::ZERO)
            }
            LocalStep::MgdStep(samplers) => {
                let batch = samplers[worker].sample(part, batch_size);
                let flops = pass_flops(batch_nnz(&batch)) + 2.0 * dense_op_flops(dim);
                let batch = to_wire_indices(&batch);
                let w = model.clone();
                let op = match self.aggregation {
                    // The executor returns the step it took: Petuum's push.
                    // The schedule is evaluated here, so the counter stream
                    // never leaves the orchestrator.
                    Aggregation::Sum => WorkerOp::MgdStep {
                        w,
                        batch,
                        eta: self.cfg.lr.eta(t0),
                    },
                    // Petuum* pushes the stepped model: one GD step at
                    // `lr(t0)` is a one-chunk epoch.
                    Aggregation::Average { .. } => WorkerOp::MgdEpoch {
                        w,
                        batch_size: batch.len() as u32,
                        order: batch,
                        t0,
                    },
                };
                (op, 1, flops, SimDuration::ZERO)
            }
            LocalStep::MgdEpoch(orders, alloc_per_batch) => {
                // The worker holds the learning-rate schedule and advances
                // the counter once per chunk.
                let order = orders[worker].next_order(part);
                let n_batches = order.chunks(batch_size).count() as u64;
                // Sparse gradient work for the whole pass plus a dense
                // gradient-apply per batch.
                let flops = pass_flops(self.part_nnz[worker])
                    + 2.0 * dense_op_flops(dim) * n_batches as f64;
                let op = WorkerOp::MgdEpoch {
                    w: model.clone(),
                    order: to_wire_indices(&order),
                    batch_size: batch_size as u32,
                    t0,
                };
                let alloc = alloc_per_batch.mul_f64(n_batches as f64);
                (op, n_batches, flops, alloc)
            }
        };
        self.counters[worker] = t0 + local_updates;

        // Sparse pushes are only sound for summation of loss-only deltas
        // (the regularizer's gradient and averaged models are dense). The
        // push is sized from the *actual* delta the worker ships, not the
        // rows' summed nnz (which counts a feature once per row it appears
        // in): the encoded length of that delta's index/value frame.
        let sparse_push =
            self.sparse_messages && self.cfg.reg.is_none() && self.aggregation == Aggregation::Sum;
        let mut payload_bytes = None;
        let payload = match dispatch_one(self.backend, worker, op) {
            // Petuum's GD step comes back as the step it took: its push.
            OpResult::Grad(delta) => delta,
            result => {
                let (mut w_local, t) = expect_model(result);
                debug_assert_eq!(t, t0 + local_updates);
                if sparse_push {
                    payload_bytes = subtract_counting(&mut w_local, model)
                        .map(mlstar_collectives::wire::encoded_sparse_len);
                } else if self.aggregation == Aggregation::Sum {
                    w_local.axpy(-1.0, model);
                }
                w_local
            }
        };
        WorkerStep {
            payload_bytes,
            payload,
            flops,
            extra_overhead,
            local_updates,
        }
    }

    fn pull_bytes(&self, worker: usize) -> Option<usize> {
        // A pull of only the partition's active coordinates travels as a
        // sparse frame; the engine clamps it to the dense model size.
        self.sparse_messages
            .then(|| mlstar_collectives::wire::encoded_sparse_len(self.part_active[worker]))
    }
}

/// Turns `w_local` into the push `w_local − model`, as `w_local +=
/// −1·model` (the float operations of `DenseVector::axpy`), and counts in
/// the same pass the coordinates whose bits the local step changed: the
/// entries of the sparse delta frame. `None` if any of those differences
/// is non-finite, which a sparse frame does not carry, so the push goes
/// dense.
#[expect(
    clippy::neg_multiply,
    reason = "the float operations of axpy(−1, model)"
)]
fn subtract_counting(w_local: &mut DenseVector, model: &DenseVector) -> Option<usize> {
    assert_eq!(w_local.dim(), model.dim(), "model dimension mismatch");
    let (mut nnz, mut finite) = (0, true);
    for (a, &b) in w_local.as_mut_slice().iter_mut().zip(model.as_slice()) {
        let moved = a.to_bits() != b.to_bits();
        *a += -1.0 * b;
        nnz += usize::from(moved);
        finite &= !moved || a.is_finite();
    }
    finite.then_some(nnz)
}

/// The engine's clock callback: checks a replay against its anchor,
/// traces and stops like the BSP driver, and writes anchors.
///
/// The engine's heap of in-flight pushes is not serialized. An anchor
/// records the observable state at a global clock boundary, and a resume
/// is a deterministic replay from clock 0 — the simulated analogue of
/// Spark recomputing a lost partition from lineage — that must pass
/// through the anchor bit-exactly.
struct PsClock<'a> {
    ds: &'a SparseDataset,
    cfg: &'a TrainConfig,
    trace: ConvergenceTrace,
    converged: bool,
    /// `(dir, system, fingerprint, digest)` when the run writes anchors.
    writer: Option<(&'a Path, System, DatasetFingerprint, u64)>,
    /// The anchor a replay has yet to pass.
    verify: Option<PsAnchor>,
    /// The failure that stopped the engine, if any.
    failed: Option<CheckpointError>,
}

impl<'a> PsClock<'a> {
    /// Starts the trace with the step-0 point at the zero model.
    fn new(
        ds: &'a SparseDataset,
        cfg: &'a TrainConfig,
        system: System,
        ckpt: Option<(&'a Path, Option<PsAnchor>)>,
    ) -> Self {
        let mut trace = ConvergenceTrace::new(system.name(), workload_label(ds, cfg.reg));
        trace.push(TracePoint {
            step: 0,
            time: SimTime::ZERO,
            objective: eval_objective(
                ds,
                cfg.loss,
                cfg.reg,
                &DenseVector::zeros(ds.num_features()),
            ),
            total_updates: 0,
        });
        let (dir, verify) = ckpt.unzip();
        let writer = dir.filter(|_| cfg.checkpoint_every > 0).map(|dir| {
            let fingerprint = DatasetFingerprint::of(ds);
            (dir, system, fingerprint, config_digest(cfg))
        });
        PsClock {
            ds,
            cfg,
            trace,
            converged: false,
            writer,
            verify: verify.flatten(),
            failed: None,
        }
    }

    /// Called at every global clock; returns `true` to stop the engine.
    fn on_clock(&mut self, clock: u64, time: SimTime, model: &DenseVector, updates: u64) -> bool {
        if let Some(anchor) = &self.verify {
            if clock == anchor.clock {
                let identical = time.as_nanos() == anchor.time_nanos
                    && updates == anchor.updates
                    && model.dim() == anchor.model.len()
                    && model
                        .as_slice()
                        .iter()
                        .zip(&anchor.model)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !identical {
                    self.failed = Some(CheckpointError::ReplayDiverged { clock });
                    return true;
                }
                self.verify = None;
            }
        }
        let cfg = self.cfg;
        if clock.is_multiple_of(cfg.eval_every) || clock == cfg.max_rounds {
            let f = eval_objective(self.ds, cfg.loss, cfg.reg, model);
            self.trace.push(TracePoint {
                step: clock,
                time,
                objective: f,
                total_updates: updates,
            });
            if cfg.should_stop(f) {
                self.converged = cfg.target_objective.is_some_and(|t| f <= t);
                return true;
            }
        }
        if let Some((dir, system, fingerprint, digest)) = self.writer {
            if clock.is_multiple_of(cfg.checkpoint_every) {
                let ck = TrainCheckpoint {
                    system: system.name().to_string(),
                    config_digest: digest,
                    fingerprint,
                    state: CheckpointState::PsAnchor(PsAnchor {
                        clock,
                        time_nanos: time.as_nanos(),
                        updates,
                        model: model.as_slice().to_vec(),
                    }),
                };
                let written = ck
                    .write_file(&checkpoint_path(dir, system, clock))
                    .and_then(|()| prune_checkpoints(dir, system, cfg.checkpoint_keep));
                if let Err(e) = written {
                    self.failed = Some(e.into());
                    return true;
                }
            }
        }
        false
    }

    /// The trace and whether the target was reached, once the engine has
    /// returned. A replay that stopped before its anchor did not reproduce
    /// the checkpointed run.
    fn finish(self) -> Result<(ConvergenceTrace, bool), CheckpointError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        if let Some(anchor) = self.verify {
            return Err(CheckpointError::ReplayDiverged {
                clock: anchor.clock,
            });
        }
        Ok((self.trace, self.converged))
    }
}

/// Runs `plan` over `parts`. With `ckpt`, anchors go to its directory at
/// the [`TrainConfig::checkpoint_every`] cadence, and a given anchor is
/// one the run must pass through bit-exactly.
pub(crate) fn train_ps(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    plan: PsPlan,
    ckpt: Option<(&Path, Option<PsAnchor>)>,
    parts: &[Vec<usize>],
    backend: &mut dyn ComputeBackend,
) -> Result<TrainOutput, CheckpointError> {
    let k = cluster.num_executors();
    let mut worker = PsWorker {
        backend,
        ds,
        cfg,
        parts,
        part_nnz: partition_nnz(ds, parts),
        part_active: partition_active_coords(ds, parts),
        sparse_messages: plan.sparse_messages,
        aggregation: plan.aggregation,
        step: plan.step,
        counters: vec![0; k],
    };
    let cost = CostModel::new(cluster.clone());
    let mut engine = PsEngine::new(
        &cost,
        PsConfig {
            num_servers: plan.num_servers,
            staleness: plan.staleness,
            aggregation: plan.aggregation,
            max_clocks: cfg.max_rounds,
            tick_overhead: SimDuration::from_millis(2),
            seed: SeedStream::new(cfg.seed).child("ps").seed(),
        },
    );
    let mut clock = PsClock::new(ds, cfg, plan.system, ckpt);
    let (model, stats) = engine.run(
        DenseVector::zeros(ds.num_features()),
        &mut worker,
        |c, time, m, updates| clock.on_clock(c, time, m, updates),
    );
    let (trace, converged) = clock.finish()?;

    Ok(TrainOutput {
        trace,
        gantt: engine.gantt().clone(),
        model: GlmModel::from_weights(model),
        total_updates: stats.total_updates,
        rounds_run: stats.clock_times.len() as u64,
        converged,
        round_stats: ps_round_stats(&stats, k),
        // A PS worker dispatches one op per tick, so no batch ever spreads
        // over host threads.
        host_threads: 1,
    })
}

/// Converts the PS engine's per-clock telemetry into [`RoundStats`],
/// truncated to the globally completed clocks and averaged over the
/// `workers` so the phase identity holds (see [`RoundStats`] — PS clocks
/// overlap under SSP, so `elapsed_s` is the per-worker average time in
/// the clock). Server-side apply time runs in parallel with the workers
/// and is not part of the breakdown; failure recovery does not exist in
/// the PS model, so `recovery_s` is always zero here.
fn ps_round_stats(stats: &PsRunStats, workers: usize) -> Vec<RoundStats> {
    let inv = 1.0 / workers as f64;
    stats
        .clock_times
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let pc = stats.per_clock.get(i).copied().unwrap_or_default();
            let (compute_s, comm_s, idle_s) =
                (pc.compute_s * inv, pc.comm_s * inv, pc.idle_s * inv);
            RoundStats {
                round: i as u64,
                updates: pc.updates,
                flops: pc.flops,
                bytes: CommBytes {
                    ps_pull: pc.pull_bytes,
                    ps_push: pc.push_bytes,
                    ..CommBytes::default()
                },
                compute_s,
                comm_s,
                idle_s,
                recovery_s: 0.0,
                elapsed_s: compute_s + comm_s + idle_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::{LearningRate, Regularizer};

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("ps-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    fn petuum_cfg() -> TrainConfig {
        TrainConfig {
            lr: LearningRate::Constant(0.05),
            batch_frac: 0.3,
            max_rounds: 30,
            ..TrainConfig::default()
        }
    }

    fn angel_cfg() -> TrainConfig {
        TrainConfig {
            // Angel's servers SUM k workers' deltas, so the stable
            // per-worker rate is ~1/k of the averaging systems'.
            lr: LearningRate::Constant(0.05 / 8.0),
            batch_frac: 0.2,
            max_rounds: 15,
            ..TrainConfig::default()
        }
    }

    fn bsp() -> PsSystemConfig {
        PsSystemConfig {
            staleness: 0,
            num_servers: 2,
            ..PsSystemConfig::default()
        }
    }

    #[test]
    fn petuum_star_converges_without_reg() {
        let ds = tiny_ds();
        let out = System::PetuumStar.train_default(&ds, &ClusterSpec::cluster1(), &petuum_cfg());
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.6, "{first} → {best}");
    }

    #[test]
    fn reg_zero_does_many_updates_per_clock() {
        let ds = tiny_ds();
        let out = System::PetuumStar.train_default(&ds, &ClusterSpec::cluster1(), &petuum_cfg());
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
            reg: Regularizer::L2 { lambda: 0.1 },
            max_rounds: 10,
            ..petuum_cfg()
        };
        let out = System::PetuumStar.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &bsp(),
            &AngelConfig::default(),
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
            ..petuum_cfg()
        };
        let ps = PsSystemConfig::default();
        let sum = System::Petuum.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &ps,
            &AngelConfig::default(),
        );
        let avg = System::PetuumStar.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &ps,
            &AngelConfig::default(),
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
            ..petuum_cfg()
        };
        let sum = System::Petuum.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &bsp(),
            &AngelConfig::default(),
        );
        let avg = System::PetuumStar.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &bsp(),
            &AngelConfig::default(),
        );
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
            ..petuum_cfg()
        };
        let ps = PsSystemConfig::default();
        let a = System::PetuumStar.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &ps,
            &AngelConfig::default(),
        );
        let b = System::PetuumStar.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &ps,
            &AngelConfig::default(),
        );
        assert_eq!(a.trace, b.trace);
        let angel = AngelConfig::default();
        let a = System::Angel.train(
            &ds,
            &ClusterSpec::cluster1(),
            &angel_cfg(),
            &PsSystemConfig::default(),
            &angel,
        );
        let b = System::Angel.train(
            &ds,
            &ClusterSpec::cluster1(),
            &angel_cfg(),
            &PsSystemConfig::default(),
            &angel,
        );
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn sparse_messages_change_time_but_not_math() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 8,
            ..petuum_cfg()
        };
        // BSP: under SSP the smaller (actual) sparse frames shift event
        // timing enough to change which pushes a stale pull admits, so the
        // two runs would be different (both valid) SSP executions. The
        // barrier pins admission; only within-clock summation order at the
        // servers can differ with timing.
        let run = |sparse_messages| {
            let ps = PsSystemConfig {
                sparse_messages,
                ..bsp()
            };
            System::Petuum.train(
                &ds,
                &ClusterSpec::cluster1(),
                &cfg,
                &ps,
                &AngelConfig::default(),
            )
        };
        let (dense, sparse) = (run(false), run(true));
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

    #[test]
    fn angel_converges() {
        let ds = tiny_ds();
        let out = System::Angel.train_default(&ds, &ClusterSpec::cluster1(), &angel_cfg());
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.7, "{first} → {best}");
        let times: Vec<f64> = out
            .trace
            .points
            .iter()
            .map(|p| p.time.as_secs_f64())
            .collect();
        for pair in times.windows(2) {
            assert!(pair[1] > pair[0], "time must advance: {times:?}");
        }
    }

    #[test]
    fn one_angel_clock_is_one_epoch_of_batches() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 4,
            ..angel_cfg()
        };
        let angel = AngelConfig {
            staleness: 0,
            ..AngelConfig::default()
        };
        let out = System::Angel.train(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &PsSystemConfig::default(),
            &angel,
        );
        // 240 rows / 8 workers = 30 rows per worker; batch 20% of 30 = 6
        // rows → 5 batches per epoch per worker.
        assert_eq!(out.total_updates, 8 * 5 * 4);
    }

    #[test]
    fn small_batches_cost_allocation_overhead() {
        // The paper's explanation for Angel's small-batch weakness: the
        // per-batch allocation overhead should make a small-batch epoch
        // slower in simulated time even though the math work is the same.
        let ds = tiny_ds();
        let run = |frac: f64, alloc_bps: f64| {
            let cfg = TrainConfig {
                batch_frac: frac,
                max_rounds: 3,
                ..angel_cfg()
            };
            let angel = AngelConfig {
                alloc_bandwidth_bps: alloc_bps,
                ..AngelConfig::default()
            };
            let out = System::Angel.train(
                &ds,
                &ClusterSpec::cluster1(),
                &cfg,
                &PsSystemConfig::default(),
                &angel,
            );
            out.trace.points.last().unwrap().time.as_secs_f64()
        };
        // Tiny batches → many allocations; slow allocator amplifies it.
        let small_batches = run(0.02, 1e6);
        let large_batches = run(0.5, 1e6);
        assert!(
            small_batches > large_batches,
            "per-batch alloc overhead: small {small_batches}s vs large {large_batches}s"
        );
    }

    #[test]
    fn zero_server_shards_are_refused() {
        let ds = tiny_ds();
        let cluster = ClusterSpec::cluster1();
        let no_servers = PsSystemConfig {
            num_servers: 0,
            ..PsSystemConfig::default()
        };
        let angel_no_servers = AngelConfig {
            num_servers: 0,
            ..AngelConfig::default()
        };
        for (system, ps, angel) in [
            (System::Petuum, no_servers, AngelConfig::default()),
            (System::PetuumStar, no_servers, AngelConfig::default()),
            (System::Angel, PsSystemConfig::default(), angel_no_servers),
        ] {
            let err =
                std::panic::catch_unwind(|| system.train(&ds, &cluster, &angel_cfg(), &ps, &angel))
                    .expect_err("zero server shards must be refused");
            let msg = err.downcast_ref::<String>().unwrap();
            assert_eq!(
                msg,
                &format!("invalid {system} configuration: num_servers must be ≥ 1")
            );
        }
    }

    #[test]
    fn non_positive_alloc_bandwidth_is_refused() {
        let ds = tiny_ds();
        for bps in [0.0, -2e9, f64::NAN] {
            let angel = AngelConfig {
                alloc_bandwidth_bps: bps,
                ..AngelConfig::default()
            };
            let err = std::panic::catch_unwind(|| {
                System::Angel.train(
                    &ds,
                    &ClusterSpec::cluster1(),
                    &angel_cfg(),
                    &PsSystemConfig::default(),
                    &angel,
                )
            })
            .expect_err("a free allocator must be refused");
            let msg = err.downcast_ref::<String>().unwrap();
            assert_eq!(
                msg,
                &format!("invalid AngelConfig: alloc_bandwidth_bps must be > 0, got {bps}")
            );
        }
    }
}
