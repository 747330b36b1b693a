//! MLlib baseline: the *SendGradient* paradigm (Figure 2a, Figure 3a).
//!
//! Per communication step:
//!
//! 1. the driver broadcasts the current model to all executors (payloads
//!    serialize through the driver NIC),
//! 2. each executor samples a batch from its partition and computes the
//!    average loss gradient,
//! 3. gradients are summed up to the driver via hierarchical
//!    `treeAggregate`,
//! 4. the driver applies **one** model update:
//!    `w ← w − η·(g + ∇Ω(w))`.
//!
//! One update per step is bottleneck **B1**; the driver-serialized
//! broadcast/aggregate is bottleneck **B2**.

use mlstar_codec::{schema, CodecError, Reader, Writer};
use mlstar_data::{BatchSampler, SparseDataset};
use mlstar_linalg::DenseVector;
use mlstar_sim::{dense_op_flops, pass_flops, Activity, ClusterSpec, NodeId, SeedStream};

use crate::checkpoint::{check_dim, check_workers, dense};
use crate::common::BspHarness;
use crate::engine::{RoundStrategy, StepCtx};
use crate::exec::{dispatch, expect_grad, to_wire_indices, ComputeBackend, WorkerOp};
use crate::{System, TrainConfig, TrainOutput};

/// The MLlib round: broadcast, batch gradients, treeAggregate, one
/// driver-side update.
pub(crate) struct MllibStrategy<'a> {
    h: BspHarness<'a>,
    samplers: Vec<BatchSampler>,
    w: DenseVector,
    /// Per-worker gradient buffers, reused across rounds.
    grads: Vec<DenseVector>,
}

impl<'a> MllibStrategy<'a> {
    pub(crate) fn new(
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        parts: &'a [Vec<usize>],
    ) -> Self {
        let h = BspHarness::new(ds, cluster, parts);
        let k = h.k();
        let dim = ds.num_features();
        let seeds = SeedStream::new(cfg.seed);
        MllibStrategy {
            h,
            samplers: (0..k)
                .map(|r| BatchSampler::new(seeds.child("batch").child_idx(r as u64).seed()))
                .collect(),
            w: DenseVector::zeros(dim),
            grads: (0..k).map(|_| DenseVector::zeros(dim)).collect(),
        }
    }
}

impl RoundStrategy for MllibStrategy<'_> {
    fn name(&self) -> &'static str {
        "MLlib"
    }

    fn weights(&self) -> &DenseVector {
        &self.w
    }

    fn into_weights(self) -> DenseVector {
        self.w
    }

    fn step(
        &mut self,
        ctx: &mut StepCtx,
        backend: &mut dyn ComputeBackend,
        ds: &SparseDataset,
        cfg: &TrainConfig,
        round: u64,
    ) -> Option<u64> {
        let MllibStrategy {
            h,
            samplers,
            w,
            grads,
        } = self;
        let k = h.k();
        let dim = ds.num_features();
        ctx.round(&h.all_nodes, |rd| {
            // (1) Driver broadcasts the model.
            rd.broadcast(&h.cost, dim);

            // (2) Executors compute batch gradients. Batches are sampled
            // here (the RNG streams stay with the round driver) and
            // `grads[r]` itself carries the model to the worker.
            let mut ops = Vec::with_capacity(k);
            for r in 0..k {
                if h.parts[r].is_empty() {
                    grads[r].clear();
                    continue;
                }
                let batch_size = cfg.batch_size(h.parts[r].len());
                let batch = samplers[r].sample(&h.parts[r], batch_size);
                let batch_nnz: usize = batch.iter().map(|&i| ds.rows()[i].nnz()).sum();
                let mut model = std::mem::take(&mut grads[r]);
                model.copy_from(w);
                ops.push((
                    r,
                    WorkerOp::BatchGrad {
                        w: model,
                        batch: to_wire_indices(&batch),
                    },
                ));
                rd.charge_flops(pass_flops(batch_nnz));
                rd.rb.work(
                    NodeId::Executor(r),
                    Activity::Compute,
                    h.cost
                        .executor_waves(r, pass_flops(batch_nnz), cfg.waves, rd.straggler_rng),
                );
            }
            for (r, res) in dispatch(backend, ops) {
                grads[r] = expect_grad(res);
            }
            rd.rb.barrier();
            rd.inject_failure(h, cfg, |r| pass_flops(h.part_nnz[r]) * cfg.batch_frac);

            // (3) Hierarchical aggregation of gradients to the driver.
            let mut grad =
                rd.tree_aggregate(&h.cost, grads, cfg.tree_fanin, Activity::SendGradient);

            // (4) Single driver-side update.
            grad.scale(1.0 / k as f64);
            cfg.reg.add_gradient(w, &mut grad);
            let eta = cfg.lr.eta(round);
            w.axpy(-eta, &grad);
            rd.charge_flops(2.0 * dense_op_flops(dim));
            rd.rb.work(
                NodeId::Driver,
                Activity::DriverUpdate,
                h.cost.driver_compute(2.0 * dense_op_flops(dim)),
            );
        });
        Some(1)
    }

    fn save_state(&self, w: &mut Writer) {
        // The gradient buffers are scratch: every round clears or fully
        // overwrites them before reading, so only the model and the
        // per-worker sampler streams carry state across rounds.
        let state = MllibState {
            w: self.w.clone(),
            samplers: self.samplers.clone(),
        };
        mllib_state::put(w, &state, ());
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let state = mllib_state::get(r)?;
        check_dim(&state.w, self.w.dim())?;
        check_workers(state.samplers.len(), self.samplers.len())?;
        (self.w, self.samplers) = (state.w, state.samplers);
        Ok(())
    }
}

/// What an MLlib checkpoint carries: the model, then every worker's
/// sampler stream mid-stride.
struct MllibState {
    w: DenseVector,
    samplers: Vec<BatchSampler>,
}

schema! { record mllib_state: MllibState { w: dense, samplers: list(batch_sampler) } }
schema! {
    map batch_sampler: BatchSampler {
        [u8; 41],
        |s| s.export_state(),
        |s| BatchSampler::restore_state(&s)
            .ok_or_else(|| CodecError::Corrupt("invalid batch sampler state".into())),
    }
}

/// Trains with the MLlib baseline. See the module docs for the protocol.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_mllib(ds: &SparseDataset, cluster: &ClusterSpec, cfg: &TrainConfig) -> TrainOutput {
    System::Mllib.train_default(ds, cluster, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::{LearningRate, Loss, Regularizer};

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("mllib-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.5),
            batch_frac: 0.2,
            max_rounds: 60,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn objective_decreases() {
        let ds = tiny_ds();
        let out = train_mllib(&ds, &ClusterSpec::cluster1(), &quick_cfg());
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.7, "{first} → {best}");
        assert_eq!(out.total_updates, out.rounds_run, "one update per step");
    }

    #[test]
    fn records_driver_centric_gantt() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..quick_cfg()
        };
        let out = train_mllib(&ds, &ClusterSpec::cluster1(), &cfg);
        let acts: Vec<Activity> = out.gantt.spans().iter().map(|s| s.activity).collect();
        assert!(acts.contains(&Activity::Broadcast));
        assert!(acts.contains(&Activity::SendGradient));
        assert!(acts.contains(&Activity::TreeAggregate));
        assert!(acts.contains(&Activity::DriverUpdate));
        assert!(
            acts.contains(&Activity::Wait),
            "executors idle while driver works"
        );
        assert!(!acts.contains(&Activity::ReduceScatter));
    }

    #[test]
    fn target_stops_early() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            target_objective: Some(0.9),
            max_rounds: 500,
            ..quick_cfg()
        };
        let out = train_mllib(&ds, &ClusterSpec::cluster1(), &cfg);
        assert!(out.converged);
        assert!(out.rounds_run < 500);
        assert!(out.trace.final_objective().unwrap() <= 0.9);
    }

    #[test]
    fn deterministic() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 10,
            ..quick_cfg()
        };
        let a = train_mllib(&ds, &ClusterSpec::cluster1(), &cfg);
        let b = train_mllib(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.model.weights().as_slice(), b.model.weights().as_slice());
    }

    #[test]
    fn eval_every_thins_the_trace() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 10,
            eval_every: 5,
            ..quick_cfg()
        };
        let out = train_mllib(&ds, &ClusterSpec::cluster1(), &cfg);
        // step 0, 5, 10.
        assert_eq!(out.trace.points.len(), 3);
        assert_eq!(out.trace.points[1].step, 5);
    }

    #[test]
    fn round_stats_track_every_round() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 4,
            ..quick_cfg()
        };
        let out = train_mllib(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(out.round_stats.len(), 4);
        for rs in &out.round_stats {
            assert_eq!(rs.updates, 1, "one driver update per MLlib round");
            assert!(rs.bytes.broadcast > 0);
            assert!(rs.bytes.tree_aggregate > 0);
            assert_eq!(rs.bytes.reduce_scatter, 0);
            assert!(rs.flops > 0.0);
            assert!(
                (rs.phase_sum() - rs.elapsed_s).abs() < 1e-9,
                "phases must tile the round: {rs:?}"
            );
        }
        // Rounds are laid end to end: per-round elapsed sums to the
        // final trace time.
        let total: f64 = out.round_stats.iter().map(|r| r.elapsed_s).sum();
        let end = out.trace.points.last().unwrap().time.as_secs_f64();
        assert!((total - end).abs() < 1e-6, "{total} vs {end}");
    }
}
