//! MLlib + model averaging: bottleneck **B1** fixed, **B2** untouched
//! (Figure 3b).
//!
//! Per communication step:
//!
//! 1. the driver broadcasts the current global model,
//! 2. each executor runs a **full local SGD pass** over its partition
//!    (per-example updates, lazy regularization — the *SendModel* local
//!    computation),
//! 3. local models are aggregated up to the driver via `treeAggregate`,
//! 4. the driver takes their average as the new global model.
//!
//! Many updates per step → far fewer steps to converge than MLlib; but the
//! communication pattern still serializes at the driver.

use mlstar_codec::{schema, CodecError, Reader, Writer};
use mlstar_data::SparseDataset;
use mlstar_linalg::DenseVector;
use mlstar_sim::{dense_op_flops, pass_flops, Activity, ClusterSpec, NodeId};

use crate::checkpoint::{check_dim, dense};
use crate::common::{pass_state, BspHarness, LocalPasses, PassState};
use crate::engine::{RoundStrategy, StepCtx};
use crate::exec::ComputeBackend;
use crate::{System, TrainConfig, TrainOutput};

/// The MLlib+MA round: broadcast, local SGD pass, treeAggregate, driver
/// average.
pub(crate) struct MllibMaStrategy<'a> {
    h: BspHarness<'a>,
    passes: LocalPasses,
    w: DenseVector,
}

impl<'a> MllibMaStrategy<'a> {
    pub(crate) fn new(
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        parts: &'a [Vec<usize>],
    ) -> Self {
        let h = BspHarness::new(ds, cluster, parts);
        let dim = ds.num_features();
        MllibMaStrategy {
            passes: LocalPasses::new(h.k(), dim, cfg.seed),
            h,
            w: DenseVector::zeros(dim),
        }
    }
}

impl RoundStrategy for MllibMaStrategy<'_> {
    fn name(&self) -> &'static str {
        "MLlib+MA"
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
        _round: u64,
    ) -> Option<u64> {
        let MllibMaStrategy { h, passes, w } = self;
        let k = h.k();
        let dim = ds.num_features();
        let updates = ctx.round(&h.all_nodes, |rd| {
            // (1) Broadcast the global model.
            rd.broadcast(&h.cost, dim);

            // (2) Local SGD pass on every executor.
            let updates = passes.run(rd, backend, h, ds, cfg, w);
            rd.rb.barrier();
            rd.inject_failure(h, cfg, |r| pass_flops(h.part_nnz[r]));

            // (3) + (4) treeAggregate the local models; driver averages.
            let sum =
                rd.tree_aggregate(&h.cost, &passes.locals, cfg.tree_fanin, Activity::SendModel);
            *w = sum;
            w.scale(1.0 / k as f64);
            rd.charge_flops(dense_op_flops(dim));
            rd.rb.work(
                NodeId::Driver,
                Activity::DriverUpdate,
                h.cost.driver_compute(dense_op_flops(dim)),
            );
            updates
        });
        Some(updates)
    }

    fn save_state(&self, w: &mut Writer) {
        let state = MaState {
            w: self.w.clone(),
            passes: self.passes.state(),
        };
        ma_state::put(w, &state, ());
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let state = ma_state::get(r)?;
        check_dim(&state.w, self.w.dim())?;
        self.w = state.w;
        self.passes.restore(state.passes)
    }
}

/// What an MLlib+MA checkpoint carries: the model, then the local-pass
/// streams and counters.
struct MaState {
    w: DenseVector,
    passes: PassState,
}

schema! { record ma_state: MaState { w: dense, passes: pass_state } }

/// Trains with MLlib + model averaging (driver-centric SendModel).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_mllib_ma(ds: &SparseDataset, cluster: &ClusterSpec, cfg: &TrainConfig) -> TrainOutput {
    System::MllibMa.train_default(ds, cluster, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_mllib;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::{LearningRate, Loss, Regularizer};

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("ma-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.05),
            max_rounds: 15,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn many_updates_per_step() {
        let ds = tiny_ds();
        let out = train_mllib_ma(&ds, &ClusterSpec::cluster1(), &quick_cfg());
        // Each step performs one update per local example: n per round.
        assert_eq!(out.total_updates, out.rounds_run * ds.len() as u64);
        // The telemetry agrees, round by round.
        for rs in &out.round_stats {
            assert_eq!(rs.updates, ds.len() as u64);
        }
    }

    #[test]
    fn converges_in_far_fewer_steps_than_mllib() {
        let ds = tiny_ds();
        let target = 0.25;
        let ma_cfg = TrainConfig {
            target_objective: Some(target),
            max_rounds: 50,
            ..quick_cfg()
        };
        let ma = train_mllib_ma(&ds, &ClusterSpec::cluster1(), &ma_cfg);
        let gd_cfg = TrainConfig {
            lr: LearningRate::Constant(0.5),
            batch_frac: 0.1,
            target_objective: Some(target),
            max_rounds: 400,
            ..TrainConfig::default()
        };
        let gd = train_mllib(&ds, &ClusterSpec::cluster1(), &gd_cfg);
        let ma_steps = ma.trace.steps_to_reach(target).expect("MA reaches target");
        match gd.trace.steps_to_reach(target) {
            Some(gd_steps) => assert!(
                gd_steps > 3 * ma_steps,
                "SendModel should need far fewer steps: MA {ma_steps} vs MLlib {gd_steps}"
            ),
            None => { /* even stronger: MLlib never got there */ }
        }
    }

    #[test]
    fn keeps_driver_centric_pattern() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 2,
            ..quick_cfg()
        };
        let out = train_mllib_ma(&ds, &ClusterSpec::cluster1(), &cfg);
        let acts: Vec<Activity> = out.gantt.spans().iter().map(|s| s.activity).collect();
        assert!(acts.contains(&Activity::Broadcast));
        assert!(acts.contains(&Activity::SendModel), "models, not gradients");
        assert!(!acts.contains(&Activity::SendGradient));
        assert!(!acts.contains(&Activity::ReduceScatter));
    }

    #[test]
    fn l2_regularized_run_is_stable() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            reg: Regularizer::L2 { lambda: 0.1 },
            ..quick_cfg()
        };
        let out = train_mllib_ma(&ds, &ClusterSpec::cluster1(), &cfg);
        let f = out.trace.final_objective().unwrap();
        assert!(f.is_finite() && f < 1.0, "objective {f}");
    }

    #[test]
    fn deterministic() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 5,
            ..quick_cfg()
        };
        let a = train_mllib_ma(&ds, &ClusterSpec::cluster1(), &cfg);
        let b = train_mllib_ma(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(a.trace, b.trace);
    }
}
