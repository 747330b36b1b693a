//! MLlib, MLlib+MA, MLlib\* and spark.ml: one BSP round resolved from the
//! paper's two choices (Section I: MLlib\* = MLlib + model averaging +
//! AllReduce), plus the L-BFGS update of its future work.
//!
//! * **The update (B1).** *SendGradient*: each executor computes the
//!   average loss gradient over a sampled batch, and the driver applies
//!   **one** update per step, `w ← w − η·(g + ∇Ω(w))`. *SendModel*: each
//!   executor runs a full local SGD pass over its partition (lazy
//!   regularization), and the step's model is the average of the local
//!   models — many updates per step. *L-BFGS* (`crate::sparkml`): the
//!   driver's line search runs its trials as supersteps of their own,
//!   then each executor sends its full-partition gradient weighted by
//!   `|part|/n`, and the driver adds `∇Ω` and updates the `(s, y)` history.
//! * **The combine (B2).** *Driver*: a driver broadcast, then a
//!   hierarchical `treeAggregate` up to the driver, so every byte
//!   serializes through its NIC. *AllReduce* (Algorithm 3): Reduce-Scatter
//!   (each executor averages the model slice it owns), then AllGather — or
//!   one all-to-all exchange of compressed frames with error feedback. The
//!   same `≈ 2km` traffic, with no driver on the critical path.
//!
//! | System | update | combine | Paper |
//! |---|---|---|---|
//! | MLlib | SendGradient | driver | Figures 2a, 3a |
//! | MLlib+MA | SendModel | driver | Figure 3b |
//! | MLlib\* | SendModel | AllReduce | Algorithm 3, Figures 2b, 3c |
//! | spark.ml | L-BFGS | driver | the conclusion's future work |

use mlstar_codec::{schema, CodecError, Reader, Writer};
use mlstar_collectives::CompressionConfig;
use mlstar_data::{BatchSampler, SparseDataset};
use mlstar_exec::WorkerOp;
use mlstar_linalg::DenseVector;
use mlstar_sim::{dense_op_flops, pass_flops, Activity, ClusterSpec, SeedStream};

use crate::checkpoint::{check_dim, check_workers, dense};
use crate::common::{eval_objective, pass_state, BspHarness, LocalPasses};
use crate::engine::{BspRound, StepCtx};
use crate::exec::{dispatch, expect_grad, to_wire_indices, ComputeBackend};
use crate::sparkml::Lbfgs;
use crate::{System, TrainConfig};

/// SendGradient's local phase: per-worker batch samplers and gradient
/// buffers.
struct BatchGradients {
    samplers: Vec<BatchSampler>,
    /// Each worker's latest batch gradient. Scratch across rounds — every
    /// round clears or fully overwrites them — so not checkpointed.
    grads: Vec<DenseVector>,
}

impl BatchGradients {
    fn new(k: usize, dim: usize, seed: u64) -> Self {
        let seeds = SeedStream::new(seed).child("batch");
        BatchGradients {
            samplers: (0..k)
                .map(|r| BatchSampler::new(seeds.child_idx(r as u64).seed()))
                .collect(),
            grads: vec![DenseVector::zeros(dim); k],
        }
    }

    /// Computes every worker's batch gradient at `w`, charging each to
    /// simulated time; workers with empty partitions contribute zeros.
    /// Batches are sampled here (the RNG streams stay with the round
    /// driver) and `grads[r]` itself carries the model to the worker.
    fn run(
        &mut self,
        rd: &mut BspRound<'_, '_>,
        backend: &mut dyn ComputeBackend,
        h: &BspHarness<'_>,
        w: &DenseVector,
    ) {
        let (ds, cfg) = (h.ds, h.cfg);
        let mut ops = Vec::with_capacity(h.k());
        for (r, part) in h.parts.iter().enumerate() {
            if part.is_empty() {
                self.grads[r].clear();
                continue;
            }
            let batch = self.samplers[r].sample(part, cfg.batch_size(part.len()));
            let batch_nnz: usize = batch.iter().map(|&i| ds.rows()[i].nnz()).sum();
            let mut model = std::mem::take(&mut self.grads[r]);
            model.copy_from(w);
            ops.push((
                r,
                WorkerOp::BatchGrad {
                    w: model,
                    batch: to_wire_indices(&batch),
                },
            ));
            rd.task(h, r, pass_flops(batch_nnz), cfg.waves);
        }
        for (r, res) in dispatch(backend, ops) {
            self.grads[r] = expect_grad(res);
        }
    }
}

/// The update choice (B1): what each worker computes and sends.
enum Update {
    /// SendGradient: one batch gradient per worker, one driver update.
    Gradient(BatchGradients),
    /// SendModel: one local SGD pass per worker, then the average.
    Model(LocalPasses),
    /// spark.ml's L-BFGS: a line search, then one weighted full-partition
    /// gradient per worker and a quasi-Newton step at the driver.
    Lbfgs(Lbfgs),
}

/// The combine choice (B2): how the workers' vectors become one average.
enum Combine {
    /// Driver broadcast, then `treeAggregate` with this fan-in and a
    /// driver-side `1/k` scale; the driver and every executor take part.
    Driver { fanin: usize },
    /// AllReduce among the executors only: dense Reduce-Scatter +
    /// AllGather, or the compressed exchange whose per-worker
    /// error-feedback residuals are training state.
    AllReduce {
        compression: CompressionConfig,
        residuals: Vec<DenseVector>,
    },
}

/// The round of MLlib, MLlib+MA, MLlib\* and spark.ml, as resolved by
/// [`BspStrategy::resolve`] — the one trainer `run_rounds` drives.
pub(crate) struct BspStrategy<'a> {
    pub system: System,
    pub h: BspHarness<'a>,
    /// The global model. Under AllReduce every executor holds an
    /// identical copy; we track one (they are bit-identical by
    /// construction).
    pub w: DenseVector,
    update: Update,
    combine: Combine,
}

impl<'a> BspStrategy<'a> {
    /// Resolves `system`'s update and combine.
    ///
    /// # Panics
    ///
    /// Panics if `system` is a parameter-server system.
    pub(crate) fn resolve(
        system: System,
        ds: &'a SparseDataset,
        cluster: &ClusterSpec,
        cfg: &'a TrainConfig,
        parts: &'a [Vec<usize>],
    ) -> Self {
        let h = BspHarness::new(ds, cluster, cfg, parts);
        let (k, dim) = (h.k(), ds.num_features());
        let driver = Combine::Driver {
            fanin: cfg.tree_fanin,
        };
        let (update, combine) = match system {
            System::Mllib => (
                Update::Gradient(BatchGradients::new(k, dim, cfg.seed)),
                driver,
            ),
            System::MllibMa => (Update::Model(LocalPasses::new(k, dim, cfg.seed)), driver),
            System::MllibStar => (
                Update::Model(LocalPasses::new(k, dim, cfg.seed)),
                Combine::AllReduce {
                    compression: cfg.compression,
                    residuals: Vec::new(),
                },
            ),
            System::SparkMl => (Update::Lbfgs(Lbfgs::new(&h)), driver),
            other => unreachable!("{other} is not a BSP strategy system"),
        };
        BspStrategy {
            system,
            h,
            w: DenseVector::zeros(dim),
            update,
            combine,
        }
    }

    /// Objective at the current model, never charged to simulated time.
    /// L-BFGS reuses the value its line search already paid for.
    pub(crate) fn objective(&self) -> f64 {
        let (ds, cfg) = (self.h.ds, self.h.cfg);
        match &self.update {
            Update::Lbfgs(l) => l.f,
            _ => eval_objective(ds, cfg.loss, cfg.reg, &self.w),
        }
    }

    /// L-BFGS's warm-up gradient at `w₀`: one round of simulated time
    /// before the first step, which no `RoundStats` counts.
    pub(crate) fn warm_up(&mut self, ctx: &mut StepCtx, backend: &mut dyn ComputeBackend) {
        if matches!(self.update, Update::Lbfgs(_)) {
            self.round(ctx, backend, 0);
        }
    }

    /// Performs communication step `round` and returns the number of model
    /// updates, or `None` when L-BFGS stops before the step counts.
    pub(crate) fn step(
        &mut self,
        ctx: &mut StepCtx,
        backend: &mut dyn ComputeBackend,
        round: u64,
    ) -> Option<u64> {
        if let Update::Lbfgs(l) = &mut self.update {
            l.line_search(ctx, backend, &self.h, &mut self.w)?;
        }
        Some(self.round(ctx, backend, round))
    }

    /// The shared superstep: broadcast, local phase, combine, finish.
    fn round(&mut self, ctx: &mut StepCtx, backend: &mut dyn ComputeBackend, round: u64) -> u64 {
        let BspStrategy {
            h,
            w,
            update,
            combine,
            ..
        } = self;
        let (cfg, dim) = (h.cfg, h.ds.num_features());
        let driver = matches!(combine, Combine::Driver { .. });
        let (send_gradient, send_model) = (
            matches!(update, Update::Gradient(_)),
            matches!(update, Update::Model(_)),
        );
        let nodes = if driver { &h.all_nodes } else { &h.exec_nodes };
        ctx.round(nodes, |rd| {
            // (1) The driver broadcasts the model.
            if driver {
                rd.broadcast(&h.cost, dim);
            }

            // (2) The local phase. A failed task re-reads what it read: its
            // batch's share of the partition, or all of it. spark.ml's
            // round draws no failure.
            let (updates, inputs, send, reread) = match update {
                Update::Gradient(g) => {
                    g.run(rd, backend, h, w);
                    (1, &g.grads, Activity::SendGradient, Some(cfg.batch_frac))
                }
                Update::Model(passes) => {
                    let updates = passes.run(rd, backend, h, w);
                    (updates, &passes.locals, Activity::SendModel, Some(1.0))
                }
                Update::Lbfgs(l) => {
                    l.run(rd, backend, h, w);
                    (1, &l.partials, Activity::SendGradient, None)
                }
            };
            rd.rb.barrier();
            if let Some(reread) = reread {
                rd.inject_failure(h, |r| pass_flops(h.part_nnz[r]) * reread);
            }

            // (3) The combine: the average of the workers' vectors. A
            // SendModel step replaces the model, so the old one's buffer
            // goes before the combine makes the new one. MLlib's driver
            // (its update is resolved with the driver combine only) takes
            // the last level's sum, the `1/k` scale, the penalty's gradient
            // and the step in one pass, and makes no average.
            if send_model {
                drop(std::mem::take(w));
            }
            let avg = match combine {
                Combine::Driver { fanin } if send_gradient => {
                    let (scale, eta) = (1.0 / h.k() as f64, cfg.lr.eta(round));
                    rd.tree_aggregate_with(&h.cost, inputs, *fanin, send, |last| {
                        cfg.reg.descend(w, last, scale, eta);
                    });
                    None
                }
                Combine::Driver { fanin } => {
                    let mut sum = rd.tree_aggregate(&h.cost, inputs, *fanin, send);
                    // L-BFGS's partials arrive weighted: their sum is the
                    // average already.
                    if send_model {
                        sum.scale(1.0 / h.k() as f64);
                    }
                    Some(sum)
                }
                Combine::AllReduce {
                    compression,
                    residuals,
                } => Some(rd.all_reduce_average(&h.cost, inputs, compression, residuals)),
            };

            // (4) The finish: MLlib's single driver update (taken in the
            // combine), the average becoming the model, or L-BFGS's
            // gradient and history update.
            let driver_passes = match (update, avg) {
                (Update::Gradient(_), _) => 2.0,
                (Update::Model(_), Some(avg)) => {
                    *w = avg;
                    1.0
                }
                (Update::Lbfgs(l), Some(avg)) => {
                    l.finish(w, avg, cfg);
                    1.0
                }
                (_, None) => unreachable!("only MLlib's combine takes the step itself"),
            };
            if driver {
                rd.driver_update(h, driver_passes * dense_op_flops(dim));
            }
            updates
        })
    }

    /// Writes the model, then the update's state (every worker's sampler
    /// stream, or the local-pass streams and counters; L-BFGS writes one
    /// record with the model inside), then — under AllReduce only — the
    /// error-feedback residuals, which carry un-shipped gradient mass
    /// across rounds.
    pub(crate) fn save_state(&self, w: &mut Writer) {
        match &self.update {
            Update::Gradient(g) => {
                dense::put(w, &self.w, ());
                samplers::put(w, &g.samplers, ());
            }
            Update::Model(passes) => {
                dense::put(w, &self.w, ());
                pass_state::put(w, &passes.state(), ());
            }
            Update::Lbfgs(l) => l.save(&self.w, w),
        }
        if let Combine::AllReduce { residuals, .. } = &self.combine {
            residual_list::put(w, residuals, ());
        }
    }

    /// Restores what [`BspStrategy::save_state`] wrote; a dimension or
    /// worker count that is not this run's is [`CodecError::Corrupt`].
    pub(crate) fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let dim = self.w.dim();
        let w = match &mut self.update {
            Update::Gradient(_) | Update::Model(_) => dense::get(r)?,
            Update::Lbfgs(l) => l.restore(r, dim)?,
        };
        check_dim(&w, dim)?;
        match &mut self.update {
            Update::Gradient(g) => {
                let saved = samplers::get(r)?;
                check_workers(saved.len(), g.samplers.len())?;
                g.samplers = saved;
            }
            Update::Model(passes) => passes.restore(pass_state::get(r)?)?,
            Update::Lbfgs(_) => {}
        }
        if let Combine::AllReduce { residuals, .. } = &mut self.combine {
            let saved = residual_list::get(r)?;
            let k = self.h.k();
            if !saved.is_empty() && saved.len() != k {
                return Err(CodecError::Corrupt(format!(
                    "checkpoint has {} error-feedback residuals, run has {k} workers",
                    saved.len()
                )));
            }
            for res in &saved {
                check_dim(res, dim)?;
            }
            *residuals = saved;
        }
        self.w = w;
        Ok(())
    }
}

type Samplers = Vec<BatchSampler>;
type Residuals = Vec<DenseVector>;

schema! { map samplers: Samplers { list(batch_sampler), Clone::clone, Ok } }
schema! { map residual_list: Residuals { list(dense), Clone::clone, Ok } }
schema! {
    map batch_sampler: BatchSampler {
        [u8; 41],
        |s| s.export_state(),
        |s| BatchSampler::restore_state(&s)
            .ok_or_else(|| CodecError::Corrupt("invalid batch sampler state".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MaWeighting, TrainOutput};
    use mlstar_collectives::{FrameSwitch, Sparsifier};
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::{LearningRate, Loss, Regularizer};
    use mlstar_sim::NodeId;

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("bsp-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    /// MLlib's test config: a large step over 20 % batches.
    fn mllib_cfg() -> TrainConfig {
        TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.5),
            batch_frac: 0.2,
            max_rounds: 60,
            ..TrainConfig::default()
        }
    }

    /// The model-averaging systems' test config.
    fn ma_cfg() -> TrainConfig {
        TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.05),
            max_rounds: 15,
            ..TrainConfig::default()
        }
    }

    fn activities(out: &TrainOutput) -> Vec<Activity> {
        out.gantt.spans().iter().map(|s| s.activity).collect()
    }

    fn residuals<'s>(strat: &'s BspStrategy<'_>) -> &'s [DenseVector] {
        match &strat.combine {
            Combine::AllReduce { residuals, .. } => residuals,
            Combine::Driver { .. } => panic!("{} has no residuals", strat.system),
        }
    }

    #[test]
    fn deterministic() {
        let ds = tiny_ds();
        for (system, cfg) in [
            (
                System::Mllib,
                TrainConfig {
                    max_rounds: 10,
                    ..mllib_cfg()
                },
            ),
            (
                System::MllibMa,
                TrainConfig {
                    max_rounds: 5,
                    ..ma_cfg()
                },
            ),
            (
                System::MllibStar,
                TrainConfig {
                    max_rounds: 5,
                    ..ma_cfg()
                },
            ),
        ] {
            let a = system.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
            let b = system.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
            assert_eq!(a.trace, b.trace, "{system}");
            assert_eq!(
                a.model.weights().as_slice(),
                b.model.weights().as_slice(),
                "{system}"
            );
        }
    }

    #[test]
    fn l2_regularized_model_averaging_is_stable() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            reg: Regularizer::L2 { lambda: 0.1 },
            ..ma_cfg()
        };
        for system in [System::MllibMa, System::MllibStar] {
            let out = system.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
            let f = out.trace.final_objective().unwrap();
            assert!(f.is_finite() && f < 1.0, "{system}: objective {f}");
        }
    }

    #[test]
    fn mllib_objective_decreases() {
        let ds = tiny_ds();
        let out = System::Mllib.train_default(&ds, &ClusterSpec::cluster1(), &mllib_cfg());
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.7, "{first} → {best}");
        assert_eq!(out.total_updates, out.rounds_run, "one update per step");
    }

    #[test]
    fn mllib_records_driver_centric_gantt() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..mllib_cfg()
        };
        let acts = activities(&System::Mllib.train_default(&ds, &ClusterSpec::cluster1(), &cfg));
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
    fn mllib_target_stops_early() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            target_objective: Some(0.9),
            max_rounds: 500,
            ..mllib_cfg()
        };
        let out = System::Mllib.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        assert!(out.converged);
        assert!(out.rounds_run < 500);
        assert!(out.trace.final_objective().unwrap() <= 0.9);
    }

    #[test]
    fn mllib_eval_every_thins_the_trace() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 10,
            eval_every: 5,
            ..mllib_cfg()
        };
        let out = System::Mllib.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        // step 0, 5, 10.
        assert_eq!(out.trace.points.len(), 3);
        assert_eq!(out.trace.points[1].step, 5);
    }

    #[test]
    fn mllib_round_stats_track_every_round() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 4,
            ..mllib_cfg()
        };
        let out = System::Mllib.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
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

    #[test]
    fn ma_many_updates_per_step() {
        let ds = tiny_ds();
        let out = System::MllibMa.train_default(&ds, &ClusterSpec::cluster1(), &ma_cfg());
        // Each step performs one update per local example: n per round.
        assert_eq!(out.total_updates, out.rounds_run * ds.len() as u64);
        // The telemetry agrees, round by round.
        for rs in &out.round_stats {
            assert_eq!(rs.updates, ds.len() as u64);
        }
    }

    #[test]
    fn ma_converges_in_far_fewer_steps_than_mllib() {
        let ds = tiny_ds();
        let target = 0.25;
        let ma_cfg = TrainConfig {
            target_objective: Some(target),
            max_rounds: 50,
            ..ma_cfg()
        };
        let ma = System::MllibMa.train_default(&ds, &ClusterSpec::cluster1(), &ma_cfg);
        let gd_cfg = TrainConfig {
            lr: LearningRate::Constant(0.5),
            batch_frac: 0.1,
            target_objective: Some(target),
            max_rounds: 400,
            ..TrainConfig::default()
        };
        let gd = System::Mllib.train_default(&ds, &ClusterSpec::cluster1(), &gd_cfg);
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
    fn ma_keeps_driver_centric_pattern() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 2,
            ..ma_cfg()
        };
        let acts = activities(&System::MllibMa.train_default(&ds, &ClusterSpec::cluster1(), &cfg));
        assert!(acts.contains(&Activity::Broadcast));
        assert!(acts.contains(&Activity::SendModel), "models, not gradients");
        assert!(!acts.contains(&Activity::SendGradient));
        assert!(!acts.contains(&Activity::ReduceScatter));
    }

    #[test]
    fn star_converges() {
        let ds = tiny_ds();
        let out = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &ma_cfg());
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.5, "{first} → {best}");
    }

    #[test]
    fn star_driver_never_works() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..ma_cfg()
        };
        let out = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(out.gantt.busy_time(NodeId::Driver), 0.0);
        let acts = activities(&out);
        assert!(acts.contains(&Activity::ReduceScatter));
        assert!(acts.contains(&Activity::AllGather));
        assert!(!acts.contains(&Activity::Broadcast));
        assert!(!acts.contains(&Activity::TreeAggregate));
    }

    #[test]
    fn star_same_step_curve_as_mllib_ma_but_faster_clock() {
        // AllReduce does not change the number of communication steps
        // (identical math/per-step updates to MLlib+MA given the same
        // seeds) but each step takes less simulated time.
        let ds = tiny_ds();
        // Few rounds and a loose-ish tolerance: the two systems sum the
        // same local models in different orders (tree vs. slice-wise), and
        // hinge SGD amplifies ulp-level differences over long horizons.
        let cfg = TrainConfig {
            max_rounds: 3,
            ..ma_cfg()
        };
        let star = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        let ma = System::MllibMa.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        // Identical objective-vs-step curves (same local math, averaging).
        for (a, b) in star.trace.points.iter().zip(ma.trace.points.iter()) {
            assert_eq!(a.step, b.step);
            assert!(
                (a.objective - b.objective).abs() < 1e-7,
                "step {}: {} vs {}",
                a.step,
                a.objective,
                b.objective
            );
        }
        // Strictly faster wall clock.
        let t_star = star.trace.points.last().unwrap().time.as_secs_f64();
        let t_ma = ma.trace.points.last().unwrap().time.as_secs_f64();
        assert!(t_star < t_ma, "MLlib* {t_star}s vs MLlib+MA {t_ma}s");
    }

    #[test]
    fn star_executors_stay_busy() {
        // The Figure 3c observation: utilization is high without driver
        // stalls.
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 5,
            ..ma_cfg()
        };
        let out = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        for r in 0..8 {
            let u = out.gantt.utilization(NodeId::Executor(r));
            assert!(u > 0.5, "executor {r} utilization {u}");
        }
    }

    #[test]
    fn star_failure_injection_slows_the_clock_but_not_the_math() {
        let ds = tiny_ds();
        let base = TrainConfig {
            max_rounds: 6,
            ..ma_cfg()
        };
        let clean = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &base);
        let faulty = System::MllibStar.train_default(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                failure_prob: 1.0,
                ..base
            },
        );
        // Lineage recovery re-executes work deterministically: identical
        // objective curves…
        for (a, b) in clean.trace.points.iter().zip(faulty.trace.points.iter()) {
            assert_eq!(a.objective, b.objective);
        }
        // …but the faulty run pays recompute time every round.
        let t_clean = clean.trace.points.last().unwrap().time;
        let t_faulty = faulty.trace.points.last().unwrap().time;
        assert!(t_faulty > t_clean, "{t_faulty} vs {t_clean}");
        // The extra time shows up as failure-recovery phase telemetry.
        assert!(clean.round_stats.iter().all(|r| r.recovery_s == 0.0));
        assert!(faulty.round_stats.iter().all(|r| r.recovery_s > 0.0));
    }

    #[test]
    fn star_round_stats_split_allreduce_bytes() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..ma_cfg()
        };
        let out = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(out.round_stats.len(), 3);
        for rs in &out.round_stats {
            assert!(rs.bytes.reduce_scatter > 0);
            assert!(rs.bytes.all_gather > 0);
            assert_eq!(rs.bytes.broadcast, 0, "no driver broadcast in MLlib*");
            assert_eq!(rs.bytes.tree_aggregate, 0);
            assert!(
                (rs.phase_sum() - rs.elapsed_s).abs() < 1e-9,
                "phases must tile the round: {rs:?}"
            );
        }
    }

    fn compressed_cfg(base: TrainConfig) -> TrainConfig {
        TrainConfig {
            compression: CompressionConfig {
                switch: FrameSwitch::Adaptive,
                ..CompressionConfig::default()
            },
            ..base
        }
    }

    #[test]
    fn star_lossless_compression_is_bit_identical_to_the_dense_path() {
        // With the Exact sparsifier and no quantization, the compressed
        // all-to-all folds the same values in the same worker order as
        // Reduce-Scatter + AllGather, so the entire run must match
        // bit-for-bit — only the byte accounting may differ.
        let ds = tiny_ds();
        let cfg = TrainConfig {
            reg: Regularizer::L1 { lambda: 0.01 },
            max_rounds: 6,
            ..ma_cfg()
        };
        let dense = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        let compressed =
            System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &compressed_cfg(cfg));
        // Simulated *time* differs (one all-to-all phase instead of two
        // shuffle phases); every mathematical quantity must not.
        assert_eq!(dense.trace.points.len(), compressed.trace.points.len());
        for (a, b) in dense
            .trace
            .points
            .iter()
            .zip(compressed.trace.points.iter())
        {
            assert_eq!(a.step, b.step);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.total_updates, b.total_updates);
        }
        let bits = |out: &TrainOutput| -> Vec<u64> {
            out.model
                .weights()
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(
            bits(&dense),
            bits(&compressed),
            "model must be bit-identical under lossless compression"
        );
        assert_eq!(dense.total_updates, compressed.total_updates);
    }

    #[test]
    fn star_compression_books_actual_bytes_to_all_gather() {
        let ds = tiny_ds();
        let cfg = compressed_cfg(TrainConfig {
            max_rounds: 3,
            ..ma_cfg()
        });
        let out = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        for rs in &out.round_stats {
            assert_eq!(
                rs.bytes.reduce_scatter, 0,
                "the compressed exchange has no Reduce-Scatter phase"
            );
            assert!(rs.bytes.all_gather > 0);
        }
    }

    #[test]
    fn star_lossy_compression_with_feedback_still_converges() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 15,
            compression: CompressionConfig {
                switch: FrameSwitch::Adaptive,
                sparsifier: Sparsifier::TopK { k: 8 },
                quantize: true,
                error_feedback: true,
            },
            ..ma_cfg()
        };
        let out = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(
            best < first * 0.6,
            "error feedback should preserve convergence: {first} → {best}"
        );
    }

    #[test]
    fn star_compressed_runs_are_deterministic() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 5,
            compression: CompressionConfig {
                switch: FrameSwitch::Adaptive,
                sparsifier: Sparsifier::Threshold { tau: 1e-3 },
                quantize: true,
                error_feedback: true,
            },
            ..ma_cfg()
        };
        let a = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        let b = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.model.weights().as_slice(), b.model.weights().as_slice());
    }

    #[test]
    fn star_checkpoint_roundtrips_error_feedback_residuals() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 4,
            compression: CompressionConfig {
                switch: FrameSwitch::Adaptive,
                sparsifier: Sparsifier::TopK { k: 4 },
                quantize: false,
                error_feedback: true,
            },
            ..ma_cfg()
        };
        let cluster = ClusterSpec::cluster1();
        let parts = crate::system_partitions(System::MllibStar, &ds, &cluster, &cfg);
        let mut backend = crate::InProcessBackend::new(&ds, &parts, &cfg);
        let mut strat = BspStrategy::resolve(System::MllibStar, &ds, &cluster, &cfg, &parts);
        let mut ctx = StepCtx::new(cfg.seed);
        strat.step(&mut ctx, &mut backend, 0);
        strat.step(&mut ctx, &mut backend, 1);
        assert!(
            residuals(&strat).iter().any(|r| r.norm1() > 0.0),
            "top-k should leave residual mass behind"
        );

        let mut w = Writer::new();
        strat.save_state(&mut w);
        let saved = w.into_payload();

        let mut fresh = BspStrategy::resolve(System::MllibStar, &ds, &cluster, &cfg, &parts);
        let mut r = Reader::new(&saved);
        fresh.restore_state(&mut r).unwrap();
        assert_eq!(residuals(&fresh).len(), residuals(&strat).len());
        for (a, b) in residuals(&fresh).iter().zip(residuals(&strat)) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(fresh.w.as_slice(), strat.w.as_slice());
    }

    #[test]
    fn star_weighted_averaging_equals_uniform_on_balanced_partitions() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..ma_cfg()
        };
        let uniform = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        let weighted = System::MllibStar.train_default(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                ma_weighting: MaWeighting::PartitionSize,
                ..cfg
            },
        );
        for (a, b) in uniform
            .trace
            .points
            .iter()
            .zip(weighted.trace.points.iter())
        {
            assert!(
                (a.objective - b.objective).abs() < 1e-9,
                "balanced partitions: weighting must be a no-op"
            );
        }
    }

    #[test]
    fn star_weighted_averaging_beats_uniform_on_skewed_partitions() {
        // With worker 0 owning 60% of the data, uniform averaging
        // over-weights the 7 small partitions' models; size-weighting
        // restores the correct estimator.
        let ds = tiny_ds();
        let base = TrainConfig {
            max_rounds: 10,
            partition_skew: Some(0.6),
            ..ma_cfg()
        };
        let uniform = System::MllibStar.train_default(&ds, &ClusterSpec::cluster1(), &base);
        let weighted = System::MllibStar.train_default(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                ma_weighting: MaWeighting::PartitionSize,
                ..base
            },
        );
        let fu = uniform.trace.final_objective().unwrap();
        let fw = weighted.trace.final_objective().unwrap();
        assert!(
            fw <= fu + 1e-9,
            "weighting should not hurt on skewed partitions: uniform {fu} vs weighted {fw}"
        );
    }
}
