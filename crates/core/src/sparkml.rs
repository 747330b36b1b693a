//! `spark.ml`-style distributed L-BFGS — the paper's future-work system.
//!
//! The paper's conclusion: "Spark recently introduced `spark.ml`, its
//! second-generation machine learning library that implements L-BFGS...
//! An interesting question is whether the techniques we have developed
//! for speeding up MLlib could also be used for improving `spark.ml`."
//!
//! This trainer reproduces `spark.ml`'s execution plan on the simulated
//! cluster so that question can be studied quantitatively:
//!
//! * per outer iteration, the driver broadcasts the model and executors
//!   compute the **full-partition** gradient, aggregated by
//!   `treeAggregate` (SendGradient over the entire dataset, unlike
//!   MLlib's mini-batches);
//! * the driver forms the L-BFGS direction (two-loop recursion) and runs
//!   an Armijo backtracking line search — **every trial step costs one
//!   more broadcast + distributed objective evaluation**, which is why
//!   L-BFGS iterations are expensive in Spark;
//! * convergence typically needs far fewer outer iterations than MGD.

use mlstar_codec::{schema, CodecError, Reader, Writer};
use mlstar_data::SparseDataset;
use mlstar_exec::WorkerOp;
use mlstar_glm::lbfgs_direction;
use mlstar_linalg::DenseVector;
use mlstar_sim::{dense_op_flops, pass_flops, Activity, ClusterSpec, NodeId};

use crate::checkpoint::{check_dim, dense};
use crate::common::{eval_objective, BspHarness};
use crate::engine::{expect_uncheckpointed, run_rounds, RoundStrategy, StepCtx};
use crate::exec::{
    dispatch, expect_grad, expect_value, system_partitions, ComputeBackend, InProcessBackend,
};
use crate::{System, TrainConfig, TrainOutput};

/// Extra configuration for the `spark.ml` L-BFGS trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparkMlConfig {
    /// Number of `(s, y)` correction pairs kept (spark.ml default: 10).
    pub history: usize,
    /// Armijo sufficient-decrease constant.
    pub c1: f64,
    /// Backtracking shrink factor.
    pub backtrack: f64,
    /// Maximum line-search trials per iteration (each costs a distributed
    /// pass).
    pub max_line_search: u32,
}

impl Default for SparkMlConfig {
    fn default() -> Self {
        SparkMlConfig {
            history: 10,
            c1: 1e-4,
            backtrack: 0.5,
            max_line_search: 12,
        }
    }
}

/// The `spark.ml` outer iteration: L-BFGS direction at the driver, a
/// backtracking line search (one superstep per trial), and a full
/// distributed gradient — each opening its own superstep against the
/// engine's shared round counter.
pub(crate) struct SparkMlStrategy<'a> {
    h: BspHarness<'a>,
    ml: SparkMlConfig,
    w: DenseVector,
    grad: DenseVector,
    pairs: Vec<(DenseVector, DenseVector)>,
    /// Cached objective at `w` — already paid for by the line search, so
    /// the engine's trace points reuse it instead of re-evaluating.
    f: f64,
}

impl<'a> SparkMlStrategy<'a> {
    pub(crate) fn new(
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        ml: &SparkMlConfig,
        parts: &'a [Vec<usize>],
    ) -> Self {
        let h = BspHarness::new(ds, cluster, parts);
        let dim = ds.num_features();
        let w = DenseVector::zeros(dim);
        let f = eval_objective(ds, cfg.loss, cfg.reg, &w);
        SparkMlStrategy {
            h,
            ml: *ml,
            w,
            grad: DenseVector::zeros(dim),
            pairs: Vec::new(),
            f,
        }
    }
}

/// One distributed full gradient (broadcast + per-partition compute +
/// treeAggregate), charged to simulated time.
fn distributed_gradient(
    h: &BspHarness<'_>,
    ctx: &mut StepCtx,
    backend: &mut dyn ComputeBackend,
    ds: &SparseDataset,
    cfg: &TrainConfig,
    w: &DenseVector,
    grad: &mut DenseVector,
) {
    let k = h.k();
    let dim = ds.num_features();
    ctx.round(&h.all_nodes, |rd| {
        rd.broadcast(&h.cost, dim);
        let mut partials = vec![DenseVector::zeros(dim); k];
        let mut ops = Vec::with_capacity(k);
        for (r, partial) in partials.iter_mut().enumerate() {
            if h.parts[r].is_empty() {
                continue;
            }
            let mut model = std::mem::take(partial);
            model.copy_from(w);
            ops.push((r, WorkerOp::PartitionGrad { w: model }));
            rd.charge_flops(pass_flops(h.part_nnz[r]));
            rd.rb.work(
                NodeId::Executor(r),
                Activity::Compute,
                h.cost
                    .executor_compute(r, pass_flops(h.part_nnz[r]), rd.straggler_rng),
            );
        }
        for (r, res) in dispatch(backend, ops) {
            // Workers return the unscaled partition gradient; weight it by
            // partition size so the sum over workers is the dataset-average
            // gradient.
            partials[r] = expect_grad(res);
            partials[r].scale(h.parts[r].len() as f64 / ds.len() as f64);
        }
        rd.rb.barrier();
        let sum = rd.tree_aggregate(&h.cost, &partials, cfg.tree_fanin, Activity::SendGradient);
        *grad = sum;
        cfg.reg.add_gradient(w, grad);
        rd.charge_flops(dense_op_flops(dim));
        rd.rb.work(
            NodeId::Driver,
            Activity::DriverUpdate,
            h.cost.driver_compute(dense_op_flops(dim)),
        );
    });
}

/// One distributed objective evaluation (line-search trial): broadcast
/// the trial model, compute local losses, gather scalars at the driver.
fn distributed_objective(
    h: &BspHarness<'_>,
    ctx: &mut StepCtx,
    backend: &mut dyn ComputeBackend,
    ds: &SparseDataset,
    cfg: &TrainConfig,
    w: &DenseVector,
) -> f64 {
    let k = h.k();
    let dim = ds.num_features();
    ctx.round(&h.all_nodes, |rd| {
        rd.broadcast(&h.cost, dim);
        let mut ops = Vec::with_capacity(k);
        for r in 0..k {
            if h.parts[r].is_empty() {
                continue;
            }
            ops.push((r, WorkerOp::PartitionObjective { w: w.clone() }));
            // Loss evaluation is ~half the flops of a gradient pass.
            rd.charge_flops(pass_flops(h.part_nnz[r]) / 2.0);
            rd.rb.work(
                NodeId::Executor(r),
                Activity::Compute,
                h.cost
                    .executor_compute(r, pass_flops(h.part_nnz[r]) / 2.0, rd.straggler_rng),
            );
        }
        // Loss-only local values, accumulated in worker order.
        let mut weighted = 0.0;
        for (r, res) in dispatch(backend, ops) {
            weighted += expect_value(res) * h.parts[r].len() as f64 / ds.len() as f64;
        }
        rd.rb.barrier();
        // Scalar gather: k tiny messages through the driver NIC (counted
        // under tree_aggregate — it serializes at the driver the same
        // way).
        for r in 0..k {
            rd.rb.work(
                NodeId::Executor(r),
                Activity::SendGradient,
                h.cost.transfer(24),
            );
        }
        rd.bytes.tree_aggregate += 24 * k as u64;
        rd.rb.work(
            NodeId::Driver,
            Activity::TreeAggregate,
            h.cost.serialized_transfers(24, k),
        );
        weighted + cfg.reg.value(w)
    })
}

impl RoundStrategy for SparkMlStrategy<'_> {
    fn name(&self) -> &'static str {
        "spark.ml(L-BFGS)"
    }

    fn weights(&self) -> &DenseVector {
        &self.w
    }

    fn into_weights(self) -> DenseVector {
        self.w
    }

    fn objective(&self, _ds: &SparseDataset, _cfg: &TrainConfig) -> f64 {
        self.f
    }

    fn init(
        &mut self,
        ctx: &mut StepCtx,
        backend: &mut dyn ComputeBackend,
        ds: &SparseDataset,
        cfg: &TrainConfig,
    ) {
        // Warm-up gradient at w₀ — costs a superstep but is not an outer
        // iteration.
        distributed_gradient(&self.h, ctx, backend, ds, cfg, &self.w, &mut self.grad);
    }

    fn step(
        &mut self,
        ctx: &mut StepCtx,
        backend: &mut dyn ComputeBackend,
        ds: &SparseDataset,
        cfg: &TrainConfig,
        _round: u64,
    ) -> Option<u64> {
        if self.grad.norm2() <= 1e-8 {
            return None;
        }
        let mut direction = lbfgs_direction(&self.grad, &self.pairs);
        let mut dg = direction.dot(&self.grad);
        if dg >= 0.0 {
            direction = self.grad.clone();
            direction.scale(-1.0);
            dg = -self.grad.norm2_sq();
        }

        // Backtracking line search, each trial a distributed pass.
        let mut step = 1.0;
        let mut accepted = false;
        let mut w_new = self.w.clone();
        let mut f_new = self.f;
        for _ in 0..self.ml.max_line_search {
            w_new = self.w.clone();
            w_new.axpy(step, &direction);
            f_new = distributed_objective(&self.h, ctx, backend, ds, cfg, &w_new);
            if f_new <= self.f + self.ml.c1 * step * dg {
                accepted = true;
                break;
            }
            step *= self.ml.backtrack;
        }
        if !accepted {
            return None;
        }

        let mut grad_new = DenseVector::zeros(ds.num_features());
        distributed_gradient(&self.h, ctx, backend, ds, cfg, &w_new, &mut grad_new);

        let mut s = w_new.clone();
        s.axpy(-1.0, &self.w);
        let mut y = grad_new.clone();
        y.axpy(-1.0, &self.grad);
        if s.dot(&y) > 1e-12 {
            if self.pairs.len() == self.ml.history {
                self.pairs.remove(0);
            }
            self.pairs.push((s, y));
        }

        self.w = w_new;
        self.grad = grad_new;
        self.f = f_new;
        Some(1)
    }

    fn save_state(&self, w: &mut Writer) {
        let pairs = self.pairs.iter().map(|(s, y)| Pair {
            s: s.clone(),
            y: y.clone(),
        });
        let state = LbfgsState {
            w: self.w.clone(),
            grad: self.grad.clone(),
            pairs: pairs.collect(),
            f: self.f,
        };
        lbfgs_state::put(w, &state, ());
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let state = lbfgs_state::get(r)?;
        if state.pairs.len() > self.ml.history {
            return Err(CodecError::Corrupt(format!(
                "checkpoint holds {} correction pairs, history is {}",
                state.pairs.len(),
                self.ml.history
            )));
        }
        let pairs = state.pairs.iter().flat_map(|p| [&p.s, &p.y]);
        for v in [&state.w, &state.grad].into_iter().chain(pairs) {
            check_dim(v, self.w.dim())?;
        }
        self.w = state.w;
        self.grad = state.grad;
        self.pairs = state.pairs.into_iter().map(|p| (p.s, p.y)).collect();
        self.f = state.f;
        Ok(())
    }
}

/// What a `spark.ml` checkpoint carries. L-BFGS holds no RNG of its own
/// (stragglers live in the engine streams): its resumable state is the
/// model, the warm gradient, the `(s, y)` correction history, and the
/// cached objective.
struct LbfgsState {
    w: DenseVector,
    grad: DenseVector,
    pairs: Vec<Pair>,
    f: f64,
}

/// One `(s, y)` correction pair.
struct Pair {
    s: DenseVector,
    y: DenseVector,
}

schema! { record lbfgs_state: LbfgsState { w: dense, grad: dense, pairs: list(pair), f: f64 } }
schema! { record pair: Pair { s: dense, y: dense } }

/// Trains with distributed L-BFGS following `spark.ml`'s plan.
///
/// `cfg.max_rounds` bounds outer iterations; `cfg.lr` and
/// `cfg.batch_frac` are unused (L-BFGS is full-batch with line search).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_sparkml_lbfgs(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
    ml: &SparkMlConfig,
) -> TrainOutput {
    assert!(!ds.is_empty(), "cannot train on an empty dataset");
    let parts = system_partitions(System::SparkMl, ds, cluster, cfg);
    let mut backend = InProcessBackend::new(ds, &parts, cfg);
    let strategy = SparkMlStrategy::new(ds, cluster, cfg, ml, &parts);
    expect_uncheckpointed(run_rounds(ds, cfg, strategy, None, &mut backend))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::{Loss, Regularizer};

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("sparkml-test", 240, 30);
        cfg.margin_noise = 0.05;
        cfg.flip_prob = 0.0;
        cfg.generate()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            loss: Loss::Logistic,
            reg: Regularizer::l2(0.01),
            max_rounds: 25,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn converges_in_few_outer_iterations() {
        let ds = tiny_ds();
        let out = train_sparkml_lbfgs(
            &ds,
            &ClusterSpec::cluster1(),
            &quick_cfg(),
            &SparkMlConfig::default(),
        );
        // The distributed plan must match the sequential optimizer's
        // optimum to within the paper's 0.01 threshold.
        let sequential = mlstar_glm::Lbfgs::new(mlstar_glm::LbfgsConfig {
            loss: Loss::Logistic,
            reg: Regularizer::l2(0.01),
            max_iters: 100,
            ..Default::default()
        })
        .run(ds.num_features(), ds.rows(), ds.labels());
        let last = out.trace.final_objective().unwrap();
        assert!(
            last <= sequential.final_objective + 0.01,
            "distributed {last} vs sequential {}",
            sequential.final_objective
        );
        assert!(out.rounds_run <= 25);
    }

    #[test]
    fn line_search_costs_extra_rounds() {
        // Each outer iteration must record more than one broadcast (the
        // gradient pass plus at least one line-search trial).
        let ds = tiny_ds();
        let out = train_sparkml_lbfgs(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                max_rounds: 3,
                ..quick_cfg()
            },
            &SparkMlConfig::default(),
        );
        let broadcasts = out
            .gantt
            .spans()
            .iter()
            .filter(|s| s.activity == Activity::Broadcast)
            .count() as u64;
        assert!(
            broadcasts >= 2 * out.rounds_run,
            "{broadcasts} broadcasts for {} iterations",
            out.rounds_run
        );
    }

    #[test]
    fn objective_is_monotone_nonincreasing() {
        let ds = tiny_ds();
        let out = train_sparkml_lbfgs(
            &ds,
            &ClusterSpec::cluster1(),
            &quick_cfg(),
            &SparkMlConfig::default(),
        );
        for pair in out.trace.points.windows(2) {
            assert!(pair[1].objective <= pair[0].objective + 1e-12);
        }
    }

    #[test]
    fn deterministic() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 4,
            ..quick_cfg()
        };
        let a = train_sparkml_lbfgs(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &SparkMlConfig::default(),
        );
        let b = train_sparkml_lbfgs(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &SparkMlConfig::default(),
        );
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn hinge_svm_also_trains() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            loss: Loss::Hinge,
            ..quick_cfg()
        };
        let out = train_sparkml_lbfgs(
            &ds,
            &ClusterSpec::cluster1(),
            &cfg,
            &SparkMlConfig::default(),
        );
        assert!(out.trace.final_objective().unwrap() < 0.6);
    }

    #[test]
    fn round_stats_cover_line_search_supersteps() {
        let ds = tiny_ds();
        let out = train_sparkml_lbfgs(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                max_rounds: 3,
                ..quick_cfg()
            },
            &SparkMlConfig::default(),
        );
        assert_eq!(out.round_stats.len() as u64, out.rounds_run);
        for rs in &out.round_stats {
            // Every outer iteration holds ≥ 2 supersteps (≥ 1 trial + the
            // gradient), all folded into one RoundStats entry.
            assert!(rs.bytes.broadcast > 0);
            assert!(rs.bytes.tree_aggregate > 0);
            assert!(
                (rs.phase_sum() - rs.elapsed_s).abs() < 1e-9,
                "phases must tile the iteration: {rs:?}"
            );
        }
    }
}
