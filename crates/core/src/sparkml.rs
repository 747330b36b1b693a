//! `spark.ml`-style distributed L-BFGS — the paper's future-work system.
//!
//! The paper's conclusion: "Spark recently introduced `spark.ml`, its
//! second-generation machine learning library that implements L-BFGS...
//! An interesting question is whether the techniques we have developed
//! for speeding up MLlib could also be used for improving `spark.ml`."
//!
//! L-BFGS is the third update of the BSP round (`crate::bsp`), whose
//! `treeAggregate` sums **full-partition** gradients. This module holds the
//! update's own parts: the optimizer state, its checkpoint schema, and the
//! Armijo line search at the driver, where **every trial costs one more
//! broadcast + distributed objective evaluation** — which is why L-BFGS
//! iterations are expensive in Spark.

use mlstar_codec::{schema, CodecError, Reader, Writer};
use mlstar_exec::WorkerOp;
use mlstar_glm::lbfgs_direction;
use mlstar_linalg::DenseVector;
use mlstar_sim::{pass_flops, Activity, NodeId};

use crate::checkpoint::{check_dim, dense};
use crate::common::{eval_objective, BspHarness};
use crate::engine::{BspRound, StepCtx};
use crate::exec::{dispatch, expect_grad, expect_value, ComputeBackend};
use crate::TrainConfig;

/// Number of `(s, y)` correction pairs kept (spark.ml's default).
const HISTORY: usize = 10;
/// Armijo sufficient-decrease constant.
const C1: f64 = 1e-4;
/// Backtracking shrink factor.
const BACKTRACK: f64 = 0.5;
/// Line-search trials per iteration (each costs a distributed pass).
const MAX_LINE_SEARCH: u32 = 12;

/// The L-BFGS update: the full gradient at the model, the `(s, y)`
/// history, the cached objective, and the workers' gradient buffers.
pub(crate) struct Lbfgs {
    /// Each worker's weighted partition gradient: scratch, not checkpointed.
    pub partials: Vec<DenseVector>,
    grad: DenseVector,
    pairs: Vec<(DenseVector, DenseVector)>,
    /// Objective at the model, paid for by the line search.
    pub f: f64,
    /// `s = w_new − w` of the accepted trial, until the round's gradient
    /// at `w_new` completes the pair; empty at every round boundary.
    step: Option<DenseVector>,
}

impl Lbfgs {
    pub fn new(h: &BspHarness<'_>) -> Self {
        let w = DenseVector::zeros(h.ds.num_features());
        Lbfgs {
            partials: vec![w.clone(); h.k()],
            f: eval_objective(h.ds, h.cfg.loss, h.cfg.reg, &w),
            grad: w,
            pairs: Vec::new(),
            step: None,
        }
    }

    /// The local phase: every worker's full-partition gradient at `w`,
    /// weighted by `|part|/n` so their sum is the dataset-average gradient;
    /// one task per executor, whatever `waves` says.
    pub fn run(
        &mut self,
        rd: &mut BspRound<'_, '_>,
        backend: &mut dyn ComputeBackend,
        h: &BspHarness<'_>,
        w: &DenseVector,
    ) {
        let mut ops = Vec::with_capacity(h.k());
        for (r, part) in h.parts.iter().enumerate() {
            if part.is_empty() {
                self.partials[r].clear();
                continue;
            }
            let mut model = std::mem::take(&mut self.partials[r]);
            model.copy_from(w);
            ops.push((r, WorkerOp::PartitionGrad { w: model }));
            rd.task(h, r, pass_flops(h.part_nnz[r]), 1);
        }
        for (r, res) in dispatch(backend, ops) {
            self.partials[r] = expect_grad(res);
            self.partials[r].scale(h.parts[r].len() as f64 / h.ds.len() as f64);
        }
    }

    /// The driver's half of an outer iteration, before its round: the
    /// L-BFGS direction and a backtracking line search, each trial one
    /// superstep. On acceptance `w` becomes the trial; `None` (a vanished
    /// gradient, or no trial with sufficient decrease) stops training.
    pub fn line_search(
        &mut self,
        ctx: &mut StepCtx,
        backend: &mut dyn ComputeBackend,
        h: &BspHarness<'_>,
        w: &mut DenseVector,
    ) -> Option<()> {
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
        let mut step = 1.0;
        for _ in 0..MAX_LINE_SEARCH {
            let mut trial = w.clone();
            trial.axpy(step, &direction);
            let f = distributed_objective(h, ctx, backend, &trial);
            if f <= self.f + C1 * step * dg {
                let mut s = trial.clone();
                s.axpy(-1.0, w);
                self.step = Some(s);
                *w = trial;
                self.f = f;
                return Some(());
            }
            step *= BACKTRACK;
        }
        None
    }

    /// The finish at the driver: `∇Ω` joins the aggregated gradient, and
    /// the accepted step and the gradient change become a correction pair
    /// (the warm-up gradient has no step to pair).
    pub fn finish(&mut self, w: &DenseVector, mut grad: DenseVector, cfg: &TrainConfig) {
        cfg.reg.add_gradient(w, &mut grad);
        if let Some(s) = self.step.take() {
            let mut y = grad.clone();
            y.axpy(-1.0, &self.grad);
            if s.dot(&y) > 1e-12 {
                if self.pairs.len() == HISTORY {
                    self.pairs.remove(0);
                }
                self.pairs.push((s, y));
            }
        }
        self.grad = grad;
    }

    /// Writes one `lbfgs_state` record: the model `w`, the gradient, the
    /// history and the cached objective.
    pub fn save(&self, w: &DenseVector, out: &mut Writer) {
        let pairs = self.pairs.iter().map(|(s, y)| Pair {
            s: s.clone(),
            y: y.clone(),
        });
        let state = LbfgsState {
            w: w.clone(),
            grad: self.grad.clone(),
            pairs: pairs.collect(),
            f: self.f,
        };
        lbfgs_state::put(out, &state, ());
    }

    /// Restores what [`Lbfgs::save`] wrote and returns its model, refusing
    /// a history longer than [`HISTORY`] or a vector whose dimension is
    /// not `dim`.
    pub fn restore(&mut self, r: &mut Reader<'_>, dim: usize) -> Result<DenseVector, CodecError> {
        let state = lbfgs_state::get(r)?;
        if state.pairs.len() > HISTORY {
            return Err(CodecError::Corrupt(format!(
                "checkpoint holds {} correction pairs, history is {HISTORY}",
                state.pairs.len()
            )));
        }
        let pairs = state.pairs.iter().flat_map(|p| [&p.s, &p.y]);
        for v in [&state.w, &state.grad].into_iter().chain(pairs) {
            check_dim(v, dim)?;
        }
        self.grad = state.grad;
        self.pairs = state.pairs.into_iter().map(|p| (p.s, p.y)).collect();
        self.f = state.f;
        Ok(state.w)
    }
}

/// One distributed objective evaluation (line-search trial): broadcast
/// the trial model, compute local losses, gather scalars at the driver.
fn distributed_objective(
    h: &BspHarness<'_>,
    ctx: &mut StepCtx,
    backend: &mut dyn ComputeBackend,
    w: &DenseVector,
) -> f64 {
    let (k, ds) = (h.k(), h.ds);
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
            rd.task(h, r, pass_flops(h.part_nnz[r]) / 2.0, 1);
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
        weighted + h.cfg.reg.value(w)
    })
}

/// What a `spark.ml` checkpoint carries; L-BFGS draws from no RNG of its
/// own.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::System;
    use mlstar_data::{SparseDataset, SyntheticConfig};
    use mlstar_glm::{Loss, Regularizer};
    use mlstar_sim::ClusterSpec;

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
        let out = System::SparkMl.train_default(&ds, &ClusterSpec::cluster1(), &quick_cfg());
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
        let out = System::SparkMl.train_default(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                max_rounds: 3,
                ..quick_cfg()
            },
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
        let out = System::SparkMl.train_default(&ds, &ClusterSpec::cluster1(), &quick_cfg());
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
        let a = System::SparkMl.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        let b = System::SparkMl.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn hinge_svm_also_trains() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            loss: Loss::Hinge,
            ..quick_cfg()
        };
        let out = System::SparkMl.train_default(&ds, &ClusterSpec::cluster1(), &cfg);
        assert!(out.trace.final_objective().unwrap() < 0.6);
    }

    #[test]
    fn round_stats_cover_line_search_supersteps() {
        let ds = tiny_ds();
        let out = System::SparkMl.train_default(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                max_rounds: 3,
                ..quick_cfg()
            },
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
