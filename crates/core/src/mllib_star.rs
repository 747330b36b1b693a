//! MLlib\*: model averaging **plus** AllReduce — the paper's contribution
//! (Algorithm 3, Figures 2b and 3c).
//!
//! Per communication step:
//!
//! 1. every executor runs a full local SGD pass over its partition
//!    (`UpdateModel` in Algorithm 3),
//! 2. `Reduce-Scatter`: each executor sends the model partitions it does
//!    not own to their owners and averages the copies of the partition it
//!    does own,
//! 3. `AllGather`: each owner broadcasts its averaged partition; every
//!    executor reassembles the full global model.
//!
//! No driver on the critical path; same `≈ 2km` traffic as the
//! driver-centric pattern but without NIC serialization.

use mlstar_codec::{schema, CodecError, Reader, Writer};
use mlstar_collectives::CompressionConfig;
use mlstar_data::SparseDataset;
use mlstar_linalg::DenseVector;
use mlstar_sim::{pass_flops, ClusterSpec};

use crate::checkpoint::{check_dim, dense};
use crate::common::{pass_state, BspHarness, LocalPasses, PassState};
use crate::engine::{RoundStrategy, StepCtx};
use crate::exec::ComputeBackend;
use crate::{System, TrainConfig, TrainOutput};

/// The MLlib\* round: local SGD pass, then AllReduce (Reduce-Scatter +
/// AllGather) with no driver on the critical path.
pub(crate) struct MllibStarStrategy<'a> {
    h: BspHarness<'a>,
    passes: LocalPasses,
    /// Every executor holds an identical copy of the global model; we
    /// track one copy (they are bit-identical by construction).
    w: DenseVector,
    /// Compressed-collective policy (captured from the config; the
    /// default is the legacy dense path).
    comm: CompressionConfig,
    /// Per-worker error-feedback accumulators for the compressed
    /// collective — part of the training state, so checkpointed.
    residuals: Vec<DenseVector>,
}

impl<'a> MllibStarStrategy<'a> {
    pub(crate) fn new(
        ds: &SparseDataset,
        cluster: &ClusterSpec,
        cfg: &TrainConfig,
        parts: &'a [Vec<usize>],
    ) -> Self {
        let h = BspHarness::new(ds, cluster, parts);
        let dim = ds.num_features();
        MllibStarStrategy {
            passes: LocalPasses::new(h.k(), dim, cfg.seed),
            h,
            w: DenseVector::zeros(dim),
            comm: cfg.compression,
            residuals: Vec::new(),
        }
    }
}

impl RoundStrategy for MllibStarStrategy<'_> {
    fn name(&self) -> &'static str {
        "MLlib*"
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
        let MllibStarStrategy {
            h,
            passes,
            w,
            comm,
            residuals,
        } = self;
        // Note: executors only — there is no driver in this pattern.
        let updates = ctx.round(&h.exec_nodes, |rd| {
            // (1) Local SGD pass (UpdateModel).
            let updates = passes.run(rd, backend, h, ds, cfg, w);
            rd.rb.barrier();
            rd.inject_failure(h, cfg, |r| pass_flops(h.part_nnz[r]));

            // (2) + (3) Reduce-Scatter then AllGather — or, with
            // compression enabled, one all-to-all exchange of
            // sparse/quantized frames with error feedback. The dense
            // branch is untouched, keeping the default bit-identical to
            // the golden traces.
            *w = if comm.enabled() {
                rd.compressed_all_reduce_average(&h.cost, &passes.locals, comm, residuals)
            } else {
                rd.all_reduce_average(&h.cost, &passes.locals)
            };
            updates
        });
        Some(updates)
    }

    fn save_state(&self, w: &mut Writer) {
        let state = StarState {
            w: self.w.clone(),
            passes: self.passes.state(),
            residuals: self.residuals.clone(),
        };
        star_state::put(w, &state, ());
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let state = star_state::get(r)?;
        let dim = self.w.dim();
        check_dim(&state.w, dim)?;
        let res_count = state.residuals.len();
        if res_count != 0 && res_count != self.h.k() {
            return Err(CodecError::Corrupt(format!(
                "checkpoint has {res_count} error-feedback residuals, run has {} workers",
                self.h.k()
            )));
        }
        for res in &state.residuals {
            check_dim(res, dim)?;
        }
        self.w = state.w;
        self.residuals = state.residuals;
        self.passes.restore(state.passes)
    }
}

/// What an MLlib\* checkpoint carries: the model, the local-pass streams
/// and counters, then the error-feedback residuals — they carry un-shipped
/// gradient mass across rounds, so a restore without them would change
/// the math.
struct StarState {
    w: DenseVector,
    passes: PassState,
    residuals: Vec<DenseVector>,
}

schema! { record star_state: StarState { w: dense, passes: pass_state, residuals: list(dense) } }

/// Trains with MLlib\* (model averaging + AllReduce).
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn train_mllib_star(
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
) -> TrainOutput {
    System::MllibStar.train_default(ds, cluster, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_mllib_ma;
    use mlstar_data::SyntheticConfig;
    use mlstar_glm::{LearningRate, Loss, Regularizer};
    use mlstar_sim::{Activity, NodeId};

    fn tiny_ds() -> SparseDataset {
        let mut cfg = SyntheticConfig::small("star-test", 240, 30);
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
    fn converges() {
        let ds = tiny_ds();
        let out = train_mllib_star(&ds, &ClusterSpec::cluster1(), &quick_cfg());
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(best < first * 0.5, "{first} → {best}");
    }

    #[test]
    fn driver_never_works() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..quick_cfg()
        };
        let out = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(out.gantt.busy_time(NodeId::Driver), 0.0);
        let acts: Vec<Activity> = out.gantt.spans().iter().map(|s| s.activity).collect();
        assert!(acts.contains(&Activity::ReduceScatter));
        assert!(acts.contains(&Activity::AllGather));
        assert!(!acts.contains(&Activity::Broadcast));
        assert!(!acts.contains(&Activity::TreeAggregate));
    }

    #[test]
    fn same_step_curve_as_mllib_ma_but_faster_clock() {
        // AllReduce does not change the number of communication steps
        // (identical math/per-step updates to MLlib+MA given the same
        // seeds) but each step takes less simulated time.
        let ds = tiny_ds();
        // Few rounds and a loose-ish tolerance: the two systems sum the
        // same local models in different orders (tree vs. slice-wise), and
        // hinge SGD amplifies ulp-level differences over long horizons.
        let cfg = TrainConfig {
            max_rounds: 3,
            ..quick_cfg()
        };
        let star = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        let ma = train_mllib_ma(&ds, &ClusterSpec::cluster1(), &cfg);
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
    fn executors_stay_busy() {
        // The Figure 3c observation: utilization is high without driver
        // stalls.
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 5,
            ..quick_cfg()
        };
        let out = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        for r in 0..8 {
            let u = out.gantt.utilization(NodeId::Executor(r));
            assert!(u > 0.5, "executor {r} utilization {u}");
        }
    }

    #[test]
    fn l2_lazy_updates_work() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            reg: Regularizer::L2 { lambda: 0.1 },
            ..quick_cfg()
        };
        let out = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
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
        let a = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        let b = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn failure_injection_slows_the_clock_but_not_the_math() {
        let ds = tiny_ds();
        let base = TrainConfig {
            max_rounds: 6,
            ..quick_cfg()
        };
        let clean = train_mllib_star(&ds, &ClusterSpec::cluster1(), &base);
        let faulty = train_mllib_star(
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
    fn round_stats_split_allreduce_bytes() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..quick_cfg()
        };
        let out = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
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
                switch: mlstar_collectives::FrameSwitch::Adaptive,
                ..CompressionConfig::default()
            },
            ..base
        }
    }

    #[test]
    fn lossless_compression_is_bit_identical_to_the_dense_path() {
        // With the Exact sparsifier and no quantization, the compressed
        // all-to-all folds the same values in the same worker order as
        // Reduce-Scatter + AllGather, so the entire run must match
        // bit-for-bit — only the byte accounting may differ.
        let ds = tiny_ds();
        let cfg = TrainConfig {
            reg: Regularizer::L1 { lambda: 0.01 },
            max_rounds: 6,
            ..quick_cfg()
        };
        let dense = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        let compressed = train_mllib_star(&ds, &ClusterSpec::cluster1(), &compressed_cfg(cfg));
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
        let a: Vec<u64> = dense
            .model
            .weights()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u64> = compressed
            .model
            .weights()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(
            a, b,
            "model must be bit-identical under lossless compression"
        );
        assert_eq!(dense.total_updates, compressed.total_updates);
    }

    #[test]
    fn compression_books_actual_bytes_to_all_gather() {
        let ds = tiny_ds();
        let cfg = compressed_cfg(TrainConfig {
            max_rounds: 3,
            ..quick_cfg()
        });
        let out = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        for rs in &out.round_stats {
            assert_eq!(
                rs.bytes.reduce_scatter, 0,
                "the compressed exchange has no Reduce-Scatter phase"
            );
            assert!(rs.bytes.all_gather > 0);
        }
    }

    #[test]
    fn lossy_compression_with_feedback_still_converges() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 15,
            compression: CompressionConfig {
                switch: mlstar_collectives::FrameSwitch::Adaptive,
                sparsifier: mlstar_collectives::Sparsifier::TopK { k: 8 },
                quantize: true,
                error_feedback: true,
            },
            ..quick_cfg()
        };
        let out = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        let first = out.trace.points.first().unwrap().objective;
        let best = out.trace.best_objective().unwrap();
        assert!(
            best < first * 0.6,
            "error feedback should preserve convergence: {first} → {best}"
        );
    }

    #[test]
    fn compressed_runs_are_deterministic() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 5,
            compression: CompressionConfig {
                switch: mlstar_collectives::FrameSwitch::Adaptive,
                sparsifier: mlstar_collectives::Sparsifier::Threshold { tau: 1e-3 },
                quantize: true,
                error_feedback: true,
            },
            ..quick_cfg()
        };
        let a = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        let b = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.model.weights().as_slice(), b.model.weights().as_slice());
    }

    #[test]
    fn checkpoint_roundtrips_error_feedback_residuals() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 4,
            compression: CompressionConfig {
                switch: mlstar_collectives::FrameSwitch::Adaptive,
                sparsifier: mlstar_collectives::Sparsifier::TopK { k: 4 },
                quantize: false,
                error_feedback: true,
            },
            ..quick_cfg()
        };
        let cluster = ClusterSpec::cluster1();
        let parts = crate::system_partitions(System::MllibStar, &ds, &cluster, &cfg);
        let mut backend = crate::InProcessBackend::new(&ds, &parts, &cfg);
        let mut strat = MllibStarStrategy::new(&ds, &cluster, &cfg, &parts);
        let mut ctx = crate::engine::StepCtx::new(cfg.seed);
        strat.step(&mut ctx, &mut backend, &ds, &cfg, 0);
        strat.step(&mut ctx, &mut backend, &ds, &cfg, 1);
        assert!(
            strat.residuals.iter().any(|r| r.norm1() > 0.0),
            "top-k should leave residual mass behind"
        );

        let mut w = Writer::new();
        strat.save_state(&mut w);
        let saved = w.into_payload();

        let mut fresh = MllibStarStrategy::new(&ds, &cluster, &cfg, &parts);
        let mut r = Reader::new(&saved);
        fresh.restore_state(&mut r).unwrap();
        assert_eq!(fresh.residuals.len(), strat.residuals.len());
        for (a, b) in fresh.residuals.iter().zip(strat.residuals.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(fresh.w.as_slice(), strat.w.as_slice());
    }

    #[test]
    fn weighted_averaging_equals_uniform_on_balanced_partitions() {
        let ds = tiny_ds();
        let cfg = TrainConfig {
            max_rounds: 3,
            ..quick_cfg()
        };
        let uniform = train_mllib_star(&ds, &ClusterSpec::cluster1(), &cfg);
        let weighted = train_mllib_star(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                ma_weighting: crate::MaWeighting::PartitionSize,
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
    fn weighted_averaging_beats_uniform_on_skewed_partitions() {
        // With worker 0 owning 60% of the data, uniform averaging
        // over-weights the 7 small partitions' models; size-weighting
        // restores the correct estimator.
        let ds = tiny_ds();
        let base = TrainConfig {
            max_rounds: 10,
            partition_skew: Some(0.6),
            ..quick_cfg()
        };
        let uniform = train_mllib_star(&ds, &ClusterSpec::cluster1(), &base);
        let weighted = train_mllib_star(
            &ds,
            &ClusterSpec::cluster1(),
            &TrainConfig {
                ma_weighting: crate::MaWeighting::PartitionSize,
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
