//! The one worker-op path: every trainer's per-worker math runs here.
//!
//! A trainer never calls `mlstar-glm` for worker-local work itself. It
//! describes the work as [`WorkerOp`]s and hands them to the
//! [`ComputeBackend`] it was given; everything else (RNG streams,
//! simulated clock, Gantt recording, aggregation order) stays on the
//! calling thread. Two backends exist: [`InProcessBackend`], which
//! [`System::train`] builds over the whole dataset, and `mlstar-net`'s
//! orchestrator, which ships the same ops to worker threads. Both end in
//! [`OpExecutor::execute`] — the single implementation of each op — so
//! the simulated program and the measured program are one program.
//!
//! The contract that keeps every backend bit-identical:
//!
//! * all randomness (epoch orders, batch sampling, straggler draws) is
//!   drawn on the orchestrating thread and shipped as explicit index
//!   lists — a backend never owns an RNG;
//! * each op names an exact sequence of `mlstar-glm` calls and there is
//!   one implementation of it, so the executed float operations are the
//!   same instructions in the same order wherever they run;
//! * `f64` payloads round-trip exactly through little-endian bytes, so a
//!   wire hop cannot perturb a single bit.
//!
//! A backend that cannot complete a batch returns `Err`; [`dispatch`]
//! converts that into an [`ExecAbort`] unwind so the trainer stops
//! mid-round without writing partial state, and [`System::train_on`]
//! catches it at the training boundary.

use std::fmt;

use mlstar_data::{Partitioner, SparseDataset};
use mlstar_glm::{
    batch_gradient_into, mgd_step, objective_value_subset, sgd_epoch_lazy, LearningRate, Loss,
    Regularizer,
};
use mlstar_linalg::{DenseVector, ScaledVector, SparseVector};
use mlstar_sim::{ClusterSpec, SeedStream};

use crate::{System, TrainConfig};

/// One unit of worker-local computation, self-contained up to the
/// worker's assigned partition (row indices are global dataset indices).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerOp {
    /// One local SGD pass (MLlib\*/MLlib+MA):
    /// `ScaledVector::from_dense(w)` → `sgd_epoch_lazy` over `order` →
    /// `into_dense`. Returns [`OpResult::Model`] with the advanced update
    /// counter.
    SgdPass {
        /// Model at the start of the pass.
        w: DenseVector,
        /// Epoch visit order (global row indices, pre-shuffled by the
        /// orchestrator's RNG stream).
        order: Vec<u32>,
        /// Update counter at the start of the pass (learning-rate clock).
        t0: u64,
    },
    /// Parallel SGD over one sampled batch (Petuum, `Ω = 0`): the call
    /// sequence of [`WorkerOp::SgdPass`] over `batch`. Returns
    /// [`OpResult::Model`].
    SgdBatch {
        /// Model at the start of the batch.
        w: DenseVector,
        /// Sampled batch (global row indices, orchestrator-drawn).
        batch: Vec<u32>,
        /// Update counter at the start of the batch.
        t0: u64,
    },
    /// Average loss gradient over the worker's whole partition
    /// (spark.ml). Returns [`OpResult::Grad`] (unscaled; the caller
    /// applies the partition weight).
    PartitionGrad {
        /// Model to differentiate at.
        w: DenseVector,
    },
    /// Average loss gradient over a sampled batch (MLlib SendGradient).
    /// Returns [`OpResult::Grad`].
    BatchGrad {
        /// Model to differentiate at.
        w: DenseVector,
        /// Sampled batch (global row indices).
        batch: Vec<u32>,
    },
    /// One dense mini-batch GD step (Petuum, `Ω ≠ 0`): a single
    /// `mgd_step` at the given step size. Returns [`OpResult::Model`]
    /// (the counter advance for a single step lives with the
    /// orchestrator, which evaluated `η`; `t` is echoed as 0).
    MgdStep {
        /// Model at the start of the step.
        w: DenseVector,
        /// The batch for this step (global row indices).
        batch: Vec<u32>,
        /// Step size `η` (the orchestrator evaluates the schedule).
        eta: f64,
    },
    /// One local epoch of per-batch GD steps (Angel): `mgd_step` per
    /// `batch_size` chunk of `order`, with `η = lr(t)` advancing per
    /// chunk. Returns [`OpResult::Model`] with the advanced counter.
    MgdEpoch {
        /// Model at the start of the epoch.
        w: DenseVector,
        /// Epoch visit order (global row indices).
        order: Vec<u32>,
        /// Rows per GD step.
        batch_size: u32,
        /// Update counter at the start of the epoch.
        t0: u64,
    },
    /// Loss-only objective over the worker's whole partition (spark.ml
    /// line search; the driver adds the regularizer term). Returns
    /// [`OpResult::Value`].
    PartitionObjective {
        /// Model to evaluate at.
        w: DenseVector,
    },
}

impl WorkerOp {
    /// The model every op carries.
    fn model(&self) -> &DenseVector {
        let (WorkerOp::SgdPass { w, .. }
        | WorkerOp::SgdBatch { w, .. }
        | WorkerOp::PartitionGrad { w }
        | WorkerOp::BatchGrad { w, .. }
        | WorkerOp::MgdStep { w, .. }
        | WorkerOp::MgdEpoch { w, .. }
        | WorkerOp::PartitionObjective { w }) = self;
        w
    }
}

/// The result of one [`WorkerOp`], in the same order as submitted.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// A new local model plus the advanced update counter.
    Model {
        /// The worker-local model after the op.
        w: DenseVector,
        /// The update counter after the op.
        t: u64,
    },
    /// A gradient vector.
    Grad(DenseVector),
    /// A scalar (objective value).
    Value(f64),
}

/// Executes batches of worker ops, one entry per `(worker, op)` pair,
/// returning results in submission order.
///
/// `Err` means the batch could not complete (e.g. a worker died); the
/// dispatcher converts it into an [`ExecAbort`] unwind, so implementors
/// should record any richer error state on their own side before
/// returning.
pub trait ComputeBackend {
    /// Runs every op (possibly concurrently across workers) and returns
    /// one result per op, in the order given.
    fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String>;

    /// Host threads this backend spreads one batch over (recorded in
    /// provenance; affects wall-clock only, never results).
    fn host_threads(&self) -> usize {
        1
    }
}

/// The unwind payload raised when a backend fails mid-round;
/// [`System::train_on`] catches it and returns it as the error.
#[derive(Debug)]
pub struct ExecAbort(pub String);

/// Sends one batch of ops to `backend`, pairing each result with the
/// worker it was submitted for.
///
/// # Panics
///
/// Raises [`ExecAbort`] (via `panic_any`) if the backend reports failure
/// — the one panic in this crate that is a control-flow signal. Panics
/// normally if the backend breaks the one-result-per-op contract.
pub(crate) fn dispatch(
    backend: &mut dyn ComputeBackend,
    ops: Vec<(usize, WorkerOp)>,
) -> Vec<(usize, OpResult)> {
    let workers: Vec<usize> = ops.iter().map(|(worker, _)| *worker).collect();
    match backend.run_ops(ops) {
        Ok(results) => {
            assert_eq!(
                results.len(),
                workers.len(),
                "backend contract: exactly one reply per submitted op"
            );
            workers.into_iter().zip(results).collect()
        }
        Err(why) => std::panic::panic_any(ExecAbort(why)),
    }
}

/// [`dispatch`] for a single op.
pub(crate) fn dispatch_one(
    backend: &mut dyn ComputeBackend,
    worker: usize,
    op: WorkerOp,
) -> OpResult {
    match dispatch(backend, vec![(worker, op)]).pop() {
        Some((_, res)) => res,
        None => unreachable!("dispatch returns one result per op"),
    }
}

/// Converts global row indices to the wire-width `u32` form ops carry.
pub(crate) fn to_wire_indices(idx: &[usize]) -> Vec<u32> {
    idx.iter()
        // lint:allow(panic_in_lib): dataset row counts are bounded far
        // below u32::MAX by construction; exceeding the wire width is a bug.
        .map(|&i| u32::try_from(i).expect("row index exceeds wire width"))
        .collect()
}

/// Unwraps an [`OpResult::Model`].
pub(crate) fn expect_model(res: OpResult) -> (DenseVector, u64) {
    match res {
        OpResult::Model { w, t } => (w, t),
        other => panic!("backend returned {other:?}, expected Model"),
    }
}

/// Unwraps an [`OpResult::Grad`].
pub(crate) fn expect_grad(res: OpResult) -> DenseVector {
    match res {
        OpResult::Grad(g) => g,
        other => panic!("backend returned {other:?}, expected Grad"),
    }
}

/// Unwraps an [`OpResult::Value`].
pub(crate) fn expect_value(res: OpResult) -> f64 {
    match res {
        OpResult::Value(v) => v,
        other => panic!("backend returned {other:?}, expected Value"),
    }
}

/// Why [`OpExecutor::execute`] refused an op. Ops may arrive off a wire,
/// so each of these is a checked input error, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The op's model does not have the executor's dimension.
    DimMismatch {
        /// Dimension of the op's model.
        got: usize,
        /// Dimension the executor was built for.
        expected: usize,
    },
    /// The op names a row the host's index resolution does not know.
    RowNotInPartition(u32),
    /// A [`WorkerOp::MgdEpoch`] with `batch_size == 0`.
    ZeroBatchSize,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DimMismatch { got, expected } => {
                write!(f, "op model has dim {got}, assignment said {expected}")
            }
            ExecError::RowNotInPartition(g) => write!(f, "row {g} not in this partition"),
            ExecError::ZeroBatchSize => write!(f, "MgdEpoch batch_size is zero"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The rows one worker holds, as the executor sees them.
#[derive(Debug, Clone, Copy)]
pub struct Shard<'a> {
    /// Row storage that resolved positions index into.
    pub rows: &'a [SparseVector],
    /// One label per row.
    pub labels: &'a [f64],
    /// Positions in `rows` of the worker's whole partition, in partition
    /// order (what the `Partition*` ops run over).
    pub partition: &'a [usize],
}

/// Executes [`WorkerOp`]s against a [`Shard`]: the objective, the
/// learning-rate schedule and the scratch buffers every op reuses. One
/// executor serves one worker thread. Model ops compute in the op's own
/// buffer, so executing an op allocates nothing.
#[derive(Debug, Clone)]
pub struct OpExecutor {
    dim: usize,
    loss: Loss,
    reg: Regularizer,
    lr: LearningRate,
    /// Gradient buffer of `mgd_step`; the gradient ops swap it with the
    /// op's model buffer instead of allocating a result.
    grad_buf: DenseVector,
    /// Resolved row positions of the current op.
    idx: Vec<usize>,
}

impl OpExecutor {
    /// An executor for `dim`-dimensional models under the given objective
    /// and schedule.
    pub fn new(dim: usize, loss: Loss, reg: Regularizer, lr: LearningRate) -> Self {
        OpExecutor {
            dim,
            loss,
            reg,
            lr,
            grad_buf: DenseVector::zeros(dim),
            idx: Vec::new(),
        }
    }

    /// Maps an op's global row indices to positions in the shard through
    /// the host's `resolve`, into the reused index buffer.
    fn resolve(
        &mut self,
        global: &[u32],
        resolve: impl Fn(u32) -> Option<usize>,
    ) -> Result<(), ExecError> {
        self.idx.clear();
        for &g in global {
            self.idx
                .push(resolve(g).ok_or(ExecError::RowNotInPartition(g))?);
        }
        Ok(())
    }

    /// Runs one op. `resolve` maps a global row index to its position in
    /// `shard.rows` (`None` for a row the worker does not hold).
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] for an op that does not fit this executor
    /// or shard; nothing has been computed in that case.
    pub fn execute(
        &mut self,
        shard: &Shard<'_>,
        resolve: impl Fn(u32) -> Option<usize>,
        op: WorkerOp,
    ) -> Result<OpResult, ExecError> {
        let Shard {
            rows,
            labels,
            partition,
        } = *shard;
        let w = op.model();
        if w.dim() != self.dim {
            return Err(ExecError::DimMismatch {
                got: w.dim(),
                expected: self.dim,
            });
        }
        match op {
            WorkerOp::SgdPass {
                w,
                order: visit,
                t0,
            }
            | WorkerOp::SgdBatch {
                w,
                batch: visit,
                t0,
            } => {
                self.resolve(&visit, resolve)?;
                let mut local = ScaledVector::from_dense(w);
                let t = sgd_epoch_lazy(
                    self.loss, self.reg, &mut local, rows, labels, &self.idx, self.lr, t0,
                );
                Ok(OpResult::Model {
                    w: local.into_dense(),
                    t,
                })
            }
            WorkerOp::PartitionGrad { mut w } => {
                batch_gradient_into(self.loss, &w, rows, labels, partition, &mut self.grad_buf);
                std::mem::swap(&mut w, &mut self.grad_buf);
                Ok(OpResult::Grad(w))
            }
            WorkerOp::BatchGrad { mut w, batch } => {
                self.resolve(&batch, resolve)?;
                batch_gradient_into(self.loss, &w, rows, labels, &self.idx, &mut self.grad_buf);
                std::mem::swap(&mut w, &mut self.grad_buf);
                Ok(OpResult::Grad(w))
            }
            WorkerOp::MgdStep { mut w, batch, eta } => {
                self.resolve(&batch, resolve)?;
                mgd_step(
                    self.loss,
                    self.reg,
                    &mut w,
                    rows,
                    labels,
                    &self.idx,
                    eta,
                    &mut self.grad_buf,
                );
                Ok(OpResult::Model { w, t: 0 })
            }
            WorkerOp::MgdEpoch {
                mut w,
                order,
                batch_size,
                t0,
            } => {
                if batch_size == 0 {
                    return Err(ExecError::ZeroBatchSize);
                }
                self.resolve(&order, resolve)?;
                let mut t = t0;
                for chunk in self.idx.chunks(batch_size as usize) {
                    mgd_step(
                        self.loss,
                        self.reg,
                        &mut w,
                        rows,
                        labels,
                        chunk,
                        self.lr.eta(t),
                        &mut self.grad_buf,
                    );
                    t += 1;
                }
                Ok(OpResult::Model { w, t })
            }
            WorkerOp::PartitionObjective { w } => Ok(OpResult::Value(objective_value_subset(
                self.loss,
                Regularizer::None,
                &w,
                rows,
                labels,
                partition,
            ))),
        }
    }
}

/// Host threads for the in-process backend (`MLSTAR_HOST_THREADS`,
/// default 1 = serial; purely a host-performance knob, invisible to the
/// simulation).
fn host_threads() -> usize {
    // lint:allow(determinism_taint): thread count only changes wall-clock speed; results are joined in submission order, so they are bit-identical at any setting
    std::env::var("MLSTAR_HOST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// The backend of a simulated run: executes ops on the calling process
/// against the whole dataset, resolving global row indices to themselves.
///
/// The ops of one batch are independent (each carries its own model
/// buffer and index list), so with `MLSTAR_HOST_THREADS=N` they are
/// spread over `N` scoped threads in contiguous chunks and joined in
/// submission order — no result can depend on the thread count.
#[derive(Debug)]
pub struct InProcessBackend<'a> {
    ds: &'a SparseDataset,
    parts: &'a [Vec<usize>],
    /// `MLSTAR_HOST_THREADS`, read once here: re-reading the environment
    /// per batch would let a mid-run change alter the execution plan.
    threads: usize,
    /// One scratch set per thread that can ever be busy.
    executors: Vec<OpExecutor>,
}

impl<'a> InProcessBackend<'a> {
    /// A backend over `ds` whose worker `r` holds the rows `parts[r]`
    /// (see [`system_partitions`]), training `cfg`'s objective.
    pub fn new(ds: &'a SparseDataset, parts: &'a [Vec<usize>], cfg: &TrainConfig) -> Self {
        Self::with_threads(ds, parts, cfg, host_threads())
    }

    fn with_threads(
        ds: &'a SparseDataset,
        parts: &'a [Vec<usize>],
        cfg: &TrainConfig,
        threads: usize,
    ) -> Self {
        let executor = OpExecutor::new(ds.num_features(), cfg.loss, cfg.reg, cfg.lr);
        InProcessBackend {
            ds,
            parts,
            threads,
            executors: vec![executor; threads.clamp(1, parts.len().max(1))],
        }
    }
}

impl ComputeBackend for InProcessBackend<'_> {
    fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
        let (ds, parts) = (self.ds, self.parts);
        let run = move |exec: &mut OpExecutor, (worker, op): (usize, WorkerOp)| {
            let shard = Shard {
                rows: ds.rows(),
                labels: ds.labels(),
                partition: &parts[worker],
            };
            let in_range = |g: u32| Some(g as usize).filter(|&i| i < shard.rows.len());
            exec.execute(&shard, in_range, op)
                .map_err(|e| format!("worker {worker}: {e}"))
        };

        let threads = self.executors.len().min(ops.len());
        if threads <= 1 {
            let exec = &mut self.executors[0];
            return ops.into_iter().map(|op| run(exec, op)).collect();
        }

        // Contiguous chunks, one scoped thread each, joined in spawn
        // order: the concatenation is the submission order.
        let chunk = ops.len().div_ceil(threads);
        let mut ops = ops.into_iter();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .executors
                .iter_mut()
                .map_while(|exec| {
                    let mine: Vec<_> = ops.by_ref().take(chunk).collect();
                    (!mine.is_empty()).then(|| {
                        scope.spawn(move || {
                            mine.into_iter()
                                .map(|op| run(exec, op))
                                .collect::<Result<Vec<_>, _>>()
                        })
                    })
                })
                .collect();
            let mut results = Vec::new();
            for handle in handles {
                match handle.join() {
                    Ok(part) => results.extend(part?),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            Ok(results)
        })
    }

    fn host_threads(&self) -> usize {
        self.threads
    }
}

/// The exact row partition `system` assigns to each of the cluster's
/// executors — the one definition every trainer and every backend host
/// (which must ship worker `r` exactly these rows) takes it from.
pub fn system_partitions(
    system: System,
    ds: &SparseDataset,
    cluster: &ClusterSpec,
    cfg: &TrainConfig,
) -> Vec<Vec<usize>> {
    let k = cluster.num_executors();
    let part_seed = SeedStream::new(cfg.seed).child("partition").seed();
    // Rows are randomly shuffled across executors (the paper's footnote:
    // data "need to be randomly shuffled and distributed across the
    // workers"). Only MLlib+MA and MLlib* honor the hot-worker skew
    // ablation, which gives worker 0 that fraction of the rows.
    let skew = match system {
        System::MllibMa | System::MllibStar => cfg.partition_skew,
        System::Mllib | System::SparkMl | System::Petuum | System::PetuumStar | System::Angel => {
            None
        }
    };
    let partitioner = match skew {
        Some(hot_fraction) => Partitioner::SkewedShuffled {
            seed: part_seed,
            hot_fraction,
        },
        None => Partitioner::Shuffled { seed: part_seed },
    };
    partitioner.partition(ds.len(), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;

    struct Failing;
    impl ComputeBackend for Failing {
        fn run_ops(&mut self, _ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
            Err("worker 1 lost".into())
        }
    }

    #[test]
    fn failed_dispatch_raises_exec_abort() {
        let caught = std::panic::catch_unwind(|| {
            dispatch_one(
                &mut Failing,
                0,
                WorkerOp::PartitionObjective {
                    w: DenseVector::zeros(2),
                },
            );
        });
        let payload = caught.expect_err("dispatch must unwind");
        let abort = payload
            .downcast::<ExecAbort>()
            .expect("payload must be ExecAbort");
        assert_eq!(abort.0, "worker 1 lost");
    }

    #[test]
    fn partitions_cover_every_row_once() {
        let ds = SyntheticConfig::small("exec-parts", 60, 8).generate();
        let cluster = ClusterSpec::cluster1();
        let cfg = TrainConfig::default();
        for system in System::ALL {
            let parts = system_partitions(system, &ds, &cluster, &cfg);
            assert_eq!(parts.len(), 8);
            let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..60).collect::<Vec<_>>(), "{system:?}");
        }
    }

    #[test]
    fn partitions_are_seed_deterministic() {
        let ds = SyntheticConfig::small("exec-seed", 50, 10).generate();
        let cluster = ClusterSpec::cluster1();
        let at = |seed| {
            let cfg = TrainConfig {
                seed,
                ..TrainConfig::default()
            };
            system_partitions(System::Mllib, &ds, &cluster, &cfg)
        };
        assert_eq!(at(9), at(9));
        assert_ne!(at(9), at(10));
    }

    fn setup(k: usize) -> (SparseDataset, Vec<Vec<usize>>, TrainConfig) {
        let ds = SyntheticConfig::small("exec-ops", 160, 24).generate();
        let parts = Partitioner::Shuffled { seed: 3 }.partition(ds.len(), k);
        let cfg = TrainConfig {
            loss: Loss::Hinge,
            reg: Regularizer::l2(0.01),
            lr: LearningRate::Constant(0.05),
            ..TrainConfig::default()
        };
        (ds, parts, cfg)
    }

    /// One op of every kind per worker, each over that worker's own rows.
    fn mixed_batch(ds: &SparseDataset, parts: &[Vec<usize>]) -> Vec<(usize, WorkerOp)> {
        let w = DenseVector::filled(ds.num_features(), 0.25);
        let mut ops = Vec::new();
        for (r, part) in parts.iter().enumerate() {
            let rows = to_wire_indices(part);
            let half = rows[..rows.len() / 2].to_vec();
            let t0 = 10 * r as u64;
            ops.extend(
                [
                    WorkerOp::SgdPass {
                        w: w.clone(),
                        order: rows.clone(),
                        t0,
                    },
                    WorkerOp::SgdBatch {
                        w: w.clone(),
                        batch: half.clone(),
                        t0,
                    },
                    WorkerOp::PartitionGrad { w: w.clone() },
                    WorkerOp::BatchGrad {
                        w: w.clone(),
                        batch: half.clone(),
                    },
                    WorkerOp::MgdStep {
                        w: w.clone(),
                        batch: half,
                        eta: 0.125,
                    },
                    WorkerOp::MgdEpoch {
                        w: w.clone(),
                        order: rows,
                        batch_size: 4,
                        t0,
                    },
                    WorkerOp::PartitionObjective { w: w.clone() },
                ]
                .map(|op| (r, op)),
            );
        }
        ops
    }

    #[test]
    fn threaded_mixed_batch_matches_serial_exactly() {
        let k = 6;
        let (ds, parts, cfg) = setup(k);
        let ops = mixed_batch(&ds, &parts);
        let run = |threads| {
            InProcessBackend::with_threads(&ds, &parts, &cfg, threads)
                .run_ops(ops.clone())
                .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial.len(), 7 * k);
        // Every op did real work: no result equals its input model.
        for (res, (_, op)) in serial.iter().zip(&ops) {
            if let (OpResult::Model { w, .. }, WorkerOp::SgdPass { w: w0, .. }) = (res, op) {
                assert_ne!(w, w0);
            }
        }
        for threads in [3, k, 16] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn threaded_failure_reports_the_first_failing_op() {
        let (ds, parts, cfg) = setup(4);
        let mut ops = mixed_batch(&ds, &parts);
        ops[9] = (
            1,
            WorkerOp::BatchGrad {
                w: DenseVector::zeros(ds.num_features()),
                batch: vec![u32::MAX],
            },
        );
        for threads in [1, 3] {
            let err = InProcessBackend::with_threads(&ds, &parts, &cfg, threads)
                .run_ops(ops.clone())
                .unwrap_err();
            assert!(err.contains("not in this partition"), "{err}");
        }
    }

    #[test]
    fn executor_rejects_ops_that_do_not_fit() {
        let (ds, parts, cfg) = setup(2);
        let mut exec = OpExecutor::new(ds.num_features(), cfg.loss, cfg.reg, cfg.lr);
        let shard = Shard {
            rows: ds.rows(),
            labels: ds.labels(),
            partition: &parts[0],
        };
        let none = |_| None;
        let w = DenseVector::zeros(ds.num_features());
        assert_eq!(
            exec.execute(
                &shard,
                none,
                WorkerOp::PartitionGrad {
                    w: DenseVector::zeros(3)
                }
            ),
            Err(ExecError::DimMismatch {
                got: 3,
                expected: ds.num_features()
            })
        );
        assert_eq!(
            exec.execute(
                &shard,
                none,
                WorkerOp::SgdPass {
                    w: w.clone(),
                    order: vec![7],
                    t0: 0
                }
            ),
            Err(ExecError::RowNotInPartition(7))
        );
        assert_eq!(
            exec.execute(
                &shard,
                none,
                WorkerOp::MgdEpoch {
                    w,
                    order: vec![],
                    batch_size: 0,
                    t0: 0
                }
            ),
            Err(ExecError::ZeroBatchSize)
        );
    }

    #[test]
    fn env_knob_defaults_to_serial() {
        std::env::remove_var("MLSTAR_HOST_THREADS");
        assert_eq!(host_threads(), 1);
    }
}
