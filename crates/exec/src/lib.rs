//! The worker-op executor: every trainer's per-worker math runs here.
//!
//! A trainer in `mlstar-core` describes worker-local work as
//! [`WorkerOp`]s; whichever backend runs them — the in-process backend
//! of a simulated run or a `mlstar-net` worker thread — ends in
//! [`OpExecutor::execute`], the single implementation of each op, so the
//! simulated program and the measured program are one program.
//!
//! The executor never draws a random number: epoch orders, batch samples
//! and straggler draws are made on the orchestrating thread and arrive
//! here as explicit row indices. The crate graph enforces that. This
//! crate depends only on `mlstar-glm` and `mlstar-linalg`, so it cannot
//! name `SeedStream` or `rand` at all.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

use std::fmt;

use mlstar_glm::{
    batch_gradient_into, mgd_delta, mgd_step, objective_value_subset, sgd_epoch_lazy_with, LazyL1,
    LearningRate, Loss, Regularizer,
};
use mlstar_linalg::{DenseVector, ScaledVector, SparseVector};

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
    /// One dense mini-batch GD step (Petuum, `Ω ≠ 0`) that returns the
    /// step, not the stepped model: a single `mgd_delta` at the given step
    /// size. Returns [`OpResult::Grad`] holding `(w − η·(g + ∇Ω(w))) − w`,
    /// bit for bit what `mgd_step` on `w` minus `w` gives; `w` itself is
    /// only read. The orchestrator evaluated `η`, so the update counter
    /// stays with it. An empty `batch` is refused.
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
    /// Petuum\*'s single GD step is this op with one chunk.
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
    /// A gradient, GD-step or objective op over no rows: a
    /// [`WorkerOp::BatchGrad`] or [`WorkerOp::MgdStep`] with an empty
    /// `batch`, or a `Partition*` op on a shard with an empty partition.
    /// (A [`WorkerOp::MgdEpoch`] over no rows takes no step and is not
    /// an error.)
    EmptyBatch,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DimMismatch { got, expected } => {
                write!(f, "op model has dim {got}, assignment said {expected}")
            }
            ExecError::RowNotInPartition(g) => write!(f, "row {g} not in this partition"),
            ExecError::ZeroBatchSize => write!(f, "MgdEpoch batch_size is zero"),
            ExecError::EmptyBatch => write!(f, "op over an empty batch"),
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
/// buffer, and an SGD op under L1 resets the executor's one `LazyL1`
/// rather than allocating its own, so once the index and penalty buffers
/// have grown an op allocates nothing (the `execute/*` lines of the
/// allocation ledger, `tests/fixtures/allocs.txt`).
#[derive(Debug, Clone)]
pub struct OpExecutor {
    dim: usize,
    loss: Loss,
    reg: Regularizer,
    lr: LearningRate,
    /// Gradient buffer of `mgd_step` and `mgd_delta`; the gradient ops
    /// and `MgdStep` swap it with the op's model buffer instead of
    /// allocating a result.
    grad_buf: DenseVector,
    /// Resolved row positions of the current op.
    idx: Vec<usize>,
    /// The lazy-L1 penalty state of the SGD ops, reset by each pass.
    l1: LazyL1,
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
            l1: LazyL1::new(0),
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
                let t = sgd_epoch_lazy_with(
                    &mut self.l1,
                    self.loss,
                    self.reg,
                    &mut local,
                    rows,
                    labels,
                    &self.idx,
                    self.lr,
                    t0,
                );
                Ok(OpResult::Model {
                    w: local.into_dense(),
                    t,
                })
            }
            WorkerOp::PartitionGrad { mut w } => {
                nonempty(partition)?;
                batch_gradient_into(self.loss, &w, rows, labels, partition, &mut self.grad_buf);
                std::mem::swap(&mut w, &mut self.grad_buf);
                Ok(OpResult::Grad(w))
            }
            WorkerOp::BatchGrad { mut w, batch } => {
                nonempty(&batch)?;
                self.resolve(&batch, resolve)?;
                batch_gradient_into(self.loss, &w, rows, labels, &self.idx, &mut self.grad_buf);
                std::mem::swap(&mut w, &mut self.grad_buf);
                Ok(OpResult::Grad(w))
            }
            WorkerOp::MgdStep { mut w, batch, eta } => {
                nonempty(&batch)?;
                self.resolve(&batch, resolve)?;
                mgd_delta(
                    self.loss,
                    self.reg,
                    &w,
                    rows,
                    labels,
                    &self.idx,
                    eta,
                    &mut self.grad_buf,
                );
                std::mem::swap(&mut w, &mut self.grad_buf);
                Ok(OpResult::Grad(w))
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
            WorkerOp::PartitionObjective { w } => {
                nonempty(partition)?;
                Ok(OpResult::Value(objective_value_subset(
                    self.loss,
                    Regularizer::None,
                    &w,
                    rows,
                    labels,
                    partition,
                )))
            }
        }
    }
}

/// The average-over-rows ops are undefined on no rows; refuse them before
/// the math asserts.
fn nonempty<T>(rows: &[T]) -> Result<(), ExecError> {
    if rows.is_empty() {
        Err(ExecError::EmptyBatch)
    } else {
        Ok(())
    }
}
