//! The one worker-op path: how a trainer's per-worker math reaches the
//! executor.
//!
//! A trainer never calls `mlstar-glm` for worker-local work itself. It
//! describes the work as [`WorkerOp`]s and hands them to the
//! [`ComputeBackend`] it was given; everything else (RNG streams,
//! simulated clock, Gantt recording, aggregation order) stays on the
//! calling thread. Two backends exist: [`InProcessBackend`], which
//! [`System::train`] builds over the whole dataset, and `mlstar-net`'s
//! orchestrator, which ships the same ops to worker threads. Both end in
//! [`OpExecutor::execute`] (crate `mlstar-exec`) — the single
//! implementation of each op — so the simulated program and the measured
//! program are one program.
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

use mlstar_data::{Partitioner, SparseDataset};
use mlstar_exec::{OpExecutor, OpResult, Shard, WorkerOp};
use mlstar_linalg::DenseVector;
use mlstar_sim::{ClusterSpec, SeedStream};

use crate::{System, TrainConfig};

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
#[expect(
    clippy::expect_used,
    reason = "dataset row counts are bounded far below u32::MAX by construction; exceeding the wire width is a bug"
)]
pub(crate) fn to_wire_indices(idx: &[usize]) -> Vec<u32> {
    idx.iter()
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

/// Host threads for the in-process backend (`MLSTAR_HOST_THREADS`,
/// default 1 = serial; purely a host-performance knob, invisible to the
/// simulation).
#[expect(
    clippy::disallowed_methods,
    reason = "thread count only changes wall-clock speed; results are joined in submission order, so they are bit-identical at any setting"
)]
fn host_threads() -> usize {
    host_threads_from(std::env::var("MLSTAR_HOST_THREADS").ok().as_deref())
}

/// Parses an `MLSTAR_HOST_THREADS` value: a positive integer, else 1.
fn host_threads_from(value: Option<&str>) -> usize {
    value
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
    #[expect(
        clippy::disallowed_methods,
        reason = "contiguous op chunks are joined in submission order, so no result depends on the thread count"
    )]
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
    use mlstar_exec::ExecError;
    use mlstar_glm::{LearningRate, Loss, Regularizer};

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
    fn host_threads_parses_positive_integers_else_serial() {
        assert_eq!(host_threads_from(None), 1);
        assert_eq!(host_threads_from(Some("0")), 1);
        assert_eq!(host_threads_from(Some("abc")), 1);
        assert_eq!(host_threads_from(Some("3")), 3);
        assert_eq!(host_threads_from(Some(" 2")), 1);
    }
}
