//! The explicit compute backend: `System::train_on` with any correct
//! `ComputeBackend` reproduces `System::train` bit-for-bit, every
//! `WorkerOp` kind is live, and a backend that fails mid-run yields its
//! failure — no partial `TrainOutput`, nothing left behind on the thread.
//!
//! The last test pins the per-batch GD kernels: `mgd_step` and the
//! `MgdEpoch` op that runs it agree bit for bit with the two-pass loop
//! (penalty into the gradient buffer, then `w −= η·buf`), and `mgd_delta`
//! and the `MgdStep` op that runs it with that loop's step, `w₁ − w₀`.

use std::collections::BTreeSet;

use mllib_star::core::{
    system_partitions, AngelConfig, ComputeBackend, ExecError, InProcessBackend, OpExecutor,
    OpResult, PsSystemConfig, Shard, System, TrainConfig, TrainOutput, WorkerOp,
};
use mllib_star::data::{SparseDataset, SyntheticConfig};
use mllib_star::glm::{batch_gradient_into, mgd_delta, mgd_step, LearningRate, Loss, Regularizer};
use mllib_star::linalg::{DenseVector, SparseVector};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};
use proptest::prelude::*;

fn dataset() -> SparseDataset {
    SyntheticConfig::small("exec-backend", 120, 16).generate()
}

fn cluster() -> ClusterSpec {
    ClusterSpec::uniform(3, NodeSpec::standard(), NetworkSpec::gbps1())
}

fn cfg(reg: Regularizer) -> TrainConfig {
    TrainConfig {
        loss: Loss::Hinge,
        reg,
        lr: LearningRate::InvSqrt(0.1),
        max_rounds: 3,
        ..TrainConfig::default()
    }
}

fn kind(op: &WorkerOp) -> &'static str {
    match op {
        WorkerOp::SgdPass { .. } => "SgdPass",
        WorkerOp::SgdBatch { .. } => "SgdBatch",
        WorkerOp::PartitionGrad { .. } => "PartitionGrad",
        WorkerOp::BatchGrad { .. } => "BatchGrad",
        WorkerOp::MgdStep { .. } => "MgdStep",
        WorkerOp::MgdEpoch { .. } => "MgdEpoch",
        WorkerOp::PartitionObjective { .. } => "PartitionObjective",
    }
}

/// The in-process backend, recording which op kinds pass through it and
/// optionally failing (instead of executing) batch `fail_at`.
struct Recording<'a> {
    inner: InProcessBackend<'a>,
    kinds: BTreeSet<&'static str>,
    batches: u64,
    fail_at: Option<u64>,
}

impl ComputeBackend for Recording<'_> {
    fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
        let batch = self.batches;
        self.batches += 1;
        if self.fail_at == Some(batch) {
            return Err(format!("injected failure at batch {batch}"));
        }
        self.kinds.extend(ops.iter().map(|(_, op)| kind(op)));
        self.inner.run_ops(ops)
    }
}

/// Runs `system` through the explicit entry on a recording backend.
fn train_recorded(
    system: System,
    ds: &SparseDataset,
    cfg: &TrainConfig,
    fail_at: Option<u64>,
) -> (Result<TrainOutput, String>, BTreeSet<&'static str>) {
    let cluster = cluster();
    let parts = system_partitions(system, ds, &cluster, cfg);
    let mut backend = Recording {
        inner: InProcessBackend::new(ds, &parts, cfg),
        kinds: BTreeSet::new(),
        batches: 0,
        fail_at,
    };
    let out = system
        .train_on(
            ds,
            &cluster,
            cfg,
            &PsSystemConfig::default(),
            &AngelConfig::default(),
            &mut backend,
        )
        .map_err(|abort| abort.0);
    (out, backend.kinds)
}

fn train_plain(system: System, ds: &SparseDataset, cfg: &TrainConfig) -> TrainOutput {
    system.train(
        ds,
        &cluster(),
        cfg,
        &PsSystemConfig::default(),
        &AngelConfig::default(),
    )
}

fn assert_identical(a: &TrainOutput, b: &TrainOutput, label: &str) {
    assert_eq!(a.trace, b.trace, "trace diverged: {label}");
    assert_eq!(a.model, b.model, "weights diverged: {label}");
    assert_eq!(a.round_stats, b.round_stats, "telemetry diverged: {label}");
    assert_eq!(a.gantt.spans(), b.gantt.spans(), "gantt diverged: {label}");
    assert_eq!(a.total_updates, b.total_updates, "{label}");
    assert_eq!(a.rounds_run, b.rounds_run, "{label}");
    assert_eq!(a.converged, b.converged, "{label}");
}

#[test]
fn explicit_backend_reproduces_train_and_every_op_kind_is_live() {
    let ds = dataset();
    let mut seen = BTreeSet::new();
    // Petuum picks SgdBatch without a regularizer and MgdStep with one.
    for reg in [Regularizer::None, Regularizer::l2(0.05)] {
        let cfg = cfg(reg);
        for system in System::ALL {
            let (out, kinds) = train_recorded(system, &ds, &cfg, None);
            let out = out.unwrap_or_else(|e| panic!("{system} failed: {e}"));
            assert!(!kinds.is_empty(), "{system} dispatched no ops");
            assert_identical(
                &train_plain(system, &ds, &cfg),
                &out,
                &format!("{system} ({})", cfg.reg.label()),
            );
            seen.extend(kinds);
        }
    }
    let all = BTreeSet::from([
        "SgdPass",
        "SgdBatch",
        "PartitionGrad",
        "BatchGrad",
        "MgdStep",
        "MgdEpoch",
        "PartitionObjective",
    ]);
    assert_eq!(seen, all, "a WorkerOp variant no system dispatches is dead");
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "checks the default only when the host has not set the knob"
)]
fn default_run_is_serial() {
    // `cargo test` runs without MLSTAR_HOST_THREADS; provenance says so.
    if std::env::var_os("MLSTAR_HOST_THREADS").is_none() {
        let out = train_plain(System::MllibStar, &dataset(), &cfg(Regularizer::None));
        assert_eq!(out.host_threads, 1);
    }
}

#[test]
fn failing_backend_yields_its_failure_and_poisons_nothing() {
    let ds = dataset();
    let cfg = cfg(Regularizer::None);
    for system in System::ALL {
        let reference = train_plain(system, &ds, &cfg);
        for fail_at in [0, 2] {
            let (out, _) = train_recorded(system, &ds, &cfg, Some(fail_at));
            assert_eq!(
                out.err(),
                Some(format!("injected failure at batch {fail_at}")),
                "{system}: a failed batch must fail the run"
            );
            // The next run on this thread is unaffected.
            assert_identical(
                &reference,
                &train_plain(system, &ds, &cfg),
                &format!("{system} after a failure at batch {fail_at}"),
            );
        }
    }
}

/// The per-batch GD step as two dense passes: the penalty gradient added
/// into the buffer (zero at exactly-zero weights under L1), then
/// `w −= η·buf`.
#[expect(clippy::too_many_arguments, reason = "mirrors mgd_step's signature")]
fn two_pass_step(
    loss: Loss,
    reg: Regularizer,
    w: &mut DenseVector,
    rows: &[SparseVector],
    labels: &[f64],
    batch: &[usize],
    eta: f64,
    buf: &mut DenseVector,
) {
    batch_gradient_into(loss, w, rows, labels, batch, buf);
    match reg {
        Regularizer::None => {}
        Regularizer::L2 { lambda } => buf.axpy(lambda, w),
        Regularizer::L1 { lambda } => {
            for j in 0..w.dim() {
                let z = w.get(j);
                if z != 0.0 {
                    buf[j] += lambda * z.signum();
                }
            }
        }
    }
    w.axpy(-eta, buf);
}

/// Rows, labels, a start model and a visit order drawn from `seed`: about
/// 40 % of the row entries are nonzero in [−2, 2], labels are ±1 or in
/// [−3, 3], a quarter of the weights are `0.0` and a quarter `-0.0`, and
/// the order revisits rows.
fn gd_problem(
    seed: u64,
    n: usize,
    d: usize,
) -> (Vec<SparseVector>, Vec<f64>, DenseVector, Vec<usize>) {
    let mut state = seed;
    let mut unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pairs = Vec::new();
        for j in 0..d as u32 {
            if unit() < 0.4 {
                pairs.push((j, 4.0 * unit() - 2.0));
            }
        }
        rows.push(SparseVector::from_pairs(d, &pairs).expect("indices below d"));
        labels.push(if unit() < 0.5 {
            if unit() < 0.5 {
                1.0
            } else {
                -1.0
            }
        } else {
            6.0 * unit() - 3.0
        });
    }
    let w0 = (0..d)
        .map(|_| match unit() {
            u if u < 0.25 => 0.0,
            u if u < 0.5 => -0.0,
            _ => 2.0 * unit() - 1.0,
        })
        .collect();
    let order = (0..1 + 2 * n)
        .map(|_| ((unit() * n as f64) as usize).min(n - 1))
        .collect();
    (rows, labels, DenseVector::from_vec(w0), order)
}

/// A buffer of leftovers, as after a gradient op swapped a model in.
fn junk(d: usize) -> DenseVector {
    let cycle = [f64::NAN, f64::INFINITY, -7.5, 1e300, -0.0];
    DenseVector::from_vec((0..d).map(|j| cycle[j % cycle.len()]).collect())
}

fn bits(w: &DenseVector) -> Vec<u64> {
    w.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn model_of(result: Result<OpResult, ExecError>) -> (DenseVector, u64) {
    match result {
        Ok(OpResult::Model { w, t }) => (w, t),
        other => panic!("expected a model, got {other:?}"),
    }
}

fn grad_of(result: Result<OpResult, ExecError>) -> DenseVector {
    match result {
        Ok(OpResult::Grad(g)) => g,
        other => panic!("expected a gradient, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `mgd_step` and the `MgdEpoch` op (one chunk and many) move no
    /// weight bit against the two-pass loop, and `mgd_step` leaves the
    /// batch loss gradient (without the penalty) in its buffer.
    /// `mgd_delta` and the `MgdStep` op give the two-pass step followed by
    /// `axpy(−1, w₀)` bit for bit, and leave the model alone.
    #[test]
    fn mgd_step_matches_the_two_pass_loop_bit_for_bit(
        seed in any::<u64>(),
        n in 1usize..=30,
        d in 1usize..=12,
        loss in prop_oneof![Just(Loss::Hinge), Just(Loss::Logistic), Just(Loss::Squared)],
        reg_kind in 0u8..3,
        lambda in 0.001f64..1.0,
        eta in 0.001f64..1.0,
        batch_size in 1u32..=8,
        t0 in 0u64..50,
    ) {
        let reg = match reg_kind {
            0 => Regularizer::None,
            1 => Regularizer::L2 { lambda },
            _ => Regularizer::L1 { lambda },
        };
        let (rows, labels, w0, order) = gd_problem(seed, n, d);
        let batch = &order[..order.len().min(batch_size as usize)];

        let mut want = w0.clone();
        two_pass_step(loss, reg, &mut want, &rows, &labels, batch, eta, &mut junk(d));
        let mut want_delta = want.clone();
        want_delta.axpy(-1.0, &w0);
        let mut loss_grad = DenseVector::zeros(d);
        batch_gradient_into(loss, &w0, &rows, &labels, batch, &mut loss_grad);

        let (mut w, mut buf) = (w0.clone(), junk(d));
        mgd_step(loss, reg, &mut w, &rows, &labels, batch, eta, &mut buf);
        prop_assert_eq!(bits(&w), bits(&want));
        prop_assert_eq!(bits(&buf), bits(&loss_grad));

        let mut delta = junk(d);
        mgd_delta(loss, reg, &w0, &rows, &labels, batch, eta, &mut delta);
        prop_assert_eq!(bits(&delta), bits(&want_delta));

        // Through the executor, whose buffer first takes a swapped-in model.
        let lr = LearningRate::InvSqrt(eta);
        let mut exec = OpExecutor::new(d, loss, reg, lr);
        let all: Vec<usize> = (0..n).collect();
        let shard = Shard { rows: &rows, labels: &labels, partition: &all };
        let resolve = |g: u32| Some(g as usize);
        let global = |idx: &[usize]| idx.iter().map(|&i| i as u32).collect::<Vec<_>>();
        let swapped = exec.execute(&shard, resolve, WorkerOp::BatchGrad { w: junk(d), batch: global(batch) });
        prop_assert!(matches!(swapped, Ok(OpResult::Grad(_))));
        let step = WorkerOp::MgdStep { w: w0.clone(), batch: global(batch), eta };
        let delta = grad_of(exec.execute(&shard, resolve, step));
        prop_assert_eq!(bits(&delta), bits(&want_delta));

        // Petuum*'s GD step: one chunk at `lr(t0)` is the stepped model.
        let (mut want, eta0) = (w0.clone(), lr.eta(t0));
        two_pass_step(loss, reg, &mut want, &rows, &labels, batch, eta0, &mut junk(d));
        let one = WorkerOp::MgdEpoch {
            w: w0.clone(),
            order: global(batch),
            batch_size: batch.len() as u32,
            t0,
        };
        let (w, t) = model_of(exec.execute(&shard, resolve, one));
        prop_assert_eq!(bits(&w), bits(&want));
        prop_assert_eq!(t, t0 + 1);

        let (mut want, mut t_want, mut buf) = (w0.clone(), t0, junk(d));
        for chunk in order.chunks(batch_size as usize) {
            two_pass_step(loss, reg, &mut want, &rows, &labels, chunk, lr.eta(t_want), &mut buf);
            t_want += 1;
        }
        let epoch = WorkerOp::MgdEpoch { w: w0, order: global(&order), batch_size, t0 };
        let (w, t) = model_of(exec.execute(&shard, resolve, epoch));
        prop_assert_eq!(bits(&w), bits(&want));
        prop_assert_eq!(t, t_want);
    }
}
