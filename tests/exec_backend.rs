//! The explicit compute backend: `System::train_on` with any correct
//! `ComputeBackend` reproduces `System::train` bit-for-bit, every
//! `WorkerOp` kind is live, and a backend that fails mid-run yields its
//! failure — no partial `TrainOutput`, nothing left behind on the thread.
//!
//! The last test pins the per-batch GD kernels: `mgd_step` and the
//! `MgdEpoch` op that runs it agree bit for bit with the two-pass loop
//! (penalty into the gradient buffer, then `w −= η·buf`), and `mgd_delta`
//! and the `MgdStep` op that runs it with that loop's step, `w₁ − w₀`.
//!
//! `sgd_epoch_lazy`'s L1 arm, which settles each coordinate inside the
//! dot, is checked the same way against the settle-all, then dot, then
//! axpy loop it replaced.
//!
//! The kernel pins hold FNV-1a digests of `sgd_epoch_lazy`,
//! `batch_gradient_into` and `mgd_delta` outputs, generated before the
//! kernels' row loops were rewritten; a digest that moves means a kernel
//! moved a bit.

use std::collections::BTreeSet;

use mllib_star::core::{
    system_partitions, AngelConfig, ComputeBackend, ExecError, InProcessBackend, OpExecutor,
    OpResult, PsSystemConfig, Shard, System, TrainConfig, TrainOutput, WorkerOp,
};
use mllib_star::data::{EpochOrder, SparseDataset, SyntheticConfig};
use mllib_star::glm::{
    batch_gradient_into, mgd_delta, mgd_step, sgd_epoch_lazy, LazyL1, LearningRate, Loss,
    Regularizer,
};
use mllib_star::linalg::{DenseVector, ScaledVector, SparseVector};
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
            &parts,
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

/// The lazy-L1 SGD pass as it was first written: settle every touched
/// coordinate, then take the dot over the settled weights, then the axpy.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors sgd_epoch_lazy's signature"
)]
fn settle_then_dot_pass(
    loss: Loss,
    lambda: f64,
    w: &mut DenseVector,
    rows: &[SparseVector],
    labels: &[f64],
    order: &[usize],
    lr: LearningRate,
    t0: u64,
) -> u64 {
    let mut l1 = LazyL1::new(w.dim());
    let mut t = t0;
    for &i in order {
        let eta = lr.eta(t);
        for (j, _) in rows[i].iter() {
            l1.apply_at(w, j);
        }
        let d = loss.dloss(w.dot_sparse(&rows[i]), labels[i]);
        if d != 0.0 {
            w.axpy_sparse(-eta * d, &rows[i]);
        }
        l1.accumulate(eta * lambda);
        t += 1;
    }
    l1.finalize(w);
    t
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

    /// `sgd_epoch_lazy` under L1, which settles each coordinate inside the
    /// dot, moves no weight bit and returns the same counter as the
    /// settle-all, then dot, then axpy loop, over random rows (signed-zero
    /// weights among them) and orders that revisit rows.
    #[test]
    fn sgd_l1_pass_matches_settle_then_dot_bit_for_bit(
        seed in any::<u64>(),
        n in 1usize..=30,
        d in 1usize..=12,
        loss in prop_oneof![Just(Loss::Hinge), Just(Loss::Logistic), Just(Loss::Squared)],
        lambda in 0.001f64..1.0,
        eta in 0.001f64..1.0,
        inv_sqrt in any::<bool>(),
        t0 in 0u64..50,
    ) {
        let (rows, labels, w0, order) = gd_problem(seed, n, d);
        let lr = if inv_sqrt { LearningRate::InvSqrt(eta) } else { LearningRate::Constant(eta) };
        let mut want = w0.clone();
        let t_want = settle_then_dot_pass(loss, lambda, &mut want, &rows, &labels, &order, lr, t0);

        let mut w = ScaledVector::from_dense(w0);
        let reg = Regularizer::L1 { lambda };
        let t = sgd_epoch_lazy(loss, reg, &mut w, &rows, &labels, &order, lr, t0);
        prop_assert_eq!(bits(&w.into_dense()), bits(&want));
        prop_assert_eq!(t, t_want);
    }
}

/// FNV-1a over 64-bit words, low byte first.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The kernel pins' problem: a skewed synthetic set with real-valued
/// features, widened by one coordinate, plus an empty row and a row whose
/// entry at the extra coordinate is a stored `-0.0`. The start model has
/// `0.0` and `-0.0` weights, the extra coordinate among the `-0.0` ones.
fn pin_problem() -> (Vec<SparseVector>, Vec<f64>, DenseVector) {
    let ds = SyntheticConfig {
        avg_nnz: 6,
        feature_skew: 2.5,
        binary_features: false,
        ..SyntheticConfig::small("kernel-pins", 48, 30)
    }
    .generate();
    let d = ds.num_features() + 1;
    let mut rows: Vec<SparseVector> = ds
        .rows()
        .iter()
        .map(|x| SparseVector::new(d, x.indices().to_vec(), x.values().to_vec()).unwrap())
        .collect();
    let mut labels = ds.labels().to_vec();
    rows.push(SparseVector::empty(d));
    labels.push(1.0);
    rows.push(SparseVector::from_pairs(d, &[(0, 0.75), (3, -1.25), (d as u32 - 1, -0.0)]).unwrap());
    labels.push(-1.0);
    let w0 = (0..d)
        .map(|j| match j % 4 {
            _ if j == d - 1 => -0.0,
            0 => 0.0,
            1 => -0.0,
            _ => 0.1 * j as f64 - 1.0,
        })
        .collect();
    (rows, labels, DenseVector::from_vec(w0))
}

/// Compares computed `(case, digest)` rows against the pinned table and,
/// on a mismatch, prints the computed table in the table's own syntax.
fn assert_pins(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let same = got.len() == pinned.len()
        && got
            .iter()
            .zip(pinned)
            .all(|((c, g), (p, d))| c == p && g == d);
    if !same {
        for (case, digest) in got {
            println!("        (\"{case}\", 0x{digest:016x}),");
        }
        let moved: Vec<&str> = got
            .iter()
            .filter(|(c, g)| !pinned.contains(&(c.as_str(), *g)))
            .map(|(c, _)| c.as_str())
            .collect();
        panic!("kernel digests moved: {moved:?}");
    }
}

const LOSSES: [Loss; 3] = [Loss::Hinge, Loss::Logistic, Loss::Squared];

const REGS: [(&str, Regularizer); 3] = [
    ("none", Regularizer::None),
    ("l2", Regularizer::L2 { lambda: 0.05 }),
    ("l1", Regularizer::L1 { lambda: 0.05 }),
];

/// `sgd_epoch_lazy` over {None, L2, L1} × {hinge, logistic, squared} ×
/// {`Constant`, `InvSqrt`}: four shuffled passes each, the counter
/// carried across them, digested as the scale factor, the represented
/// weights and the counter after every pass. Then L2 runs whose scale
/// drops below the rescale threshold within a pass (`1 − ηλ = 0.25`) or
/// hits zero (`ηλ = 1`), and single-row orders (a plain row, the empty
/// row, the `-0.0` row) under each penalty. Every L1 grid run must show a
/// coordinate settled to zero at one pass boundary and active again at
/// the next.
#[test]
fn sgd_epoch_lazy_runs_are_pinned() {
    let (rows, labels, w0) = pin_problem();
    let pool: Vec<usize> = (0..rows.len()).collect();
    let run = |loss, reg, lr, orders: &[Vec<usize>]| {
        let mut w = ScaledVector::from_dense(w0.clone());
        let mut t = 3;
        let mut words = Vec::new();
        let mut passes = Vec::new();
        for order in orders {
            t = sgd_epoch_lazy(loss, reg, &mut w, &rows, &labels, order, lr, t);
            let dense = w.to_dense();
            words.push(w.scale_factor().to_bits());
            words.extend(bits(&dense));
            words.push(t);
            passes.push(dense);
        }
        (fnv1a(words), passes)
    };
    let shuffled: Vec<Vec<usize>> = {
        let mut epochs = EpochOrder::new(17);
        (0..4).map(|_| epochs.next_order(&pool)).collect()
    };
    let mut got = Vec::new();
    for (reg_name, reg) in REGS {
        for loss in LOSSES {
            for lr in [LearningRate::Constant(0.1), LearningRate::InvSqrt(0.5)] {
                let (digest, passes) = run(loss, reg, lr, &shuffled);
                if matches!(reg, Regularizer::L1 { .. }) {
                    let reactivated = passes.windows(3).any(|p| {
                        (0..w0.dim()).any(|j| p[0][j] != 0.0 && p[1][j] == 0.0 && p[2][j] != 0.0)
                    });
                    assert!(
                        reactivated,
                        "{reg_name} {loss:?} {lr:?}: no coordinate re-activated"
                    );
                }
                got.push((format!("{reg_name} {loss:?} {lr:?}"), digest));
            }
        }
    }
    for (name, lambda, eta) in [("l2 rescale", 1.5, 0.5), ("l2 zero scale", 1.0, 1.0)] {
        let reg = Regularizer::L2 { lambda };
        let (digest, _) = run(Loss::Logistic, reg, LearningRate::Constant(eta), &shuffled);
        got.push((name.to_owned(), digest));
    }
    let (empty, neg_zero) = (rows.len() - 2, rows.len() - 1);
    for (reg_name, reg) in REGS {
        for row in [5, empty, neg_zero] {
            let (digest, _) = run(
                Loss::Logistic,
                reg,
                LearningRate::Constant(0.4),
                &[vec![row]],
            );
            got.push((format!("{reg_name} row {row}"), digest));
        }
    }
    assert_pins(&got, SGD_PINS);
}

const SGD_PINS: &[(&str, u64)] = &[
    ("none Hinge Constant(0.1)", 0x8760d249de536929),
    ("none Hinge InvSqrt(0.5)", 0x1c15717a134995dc),
    ("none Logistic Constant(0.1)", 0x53c0f1bb11553f13),
    ("none Logistic InvSqrt(0.5)", 0xb6f7064a0d55b2bb),
    ("none Squared Constant(0.1)", 0x2f4373dc23cf4823),
    ("none Squared InvSqrt(0.5)", 0xb99dd251ac188311),
    ("l2 Hinge Constant(0.1)", 0x69e8a5bf489e2ac6),
    ("l2 Hinge InvSqrt(0.5)", 0x65af727da9db9477),
    ("l2 Logistic Constant(0.1)", 0x4439f3b93972d601),
    ("l2 Logistic InvSqrt(0.5)", 0x2aa3fd891adf5f49),
    ("l2 Squared Constant(0.1)", 0x77bf6c627cda20e5),
    ("l2 Squared InvSqrt(0.5)", 0xfae4fa059148d2fd),
    ("l1 Hinge Constant(0.1)", 0xe124d253de7af0cf),
    ("l1 Hinge InvSqrt(0.5)", 0x9165772a686842bb),
    ("l1 Logistic Constant(0.1)", 0x21c775a2f4b1b0b0),
    ("l1 Logistic InvSqrt(0.5)", 0xc0bf92e5036cd35d),
    ("l1 Squared Constant(0.1)", 0x7c45bcc156ad5761),
    ("l1 Squared InvSqrt(0.5)", 0x020ce201dbbdc1ee),
    ("l2 rescale", 0x460a24766a941e28),
    ("l2 zero scale", 0x80725cd635d51a7e),
    ("none row 5", 0xd4535d0cc838865f),
    ("none row 48", 0x8a917e28f9fa36d1),
    ("none row 49", 0x38d16ef37ed996fb),
    ("l2 row 5", 0x22f555bb4189cb4a),
    ("l2 row 48", 0xcd6418a2a2f6d34a),
    ("l2 row 49", 0xbdf851059f42ebca),
    ("l1 row 5", 0x1eac5058c85ca0eb),
    ("l1 row 48", 0x247fa07d3414d86b),
    ("l1 row 49", 0x025c14a0831233c9),
];

/// `batch_gradient_into` per loss over five batches (a shuffled half, the
/// whole set, the empty row, the `-0.0` row, one row twice) at the start
/// model and at a dense one, into a junk buffer; and `mgd_delta` per
/// penalty and loss on a shuffled batch holding both special rows.
#[test]
fn batch_gradient_and_mgd_delta_are_pinned() {
    let (rows, labels, w0) = pin_problem();
    let d = w0.dim();
    let pool: Vec<usize> = (0..rows.len()).collect();
    let mut order = EpochOrder::new(29).next_order(&pool);
    let (empty, neg_zero) = (rows.len() - 2, rows.len() - 1);
    let half = order[..rows.len() / 2].to_vec();
    let batches = [half, pool.clone(), vec![empty], vec![neg_zero], vec![7, 7]];
    let dense = DenseVector::from_vec((0..d).map(|j| 0.05 * j as f64 - 0.7).collect());
    let mut got = Vec::new();
    for loss in LOSSES {
        let mut words = Vec::new();
        for w in [&w0, &dense] {
            for batch in &batches {
                let mut grad = junk(d);
                batch_gradient_into(loss, w, &rows, &labels, batch, &mut grad);
                words.extend(bits(&grad));
            }
        }
        got.push((format!("grad {loss:?}"), fnv1a(words)));
    }
    order.truncate(9);
    order.extend([empty, neg_zero]);
    for (reg_name, reg) in REGS {
        for loss in LOSSES {
            let mut delta = junk(d);
            mgd_delta(loss, reg, &w0, &rows, &labels, &order, 0.3, &mut delta);
            got.push((format!("delta {reg_name} {loss:?}"), fnv1a(bits(&delta))));
        }
    }
    assert_pins(&got, GRAD_PINS);
}

const GRAD_PINS: &[(&str, u64)] = &[
    ("grad Hinge", 0xa3627b29d6109f3d),
    ("grad Logistic", 0x912bd49c919e5831),
    ("grad Squared", 0x3d42091503b526d1),
    ("delta none Hinge", 0x0d291f5ed1e57cab),
    ("delta none Logistic", 0x85186b7dedfd5362),
    ("delta none Squared", 0xd4024a2cdcea6df9),
    ("delta l2 Hinge", 0x29a85d62bee276be),
    ("delta l2 Logistic", 0xc1974af55ed5134a),
    ("delta l2 Squared", 0xfb5aebfdd5e6aad5),
    ("delta l1 Hinge", 0x11ef3c0603ede4d0),
    ("delta l1 Logistic", 0x2890568f1700ff1f),
    ("delta l1 Squared", 0x11a76c67520cedda),
];
