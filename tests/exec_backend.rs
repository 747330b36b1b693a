//! The explicit compute backend: `System::train_on` with any correct
//! `ComputeBackend` reproduces `System::train` bit-for-bit, every
//! `WorkerOp` kind is live, and a backend that fails mid-run yields its
//! failure — no partial `TrainOutput`, nothing left behind on the thread.

use std::collections::BTreeSet;

use mllib_star::core::{
    system_partitions, AngelConfig, ComputeBackend, InProcessBackend, OpResult, PsSystemConfig,
    System, TrainConfig, TrainOutput, WorkerOp,
};
use mllib_star::data::{SparseDataset, SyntheticConfig};
use mllib_star::glm::{LearningRate, Loss, Regularizer};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};

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
