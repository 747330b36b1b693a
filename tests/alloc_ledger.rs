//! The allocation ledger: heap allocations of one steady-state call of
//! each worker kernel, executor op, solver and serve run, and of one round
//! or clock of each training system, compared with
//! `tests/fixtures/allocs.txt`.
//!
//! Every case is warmed up once, so reused buffers have grown, and then
//! one call is counted by the benchmark's counting allocator (the least of
//! three counts, see [`count`]). A training
//! system's line is a run of `ROUNDS + 1` communication steps minus a run
//! of `ROUNDS`, which leaves one step. Each line of the fixture reads
//! `<case> <count>`, and every line whose count is not 0 ends in
//! `# <what allocates>`. A change that adds or removes an allocation on
//! one of these paths moves its line; on a mismatch the test prints the
//! computed table in the fixture's syntax, with the fixture's reasons, and
//! a moved line is regenerated by pasting it and giving its new reason.
//!
//! The file holds one `#[test]`: the counters are process-wide, so a second
//! test running on a parallel thread would count into this one's figures.
//! The system lines count the default serial in-process backend; with
//! `MLSTAR_HOST_THREADS` above 1 its scoped threads allocate as well.

use std::hint::black_box;

use mllib_star::core::{
    AngelConfig, OpExecutor, PsSystemConfig, Shard, System, TrainConfig, WorkerOp,
};
use mllib_star::data::{SparseDataset, SyntheticConfig};
use mllib_star::glm::{
    batch_gradient_into, cd_fit, fit_path, lambda_max, lbfgs_direction, mgd_delta, mgd_step,
    sgd_epoch_lazy, CdConfig, ElasticNet, GlmModel, LearningRate, Loss, PathConfig, Regularizer,
};
use mllib_star::linalg::{CscMatrix, DenseVector, ScaledVector};
use mllib_star::serve::{BatchPolicy, QueryWorkload, ScoringEngine};
use mllib_star::sim::{ClusterSpec, NetworkSpec, NodeSpec};
use mlstar_alloc_count::{Counting, Session};

#[global_allocator]
static COUNTING: Counting = Counting;

const FIXTURE: &str = include_str!("fixtures/allocs.txt");

/// Communication steps of the shorter of the two runs a system line
/// subtracts.
const ROUNDS: u64 = 6;

const REGS: [(&str, Regularizer); 3] = [
    ("none", Regularizer::None),
    ("l2", Regularizer::L2 { lambda: 0.01 }),
    ("l1", Regularizer::L1 { lambda: 0.01 }),
];

/// Allocations of one `run(setup())` after a warm-up call; `setup` runs
/// outside the count.
///
/// The counters also see the harness's main thread, which can still be
/// allocating when this test starts. Another thread only ever adds to a
/// count, so the call is counted three times and the least count is the
/// call's own.
fn count<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> i64 {
    run(setup());
    let least = (0..3)
        .map(|_| {
            let state = setup();
            let session = Session::open();
            run(state);
            session.close().allocations
        })
        .min();
    i64::try_from(least.expect("three counts")).expect("a count fits i64")
}

fn dataset() -> SparseDataset {
    SyntheticConfig::small("alloc-ledger", 600, 40).generate()
}

/// The kernels and the executor ops, on the whole dataset.
fn kernel_lines(ds: &SparseDataset, lines: &mut Vec<(String, i64)>) {
    let (rows, labels, dim) = (ds.rows(), ds.labels(), ds.num_features());
    let order: Vec<usize> = (0..rows.len()).rev().collect();
    let batch: Vec<usize> = (0..rows.len()).step_by(7).collect();
    let lr = LearningRate::InvSqrt(0.1);
    let w0 = DenseVector::from_vec((0..dim).map(|j| 0.01 * j as f64).collect());

    for (name, reg) in REGS {
        let n = count(
            || ScaledVector::from_dense(w0.clone()),
            |mut w| {
                sgd_epoch_lazy(Loss::Hinge, reg, &mut w, rows, labels, &order, lr, 0);
                black_box(w);
            },
        );
        lines.push((format!("sgd_epoch_lazy/{name}"), n));
    }
    let n = count(
        || DenseVector::zeros(dim),
        |mut buf| batch_gradient_into(Loss::Logistic, &w0, rows, labels, &batch, &mut buf),
    );
    lines.push(("batch_gradient_into".into(), n));
    for (name, reg) in REGS {
        let n = count(
            || (w0.clone(), DenseVector::zeros(dim)),
            |(mut w, mut buf)| {
                mgd_step(
                    Loss::Hinge,
                    reg,
                    &mut w,
                    rows,
                    labels,
                    &batch,
                    0.1,
                    &mut buf,
                );
            },
        );
        lines.push((format!("mgd_step/{name}"), n));
        let n = count(
            || DenseVector::zeros(dim),
            |mut buf| mgd_delta(Loss::Hinge, reg, &w0, rows, labels, &batch, 0.1, &mut buf),
        );
        lines.push((format!("mgd_delta/{name}"), n));
    }

    let partition: Vec<usize> = (0..rows.len()).collect();
    let shard = Shard {
        rows,
        labels,
        partition: &partition,
    };
    let global = |idx: &[usize]| -> Vec<u32> { idx.iter().map(|&i| i as u32).collect() };
    let (order, batch) = (global(&order), global(&batch));
    type MakeOp<'a> = Box<dyn Fn(DenseVector) -> WorkerOp + 'a>;
    let ops: [(&str, MakeOp<'_>); 7] = [
        (
            "SgdPass",
            Box::new(|w| WorkerOp::SgdPass {
                w,
                order: order.clone(),
                t0: 0,
            }),
        ),
        (
            "SgdBatch",
            Box::new(|w| WorkerOp::SgdBatch {
                w,
                batch: batch.clone(),
                t0: 0,
            }),
        ),
        ("PartitionGrad", Box::new(|w| WorkerOp::PartitionGrad { w })),
        (
            "BatchGrad",
            Box::new(|w| WorkerOp::BatchGrad {
                w,
                batch: batch.clone(),
            }),
        ),
        (
            "MgdStep",
            Box::new(|w| WorkerOp::MgdStep {
                w,
                batch: batch.clone(),
                eta: 0.1,
            }),
        ),
        (
            "MgdEpoch",
            Box::new(|w| WorkerOp::MgdEpoch {
                w,
                order: order.clone(),
                batch_size: 16,
                t0: 0,
            }),
        ),
        (
            "PartitionObjective",
            Box::new(|w| WorkerOp::PartitionObjective { w }),
        ),
    ];
    for (reg_name, reg) in REGS {
        let mut exec = OpExecutor::new(dim, Loss::Hinge, reg, lr);
        for (op_name, make) in &ops {
            let n = count(
                || make(w0.clone()),
                |op| {
                    let in_range = |g: u32| Some(g as usize).filter(|&i| i < rows.len());
                    black_box(exec.execute(&shard, in_range, op).expect("op runs"));
                },
            );
            lines.push((format!("execute/{op_name}/{reg_name}"), n));
        }
    }
}

/// Coordinate descent, the λ path and the L-BFGS direction.
fn solver_lines(ds: &SparseDataset, lines: &mut Vec<(String, i64)>) {
    let (labels, dim) = (ds.labels(), ds.num_features());
    let cols = CscMatrix::from_rows(ds.rows(), dim);
    let loss = Loss::Logistic;
    let penalty = ElasticNet::new(0.1 * lambda_max(&loss, &cols, labels, 0.5), 0.5);
    let n = count(
        || (DenseVector::zeros(dim), vec![0.0; labels.len()]),
        |(mut w, mut margins)| {
            let stats = cd_fit(
                &loss,
                &penalty,
                &cols,
                labels,
                &mut w,
                &mut margins,
                &CdConfig::default(),
            );
            black_box(stats.expect("cd_fit runs"));
        },
    );
    lines.push(("cd_fit".into(), n));
    let cfg = PathConfig {
        n_lambdas: 5,
        l1_ratio: 0.5,
        ..PathConfig::default()
    };
    let n = count(
        || (),
        |()| drop(black_box(fit_path(&loss, &cols, labels, &cfg))),
    );
    lines.push(("fit_path/5-lambdas".into(), n));

    let vector =
        |seed: f64| DenseVector::from_vec((0..dim).map(|j| (seed + j as f64).sin()).collect());
    let grad = vector(0.0);
    let pairs: Vec<(DenseVector, DenseVector)> = (1..=3)
        .map(|p| (vector(p as f64), vector(p as f64 + 0.1)))
        .collect();
    let n = count(|| (), |()| drop(black_box(lbfgs_direction(&grad, &pairs))));
    lines.push(("lbfgs_direction/3-pairs".into(), n));
}

/// One serve run on one shard.
fn serve_lines(ds: &SparseDataset, lines: &mut Vec<(String, i64)>) {
    let w = DenseVector::from_vec((0..ds.num_features()).map(|j| (j as f64).cos()).collect());
    let engine = ScoringEngine::new(GlmModel::from_weights(w), BatchPolicy::default(), 1);
    let requests = QueryWorkload {
        num_requests: 500,
        ..QueryWorkload::default()
    }
    .generate(ds);
    let n = count(
        || (),
        |()| drop(black_box(engine.run(&requests).expect("serve run"))),
    );
    lines.push(("ScoringEngine::run/1-shard/500-requests".into(), n));
}

/// One communication step of each system: a run of `ROUNDS + 1` steps
/// minus a run of `ROUNDS`.
fn system_lines(ds: &SparseDataset, lines: &mut Vec<(String, i64)>) {
    let cluster = ClusterSpec::uniform(3, NodeSpec::standard(), NetworkSpec::gbps1());
    let (ps, angel) = (PsSystemConfig::default(), AngelConfig::default());
    for system in System::ALL {
        let train = |rounds: u64| {
            let cfg = TrainConfig {
                reg: Regularizer::L2 { lambda: 0.01 },
                max_rounds: rounds,
                batch_frac: 0.05,
                ..TrainConfig::default()
            };
            count(
                || (),
                |()| drop(black_box(system.train(ds, &cluster, &cfg, &ps, &angel))),
            )
        };
        let n = train(ROUNDS + 1) - train(ROUNDS);
        let step = if system.is_parameter_server() {
            "clock"
        } else {
            "round"
        };
        lines.push((format!("{}/{step}", system.name()), n));
    }
}

/// The fixture's `(case, count, reason)` lines.
fn parse(fixture: &str) -> Vec<(&str, i64, &str)> {
    fixture
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (entry, reason) = l.split_once(" # ").unwrap_or((l, ""));
            let mut words = entry.split_whitespace();
            let (Some(case), Some(n), None) = (words.next(), words.next(), words.next()) else {
                panic!("fixture line is not `<case> <count> [# reason]`: {l:?}");
            };
            let n = n.parse().unwrap_or_else(|_| panic!("bad count in {l:?}"));
            (case, n, reason.trim())
        })
        .collect()
}

#[test]
fn allocations_match_the_ledger() {
    let ds = dataset();
    let mut got = Vec::new();
    kernel_lines(&ds, &mut got);
    solver_lines(&ds, &mut got);
    serve_lines(&ds, &mut got);
    system_lines(&ds, &mut got);

    let pinned = parse(FIXTURE);
    for &(case, n, reason) in &pinned {
        assert!(
            n == 0 || !reason.is_empty(),
            "ledger line {case} counts {n} allocations but does not say what allocates"
        );
    }
    let reason_of = |case: &str| pinned.iter().find(|p| p.0 == case).map_or("", |p| p.2);
    let table: String = got
        .iter()
        .map(|(case, n)| match (n, reason_of(case)) {
            (0, _) => format!("{case} {n}\n"),
            (_, reason) => format!("{case} {n} # {reason}\n"),
        })
        .collect();
    let matches = got.len() == pinned.len()
        && got
            .iter()
            .zip(&pinned)
            .all(|((case, n), p)| *case == p.0 && *n == p.1);
    assert!(
        matches,
        "allocation counts moved; the computed table:\n{table}"
    );
}
