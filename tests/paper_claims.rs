//! The paper's core qualitative claims, encoded as end-to-end tests.
//! Each test names the claim it pins down; together they are the
//! regression suite for "does this repository still reproduce the
//! paper?".

use mllib_star::collectives::{all_reduce_average, broadcast_model, tree_aggregate, wire};
use mllib_star::core::{System, TrainConfig};
use mllib_star::data::SyntheticConfig;
use mllib_star::glm::LearningRate;
use mllib_star::linalg::DenseVector;
use mllib_star::sim::{
    Activity, ClusterSpec, CostModel, GanttRecorder, NetworkSpec, NodeId, NodeSpec, RoundBuilder,
    SimTime,
};

fn dataset() -> mllib_star::data::SparseDataset {
    let mut cfg = SyntheticConfig::small("claims", 480, 60);
    cfg.margin_noise = 0.05;
    cfg.flip_prob = 0.0;
    cfg.generate()
}

/// Claim (Section I, B1): "the global model … can only be updated once per
/// communication step" under SendGradient, vs. many updates under
/// SendModel.
#[test]
fn b1_updates_per_communication_step() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let rounds = 5;
    let mllib = System::Mllib.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            lr: LearningRate::Constant(0.5),
            max_rounds: rounds,
            ..TrainConfig::default()
        },
    );
    assert_eq!(
        mllib.total_updates, rounds,
        "SendGradient: one update per step"
    );

    let star = System::MllibStar.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            lr: LearningRate::Constant(0.05),
            max_rounds: rounds,
            ..TrainConfig::default()
        },
    );
    assert_eq!(
        star.total_updates,
        rounds * ds.len() as u64,
        "SendModel: one update per local example per step"
    );
}

/// Claim (Section IV-B2): "the total amount of data remains as 2km" — the
/// AllReduce pattern moves no more than the driver-centric pattern.
#[test]
fn b2_traffic_is_unchanged_latency_is_not() {
    let k = 8;
    let dim = 80_000;
    let cost = CostModel::new(ClusterSpec::uniform(
        k,
        NodeSpec::standard(),
        NetworkSpec::gbps1(),
    ));
    let exec: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
    let mut all = vec![NodeId::Driver];
    all.extend(exec.iter().copied());
    let locals: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(dim)).collect();

    // Driver-centric: collect models + broadcast back = 2·k·m.
    let mut g1 = GanttRecorder::new();
    let driver_bytes = {
        let mut rb = RoundBuilder::new(&mut g1, 0, SimTime::ZERO, &all);
        let (_, up) = tree_aggregate(&mut rb, &cost, &locals, 16, Activity::SendModel);
        let down = broadcast_model(&mut rb, &cost, dim);
        rb.finish();
        up + down
    };
    // AllReduce: 2·(k−1)·m.
    let mut g2 = GanttRecorder::new();
    let (allreduce_bytes, driver_time, allreduce_time) = {
        let mut rb = RoundBuilder::new(&mut g2, 0, SimTime::ZERO, &exec);
        let (_, bytes) = all_reduce_average(&mut rb, &cost, &locals);
        let t2 = rb.finish().as_secs_f64();
        (bytes, g1.makespan().as_secs_f64(), t2)
    };
    assert_eq!(driver_bytes, 2 * k * wire::encoded_dense_len(dim));
    assert_eq!(
        allreduce_bytes,
        2 * (k - 1) * k * wire::partition_bytes(dim, k)
    );
    assert!(
        allreduce_bytes <= driver_bytes,
        "AllReduce never moves more"
    );
    assert!(
        allreduce_time < driver_time,
        "but it finishes sooner: {allreduce_time} vs {driver_time}"
    );
}

/// Claim (Figure 3): MLlib's executors wait on the driver; MLlib*'s never
/// do.
#[test]
fn fig3_wait_bars() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let cfg = TrainConfig {
        lr: LearningRate::Constant(0.05),
        max_rounds: 3,
        ..TrainConfig::default()
    };
    let ma = System::MllibMa.train_default(&ds, &cluster, &cfg);
    let waits_ma = ma
        .gantt
        .spans()
        .iter()
        .filter(|s| s.activity == Activity::Wait && matches!(s.node, NodeId::Executor(_)))
        .count();
    assert!(
        waits_ma > 0,
        "driver-centric rounds leave executors waiting"
    );

    let star = System::MllibStar.train_default(&ds, &cluster, &cfg);
    let exec_util: f64 = (0..8)
        .map(|r| star.gantt.utilization(NodeId::Executor(r)))
        .sum::<f64>()
        / 8.0;
    assert!(
        exec_util > 0.95,
        "MLlib* keeps executors busy (utilization {exec_util})"
    );
}

/// Claim (Section V-B2 / Figure 5a–d): with L2 = 0, MLlib* and Petuum*
/// converge to comparable objectives (both are parallel SGD + model
/// averaging).
#[test]
fn fig5_star_and_petuum_star_agree_without_reg() {
    let ds = dataset();
    let cluster = ClusterSpec::cluster1();
    let star = System::MllibStar.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            lr: LearningRate::Constant(0.05),
            max_rounds: 20,
            ..TrainConfig::default()
        },
    );
    let petuum = System::PetuumStar.train_default(
        &ds,
        &cluster,
        &TrainConfig {
            lr: LearningRate::Constant(0.05),
            batch_frac: 0.5,
            max_rounds: 60,
            ..TrainConfig::default()
        },
    );
    let f_star = star.trace.best_objective().unwrap();
    let f_petuum = petuum.trace.best_objective().unwrap();
    assert!(
        (f_star - f_petuum).abs() < 0.1,
        "comparable optima: MLlib* {f_star} vs Petuum* {f_petuum}"
    );
}

/// Claim (Section I / IV): the driver bottleneck worsens linearly with
/// the number of executors, while AllReduce's per-round latency stays
/// nearly flat — the structural reason MLlib* scales better.
#[test]
fn driver_bottleneck_grows_with_k_allreduce_does_not() {
    let dim = 500_000;
    let round_times = |k: usize| -> (f64, f64) {
        let cost = CostModel::new(ClusterSpec::uniform(
            k,
            NodeSpec::standard(),
            NetworkSpec::gbps1(),
        ));
        let exec: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
        let mut all = vec![NodeId::Driver];
        all.extend(exec.iter().copied());
        let locals: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(dim)).collect();

        let mut g1 = GanttRecorder::new();
        let driver = {
            let mut rb = RoundBuilder::new(&mut g1, 0, SimTime::ZERO, &all);
            broadcast_model(&mut rb, &cost, dim);
            tree_aggregate(&mut rb, &cost, &locals, 16, Activity::SendModel);
            rb.finish().as_secs_f64()
        };
        let mut g2 = GanttRecorder::new();
        let allreduce = {
            let mut rb = RoundBuilder::new(&mut g2, 0, SimTime::ZERO, &exec);
            all_reduce_average(&mut rb, &cost, &locals);
            rb.finish().as_secs_f64()
        };
        (driver, allreduce)
    };
    let (driver_4, allreduce_4) = round_times(4);
    let (driver_16, allreduce_16) = round_times(16);
    let driver_growth = driver_16 / driver_4;
    let allreduce_growth = allreduce_16 / allreduce_4;
    assert!(
        driver_growth > 3.0,
        "driver pattern grows ~linearly with k: {driver_growth}"
    );
    assert!(
        allreduce_growth < 1.5,
        "AllReduce per-round latency is nearly flat in k: {allreduce_growth}"
    );
}
