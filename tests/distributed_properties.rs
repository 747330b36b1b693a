//! Property-based integration tests on distributed-training invariants.

use mllib_star::collectives::{all_reduce_average, wire};
use mllib_star::core::{System, TrainConfig};
use mllib_star::data::{Partitioner, SyntheticConfig};
use mllib_star::glm::{objective_value, LearningRate, Loss, Regularizer};
use mllib_star::linalg::{average, DenseVector};
use mllib_star::sim::{
    ClusterSpec, CostModel, GanttRecorder, NetworkSpec, NodeId, NodeSpec, RoundBuilder, SimTime,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AllReduce must compute exactly the coordinate-wise average of the
    /// local models, for any cluster width and dimension.
    #[test]
    fn allreduce_equals_average(
        k in 1usize..10,
        dim in 1usize..60,
        seed in 0u64..1000,
    ) {
        let mut rng_state = seed;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let locals: Vec<DenseVector> = (0..k)
            .map(|_| DenseVector::from_vec((0..dim).map(|_| next()).collect()))
            .collect();
        let cost = CostModel::new(ClusterSpec::uniform(k, NodeSpec::standard(), NetworkSpec::gbps1()));
        let nodes: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
        let mut gantt = GanttRecorder::new();
        let mut rb = RoundBuilder::new(&mut gantt, 0, SimTime::ZERO, &nodes);
        let (got, bytes) = all_reduce_average(&mut rb, &cost, &locals);
        let want = average(&locals);
        for i in 0..dim {
            prop_assert!((got.get(i) - want.get(i)).abs() < 1e-9);
        }
        // Traffic invariant: 2·(k−1) partition payloads per executor — the
        // paper's "total amount of data remains 2km" claim (modulo frame
        // headers, which dominate only when dim ≪ k).
        prop_assert_eq!(bytes, 2 * (k - 1) * k * wire::partition_bytes(dim, k));
        if dim >= 16 * k {
            prop_assert!(bytes <= 2 * k * wire::encoded_dense_len(dim) + 32 * k * k);
        }
    }

    /// Any partitioner assigns every row exactly once, for any (n, k).
    #[test]
    fn partitioners_cover_exactly(
        n in 0usize..200,
        k in 1usize..12,
        seed in 0u64..100,
    ) {
        for p in [
            Partitioner::Contiguous,
            Partitioner::RoundRobin,
            Partitioner::Shuffled { seed },
        ] {
            let parts = p.partition(n, k);
            prop_assert_eq!(parts.len(), k);
            let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    /// Simulated time is monotone along every trace, and objectives stay
    /// finite, across systems/seeds/regularizers.
    #[test]
    fn traces_are_monotone_and_finite(
        seed in 0u64..50,
        lambda in prop_oneof![Just(0.0), Just(0.05)],
    ) {
        let ds = SyntheticConfig::small("prop", 120, 24).with_seed(seed).generate();
        let cluster = ClusterSpec::uniform(4, NodeSpec::standard(), NetworkSpec::gbps1());
        let cfg = TrainConfig {
            reg: Regularizer::l2(lambda),
            lr: LearningRate::Constant(0.05),
            max_rounds: 4,
            seed,
            ..TrainConfig::default()
        };
        let out = System::MllibStar.train_default(&ds, &cluster, &cfg);
        let mut prev_time = None;
        for p in &out.trace.points {
            prop_assert!(p.objective.is_finite());
            if let Some(prev) = prev_time {
                prop_assert!(p.time > prev, "time must strictly advance");
            }
            prev_time = Some(p.time);
        }
    }

    /// Model averaging of a convex objective never exceeds the mean of the
    /// local objectives (Jensen): the averaged model's objective is bounded
    /// by the worst local model's objective.
    #[test]
    fn averaged_model_no_worse_than_worst_local(seed in 0u64..30) {
        let ds = SyntheticConfig::small("jensen", 100, 20).with_seed(seed).generate();
        // Build k local models by perturbing a base model.
        let k = 4;
        let dim = ds.num_features();
        let mut locals = Vec::new();
        for r in 0..k {
            let mut w = DenseVector::zeros(dim);
            for i in 0..dim {
                w.set(i, ((seed as f64) * 0.01 + (r as f64) - 1.5) * ((i % 5) as f64) * 0.02);
            }
            locals.push(w);
        }
        let avg = average(&locals);
        let f_avg = objective_value(Loss::Hinge, Regularizer::None, &avg, ds.rows(), ds.labels());
        let worst = locals
            .iter()
            .map(|w| objective_value(Loss::Hinge, Regularizer::None, w, ds.rows(), ds.labels()))
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(f_avg <= worst + 1e-9, "Jensen violated: {} > {}", f_avg, worst);
    }

    /// MLlib+MA and MLlib* agree step-for-step for any seed (AllReduce is
    /// an execution-plan change, not an algorithm change).
    #[test]
    fn ma_and_star_agree_for_any_seed(seed in 0u64..30) {
        let ds = SyntheticConfig::small("agree", 96, 16).with_seed(seed).generate();
        let cluster = ClusterSpec::uniform(3, NodeSpec::standard(), NetworkSpec::gbps1());
        let cfg = TrainConfig {
            lr: LearningRate::Constant(0.05),
            max_rounds: 3,
            seed,
            ..TrainConfig::default()
        };
        let ma = System::MllibMa.train_default(&ds, &cluster, &cfg);
        let star = System::MllibStar.train_default(&ds, &cluster, &cfg);
        for (a, b) in ma.trace.points.iter().zip(star.trace.points.iter()) {
            prop_assert!((a.objective - b.objective).abs() < 1e-9);
        }
    }
}
