//! Cross-collective equivalence: every aggregation route computes the
//! same average, and the wire encoding is consistent with the size model.

use mlstar_collectives::{
    all_reduce_average, broadcast_model, ring_all_reduce_average, tree_aggregate, wire,
};
use mlstar_linalg::{average, DenseVector};
use mlstar_sim::{
    Activity, ClusterSpec, CostModel, GanttRecorder, NetworkSpec, NodeId, NodeSpec, RoundBuilder,
    SimTime,
};
use proptest::prelude::*;

fn harness(k: usize) -> (CostModel, Vec<NodeId>, Vec<NodeId>) {
    let cost = CostModel::new(ClusterSpec::uniform(
        k,
        NodeSpec::standard(),
        NetworkSpec::gbps1(),
    ));
    let exec: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
    let mut all = vec![NodeId::Driver];
    all.extend(exec.iter().copied());
    (cost, all, exec)
}

fn vectors(k: usize, dim: usize, seed: u64) -> Vec<DenseVector> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..k)
        .map(|_| DenseVector::from_vec((0..dim).map(|_| next()).collect()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Direct-shuffle AllReduce, ring AllReduce, and driver-side
    /// treeAggregate-then-average all compute the same result.
    #[test]
    fn all_aggregation_routes_agree(
        k in 1usize..10,
        dim in 1usize..50,
        seed in 0u64..1000,
        fanin in 2usize..6,
    ) {
        let vs = vectors(k, dim, seed);
        let want = average(&vs);

        let (cost, all, exec) = harness(k);
        let direct = {
            let mut g = GanttRecorder::new();
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &exec);
            all_reduce_average(&mut rb, &cost, &vs).0
        };
        let ring = {
            let mut g = GanttRecorder::new();
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &exec);
            ring_all_reduce_average(&mut rb, &cost, &vs).0
        };
        let tree = {
            let mut g = GanttRecorder::new();
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &all);
            let (mut sum, _) = tree_aggregate(&mut rb, &cost, &vs, fanin, Activity::SendModel);
            sum.scale(1.0 / k as f64);
            sum
        };
        for i in 0..dim {
            prop_assert!((direct.get(i) - want.get(i)).abs() < 1e-9);
            prop_assert!((ring.get(i) - want.get(i)).abs() < 1e-9);
            prop_assert!((tree.get(i) - want.get(i)).abs() < 1e-9);
        }
    }

    /// Broadcast bytes follow the size model, and wire frames of the same
    /// model have exactly the modeled size.
    #[test]
    fn sizes_are_consistent(k in 1usize..10, dim in 0usize..200) {
        let (cost, all, _) = harness(k);
        let mut g = GanttRecorder::new();
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &all);
        let moved = broadcast_model(&mut rb, &cost, dim);
        prop_assert_eq!(moved, k * wire::encoded_dense_len(dim));
        let frame = wire::encode_dense(&DenseVector::zeros(dim));
        prop_assert_eq!(frame.len(), wire::encoded_dense_len(dim));
    }

    /// Gantt spans recorded by a full round are well-formed: per-node
    /// non-overlapping, all within [0, finish].
    #[test]
    fn round_spans_are_well_formed(k in 1usize..8, dim in 1usize..40, seed in 0u64..100) {
        let vs = vectors(k, dim, seed);
        let (cost, _, exec) = harness(k);
        let mut g = GanttRecorder::new();
        let finish = {
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &exec);
            all_reduce_average(&mut rb, &cost, &vs);
            rb.finish()
        };
        for node in g.nodes() {
            let mut spans: Vec<_> = g.spans().iter().filter(|s| s.node == node).collect();
            spans.sort_by_key(|s| s.start);
            for w in spans.windows(2) {
                prop_assert!(w[0].end <= w[1].start);
            }
            for s in spans {
                prop_assert!(s.end <= finish);
            }
        }
    }
}
