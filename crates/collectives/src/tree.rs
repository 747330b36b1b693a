//! Hierarchical aggregation — MLlib's `treeAggregate`.

use std::borrow::Cow;

use mlstar_linalg::DenseVector;
use mlstar_sim::{dense_op_flops, Activity, CostModel, NodeId, RoundBuilder};

/// Aggregates (sums) one dense vector per executor up to the driver using
/// MLlib's hierarchical `treeAggregate` scheme.
///
/// With fan-in `f`, executors are grouped into chunks of `f`; the first
/// member of each chunk acts as the intermediate aggregator (receiving the
/// other members' vectors through its NIC and summing them), and levels
/// repeat until at most `f` holders remain, which then send to the driver.
/// `fanin >= k` degenerates to direct driver aggregation (no tree) — the
/// configuration whose driver latency the paper calls out as "even worse
/// without this hierarchical scheme".
///
/// `send_activity` labels the executor-side send spans
/// ([`Activity::SendGradient`] for MLlib, [`Activity::SendModel`] for
/// MLlib + model averaging).
///
/// Returns the exact sum and the bytes moved. Only group leaders' vectors
/// are cloned, so the direct (no-tree) case performs no copies at all.
///
/// # Panics
///
/// Panics if `inputs.len() != cost.num_executors()`, inputs are empty, or
/// `fanin < 2`.
pub fn tree_aggregate(
    rb: &mut RoundBuilder<'_>,
    cost: &CostModel,
    inputs: &[DenseVector],
    fanin: usize,
    send_activity: Activity,
) -> (DenseVector, usize) {
    assert!(!inputs.is_empty(), "nothing to aggregate");
    assert_eq!(
        inputs.len(),
        cost.num_executors(),
        "one input vector per executor required"
    );
    assert!(fanin >= 2, "fan-in must be at least 2");
    let dim = inputs[0].dim();
    let bytes = crate::wire::encoded_dense_len(dim);
    let mut total_bytes = 0usize;

    // (executor index, partial sum) for every current holder. Borrowed at
    // level 0; owned once a holder has actually aggregated something.
    let mut holders: Vec<(usize, Cow<'_, DenseVector>)> = inputs
        .iter()
        .enumerate()
        .map(|(i, v)| (i, Cow::Borrowed(v)))
        .collect();

    // Tree levels among executors.
    while holders.len() > fanin {
        let prev = std::mem::take(&mut holders);
        let mut iter = prev.into_iter().peekable();
        while iter.peek().is_some() {
            let group: Vec<(usize, Cow<'_, DenseVector>)> = iter.by_ref().take(fanin).collect();
            let agg_idx = group[0].0;
            let mut acc = group[0].1.clone().into_owned();
            let senders = &group[1..];
            for (sender_idx, v) in senders {
                rb.work(
                    NodeId::Executor(*sender_idx),
                    send_activity,
                    cost.transfer(bytes),
                );
                acc.axpy(1.0, v);
                total_bytes += bytes;
            }
            if !senders.is_empty() {
                // The aggregator receives `senders` payloads through its
                // NIC and folds them in.
                let recv = cost.serialized_transfers(bytes, senders.len());
                let combine = cost
                    .executor_inline_compute(agg_idx, dense_op_flops(dim) * senders.len() as f64);
                rb.work(
                    NodeId::Executor(agg_idx),
                    Activity::TreeAggregate,
                    recv + combine,
                );
            }
            holders.push((agg_idx, Cow::Owned(acc)));
        }
        rb.barrier();
    }

    // Final level: remaining holders send to the driver.
    let mut result = DenseVector::zeros(dim);
    for (sender_idx, v) in &holders {
        rb.work(
            NodeId::Executor(*sender_idx),
            send_activity,
            cost.transfer(bytes),
        );
        result.axpy(1.0, v);
        total_bytes += bytes;
    }
    let recv = cost.serialized_transfers(bytes, holders.len());
    let combine = cost.driver_compute(dense_op_flops(dim) * holders.len() as f64);
    rb.work(NodeId::Driver, Activity::TreeAggregate, recv + combine);
    rb.barrier();

    (result, total_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_sim::{ClusterSpec, GanttRecorder, NetworkSpec, NodeSpec, SimTime};

    fn harness(k: usize) -> (GanttRecorder, CostModel, Vec<NodeId>) {
        let cost = CostModel::new(ClusterSpec::uniform(
            k,
            NodeSpec::standard(),
            NetworkSpec::gbps1(),
        ));
        let mut nodes = vec![NodeId::Driver];
        nodes.extend((0..k).map(NodeId::Executor));
        (GanttRecorder::new(), cost, nodes)
    }

    fn inputs(k: usize, dim: usize) -> Vec<DenseVector> {
        (0..k)
            .map(|r| DenseVector::from_vec((0..dim).map(|i| (r * dim + i) as f64).collect()))
            .collect()
    }

    fn expected_sum(vs: &[DenseVector]) -> DenseVector {
        mlstar_linalg::sum(vs)
    }

    #[test]
    fn sums_exactly_regardless_of_fanin() {
        for k in [2usize, 4, 8, 9] {
            let vs = inputs(k, 5);
            let want = expected_sum(&vs);
            for fanin in [2usize, 3, 16] {
                let (mut g, cost, nodes) = harness(k);
                let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
                let (got, _) = tree_aggregate(&mut rb, &cost, &vs, fanin, Activity::SendGradient);
                assert_eq!(got.as_slice(), want.as_slice(), "k={k} fanin={fanin}");
            }
        }
    }

    #[test]
    fn moves_k_times_model_bytes_total() {
        // Every executor's vector crosses the network exactly once on its
        // way to the driver (possibly via aggregators): k·m bytes... except
        // aggregator-held partials hop twice. For fanin >= k it is exactly
        // k·m.
        let k = 8;
        let vs = inputs(k, 100);
        let (mut g, cost, nodes) = harness(k);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (_, bytes) = tree_aggregate(&mut rb, &cost, &vs, 16, Activity::SendGradient);
        assert_eq!(bytes, k * crate::wire::encoded_dense_len(100));
    }

    #[test]
    fn tree_reduces_driver_serialization() {
        let k = 8;
        let dim = 1_000_000;
        let vs: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(dim)).collect();

        let direct = {
            let (mut g, cost, nodes) = harness(k);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            tree_aggregate(&mut rb, &cost, &vs, 16, Activity::SendGradient);
            rb.finish();
            g.busy_time(NodeId::Driver)
        };
        let tree = {
            let (mut g, cost, nodes) = harness(k);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            tree_aggregate(&mut rb, &cost, &vs, 2, Activity::SendGradient);
            rb.finish();
            g.busy_time(NodeId::Driver)
        };
        assert!(
            tree < direct * 0.5,
            "hierarchical aggregation relieves the driver: tree {tree} vs direct {direct}"
        );
    }

    #[test]
    fn intermediate_aggregators_appear_for_small_fanin() {
        let k = 8;
        let vs = inputs(k, 10);
        let (mut g, cost, nodes) = harness(k);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        tree_aggregate(&mut rb, &cost, &vs, 2, Activity::SendGradient);
        rb.finish();
        let executor_aggs = g
            .spans()
            .iter()
            .filter(|s| s.activity == Activity::TreeAggregate && s.node != NodeId::Driver)
            .count();
        assert!(
            executor_aggs > 0,
            "fanin 2 must use intermediate aggregators"
        );
    }

    #[test]
    fn deep_tree_multiple_levels() {
        // 9 executors at fan-in 2 forces ⌈log₂⌉ > 1 levels; exactness and
        // per-level barriers must hold.
        let k = 9;
        let vs = inputs(k, 7);
        let want = expected_sum(&vs);
        let (mut g, cost, nodes) = harness(k);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (got, _) = tree_aggregate(&mut rb, &cost, &vs, 2, Activity::SendModel);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    #[should_panic(expected = "fan-in")]
    fn fanin_one_rejected() {
        let (mut g, cost, nodes) = harness(2);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let vs = inputs(2, 4);
        let _ = tree_aggregate(&mut rb, &cost, &vs, 1, Activity::SendGradient);
    }

    #[test]
    #[should_panic(expected = "one input vector per executor")]
    fn wrong_input_count_rejected() {
        let (mut g, cost, nodes) = harness(4);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let vs = inputs(3, 4);
        let _ = tree_aggregate(&mut rb, &cost, &vs, 2, Activity::SendGradient);
    }
}
