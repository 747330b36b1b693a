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
/// The driver sums the last level's vectors as into a zeroed vector, per
/// coordinate `((0 + a) + b) + …` in holder order, so a `-0.0` sum comes
/// out `+0.0`.
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
    tree_aggregate_with(rb, cost, inputs, fanin, send_activity, driver_sum)
}

/// [`tree_aggregate`] with the driver's work given as `driver`, which
/// takes the vectors of the last level, in holder order, whose sum
/// [`tree_aggregate`] returns, and returns what the driver makes of them.
/// A driver that needs only a function of that sum (MLlib's update step)
/// computes it in the pass that sums, and no sum vector is made.
///
/// # Panics
///
/// As [`tree_aggregate`].
pub fn tree_aggregate_with<T>(
    rb: &mut RoundBuilder<'_>,
    cost: &CostModel,
    inputs: &[DenseVector],
    fanin: usize,
    send_activity: Activity,
    driver: impl FnOnce(&mut dyn Iterator<Item = &DenseVector>) -> T,
) -> (T, usize) {
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
    for (sender_idx, _) in &holders {
        rb.work(
            NodeId::Executor(*sender_idx),
            send_activity,
            cost.transfer(bytes),
        );
        total_bytes += bytes;
    }
    let result = driver(&mut holders.iter().map(|(_, v)| v.as_ref()));
    let recv = cost.serialized_transfers(bytes, holders.len());
    let combine = cost.driver_compute(dense_op_flops(dim) * holders.len() as f64);
    rb.work(NodeId::Driver, Activity::TreeAggregate, recv + combine);
    rb.barrier();

    (result, total_bytes)
}

/// [`tree_aggregate`]'s driver: the sum of the last level's vectors as
/// into a zeroed vector, but without the zeroed vector — the first two
/// are summed in one pass.
///
/// # Panics
///
/// Panics if there are no vectors or their dimensions differ.
fn driver_sum(last: &mut dyn Iterator<Item = &DenseVector>) -> DenseVector {
    let Some(a) = last.next() else {
        panic!("nothing to aggregate");
    };
    let mut sum = match last.next() {
        Some(b) => {
            assert_eq!(a.dim(), b.dim(), "holder dimension mismatch");
            let pairs = a.as_slice().iter().zip(b.as_slice());
            DenseVector::from_vec(pairs.map(|(a, b)| (0.0 + a) + b).collect())
        }
        None => DenseVector::from_vec(a.as_slice().iter().map(|a| 0.0 + a).collect()),
    };
    for v in last {
        sum.axpy(1.0, v);
    }
    sum
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
    fn the_driver_sums_as_into_zeros_bit_for_bit() {
        // Every sign pattern of zeros and cancelling values across up to
        // three holders, summed straight at the driver (no tree level).
        let vals = [-0.0, 0.0, 1.5, -1.5];
        for k in 1..=3usize {
            let coords = vals.len().pow(k as u32);
            let vs: Vec<DenseVector> = (0..k)
                .map(|r| {
                    let pick = |c: usize| vals[c / vals.len().pow(r as u32) % vals.len()];
                    DenseVector::from_vec((0..coords).map(pick).collect())
                })
                .collect();
            let mut want = DenseVector::zeros(coords);
            for v in &vs {
                want.axpy(1.0, v);
            }
            let (mut g, cost, nodes) = harness(k);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            let (got, _) = tree_aggregate(&mut rb, &cost, &vs, 16, Activity::SendGradient);
            let bits =
                |v: &DenseVector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "k={k}");
            // A driver given the last level sees the inputs themselves, in
            // order, for the same bytes moved.
            let (mut g, cost, nodes) = harness(k);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            let addr = |v: &DenseVector| v.as_slice().as_ptr();
            let (last, bytes) =
                tree_aggregate_with(&mut rb, &cost, &vs, 16, Activity::SendGradient, |last| {
                    last.map(addr).collect::<Vec<_>>()
                });
            assert_eq!(last, vs.iter().map(addr).collect::<Vec<_>>(), "k={k}");
            assert_eq!(bytes, k * crate::wire::encoded_dense_len(coords));
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
