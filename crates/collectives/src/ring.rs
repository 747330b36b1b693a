//! Ring AllReduce — the classic MPI algorithm of Thakur, Rabenseifner &
//! Gropp (the paper's reference [16] for the Reduce-Scatter / AllGather
//! terminology).
//!
//! MLlib\* implements AllReduce with two *direct* shuffles (every pair of
//! executors exchanges one message per phase — `O(1)` latency steps,
//! `k−1` payloads through each NIC). The ring variant instead walks the
//! partitions around a ring in `2(k−1)` steps of one partition each:
//! identical total traffic, lower per-step fan-out, but `2(k−1)` latency
//! terms. The fan-in ablation compares the two under different
//! latency/bandwidth mixes.

use mlstar_linalg::{partition_ranges, DenseVector};
use mlstar_sim::{dense_op_flops, Activity, CostModel, NodeId, RoundBuilder};

/// Averages one local model per executor with the ring algorithm:
/// `k−1` reduce-scatter steps followed by `k−1` all-gather steps, each
/// moving one model partition per node concurrently around the ring.
///
/// Returns the exact average and bytes moved (`2·(k−1)·k·part` — the same
/// `≈ 2km` as the direct-shuffle implementation).
///
/// # Panics
///
/// Panics if `locals.len() != cost.num_executors()` or inputs are empty.
pub fn ring_all_reduce_average(
    rb: &mut RoundBuilder<'_>,
    cost: &CostModel,
    locals: &[DenseVector],
) -> (DenseVector, usize) {
    let k = cost.num_executors();
    assert!(!locals.is_empty(), "nothing to reduce");
    assert_eq!(locals.len(), k, "one local model per executor required");
    let dim = locals[0].dim();

    // Data: the ring computes exactly the coordinate-wise average.
    let result = mlstar_linalg::average(locals);

    if k == 1 {
        return (result, 0);
    }

    let ranges = partition_ranges(dim, k);
    let part_bytes = crate::wire::partition_bytes(dim, k);
    let max_part = ranges.iter().map(|r| r.len()).max().unwrap_or(0);

    // Time: 2(k−1) ring steps. In each step every node sends one
    // partition to its successor and receives one from its predecessor —
    // fully parallel, so a step costs one partition transfer (+ combine
    // during the reduce phase).
    let reduce_step = cost.transfer(part_bytes);
    for r in 0..k {
        let combine = cost.executor_inline_compute(r, dense_op_flops(max_part) * (k - 1) as f64);
        let mut total = combine;
        for _ in 0..(k - 1) {
            total += reduce_step;
        }
        rb.work(NodeId::Executor(r), Activity::ReduceScatter, total);
    }
    rb.barrier();
    let gather_step = cost.transfer(part_bytes);
    for r in 0..k {
        let mut total = mlstar_sim::SimDuration::ZERO;
        for _ in 0..(k - 1) {
            total += gather_step;
        }
        rb.work(NodeId::Executor(r), Activity::AllGather, total);
    }
    rb.barrier();

    let moved = 2 * (k - 1) * k * part_bytes;
    (result, moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_linalg::average;
    use mlstar_sim::{ClusterSpec, GanttRecorder, NetworkSpec, NodeSpec, SimDuration, SimTime};

    fn harness(k: usize, latency_ms: u64) -> (GanttRecorder, CostModel, Vec<NodeId>) {
        let mut spec = ClusterSpec::uniform(k, NodeSpec::standard(), NetworkSpec::gbps1());
        spec.network.latency = SimDuration::from_millis(latency_ms);
        let cost = CostModel::new(spec);
        let nodes: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
        (GanttRecorder::new(), cost, nodes)
    }

    fn locals(k: usize, dim: usize) -> Vec<DenseVector> {
        (0..k)
            .map(|r| DenseVector::from_vec((0..dim).map(|i| ((r + 2) * (i + 1)) as f64).collect()))
            .collect()
    }

    #[test]
    fn computes_exact_average() {
        for k in [1usize, 2, 5, 8] {
            let vs = locals(k, 23);
            let want = average(&vs);
            let (mut g, cost, nodes) = harness(k, 1);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            let (got, _) = ring_all_reduce_average(&mut rb, &cost, &vs);
            for i in 0..23 {
                assert!((got.get(i) - want.get(i)).abs() < 1e-9, "k={k} coord {i}");
            }
        }
    }

    #[test]
    fn traffic_matches_direct_shuffle_implementation() {
        let k = 8;
        let dim = 4096;
        let vs = locals(k, dim);
        let ring_bytes = {
            let (mut g, cost, nodes) = harness(k, 1);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            ring_all_reduce_average(&mut rb, &cost, &vs).1
        };
        let direct_bytes = {
            let (mut g, cost, nodes) = harness(k, 1);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            crate::all_reduce_average(&mut rb, &cost, &vs).1
        };
        assert_eq!(ring_bytes, direct_bytes, "same 2(k−1)m traffic");
    }

    #[test]
    fn ring_pays_more_latency_direct_pays_more_fanout() {
        // High-latency network: the ring's 2(k−1) latency terms lose.
        let k = 8;
        let dim = 1000;
        let vs = locals(k, dim);
        let time = |ring: bool, latency_ms: u64| {
            let (mut g, cost, nodes) = harness(k, latency_ms);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            if ring {
                ring_all_reduce_average(&mut rb, &cost, &vs);
            } else {
                crate::all_reduce_average(&mut rb, &cost, &vs);
            }
            rb.finish().as_secs_f64()
        };
        let ring_hl = time(true, 50);
        let direct_hl = time(false, 50);
        assert!(
            ring_hl > direct_hl,
            "high latency favors direct: ring {ring_hl}s vs direct {direct_hl}s"
        );
    }

    #[test]
    fn single_executor_is_free() {
        let vs = locals(1, 10);
        let (mut g, cost, nodes) = harness(1, 1);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (got, bytes) = ring_all_reduce_average(&mut rb, &cost, &vs);
        assert_eq!(bytes, 0);
        assert_eq!(got.as_slice(), vs[0].as_slice());
    }

    #[test]
    #[should_panic(expected = "one local model per executor")]
    fn wrong_count_rejected() {
        let (mut g, cost, nodes) = harness(4, 1);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let vs = locals(3, 8);
        let _ = ring_all_reduce_average(&mut rb, &cost, &vs);
    }
}
