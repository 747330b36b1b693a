//! The AllGather phase of AllReduce (Algorithm 3's second shuffle).

use mlstar_linalg::DenseVector;
use mlstar_sim::{Activity, CostModel, NodeId, RoundBuilder};

/// Each partition owner broadcasts its (already averaged) partition to all
/// peers; afterwards every executor holds the full refreshed model.
///
/// As with Reduce-Scatter, all executors send concurrently over their own
/// links: the wall-clock cost per executor is `(k−1)` partition payloads.
///
/// Returns the reassembled model (identical on every executor — one copy
/// is returned) and the bytes moved (`(k−1)·m` overall).
///
/// # Panics
///
/// Panics if `parts.len() != cost.num_executors()`.
pub fn all_gather(
    rb: &mut RoundBuilder<'_>,
    cost: &CostModel,
    parts: &[DenseVector],
) -> (DenseVector, usize) {
    let k = cost.num_executors();
    assert_eq!(parts.len(), k, "one partition per executor required");
    let dim: usize = parts.iter().map(DenseVector::dim).sum();
    let max_part = parts.iter().map(DenseVector::dim).max().unwrap_or(0);
    let part_bytes = crate::wire::encoded_dense_len(max_part);

    // Data: concatenate partitions in owner order.
    let mut model = DenseVector::zeros(dim);
    let mut offset = 0;
    for part in parts {
        model.write_range(offset, part);
        offset += part.dim();
    }

    // Time: each owner ships its partition to k−1 peers and receives k−1
    // partitions; symmetric, fully parallel across links.
    for r in 0..k {
        rb.work(
            NodeId::Executor(r),
            Activity::AllGather,
            cost.serialized_transfers(part_bytes, k.saturating_sub(1)),
        );
    }
    rb.barrier();

    let moved = part_bytes * k.saturating_sub(1) * k;
    (model, moved)
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
        let nodes: Vec<NodeId> = (0..k).map(NodeId::Executor).collect();
        (GanttRecorder::new(), cost, nodes)
    }

    #[test]
    fn concatenates_partitions_in_order() {
        let parts = vec![
            DenseVector::from_vec(vec![1.0, 2.0]),
            DenseVector::from_vec(vec![3.0]),
            DenseVector::from_vec(vec![4.0, 5.0]),
        ];
        let (mut g, cost, nodes) = harness(3);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (model, bytes) = all_gather(&mut rb, &cost, &parts);
        assert_eq!(model.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(bytes, crate::wire::encoded_dense_len(2) * 2 * 3);
    }

    #[test]
    fn records_allgather_spans_for_every_executor() {
        let parts = vec![DenseVector::zeros(4); 4];
        let (mut g, cost, nodes) = harness(4);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        all_gather(&mut rb, &cost, &parts);
        rb.finish();
        let ag_spans = g
            .spans()
            .iter()
            .filter(|s| s.activity == Activity::AllGather)
            .count();
        assert_eq!(ag_spans, 4);
    }

    #[test]
    fn empty_partitions_yield_empty_model() {
        let parts = vec![DenseVector::zeros(0); 2];
        let (mut g, cost, nodes) = harness(2);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (model, _) = all_gather(&mut rb, &cost, &parts);
        assert_eq!(model.dim(), 0);
    }

    #[test]
    #[should_panic(expected = "one partition per executor")]
    fn wrong_partition_count_rejected() {
        let parts = vec![DenseVector::zeros(4); 3];
        let (mut g, cost, nodes) = harness(4);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let _ = all_gather(&mut rb, &cost, &parts);
    }
}
