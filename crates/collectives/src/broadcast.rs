//! Driver → executors model broadcast (the first arrow of Figure 2a).

use mlstar_sim::{Activity, CostModel, NodeId, RoundBuilder};

/// Broadcasts a model of `dim` coordinates from the driver to every
/// executor.
///
/// All `k` payloads serialize through the driver's NIC — this is the
/// structural driver bottleneck of MLlib's pattern (Section IV-A of the
/// paper). Executors idle (Wait spans) until the broadcast completes.
///
/// Returns the number of bytes moved (`k · m`).
pub fn broadcast_model(rb: &mut RoundBuilder<'_>, cost: &CostModel, dim: usize) -> usize {
    let k = cost.num_executors();
    let bytes = crate::wire::encoded_dense_len(dim);
    rb.work(
        NodeId::Driver,
        Activity::Broadcast,
        cost.serialized_transfers(bytes, k),
    );
    rb.barrier();
    bytes * k
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

    #[test]
    fn moves_k_times_model_bytes() {
        let (mut g, cost, nodes) = harness(8);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let moved = broadcast_model(&mut rb, &cost, 1000);
        assert_eq!(moved, 8 * crate::wire::encoded_dense_len(1000));
    }

    #[test]
    fn duration_scales_with_executor_count() {
        let time_for = |k: usize| {
            let (mut g, cost, nodes) = harness(k);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            broadcast_model(&mut rb, &cost, 1_000_000);
            rb.finish().as_secs_f64()
        };
        let t2 = time_for(2);
        let t8 = time_for(8);
        assert!(t8 > 3.5 * t2, "driver NIC serializes: {t2} vs {t8}");
    }

    #[test]
    fn executors_wait_during_broadcast() {
        let (mut g, cost, nodes) = harness(4);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        broadcast_model(&mut rb, &cost, 100_000);
        rb.finish();
        let waits = g
            .spans()
            .iter()
            .filter(|s| s.activity == Activity::Wait)
            .count();
        assert_eq!(waits, 4, "every executor idles while the driver sends");
        assert!(g.busy_time(NodeId::Driver) > 0.0);
    }
}
