//! AllReduce = Reduce-Scatter + AllGather (Figure 2b, Algorithm 3).

use mlstar_linalg::{partition_ranges, DenseVector};
use mlstar_sim::{dense_op_flops, Activity, CostModel, NodeId, RoundBuilder};

use crate::compress::{compress_update, CompressionConfig};

/// The Reduce-Scatter phase: each executor owns one contiguous model
/// partition; every executor sends the partitions it does *not* own to
/// their owners, and each owner averages the `k` copies of its partition.
///
/// All executors send and receive concurrently over their own links, so
/// the wall-clock cost per executor is `(k−1)` partition payloads through
/// its NIC — there is no central bottleneck.
///
/// Returns the averaged partitions (indexed by owner) and bytes moved
/// (`(k−1)·m` overall).
///
/// # Panics
///
/// Panics if `locals.len() != cost.num_executors()` or inputs are empty.
pub fn reduce_scatter_average(
    rb: &mut RoundBuilder<'_>,
    cost: &CostModel,
    locals: &[DenseVector],
) -> (Vec<DenseVector>, usize) {
    let k = cost.num_executors();
    assert!(!locals.is_empty(), "nothing to reduce");
    assert_eq!(locals.len(), k, "one local model per executor required");
    let dim = locals[0].dim();
    let ranges = partition_ranges(dim, k);
    let part_bytes = crate::wire::partition_bytes(dim, k);
    let inv_k = 1.0 / k as f64;

    // Data: owner r averages slice ranges[r] over all local models.
    let mut owned: Vec<DenseVector> = Vec::with_capacity(k);
    for range in &ranges {
        let mut acc = DenseVector::zeros(range.len());
        for local in locals {
            // `1.0 * x` keeps the float ops of an axpy with α = 1.
            let part = &local.as_slice()[range.clone()];
            for (a, x) in acc.as_mut_slice().iter_mut().zip(part) {
                *a += 1.0 * x;
            }
        }
        acc.scale(inv_k);
        owned.push(acc);
    }

    // Time: every executor simultaneously ships k−1 partitions out and
    // folds k−1 incoming copies of its own partition.
    for (r, range) in ranges.iter().enumerate() {
        let send_recv = cost.serialized_transfers(part_bytes, k.saturating_sub(1));
        let combine = cost.executor_inline_compute(
            r,
            dense_op_flops(range.len()) * (k.saturating_sub(1)) as f64,
        );
        rb.work(
            NodeId::Executor(r),
            Activity::ReduceScatter,
            send_recv + combine,
        );
    }
    rb.barrier();

    let moved = part_bytes * k.saturating_sub(1) * k;
    (owned, moved)
}

/// Composes [`reduce_scatter_average`] and [`crate::all_gather`]: the full
/// AllReduce of MLlib\*, returning the globally averaged model (identical
/// on every executor) and total bytes moved (`≈ 2·k·m`, matching the
/// paper's invariant that AllReduce does not increase traffic over the
/// driver-centric pattern).
pub fn all_reduce_average(
    rb: &mut RoundBuilder<'_>,
    cost: &CostModel,
    locals: &[DenseVector],
) -> (DenseVector, usize) {
    let (parts, b1) = reduce_scatter_average(rb, cost, locals);
    let (model, b2) = crate::all_gather(rb, cost, &parts);
    (model, b1 + b2)
}

/// Compressed AllReduce: every executor compresses its (error-feedback
/// compensated) local model via [`compress_update`] and exchanges the
/// resulting frames all-to-all in a single phase; each executor decodes
/// all `k` frames and averages them.
///
/// Because every peer decodes the *same* frames and folds them in the
/// same worker order, the result is identical on every executor, and
/// with the lossless policy ([`crate::Sparsifier::Exact`], no
/// quantization) it is bit-identical to [`all_reduce_average`] — the
/// fold order per coordinate is the same.
///
/// `residuals` holds one error-feedback accumulator per worker (pass the
/// same vector across rounds; it is (re)initialised to `k` zero vectors
/// on dimension or count mismatch). When `cfg.error_feedback` is on,
/// each worker transmits `local + residual` and keeps the mass the wire
/// lost (`compensated − decoded`) for the next round, so lossy
/// compression delays gradient mass instead of discarding it.
///
/// Returns the averaged model and total bytes moved — the sum of the
/// *actual* encoded frame lengths, each shipped to `k−1` peers.
///
/// # Panics
///
/// Panics if `locals.len() != cost.num_executors()` or inputs are empty.
pub fn compressed_all_reduce_average(
    rb: &mut RoundBuilder<'_>,
    cost: &CostModel,
    locals: &[DenseVector],
    cfg: &CompressionConfig,
    residuals: &mut Vec<DenseVector>,
) -> (DenseVector, usize) {
    let k = cost.num_executors();
    assert!(!locals.is_empty(), "nothing to reduce");
    assert_eq!(locals.len(), k, "one local model per executor required");
    let dim = locals[0].dim();
    let inv_k = 1.0 / k as f64;

    if cfg.error_feedback && (residuals.len() != k || residuals.iter().any(|r| r.dim() != dim)) {
        *residuals = (0..k).map(|_| DenseVector::zeros(dim)).collect();
    }

    // Data: compress each worker's compensated update and remember what
    // the receivers will decode from its frame.
    let mut frame_lens = Vec::with_capacity(k);
    let mut decoded = Vec::with_capacity(k);
    for (r, local) in locals.iter().enumerate() {
        let mut compensated = local.clone();
        if cfg.error_feedback {
            compensated.axpy(1.0, &residuals[r]);
        }
        let enc = compress_update(&compensated, cfg);
        if cfg.error_feedback {
            let res = &mut residuals[r];
            res.copy_from(&compensated);
            res.axpy(-1.0, &enc.decoded);
            // A diverged (non-finite) update ships dense and lossless;
            // its NaN − NaN residual would poison later rounds.
            if !res.is_finite() {
                res.clear();
            }
        }
        frame_lens.push(enc.frame.len());
        decoded.push(enc.decoded);
    }
    let total_frame_bytes: usize = frame_lens.iter().sum();

    // Time: one all-to-all phase. Executor r pushes its frame to k−1
    // peers through its NIC and pulls every other frame in; the NIC
    // serializes whichever direction dominates. Each executor then folds
    // the k decoded vectors locally.
    for (r, &len) in frame_lens.iter().enumerate() {
        let outbound = len * k.saturating_sub(1);
        let inbound = total_frame_bytes - len;
        let exchange = cost.serialized_transfer_total(outbound.max(inbound));
        let combine =
            cost.executor_inline_compute(r, dense_op_flops(dim) * (k.saturating_sub(1)) as f64);
        rb.work(NodeId::Executor(r), Activity::AllGather, exchange + combine);
    }
    rb.barrier();

    // Every executor folds the same frames in worker order, so one fold
    // stands for all of them.
    let mut acc = DenseVector::zeros(dim);
    for d in &decoded {
        acc.axpy(1.0, d);
    }
    acc.scale(inv_k);

    let moved: usize = frame_lens.iter().map(|len| len * k.saturating_sub(1)).sum();
    (acc, moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_linalg::average;
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

    fn locals(k: usize, dim: usize) -> Vec<DenseVector> {
        (0..k)
            .map(|r| DenseVector::from_vec((0..dim).map(|i| ((r + 1) * (i + 1)) as f64).collect()))
            .collect()
    }

    #[test]
    fn reduce_scatter_partitions_hold_the_average() {
        for k in [2usize, 3, 8] {
            for dim in [7usize, 16, 33] {
                let vs = locals(k, dim);
                let want = average(&vs);
                let (mut g, cost, nodes) = harness(k);
                let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
                let (parts, _) = reduce_scatter_average(&mut rb, &cost, &vs);
                let ranges = partition_ranges(dim, k);
                for (r, range) in ranges.iter().enumerate() {
                    for (offset, i) in range.clone().enumerate() {
                        assert!(
                            (parts[r].get(offset) - want.get(i)).abs() < 1e-9,
                            "k={k} dim={dim} owner={r} coord={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_reduce_returns_exact_average() {
        let k = 8;
        let dim = 50;
        let vs = locals(k, dim);
        let want = average(&vs);
        let (mut g, cost, nodes) = harness(k);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (got, _) = all_reduce_average(&mut rb, &cost, &vs);
        for i in 0..dim {
            assert!((got.get(i) - want.get(i)).abs() < 1e-9, "coord {i}");
        }
    }

    #[test]
    fn traffic_is_roughly_2km() {
        let k = 8;
        let dim = 8000; // divisible by k so partitions are exact
        let vs = locals(k, dim);
        let (mut g, cost, nodes) = harness(k);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (_, bytes) = all_reduce_average(&mut rb, &cost, &vs);
        // Exactly 2·(k−1)·m (each of the two shuffle phases moves k−1
        // partition payloads per executor); the paper rounds this to 2km.
        let m = crate::wire::encoded_dense_len(dim) as f64;
        let expected = 2 * (k - 1) * k * crate::wire::partition_bytes(dim, k);
        assert_eq!(bytes, expected);
        let ratio = bytes as f64 / (2.0 * k as f64 * m);
        assert!(
            ratio > 0.8 && ratio <= 1.0,
            "AllReduce traffic should be ≈ 2km and never more: ratio {ratio}"
        );
    }

    #[test]
    fn no_driver_participation() {
        let k = 4;
        let vs = locals(k, 40);
        let (mut g, cost, nodes) = harness(k);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        all_reduce_average(&mut rb, &cost, &vs);
        rb.finish();
        assert_eq!(
            g.busy_time(NodeId::Driver),
            0.0,
            "AllReduce removes the driver from the critical path"
        );
    }

    #[test]
    fn latency_beats_driver_pattern_for_large_models() {
        // The paper's headline structural claim: same traffic, much lower
        // latency, because nothing serializes through one NIC.
        let k = 8;
        let dim = 1_000_000;
        let vs: Vec<DenseVector> = (0..k).map(|_| DenseVector::zeros(dim)).collect();

        let allreduce_time = {
            let (mut g, cost, nodes) = harness(k);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            all_reduce_average(&mut rb, &cost, &vs);
            rb.finish().as_secs_f64()
        };
        let driver_time = {
            let (mut g, cost, nodes) = harness(k);
            let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
            let (_sum, _) = crate::tree_aggregate(&mut rb, &cost, &vs, 2, Activity::SendModel);
            crate::broadcast_model(&mut rb, &cost, dim);
            rb.finish().as_secs_f64()
        };
        assert!(
            allreduce_time < driver_time * 0.7,
            "AllReduce {allreduce_time}s vs driver pattern {driver_time}s"
        );
    }

    #[test]
    #[should_panic(expected = "one local model per executor")]
    fn wrong_count_rejected() {
        let (mut g, cost, nodes) = harness(4);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let vs = locals(2, 10);
        let _ = reduce_scatter_average(&mut rb, &cost, &vs);
    }

    #[test]
    fn single_executor_degenerates_gracefully() {
        let (mut g, cost, nodes) = harness(1);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let vs = locals(1, 10);
        let (got, bytes) = all_reduce_average(&mut rb, &cost, &vs);
        assert_eq!(got.as_slice(), vs[0].as_slice());
        assert_eq!(bytes, 0, "one executor moves nothing");
    }

    fn bits(v: &DenseVector) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn sparse_locals(k: usize, dim: usize) -> Vec<DenseVector> {
        (0..k)
            .map(|r| {
                let mut v = DenseVector::zeros(dim);
                for j in 0..5 {
                    v.set((r * 7 + j * 13) % dim, (r + j + 1) as f64 * 0.25);
                }
                v
            })
            .collect()
    }

    #[test]
    fn compressed_exact_is_bit_identical_to_dense_allreduce() {
        let k = 4;
        let dim = 500;
        let vs = sparse_locals(k, dim);
        let cfg = CompressionConfig {
            switch: crate::FrameSwitch::Adaptive,
            ..CompressionConfig::default()
        };

        let (mut g1, cost1, nodes1) = harness(k);
        let mut rb = RoundBuilder::new(&mut g1, 0, SimTime::ZERO, &nodes1);
        let (dense_model, dense_bytes) = all_reduce_average(&mut rb, &cost1, &vs);

        let (mut g2, cost2, nodes2) = harness(k);
        let mut rb = RoundBuilder::new(&mut g2, 0, SimTime::ZERO, &nodes2);
        let mut residuals = Vec::new();
        let (model, bytes) =
            compressed_all_reduce_average(&mut rb, &cost2, &vs, &cfg, &mut residuals);

        assert_eq!(bits(&model), bits(&dense_model));
        assert!(
            bytes < dense_bytes,
            "sparse frames should undercut the dense 2km: {bytes} vs {dense_bytes}"
        );
        // Lossless policy leaves no residual mass behind.
        for r in &residuals {
            assert_eq!(r.norm1(), 0.0);
        }
    }

    #[test]
    fn compressed_bytes_are_the_actual_frame_lengths() {
        let k = 3;
        let dim = 400;
        let vs = sparse_locals(k, dim);
        let cfg = CompressionConfig {
            switch: crate::FrameSwitch::Adaptive,
            ..CompressionConfig::default()
        };
        let (mut g, cost, nodes) = harness(k);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let mut residuals = Vec::new();
        let (_, bytes) = compressed_all_reduce_average(&mut rb, &cost, &vs, &cfg, &mut residuals);
        let expected: usize = vs
            .iter()
            .map(|v| crate::wire::encode_adaptive(v, crate::FrameSwitch::Adaptive).len() * (k - 1))
            .sum();
        assert_eq!(bytes, expected);
    }

    #[test]
    fn error_feedback_reinjects_dropped_mass() {
        let k = 2;
        let dim = 100;
        let cfg = CompressionConfig {
            switch: crate::FrameSwitch::Adaptive,
            sparsifier: crate::Sparsifier::TopK { k: 1 },
            error_feedback: true,
            ..CompressionConfig::default()
        };
        // Worker 0 repeatedly offers [4, 2, 1, ...]; top-1 ships only the
        // 4 the first round, but feedback must surface the 2 next round.
        let mut v0 = DenseVector::zeros(dim);
        v0.set(0, 4.0);
        v0.set(1, 2.0);
        v0.set(2, 1.0);
        let vs = vec![v0, DenseVector::zeros(dim)];

        let mut residuals = Vec::new();
        let (mut g, cost, nodes) = harness(k);

        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let (m1, _) = compressed_all_reduce_average(&mut rb, &cost, &vs, &cfg, &mut residuals);
        assert_eq!(m1.get(0), 2.0, "largest coordinate ships immediately");
        assert_eq!(m1.get(1), 0.0, "smaller coordinate deferred");
        assert_eq!(residuals[0].get(1), 2.0, "deferred mass is remembered");

        let mut rb = RoundBuilder::new(&mut g, 1, SimTime::ZERO, &nodes);
        let (m2, _) = compressed_all_reduce_average(&mut rb, &cost, &vs, &cfg, &mut residuals);
        // Round 2 compensated input is [4, 4, 2] (fresh update plus the
        // deferred mass); the index-0 four ships on the tie and the rest
        // stays queued — nothing is ever discarded.
        assert_eq!(m2.get(0), 2.0);
        assert_eq!(residuals[0].get(1), 4.0);
        assert_eq!(residuals[0].get(2), 2.0);
    }

    #[test]
    fn compressed_single_executor_degenerates_gracefully() {
        let (mut g, cost, nodes) = harness(1);
        let mut rb = RoundBuilder::new(&mut g, 0, SimTime::ZERO, &nodes);
        let vs = locals(1, 10);
        let cfg = CompressionConfig {
            switch: crate::FrameSwitch::Adaptive,
            ..CompressionConfig::default()
        };
        let mut residuals = Vec::new();
        let (got, bytes) = compressed_all_reduce_average(&mut rb, &cost, &vs, &cfg, &mut residuals);
        assert_eq!(got.as_slice(), vs[0].as_slice());
        assert_eq!(bytes, 0, "one executor moves nothing");
    }
}
