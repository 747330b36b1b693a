//! The cost model: turning work and messages into simulated durations.

use rand::Rng;

use crate::spec::ClusterSpec;
use crate::time::SimDuration;

/// Computes simulated durations for compute tasks and network transfers
/// against a [`ClusterSpec`].
///
/// The model is deliberately structural rather than microarchitectural —
/// it captures exactly the terms the paper's analysis rests on:
///
/// * compute: `flops / rate × straggler + task_overhead`,
/// * a point-to-point message: `latency + bytes / bandwidth`,
/// * `n` messages serialized through one NIC: `latency + n·bytes / bw`
///   (this is the driver-bottleneck term that AllReduce removes).
#[derive(Debug, Clone)]
pub struct CostModel {
    spec: ClusterSpec,
}

impl CostModel {
    /// A cost model over the given cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        CostModel { spec }
    }

    /// Borrows the underlying spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of executors `k`.
    pub fn num_executors(&self) -> usize {
        self.spec.num_executors()
    }

    /// Duration of a compute task of `flops` floating-point operations on
    /// executor `r`, including task overhead and a straggler draw from the
    /// caller's RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn executor_compute<R: Rng>(&self, r: usize, flops: f64, rng: &mut R) -> SimDuration {
        let overhead = self.spec.executors[r].task_overhead;
        self.executor_compute_with_overhead(r, flops, rng, overhead)
    }

    /// Like [`CostModel::executor_compute`] but with an explicit per-task
    /// overhead, for runtimes whose scheduling cost differs from Spark's
    /// (e.g. parameter-server systems with persistent workers pay a small
    /// per-tick cost instead of a full Spark task launch).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn executor_compute_with_overhead<R: Rng>(
        &self,
        r: usize,
        flops: f64,
        rng: &mut R,
        overhead: SimDuration,
    ) -> SimDuration {
        let node = &self.spec.executors[r];
        let base = flops / (node.gflops * 1e9);
        let slowdown = self.spec.straggler.draw(rng);
        SimDuration::from_secs_f64(base * slowdown) + overhead
    }

    /// Duration of a compute task on the driver (no straggler draw: the
    /// driver runs a single dedicated process in the paper's setup).
    pub fn driver_compute(&self, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops / (self.spec.driver.gflops * 1e9))
    }

    /// Compute split into `waves` sequential tasks on executor `r`: each
    /// wave processes `flops/waves`, pays the full per-task overhead, and
    /// draws its own straggler multiplier. The paper (Section V-C) reports
    /// tuning "the number of tasks per executor" and finding one wave
    /// optimal "due to heavy communication overhead" — this method is the
    /// knob behind that ablation.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `waves == 0`.
    pub fn executor_waves<R: Rng>(
        &self,
        r: usize,
        flops: f64,
        waves: usize,
        rng: &mut R,
    ) -> SimDuration {
        assert!(waves > 0, "need at least one wave");
        let per_wave = flops / waves as f64;
        let mut total = SimDuration::ZERO;
        for _ in 0..waves {
            total += self.executor_compute(r, per_wave, rng);
        }
        total
    }

    /// Raw compute on executor `r` with no task overhead or straggler draw
    /// — used for work that happens *inside* an already-scheduled task,
    /// such as combining received vectors during aggregation.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn executor_inline_compute(&self, r: usize, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops / (self.spec.executors[r].gflops * 1e9))
    }

    /// A single point-to-point transfer of `bytes`.
    pub fn transfer(&self, bytes: usize) -> SimDuration {
        self.spec.network.latency
            + SimDuration::from_secs_f64(bytes as f64 / self.spec.network.bandwidth_bps)
    }

    /// `count` transfers of `bytes` each that must serialize through a
    /// single NIC (e.g. the driver broadcasting to every executor, or
    /// collecting from every executor). One latency is paid up front; the
    /// payloads queue on the link.
    pub fn serialized_transfers(&self, bytes: usize, count: usize) -> SimDuration {
        self.spec.network.latency
            + SimDuration::from_secs_f64(
                (bytes as f64 * count as f64) / self.spec.network.bandwidth_bps,
            )
    }

    /// A batch of differently-sized transfers totalling `total_bytes`
    /// that must serialize through a single NIC — the heterogeneous-size
    /// counterpart of [`CostModel::serialized_transfers`], used by the
    /// compressed collectives where every peer's frame has its own
    /// encoded length. One latency is paid up front; the payloads queue
    /// on the link.
    pub fn serialized_transfer_total(&self, total_bytes: usize) -> SimDuration {
        self.spec.network.latency
            + SimDuration::from_secs_f64(total_bytes as f64 / self.spec.network.bandwidth_bps)
    }
}

/// Approximate flops to process one training example of `nnz` nonzeros
/// (dot product + axpy ≈ 4 ops per nonzero).
pub(crate) const FLOPS_PER_NNZ: f64 = 4.0;

/// Flops for a local pass over `total_nnz` stored nonzeros.
pub fn pass_flops(total_nnz: usize) -> f64 {
    total_nnz as f64 * FLOPS_PER_NNZ
}

/// Flops for a dense vector operation over `dim` coordinates (aggregation,
/// averaging, regularization sweep).
pub fn dense_op_flops(dim: usize) -> f64 {
    dim as f64 * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{NetworkSpec, NodeSpec, StragglerModel};
    use crate::SeedStream;

    fn model() -> CostModel {
        CostModel::new(ClusterSpec::uniform(
            4,
            NodeSpec::standard(),
            NetworkSpec::gbps1(),
        ))
    }

    #[test]
    fn compute_scales_with_flops() {
        let m = model();
        let mut rng = SeedStream::new(1).rng();
        let small = m.executor_compute(0, 1e6, &mut rng);
        let mut rng = SeedStream::new(1).rng();
        let large = m.executor_compute(0, 1e9, &mut rng);
        assert!(large > small);
        // 1e9 flops at 2 GFLOP/s = 0.5 s + 80 ms overhead.
        assert!((large.as_secs_f64() - 0.58).abs() < 1e-6, "{large}");
    }

    #[test]
    fn driver_compute_has_no_overhead() {
        let m = model();
        let d = m.driver_compute(2e9);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(m.driver_compute(0.0), SimDuration::ZERO);
    }

    #[test]
    fn transfer_includes_latency_and_bandwidth() {
        let m = model();
        // 125 MB over 125 MB/s = 1 s, plus 1 ms latency.
        let t = m.transfer(125_000_000);
        assert!((t.as_secs_f64() - 1.001).abs() < 1e-6, "{t}");
    }

    #[test]
    fn serialized_transfers_scale_with_count() {
        let m = model();
        let one = m.serialized_transfers(125_000_000, 1);
        let four = m.serialized_transfers(125_000_000, 4);
        // Four payloads through one NIC ≈ 4× the payload time, one latency.
        assert!((four.as_secs_f64() - (4.0 + 0.001)).abs() < 1e-6, "{four}");
        assert!(four.as_secs_f64() > 3.9 * one.as_secs_f64());
    }

    #[test]
    fn serialized_transfer_total_matches_equal_sized_batches() {
        let m = model();
        // The heterogeneous form agrees with the uniform one when sizes
        // happen to be equal, and charges only the bytes actually sent.
        assert_eq!(
            m.serialized_transfer_total(4 * 125_000_000),
            m.serialized_transfers(125_000_000, 4)
        );
        let small = m.serialized_transfer_total(1_000);
        let big = m.serialized_transfer_total(125_000_000);
        assert!(small.as_secs_f64() < big.as_secs_f64());
    }

    #[test]
    fn straggler_inflates_compute() {
        let mut spec = ClusterSpec::uniform(2, NodeSpec::standard(), NetworkSpec::gbps1());
        spec.straggler = StragglerModel::LogNormal { sigma: 0.5 };
        let m = CostModel::new(spec);
        let mut rng = SeedStream::new(3).rng();
        let draws: Vec<f64> = (0..200)
            .map(|_| m.executor_compute(0, 1e9, &mut rng).as_secs_f64())
            .collect();
        let min = draws.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let max = draws.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(max > min * 1.5, "straggler variance expected: {min}..{max}");
    }

    #[test]
    fn waves_add_overhead() {
        let m = model();
        let mut rng = SeedStream::new(5).rng();
        let one = m.executor_waves(0, 1e9, 1, &mut rng);
        let mut rng = SeedStream::new(5).rng();
        let four = m.executor_waves(0, 1e9, 4, &mut rng);
        // Same flops, three extra task overheads (80 ms each, no straggler
        // variance in this spec).
        assert!((four.as_secs_f64() - one.as_secs_f64() - 0.24).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one wave")]
    fn zero_waves_rejected() {
        let m = model();
        let mut rng = SeedStream::new(5).rng();
        let _ = m.executor_waves(0, 1.0, 0, &mut rng);
    }

    #[test]
    fn flop_helpers() {
        assert_eq!(pass_flops(1000), 4000.0);
        assert_eq!(dense_op_flops(100), 200.0);
    }
}
