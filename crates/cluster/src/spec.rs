//! Cluster, node, network and straggler specifications.

use rand::Rng;

use crate::rng::{lognormal, SeedStream};
use crate::time::SimDuration;

/// Compute characteristics of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Sustained floating-point rate in GFLOP/s applied to training math.
    pub gflops: f64,
    /// Fixed per-task overhead (Spark task scheduling/serialization; this
    /// is what makes thousands of tiny stages expensive for MLlib).
    pub task_overhead: SimDuration,
}

impl NodeSpec {
    /// A mid-range server node.
    pub fn standard() -> Self {
        NodeSpec {
            gflops: 2.0,
            task_overhead: SimDuration::from_millis(80),
        }
    }
}

/// Network characteristics (homogeneous full-duplex links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSpec {
    /// Per-link bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// One-way message latency.
    pub latency: SimDuration,
}

impl NetworkSpec {
    /// 1 Gbps Ethernet (the paper's Cluster 1).
    pub fn gbps1() -> Self {
        NetworkSpec {
            bandwidth_bps: 125e6,
            latency: SimDuration::from_millis(1),
        }
    }

    /// 10 Gbps Ethernet (the paper's Cluster 2).
    pub fn gbps10() -> Self {
        NetworkSpec {
            bandwidth_bps: 1.25e9,
            latency: SimDuration::from_millis(1),
        }
    }
}

/// Per-task slowdown model: the source of the `max`-over-workers barrier
/// cost that limits BSP scalability (Figure 6's second explanation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StragglerModel {
    /// All tasks run at nominal speed.
    None,
    /// Each task's compute time is multiplied by `exp(σ·Z)`, `Z ~ N(0,1)`
    /// (median 1, heavy right tail — the classic straggler shape).
    LogNormal {
        /// Dispersion σ; production-like heterogeneity is ~0.3–0.5.
        sigma: f64,
    },
}

impl StragglerModel {
    /// Draws a multiplicative slowdown for one task (≥ 0, median 1).
    pub fn draw<R: Rng>(&self, rng: &mut R) -> f64 {
        match self {
            StragglerModel::None => 1.0,
            StragglerModel::LogNormal { sigma } => lognormal(rng, 0.0, *sigma),
        }
    }
}

/// A complete simulated cluster: one driver plus `k` executors.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// The driver node (also the master in Algorithm 2).
    pub driver: NodeSpec,
    /// The executor nodes (workers).
    pub executors: Vec<NodeSpec>,
    /// The interconnect.
    pub network: NetworkSpec,
    /// Straggler behaviour applied to executor tasks.
    pub straggler: StragglerModel,
}

impl ClusterSpec {
    /// A homogeneous cluster of `k` executors.
    pub fn uniform(k: usize, node: NodeSpec, network: NetworkSpec) -> Self {
        assert!(k > 0, "a cluster needs at least one executor");
        ClusterSpec {
            driver: node,
            executors: vec![node; k],
            network,
            straggler: StragglerModel::None,
        }
    }

    /// The paper's Cluster 1: 9 nodes (1 driver + 8 executors), 1 Gbps,
    /// homogeneous, negligible stragglers.
    pub fn cluster1() -> Self {
        ClusterSpec::uniform(8, NodeSpec::standard(), NetworkSpec::gbps1())
    }

    /// The paper's Cluster 2 scaled to `k` executors: 10 Gbps but
    /// *heterogeneous* ("computational power of individual machines
    /// exhibits a high variance") — per-node rates drawn in [1, 4] GFLOP/s
    /// and a lognormal straggler tail.
    pub fn cluster2(k: usize, seed: u64) -> Self {
        assert!(k > 0, "a cluster needs at least one executor");
        let mut rng = SeedStream::new(seed).child("cluster2-nodes").rng();
        let executors = (0..k)
            .map(|_| NodeSpec {
                gflops: rng.gen_range(1.0..4.0),
                task_overhead: SimDuration::from_millis(rng.gen_range(60..140)),
            })
            .collect();
        ClusterSpec {
            driver: NodeSpec::standard(),
            executors,
            network: NetworkSpec::gbps10(),
            straggler: StragglerModel::LogNormal { sigma: 0.35 },
        }
    }

    /// Number of executors `k`.
    pub fn num_executors(&self) -> usize {
        self.executors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster1_matches_paper_shape() {
        let c = ClusterSpec::cluster1();
        assert_eq!(c.num_executors(), 8);
        assert_eq!(c.network, NetworkSpec::gbps1());
        assert_eq!(c.straggler, StragglerModel::None);
        assert!(c.executors.iter().all(|e| *e == c.executors[0]));
    }

    #[test]
    fn cluster2_is_heterogeneous_and_deterministic() {
        let a = ClusterSpec::cluster2(32, 7);
        let b = ClusterSpec::cluster2(32, 7);
        assert_eq!(a, b);
        assert_eq!(a.num_executors(), 32);
        let min = a
            .executors
            .iter()
            .map(|e| e.gflops)
            .fold(f64::INFINITY, f64::min);
        let max = a.executors.iter().map(|e| e.gflops).fold(0.0, f64::max);
        assert!(max > min * 1.2, "rates should vary: {min}..{max}");
        assert!(matches!(a.straggler, StragglerModel::LogNormal { .. }));
        assert_ne!(a, ClusterSpec::cluster2(32, 8));
    }

    #[test]
    fn straggler_draws() {
        let mut rng = SeedStream::new(1).rng();
        assert_eq!(StragglerModel::None.draw(&mut rng), 1.0);
        let s = StragglerModel::LogNormal { sigma: 0.3 };
        let draws: Vec<f64> = (0..1000).map(|_| s.draw(&mut rng)).collect();
        assert!(draws.iter().all(|x| *x > 0.0));
        // Some spread must exist.
        let max = draws.iter().fold(0.0f64, |m, &x| m.max(x));
        let min = draws.iter().fold(f64::INFINITY, |m, &x| m.min(x));
        assert!(max > 1.5 && min < 0.8, "{min}..{max}");
    }

    #[test]
    #[should_panic(expected = "at least one executor")]
    fn zero_executor_cluster_rejected() {
        let _ = ClusterSpec::uniform(0, NodeSpec::standard(), NetworkSpec::gbps1());
    }

    #[test]
    fn network_presets() {
        assert!(NetworkSpec::gbps10().bandwidth_bps > NetworkSpec::gbps1().bandwidth_bps * 9.0);
    }
}
