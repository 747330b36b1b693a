//! Synthetic platform job traces behind the Figure 1 workload-share table.
//!
//! Figure 1 of the paper is observational: a survey of the Tencent Machine
//! Learning Platform showing that 51% of ML workloads run on TensorFlow,
//! 24% on Angel, 22% on XGBoost and only 3% on MLlib — while >80% of data
//! passes through Spark for ETL. That cannot be *measured* here, so this
//! module regenerates the *table* from a seeded synthetic job trace with
//! those target shares, making the Figure 1 bench a runnable end-to-end
//! pipeline (documented as illustrative in `DESIGN.md`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The ML systems in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MlSystem {
    /// TensorFlow (51% in the paper's survey).
    TensorFlow,
    /// Angel (24%).
    Angel,
    /// XGBoost (22%).
    XGBoost,
    /// Spark MLlib (3%).
    MLlib,
}

impl MlSystem {
    /// All systems in Figure 1 order.
    pub const ALL: [MlSystem; 4] = [
        MlSystem::TensorFlow,
        MlSystem::Angel,
        MlSystem::XGBoost,
        MlSystem::MLlib,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MlSystem::TensorFlow => "TensorFlow",
            MlSystem::Angel => "Angel",
            MlSystem::XGBoost => "XGBoost",
            MlSystem::MLlib => "MLlib",
        }
    }
}

/// One ML training job on the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job identifier.
    pub id: u64,
    /// The ML system the job trains on.
    pub system: MlSystem,
    /// Input size in GB.
    pub data_gb: f64,
    /// Whether the input was extracted/transformed with Spark first (the
    /// ">80% of data" claim in the paper's introduction).
    pub spark_etl: bool,
}

/// Configuration of the trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Target share per system, in [`MlSystem::ALL`] order; must sum to ~1.
    pub shares: [f64; 4],
    /// Probability a job's input went through Spark ETL.
    pub spark_etl_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    /// The paper's Figure 1 shares and the ">80% via Spark" ETL rate.
    fn default() -> Self {
        WorkloadConfig {
            num_jobs: 10_000,
            shares: [0.51, 0.24, 0.22, 0.03],
            spark_etl_prob: 0.82,
            seed: 2019,
        }
    }
}

/// Share analysis of a trace: the regenerated Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareReport {
    /// `(system, job share)` rows in [`MlSystem::ALL`] order.
    pub system_shares: Vec<(MlSystem, f64)>,
    /// Fraction of total *data volume* that passed through Spark ETL.
    pub spark_etl_data_fraction: f64,
    /// Total jobs analyzed.
    pub total_jobs: usize,
}

/// Generates a seeded job trace with the configured shares.
///
/// # Panics
///
/// Panics if shares are negative or sum to something far from 1.
pub fn generate_trace(cfg: &WorkloadConfig) -> Vec<Job> {
    let total: f64 = cfg.shares.iter().sum();
    assert!(
        cfg.shares.iter().all(|s| *s >= 0.0) && (total - 1.0).abs() < 1e-6,
        "shares must be nonnegative and sum to 1 (got {total})"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut jobs = Vec::with_capacity(cfg.num_jobs);
    for id in 0..cfg.num_jobs as u64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        let mut system = MlSystem::MLlib;
        for (i, &share) in cfg.shares.iter().enumerate() {
            acc += share;
            if u < acc {
                system = MlSystem::ALL[i];
                break;
            }
        }
        // Log-uniform data sizes from 100 MB to 1 TB.
        let log_gb = rng.gen_range(-1.0f64..3.0);
        jobs.push(Job {
            id,
            system,
            data_gb: 10f64.powf(log_gb),
            spark_etl: rng.gen_bool(cfg.spark_etl_prob),
        });
    }
    jobs
}

/// Computes the Figure 1 share table from a trace.
///
/// # Panics
///
/// Panics if `jobs` is empty.
pub fn analyze(jobs: &[Job]) -> ShareReport {
    assert!(!jobs.is_empty(), "cannot analyze an empty trace");
    let n = jobs.len() as f64;
    let system_shares = MlSystem::ALL
        .iter()
        .map(|&s| {
            let count = jobs.iter().filter(|j| j.system == s).count();
            (s, count as f64 / n)
        })
        .collect();
    let total_gb: f64 = jobs.iter().map(|j| j.data_gb).sum();
    let etl_gb: f64 = jobs.iter().filter(|j| j.spark_etl).map(|j| j.data_gb).sum();
    ShareReport {
        system_shares,
        spark_etl_data_fraction: etl_gb / total_gb,
        total_jobs: jobs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let cfg = WorkloadConfig::default();
        assert_eq!(generate_trace(&cfg), generate_trace(&cfg));
    }

    #[test]
    fn shares_converge_to_targets() {
        let cfg = WorkloadConfig {
            num_jobs: 50_000,
            ..WorkloadConfig::default()
        };
        let report = analyze(&generate_trace(&cfg));
        for (i, (system, share)) in report.system_shares.iter().enumerate() {
            assert!(
                (share - cfg.shares[i]).abs() < 0.01,
                "{}: {share} vs target {}",
                system.name(),
                cfg.shares[i]
            );
        }
        assert!(report.spark_etl_data_fraction > 0.75);
        assert_eq!(report.total_jobs, 50_000);
    }

    #[test]
    fn mllib_is_the_minority_as_in_figure1() {
        let report = analyze(&generate_trace(&WorkloadConfig::default()));
        let mllib_share = report
            .system_shares
            .iter()
            .find(|(s, _)| *s == MlSystem::MLlib)
            .map(|(_, share)| *share)
            .unwrap();
        for (s, share) in &report.system_shares {
            if *s != MlSystem::MLlib {
                assert!(*share > mllib_share, "{} should exceed MLlib", s.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_shares_panic() {
        let cfg = WorkloadConfig {
            shares: [0.5, 0.5, 0.5, 0.5],
            ..WorkloadConfig::default()
        };
        generate_trace(&cfg);
    }

    #[test]
    fn data_sizes_are_in_configured_range() {
        let jobs = generate_trace(&WorkloadConfig {
            num_jobs: 1000,
            ..WorkloadConfig::default()
        });
        for j in &jobs {
            assert!(j.data_gb >= 0.1 && j.data_gb <= 1000.0, "{}", j.data_gb);
        }
    }

    #[test]
    fn system_names() {
        assert_eq!(MlSystem::TensorFlow.name(), "TensorFlow");
        assert_eq!(MlSystem::ALL.len(), 4);
    }
}
