//! Seeded open-loop scoring workloads.
//!
//! An open-loop generator emits requests on its own clock (exponential
//! interarrivals at a target rate) regardless of how fast the engine
//! drains them — the standard way to expose queueing behavior. Two knobs
//! shape the stream beyond the rate: **bursts** (a seeded coin turns an
//! arrival into a back-to-back clump, stressing batch formation) and
//! **hot-key skew** (queries concentrate on a seeded hot subset of rows
//! via [`mlstar_data::RowSampler`], as real scoring traffic does).
//!
//! Everything derives from one seed through [`SeedStream`] children, so a
//! workload is a pure function of its configuration and the dataset.

use mlstar_data::{RowSampler, SparseDataset};
use mlstar_sim::{SeedStream, SimDuration, SimTime};
use rand::Rng;

use crate::ScoreRequest;

/// Configuration of a seeded open-loop query workload.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryWorkload {
    /// Total requests to generate.
    pub num_requests: usize,
    /// Mean arrival rate in requests per second (exponential
    /// interarrivals).
    pub arrival_rate: f64,
    /// Probability that an arrival opens a burst of back-to-back
    /// requests.
    pub burst_prob: f64,
    /// Extra requests emitted at the same instant when a burst fires.
    pub burst_len: usize,
    /// Fraction of dataset rows forming the hot set.
    pub hot_row_fraction: f64,
    /// Probability a query draws from the hot set rather than uniformly.
    pub hot_query_prob: f64,
    /// Workload seed (independent of the training seed).
    pub seed: u64,
}

impl Default for QueryWorkload {
    /// A moderately bursty, moderately skewed 1024-request stream at
    /// 20k requests/s.
    fn default() -> Self {
        QueryWorkload {
            num_requests: 1024,
            arrival_rate: 20_000.0,
            burst_prob: 0.05,
            burst_len: 8,
            hot_row_fraction: 0.01,
            hot_query_prob: 0.7,
            seed: 42,
        }
    }
}

impl QueryWorkload {
    /// Generates the request stream, drawing query rows from `dataset`.
    /// Requests are returned in arrival order with ids `0..num_requests`.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_rate` is not positive, any probability knob is
    /// outside `[0, 1]`, or `dataset` is empty while requests were asked
    /// for.
    pub fn generate(&self, dataset: &SparseDataset) -> Vec<ScoreRequest> {
        assert!(
            self.arrival_rate > 0.0 && self.arrival_rate.is_finite(),
            "arrival_rate must be positive and finite (got {})",
            self.arrival_rate
        );
        if self.num_requests == 0 {
            return Vec::new();
        }
        assert!(!dataset.rows().is_empty(), "cannot query an empty dataset");

        let root = SeedStream::new(self.seed);
        let mut arrivals = root.child("arrivals").rng();
        let mut bursts = root.child("bursts").rng();
        let mut queries = root.child("queries").rng();
        let sampler = RowSampler::new(
            dataset.rows().len(),
            self.hot_row_fraction,
            root.child("hot-set").seed(),
        );

        let mut out = Vec::with_capacity(self.num_requests);
        let mut clock = SimTime::ZERO;
        while out.len() < self.num_requests {
            // Exponential gap: -ln(1-u)/λ, u ∈ [0, 1).
            let u: f64 = arrivals.gen_range(0.0..1.0);
            let gap_s = -(1.0 - u).ln() / self.arrival_rate;
            clock += SimDuration::from_secs_f64(gap_s);
            let clump = if self.burst_len > 0 && bursts.gen_bool(self.burst_prob) {
                1 + self.burst_len
            } else {
                1
            };
            for _ in 0..clump {
                if out.len() == self.num_requests {
                    break;
                }
                let row = sampler.draw(&mut queries, self.hot_query_prob);
                out.push(ScoreRequest {
                    id: out.len() as u64,
                    arrival: clock,
                    row: dataset.rows()[row].clone(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_data::SyntheticConfig;

    fn dataset() -> SparseDataset {
        SyntheticConfig::small("wl", 200, 16).generate()
    }

    #[test]
    fn generation_is_deterministic_and_ordered() {
        let ds = dataset();
        let cfg = QueryWorkload {
            num_requests: 300,
            ..QueryWorkload::default()
        };
        let a = cfg.generate(&ds);
        let b = cfg.generate(&ds);
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.row.dim(), ds.num_features());
            if i > 0 {
                assert!(r.arrival >= a[i - 1].arrival, "arrival order");
            }
        }
        let c = QueryWorkload {
            seed: 43,
            num_requests: 300,
            ..QueryWorkload::default()
        }
        .generate(&ds);
        assert_ne!(a, c, "the seed matters");
    }

    #[test]
    fn bursts_produce_simultaneous_arrivals() {
        let ds = dataset();
        let bursty = QueryWorkload {
            num_requests: 500,
            burst_prob: 0.5,
            burst_len: 4,
            ..QueryWorkload::default()
        }
        .generate(&ds);
        let simultaneous = bursty
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival)
            .count();
        assert!(
            simultaneous > 50,
            "bursts should clump arrivals: {simultaneous}"
        );
        let smooth = QueryWorkload {
            num_requests: 500,
            burst_prob: 0.0,
            ..QueryWorkload::default()
        }
        .generate(&ds);
        let clumped = smooth
            .windows(2)
            .filter(|w| w[0].arrival == w[1].arrival)
            .count();
        assert!(clumped < 10, "no bursts, few clumps: {clumped}");
    }

    #[test]
    fn mean_rate_roughly_matches_config() {
        let ds = dataset();
        let cfg = QueryWorkload {
            num_requests: 2000,
            arrival_rate: 10_000.0,
            burst_prob: 0.0,
            ..QueryWorkload::default()
        };
        let reqs = cfg.generate(&ds);
        let span = reqs
            .last()
            .unwrap()
            .arrival
            .since(SimTime::ZERO)
            .as_secs_f64();
        let rate = reqs.len() as f64 / span;
        assert!(
            (rate - 10_000.0).abs() < 1_500.0,
            "empirical rate {rate} vs 10k"
        );
    }

    #[test]
    fn hot_skew_concentrates_queries() {
        let ds = dataset();
        let cfg = QueryWorkload {
            num_requests: 2000,
            hot_row_fraction: 0.02,
            hot_query_prob: 0.9,
            ..QueryWorkload::default()
        };
        let reqs = cfg.generate(&ds);
        // Count distinct query rows: heavy skew → far fewer distinct rows
        // than requests.
        let mut distinct: Vec<&[u32]> = reqs.iter().map(|r| r.row.indices()).collect();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() < ds.rows().len(),
            "skewed stream should not cover every row pattern"
        );
    }

    #[test]
    fn zero_requests_is_empty() {
        let cfg = QueryWorkload {
            num_requests: 0,
            ..QueryWorkload::default()
        };
        assert!(cfg.generate(&dataset()).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let _ = QueryWorkload::default().generate(&SparseDataset::empty(4));
    }

    #[test]
    #[should_panic(expected = "arrival_rate")]
    fn zero_rate_panics() {
        let cfg = QueryWorkload {
            arrival_rate: 0.0,
            ..QueryWorkload::default()
        };
        let _ = cfg.generate(&dataset());
    }
}
