//! Row partitioning across workers.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A strategy for assigning dataset rows to `k` workers.
///
/// In Spark, partitioning is decided by the data source and any explicit
/// `repartition`; model-averaging convergence is sensitive to whether
/// partitions are i.i.d. samples of the data, so the shuffled strategy is
/// the default for the systems in `mlstar-core` (matching the paper's
/// footnote that data "need to be randomly shuffled and distributed").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Partitioner {
    /// Contiguous blocks: worker `r` gets rows `[r·n/k, (r+1)·n/k)`.
    Contiguous,
    /// Round-robin: row `i` goes to worker `i mod k`.
    RoundRobin,
    /// Random shuffle with the given seed, then contiguous blocks.
    Shuffled {
        /// RNG seed for the shuffle.
        seed: u64,
    },
    /// Deliberately unbalanced: worker 0 receives `hot_fraction` of the
    /// (shuffled) rows, the rest are split evenly among the other workers.
    /// Used by the weighted-model-averaging ablation (Zhang & Jordan's
    /// "reweighting" refinement matters exactly when partitions are
    /// unequal).
    SkewedShuffled {
        /// RNG seed for the shuffle.
        seed: u64,
        /// Fraction of rows owned by worker 0, clamped to `[1/k, 0.95]`.
        hot_fraction: f64,
    },
}

impl Partitioner {
    /// Assigns row indices `[0, n)` to `k` partitions.
    ///
    /// Every index appears in exactly one partition; partition sizes differ
    /// by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn partition(&self, n: usize, k: usize) -> Vec<Vec<usize>> {
        assert!(k > 0, "cannot partition rows across zero workers");
        match self {
            Partitioner::Contiguous => mlstar_linalg::partition_ranges(n, k)
                .into_iter()
                .map(|r| r.collect())
                .collect(),
            Partitioner::RoundRobin => {
                let mut parts = vec![Vec::with_capacity(n / k + 1); k];
                for i in 0..n {
                    parts[i % k].push(i);
                }
                parts
            }
            Partitioner::Shuffled { seed } => {
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = StdRng::seed_from_u64(*seed);
                order.shuffle(&mut rng);
                let ranges = mlstar_linalg::partition_ranges(n, k);
                ranges.into_iter().map(|r| order[r].to_vec()).collect()
            }
            Partitioner::SkewedShuffled { seed, hot_fraction } => {
                let mut order: Vec<usize> = (0..n).collect();
                let mut rng = StdRng::seed_from_u64(*seed);
                order.shuffle(&mut rng);
                if k == 1 {
                    return vec![order];
                }
                let lo = 1.0 / k as f64;
                let frac = hot_fraction.clamp(lo, 0.95);
                let hot = ((n as f64 * frac).round() as usize).min(n);
                let mut parts = Vec::with_capacity(k);
                parts.push(order[..hot].to_vec());
                let ranges = mlstar_linalg::partition_ranges(n - hot, k - 1);
                for r in ranges {
                    parts.push(order[hot + r.start..hot + r.end].to_vec());
                }
                parts
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_exact_cover(parts: &[Vec<usize>], n: usize) {
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..n).collect();
        assert_eq!(all, expected);
    }

    fn assert_balanced(parts: &[Vec<usize>]) {
        let min = parts.iter().map(Vec::len).min().unwrap();
        let max = parts.iter().map(Vec::len).max().unwrap();
        assert!(max - min <= 1, "sizes {min}..{max}");
    }

    #[test]
    fn contiguous_blocks() {
        let parts = Partitioner::Contiguous.partition(10, 3);
        assert_eq!(parts[0], vec![0, 1, 2, 3]);
        assert_eq!(parts[2], vec![7, 8, 9]);
        assert_exact_cover(&parts, 10);
        assert_balanced(&parts);
    }

    #[test]
    fn round_robin_interleaves() {
        let parts = Partitioner::RoundRobin.partition(7, 3);
        assert_eq!(parts[0], vec![0, 3, 6]);
        assert_eq!(parts[1], vec![1, 4]);
        assert_exact_cover(&parts, 7);
        assert_balanced(&parts);
    }

    #[test]
    fn shuffled_covers_and_is_deterministic() {
        let a = Partitioner::Shuffled { seed: 5 }.partition(100, 4);
        let b = Partitioner::Shuffled { seed: 5 }.partition(100, 4);
        assert_eq!(a, b);
        assert_exact_cover(&a, 100);
        assert_balanced(&a);
        let c = Partitioner::Shuffled { seed: 6 }.partition(100, 4);
        assert_ne!(a, c);
        // Shuffle must actually shuffle.
        assert_ne!(a, Partitioner::Contiguous.partition(100, 4));
    }

    #[test]
    fn more_workers_than_rows_yields_empty_partitions() {
        let parts = Partitioner::Contiguous.partition(2, 5);
        assert_eq!(parts.len(), 5);
        assert_exact_cover(&parts, 2);
        assert_eq!(parts.iter().filter(|p| p.is_empty()).count(), 3);
    }

    #[test]
    fn skewed_gives_worker_zero_the_hot_share() {
        let parts = Partitioner::SkewedShuffled {
            seed: 3,
            hot_fraction: 0.5,
        }
        .partition(100, 5);
        assert_exact_cover(&parts, 100);
        assert_eq!(parts[0].len(), 50);
        for p in &parts[1..] {
            assert!(p.len() >= 12 && p.len() <= 13, "{}", p.len());
        }
        // Clamping: a fraction below 1/k degrades to balanced-ish.
        let parts = Partitioner::SkewedShuffled {
            seed: 3,
            hot_fraction: 0.0,
        }
        .partition(100, 4);
        assert_exact_cover(&parts, 100);
        assert_eq!(parts[0].len(), 25);
    }

    #[test]
    fn skewed_single_worker_ignores_hot_fraction() {
        // k = 1 takes the early-return path: one partition, the full
        // shuffle, no clamping arithmetic (1/k = 1.0 would exceed the 0.95
        // clamp ceiling and must not panic or drop rows).
        for hot_fraction in [0.0, 0.5, 0.95, 1.0, 7.3] {
            let parts = Partitioner::SkewedShuffled {
                seed: 11,
                hot_fraction,
            }
            .partition(9, 1);
            assert_eq!(parts.len(), 1);
            assert_exact_cover(&parts, 9);
        }
        // And it matches the plain shuffle of the same seed.
        let skewed = Partitioner::SkewedShuffled {
            seed: 11,
            hot_fraction: 0.5,
        }
        .partition(9, 1);
        let shuffled = Partitioner::Shuffled { seed: 11 }.partition(9, 1);
        assert_eq!(skewed, shuffled);
    }

    #[test]
    fn skewed_hot_fraction_clamps_at_both_bounds() {
        // Below the 1/k floor: clamps up to an even share for worker 0.
        for low in [-1.0, 0.0, 0.1] {
            let parts = Partitioner::SkewedShuffled {
                seed: 4,
                hot_fraction: low,
            }
            .partition(100, 4);
            assert_exact_cover(&parts, 100);
            assert_eq!(parts[0].len(), 25, "floor clamp for {low}");
        }
        // Exactly at the floor is untouched.
        let parts = Partitioner::SkewedShuffled {
            seed: 4,
            hot_fraction: 0.25,
        }
        .partition(100, 4);
        assert_eq!(parts[0].len(), 25);
        // At and beyond the 0.95 ceiling: worker 0 gets 95%, the others
        // still cover the remainder without losing a row.
        for high in [0.95, 0.99, 1.0, 100.0] {
            let parts = Partitioner::SkewedShuffled {
                seed: 4,
                hot_fraction: high,
            }
            .partition(100, 4);
            assert_exact_cover(&parts, 100);
            assert_eq!(parts[0].len(), 95, "ceiling clamp for {high}");
            assert_eq!(parts.len(), 4);
            for p in &parts[1..] {
                assert!(p.len() <= 2, "cold partitions share 5 rows");
            }
        }
    }

    #[test]
    fn skewed_tiny_datasets_keep_exact_cover() {
        // Fewer rows than workers with an extreme hot share: cover must
        // stay exact even when the hot set rounds to all available rows.
        for n in [1, 2, 3, 5] {
            for k in [2, 3, 5] {
                let parts = Partitioner::SkewedShuffled {
                    seed: 8,
                    hot_fraction: 0.95,
                }
                .partition(n, k);
                assert_eq!(parts.len(), k);
                assert_exact_cover(&parts, n);
            }
        }
    }

    #[test]
    fn single_worker_gets_everything() {
        for p in [
            Partitioner::Contiguous,
            Partitioner::RoundRobin,
            Partitioner::Shuffled { seed: 0 },
            Partitioner::SkewedShuffled {
                seed: 0,
                hot_fraction: 0.7,
            },
        ] {
            let parts = p.partition(6, 1);
            assert_eq!(parts.len(), 1);
            assert_exact_cover(&parts, 6);
        }
    }
}
