//! Seeded batch sampling and epoch ordering.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Samples mini-batches without replacement from a worker's index pool.
///
/// Each worker in the distributed systems owns one `BatchSampler`, seeded
/// from the experiment seed and the worker id, so runs are reproducible and
/// workers draw independent batches.
#[derive(Debug, Clone)]
pub struct BatchSampler {
    rng: StdRng,
    /// The identity `0, 1, 2, …` over at least the last pool's positions,
    /// kept between calls: [`BatchSampler::sample`] swaps a prefix of it
    /// and swaps it back. Not part of the sampler's state.
    positions: Vec<u32>,
}

impl BatchSampler {
    /// A sampler with the given seed.
    pub fn new(seed: u64) -> Self {
        BatchSampler {
            rng: StdRng::seed_from_u64(seed),
            positions: Vec::new(),
        }
    }

    /// Samples `batch_size` distinct elements of `pool` (all of `pool` if
    /// `batch_size >= pool.len()`), in `O(batch_size)` after the first
    /// call on a pool this long.
    ///
    /// The draws are `rand::seq::index::sample`'s partial Fisher–Yates
    /// pass, made over a kept identity of pool positions instead of a
    /// fresh pool-sized vector: position `i` swaps with one drawn from
    /// `i..=n − 1`, the first `batch_size` positions pick the batch, and
    /// the swaps are undone in reverse.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty or longer than `u32::MAX`.
    pub fn sample(&mut self, pool: &[usize], batch_size: usize) -> Vec<usize> {
        assert!(!pool.is_empty(), "cannot sample from an empty pool");
        let n = pool.len();
        if batch_size >= n {
            return pool.to_vec();
        }
        assert!(
            u32::try_from(n).is_ok(),
            "a pool of {n} rows exceeds u32 positions"
        );
        if self.positions.len() < n {
            self.positions.extend(self.positions.len() as u32..n as u32);
        }
        let positions = &mut self.positions[..n];
        // Holds each step's swap partner until the undo pass replaces it
        // with the sampled pool element.
        let mut batch = Vec::with_capacity(batch_size);
        for i in 0..batch_size {
            let j = self.rng.gen_range(i..=n - 1);
            positions.swap(i, j);
            batch.push(j);
        }
        // Position i is final once step i has run (later steps swap only
        // positions above it), so undoing the swaps from the last one back
        // reads each sampled position before its own swap is undone.
        for i in (0..batch_size).rev() {
            let j = batch[i];
            batch[i] = pool[positions[i] as usize];
            positions.swap(i, j);
        }
        batch
    }

    /// Exports the sampler's RNG position (for checkpointing).
    pub fn export_state(&self) -> [u8; 41] {
        self.rng.export_state()
    }

    /// Rebuilds a sampler mid-stream from [`BatchSampler::export_state`];
    /// `None` for states no reachable RNG can produce.
    pub fn restore_state(state: &[u8; 41]) -> Option<Self> {
        StdRng::restore_state(state).map(|rng| BatchSampler {
            rng,
            positions: Vec::new(),
        })
    }
}

/// Produces a freshly shuffled pass order over a worker's rows each epoch
/// (per-epoch reshuffling is standard for parallel SGD and what keeps
/// model-averaged local passes unbiased).
#[derive(Debug, Clone)]
pub struct EpochOrder {
    rng: StdRng,
}

impl EpochOrder {
    /// An order generator with the given seed.
    pub fn new(seed: u64) -> Self {
        EpochOrder {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Returns a shuffled copy of `pool`. Consecutive calls yield
    /// different permutations (the RNG advances).
    pub fn next_order(&mut self, pool: &[usize]) -> Vec<usize> {
        let mut order = pool.to_vec();
        order.shuffle(&mut self.rng);
        order
    }

    /// Exports the generator's RNG position (for checkpointing).
    pub fn export_state(&self) -> [u8; 41] {
        self.rng.export_state()
    }

    /// Rebuilds an order generator mid-stream from
    /// [`EpochOrder::export_state`]; `None` for states no reachable RNG
    /// can produce.
    pub fn restore_state(state: &[u8; 41]) -> Option<Self> {
        StdRng::restore_state(state).map(|rng| EpochOrder { rng })
    }
}

/// Draws query rows for a serving workload with optional hot-key skew.
///
/// A seeded shuffle of the row indices picks a "hot set" (the shuffle's
/// prefix); each draw then flips a seeded coin between the hot set and
/// the full dataset. Real scoring traffic is rarely uniform — a few
/// entities dominate — and the hot fraction models that skew while
/// keeping every draw reproducible.
#[derive(Debug, Clone)]
pub struct RowSampler {
    order: Vec<usize>,
    hot_len: usize,
}

impl RowSampler {
    /// A sampler over `num_rows` rows where a seeded `hot_fraction` of
    /// them (at least one, when the fraction is positive) forms the hot
    /// set.
    ///
    /// # Panics
    ///
    /// Panics if `num_rows == 0` or `hot_fraction` is outside `[0, 1]`.
    pub fn new(num_rows: usize, hot_fraction: f64, seed: u64) -> Self {
        assert!(num_rows > 0, "cannot sample rows from an empty dataset");
        assert!(
            (0.0..=1.0).contains(&hot_fraction),
            "hot_fraction must be in [0, 1] (got {hot_fraction})"
        );
        let mut order: Vec<usize> = (0..num_rows).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let hot_len = if hot_fraction > 0.0 {
            ((num_rows as f64 * hot_fraction).round() as usize).clamp(1, num_rows)
        } else {
            0
        };
        RowSampler { order, hot_len }
    }

    /// Draws one row index: with probability `hot_prob` uniformly from
    /// the hot set (when non-empty), otherwise uniformly from all rows.
    ///
    /// # Panics
    ///
    /// Panics if `hot_prob` is outside `[0, 1]`.
    pub fn draw<R: rand::Rng>(&self, rng: &mut R, hot_prob: f64) -> usize {
        if self.hot_len > 0 && rng.gen_bool(hot_prob) {
            self.order[rng.gen_range(0..self.hot_len)]
        } else {
            self.order[rng.gen_range(0..self.order.len())]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hot-set row indices (the shuffle prefix).
    fn hot_rows(s: &RowSampler) -> &[usize] {
        &s.order[..s.hot_len]
    }

    #[test]
    fn sample_returns_distinct_pool_members() {
        let pool: Vec<usize> = (10..30).collect();
        let mut s = BatchSampler::new(1);
        let b = s.sample(&pool, 5);
        assert_eq!(b.len(), 5);
        let mut sorted = b.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        for x in &b {
            assert!(pool.contains(x));
        }
    }

    /// The path `sample` replaced: `rand::seq::index::sample` over a
    /// fresh pool-sized vector, on the same RNG.
    fn index_sample(rng: &mut StdRng, pool: &[usize], batch_size: usize) -> Vec<usize> {
        if batch_size >= pool.len() {
            return pool.to_vec();
        }
        rand::seq::index::sample(rng, pool.len(), batch_size)
            .into_iter()
            .map(|i| pool[i])
            .collect()
    }

    fn assert_identity(s: &BatchSampler) {
        assert!(s
            .positions
            .iter()
            .enumerate()
            .all(|(i, &p)| p as usize == i));
    }

    #[test]
    fn sample_draws_what_index_sample_drew() {
        let shapes = [
            (1, 1),
            (2, 1),
            (7, 3),
            (50, 49),
            (50, 50),
            (50, 80),
            (2_408, 120),
            (9_632, 96),
            (20_214, 202),
        ];
        for seed in 0..4 {
            for (n, batch_size) in shapes {
                let pool: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
                let mut s = BatchSampler::new(seed);
                let mut rng = StdRng::seed_from_u64(seed);
                for _ in 0..5 {
                    let want = index_sample(&mut rng, &pool, batch_size);
                    assert_eq!(
                        s.sample(&pool, batch_size),
                        want,
                        "seed {seed}, {n}/{batch_size}"
                    );
                }
                assert_identity(&s);
            }
        }
    }

    #[test]
    fn sample_follows_a_pool_whose_length_changes_and_a_restore() {
        let calls = [
            (40, 7),
            (200, 19),
            (13, 12),
            (200, 3),
            (1, 1),
            (57, 56),
            (300, 30),
        ];
        let mut s = BatchSampler::new(8);
        let mut rng = StdRng::seed_from_u64(8);
        for (n, batch_size) in calls {
            let pool: Vec<usize> = (100..100 + n).rev().collect();
            assert_eq!(
                s.sample(&pool, batch_size),
                index_sample(&mut rng, &pool, batch_size)
            );
            assert_identity(&s);
        }
        // A restored sampler starts with no positions and draws the same.
        let mut restored = BatchSampler::restore_state(&s.export_state()).unwrap();
        assert!(restored.positions.is_empty());
        for (n, batch_size) in calls.into_iter().rev() {
            let pool: Vec<usize> = (0..n).collect();
            let want = index_sample(&mut rng, &pool, batch_size);
            assert_eq!(restored.sample(&pool, batch_size), want);
            assert_eq!(s.sample(&pool, batch_size), want);
        }
    }

    #[test]
    fn oversized_batch_returns_whole_pool() {
        let pool = vec![3, 1, 4];
        let mut s = BatchSampler::new(1);
        assert_eq!(s.sample(&pool, 10), pool);
        assert_eq!(s.sample(&pool, 3), pool);
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let pool: Vec<usize> = (0..100).collect();
        let a: Vec<_> = {
            let mut s = BatchSampler::new(9);
            (0..5).map(|_| s.sample(&pool, 10)).collect()
        };
        let b: Vec<_> = {
            let mut s = BatchSampler::new(9);
            (0..5).map(|_| s.sample(&pool, 10)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<_> = {
            let mut s = BatchSampler::new(10);
            (0..5).map(|_| s.sample(&pool, 10)).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn consecutive_samples_differ() {
        let pool: Vec<usize> = (0..100).collect();
        let mut s = BatchSampler::new(3);
        assert_ne!(s.sample(&pool, 10), s.sample(&pool, 10));
    }

    #[test]
    #[should_panic(expected = "empty pool")]
    fn empty_pool_panics() {
        BatchSampler::new(0).sample(&[], 1);
    }

    #[test]
    fn sampler_state_roundtrip_resumes_mid_stream() {
        let pool: Vec<usize> = (0..100).collect();
        let mut s = BatchSampler::new(5);
        let _ = s.sample(&pool, 10);
        let mut restored = BatchSampler::restore_state(&s.export_state()).unwrap();
        for _ in 0..5 {
            assert_eq!(s.sample(&pool, 10), restored.sample(&pool, 10));
        }
    }

    #[test]
    fn epoch_order_state_roundtrip_resumes_mid_stream() {
        let pool: Vec<usize> = (0..40).collect();
        let mut e = EpochOrder::new(6);
        let _ = e.next_order(&pool);
        let mut restored = EpochOrder::restore_state(&e.export_state()).unwrap();
        for _ in 0..5 {
            assert_eq!(e.next_order(&pool), restored.next_order(&pool));
        }
        // Invalid states are rejected, not misinterpreted.
        let mut bad = e.export_state();
        bad[40] = 99;
        assert!(EpochOrder::restore_state(&bad).is_none());
        assert!(BatchSampler::restore_state(&bad).is_none());
    }

    #[test]
    fn epoch_order_is_permutation_and_varies() {
        let pool: Vec<usize> = (0..50).collect();
        let mut e = EpochOrder::new(4);
        let o1 = e.next_order(&pool);
        let o2 = e.next_order(&pool);
        let mut s1 = o1.clone();
        s1.sort_unstable();
        assert_eq!(s1, pool);
        assert_ne!(o1, o2, "epochs should reshuffle");
    }

    #[test]
    fn epoch_order_deterministic_per_seed() {
        let pool: Vec<usize> = (0..20).collect();
        let a = EpochOrder::new(11).next_order(&pool);
        let b = EpochOrder::new(11).next_order(&pool);
        assert_eq!(a, b);
    }

    #[test]
    fn row_sampler_hot_set_is_seeded_prefix() {
        let s = RowSampler::new(100, 0.1, 7);
        assert_eq!(hot_rows(&s).len(), 10);
        assert_eq!(hot_rows(&RowSampler::new(100, 0.1, 7)), hot_rows(&s));
        assert_ne!(hot_rows(&RowSampler::new(100, 0.1, 8)), hot_rows(&s));
        // A positive fraction always yields at least one hot row.
        assert_eq!(hot_rows(&RowSampler::new(3, 0.01, 7)).len(), 1);
        assert_eq!(hot_rows(&RowSampler::new(3, 0.0, 7)).len(), 0);
    }

    #[test]
    fn row_sampler_skews_toward_hot_rows() {
        let s = RowSampler::new(1000, 0.01, 42);
        let hot: std::collections::BTreeSet<usize> = hot_rows(&s).iter().copied().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let draws = 5000;
        let hot_hits = (0..draws)
            .filter(|_| hot.contains(&s.draw(&mut rng, 0.9)))
            .count();
        // ~90% of draws hit the 1% hot set (plus ~1% uniform spillover).
        assert!(hot_hits > draws * 8 / 10, "hot hits {hot_hits}/{draws}");
        let uniform_hits = (0..draws)
            .filter(|_| hot.contains(&s.draw(&mut rng, 0.0)))
            .count();
        assert!(uniform_hits < draws / 10, "uniform hits {uniform_hits}");
        for _ in 0..200 {
            assert!(s.draw(&mut rng, 0.5) < 1000);
        }
    }

    #[test]
    fn row_sampler_draws_are_deterministic() {
        let s = RowSampler::new(50, 0.2, 3);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a: Vec<usize> = (0..100).map(|_| s.draw(&mut r1, 0.5)).collect();
        let b: Vec<usize> = (0..100).map(|_| s.draw(&mut r2, 0.5)).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn row_sampler_rejects_empty() {
        let _ = RowSampler::new(0, 0.5, 1);
    }
}
