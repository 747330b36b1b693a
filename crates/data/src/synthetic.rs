//! Seeded synthetic sparse classification problems.
//!
//! The generator produces linear classification data with the structural
//! properties that drive the convergence shapes in the paper:
//!
//! * **Power-law feature popularity** — a few features appear in many
//!   rows, most appear in few (CTR one-hot data looks like this). The
//!   skew controls conditioning.
//! * **Determined vs. underdetermined shape** — with more features than
//!   instances (url, kddb) the unregularized problem has many minimizers
//!   and plain GD stalls; with L2 it becomes well-posed again. This is
//!   exactly the contrast Figures 4 and 5 explore.
//! * **A planted linear model** — labels are the sign of `w*·x` plus
//!   noise, so the hinge/logistic objectives have informative minima.

use mlstar_linalg::SparseVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SparseDataset;

/// Configuration for the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Human-readable name (used in benchmark tables, e.g. `"avazu-like"`).
    pub name: String,
    /// Number of examples to generate.
    pub num_instances: usize,
    /// Feature dimensionality.
    pub num_features: usize,
    /// Average number of nonzeros per row (actual counts are uniform in
    /// `[avg/2, 3·avg/2]`, clamped to `[1, num_features]`).
    pub avg_nnz: usize,
    /// Power-law exponent for feature popularity (`≥ 1`); larger values
    /// concentrate mass on a few popular features.
    pub feature_skew: f64,
    /// Standard deviation of Gaussian noise added to the planted margin
    /// before taking the sign.
    pub margin_noise: f64,
    /// Probability of flipping the resulting label.
    pub flip_prob: f64,
    /// If true feature values are all `1.0` (one-hot style); otherwise
    /// they are uniform in `[0.5, 1.5]`.
    pub binary_features: bool,
    /// Multiplier on the planted model's weights. Values > 1 make the
    /// classes more separable (larger geometric margins), which keeps the
    /// L2-regularized optimum meaningfully below the zero-model loss.
    pub margin_scale: f64,
    /// Number of *informative* features (0 = all features carry weight).
    /// Real CTR/KDD data concentrates signal on popular features; a small
    /// informative set keeps the planted model's L2 norm moderate, so the
    /// L2 = 0.1 experiments have a nontrivial optimum (as in the paper).
    pub informative_features: usize,
    /// Probability that a nonzero's index is drawn uniformly from the
    /// informative set instead of the global power law. Ensures most rows
    /// actually touch the signal.
    pub popular_fraction: f64,
    /// RNG seed. The same config always yields the same dataset.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A small default problem, useful in tests and examples.
    pub fn small(name: &str, num_instances: usize, num_features: usize) -> Self {
        SyntheticConfig {
            name: name.to_owned(),
            num_instances,
            num_features,
            avg_nnz: (num_features / 10).clamp(2, 50),
            feature_skew: 1.5,
            margin_noise: 0.1,
            flip_prob: 0.02,
            binary_features: true,
            margin_scale: 3.0,
            informative_features: 0,
            popular_fraction: 0.0,
            seed: 42,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy scaled down by `factor` in both instances and
    /// features (floors of 16 instances / 8 features), for fast tests.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        let f = factor.max(1);
        self.num_instances = (self.num_instances / f).max(16);
        self.num_features = (self.num_features / f).max(8);
        self.avg_nnz = self.avg_nnz.clamp(1, self.num_features);
        self.informative_features = self.informative_features.min(self.num_features);
        self
    }

    /// Generates the dataset.
    ///
    /// # Panics
    ///
    /// Panics if `num_instances`, `num_features` or `avg_nnz` is zero, or
    /// if `feature_skew < 1.0`.
    pub fn generate(&self) -> SparseDataset {
        assert!(self.num_instances > 0, "num_instances must be positive");
        assert!(self.num_features > 0, "num_features must be positive");
        assert!(self.avg_nnz > 0, "avg_nnz must be positive");
        assert!(self.feature_skew >= 1.0, "feature_skew must be ≥ 1");

        assert!(
            (0.0..=1.0).contains(&self.popular_fraction),
            "popular_fraction must be in [0, 1]"
        );
        assert!(
            self.informative_features <= self.num_features,
            "informative set cannot exceed the feature space"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Planted model: Gaussian weights scaled so margins are
        // O(margin_scale). With an informative subset, only its features
        // carry weight and the scale normalizes by the expected number of
        // informative hits per row.
        let c = if self.informative_features == 0 {
            self.num_features
        } else {
            self.informative_features
        };
        let expected_hits = if self.informative_features == 0 {
            self.avg_nnz as f64
        } else {
            let p = self.popular_fraction;
            let tail_hit = (c as f64 / self.num_features as f64).powf(1.0 / self.feature_skew);
            (self.avg_nnz as f64 * (p + (1.0 - p) * tail_hit)).max(0.25)
        };
        let scale = self.margin_scale / expected_hits.sqrt();
        let truth: Vec<f64> = (0..self.num_features)
            .map(|j| if j < c { normal(&mut rng) * scale } else { 0.0 })
            .collect();

        let mut ds = SparseDataset::empty(self.num_features);
        let lo = (self.avg_nnz / 2).max(1);
        let hi = (self.avg_nnz + self.avg_nnz / 2).clamp(lo, self.num_features);
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(hi);
        for _ in 0..self.num_instances {
            let nnz = rng.gen_range(lo..=hi);
            pairs.clear();
            for _ in 0..nnz {
                let idx = if self.informative_features > 0 && rng.gen_bool(self.popular_fraction) {
                    rng.gen_range(0..self.informative_features)
                } else {
                    power_law_index(&mut rng, self.num_features, self.feature_skew)
                };
                let val = if self.binary_features {
                    1.0
                } else {
                    rng.gen_range(0.5..1.5)
                };
                pairs.push((idx as u32, val));
            }
            // from_pairs merges duplicate indices by summation, which for
            // binary features models repeated categorical hits.
            #[expect(clippy::expect_used, reason = "indices are drawn modulo num_features")]
            let row = SparseVector::from_pairs(self.num_features, &pairs)
                .expect("generated pairs are in bounds");
            let mut margin: f64 = row.iter().map(|(i, v)| truth[i] * v).sum();
            margin += self.margin_noise * normal(&mut rng);
            let mut label = if margin >= 0.0 { 1.0 } else { -1.0 };
            if rng.gen_bool(self.flip_prob.clamp(0.0, 1.0)) {
                label = -label;
            }
            ds.push(row, label);
        }
        ds
    }
}

/// Samples a feature index in `[0, d)` with power-law popularity: the CDF
/// trick `i = ⌊d·u^γ⌋` concentrates mass near index 0 for `γ > 1`.
pub(crate) fn power_law_index(rng: &mut StdRng, d: usize, gamma: f64) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    ((d as f64) * u.powf(gamma)) as usize % d
}

/// A standard normal draw via Box–Muller (the allowed-crate set excludes
/// `rand_distr`).
pub(crate) fn normal(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SyntheticConfig {
        SyntheticConfig::small("tiny", 200, 50)
    }

    #[test]
    fn generates_requested_shape() {
        let ds = tiny().generate();
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.num_features(), 50);
        for row in ds.rows() {
            assert!(row.nnz() >= 1);
            row.validate().expect("rows satisfy sparse invariants");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = tiny().generate();
        let b = tiny().generate();
        assert_eq!(a, b);
        let c = tiny().with_seed(7).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_plus_minus_one_and_mixed() {
        let ds = tiny().generate();
        let pos = ds.labels().iter().filter(|&&y| y == 1.0).count();
        let neg = ds.labels().iter().filter(|&&y| y == -1.0).count();
        assert_eq!(pos + neg, ds.len());
        assert!(pos > 10 && neg > 10, "pos={pos} neg={neg}");
    }

    #[test]
    fn power_law_concentrates_on_low_indices() {
        let mut cfg = tiny();
        cfg.num_instances = 2000;
        cfg.feature_skew = 3.0;
        let ds = cfg.generate();
        let mut counts = vec![0usize; cfg.num_features];
        for row in ds.rows() {
            for (i, _) in row.iter() {
                counts[i] += 1;
            }
        }
        let low: usize = counts[..10].iter().sum();
        let high: usize = counts[40..].iter().sum();
        assert!(low > 4 * high.max(1), "low={low} high={high}");
    }

    #[test]
    fn binary_features_have_integer_values() {
        let ds = tiny().generate();
        for row in ds.rows() {
            for (_, v) in row.iter() {
                // Duplicated indices sum, so values are positive integers.
                assert!(v >= 1.0 && v.fract() == 0.0, "value {v}");
            }
        }
    }

    #[test]
    fn non_binary_features_vary() {
        let mut cfg = tiny();
        cfg.binary_features = false;
        let ds = cfg.generate();
        let any_fractional = ds
            .rows()
            .iter()
            .flat_map(|r| r.values().iter())
            .any(|v| v.fract() != 0.0);
        assert!(any_fractional);
    }

    #[test]
    fn scaled_down_shrinks_but_stays_valid() {
        let big = SyntheticConfig::small("big", 10_000, 1_000);
        let small = big.clone().scaled_down(100);
        assert_eq!(small.num_instances, 100);
        assert_eq!(small.num_features, 10);
        assert!(small.avg_nnz <= small.num_features);
        let ds = small.generate();
        assert_eq!(ds.len(), 100);
    }

    #[test]
    fn planted_model_is_learnable() {
        // A linear model must reach high accuracy on low-noise data;
        // checked via a quick perceptron-style pass.
        let mut cfg = tiny();
        cfg.margin_noise = 0.0;
        cfg.flip_prob = 0.0;
        let ds = cfg.generate();
        let mut w = mlstar_linalg::DenseVector::zeros(cfg.num_features);
        for _ in 0..50 {
            for (row, &y) in ds.rows().iter().zip(ds.labels().iter()) {
                if y * w.dot_sparse(row) <= 0.0 {
                    w.axpy_sparse(y, row);
                }
            }
        }
        let correct = ds
            .rows()
            .iter()
            .zip(ds.labels().iter())
            .filter(|(r, &y)| y * w.dot_sparse(r) > 0.0)
            .count();
        assert!(
            correct as f64 > 0.9 * ds.len() as f64,
            "perceptron fits {}/{}",
            correct,
            ds.len()
        );
    }

    #[test]
    fn normal_has_roughly_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
