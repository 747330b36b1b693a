//! Multiclass datasets and one-vs-rest binarization.
//!
//! MLlib trains multiclass linear models via one-vs-rest: `C` binary
//! problems, each distinguishing one class from all others. This module
//! provides the multiclass dataset type, a seeded generator (labels =
//! argmax of `C` planted linear scorers), and the per-class binarization
//! consumed by `mlstar-core`'s `OneVsRest` trainer.

use mlstar_linalg::SparseVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::synthetic::{normal, power_law_index};
use crate::{DataError, SparseDataset};

/// A sparse multiclass dataset with labels in `0..num_classes`.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticlassDataset {
    num_features: usize,
    num_classes: u32,
    rows: Vec<SparseVector>,
    labels: Vec<u32>,
}

impl MulticlassDataset {
    /// Creates a dataset, validating shapes and label range.
    pub fn new(
        num_features: usize,
        num_classes: u32,
        rows: Vec<SparseVector>,
        labels: Vec<u32>,
    ) -> Result<Self, DataError> {
        if num_classes < 2 {
            return Err(DataError::Inconsistent(format!(
                "need at least 2 classes, got {num_classes}"
            )));
        }
        if rows.len() != labels.len() {
            return Err(DataError::Inconsistent(format!(
                "{} rows but {} labels",
                rows.len(),
                labels.len()
            )));
        }
        for (i, r) in rows.iter().enumerate() {
            if r.dim() != num_features {
                return Err(DataError::Inconsistent(format!(
                    "row {i} has dimension {} but dataset declares {num_features}",
                    r.dim()
                )));
            }
        }
        if let Some((i, &y)) = labels.iter().enumerate().find(|(_, &y)| y >= num_classes) {
            return Err(DataError::Inconsistent(format!(
                "label {y} at row {i} outside 0..{num_classes}"
            )));
        }
        Ok(MulticlassDataset {
            num_features,
            num_classes,
            rows,
            labels,
        })
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no examples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes `C`.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// The example rows.
    pub fn rows(&self) -> &[SparseVector] {
        &self.rows
    }

    /// The class labels, parallel to [`MulticlassDataset::rows`].
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// The one-vs-rest binarization for `class`: `+1` for rows of that
    /// class, `−1` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes`.
    pub fn binarized(&self, class: u32) -> SparseDataset {
        assert!(class < self.num_classes, "class out of range");
        let labels = self
            .labels
            .iter()
            .map(|&y| if y == class { 1.0 } else { -1.0 })
            .collect();
        SparseDataset::new(self.num_features, self.rows.clone(), labels)
            .expect("binarization preserves validity") // lint:allow(panic_in_lib): rows were validated when self was constructed
    }

    /// Per-class example counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes as usize];
        for &y in &self.labels {
            counts[y as usize] += 1;
        }
        counts
    }
}

/// Seeded generator of multiclass problems: `C` planted linear scorers,
/// labels = argmax score (+ Gaussian noise per scorer).
#[derive(Debug, Clone, PartialEq)]
pub struct MulticlassConfig {
    /// Dataset name.
    pub name: String,
    /// Number of examples.
    pub num_instances: usize,
    /// Feature dimensionality.
    pub num_features: usize,
    /// Number of classes (≥ 2).
    pub num_classes: u32,
    /// Average nonzeros per row.
    pub avg_nnz: usize,
    /// Power-law skew of feature popularity (≥ 1).
    pub feature_skew: f64,
    /// Std of per-scorer Gaussian noise before the argmax.
    pub score_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl MulticlassConfig {
    /// A small default problem.
    pub fn small(name: &str, num_instances: usize, num_features: usize, num_classes: u32) -> Self {
        MulticlassConfig {
            name: name.to_owned(),
            num_instances,
            num_features,
            num_classes,
            avg_nnz: (num_features / 10).clamp(2, 50),
            feature_skew: 1.5,
            score_noise: 0.1,
            seed: 42,
        }
    }

    /// Generates the dataset.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero sizes, < 2 classes,
    /// skew < 1).
    pub fn generate(&self) -> MulticlassDataset {
        assert!(self.num_instances > 0, "num_instances must be positive");
        assert!(self.num_features > 0, "num_features must be positive");
        assert!(self.num_classes >= 2, "need at least 2 classes");
        assert!(self.avg_nnz > 0, "avg_nnz must be positive");
        assert!(self.feature_skew >= 1.0, "feature_skew must be ≥ 1");

        let mut rng = StdRng::seed_from_u64(self.seed);
        let scale = 2.0 / (self.avg_nnz as f64).sqrt();
        let scorers: Vec<Vec<f64>> = (0..self.num_classes)
            .map(|_| {
                (0..self.num_features)
                    .map(|_| normal(&mut rng) * scale)
                    .collect()
            })
            .collect();

        let lo = (self.avg_nnz / 2).max(1);
        let hi = (self.avg_nnz + self.avg_nnz / 2).clamp(lo, self.num_features);
        let mut rows = Vec::with_capacity(self.num_instances);
        let mut labels = Vec::with_capacity(self.num_instances);
        let mut pairs: Vec<(u32, f64)> = Vec::new();
        for _ in 0..self.num_instances {
            let nnz = rng.gen_range(lo..=hi);
            pairs.clear();
            for _ in 0..nnz {
                let idx = power_law_index(&mut rng, self.num_features, self.feature_skew);
                pairs.push((idx as u32, 1.0));
            }
            let row = SparseVector::from_pairs(self.num_features, &pairs).expect("in bounds"); // lint:allow(panic_in_lib): indices are drawn modulo num_features
            let label = scorers
                .iter()
                .enumerate()
                .map(|(c, w)| {
                    let score: f64 = row.iter().map(|(i, v)| w[i] * v).sum::<f64>()
                        + self.score_noise * normal(&mut rng);
                    (c as u32, score)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least two classes") // lint:allow(panic_in_lib): config validation guarantees num_classes ≥ 2
                .0;
            rows.push(row);
            labels.push(label);
        }
        MulticlassDataset::new(self.num_features, self.num_classes, rows, labels)
            .expect("generator output is valid") // lint:allow(panic_in_lib): labels come from 0..num_classes by construction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MulticlassDataset {
        MulticlassConfig::small("mc", 300, 40, 4).generate()
    }

    #[test]
    fn generates_requested_shape_with_all_classes() {
        let ds = tiny();
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.num_features(), 40);
        assert_eq!(ds.num_classes(), 4);
        let counts = ds.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), 300);
        assert!(
            counts.iter().all(|&c| c > 10),
            "every class should be populated: {counts:?}"
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(tiny(), tiny());
        let other = MulticlassConfig {
            seed: 7,
            ..MulticlassConfig::small("mc", 300, 40, 4)
        };
        assert_ne!(tiny(), other.generate());
    }

    #[test]
    fn binarization_maps_labels() {
        let ds = tiny();
        let counts = ds.class_counts();
        for class in 0..4u32 {
            let bin = ds.binarized(class);
            assert_eq!(bin.len(), ds.len());
            let positives = bin.labels().iter().filter(|&&y| y == 1.0).count();
            assert_eq!(positives, counts[class as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn binarize_rejects_bad_class() {
        let _ = tiny().binarized(4);
    }

    #[test]
    fn new_validates() {
        let row = SparseVector::from_pairs(3, &[(0, 1.0)]).unwrap();
        assert!(MulticlassDataset::new(3, 1, vec![row.clone()], vec![0]).is_err());
        assert!(MulticlassDataset::new(3, 3, vec![row.clone()], vec![3]).is_err());
        assert!(MulticlassDataset::new(3, 3, vec![row.clone()], vec![]).is_err());
        assert!(MulticlassDataset::new(4, 3, vec![row.clone()], vec![0]).is_err());
        assert!(MulticlassDataset::new(3, 3, vec![row], vec![2]).is_ok());
    }

    #[test]
    fn empty_checks() {
        let ds = MulticlassDataset::new(3, 2, vec![], vec![]).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.class_counts(), vec![0, 0]);
    }
}
