//! Binary-classification metrics.
//!
//! Every metric here is built from one margin loop ([`margins`]) and two
//! score-space primitives ([`BinaryConfusion::from_scores`] and
//! [`auc_from_scores`]); the weight-based and [`GlmModel`]-based entry
//! points are thin wrappers, so training code, one-vs-rest, and the
//! serving subsystem all score through the same arithmetic.

use crate::GlmModel;
use mlstar_linalg::{DenseVector, SparseVector};

/// The margins `w·x` of every row — the single scoring loop all metrics
/// share.
pub fn margins(w: &DenseVector, rows: &[SparseVector]) -> Vec<f64> {
    rows.iter().map(|x| w.dot_sparse(x)).collect()
}

/// Classification accuracy of the linear model `w` on `(rows, labels)`,
/// with labels in `{−1, +1}` and ties (zero margin) predicted as `+1`.
///
/// # Panics
///
/// Panics if `rows` is empty or lengths differ.
pub fn accuracy(w: &DenseVector, rows: &[SparseVector], labels: &[f64]) -> f64 {
    BinaryConfusion::evaluate(w, rows, labels).accuracy()
}

/// [`accuracy`] for a [`GlmModel`].
///
/// # Panics
///
/// Panics if `rows` is empty or lengths differ.
pub fn model_accuracy(model: &GlmModel, rows: &[SparseVector], labels: &[f64]) -> f64 {
    accuracy(model.weights(), rows, labels)
}

/// Area under the ROC curve via the rank-statistic formulation:
/// `AUC = (Σ ranks of positives − n₊(n₊+1)/2) / (n₊·n₋)`, with midranks
/// for tied margins. Returns 0.5 for degenerate single-class data.
///
/// # Panics
///
/// Panics if `rows` is empty or lengths differ.
pub fn auc(w: &DenseVector, rows: &[SparseVector], labels: &[f64]) -> f64 {
    assert_eq!(rows.len(), labels.len(), "one label per row required");
    assert!(!rows.is_empty(), "AUC over an empty dataset is undefined");
    auc_from_scores(&margins(w, rows), labels)
}

/// [`auc`] for a [`GlmModel`].
///
/// # Panics
///
/// Panics if `rows` is empty or lengths differ.
pub fn model_auc(model: &GlmModel, rows: &[SparseVector], labels: &[f64]) -> f64 {
    auc(model.weights(), rows, labels)
}

/// AUC over precomputed scores (see [`auc`] for the formulation).
///
/// # Panics
///
/// Panics if `scores` is empty or lengths differ.
pub fn auc_from_scores(scores: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "one label per score required");
    assert!(!scores.is_empty(), "AUC over an empty dataset is undefined");
    let mut scored: Vec<(f64, bool)> = scores
        .iter()
        .zip(labels.iter())
        .map(|(&s, &y)| (s, y > 0.0))
        .collect();
    let n_pos = scored.iter().filter(|(_, p)| *p).count();
    let n_neg = scored.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Midranks over ties.
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    #[expect(
        clippy::float_cmp,
        reason = "ties are exactly equal scores; an epsilon would merge distinct ranks"
    )]
    while i < scored.len() {
        let mut j = i;
        while j + 1 < scored.len() && scored[j + 1].0 == scored[i].0 {
            j += 1;
        }
        // 1-based ranks i+1 ..= j+1 share the midrank.
        let midrank = (i + 1 + j + 1) as f64 / 2.0;
        for item in &scored[i..=j] {
            if item.1 {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let n_pos_f = n_pos as f64;
    (rank_sum_pos - n_pos_f * (n_pos_f + 1.0) / 2.0) / (n_pos_f * n_neg as f64)
}

/// A binary confusion matrix for `{−1, +1}` labels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinaryConfusion {
    /// Positive examples predicted positive.
    pub tp: u64,
    /// Negative examples predicted positive.
    pub fp: u64,
    /// Negative examples predicted negative.
    pub tn: u64,
    /// Positive examples predicted negative.
    pub fn_: u64,
}

impl BinaryConfusion {
    /// Evaluates the model over a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths differ.
    pub fn evaluate(w: &DenseVector, rows: &[SparseVector], labels: &[f64]) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row required");
        assert!(
            !rows.is_empty(),
            "metrics over an empty dataset are undefined"
        );
        BinaryConfusion::from_scores(&margins(w, rows), labels)
    }

    /// [`BinaryConfusion::evaluate`] for a [`GlmModel`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths differ.
    pub fn evaluate_model(model: &GlmModel, rows: &[SparseVector], labels: &[f64]) -> Self {
        BinaryConfusion::evaluate(model.weights(), rows, labels)
    }

    /// Builds the confusion matrix from precomputed scores (ties at zero
    /// predict `+1`).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn from_scores(scores: &[f64], labels: &[f64]) -> Self {
        assert_eq!(scores.len(), labels.len(), "one label per score required");
        let mut c = BinaryConfusion::default();
        for (&s, &y) in scores.iter().zip(labels.iter()) {
            match (y > 0.0, s >= 0.0) {
                (true, true) => c.tp += 1,
                (true, false) => c.fn_ += 1,
                (false, true) => c.fp += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Total number of examples.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction correctly classified.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / self.total() as f64
    }

    /// Precision `tp / (tp + fp)`; 0 when no positives were predicted.
    pub fn precision(&self) -> f64 {
        let denom = self.tp + self.fp;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 0 when there are no positive examples.
    pub fn recall(&self) -> f64 {
        let denom = self.tp + self.fn_;
        if denom == 0 {
            0.0
        } else {
            self.tp as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        // exact-zero guard against 0/0; both terms are ≥ 0
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> (DenseVector, Vec<SparseVector>, Vec<f64>) {
        let w = DenseVector::from_vec(vec![1.0, -1.0]);
        let rows = vec![
            SparseVector::from_pairs(2, &[(0, 1.0)]).unwrap(), // margin +1
            SparseVector::from_pairs(2, &[(1, 1.0)]).unwrap(), // margin −1
            SparseVector::from_pairs(2, &[(0, 1.0), (1, 2.0)]).unwrap(), // margin −1
        ];
        (w, rows, vec![1.0, -1.0, 1.0])
    }

    #[test]
    fn confusion_counts() {
        let (w, rows, labels) = problem();
        let c = BinaryConfusion::evaluate(&w, &rows, &labels);
        assert_eq!(
            c,
            BinaryConfusion {
                tp: 1,
                fp: 0,
                tn: 1,
                fn_: 1
            }
        );
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn derived_metrics() {
        let (w, rows, labels) = problem();
        let c = BinaryConfusion::evaluate(&w, &rows, &labels);
        assert!((c.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 0.5);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert!((accuracy(&w, &rows, &labels) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_return_zero_not_nan() {
        let c = BinaryConfusion::default();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(), 0.0);
        assert_eq!(c.recall(), 0.0);
        assert_eq!(c.f1(), 0.0);
    }

    #[test]
    fn auc_of_perfect_ranker_is_one() {
        let w = DenseVector::from_vec(vec![1.0]);
        let rows: Vec<SparseVector> = (0..6)
            .map(|i| SparseVector::from_pairs(1, &[(0, i as f64)]).unwrap())
            .collect();
        // Scores 0..5; positives are the top three.
        let labels = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
        assert!((auc(&w, &rows, &labels) - 1.0).abs() < 1e-12);
        // Inverted labels give AUC 0.
        let inverted: Vec<f64> = labels.iter().map(|y| -y).collect();
        assert!(auc(&w, &rows, &inverted).abs() < 1e-12);
    }

    #[test]
    fn auc_of_random_scores_is_half_for_constant_margin() {
        // All margins equal → every ordering tied → AUC = 0.5 by midranks.
        let w = DenseVector::zeros(1);
        let rows: Vec<SparseVector> = (0..10)
            .map(|_| SparseVector::from_pairs(1, &[(0, 1.0)]).unwrap())
            .collect();
        let labels: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!((auc(&w, &rows, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_degenerate_single_class_is_half() {
        let w = DenseVector::from_vec(vec![1.0]);
        let rows = vec![SparseVector::from_pairs(1, &[(0, 1.0)]).unwrap()];
        assert_eq!(auc(&w, &rows, &[1.0]), 0.5);
        assert_eq!(auc(&w, &rows, &[-1.0]), 0.5);
    }

    #[test]
    fn auc_handles_partial_ordering() {
        let w = DenseVector::from_vec(vec![1.0]);
        let rows: Vec<SparseVector> = [0.0, 1.0, 2.0, 3.0]
            .iter()
            .map(|&v| SparseVector::from_pairs(1, &[(0, v)]).unwrap())
            .collect();
        // One inversion: positive at score 1, negative at score 2.
        let labels = vec![-1.0, 1.0, -1.0, 1.0];
        // ranks of positives (1-based): 2 and 4 → (6 − 3) / (2·2) = 0.75.
        assert!((auc(&w, &rows, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn model_wrappers_match_weight_entry_points() {
        let (w, rows, labels) = problem();
        let model = GlmModel::from_weights(w.clone());
        assert_eq!(
            BinaryConfusion::evaluate_model(&model, &rows, &labels),
            BinaryConfusion::evaluate(&w, &rows, &labels)
        );
        assert_eq!(
            model_accuracy(&model, &rows, &labels).to_bits(),
            accuracy(&w, &rows, &labels).to_bits()
        );
        assert_eq!(
            model_auc(&model, &rows, &labels).to_bits(),
            auc(&w, &rows, &labels).to_bits()
        );
        // The score-space primitives agree with the margin loop.
        let scores = margins(&w, &rows);
        assert_eq!(
            BinaryConfusion::from_scores(&scores, &labels),
            BinaryConfusion::evaluate(&w, &rows, &labels)
        );
        assert_eq!(
            auc_from_scores(&scores, &labels).to_bits(),
            auc(&w, &rows, &labels).to_bits()
        );
    }

    #[test]
    fn zero_margin_counts_as_positive_prediction() {
        let w = DenseVector::zeros(1);
        let rows = vec![SparseVector::from_pairs(1, &[(0, 1.0)]).unwrap()];
        let c = BinaryConfusion::evaluate(&w, &rows, &[1.0]);
        assert_eq!(c.tp, 1);
        let c = BinaryConfusion::evaluate(&w, &rows, &[-1.0]);
        assert_eq!(c.fp, 1);
    }
}
