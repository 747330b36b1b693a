//! The GLM model: a weight vector with prediction helpers.

use mlstar_linalg::{DenseVector, SparseVector};

/// A linear model `w` for GLMs.
///
/// Following MLlib's `GeneralizedLinearModel` for SVM/LR training on LIBSVM
/// data, there is no separate intercept term: datasets that need a bias
/// carry an always-one feature column instead (the synthetic generators in
/// `mlstar-data` can add one).
#[derive(Debug, Clone, PartialEq)]
pub struct GlmModel {
    weights: DenseVector,
}

impl GlmModel {
    /// A zero model of the given dimension (the paper's `w₀`).
    pub fn zeros(dim: usize) -> Self {
        GlmModel {
            weights: DenseVector::zeros(dim),
        }
    }

    /// Wraps an existing weight vector.
    pub fn from_weights(weights: DenseVector) -> Self {
        GlmModel { weights }
    }

    /// The model dimension.
    pub fn dim(&self) -> usize {
        self.weights.dim()
    }

    /// Borrows the weights.
    pub fn weights(&self) -> &DenseVector {
        &self.weights
    }

    /// Mutably borrows the weights.
    pub fn weights_mut(&mut self) -> &mut DenseVector {
        &mut self.weights
    }

    /// Consumes the model, returning the weights.
    pub fn into_weights(self) -> DenseVector {
        self.weights
    }

    /// The margin `w·x` for an example.
    pub fn margin(&self, x: &SparseVector) -> f64 {
        self.weights.dot_sparse(x)
    }

    /// The predicted binary label (`+1` / `-1`) for an example, with ties
    /// (zero margin) mapped to `+1`.
    pub fn predict(&self, x: &SparseVector) -> f64 {
        if self.margin(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// The logistic probability `P(y = +1 | x) = σ(w·x)`.
    pub fn predict_probability(&self, x: &SparseVector) -> f64 {
        logistic(self.margin(x))
    }
}

/// The logistic function `σ(m) = 1 / (1 + e^{−m})`, evaluated on the side
/// of zero where `exp` cannot overflow. Callers that already hold a margin
/// use this instead of [`GlmModel::predict_probability`], which would
/// compute the dot product again.
pub fn logistic(m: f64) -> f64 {
    if m >= 0.0 {
        1.0 / (1.0 + (-m).exp())
    } else {
        let e = m.exp();
        e / (1.0 + e)
    }
}

/// The sparse model delta `new − base`: one stored entry per coordinate
/// whose *bit pattern* changed, holding the arithmetic difference. This
/// is what a worker actually has to ship after a local pass — under L1 /
/// elastic-net training most coordinates never move, so the delta is far
/// sparser than the model itself. Fails if any difference is non-finite
/// (a diverged model); callers fall back to shipping dense.
///
/// # Panics
///
/// Panics if the vectors' dimensions differ.
pub fn sparse_delta(
    new: &DenseVector,
    base: &DenseVector,
) -> Result<SparseVector, mlstar_linalg::LinalgError> {
    assert_eq!(new.dim(), base.dim(), "model dimension mismatch");
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (i, (a, b)) in new
        .as_slice()
        .iter()
        .zip(base.as_slice().iter())
        .enumerate()
    {
        if a.to_bits() != b.to_bits() {
            indices.push(i as u32);
            values.push(a - b);
        }
    }
    SparseVector::new(new.dim(), indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_predicts_positive() {
        let m = GlmModel::zeros(4);
        let x = SparseVector::from_pairs(4, &[(0, 1.0)]).unwrap();
        assert_eq!(m.margin(&x), 0.0);
        assert_eq!(m.predict(&x), 1.0);
        assert!((m.predict_probability(&x) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn margin_and_prediction() {
        let m = GlmModel::from_weights(DenseVector::from_vec(vec![1.0, -2.0, 0.0]));
        let pos = SparseVector::from_pairs(3, &[(0, 3.0)]).unwrap();
        let neg = SparseVector::from_pairs(3, &[(1, 3.0)]).unwrap();
        assert_eq!(m.margin(&pos), 3.0);
        assert_eq!(m.predict(&pos), 1.0);
        assert_eq!(m.margin(&neg), -6.0);
        assert_eq!(m.predict(&neg), -1.0);
    }

    #[test]
    fn probability_is_stable_and_monotone() {
        let m = GlmModel::from_weights(DenseVector::from_vec(vec![1000.0]));
        let x = SparseVector::from_pairs(1, &[(0, 1.0)]).unwrap();
        let p = m.predict_probability(&x);
        assert!(p.is_finite() && p > 0.999_999);
        let m = GlmModel::from_weights(DenseVector::from_vec(vec![-1000.0]));
        let p = m.predict_probability(&x);
        assert!(p.is_finite() && p < 1e-6);
    }

    #[test]
    fn logistic_of_the_margin_is_predict_probability_to_the_bit() {
        // A one-hot row makes the margin the weight itself (−0.0 comes
        // back as +0.0 from the dot product, which σ maps to the same 0.5).
        let x = SparseVector::from_pairs(1, &[(0, 1.0)]).unwrap();
        for m in [
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            40.0,
            -40.0,
            800.0,
            -800.0,
            f64::NAN,
        ] {
            let model = GlmModel::from_weights(DenseVector::from_vec(vec![m]));
            assert_eq!(
                logistic(m).to_bits(),
                model.predict_probability(&x).to_bits(),
                "{m}"
            );
        }
    }

    #[test]
    fn sparse_delta_ships_only_touched_coordinates() {
        let base = DenseVector::from_vec(vec![1.0, 0.0, -2.0, 0.5]);
        let new = DenseVector::from_vec(vec![1.0, 0.25, -2.0, 0.75]);
        let d = sparse_delta(&new, &base).unwrap();
        assert_eq!(d.indices(), &[1, 3]);
        assert_eq!(d.values(), &[0.25, 0.25]);
        // Applying the delta to the base reproduces the new model.
        let mut rebuilt = base.clone();
        rebuilt.axpy_sparse(1.0, &d);
        assert_eq!(rebuilt.as_slice(), new.as_slice());
    }

    #[test]
    fn sparse_delta_of_identical_models_is_empty() {
        let w = DenseVector::from_vec(vec![1.0, -1.0]);
        assert_eq!(sparse_delta(&w, &w).unwrap().nnz(), 0);
    }

    #[test]
    fn sparse_delta_rejects_non_finite_differences() {
        let base = DenseVector::from_vec(vec![0.0]);
        let new = DenseVector::from_vec(vec![f64::INFINITY]);
        assert!(sparse_delta(&new, &base).is_err());
    }

    #[test]
    fn weights_accessors() {
        let mut m = GlmModel::zeros(2);
        m.weights_mut().set(1, 5.0);
        assert_eq!(m.weights().get(1), 5.0);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.into_weights().as_slice(), &[0.0, 5.0]);
    }
}
