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
    fn weights_accessors() {
        let mut m = GlmModel::zeros(2);
        m.weights_mut().set(1, 5.0);
        assert_eq!(m.weights().get(1), 5.0);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.weights().as_slice(), &[0.0, 5.0]);
    }
}
