//! Regularization terms `Ω(w)` and their update rules.

use mlstar_linalg::DenseVector;

/// The regularization term `Ω(w)` of the objective
/// `f(w, X) = l(w, X) + Ω(w)`.
///
/// The paper evaluates SVMs with `L2 = 0` and `L2 = 0.1`; L1 is provided as
/// the natural extension (the paper's Eq. 1 names both).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regularizer {
    /// No regularization (`Ω = 0`). The "L2 = 0" setting of the paper.
    None,
    /// Ridge penalty `(λ/2)·‖w‖₂²`.
    L2 {
        /// Regularization strength λ.
        lambda: f64,
    },
    /// Lasso penalty `λ·‖w‖₁`.
    L1 {
        /// Regularization strength λ.
        lambda: f64,
    },
}

impl Regularizer {
    /// Convenience constructor matching the paper's "L2 = λ" notation:
    /// `l2(0.0)` yields [`Regularizer::None`].
    pub fn l2(lambda: f64) -> Self {
        // λ = 0.0 is an exact sentinel for "unregularized"
        if lambda == 0.0 {
            Regularizer::None
        } else {
            Regularizer::L2 { lambda }
        }
    }

    /// The penalty value `Ω(w)`.
    pub fn value(&self, w: &DenseVector) -> f64 {
        match self {
            Regularizer::None => 0.0,
            Regularizer::L2 { lambda } => 0.5 * lambda * w.norm2_sq(),
            Regularizer::L1 { lambda } => lambda * w.norm1(),
        }
    }

    /// Adds `∇Ω(w)` (sub-gradient for L1) into `grad`.
    pub fn add_gradient(&self, w: &DenseVector, grad: &mut DenseVector) {
        match self {
            Regularizer::None => {}
            Regularizer::L2 { lambda } => grad.axpy(*lambda, w),
            Regularizer::L1 { lambda } => {
                for i in 0..w.dim() {
                    grad[i] += lambda * signum_or_zero(w.get(i));
                }
            }
        }
    }

    /// True if `Ω ≡ 0`. Petuum's local computation switches on exactly this
    /// predicate in the paper (parallel SGD when zero, per-batch GD when
    /// nonzero).
    pub fn is_none(&self) -> bool {
        matches!(self, Regularizer::None)
    }

    /// Strength λ regardless of flavor (0 for `None`). Used in reports.
    pub fn lambda(&self) -> f64 {
        match self {
            Regularizer::None => 0.0,
            Regularizer::L2 { lambda } | Regularizer::L1 { lambda } => *lambda,
        }
    }

    /// Short label used in benchmark output, e.g. `"L2=0.1"`.
    pub fn label(&self) -> String {
        match self {
            Regularizer::None => "L2=0".to_owned(),
            Regularizer::L2 { lambda } => format!("L2={lambda}"),
            Regularizer::L1 { lambda } => format!("L1={lambda}"),
        }
    }
}

/// `signum` that maps exact zero to zero (the standard L1 sub-gradient
/// convention); `f64::signum(0.0)` would return `1.0`.
#[inline]
fn signum_or_zero(x: f64) -> f64 {
    // signum_or_zero is defined exactly at 0.0
    if x == 0.0 {
        0.0
    } else {
        x.signum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dv(values: &[f64]) -> DenseVector {
        DenseVector::from_vec(values.to_vec())
    }

    #[test]
    fn l2_constructor_collapses_zero() {
        assert_eq!(Regularizer::l2(0.0), Regularizer::None);
        assert_eq!(Regularizer::l2(0.1), Regularizer::L2 { lambda: 0.1 });
    }

    #[test]
    fn values() {
        let w = dv(&[3.0, -4.0]);
        assert_eq!(Regularizer::None.value(&w), 0.0);
        assert!((Regularizer::L2 { lambda: 0.1 }.value(&w) - 0.5 * 0.1 * 25.0).abs() < 1e-12);
        assert!((Regularizer::L1 { lambda: 0.1 }.value(&w) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn gradients() {
        let w = dv(&[2.0, -2.0, 0.0]);
        let mut g = DenseVector::zeros(3);
        Regularizer::L2 { lambda: 0.5 }.add_gradient(&w, &mut g);
        assert_eq!(g.as_slice(), &[1.0, -1.0, 0.0]);

        let mut g = DenseVector::zeros(3);
        Regularizer::L1 { lambda: 0.5 }.add_gradient(&w, &mut g);
        assert_eq!(g.as_slice(), &[0.5, -0.5, 0.0]);

        let mut g = dv(&[7.0, 7.0, 7.0]);
        Regularizer::None.add_gradient(&w, &mut g);
        assert_eq!(g.as_slice(), &[7.0, 7.0, 7.0]);
    }

    #[test]
    fn labels_and_predicates() {
        assert!(Regularizer::None.is_none());
        assert!(!Regularizer::L2 { lambda: 0.1 }.is_none());
        assert_eq!(Regularizer::None.label(), "L2=0");
        assert_eq!(Regularizer::L2 { lambda: 0.1 }.label(), "L2=0.1");
        assert_eq!(Regularizer::L1 { lambda: 0.3 }.lambda(), 0.3);
        assert_eq!(Regularizer::None.lambda(), 0.0);
    }
}
