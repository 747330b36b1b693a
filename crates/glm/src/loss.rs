//! Loss functions for GLM training.

/// A GLM loss function `l(m, y)` of the margin `m = w·x` and label `y`.
///
/// Binary labels are encoded as `±1.0` (hinge and logistic); the squared
/// loss accepts arbitrary real labels.
///
/// Dispatch is by `enum` rather than trait object so that the per-example
/// hot loops fully inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Hinge loss `max(0, 1 - y·m)` — linear SVM, the model trained in the
    /// paper's evaluation.
    Hinge,
    /// Logistic loss `ln(1 + exp(-y·m))` — logistic regression.
    Logistic,
    /// Squared loss `½(m - y)²` — least squares regression.
    Squared,
}

impl Loss {
    /// The loss value at margin `m` with label `y`.
    #[inline]
    pub fn value(self, m: f64, y: f64) -> f64 {
        match self {
            Loss::Hinge => (1.0 - y * m).max(0.0),
            Loss::Logistic => {
                // Numerically stable log1p(exp(-ym)).
                let z = -y * m;
                if z > 35.0 {
                    z
                } else {
                    z.exp().ln_1p()
                }
            }
            Loss::Squared => {
                let d = m - y;
                0.5 * d * d
            }
        }
    }

    /// The derivative `∂l/∂m` at margin `m` with label `y`.
    ///
    /// The gradient w.r.t. the weights is `(∂l/∂m) · x`.
    #[inline]
    pub fn dloss(self, m: f64, y: f64) -> f64 {
        match self {
            Loss::Hinge => {
                if y * m < 1.0 {
                    -y
                } else {
                    0.0
                }
            }
            Loss::Logistic => {
                // -y · σ(-ym), computed stably for large |ym|.
                let z = y * m;
                let s = if z >= 0.0 {
                    let e = (-z).exp();
                    e / (1.0 + e)
                } else {
                    1.0 / (1.0 + z.exp())
                };
                -y * s
            }
            Loss::Squared => m - y,
        }
    }

    /// A global upper bound `L` on `∂²l/∂m²`, or `None` if the loss is not
    /// smooth in the margin (hinge). Proximal coordinate descent sizes its
    /// per-feature steps with it (`L_j = L·‖x_j‖₂²/n`), so a loss without
    /// one is not eligible for [`crate::cd_fit`].
    pub fn curvature_bound(self) -> Option<f64> {
        match self {
            // ∂²/∂m² of ½(m − y)² is exactly 1.
            Loss::Squared => Some(1.0),
            // σ'(z) = σ(z)(1 − σ(z)) ≤ ¼.
            Loss::Logistic => Some(0.25),
            // Piecewise linear with a kink at y·m = 1: not smooth.
            Loss::Hinge => None,
        }
    }

    /// Human-readable name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            Loss::Hinge => "hinge(SVM)",
            Loss::Logistic => "logistic(LR)",
            Loss::Squared => "squared",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hinge_value_and_derivative() {
        // Correctly classified with margin beyond 1: no loss, no gradient.
        assert_eq!(Loss::Hinge.value(2.0, 1.0), 0.0);
        assert_eq!(Loss::Hinge.dloss(2.0, 1.0), 0.0);
        // Inside the margin.
        assert_eq!(Loss::Hinge.value(0.5, 1.0), 0.5);
        assert_eq!(Loss::Hinge.dloss(0.5, 1.0), -1.0);
        // Misclassified negative example.
        assert_eq!(Loss::Hinge.value(1.0, -1.0), 2.0);
        assert_eq!(Loss::Hinge.dloss(1.0, -1.0), 1.0);
    }

    #[test]
    fn logistic_value_matches_closed_form() {
        let m: f64 = 0.3;
        let y: f64 = -1.0;
        // ln(1 + e^{-ym}) computed directly:
        let direct = (1.0 + (-(y * m)).exp()).ln();
        assert!((Loss::Logistic.value(m, y) - direct).abs() < 1e-12);
        // And via the negative log-likelihood form −ln σ(ym).
        let sigma = 1.0 / (1.0 + (-(y * m)).exp());
        assert!((-sigma.ln() - direct).abs() < 1e-9);
    }

    #[test]
    fn logistic_is_stable_for_extreme_margins() {
        // Must not overflow or return NaN.
        let v = Loss::Logistic.value(-1000.0, 1.0);
        assert!(v.is_finite() && v > 900.0);
        let v = Loss::Logistic.value(1000.0, 1.0);
        assert!(v.is_finite() && (0.0..1e-300 + 1.0).contains(&v));
        assert!(Loss::Logistic.dloss(-1000.0, 1.0).is_finite());
        assert!((Loss::Logistic.dloss(-1000.0, 1.0) + 1.0).abs() < 1e-9);
        assert!(Loss::Logistic.dloss(1000.0, 1.0).abs() < 1e-9);
    }

    #[test]
    fn logistic_derivative_matches_finite_difference() {
        for &(m, y) in &[(0.0, 1.0), (0.7, -1.0), (-2.0, 1.0), (3.0, -1.0)] {
            let h = 1e-6;
            let fd = (Loss::Logistic.value(m + h, y) - Loss::Logistic.value(m - h, y)) / (2.0 * h);
            assert!(
                (Loss::Logistic.dloss(m, y) - fd).abs() < 1e-6,
                "m={m} y={y}"
            );
        }
    }

    #[test]
    fn squared_value_and_derivative() {
        assert_eq!(Loss::Squared.value(3.0, 1.0), 2.0);
        assert_eq!(Loss::Squared.dloss(3.0, 1.0), 2.0);
        assert_eq!(Loss::Squared.dloss(1.0, 1.0), 0.0);
    }

    #[test]
    fn names() {
        assert_eq!(Loss::Hinge.name(), "hinge(SVM)");
    }

    #[test]
    fn curvature_bounds() {
        assert_eq!(Loss::Squared.curvature_bound(), Some(1.0));
        assert_eq!(Loss::Logistic.curvature_bound(), Some(0.25));
        assert_eq!(Loss::Hinge.curvature_bound(), None);
    }

    /// The declared curvature bound really bounds the second derivative,
    /// checked by finite differences of `dloss`.
    #[test]
    fn curvature_bound_holds_numerically() {
        for loss in [Loss::Squared, Loss::Logistic] {
            let bound = loss.curvature_bound().unwrap();
            let h = 1e-5;
            let mut m = -6.0;
            while m <= 6.0 {
                for y in [1.0, -1.0] {
                    let dd = (loss.dloss(m + h, y) - loss.dloss(m - h, y)) / (2.0 * h);
                    assert!(dd <= bound + 1e-6, "{loss:?} m={m} y={y}: {dd} > {bound}");
                }
                m += 0.25;
            }
        }
    }
}
