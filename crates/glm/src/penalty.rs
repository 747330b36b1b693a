//! The elastic-net penalty and the soft-thresholding kernel.
//!
//! [`ElasticNet`] is the penalty of the coordinate-descent solver
//! [`crate::cd_fit`] and the lambda paths of [`crate::fit_path`]: its
//! value for objective evaluation and its separable one-dimensional
//! proximal operator [`ElasticNet::prox_1d`] for the coordinate updates.
//! The SGD/MGD trainers keep the [`crate::Regularizer`] enum, whose pinned
//! bits the golden traces hold.
//!
//! All soft-thresholding in this crate — lazy L1 ([`crate::LazyL1`]), eager
//! L1 ([`crate::sgd_epoch_eager`]), and the elastic-net proximal operator
//! here — goes through the single [`soft_threshold`] kernel, so the branch
//! structure (and therefore the produced bit patterns) cannot drift apart
//! between the solvers.

use mlstar_linalg::DenseVector;

/// The soft-thresholding operator `S(z, τ) = sign(z)·max(|z| − τ, 0)`,
/// written branch-for-branch the way the eager L1 epoch always computed
/// it, so routing existing call sites through this kernel is bit-neutral:
/// `z − τ` for `z > τ`, `z + τ` for `z < −τ`, exactly `0.0` otherwise.
///
/// For `τ ≥ 0` this also reproduces [`crate::LazyL1`]'s clipped settlement
/// `(z − τ).max(0.0)` / `(z + τ).min(0.0)` bit-for-bit (the property test
/// in `tests/properties.rs` pins that equivalence).
#[inline]
pub fn soft_threshold(z: f64, tau: f64) -> f64 {
    if z > tau {
        z - tau
    } else if z < -tau {
        z + tau
    } else {
        0.0
    }
}

/// The elastic-net penalty
/// `Ω(w) = λ·(α·‖w‖₁ + (1 − α)/2·‖w‖₂²)` with mixing `α ∈ [0, 1]`.
///
/// `α = 1` is the lasso, `α = 0` is ridge; the in-between values are what
/// glmnet-style lambda paths sweep. Kept separate from
/// [`crate::Regularizer`] (rather than grown into the enum) so the enum's
/// seven bit-pinned trainers never see a new variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticNet {
    /// Overall strength λ ≥ 0.
    pub lambda: f64,
    /// ℓ₁ mixing fraction α ∈ [0, 1].
    pub l1_ratio: f64,
}

impl ElasticNet {
    /// A new elastic-net penalty.
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 0` or `l1_ratio ∉ [0, 1]`.
    pub fn new(lambda: f64, l1_ratio: f64) -> ElasticNet {
        assert!(lambda >= 0.0, "elastic net needs λ ≥ 0, got {lambda}");
        assert!(
            (0.0..=1.0).contains(&l1_ratio),
            "elastic net needs α ∈ [0, 1], got {l1_ratio}"
        );
        ElasticNet { lambda, l1_ratio }
    }

    /// The ℓ₁ component's strength `λ·α`.
    #[inline]
    pub fn l1_part(&self) -> f64 {
        self.lambda * self.l1_ratio
    }

    /// The ℓ₂ component's strength `λ·(1 − α)`.
    #[inline]
    pub fn l2_part(&self) -> f64 {
        self.lambda * (1.0 - self.l1_ratio)
    }

    /// The penalty value `Ω(w)`.
    pub fn value(&self, w: &DenseVector) -> f64 {
        self.l1_part() * w.norm1() + 0.5 * self.l2_part() * w.norm2_sq()
    }

    /// The scaled proximal operator
    /// `prox_{step·ω}(z) = argmin_u ω(u) + (u − z)²/(2·step)`: soft-threshold
    /// by the ℓ₁ part, then shrink by the ℓ₂ part,
    /// `S(z, step·λ·α) / (1 + step·λ·(1 − α))`.
    #[inline]
    pub fn prox_1d(&self, z: f64, step: f64) -> f64 {
        soft_threshold(z, step * self.l1_part()) / (1.0 + step * self.l2_part())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regularizer;

    #[test]
    fn soft_threshold_branches() {
        assert_eq!(soft_threshold(1.0, 0.3), 0.7);
        assert_eq!(soft_threshold(-1.0, 0.3), -0.7);
        assert_eq!(soft_threshold(0.2, 0.3), 0.0);
        assert_eq!(soft_threshold(-0.2, 0.3), 0.0);
        assert_eq!(soft_threshold(0.3, 0.3), 0.0);
        // τ = 0 is the identity.
        assert_eq!(soft_threshold(0.5, 0.0), 0.5);
        assert_eq!(soft_threshold(-0.5, 0.0), -0.5);
    }

    /// The α = 1 and α = 0 endpoints are the lasso and ridge closed forms,
    /// and their values are the enum's L1 and L2 values.
    #[test]
    fn elastic_net_endpoints_match_closed_forms() {
        let w = DenseVector::from_vec(vec![1.5, -0.5, 0.0]);
        let lasso = ElasticNet::new(0.3, 1.0);
        let ridge = ElasticNet::new(0.3, 0.0);
        assert_eq!(lasso.value(&w), Regularizer::L1 { lambda: 0.3 }.value(&w));
        assert_eq!(ridge.value(&w), Regularizer::L2 { lambda: 0.3 }.value(&w));
        for &(z, step) in &[(1.0, 0.5), (-0.7, 2.0), (0.01, 1.0)] {
            assert_eq!(lasso.prox_1d(z, step), soft_threshold(z, step * 0.3));
            assert_eq!(ridge.prox_1d(z, step), z / (1.0 + step * 0.3));
        }
        // z / (1 + step·λ) = 3 / (1 + 1·2) = 1.
        assert!((ElasticNet::new(2.0, 0.0).prox_1d(3.0, 1.0) - 1.0).abs() < 1e-12);
        let l1 = ElasticNet::new(0.2, 1.0);
        assert!((l1.prox_1d(1.0, 0.5) - 0.9).abs() < 1e-12);
        assert_eq!(l1.prox_1d(0.05, 0.5), 0.0);
        // λ = 0 is the identity.
        assert_eq!(ElasticNet::new(0.0, 0.5).prox_1d(1.7, 0.5), 1.7);
    }

    #[test]
    fn prox_is_objective_minimizer() {
        // prox_{step·ω}(z) minimizes ω(u) + (u − z)²/(2·step); check
        // against a dense scan for ridge, lasso and a mix.
        let step = 0.7;
        let z = 1.3;
        for pen in [
            ElasticNet::new(0.8, 0.0),
            ElasticNet::new(0.4, 1.0),
            ElasticNet::new(0.6, 0.5),
        ] {
            let omega = |u: f64| pen.value(&DenseVector::from_vec(vec![u]));
            let at = pen.prox_1d(z, step);
            let f = |u: f64| omega(u) + (u - z) * (u - z) / (2.0 * step);
            let best = f(at);
            let mut u = -2.0;
            while u <= 2.0 {
                assert!(f(u) >= best - 1e-9, "{pen:?}: prox {at} beaten at {u}");
                u += 0.001;
            }
        }
    }

    #[test]
    fn elastic_net_parts() {
        let en = ElasticNet::new(0.4, 0.25);
        assert!((en.l1_part() - 0.1).abs() < 1e-12);
        assert!((en.l2_part() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "α ∈ [0, 1]")]
    fn bad_ratio_rejected() {
        let _ = ElasticNet::new(0.1, 1.5);
    }
}
