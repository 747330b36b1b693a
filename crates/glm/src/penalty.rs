//! The penalty side of the composable `Datafit` × `Penalty` architecture.
//!
//! [`Penalty`] abstracts the regularizer `Ω(w)` the way [`crate::Datafit`]
//! abstracts the loss: value, (sub)gradient, and — the piece that unlocks
//! proximal solvers — the separable one-dimensional proximal operator
//! [`Penalty::prox_1d`]. The existing [`Regularizer`] enum is the canonical
//! implementation, so every SGD/MGD trainer keeps dispatching on the enum
//! (and stays bit-identical to the pinned golden traces), while the
//! coordinate-descent solver in [`crate::cd_fit`] is generic over any
//! penalty — including [`ElasticNet`], which the enum cannot express.
//!
//! All soft-thresholding in this crate — lazy L1 ([`crate::LazyL1`]), eager
//! L1 ([`crate::sgd_epoch_eager`]), and the L1/elastic-net proximal
//! operators here — goes through the single [`soft_threshold`] kernel, so
//! the branch structure (and therefore the produced bit patterns) cannot
//! drift apart between the solvers.

use mlstar_linalg::DenseVector;

use crate::regularizer::SignumOrZero;
use crate::Regularizer;

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

/// A separable penalty `Ω(w) = Σ_j ω(w_j)` of the objective
/// `f(w, X) = l(w, X) + Ω(w)`.
///
/// Implementations supply the three forms solvers need:
///
/// * [`Penalty::value`] — for objective evaluation,
/// * [`Penalty::add_gradient`] — the (sub)gradient, for gradient methods,
/// * [`Penalty::prox_1d`] — the scaled proximal operator
///   `prox_{step·ω}(z) = argmin_u ω(u) + (u − z)²/(2·step)`, for proximal
///   coordinate descent.
pub trait Penalty {
    /// The penalty value `Ω(w)`.
    fn value(&self, w: &DenseVector) -> f64;

    /// Adds `∇Ω(w)` (a subgradient where `Ω` is nonsmooth) into `grad`.
    fn add_gradient(&self, w: &DenseVector, grad: &mut DenseVector);

    /// The one-dimensional proximal operator `prox_{step·ω}(z)`.
    fn prox_1d(&self, z: f64, step: f64) -> f64;

    /// The ℓ₁ strength of the penalty (`0.0` for smooth penalties). The
    /// lambda-path builder uses this to decide where the sparse path
    /// starts.
    fn l1_strength(&self) -> f64;

    /// Short label used in reports, e.g. `"L1=0.1"`.
    fn label(&self) -> String;
}

impl Penalty for Regularizer {
    fn value(&self, w: &DenseVector) -> f64 {
        Regularizer::value(self, w)
    }

    fn add_gradient(&self, w: &DenseVector, grad: &mut DenseVector) {
        Regularizer::add_gradient(self, w, grad)
    }

    #[inline]
    fn prox_1d(&self, z: f64, step: f64) -> f64 {
        match self {
            Regularizer::None => z,
            // argmin_u (λ/2)u² + (u − z)²/(2·step) = z / (1 + step·λ).
            Regularizer::L2 { lambda } => z / (1.0 + step * lambda),
            Regularizer::L1 { lambda } => soft_threshold(z, step * lambda),
        }
    }

    fn l1_strength(&self) -> f64 {
        self.l1_lambda().unwrap_or(0.0)
    }

    fn label(&self) -> String {
        Regularizer::label(self)
    }
}

/// The elastic-net penalty
/// `Ω(w) = λ·(α·‖w‖₁ + (1 − α)/2·‖w‖₂²)` with mixing `α ∈ [0, 1]`.
///
/// `α = 1` is the lasso, `α = 0` is ridge; the in-between values are what
/// glmnet-style lambda paths sweep. Kept separate from [`Regularizer`]
/// (rather than grown into the enum) so the enum's seven bit-pinned
/// trainers never see a new variant.
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
}

impl Penalty for ElasticNet {
    fn value(&self, w: &DenseVector) -> f64 {
        self.l1_part() * w.norm1() + 0.5 * self.l2_part() * w.norm2_sq()
    }

    fn add_gradient(&self, w: &DenseVector, grad: &mut DenseVector) {
        let l2 = self.l2_part();
        let l1 = self.l1_part();
        for i in 0..w.dim() {
            let z = w.get(i);
            grad[i] += l2 * z + l1 * z.signum_or_zero();
        }
    }

    /// Soft-threshold by the ℓ₁ part, then shrink by the ℓ₂ part:
    /// `S(z, step·λ·α) / (1 + step·λ·(1 − α))`.
    #[inline]
    fn prox_1d(&self, z: f64, step: f64) -> f64 {
        soft_threshold(z, step * self.l1_part()) / (1.0 + step * self.l2_part())
    }

    fn l1_strength(&self) -> f64 {
        self.l1_part()
    }

    fn label(&self) -> String {
        format!("EN(λ={}, α={})", self.lambda, self.l1_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn regularizer_prox_matches_closed_forms() {
        let none = Regularizer::None;
        assert_eq!(none.prox_1d(1.7, 0.5), 1.7);

        let l2 = Regularizer::L2 { lambda: 2.0 };
        // z / (1 + step·λ) = 3 / (1 + 1·2) = 1.
        assert!((Penalty::prox_1d(&l2, 3.0, 1.0) - 1.0).abs() < 1e-12);

        let l1 = Regularizer::L1 { lambda: 0.2 };
        assert!((Penalty::prox_1d(&l1, 1.0, 0.5) - 0.9).abs() < 1e-12);
        assert_eq!(Penalty::prox_1d(&l1, 0.05, 0.5), 0.0);
    }

    #[test]
    fn prox_is_objective_minimizer() {
        // prox_{step·ω}(z) minimizes ω(u) + (u − z)²/(2·step); check
        // against a dense scan for each penalty flavor.
        let step = 0.7;
        let z = 1.3;
        let pens: [&dyn Penalty; 3] = [
            &Regularizer::L2 { lambda: 0.8 },
            &Regularizer::L1 { lambda: 0.4 },
            &ElasticNet::new(0.6, 0.5),
        ];
        for pen in pens {
            let omega = |u: f64| {
                let w = DenseVector::from_vec(vec![u]);
                pen.value(&w)
            };
            let at = pen.prox_1d(z, step);
            let f = |u: f64| omega(u) + (u - z) * (u - z) / (2.0 * step);
            let best = f(at);
            let mut u = -2.0;
            while u <= 2.0 {
                assert!(
                    f(u) >= best - 1e-9,
                    "{}: prox {at} beaten at {u}",
                    pen.label()
                );
                u += 0.001;
            }
        }
    }

    #[test]
    fn elastic_net_endpoints_match_enum_penalties() {
        let w = DenseVector::from_vec(vec![1.5, -0.5, 0.0]);
        let lasso = ElasticNet::new(0.3, 1.0);
        let ridge = ElasticNet::new(0.3, 0.0);
        let l1 = Regularizer::L1 { lambda: 0.3 };
        let l2 = Regularizer::L2 { lambda: 0.3 };
        assert_eq!(Penalty::value(&lasso, &w), Penalty::value(&l1, &w));
        assert_eq!(Penalty::value(&ridge, &w), Penalty::value(&l2, &w));
        for &(z, step) in &[(1.0, 0.5), (-0.7, 2.0), (0.01, 1.0)] {
            assert_eq!(lasso.prox_1d(z, step), Penalty::prox_1d(&l1, z, step));
            assert_eq!(ridge.prox_1d(z, step), Penalty::prox_1d(&l2, z, step));
        }
    }

    #[test]
    fn elastic_net_gradient_matches_enum_sum() {
        let w = DenseVector::from_vec(vec![2.0, -2.0, 0.0]);
        let en = ElasticNet::new(1.0, 0.25);

        let mut g = DenseVector::zeros(3);
        en.add_gradient(&w, &mut g);

        let mut expect = DenseVector::zeros(3);
        Regularizer::L2 { lambda: 0.75 }.add_gradient(&w, &mut expect);
        Regularizer::L1 { lambda: 0.25 }.add_gradient(&w, &mut expect);
        for i in 0..3 {
            assert!((g.get(i) - expect.get(i)).abs() < 1e-12, "coord {i}");
        }
    }

    #[test]
    fn elastic_net_parts_and_label() {
        let en = ElasticNet::new(0.4, 0.25);
        assert!((en.l1_part() - 0.1).abs() < 1e-12);
        assert!((en.l2_part() - 0.3).abs() < 1e-12);
        assert_eq!(en.l1_strength(), en.l1_part());
        assert_eq!(en.label(), "EN(λ=0.4, α=0.25)");
        assert_eq!(Regularizer::L1 { lambda: 0.2 }.l1_strength(), 0.2);
        assert_eq!(Regularizer::L2 { lambda: 0.2 }.l1_strength(), 0.0);
    }

    #[test]
    #[should_panic(expected = "α ∈ [0, 1]")]
    fn bad_ratio_rejected() {
        let _ = ElasticNet::new(0.1, 1.5);
    }
}
