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

    /// MLlib's driver update from the workers' gradients as the driver
    /// receives them, `parts`: `w ← w − η·(scale·Σ parts + ∇Ω(w))`, in one
    /// pass over `w` and up to two parts, with no sum vector. Each
    /// coordinate takes the operations of summing `parts` in order into a
    /// zeroed vector, `sum.scale(scale)`, [`Regularizer::add_gradient`]
    /// and `w.axpy(−η, ·)` in that order, so every bit, a `-0.0` or `+0.0`
    /// included, is the one those passes give. Three parts or more are
    /// summed into a vector first.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or a part's dimension is not `w`'s.
    pub fn descend<'v>(
        &self,
        w: &mut DenseVector,
        parts: impl IntoIterator<Item = &'v DenseVector>,
        scale: f64,
        eta: f64,
    ) {
        let mut parts = parts.into_iter();
        let (Some(a), b) = (parts.next(), parts.next()) else {
            panic!("descend: no gradient to step along");
        };
        assert_eq!(a.dim(), w.dim(), "descend: dimension mismatch");
        match (b, parts.next()) {
            (None, _) => self.step_along(w, a.as_slice().iter().map(|a| 0.0 + a), scale, eta),
            (Some(b), None) => {
                assert_eq!(b.dim(), w.dim(), "descend: dimension mismatch");
                let sums = a.as_slice().iter().zip(b.as_slice());
                self.step_along(w, sums.map(|(a, b)| (0.0 + a) + b), scale, eta);
            }
            (Some(b), Some(c)) => {
                let mut sum = DenseVector::zeros(w.dim());
                for part in [a, b, c].into_iter().chain(parts) {
                    sum.axpy(1.0, part);
                }
                self.step_along(w, sum.as_slice().iter().copied(), scale, eta);
            }
        }
    }

    /// `w ← w − η·(scale·s + ∇Ω(w))` per coordinate, `s` taken from
    /// `sums`, in [`Regularizer::descend`]'s order.
    fn step_along(
        &self,
        w: &mut DenseVector,
        sums: impl Iterator<Item = f64>,
        scale: f64,
        eta: f64,
    ) {
        let step = -eta;
        let coords = w.as_mut_slice().iter_mut().zip(sums);
        match *self {
            Regularizer::None => coords.for_each(|(w, s)| *w += step * (s * scale)),
            Regularizer::L2 { lambda } => {
                coords.for_each(|(w, s)| *w += step * (s * scale + lambda * *w));
            }
            Regularizer::L1 { lambda } => {
                coords.for_each(|(w, s)| *w += step * (s * scale + lambda * signum_or_zero(*w)));
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
    fn descend_matches_sum_scale_penalty_then_step_bit_for_bit() {
        // Every pairing of three gradient coordinates with a weight,
        // signed zeros and values that cancel included.
        let vals = [-0.0, 0.0, 1.5, -1.5, 1e-300, 3.0];
        let weights = [-0.0, 0.0, 0.5, -1.0, 1e-308];
        let n = vals.len().pow(3) * weights.len();
        let pick = |i: usize, place: u32| vals[i / vals.len().pow(place) % vals.len()];
        let parts: Vec<DenseVector> = (0..3)
            .map(|p| DenseVector::from_vec((0..n).map(|i| pick(i / weights.len(), p)).collect()))
            .collect();
        let w0 = DenseVector::from_vec((0..n).map(|i| weights[i % weights.len()]).collect());
        let bits = |v: &DenseVector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for reg in [
            Regularizer::None,
            Regularizer::L2 { lambda: 0.1 },
            Regularizer::L1 { lambda: 0.05 },
        ] {
            for (scale, eta) in [(0.5, 0.1), (1.0 / 3.0, 1.0), (1.0, 0.0)] {
                for k in 1..=3 {
                    let mut want = w0.clone();
                    let mut grad = DenseVector::zeros(n);
                    for part in &parts[..k] {
                        grad.axpy(1.0, part);
                    }
                    grad.scale(scale);
                    reg.add_gradient(&want, &mut grad);
                    want.axpy(-eta, &grad);
                    let mut got = w0.clone();
                    reg.descend(&mut got, &parts[..k], scale, eta);
                    let case = format!("{reg:?} scale {scale} eta {eta} parts {k}");
                    assert_eq!(bits(&got), bits(&want), "{case}");
                }
            }
        }
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
