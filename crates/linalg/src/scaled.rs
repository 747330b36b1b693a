//! Lazily-scaled dense vectors: the representation behind sparse L2 updates.

use crate::{DenseVector, SparseVector};

/// Threshold below which the lazy scale factor is folded back into the
/// underlying vector to preserve numerical accuracy.
const RESCALE_THRESHOLD: f64 = 1e-9;

/// A dense vector `v` together with a scalar `s`, representing `s · v`.
///
/// SGD with L2 regularization performs, per example `x`:
///
/// ```text
/// w ← (1 - η·λ) · w - η · ∂l(w·x, y) · x
/// ```
///
/// The first term touches every coordinate; the second only `nnz(x)`
/// coordinates. Following Bottou's "SGD tricks" (the lazy update the paper
/// uses in MLlib\* when L2 ≠ 0), we keep `w = s·v` and implement the shrink
/// as `s ← (1 - η·λ)·s` — `O(1)` — and the sparse step as
/// `v[i] ← v[i] - (η·g/s)·x[i]` — `O(nnz)`.
///
/// # Examples
///
/// ```
/// use mlstar_linalg::{ScaledVector, SparseVector};
///
/// let mut w = ScaledVector::zeros(4);
/// let x = SparseVector::from_pairs(4, &[(1, 2.0)]).unwrap();
/// w.axpy_sparse(1.0, &x);   // w = [0, 2, 0, 0]
/// w.scale_by(0.5);          // w = [0, 1, 0, 0], O(1)
/// assert_eq!(w.get(1), 1.0);
/// assert_eq!(w.to_dense().as_slice(), &[0.0, 1.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ScaledVector {
    scale: f64,
    v: DenseVector,
}

impl ScaledVector {
    /// A zero vector of dimension `dim` with scale 1.
    pub fn zeros(dim: usize) -> Self {
        ScaledVector {
            scale: 1.0,
            v: DenseVector::zeros(dim),
        }
    }

    /// Wraps a dense vector (scale 1).
    pub fn from_dense(v: DenseVector) -> Self {
        ScaledVector { scale: 1.0, v }
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.v.dim()
    }

    /// The current lazy scale factor (exposed for tests/diagnostics).
    pub fn scale_factor(&self) -> f64 {
        self.scale
    }

    /// The logical value at coordinate `i`, i.e. `s · v[i]`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.scale * self.v.get(i)
    }

    /// Dot product with a sparse vector: `s · (v · x)`. `O(nnz(x))`.
    pub fn dot_sparse(&self, x: &SparseVector) -> f64 {
        self.scale * self.v.dot_sparse(x)
    }

    /// Multiplies the represented vector by `c` in `O(1)`.
    ///
    /// If the accumulated scale becomes tiny (or `c` is zero) the factor is
    /// folded back into the underlying storage to avoid underflow.
    pub fn scale_by(&mut self, c: f64) {
        self.scale *= c;
        if self.scale.abs() < RESCALE_THRESHOLD {
            self.rescale();
        }
    }

    /// `self += alpha · x` on the *represented* vector, in `O(nnz(x))`.
    pub fn axpy_sparse(&mut self, alpha: f64, x: &SparseVector) {
        // scale = 0.0 is an exact state set by scale_by, not a computed value
        debug_assert!(self.scale != 0.0 || alpha == 0.0 || x.is_empty());
        // scale = 0.0 is an exact state set by scale_by
        if self.scale == 0.0 {
            // Represented vector is exactly zero; reset scale to 1 first.
            self.v.clear();
            self.scale = 1.0;
        }
        self.v.axpy_sparse(alpha / self.scale, x);
    }

    /// `self += alpha · d` on the represented vector, in `O(dim)`.
    pub fn axpy_dense(&mut self, alpha: f64, d: &DenseVector) {
        // scale = 0.0 is an exact state set by scale_by
        if self.scale == 0.0 {
            self.v.clear();
            self.scale = 1.0;
        }
        self.v.axpy(alpha / self.scale, d);
    }

    /// Squared Euclidean norm of the represented vector.
    pub fn norm2_sq(&self) -> f64 {
        self.scale * self.scale * self.v.norm2_sq()
    }

    /// Folds the scale factor into the storage so that `scale == 1`.
    #[expect(
        clippy::float_cmp,
        reason = "exact no-op check; 1.0 is the exact post-rescale state"
    )]
    pub fn rescale(&mut self) {
        if self.scale != 1.0 {
            self.v.scale(self.scale);
            self.scale = 1.0;
        }
    }

    /// Copies the represented vector into `out`, reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[expect(
        clippy::float_cmp,
        reason = "exact no-op check; 1.0 is the exact post-rescale state"
    )]
    pub fn copy_into(&self, out: &mut DenseVector) {
        assert_eq!(self.dim(), out.dim(), "copy_into: dimension mismatch");
        out.as_mut_slice().copy_from_slice(self.v.as_slice());
        if self.scale != 1.0 {
            out.scale(self.scale);
        }
    }

    /// Materializes the represented vector as a plain dense vector.
    pub fn to_dense(&self) -> DenseVector {
        let mut out = self.v.clone();
        out.scale(self.scale);
        out
    }

    /// Consumes `self`, materializing the represented vector.
    pub fn into_dense(mut self) -> DenseVector {
        self.rescale();
        self.v
    }

    /// Rescales (folding the factor into storage) and returns a mutable
    /// reference to the underlying dense vector.
    ///
    /// Used by update rules that need direct coordinate writes (e.g. lazy
    /// L1 soft-thresholding), which are only sound at scale 1.
    pub fn dense_mut(&mut self) -> &mut DenseVector {
        self.rescale();
        &mut self.v
    }

    /// Replaces the contents with `w` (scale reset to 1), reusing storage.
    pub fn assign_dense(&mut self, w: &DenseVector) {
        assert_eq!(self.dim(), w.dim(), "assign_dense: dimension mismatch");
        self.v.as_mut_slice().copy_from_slice(w.as_slice());
        self.scale = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(8, pairs).unwrap()
    }

    #[test]
    fn scale_then_axpy_matches_eager() {
        // Lazy: w = 0; w += x; w *= 0.9; w += y
        let mut lazy = ScaledVector::zeros(8);
        lazy.axpy_sparse(1.0, &sv(&[(0, 1.0), (3, 2.0)]));
        lazy.scale_by(0.9);
        lazy.axpy_sparse(-0.5, &sv(&[(3, 4.0), (7, 2.0)]));

        // Eager reference
        let mut eager = DenseVector::zeros(8);
        eager.axpy_sparse(1.0, &sv(&[(0, 1.0), (3, 2.0)]));
        eager.scale(0.9);
        eager.axpy_sparse(-0.5, &sv(&[(3, 4.0), (7, 2.0)]));

        let lazy_dense = lazy.to_dense();
        for i in 0..8 {
            assert!(
                (lazy_dense.get(i) - eager.get(i)).abs() < 1e-12,
                "coord {i}"
            );
        }
    }

    #[test]
    fn dot_sparse_applies_scale() {
        let mut w = ScaledVector::zeros(8);
        w.axpy_sparse(1.0, &sv(&[(2, 3.0)]));
        w.scale_by(2.0);
        assert_eq!(w.dot_sparse(&sv(&[(2, 5.0)])), 30.0);
    }

    #[test]
    fn repeated_shrinks_trigger_rescale_without_accuracy_loss() {
        let mut w = ScaledVector::zeros(4);
        w.axpy_sparse(1.0, &sv8(&[(1, 1.0)]));
        // Shrink far past the rescale threshold.
        for _ in 0..2000 {
            w.scale_by(0.99);
        }
        let expected = 0.99f64.powi(2000);
        assert!((w.get(1) - expected).abs() <= expected * 1e-9);
        // Scale factor must have been folded back at least once.
        assert!(w.scale_factor().abs() >= RESCALE_THRESHOLD || w.scale_factor() == 1.0);

        fn sv8(pairs: &[(u32, f64)]) -> SparseVector {
            SparseVector::from_pairs(4, pairs).unwrap()
        }
    }

    #[test]
    fn scale_to_zero_then_axpy_recovers() {
        let mut w = ScaledVector::zeros(4);
        w.axpy_sparse(1.0, &SparseVector::from_pairs(4, &[(0, 5.0)]).unwrap());
        w.scale_by(0.0); // represented vector is now exactly zero
        assert_eq!(w.get(0), 0.0);
        w.axpy_sparse(2.0, &SparseVector::from_pairs(4, &[(1, 1.0)]).unwrap());
        assert_eq!(w.get(0), 0.0);
        assert_eq!(w.get(1), 2.0);
    }

    #[test]
    fn norm_and_materialization() {
        let mut w = ScaledVector::zeros(4);
        w.axpy_sparse(
            1.0,
            &SparseVector::from_pairs(4, &[(0, 3.0), (1, 4.0)]).unwrap(),
        );
        w.scale_by(2.0);
        assert!((w.norm2_sq() - 100.0).abs() < 1e-12);
        assert_eq!(w.clone().into_dense().as_slice(), &[6.0, 8.0, 0.0, 0.0]);
    }

    #[test]
    fn copy_into_matches_to_dense() {
        let mut w = ScaledVector::zeros(4);
        w.axpy_sparse(2.0, &SparseVector::from_pairs(4, &[(1, 1.5)]).unwrap());
        w.scale_by(0.5);
        let mut out = DenseVector::filled(4, 9.0);
        w.copy_into(&mut out);
        assert_eq!(out.as_slice(), w.to_dense().as_slice());
    }

    #[test]
    fn assign_dense_resets_scale() {
        let mut w = ScaledVector::zeros(3);
        w.scale_by(0.5);
        w.assign_dense(&DenseVector::from_vec(vec![1.0, 2.0, 3.0]));
        assert_eq!(w.scale_factor(), 1.0);
        assert_eq!(w.get(2), 3.0);
    }

    #[test]
    fn axpy_dense_matches_eager() {
        let mut w = ScaledVector::from_dense(DenseVector::from_vec(vec![1.0, 2.0]));
        w.scale_by(0.5);
        w.axpy_dense(1.0, &DenseVector::from_vec(vec![10.0, 10.0]));
        assert_eq!(w.to_dense().as_slice(), &[10.5, 11.0]);
    }
}
