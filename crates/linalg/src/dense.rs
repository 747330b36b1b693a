//! Dense `f64` vectors used for models and aggregated gradients.

use crate::{LinalgError, SparseVector};

/// A dense vector of `f64` values.
///
/// `DenseVector` is the representation of models and aggregated gradients in
/// the reproduction. It is a thin, explicit wrapper around `Vec<f64>` with
/// the small set of BLAS-1 style operations the training algorithms need.
///
/// # Examples
///
/// ```
/// use mlstar_linalg::DenseVector;
///
/// let mut w = DenseVector::zeros(4);
/// let g = DenseVector::from_vec(vec![1.0, 0.0, -2.0, 0.5]);
/// w.axpy(-0.1, &g); // w -= 0.1 * g
/// assert_eq!(w.as_slice(), &[-0.1, 0.0, 0.2, -0.05]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DenseVector {
    values: Vec<f64>,
}

impl DenseVector {
    /// Creates a vector of `dim` zeros.
    pub fn zeros(dim: usize) -> Self {
        DenseVector {
            values: vec![0.0; dim],
        }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        DenseVector {
            values: vec![value; dim],
        }
    }

    /// Wraps an existing `Vec<f64>`.
    pub fn from_vec(values: Vec<f64>) -> Self {
        DenseVector { values }
    }

    /// Returns the dimension of the vector.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrows the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutably borrows the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Returns the value at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Sets the value at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        self.values[i] = v;
    }

    /// Dot product with another dense vector.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &DenseVector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dense dot: dimension mismatch");
        self.values
            .iter()
            .zip(other.values.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Dot product with a sparse vector: `Σ_i self[i] * x[i]`.
    ///
    /// Runs in `O(nnz(x))`.
    pub fn dot_sparse(&self, x: &SparseVector) -> f64 {
        debug_assert_eq!(self.dim(), x.dim(), "dense·sparse: dimension mismatch");
        let mut acc = 0.0;
        for (i, v) in x.iter() {
            acc += self.values[i] * v;
        }
        acc
    }

    /// `self += alpha * other` (dense AXPY).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn axpy(&mut self, alpha: f64, other: &DenseVector) {
        assert_eq!(self.dim(), other.dim(), "dense axpy: dimension mismatch");
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += alpha * b;
        }
    }

    /// `self += alpha * x` for a sparse `x`, in `O(nnz(x))`.
    pub fn axpy_sparse(&mut self, alpha: f64, x: &SparseVector) {
        debug_assert_eq!(self.dim(), x.dim(), "sparse axpy: dimension mismatch");
        for (i, v) in x.iter() {
            self.values[i] += alpha * v;
        }
    }

    /// Multiplies every coordinate by `c`.
    pub fn scale(&mut self, c: f64) {
        for v in &mut self.values {
            *v *= c;
        }
    }

    /// Copies `other`'s coordinates into `self`, keeping the allocation.
    /// The allocation-free counterpart of `clone` for hot loops.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &DenseVector) {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "copy_from dimension mismatch"
        );
        self.values.copy_from_slice(&other.values);
    }

    /// Sets every coordinate to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.values {
            *v = 0.0;
        }
    }

    /// Squared Euclidean norm `‖self‖₂²`.
    pub fn norm2_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Euclidean norm `‖self‖₂`.
    pub fn norm2(&self) -> f64 {
        self.norm2_sq().sqrt()
    }

    /// L1 norm `‖self‖₁`.
    pub fn norm1(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Maximum absolute coordinate (L∞ norm). Returns 0 for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Number of coordinates with nonzero value.
    pub fn count_nonzero(&self) -> usize {
        self.values.iter().filter(|v| **v != 0.0).count() // nnz counts exact zeros by definition
    }

    /// Returns `true` if every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Validates finiteness, returning an error naming the first bad index.
    pub fn validate(&self) -> Result<(), LinalgError> {
        for (pos, v) in self.values.iter().enumerate() {
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteValue { position: pos });
            }
        }
        Ok(())
    }

    /// Writes `part` into coordinates `[start, start + part.dim())`.
    ///
    /// Used to reassemble a model from gathered partitions.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn write_range(&mut self, start: usize, part: &DenseVector) {
        let end = start + part.dim();
        self.values[start..end].copy_from_slice(part.as_slice());
    }

    /// Iterates over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied().enumerate()
    }

    /// The exact sparse form: every coordinate whose bit pattern is not
    /// `+0.0` becomes a stored entry, so the round trip through
    /// [`SparseVector::to_dense`] is bitwise-identical (`-0.0` is kept as
    /// an explicit entry). Fails if any value is non-finite, which sparse
    /// vectors cannot represent.
    pub fn to_sparse(&self) -> Result<SparseVector, LinalgError> {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, v) in self.values.iter().enumerate() {
            if v.to_bits() != 0 {
                indices.push(i as u32);
                values.push(*v);
            }
        }
        SparseVector::new(self.dim(), indices, values)
    }
}

impl std::ops::Index<usize> for DenseVector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

impl std::ops::IndexMut<usize> for DenseVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.values[i]
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(values: Vec<f64>) -> Self {
        DenseVector::from_vec(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_dim_and_values() {
        let v = DenseVector::zeros(5);
        assert_eq!(v.dim(), 5);
        assert!(v.as_slice().iter().all(|x| *x == 0.0));
        assert!(!v.is_empty());
        assert!(DenseVector::zeros(0).is_empty());
    }

    #[test]
    fn dot_matches_manual_computation() {
        let a = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = DenseVector::from_vec(vec![4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_panics_on_dim_mismatch() {
        let a = DenseVector::zeros(2);
        let b = DenseVector::zeros(3);
        let _ = a.dot(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = DenseVector::from_vec(vec![1.0, 1.0]);
        let b = DenseVector::from_vec(vec![2.0, -4.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn to_sparse_keeps_every_stored_bit_pattern() {
        let v = DenseVector::from_vec(vec![0.0, 1.5, -0.0, 0.0, -2.25]);
        let s = v.to_sparse().unwrap();
        // -0.0 has a nonzero bit pattern and must be kept as an entry,
        // with its sign bit intact in the stored values.
        assert_eq!(s.indices(), &[1, 2, 4]);
        let stored: Vec<u64> = s.values().iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            stored,
            vec![1.5f64.to_bits(), (-0.0f64).to_bits(), (-2.25f64).to_bits()]
        );
        // Note `to_dense` materializes via axpy, which normalizes
        // 0 + (-0.0) to +0.0 — value-equal, not bit-equal.
        assert_eq!(s.to_dense().as_slice(), v.as_slice());
    }

    #[test]
    fn to_sparse_rejects_non_finite() {
        let v = DenseVector::from_vec(vec![0.0, f64::NAN]);
        assert!(v.to_sparse().is_err());
    }

    #[test]
    fn sparse_dot_and_axpy() {
        let d = DenseVector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let s = SparseVector::from_pairs(4, &[(1, 10.0), (3, -1.0)]).unwrap();
        assert_eq!(d.dot_sparse(&s), 20.0 - 4.0);
        let mut d2 = d.clone();
        d2.axpy_sparse(2.0, &s);
        assert_eq!(d2.as_slice(), &[1.0, 22.0, 3.0, 2.0]);
    }

    #[test]
    fn norms() {
        let v = DenseVector::from_vec(vec![3.0, -4.0]);
        assert_eq!(v.norm2_sq(), 25.0);
        assert_eq!(v.norm2(), 5.0);
        assert_eq!(v.norm1(), 7.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(v.count_nonzero(), 2);
    }

    #[test]
    fn copy_from_reuses_the_allocation() {
        let src = DenseVector::from_vec(vec![1.0, -0.0, f64::MAX]);
        let mut dst = DenseVector::filled(3, 9.0);
        let ptr = dst.as_slice().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst.as_slice().as_ptr(), ptr, "no reallocation");
        for (a, b) in dst.as_slice().iter().zip(src.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact copy");
        }
    }

    #[test]
    #[should_panic(expected = "copy_from dimension mismatch")]
    fn copy_from_panics_on_dim_mismatch() {
        let mut dst = DenseVector::zeros(2);
        dst.copy_from(&DenseVector::zeros(3));
    }

    #[test]
    fn scale_and_clear() {
        let mut v = DenseVector::from_vec(vec![1.0, -2.0]);
        v.scale(3.0);
        assert_eq!(v.as_slice(), &[3.0, -6.0]);
        v.clear();
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn write_range_fills_only_its_range() {
        let part = DenseVector::from_vec(vec![2.0, 3.0, 4.0]);
        let mut w = DenseVector::zeros(5);
        w.write_range(1, &part);
        assert_eq!(w.as_slice(), &[0.0, 2.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn validate_detects_nan() {
        let v = DenseVector::from_vec(vec![1.0, f64::NAN]);
        assert!(!v.is_finite());
        assert_eq!(
            v.validate(),
            Err(LinalgError::NonFiniteValue { position: 1 })
        );
        assert!(DenseVector::zeros(3).validate().is_ok());
    }

    #[test]
    fn index_ops() {
        let mut v = DenseVector::zeros(3);
        v[1] = 7.0;
        assert_eq!(v[1], 7.0);
        assert_eq!(v.get(1), 7.0);
        v.set(2, -1.0);
        assert_eq!(v.get(2), -1.0);
    }
}
