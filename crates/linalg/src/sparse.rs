//! Sorted sparse vectors used for training examples.

use crate::{DenseVector, LinalgError};

/// A sparse vector with strictly increasing indices.
///
/// Training examples in the paper's workloads (CTR logs, URL features,
/// KDD Cup data) are extremely sparse — a few hundred nonzeros out of tens
/// of millions of dimensions — so all per-example work must be `O(nnz)`.
///
/// # Invariants
///
/// * `indices` is strictly increasing,
/// * every index is `< dim`,
/// * `indices.len() == values.len()`,
/// * all values are finite.
///
/// These are enforced by [`SparseVector::new`] / [`SparseVector::from_pairs`]
/// and assumed (checked only via `debug_assert!`) by the hot-path kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Creates a sparse vector from parallel index/value arrays, validating
    /// all invariants.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Result<Self, LinalgError> {
        if indices.len() != values.len() {
            return Err(LinalgError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        let mut prev: Option<u32> = None;
        for (pos, &i) in indices.iter().enumerate() {
            if (i as usize) >= dim {
                return Err(LinalgError::IndexOutOfBounds {
                    index: i as usize,
                    dim,
                });
            }
            if let Some(p) = prev {
                if i <= p {
                    return Err(LinalgError::UnsortedIndices { position: pos });
                }
            }
            prev = Some(i);
        }
        for (pos, v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(LinalgError::NonFiniteValue { position: pos });
            }
        }
        Ok(SparseVector {
            dim,
            indices,
            values,
        })
    }

    /// Creates a sparse vector from possibly unsorted `(index, value)` pairs.
    ///
    /// Pairs are sorted; duplicate indices are summed; explicit zeros are
    /// kept (they carry structural information for some generators).
    pub fn from_pairs(dim: usize, pairs: &[(u32, f64)]) -> Result<Self, LinalgError> {
        let mut sorted: Vec<(u32, f64)> = pairs.to_vec();
        sorted.sort_by_key(|(i, _)| *i);
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        for (i, v) in sorted {
            if indices.last() == Some(&i) {
                #[expect(
                    clippy::expect_used,
                    reason = "indices and values grow in lockstep in this loop"
                )]
                let last = values
                    .last_mut()
                    .expect("values nonempty when indices nonempty");
                *last += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVector::new(dim, indices, values)
    }

    /// An empty sparse vector of the given dimension.
    pub fn empty(dim: usize) -> Self {
        SparseVector {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The declared dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The value array, parallel to [`SparseVector::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(index, value)` pairs in index order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .zip(self.values.iter())
            .map(|(&i, &v)| (i as usize, v))
    }

    /// Value at index `i` (zero if not stored). `O(log nnz)`.
    pub fn get(&self, i: usize) -> f64 {
        match self.indices.binary_search(&(i as u32)) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Dot product with a dense vector. `O(nnz)`.
    pub fn dot_dense(&self, w: &DenseVector) -> f64 {
        w.dot_sparse(self)
    }

    /// Dot product with another sparse vector via a sorted merge.
    /// `O(nnz(self) + nnz(other))`.
    pub fn dot_sparse(&self, other: &SparseVector) -> f64 {
        debug_assert_eq!(self.dim, other.dim, "sparse·sparse: dimension mismatch");
        let mut acc = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() && b < other.indices.len() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Squared Euclidean norm.
    pub fn norm2_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// L1 norm.
    pub fn norm1(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).sum()
    }

    /// Multiplies all stored values by `c`.
    pub fn scale(&mut self, c: f64) {
        for v in &mut self.values {
            *v *= c;
        }
    }

    /// Materializes into a dense vector.
    pub fn to_dense(&self) -> DenseVector {
        let mut d = DenseVector::zeros(self.dim);
        d.axpy_sparse(1.0, self);
        d
    }

    /// Approximate in-memory footprint in bytes (used by the size model of
    /// the communication cost layer).
    pub fn size_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }

    /// Checks all invariants. Intended for tests and debug paths.
    pub fn validate(&self) -> Result<(), LinalgError> {
        // Re-run construction-time validation against current contents.
        SparseVector::new(self.dim, self.indices.clone(), self.values.clone()).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_bounds() {
        let err = SparseVector::new(3, vec![0, 5], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, LinalgError::IndexOutOfBounds { index: 5, dim: 3 });
    }

    #[test]
    fn new_validates_sortedness() {
        let err = SparseVector::new(5, vec![2, 1], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, LinalgError::UnsortedIndices { position: 1 });
        // duplicates also rejected by `new`
        let err = SparseVector::new(5, vec![2, 2], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, LinalgError::UnsortedIndices { position: 1 });
    }

    #[test]
    fn new_validates_lengths_and_finiteness() {
        let err = SparseVector::new(5, vec![1], vec![]).unwrap_err();
        assert_eq!(
            err,
            LinalgError::LengthMismatch {
                indices: 1,
                values: 0
            }
        );
        let err = SparseVector::new(5, vec![1], vec![f64::INFINITY]).unwrap_err();
        assert_eq!(err, LinalgError::NonFiniteValue { position: 0 });
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let s = SparseVector::from_pairs(10, &[(7, 1.0), (2, 3.0), (7, 2.0)]).unwrap();
        assert_eq!(s.indices(), &[2, 7]);
        assert_eq!(s.values(), &[3.0, 3.0]);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let s = SparseVector::from_pairs(10, &[(3, 5.0)]).unwrap();
        assert_eq!(s.get(3), 5.0);
        assert_eq!(s.get(4), 0.0);
    }

    #[test]
    fn sparse_sparse_dot_merge() {
        let a = SparseVector::from_pairs(10, &[(1, 2.0), (4, 3.0), (9, 1.0)]).unwrap();
        let b = SparseVector::from_pairs(10, &[(0, 5.0), (4, -2.0), (9, 4.0)]).unwrap();
        assert_eq!(a.dot_sparse(&b), -6.0 + 4.0);
        assert_eq!(a.dot_sparse(&SparseVector::empty(10)), 0.0);
    }

    #[test]
    fn to_dense_roundtrips_through_get() {
        let s = SparseVector::from_pairs(5, &[(0, 1.0), (4, -2.0)]).unwrap();
        let d = s.to_dense();
        for i in 0..5 {
            assert_eq!(d.get(i), s.get(i));
        }
    }

    #[test]
    fn norms_and_scale() {
        let mut s = SparseVector::from_pairs(5, &[(0, 3.0), (1, -4.0)]).unwrap();
        assert_eq!(s.norm2_sq(), 25.0);
        assert_eq!(s.norm1(), 7.0);
        s.scale(2.0);
        assert_eq!(s.values(), &[6.0, -8.0]);
    }

    #[test]
    fn size_bytes_grows_with_nnz() {
        let a = SparseVector::from_pairs(100, &[(1, 1.0)]).unwrap();
        let b = SparseVector::from_pairs(100, &[(1, 1.0), (2, 2.0), (3, 3.0)]).unwrap();
        assert!(b.size_bytes() > a.size_bytes());
    }

    #[test]
    fn empty_vector_behaves() {
        let e = SparseVector::empty(7);
        assert!(e.is_empty());
        assert_eq!(e.dim(), 7);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.to_dense().dim(), 7);
        assert!(e.validate().is_ok());
    }
}
