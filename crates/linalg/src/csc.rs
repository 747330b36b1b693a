//! Compressed-sparse-column (CSC) views over row-major sparse data.
//!
//! Training data arrives as rows ([`SparseVector`] examples), which is the
//! natural layout for SGD/MGD — every step touches whole examples. The
//! coordinate-descent solver in `mlstar-glm` iterates the *other* axis: one
//! feature at a time, visiting every example in which that feature fires.
//! [`CscMatrix`] is the one-time transpose that makes those column sweeps
//! `O(nnz(column))`, with per-column squared norms precomputed because the
//! CD step size for feature `j` is proportional to `‖x_j‖₂²`.

use crate::SparseVector;

/// A sparse matrix in compressed-sparse-column form.
///
/// Built once from a slice of example rows; immutable afterwards. Row
/// indices are stored as `u32` (the same width [`SparseVector`] uses for
/// feature indices), which caps the number of examples at `u32::MAX` —
/// far above anything the simulated clusters process.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    /// `col_ptr[j]..col_ptr[j + 1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    /// Row index of each stored entry, ascending within a column.
    row_idx: Vec<u32>,
    /// Value of each stored entry.
    values: Vec<f64>,
    /// Cached `‖x_j‖₂²` per column.
    col_norms_sq: Vec<f64>,
}

/// A borrowed view of one column of a [`CscMatrix`].
#[derive(Debug, Clone, Copy)]
pub struct CscCol<'a> {
    rows: &'a [u32],
    values: &'a [f64],
}

impl<'a> CscCol<'a> {
    /// Number of stored entries in the column.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Values of the stored entries.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Iterates `(row, value)` pairs in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.rows
            .iter()
            .zip(self.values.iter())
            .map(|(&r, &v)| (r as usize, v))
    }
}

impl CscMatrix {
    /// Transposes example rows into column-major form.
    ///
    /// Every row must have dimension `n_cols`; entries within each column
    /// come out in ascending row order because rows are scanned in order.
    ///
    /// # Panics
    ///
    /// Panics if a row's dimension differs from `n_cols` or there are more
    /// than `u32::MAX` rows.
    pub fn from_rows(rows: &[SparseVector], n_cols: usize) -> CscMatrix {
        assert!(
            rows.len() <= u32::MAX as usize,
            "CSC row indices are u32: {} rows exceed the format",
            rows.len()
        );
        let mut counts = vec![0usize; n_cols];
        let mut nnz = 0usize;
        for row in rows {
            assert_eq!(
                row.dim(),
                n_cols,
                "row dimension mismatch while building CSC"
            );
            for &j in row.indices() {
                counts[j as usize] += 1;
            }
            nnz += row.nnz();
        }

        // Exclusive prefix sum → column pointers.
        let mut col_ptr = vec![0usize; n_cols + 1];
        for j in 0..n_cols {
            col_ptr[j + 1] = col_ptr[j] + counts[j];
        }

        // Second pass fills entries; `cursor` tracks the write position in
        // each column.
        let mut cursor = col_ptr[..n_cols].to_vec();
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter() {
                let at = cursor[j];
                row_idx[at] = i as u32;
                values[at] = v;
                cursor[j] += 1;
            }
        }

        let mut col_norms_sq = vec![0.0f64; n_cols];
        for j in 0..n_cols {
            let mut s = 0.0;
            for &v in &values[col_ptr[j]..col_ptr[j + 1]] {
                s += v * v;
            }
            col_norms_sq[j] = s;
        }

        CscMatrix {
            n_rows: rows.len(),
            n_cols,
            col_ptr,
            row_idx,
            values,
            col_norms_sq,
        }
    }

    /// Number of rows (examples).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (features).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Borrowed view of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_cols`.
    #[inline]
    pub fn col(&self, j: usize) -> CscCol<'_> {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        CscCol {
            rows: &self.row_idx[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Cached `‖x_j‖₂²` of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= n_cols`.
    #[inline]
    pub fn col_norm2_sq(&self, j: usize) -> f64 {
        self.col_norms_sq[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SparseVector> {
        vec![
            SparseVector::from_pairs(4, &[(0, 1.0), (2, 2.0)]).unwrap(),
            SparseVector::from_pairs(4, &[(1, -1.0)]).unwrap(),
            SparseVector::from_pairs(4, &[(0, 3.0), (1, 4.0), (3, 0.5)]).unwrap(),
        ]
    }

    #[test]
    fn transpose_matches_rows() {
        let m = CscMatrix::from_rows(&rows(), 4);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.nnz(), 6);

        let c0: Vec<(usize, f64)> = m.col(0).iter().collect();
        assert_eq!(c0, vec![(0, 1.0), (2, 3.0)]);
        let c1: Vec<(usize, f64)> = m.col(1).iter().collect();
        assert_eq!(c1, vec![(1, -1.0), (2, 4.0)]);
        let c2: Vec<(usize, f64)> = m.col(2).iter().collect();
        assert_eq!(c2, vec![(0, 2.0)]);
        let c3: Vec<(usize, f64)> = m.col(3).iter().collect();
        assert_eq!(c3, vec![(2, 0.5)]);
    }

    #[test]
    fn column_norms_are_cached() {
        let m = CscMatrix::from_rows(&rows(), 4);
        assert!((m.col_norm2_sq(0) - 10.0).abs() < 1e-12);
        assert!((m.col_norm2_sq(1) - 17.0).abs() < 1e-12);
        assert!((m.col_norm2_sq(2) - 4.0).abs() < 1e-12);
        assert!((m.col_norm2_sq(3) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_column_has_no_entries() {
        let r = vec![SparseVector::from_pairs(3, &[(0, 1.0)]).unwrap()];
        let m = CscMatrix::from_rows(&r, 3);
        assert_eq!(m.col(1).nnz(), 0);
        assert_eq!(m.col_norm2_sq(1), 0.0);
        assert_eq!(m.col(2).iter().count(), 0);
    }

    #[test]
    fn empty_matrix() {
        let m = CscMatrix::from_rows(&[], 5);
        assert_eq!(m.n_rows(), 0);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.col(4).nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn dimension_mismatch_rejected() {
        let r = vec![SparseVector::from_pairs(3, &[(0, 1.0)]).unwrap()];
        let _ = CscMatrix::from_rows(&r, 4);
    }

    #[test]
    fn row_indices_ascend_within_columns() {
        let m = CscMatrix::from_rows(&rows(), 4);
        for j in 0..m.n_cols() {
            let idx: Vec<usize> = m.col(j).iter().map(|(i, _)| i).collect();
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "column {j}");
        }
    }
}
