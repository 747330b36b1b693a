//! In-memory sparse classification datasets.

use mlstar_linalg::SparseVector;

use crate::DataError;

/// A sparse classification dataset: one [`SparseVector`] row per example
/// plus a `±1` label.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDataset {
    num_features: usize,
    rows: Vec<SparseVector>,
    labels: Vec<f64>,
}

/// Summary statistics in the shape of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of examples (`#Instances` in Table I).
    pub instances: usize,
    /// Feature dimensionality (`#Features` in Table I).
    pub features: usize,
    /// Total nonzeros across all rows.
    pub total_nnz: usize,
    /// Average nonzeros per row.
    pub avg_nnz: f64,
    /// Approximate in-memory size in bytes (`Size` in Table I).
    pub size_bytes: usize,
    /// Fraction of examples labeled `+1`.
    pub positive_fraction: f64,
    /// `features > instances` — the paper's "underdetermined" datasets
    /// (url, kddb) versus "determined" (avazu, kdd12, WX).
    pub underdetermined: bool,
}

impl SparseDataset {
    /// Creates a dataset, validating that every row has dimension
    /// `num_features` and that there is one finite label per row.
    pub fn new(
        num_features: usize,
        rows: Vec<SparseVector>,
        labels: Vec<f64>,
    ) -> Result<Self, DataError> {
        if rows.len() != labels.len() {
            return Err(DataError::Inconsistent(format!(
                "{} rows but {} labels",
                rows.len(),
                labels.len()
            )));
        }
        for (i, (r, y)) in rows.iter().zip(&labels).enumerate() {
            if r.dim() != num_features {
                return Err(DataError::Inconsistent(format!(
                    "row {i} has dimension {} but dataset declares {num_features}",
                    r.dim()
                )));
            }
            if !y.is_finite() {
                return Err(DataError::Inconsistent(format!(
                    "row {i} has the non-finite label {y}"
                )));
            }
        }
        Ok(SparseDataset {
            num_features,
            rows,
            labels,
        })
    }

    /// An empty dataset of the given dimensionality.
    pub fn empty(num_features: usize) -> Self {
        SparseDataset {
            num_features,
            rows: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Appends an example.
    ///
    /// # Panics
    ///
    /// Panics if the row dimension disagrees with the dataset or the label
    /// is NaN or infinite.
    pub fn push(&mut self, row: SparseVector, label: f64) {
        assert_eq!(row.dim(), self.num_features, "row dimension mismatch");
        assert!(label.is_finite(), "non-finite label {label}");
        self.rows.push(row);
        self.labels.push(label);
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no examples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimensionality.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// The example rows.
    pub fn rows(&self) -> &[SparseVector] {
        &self.rows
    }

    /// The labels, parallel to [`SparseDataset::rows`].
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// A new dataset containing the rows selected by `indices` (cloned).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn subset(&self, indices: &[usize]) -> SparseDataset {
        let rows = indices.iter().map(|&i| self.rows[i].clone()).collect();
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        SparseDataset {
            num_features: self.num_features,
            rows,
            labels,
        }
    }

    /// Total number of stored nonzeros.
    pub fn total_nnz(&self) -> usize {
        self.rows.iter().map(SparseVector::nnz).sum()
    }

    /// Approximate in-memory size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(SparseVector::size_bytes)
            .sum::<usize>()
            + self.labels.len() * std::mem::size_of::<f64>()
    }

    /// Table-I style statistics.
    pub fn stats(&self) -> DatasetStats {
        let n = self.len();
        let total_nnz = self.total_nnz();
        let positives = self.labels.iter().filter(|&&y| y > 0.0).count();
        DatasetStats {
            instances: n,
            features: self.num_features,
            total_nnz,
            avg_nnz: if n == 0 {
                0.0
            } else {
                total_nnz as f64 / n as f64
            },
            size_bytes: self.size_bytes(),
            positive_fraction: if n == 0 {
                0.0
            } else {
                positives as f64 / n as f64
            },
            underdetermined: self.num_features > n,
        }
    }
}

impl DatasetStats {
    /// Human-readable size (e.g. `"7.4GB"`, `"21MB"`), matching Table I's
    /// `Size` column format.
    pub fn size_human(&self) -> String {
        let b = self.size_bytes as f64;
        const KB: f64 = 1024.0;
        const MB: f64 = 1024.0 * 1024.0;
        const GB: f64 = 1024.0 * 1024.0 * 1024.0;
        if b >= GB {
            format!("{:.1}GB", b / GB)
        } else if b >= MB {
            format!("{:.1}MB", b / MB)
        } else if b >= KB {
            format!("{:.1}KB", b / KB)
        } else {
            format!("{b:.0}B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(dim: usize, pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(dim, pairs).unwrap()
    }

    #[test]
    fn new_validates_shapes() {
        let err = SparseDataset::new(4, vec![row(4, &[])], vec![]).unwrap_err();
        assert!(err.to_string().contains("1 rows but 0 labels"));
        let err = SparseDataset::new(4, vec![row(3, &[])], vec![1.0]).unwrap_err();
        assert!(err.to_string().contains("dimension 3"));
    }

    #[test]
    fn push_and_accessors() {
        let mut ds = SparseDataset::empty(4);
        assert!(ds.is_empty());
        ds.push(row(4, &[(0, 1.0), (2, 1.0)]), 1.0);
        ds.push(row(4, &[(1, 1.0)]), -1.0);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.num_features(), 4);
        assert_eq!(ds.labels(), &[1.0, -1.0]);
        assert_eq!(ds.rows()[1].nnz(), 1);
        assert_eq!(ds.total_nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut ds = SparseDataset::empty(4);
        ds.push(row(3, &[]), 1.0);
    }

    #[test]
    fn non_finite_labels_are_refused() {
        for y in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let rows = vec![row(3, &[(0, 1.0)]), row(3, &[(1, 1.0)]), row(3, &[])];
            let err = SparseDataset::new(3, rows, vec![1.0, y, -1.0]).unwrap_err();
            assert!(err.to_string().contains("row 1"), "{err}");
            let pushed = std::panic::catch_unwind(|| {
                let mut ds = SparseDataset::empty(3);
                ds.push(row(3, &[(0, 1.0)]), y);
            });
            assert!(pushed.is_err(), "push accepted the label {y}");
        }
    }

    #[test]
    fn subset_selects_rows() {
        let mut ds = SparseDataset::empty(2);
        ds.push(row(2, &[(0, 1.0)]), 1.0);
        ds.push(row(2, &[(1, 1.0)]), -1.0);
        ds.push(row(2, &[]), 1.0);
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.labels(), &[1.0, 1.0]);
        assert_eq!(sub.rows()[1].nnz(), 1);
    }

    #[test]
    fn stats_reflect_contents() {
        let mut ds = SparseDataset::empty(10);
        ds.push(row(10, &[(0, 1.0), (1, 1.0)]), 1.0);
        ds.push(row(10, &[(2, 1.0)]), -1.0);
        let s = ds.stats();
        assert_eq!(s.instances, 2);
        assert_eq!(s.features, 10);
        assert_eq!(s.total_nnz, 3);
        assert!((s.avg_nnz - 1.5).abs() < 1e-12);
        assert!((s.positive_fraction - 0.5).abs() < 1e-12);
        assert!(s.underdetermined, "10 features > 2 instances");
        assert!(s.size_bytes > 0);
    }

    #[test]
    fn determinedness_flips_with_shape() {
        let mut ds = SparseDataset::empty(2);
        for i in 0..5 {
            ds.push(row(2, &[(0, i as f64)]), 1.0);
        }
        assert!(!ds.stats().underdetermined);
    }

    #[test]
    fn size_human_formats() {
        let mk = |size_bytes| DatasetStats {
            instances: 0,
            features: 0,
            total_nnz: 0,
            avg_nnz: 0.0,
            size_bytes,
            positive_fraction: 0.0,
            underdetermined: false,
        };
        assert_eq!(mk(512).size_human(), "512B");
        assert_eq!(mk(2048).size_human(), "2.0KB");
        assert_eq!(mk(3 * 1024 * 1024).size_human(), "3.0MB");
        assert_eq!(mk(5_368_709_120).size_human(), "5.0GB");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SparseDataset::empty(3).stats();
        assert_eq!(s.instances, 0);
        assert_eq!(s.avg_nnz, 0.0);
        assert_eq!(s.positive_fraction, 0.0);
    }
}
