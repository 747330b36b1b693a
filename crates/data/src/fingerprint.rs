//! Content fingerprints of datasets.

use mlstar_codec::{schema, Fnv1a};

use crate::SparseDataset;

/// A fingerprint of a dataset: enough to refuse pairing a model or a
/// checkpoint with data of the wrong shape, and to tell two same-shape
/// datasets apart by content.
///
/// Used by both the serve-side artifact codec (a model must score the
/// feature space it was trained on) and the training checkpoint codec (a
/// resumed run must see bit-identical data or the replay is meaningless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetFingerprint {
    /// Feature dimensionality the model expects.
    pub features: usize,
    /// Number of training examples.
    pub instances: usize,
    /// FNV-1a hash over the dataset's structure and content.
    pub content_hash: u64,
}

impl DatasetFingerprint {
    /// Fingerprints a dataset: dimensions plus an FNV-1a hash over every
    /// row's indices, values, and label (bit-exact, order-sensitive).
    pub fn of(ds: &SparseDataset) -> DatasetFingerprint {
        let mut h = Fnv1a::new();
        h.write_u64(ds.num_features() as u64);
        h.write_u64(ds.len() as u64);
        for (row, &label) in ds.rows().iter().zip(ds.labels().iter()) {
            h.write_u64(label.to_bits());
            h.write_u64(row.nnz() as u64);
            for (i, v) in row.iter() {
                h.write_u64(i as u64);
                h.write_u64(v.to_bits());
            }
        }
        DatasetFingerprint {
            features: ds.num_features(),
            instances: ds.len(),
            content_hash: h.finish(),
        }
    }
}

schema! {
    /// The fingerprint's payload layout — features, instances, content
    /// hash as three `u64`s — shared by the artifact and checkpoint
    /// codecs.
    pub record fingerprint_codec: DatasetFingerprint {
        features: usize,
        instances: usize,
        content_hash: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_linalg::SparseVector;

    #[test]
    fn fingerprint_is_content_sensitive() {
        let mut a = SparseDataset::empty(4);
        a.push(SparseVector::from_pairs(4, &[(0, 1.0)]).unwrap(), 1.0);
        let b = a.clone();
        let fa = DatasetFingerprint::of(&a);
        assert_eq!(fa, DatasetFingerprint::of(&b), "same content, same print");
        let mut c = a.clone();
        c.push(SparseVector::from_pairs(4, &[(1, 2.0)]).unwrap(), -1.0);
        let fc = DatasetFingerprint::of(&c);
        assert_ne!(fa.content_hash, fc.content_hash);
        assert_eq!(fc.instances, 2);
        // A value change alone flips the hash.
        let mut d = SparseDataset::empty(4);
        d.push(
            SparseVector::from_pairs(4, &[(0, 1.0 + 1e-12)]).unwrap(),
            1.0,
        );
        assert_ne!(fa.content_hash, DatasetFingerprint::of(&d).content_hash);
    }
}
