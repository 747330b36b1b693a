//! Message-size model.

/// Encoded size of a dense vector of `dim` `f64` coordinates, plus a
/// small frame header.
pub fn dense_bytes(dim: usize) -> usize {
    dim * 8 + 16
}

/// Encoded size of a sparse vector with `nnz` stored entries
/// (4-byte index + 8-byte value each), plus a frame header.
pub fn sparse_bytes(nnz: usize) -> usize {
    nnz * 12 + 16
}

/// Encoded size of an 8-bit quantized dense vector: one level byte
/// per coordinate, plus the frame header and the 16-byte `[lo, hi]`
/// dequantization range.
pub fn quantized_dense_bytes(dim: usize) -> usize {
    dim + 32
}

/// Encoded size of an 8-bit quantized sparse vector with `nnz`
/// stored entries (4-byte index + 1-byte level each), plus the frame
/// header and the 16-byte `[lo, hi]` dequantization range.
pub fn quantized_sparse_bytes(nnz: usize) -> usize {
    nnz * 5 + 32
}

/// Size of one model partition when a `dim`-dimensional model is split
/// across `k` owners (the largest partition's size, which is what the
/// slowest link carries).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn partition_bytes(dim: usize, k: usize) -> usize {
    assert!(k > 0, "cannot partition across zero owners");
    dense_bytes(dim.div_ceil(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_scales_linearly() {
        assert_eq!(dense_bytes(0), 16);
        assert_eq!(dense_bytes(1000), 8016);
    }

    #[test]
    fn sparse_cheaper_than_dense_when_sparse() {
        assert!(sparse_bytes(100) < dense_bytes(10_000));
        assert_eq!(sparse_bytes(2), 40);
    }

    #[test]
    fn partition_is_roughly_dim_over_k() {
        assert_eq!(partition_bytes(1000, 8), dense_bytes(125));
        assert_eq!(partition_bytes(1001, 8), dense_bytes(126));
        assert_eq!(partition_bytes(10, 16), dense_bytes(1));
    }

    #[test]
    #[should_panic(expected = "zero owners")]
    fn zero_owners_panics() {
        let _ = partition_bytes(10, 0);
    }

    #[test]
    fn quantized_dense_is_an_eighth_plus_range_overhead() {
        assert_eq!(quantized_dense_bytes(0), 32);
        assert_eq!(quantized_dense_bytes(1000), 1032);
        // 8x payload reduction: 1 byte per coordinate instead of 8.
        assert!(quantized_dense_bytes(10_000) < dense_bytes(10_000) / 7);
    }

    #[test]
    fn quantized_sparse_beats_exact_sparse() {
        assert_eq!(quantized_sparse_bytes(0), 32);
        assert_eq!(quantized_sparse_bytes(2), 42);
        assert!(quantized_sparse_bytes(1000) < sparse_bytes(1000));
    }
}
