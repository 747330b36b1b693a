//! Property tests on the `collectives::wire` frame formats, mirroring
//! `tests/codec_properties.rs` for the compressed-collective frame kinds:
//! the `size.rs` cost-model functions are pinned exactly to the encoders'
//! actual frame lengths, lossless kinds round-trip bit for bit, the
//! quantized kinds round-trip within half a quantization step, every
//! truncation point is detected, an over-long frame is refused as
//! `TrailingBytes`, and any single flipped bit is either refused or
//! changes the decoded bits (the formats carry no checksum — their
//! transport envelopes do — so "silently identical" is the only failure
//! mode worth excluding, and the quantization range fields are the one
//! documented exemption: a sub-step range perturbation may dequantize to
//! the same values, which corrupts nothing).

use mllib_star::collectives::wire::{self, FrameSwitch, WireError};
use mllib_star::linalg::{DenseVector, SparseVector};
use proptest::prelude::*;

/// Deterministic splitmix-style stream, independent of the code under
/// test.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    }
}

/// A finite dense vector with exactly-representable integer values in
/// `[-1000, 1000]`; the first and last coordinates pin the range so the
/// quantization step is strictly positive whenever `dim >= 2`.
fn dense_from_seed(seed: u64, dim: usize) -> DenseVector {
    let mut next = stream(seed);
    let mut values: Vec<f64> = (0..dim).map(|_| (next() % 2001) as f64 - 1000.0).collect();
    if dim >= 2 {
        values[0] = -1000.0;
        values[dim - 1] = 1000.0;
    }
    DenseVector::from_vec(values)
}

/// A sparse vector with sorted unique indices and nonzero integer values
/// pinning a strictly positive quantization range (for `nnz >= 2`).
fn sparse_from_seed(seed: u64, dim: usize, nnz: usize) -> SparseVector {
    let mut next = stream(seed);
    let mut indices: Vec<u32> = Vec::new();
    while indices.len() < nnz {
        let i = (next() % dim as u64) as u32;
        if !indices.contains(&i) {
            indices.push(i);
        }
    }
    indices.sort_unstable();
    let mut values: Vec<f64> = (0..nnz)
        .map(|_| (next() % 1000) as f64 + 1.0) // nonzero
        .collect();
    if nnz >= 2 {
        values[0] = -1000.0;
        values[nnz - 1] = 1000.0;
    }
    SparseVector::new(dim, indices, values).expect("generator upholds sparse invariants")
}

fn dense_bits(v: &DenseVector) -> Vec<u64> {
    v.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn sparse_fingerprint(v: &SparseVector) -> (usize, Vec<u32>, Vec<u64>) {
    (
        v.dim(),
        v.indices().to_vec(),
        v.values().iter().map(|x| x.to_bits()).collect(),
    )
}

fn flip(frame: &[u8], pos: usize, bit: u32) -> Vec<u8> {
    let mut raw = frame.to_vec();
    raw[pos] ^= 1 << bit;
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cost-model size functions are not estimates: they equal the
    /// encoders' actual frame lengths, byte for byte, for every kind.
    #[test]
    fn size_fns_equal_encoded_frame_lengths(
        seed in 0u64..10_000,
        dim in 2usize..48,
        k in 1usize..9,
    ) {
        let d = dense_from_seed(seed, dim);
        let nnz = 2 + (seed as usize % (dim - 1));
        let s = sparse_from_seed(seed, dim, nnz);
        prop_assert_eq!(wire::encode_dense(&d).len(), wire::encoded_dense_len(dim));
        prop_assert_eq!(wire::encode_sparse(&s).len(), wire::encoded_sparse_len(nnz));
        prop_assert_eq!(wire::encode_qdense(&d).len(), wire::encoded_qdense_len(dim));
        prop_assert_eq!(wire::encode_qsparse(&s).len(), wire::encoded_qsparse_len(nnz));
        let part = DenseVector::zeros(dim.div_ceil(k));
        prop_assert_eq!(wire::partition_bytes(dim, k), wire::encode_dense(&part).len());
    }

    /// Lossless kinds round-trip bit for bit; the adaptive switch is
    /// lossless under both settings.
    #[test]
    fn lossless_kinds_roundtrip_exactly(seed in 0u64..10_000, dim in 2usize..48) {
        let d = dense_from_seed(seed, dim);
        let nnz = 2 + (seed as usize % (dim - 1));
        let s = sparse_from_seed(seed, dim, nnz);
        let back = wire::decode_dense(&wire::encode_dense(&d)).unwrap();
        prop_assert_eq!(dense_bits(&back), dense_bits(&d));
        let back = wire::decode_sparse(&wire::encode_sparse(&s)).unwrap();
        prop_assert_eq!(sparse_fingerprint(&back), sparse_fingerprint(&s));
        for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
            let back = wire::decode_adaptive(&wire::encode_adaptive(&d, switch)).unwrap();
            prop_assert_eq!(dense_bits(&back), dense_bits(&d));
        }
    }

    /// The quantized kinds reproduce every value within half a
    /// quantization step of the original.
    #[test]
    fn quantized_kinds_roundtrip_within_half_a_step(seed in 0u64..10_000, dim in 2usize..48) {
        let d = dense_from_seed(seed, dim);
        let step = 2000.0 / 255.0; // the generators pin the range to ±1000
        let tol = step / 2.0 + 1e-9;
        let back = wire::decode_qdense(&wire::encode_qdense(&d)).unwrap();
        for (a, b) in d.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
        let nnz = 2 + (seed as usize % (dim - 1));
        let s = sparse_from_seed(seed, dim, nnz);
        let back = wire::decode_qsparse(&wire::encode_qsparse(&s)).unwrap();
        prop_assert_eq!(back.indices(), s.indices());
        for (a, b) in s.values().iter().zip(back.values()) {
            prop_assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    }

    /// Cutting any frame of any kind anywhere is refused — never
    /// misparsed into a shorter valid frame.
    #[test]
    fn every_truncation_point_is_detected(seed in 0u64..10_000, dim in 2usize..24) {
        let d = dense_from_seed(seed, dim);
        let nnz = 2 + (seed as usize % (dim - 1));
        let s = sparse_from_seed(seed, dim, nnz);
        type Rejects = fn(&[u8]) -> bool;
        let frames: [(Vec<u8>, Rejects); 4] = [
            (wire::encode_dense(&d), |f| wire::decode_dense(f).is_err()),
            (wire::encode_sparse(&s), |f| wire::decode_sparse(f).is_err()),
            (wire::encode_qdense(&d), |f| wire::decode_qdense(f).is_err()),
            (wire::encode_qsparse(&s), |f| wire::decode_qsparse(f).is_err()),
        ];
        for (frame, rejects) in frames {
            for cut in 0..frame.len() {
                prop_assert!(
                    rejects(&frame[..cut]),
                    "truncation at {cut}/{} decoded", frame.len()
                );
            }
        }
    }

    /// A frame with trailing garbage is refused with the dedicated
    /// `TrailingBytes` error, not a misleading `Truncated`.
    #[test]
    fn trailing_bytes_get_the_dedicated_error(seed in 0u64..10_000, dim in 2usize..24) {
        let d = dense_from_seed(seed, dim);
        let nnz = 2 + (seed as usize % (dim - 1));
        let s = sparse_from_seed(seed, dim, nnz);
        let overlong = |mut frame: Vec<u8>| {
            frame.push(0xAB);
            frame
        };
        let is_trailing = |e: &WireError| matches!(e, WireError::TrailingBytes { .. });
        let dense_refused = wire::decode_dense(&overlong(wire::encode_dense(&d)))
            .err()
            .is_some_and(|e| is_trailing(&e));
        prop_assert!(dense_refused);
        let sparse_refused = wire::decode_sparse(&overlong(wire::encode_sparse(&s)))
            .err()
            .is_some_and(|e| is_trailing(&e));
        prop_assert!(sparse_refused);
        let qdense_refused = wire::decode_qdense(&overlong(wire::encode_qdense(&d)))
            .err()
            .is_some_and(|e| is_trailing(&e));
        prop_assert!(qdense_refused);
        let qsparse_refused = wire::decode_qsparse(&overlong(wire::encode_qsparse(&s)))
            .err()
            .is_some_and(|e| is_trailing(&e));
        prop_assert!(qsparse_refused);
    }

    /// Dense frames: any single flipped bit is refused or changes the
    /// decoded bits.
    #[test]
    fn dense_single_bit_flips_refuse_or_differ(seed in 0u64..2_000, dim in 2usize..12) {
        let d = dense_from_seed(seed, dim);
        let frame = wire::encode_dense(&d);
        let clean = dense_bits(&wire::decode_dense(&frame).unwrap());
        for pos in 0..frame.len() {
            for bit in 0..8 {
                if let Ok(back) = wire::decode_dense(&flip(&frame, pos, bit)) {
                    prop_assert_ne!(
                        dense_bits(&back), clean.clone(),
                        "bit {} at {}/{} decoded silently", bit, pos, frame.len()
                    );
                }
            }
        }
    }

    /// Sparse frames: any single flipped bit is refused or changes the
    /// decoded dimension, indices, or value bits.
    #[test]
    fn sparse_single_bit_flips_refuse_or_differ(seed in 0u64..2_000, dim in 3usize..12) {
        let nnz = 2 + (seed as usize % (dim - 1));
        let s = sparse_from_seed(seed, dim, nnz);
        let frame = wire::encode_sparse(&s);
        let clean = sparse_fingerprint(&wire::decode_sparse(&frame).unwrap());
        for pos in 0..frame.len() {
            for bit in 0..8 {
                if let Ok(back) = wire::decode_sparse(&flip(&frame, pos, bit)) {
                    prop_assert_ne!(
                        sparse_fingerprint(&back), clean.clone(),
                        "bit {} at {}/{} decoded silently", bit, pos, frame.len()
                    );
                }
            }
        }
    }

    /// Quantized dense frames: any single flipped bit outside the
    /// `[lo, hi]` range fields (bytes 16..32) is refused or changes the
    /// decoded bits.
    #[test]
    fn qdense_single_bit_flips_refuse_or_differ(seed in 0u64..2_000, dim in 2usize..12) {
        let d = dense_from_seed(seed, dim);
        let frame = wire::encode_qdense(&d);
        let clean = dense_bits(&wire::decode_qdense(&frame).unwrap());
        for pos in 0..frame.len() {
            for bit in 0..8 {
                if let Ok(back) = wire::decode_qdense(&flip(&frame, pos, bit)) {
                    if dense_bits(&back) == clean {
                        prop_assert!(
                            (16..32).contains(&pos),
                            "bit {} at {}/{} decoded silently", bit, pos, frame.len()
                        );
                    }
                }
            }
        }
    }

    /// Quantized sparse frames: same contract as the dense form, with
    /// the range-field exemption at bytes 16..32.
    #[test]
    fn qsparse_single_bit_flips_refuse_or_differ(seed in 0u64..2_000, dim in 3usize..12) {
        let nnz = 2 + (seed as usize % (dim - 1));
        let s = sparse_from_seed(seed, dim, nnz);
        let frame = wire::encode_qsparse(&s);
        let clean = sparse_fingerprint(&wire::decode_qsparse(&frame).unwrap());
        for pos in 0..frame.len() {
            for bit in 0..8 {
                if let Ok(back) = wire::decode_qsparse(&flip(&frame, pos, bit)) {
                    if sparse_fingerprint(&back) == clean {
                        prop_assert!(
                            (16..32).contains(&pos),
                            "bit {} at {}/{} decoded silently", bit, pos, frame.len()
                        );
                    }
                }
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// KAT: one literal frame per kind on a fixed vector holding a `-0.0` and
/// a denormal. Any change to the header, the field order or the
/// little-endian packing is a wire-format break and must be versioned.
#[test]
fn frame_bytes_are_pinned_per_kind() {
    let d = DenseVector::from_vec(vec![1.5, -0.0, 0.0, 5e-324, -2.25, 1000.0]);
    let s = d.to_sparse().expect("finite");
    assert_eq!(s.nnz(), 5, "-0.0 is a stored coordinate");
    assert_eq!(
        hex(&wire::encode_dense(&d)),
        "2a534c4d010000000600000000000000\
         000000000000f83f00000000000000800000000000000000\
         010000000000000000000000000002c00000000000408f40"
    );
    assert_eq!(
        hex(&wire::encode_sparse(&s)),
        "2a534c4d020000000600000005000000\
         0000000001000000030000000400000005000000\
         000000000000f83f00000000000000800100000000000000\
         00000000000002c00000000000408f40"
    );
    assert_eq!(
        hex(&wire::encode_qdense(&d)),
        "2a534c4d030000000600000000000000\
         00000000000002c00000000000408f400101010100ff"
    );
    assert_eq!(
        hex(&wire::encode_qsparse(&s)),
        "2a534c4d040000000600000005000000\
         00000000000002c00000000000408f40\
         000000000100000003000000040000000500000001010100ff"
    );
}
