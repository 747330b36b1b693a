//! Wire encoding for vectors crossing the (simulated) network.
//!
//! The collectives charge simulated time from [`encoded_dense_len`] /
//! [`encoded_sparse_len`] / [`encoded_qdense_len`] / [`encoded_qsparse_len`]
//! — the exact length of this encoding (16-byte header + packed
//! little-endian payload), defined once next to the encoders — and this
//! module provides the actual round-trippable bytes the real transport
//! ships.
//!
//! Layout (all little-endian; `pad` and `reserved` must be zero):
//!
//! ```text
//! dense:   magic u32 | kind=1 u8 | pad [u8;3] | dim u32 | reserved u32 | dim × f64
//! sparse:  magic u32 | kind=2 u8 | pad [u8;3] | dim u32 | nnz u32      | nnz × u32 | nnz × f64
//! qdense:  magic u32 | kind=3 u8 | pad [u8;3] | dim u32 | reserved u32 | lo f64 | hi f64 | dim × u8
//! qsparse: magic u32 | kind=4 u8 | pad [u8;3] | dim u32 | nnz u32      | lo f64 | hi f64 | nnz × u32 | nnz × u8
//! ```
//!
//! The quantized kinds store each value as one of 256 evenly spaced
//! levels over `[lo, hi]` (`level = round((x − lo)/step)` with
//! `step = (hi − lo)/255`, decoded as `lo + level·step`), so the
//! round-trip error per coordinate is at most `step/2`. Compression with
//! error feedback ([`crate::compress_update`]) re-injects that rounding
//! error into the next round's update.
//!
//! [`encode_adaptive`] / [`decode_adaptive`] implement the *lossless*
//! per-payload dense↔sparse switch used by the real transport
//! (`net::protocol`): the encoder picks whichever of the two exact
//! encodings is smaller by actual encoded length, and the decoder
//! dispatches on the frame's kind byte. Lossy kinds never travel through
//! the adaptive path — they are produced only inside the compressed
//! collectives, where the error-feedback accumulators live.

use mlstar_codec::{CodecError, Reader, Writer};
use mlstar_linalg::{DenseVector, LinalgError, SparseVector};

/// `"MLS*"` — the frame magic.
pub const WIRE_MAGIC: u32 = 0x4D4C_532A;

/// Kind byte of a dense frame.
pub const KIND_DENSE: u8 = 1;
/// Kind byte of a sparse frame.
pub const KIND_SPARSE: u8 = 2;
/// Kind byte of an 8-bit quantized dense frame.
pub const KIND_QDENSE: u8 = 3;
/// Kind byte of an 8-bit quantized sparse frame.
pub const KIND_QSPARSE: u8 = 4;

const HEADER_LEN: usize = 16;
/// Quantization resolution: 256 levels → 255 steps across `[lo, hi]`.
const QUANT_STEPS: f64 = 255.0;

/// Errors produced when decoding a wire frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// Unknown payload kind byte.
    BadKind(u8),
    /// The frame is shorter than its header declares.
    Truncated {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The frame is longer than its header declares (trailing garbage).
    TrailingBytes {
        /// Bytes expected from the header.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A pad or reserved field holds a nonzero value. Reserved space must
    /// stay zero so a future format revision can repurpose it without
    /// old decoders silently misreading new frames.
    ReservedNonzero {
        /// Byte offset of the offending field within the frame.
        offset: usize,
        /// The nonzero value found there.
        value: u32,
    },
    /// A sparse header declares more entries than the vector has
    /// coordinates — rejected before any payload allocation.
    NnzExceedsDim {
        /// Declared entry count.
        nnz: usize,
        /// Declared dimension.
        dim: usize,
    },
    /// A quantized frame's `[lo, hi]` range is non-finite or inverted.
    BadQuantRange {
        /// Declared lower bound.
        lo: f64,
        /// Declared upper bound.
        hi: f64,
    },
    /// The payload violates a vector invariant (unsorted indices, NaN…).
    Invalid(LinalgError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad wire magic {m:#010x}"),
            WireError::BadKind(k) => write!(f, "unknown payload kind {k}"),
            WireError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated frame: expected {expected} bytes, got {actual}"
                )
            }
            WireError::TrailingBytes { expected, actual } => {
                write!(
                    f,
                    "over-long frame: expected {expected} bytes, got {actual} (trailing garbage)"
                )
            }
            WireError::ReservedNonzero { offset, value } => {
                write!(f, "reserved field at byte {offset} is nonzero ({value})")
            }
            WireError::NnzExceedsDim { nnz, dim } => {
                write!(f, "sparse header declares {nnz} entries in dimension {dim}")
            }
            WireError::BadQuantRange { lo, hi } => {
                write!(f, "invalid quantization range [{lo}, {hi}]")
            }
            WireError::Invalid(e) => write!(f, "invalid payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Exact encoded length of a dense vector of `dim` coordinates.
pub fn encoded_dense_len(dim: usize) -> usize {
    HEADER_LEN + dim * 8
}

/// Exact encoded length of a sparse vector with `nnz` stored entries
/// (4-byte index + 8-byte value each).
pub fn encoded_sparse_len(nnz: usize) -> usize {
    HEADER_LEN + nnz * 12
}

/// Exact encoded length of a quantized dense vector: the `[lo, hi]`
/// range, then one level byte per coordinate.
pub fn encoded_qdense_len(dim: usize) -> usize {
    HEADER_LEN + 16 + dim
}

/// Exact encoded length of a quantized sparse vector: the `[lo, hi]`
/// range, then a 4-byte index and a 1-byte level per stored entry.
pub fn encoded_qsparse_len(nnz: usize) -> usize {
    HEADER_LEN + 16 + nnz * 5
}

/// Encoded length of the largest partition's dense frame when a
/// `dim`-dimensional model is split across `k` owners — what the slowest
/// link carries.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn partition_bytes(dim: usize, k: usize) -> usize {
    assert!(k > 0, "cannot partition across zero owners");
    encoded_dense_len(dim.div_ceil(k))
}

/// Exact-vs-declared length check shared by every decoder: short frames
/// are [`WireError::Truncated`], over-long frames are
/// [`WireError::TrailingBytes`].
fn check_len(expected: usize, actual: usize) -> Result<(), WireError> {
    match actual.cmp(&expected) {
        std::cmp::Ordering::Less => Err(WireError::Truncated { expected, actual }),
        std::cmp::Ordering::Greater => Err(WireError::TrailingBytes { expected, actual }),
        std::cmp::Ordering::Equal => Ok(()),
    }
}

/// Runs `read` over `frame[skip..]`. Every caller has checked, or is
/// checking, that the frame holds `expected` bytes, so running off the end
/// means it is shorter than that.
fn read_from<'a, T>(
    frame: &'a [u8],
    skip: usize,
    expected: usize,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, WireError> {
    let mut r = Reader::new(frame.get(skip..).unwrap_or_default());
    read(&mut r).map_err(|_| WireError::Truncated {
        expected,
        actual: frame.len(),
    })
}

/// Writes the 16-byte header.
fn put_header(w: &mut Writer, kind: u8, dim: u32, aux: u32) {
    w.put_u32(WIRE_MAGIC);
    w.put_u8(kind);
    w.put_u8(0);
    w.put_u8(0);
    w.put_u8(0);
    w.put_u32(dim);
    w.put_u32(aux);
}

/// Parses and validates the 16-byte header (magic, zero pad), returning
/// `(kind, dim, aux)`.
fn decode_header(frame: &[u8]) -> Result<(u8, usize, usize), WireError> {
    let (magic, kind, pad, dim, aux) = read_from(frame, 0, HEADER_LEN, |r| {
        Ok((
            r.u32()?,
            r.u8()?,
            [r.u8()?, r.u8()?, r.u8()?],
            r.u32()?,
            r.u32()?,
        ))
    })?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if pad != [0; 3] {
        return Err(WireError::ReservedNonzero {
            offset: 5,
            value: u32::from_le_bytes([pad[0], pad[1], pad[2], 0]),
        });
    }
    Ok((kind, dim as usize, aux as usize))
}

/// Appends the dense frame of `v` to `w`.
///
/// # Panics
///
/// Panics if `dim > u32::MAX` (the wire format's limit).
pub fn put_dense(w: &mut Writer, v: &DenseVector) {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    put_header(w, KIND_DENSE, v.dim() as u32, 0);
    w.put_f64s(v.as_slice());
}

/// Appends the sparse frame of `v` to `w`.
///
/// # Panics
///
/// Panics if `dim` or `nnz` exceeds `u32::MAX`.
pub fn put_sparse(w: &mut Writer, v: &SparseVector) {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    assert!(v.nnz() <= u32::MAX as usize, "nnz exceeds wire limit");
    put_header(w, KIND_SPARSE, v.dim() as u32, v.nnz() as u32);
    w.put_u32s(v.indices());
    w.put_f64s(v.values());
}

/// [`put_dense`] into a buffer of its own.
pub fn encode_dense(v: &DenseVector) -> Vec<u8> {
    let mut w = Writer::with_capacity(encoded_dense_len(v.dim()));
    put_dense(&mut w, v);
    w.into_payload()
}

/// [`put_sparse`] into a buffer of its own.
pub fn encode_sparse(v: &SparseVector) -> Vec<u8> {
    let mut w = Writer::with_capacity(encoded_sparse_len(v.nnz()));
    put_sparse(&mut w, v);
    w.into_payload()
}

/// Encodes a dense vector with 8-bit linear quantization over its value
/// range.
///
/// # Panics
///
/// Panics if `dim > u32::MAX` or any value is non-finite (quantization
/// has no representation for NaN/∞ — callers gate on
/// [`DenseVector::is_finite`]).
pub fn encode_qdense(v: &DenseVector) -> Vec<u8> {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    assert!(v.is_finite(), "quantization requires finite values");
    let (lo, hi) = value_range(v.as_slice());
    let step = quant_step(lo, hi);
    let mut w = Writer::with_capacity(encoded_qdense_len(v.dim()));
    put_header(&mut w, KIND_QDENSE, v.dim() as u32, 0);
    w.put_f64(lo);
    w.put_f64(hi);
    w.put_bytes(&quant_levels(v.as_slice(), lo, step));
    w.into_payload()
}

/// Encodes a sparse vector with 8-bit linear quantization over its
/// stored-value range.
///
/// # Panics
///
/// Panics if `dim` or `nnz` exceeds `u32::MAX` (values are already
/// finite by the [`SparseVector`] invariant).
pub fn encode_qsparse(v: &SparseVector) -> Vec<u8> {
    assert!(v.dim() <= u32::MAX as usize, "dimension exceeds wire limit");
    assert!(v.nnz() <= u32::MAX as usize, "nnz exceeds wire limit");
    let (lo, hi) = value_range(v.values());
    let step = quant_step(lo, hi);
    let mut w = Writer::with_capacity(encoded_qsparse_len(v.nnz()));
    put_header(&mut w, KIND_QSPARSE, v.dim() as u32, v.nnz() as u32);
    w.put_f64(lo);
    w.put_f64(hi);
    w.put_u32s(v.indices());
    w.put_bytes(&quant_levels(v.values(), lo, step));
    w.into_payload()
}

/// Decodes a dense vector frame, rejecting a nonzero reserved word.
pub fn decode_dense(frame: &[u8]) -> Result<DenseVector, WireError> {
    let (kind, dim, aux) = decode_header(frame)?;
    if kind != KIND_DENSE {
        return Err(WireError::BadKind(kind));
    }
    if aux != 0 {
        return Err(WireError::ReservedNonzero {
            offset: 12,
            value: aux as u32,
        });
    }
    let len = encoded_dense_len(dim);
    check_len(len, frame.len())?;
    let values = read_from(frame, HEADER_LEN, len, |r| r.f64s(dim))?;
    Ok(DenseVector::from_vec(values))
}

/// Decodes a sparse vector frame, validating all sparse invariants.
pub fn decode_sparse(frame: &[u8]) -> Result<SparseVector, WireError> {
    let (kind, dim, nnz) = decode_header(frame)?;
    if kind != KIND_SPARSE {
        return Err(WireError::BadKind(kind));
    }
    if nnz > dim {
        return Err(WireError::NnzExceedsDim { nnz, dim });
    }
    let len = encoded_sparse_len(nnz);
    check_len(len, frame.len())?;
    let (indices, values) =
        read_from(frame, HEADER_LEN, len, |r| Ok((r.u32s(nnz)?, r.f64s(nnz)?)))?;
    SparseVector::new(dim, indices, values).map_err(WireError::Invalid)
}

/// Decodes a quantized dense frame back to the dequantized values.
pub fn decode_qdense(frame: &[u8]) -> Result<DenseVector, WireError> {
    let (kind, dim, aux) = decode_header(frame)?;
    if kind != KIND_QDENSE {
        return Err(WireError::BadKind(kind));
    }
    if aux != 0 {
        return Err(WireError::ReservedNonzero {
            offset: 12,
            value: aux as u32,
        });
    }
    let len = encoded_qdense_len(dim);
    check_len(len, frame.len())?;
    let (lo, hi, levels) = read_from(frame, HEADER_LEN, len, |r| {
        Ok((r.f64()?, r.f64()?, r.bytes(dim)?))
    })?;
    let step = checked_quant_step(lo, hi)?;
    let values = levels.iter().map(|&l| dequant(l, lo, step)).collect();
    Ok(DenseVector::from_vec(values))
}

/// Decodes a quantized sparse frame back to the dequantized values,
/// validating all sparse invariants.
pub fn decode_qsparse(frame: &[u8]) -> Result<SparseVector, WireError> {
    let (kind, dim, nnz) = decode_header(frame)?;
    if kind != KIND_QSPARSE {
        return Err(WireError::BadKind(kind));
    }
    if nnz > dim {
        return Err(WireError::NnzExceedsDim { nnz, dim });
    }
    let len = encoded_qsparse_len(nnz);
    check_len(len, frame.len())?;
    let (lo, hi, indices, levels) = read_from(frame, HEADER_LEN, len, |r| {
        Ok((r.f64()?, r.f64()?, r.u32s(nnz)?, r.bytes(nnz)?))
    })?;
    let step = checked_quant_step(lo, hi)?;
    let values = levels.iter().map(|&l| dequant(l, lo, step)).collect();
    SparseVector::new(dim, indices, values).map_err(WireError::Invalid)
}

/// Appends `v` to `w` for the real wire path: losslessly, as whichever of
/// the dense / exact-sparse frames is smaller by actual encoded length
/// (only when `switch` allows the sparse form). Non-finite vectors fall
/// back to the dense frame, which represents every bit pattern.
pub fn put_adaptive(w: &mut Writer, v: &DenseVector, switch: FrameSwitch) {
    match sparse_candidate(v, switch) {
        Some(s) => put_sparse(w, &s),
        None => put_dense(w, v),
    }
}

/// Exact length of the frame [`put_adaptive`] appends for `v` under
/// `switch`.
pub fn encoded_adaptive_len(v: &DenseVector, switch: FrameSwitch) -> usize {
    match sparse_nnz(v, switch) {
        Some(nnz) => encoded_sparse_len(nnz),
        None => encoded_dense_len(v.dim()),
    }
}

/// [`put_adaptive`] into a buffer of its own.
pub fn encode_adaptive(v: &DenseVector, switch: FrameSwitch) -> Vec<u8> {
    let mut w = Writer::new();
    put_adaptive(&mut w, v, switch);
    w.into_payload()
}

/// Decodes either frame kind produced by [`encode_adaptive`].
pub fn decode_adaptive(frame: &[u8]) -> Result<DenseVector, WireError> {
    match frame_kind(frame) {
        Some(KIND_SPARSE) => Ok(materialize_exact(&decode_sparse(frame)?)),
        _ => decode_dense(frame),
    }
}

/// Materializes a sparse vector bit-exactly: stored values are written
/// verbatim, so a `-0.0` entry survives (unlike
/// [`SparseVector::to_dense`], whose `axpy` normalizes `0 + (-0.0)` to
/// `+0.0`). This keeps the adaptive dense↔sparse round trip lossless
/// down to the bit pattern.
pub(crate) fn materialize_exact(s: &SparseVector) -> DenseVector {
    let mut d = DenseVector::zeros(s.dim());
    for (i, x) in s.iter() {
        d.set(i, x);
    }
    d
}

/// Peeks at a frame's kind byte without consuming anything. `None` if the
/// frame is shorter than a header.
pub fn frame_kind(frame: &[u8]) -> Option<u8> {
    if frame.len() < HEADER_LEN {
        return None;
    }
    Some(frame[4])
}

/// Per-payload dense↔sparse switch for the real wire path
/// ([`encode_adaptive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameSwitch {
    /// Always ship the dense frame (the legacy format; bit-compatible
    /// with every pre-compression decoder).
    #[default]
    Dense,
    /// Per payload, ship the exact sparse frame whenever it is strictly
    /// smaller than the dense frame by actual encoded length.
    Adaptive,
}

/// The number of entries of `v`'s exact sparse form (every bit pattern but
/// `+0.0`, as [`DenseVector::to_sparse`] keeps them), iff the switch
/// allows that form, it is strictly smaller on the wire, and `v` is
/// representable (finite). One pass counts the entries and checks the
/// values.
fn sparse_nnz(v: &DenseVector, switch: FrameSwitch) -> Option<usize> {
    if switch != FrameSwitch::Adaptive {
        return None;
    }
    let (nnz, finite) = v.as_slice().iter().fold((0, true), |(nnz, finite), x| {
        (nnz + usize::from(x.to_bits() != 0), finite && x.is_finite())
    });
    (finite && encoded_sparse_len(nnz) < encoded_dense_len(v.dim())).then_some(nnz)
}

/// The exact sparse form of `v` when [`sparse_nnz`] chooses it, so a
/// vector whose dense frame wins is never materialised.
fn sparse_candidate(v: &DenseVector, switch: FrameSwitch) -> Option<SparseVector> {
    sparse_nnz(v, switch)?;
    v.to_sparse().ok()
}

/// `(min, max)` over `values`; `(0, 0)` when empty.
fn value_range(values: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in values {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Quantization step for a `[lo, hi]` range: 255 steps across it, `0` for
/// a degenerate (constant) range.
fn quant_step(lo: f64, hi: f64) -> f64 {
    (hi - lo) / QUANT_STEPS
}

/// [`quant_step`] with wire-side validation of an untrusted range.
fn checked_quant_step(lo: f64, hi: f64) -> Result<f64, WireError> {
    if !lo.is_finite() || !hi.is_finite() || lo > hi {
        return Err(WireError::BadQuantRange { lo, hi });
    }
    Ok(quant_step(lo, hi))
}

/// Nearest quantization level for `x` (deterministic `round`, saturating
/// into `0..=255`).
fn quant_level(x: f64, lo: f64, step: f64) -> u8 {
    if step > 0.0 {
        ((x - lo) / step).round() as u8
    } else {
        0
    }
}

/// [`quant_level`] of every value: the one-byte-per-value field of the
/// quantized kinds.
fn quant_levels(values: &[f64], lo: f64, step: f64) -> Vec<u8> {
    values.iter().map(|&x| quant_level(x, lo, step)).collect()
}

/// Reconstructs the value of a quantization level.
fn dequant(level: u8, lo: f64, step: f64) -> f64 {
    lo + f64::from(level) * step
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let v = DenseVector::from_vec(vec![1.5, -2.0, 0.0, f64::MIN_POSITIVE]);
        let frame = encode_dense(&v);
        assert_eq!(frame.len(), encoded_dense_len(4));
        let back = decode_dense(&frame).unwrap();
        assert_eq!(back.as_slice(), v.as_slice());
    }

    #[test]
    fn sparse_roundtrip() {
        let v = SparseVector::from_pairs(1000, &[(3, 1.0), (999, -0.25)]).unwrap();
        let frame = encode_sparse(&v);
        assert_eq!(frame.len(), encoded_sparse_len(2));
        let back = decode_sparse(&frame).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn quantized_dense_roundtrip_is_within_half_a_step() {
        let v = DenseVector::from_vec(vec![-3.0, -1.25, 0.0, 0.5, 2.0, 7.5]);
        let frame = encode_qdense(&v);
        assert_eq!(frame.len(), encoded_qdense_len(6));
        let back = decode_qdense(&frame).unwrap();
        let step = (7.5 - (-3.0)) / 255.0;
        for (i, &x) in v.as_slice().iter().enumerate() {
            assert!(
                (back.get(i) - x).abs() <= step * 0.5 + 1e-12,
                "coord {i}: {x} decoded as {}",
                back.get(i)
            );
        }
    }

    #[test]
    fn quantized_sparse_roundtrip_preserves_indices() {
        let v = SparseVector::from_pairs(500, &[(2, -1.0), (40, 0.25), (499, 3.0)]).unwrap();
        let frame = encode_qsparse(&v);
        assert_eq!(frame.len(), encoded_qsparse_len(3));
        let back = decode_qsparse(&frame).unwrap();
        assert_eq!(back.indices(), v.indices());
        let step = (3.0 - (-1.0)) / 255.0;
        for ((_, want), (_, got)) in v.iter().zip(back.iter()) {
            assert!((want - got).abs() <= step * 0.5 + 1e-12);
        }
    }

    #[test]
    fn constant_vector_quantizes_exactly() {
        let v = DenseVector::filled(9, 4.25);
        let back = decode_qdense(&encode_qdense(&v)).unwrap();
        assert_eq!(back.as_slice(), v.as_slice());
    }

    #[test]
    fn encoded_lengths_are_pinned() {
        assert_eq!(encoded_dense_len(0), 16);
        assert_eq!(encoded_dense_len(1000), 8016);
        assert_eq!(encoded_sparse_len(2), 40);
        assert_eq!(encoded_qdense_len(1000), 1032);
        assert_eq!(encoded_qsparse_len(2), 42);
        assert!(encoded_qsparse_len(1000) < encoded_sparse_len(1000));
        assert!(encoded_qdense_len(10_000) < encoded_dense_len(10_000) / 7);
    }

    #[test]
    fn partition_is_roughly_dim_over_k() {
        assert_eq!(partition_bytes(1000, 8), encoded_dense_len(125));
        assert_eq!(partition_bytes(1001, 8), encoded_dense_len(126));
        assert_eq!(partition_bytes(10, 16), encoded_dense_len(1));
    }

    #[test]
    #[should_panic(expected = "zero owners")]
    fn zero_owners_panics() {
        let _ = partition_bytes(10, 0);
    }

    #[test]
    fn adaptive_picks_the_cheaper_encoding() {
        // 2 nonzeros in 100 dims: sparse wins.
        let mut v = DenseVector::zeros(100);
        v.set(3, 1.0);
        v.set(64, -2.0);
        let frame = encode_adaptive(&v, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_SPARSE));
        assert_eq!(frame.len(), encoded_sparse_len(2));
        assert_eq!(decode_adaptive(&frame).unwrap().as_slice(), v.as_slice());

        // Dense vector: dense frame wins.
        let dense = DenseVector::filled(100, 1.0);
        let frame = encode_adaptive(&dense, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_DENSE));
        assert_eq!(frame.len(), encoded_dense_len(100));
        assert_eq!(
            decode_adaptive(&frame).unwrap().as_slice(),
            dense.as_slice()
        );
    }

    #[test]
    fn adaptive_forced_dense_matches_legacy_frames() {
        let mut v = DenseVector::zeros(50);
        v.set(7, 2.5);
        let forced = encode_adaptive(&v, FrameSwitch::Dense);
        assert_eq!(forced, encode_dense(&v));
    }

    #[test]
    fn adaptive_roundtrip_is_bit_exact_including_negative_zero() {
        let mut v = DenseVector::zeros(40);
        v.set(1, -0.0);
        v.set(5, 1.5);
        let frame = encode_adaptive(&v, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_SPARSE));
        let back = decode_adaptive(&frame).unwrap();
        let want: Vec<u64> = v.as_slice().iter().map(|x| x.to_bits()).collect();
        let got: Vec<u64> = back.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(want, got, "-0.0 must survive the sparse round trip");
    }

    #[test]
    fn adaptive_falls_back_to_dense_for_non_finite() {
        let mut v = DenseVector::zeros(64);
        v.set(0, f64::INFINITY);
        let frame = encode_adaptive(&v, FrameSwitch::Adaptive);
        assert_eq!(frame_kind(&frame), Some(KIND_DENSE));
        let back = decode_adaptive(&frame).unwrap();
        assert!(back.get(0).is_infinite());
    }

    #[test]
    fn sparse_candidate_counts_entries_before_it_materialises() {
        // 30 coordinates: the sparse frame is smaller below 20 entries.
        // A -0.0 is an entry, a +0.0 is not.
        let mut v = DenseVector::zeros(30);
        for i in 0..20 {
            v.set(i, if i % 2 == 0 { -0.0 } else { i as f64 });
        }
        assert!(sparse_candidate(&v, FrameSwitch::Adaptive).is_none());
        assert_eq!(encode_adaptive(&v, FrameSwitch::Adaptive), encode_dense(&v));
        v.set(0, 0.0);
        let s = sparse_candidate(&v, FrameSwitch::Adaptive).expect("19 entries: sparse wins");
        let exact = v.to_sparse().unwrap();
        assert_eq!(s.indices(), exact.indices());
        let bits = |s: &SparseVector| s.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s), bits(&exact));
        assert!(sparse_candidate(&v, FrameSwitch::Dense).is_none());

        // One NaN in zeros would be far smaller sparse, but no sparse
        // frame holds it: the dense frame carries its bits.
        let mut nan = DenseVector::zeros(30);
        let quiet = f64::from_bits(0x7ff8_0000_0000_0001);
        nan.set(7, quiet);
        assert!(sparse_candidate(&nan, FrameSwitch::Adaptive).is_none());
        let frame = encode_adaptive(&nan, FrameSwitch::Adaptive);
        assert_eq!(frame, encode_dense(&nan));
        assert_eq!(
            decode_adaptive(&frame).unwrap().get(7).to_bits(),
            quiet.to_bits()
        );

        // The length the encoder is sized from is the frame's, whichever
        // form wins.
        let mut dense_wins = v.clone();
        dense_wins.set(0, -0.0);
        for u in [&v, &dense_wins, &nan] {
            for switch in [FrameSwitch::Adaptive, FrameSwitch::Dense] {
                let frame = encode_adaptive(u, switch);
                assert_eq!(encoded_adaptive_len(u, switch), frame.len());
            }
        }
    }

    #[test]
    fn rejects_bad_magic_and_kind() {
        let v = DenseVector::zeros(2);
        let frame = encode_dense(&v);
        let mut corrupted = frame.clone();
        corrupted[0] ^= 0xFF;
        assert!(matches!(
            decode_dense(&corrupted),
            Err(WireError::BadMagic(_))
        ));
        // Dense frame through the sparse decoder.
        assert!(matches!(
            decode_sparse(&frame),
            Err(WireError::BadKind(KIND_DENSE))
        ));
        // Quantized frames through the wrong decoders.
        let q = encode_qdense(&v);
        assert!(matches!(
            decode_qsparse(&q),
            Err(WireError::BadKind(KIND_QDENSE))
        ));
        assert!(matches!(
            decode_dense(&q),
            Err(WireError::BadKind(KIND_QDENSE))
        ));
    }

    #[test]
    fn rejects_truncated_frames() {
        let v = DenseVector::zeros(8);
        let frame = encode_dense(&v);
        let short = &frame[..frame.len() - 4];
        assert!(matches!(
            decode_dense(short),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            decode_dense(&[1, 2, 3]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_over_long_frames_as_trailing_bytes() {
        let v = DenseVector::zeros(4);
        let mut padded = encode_dense(&v);
        padded.push(0xAB);
        let err = decode_dense(&padded).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::TrailingBytes {
                    expected: 48,
                    actual: 49
                }
            ),
            "got {err:?}"
        );

        let s = SparseVector::from_pairs(10, &[(1, 1.0)]).unwrap();
        let mut padded = encode_sparse(&s);
        padded.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_sparse(&padded),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn rejects_nonzero_reserved_word() {
        let v = DenseVector::zeros(2);
        let mut bytes = encode_dense(&v);
        bytes[12] = 1; // reserved u32 at offset 12
        assert!(matches!(
            decode_dense(&bytes),
            Err(WireError::ReservedNonzero { offset: 12, .. })
        ));
        let mut bytes = encode_dense(&v);
        bytes[6] = 9; // pad byte
        assert!(matches!(
            decode_dense(&bytes),
            Err(WireError::ReservedNonzero { offset: 5, .. })
        ));
    }

    #[test]
    fn rejects_nnz_exceeding_dim_before_allocation() {
        let s = SparseVector::from_pairs(4, &[(0, 1.0), (3, 2.0)]).unwrap();
        let mut bytes = encode_sparse(&s);
        // Rewrite nnz (offset 12) to a huge count; the typed error must
        // surface before any length/alloc logic touches it.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_sparse(&bytes),
            Err(WireError::NnzExceedsDim { dim: 4, .. })
        ));
    }

    #[test]
    fn rejects_bad_quantization_range() {
        let v = DenseVector::from_vec(vec![1.0, 2.0]);
        let mut bytes = encode_qdense(&v);
        // lo (offset 16) := NaN.
        bytes[16..24].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(matches!(
            decode_qdense(&bytes),
            Err(WireError::BadQuantRange { .. })
        ));
        // lo > hi.
        let mut bytes = encode_qdense(&v);
        bytes[16..24].copy_from_slice(&5.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_qdense(&bytes),
            Err(WireError::BadQuantRange { lo, hi }) if lo > hi
        ));
    }

    #[test]
    fn rejects_invalid_sparse_payload() {
        // Hand-craft a frame with unsorted indices.
        let good = SparseVector::from_pairs(10, &[(1, 1.0), (5, 2.0)]).unwrap();
        let mut bytes = encode_sparse(&good);
        // Swap the two index words (offsets 16..20 and 20..24).
        bytes.swap(16, 20);
        bytes.swap(17, 21);
        bytes.swap(18, 22);
        bytes.swap(19, 23);
        assert!(matches!(decode_sparse(&bytes), Err(WireError::Invalid(_))));
    }

    #[test]
    fn error_messages_render() {
        let e = WireError::BadMagic(7);
        assert!(e.to_string().contains("magic"));
        let e = WireError::Truncated {
            expected: 10,
            actual: 3,
        };
        assert!(e.to_string().contains("10"));
        let e = WireError::TrailingBytes {
            expected: 10,
            actual: 12,
        };
        assert!(e.to_string().contains("trailing"));
        let e = WireError::ReservedNonzero {
            offset: 12,
            value: 3,
        };
        assert!(e.to_string().contains("12"));
        let e = WireError::NnzExceedsDim { nnz: 9, dim: 4 };
        assert!(e.to_string().contains('9'));
        let e = WireError::BadQuantRange { lo: 2.0, hi: 1.0 };
        assert!(e.to_string().contains("range"));
        let e = WireError::BadKind(9);
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn empty_vectors_encode() {
        let d = decode_dense(&encode_dense(&DenseVector::zeros(0))).unwrap();
        assert_eq!(d.dim(), 0);
        let s = decode_sparse(&encode_sparse(&SparseVector::empty(5))).unwrap();
        assert_eq!(s.dim(), 5);
        assert_eq!(s.nnz(), 0);
        let q = decode_qdense(&encode_qdense(&DenseVector::zeros(0))).unwrap();
        assert_eq!(q.dim(), 0);
        let qs = decode_qsparse(&encode_qsparse(&SparseVector::empty(3))).unwrap();
        assert_eq!(qs.nnz(), 0);
    }
}
