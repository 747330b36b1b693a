//! Gradient/model-delta compression for the collectives.
//!
//! SparCML-style lossy compression: a sparsifier drops small
//! coordinates, optional 8-bit quantization rounds the survivors, and a
//! per-worker error-feedback accumulator re-injects everything that was
//! dropped or rounded into the next round's update, so the lost mass is
//! delayed rather than discarded. Every stage is deterministic — same
//! inputs, same frames, same decoded values on every run and backend.
//!
//! [`compress_update`] is the single choke point: it sparsifies,
//! encodes every admissible frame kind, keeps the smallest by *actual
//! encoded length* (the adaptive dense↔sparse switch — never a guess),
//! and returns both the winning frame and the values a receiver will
//! decode from it. The caller computes its error-feedback residual as
//! `input − decoded`, which is exactly the mass the wire lost.

use mlstar_linalg::{DenseVector, SparseVector};

use crate::wire;
pub use crate::wire::FrameSwitch;

/// How a vector is sparsified before encoding.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Sparsifier {
    /// Keep every stored (bitwise-nonzero) coordinate — lossless, so the
    /// sparse frame decodes bit-identically to the input.
    #[default]
    Exact,
    /// Keep the `k` largest-magnitude coordinates (deterministic: ties
    /// break toward the lower index).
    TopK {
        /// Number of coordinates to keep.
        k: usize,
    },
    /// Keep coordinates with `|x| > tau`.
    Threshold {
        /// Magnitude cutoff.
        tau: f64,
    },
}

/// Compression policy for the collectives' update exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Frame-kind policy. [`FrameSwitch::Dense`] (the default) disables
    /// compression entirely and keeps the legacy dense path, which is
    /// bit-compatible with every existing golden trace.
    pub switch: FrameSwitch,
    /// How updates are sparsified when compression is on.
    pub sparsifier: Sparsifier,
    /// Also admit the 8-bit quantized frame kinds to the size contest.
    pub quantize: bool,
    /// Keep per-worker error-feedback residuals so dropped/rounded mass
    /// is re-injected next round. Only meaningful with a lossy
    /// sparsifier or quantization.
    pub error_feedback: bool,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            switch: FrameSwitch::Dense,
            sparsifier: Sparsifier::Exact,
            quantize: false,
            // Harmless when the policy is lossless, essential when it is
            // not — on by default so flipping on a lossy sparsifier never
            // silently discards gradient mass.
            error_feedback: true,
        }
    }
}

impl CompressionConfig {
    /// True when the compressed collective path is active.
    pub fn enabled(&self) -> bool {
        self.switch == FrameSwitch::Adaptive
    }

    /// Checks the policy for values that would silently train something
    /// other than what was asked for.
    pub fn validate(&self) -> Result<(), String> {
        match self.sparsifier {
            Sparsifier::TopK { k } => {
                if k == 0 {
                    return Err("top-k sparsifier needs k ≥ 1".to_string());
                }
            }
            Sparsifier::Threshold { tau } => {
                if !tau.is_finite() || tau < 0.0 {
                    return Err(format!(
                        "threshold sparsifier needs finite tau ≥ 0, got {tau}"
                    ));
                }
            }
            Sparsifier::Exact => {}
        }
        Ok(())
    }
}

/// A compressed update ready to ship.
#[derive(Debug, Clone)]
pub struct EncodedUpdate {
    /// The winning wire frame (smallest admissible encoding).
    pub frame: Vec<u8>,
    /// The values a receiver decodes from `frame` — the caller's
    /// error-feedback residual is `input − decoded`.
    pub decoded: DenseVector,
}

/// Sparsifies `v` deterministically. `None` when `v` cannot be
/// represented sparsely (non-finite values) — the caller falls back to
/// the lossless dense frame.
fn sparsify(v: &DenseVector, sparsifier: Sparsifier) -> Option<SparseVector> {
    let exact = v.to_sparse().ok()?;
    match sparsifier {
        Sparsifier::Exact => Some(exact),
        Sparsifier::TopK { k } => {
            if exact.nnz() <= k {
                return Some(exact);
            }
            // Order by magnitude descending, lower index first on ties —
            // total_cmp makes this a total order, so the selection is
            // deterministic for any input.
            let mut order: Vec<usize> = (0..exact.nnz()).collect();
            order.sort_by(|&a, &b| {
                exact.values()[b]
                    .abs()
                    .total_cmp(&exact.values()[a].abs())
                    .then(exact.indices()[a].cmp(&exact.indices()[b]))
            });
            order.truncate(k);
            order.sort_by_key(|&pos| exact.indices()[pos]);
            let indices: Vec<u32> = order.iter().map(|&pos| exact.indices()[pos]).collect();
            let values: Vec<f64> = order.iter().map(|&pos| exact.values()[pos]).collect();
            SparseVector::new(v.dim(), indices, values).ok()
        }
        Sparsifier::Threshold { tau } => {
            let mut indices = Vec::new();
            let mut values = Vec::new();
            for (pos, &x) in exact.values().iter().enumerate() {
                if x.abs() > tau {
                    indices.push(exact.indices()[pos]);
                    values.push(x);
                }
            }
            SparseVector::new(v.dim(), indices, values).ok()
        }
    }
}

/// Compresses one worker update: sparsify per the policy, encode every
/// admissible frame kind, ship the smallest by actual encoded length.
///
/// Lossless guarantee: with [`Sparsifier::Exact`] and `quantize` off,
/// `decoded` is bit-identical to `v` regardless of which frame wins.
/// Non-finite inputs (a diverged model) always fall back to the dense
/// frame, which represents every bit pattern.
pub fn compress_update(v: &DenseVector, cfg: &CompressionConfig) -> EncodedUpdate {
    let sparse = sparsify(v, cfg.sparsifier);

    // Candidate frames, each paired with what the receiver will decode.
    let dense_frame = wire::encode_dense(v);
    let mut best_len = dense_frame.len();
    let mut best: Option<EncodedUpdate> = None;

    if let Some(s) = &sparse {
        let frame = wire::encode_sparse(s);
        if frame.len() < best_len {
            best_len = frame.len();
            best = Some(EncodedUpdate {
                frame,
                decoded: wire::materialize_exact(s),
            });
        }
        if cfg.quantize {
            let frame = wire::encode_qsparse(s);
            if frame.len() < best_len {
                let decoded = wire::decode_qsparse(&frame)
                    .expect("freshly encoded qsparse frame must decode") // lint:allow(panic_in_lib): encoder/decoder pair is exercised by property tests; a failure here is a codec bug, not bad input
                    .to_dense();
                best_len = frame.len();
                best = Some(EncodedUpdate { frame, decoded });
            }
        }
    }
    if cfg.quantize && v.is_finite() {
        let frame = wire::encode_qdense(v);
        if frame.len() < best_len {
            let decoded =
                wire::decode_qdense(&frame).expect("freshly encoded qdense frame must decode"); // lint:allow(panic_in_lib): encoder/decoder pair is exercised by property tests; a failure here is a codec bug, not bad input
            best = Some(EncodedUpdate { frame, decoded });
        }
    }

    best.unwrap_or_else(|| EncodedUpdate {
        frame: dense_frame,
        decoded: v.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &DenseVector) -> Vec<u64> {
        v.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn default_config_is_off_and_valid() {
        let cfg = CompressionConfig::default();
        assert!(!cfg.enabled());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_policies() {
        let cfg = CompressionConfig {
            sparsifier: Sparsifier::TopK { k: 0 },
            ..CompressionConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = CompressionConfig {
            sparsifier: Sparsifier::Threshold { tau: -1.0 },
            ..CompressionConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = CompressionConfig {
            sparsifier: Sparsifier::Threshold { tau: f64::NAN },
            ..CompressionConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn exact_mode_is_lossless_and_picks_the_smaller_frame() {
        let mut v = DenseVector::zeros(200);
        v.set(3, 1.0);
        v.set(77, -0.5);
        let cfg = CompressionConfig {
            switch: FrameSwitch::Adaptive,
            ..CompressionConfig::default()
        };
        let out = compress_update(&v, &cfg);
        assert_eq!(out.frame.len(), wire::encoded_sparse_len(2));
        assert_eq!(bits(&out.decoded), bits(&v));
    }

    #[test]
    fn dense_vector_ships_dense() {
        let v = DenseVector::filled(50, 1.0);
        let cfg = CompressionConfig {
            switch: FrameSwitch::Adaptive,
            ..CompressionConfig::default()
        };
        let out = compress_update(&v, &cfg);
        assert_eq!(out.frame.len(), wire::encoded_dense_len(50));
        assert_eq!(bits(&out.decoded), bits(&v));
    }

    #[test]
    fn top_k_keeps_largest_magnitudes_deterministically() {
        let v = DenseVector::from_vec(vec![0.1, -5.0, 0.0, 3.0, -3.0, 0.2]);
        let s = sparsify(&v, Sparsifier::TopK { k: 3 }).unwrap();
        // |-5| > |3| == |-3| (tie: lower index 3 wins; both fit at k=3).
        assert_eq!(s.indices(), &[1, 3, 4]);
        assert_eq!(s.values(), &[-5.0, 3.0, -3.0]);

        let s2 = sparsify(&v, Sparsifier::TopK { k: 2 }).unwrap();
        assert_eq!(s2.indices(), &[1, 3]);
    }

    #[test]
    fn threshold_drops_small_coordinates() {
        let v = DenseVector::from_vec(vec![0.05, -2.0, 0.5, -0.04]);
        let s = sparsify(&v, Sparsifier::Threshold { tau: 0.1 }).unwrap();
        assert_eq!(s.indices(), &[1, 2]);
        // tau = 0 keeps everything stored but drops nothing above zero
        // magnitude except -0.0 (|−0.0| = 0 is not > 0), whose mass is
        // zero anyway.
        let s = sparsify(&v, Sparsifier::Threshold { tau: 0.0 }).unwrap();
        assert_eq!(s.nnz(), 4);
    }

    #[test]
    fn quantized_frame_wins_for_large_dense_updates() {
        let values: Vec<f64> = (0..512).map(|i| (i as f64) / 511.0 - 0.5).collect();
        let v = DenseVector::from_vec(values);
        let cfg = CompressionConfig {
            switch: FrameSwitch::Adaptive,
            quantize: true,
            ..CompressionConfig::default()
        };
        let out = compress_update(&v, &cfg);
        assert_eq!(out.frame.len(), wire::encoded_qdense_len(512));
        // Rounding error is bounded by half a quantization step.
        let step = 1.0 / 255.0;
        for (i, &x) in v.as_slice().iter().enumerate() {
            assert!((out.decoded.get(i) - x).abs() <= step * 0.5 + 1e-12);
        }
    }

    #[test]
    fn non_finite_update_falls_back_to_lossless_dense() {
        let mut v = DenseVector::zeros(64);
        v.set(0, f64::NAN);
        let cfg = CompressionConfig {
            switch: FrameSwitch::Adaptive,
            quantize: true,
            sparsifier: Sparsifier::TopK { k: 1 },
            error_feedback: true,
        };
        let out = compress_update(&v, &cfg);
        assert_eq!(out.frame.len(), wire::encoded_dense_len(64));
        assert_eq!(bits(&out.decoded), bits(&v));
    }

    #[test]
    fn compression_is_deterministic() {
        let values: Vec<f64> = (0..128)
            .map(|i| if i % 7 == 0 { (i as f64).sin() } else { 0.0 })
            .collect();
        let v = DenseVector::from_vec(values);
        let cfg = CompressionConfig {
            switch: FrameSwitch::Adaptive,
            quantize: true,
            sparsifier: Sparsifier::TopK { k: 10 },
            error_feedback: true,
        };
        let a = compress_update(&v, &cfg);
        let b = compress_update(&v, &cfg);
        assert_eq!(a.frame, b.frame);
        assert_eq!(bits(&a.decoded), bits(&b.decoded));
    }
}
