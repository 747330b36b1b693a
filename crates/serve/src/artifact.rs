//! Versioned model artifacts over the shared mlstar codec.
//!
//! A [`ModelArtifact`] is the unit the registry stores and the scoring
//! engine loads: the trained weights plus a fingerprint of the dataset the
//! model was trained against and the run's [`TrainProvenance`]. The frame
//! envelope (magic, version, length, XXH64 checksum) and the payload
//! reader/writer come from `mlstar-codec` — the same codec behind training
//! checkpoints — so every durable mlstar file fails loudly in the same
//! ways.
//!
//! The payload layout is the `artifact` field list at the bottom of this
//! file: the provenance (its final objective as a flag byte plus an
//! always-written `f64`), the fingerprint, then the weights behind their
//! count. Version 2 added `host_threads` to the provenance section;
//! version 3 keeps that payload and checksums it with XXH64 instead of
//! FNV-1a. Files of an older version are refused with
//! [`ServeError::VersionMismatch`] rather than decoded with a guessed
//! thread count or reported as corrupt.

use mlstar_codec::{decode_frame, schema, Reader, Writer};
use mlstar_core::{TrainConfig, TrainOutput, TrainProvenance};
use mlstar_data::{fingerprint_codec, SparseDataset};
use mlstar_glm::GlmModel;
use mlstar_linalg::DenseVector;

use crate::ServeError;

pub use mlstar_data::DatasetFingerprint;

/// `"MLSA"` — the artifact file magic.
pub const ARTIFACT_MAGIC: u32 = 0x4D4C_5341;

/// The codec version this module writes and reads.
pub const CODEC_VERSION: u32 = 3;

/// A versioned, self-describing trained-model artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    weights: DenseVector,
    fingerprint: DatasetFingerprint,
    provenance: TrainProvenance,
}

impl ModelArtifact {
    /// Wraps trained weights with their provenance and dataset
    /// fingerprint. Rejects zero-dimensional models — they cannot score
    /// anything and the codec refuses to move them.
    pub fn new(
        model: &GlmModel,
        fingerprint: DatasetFingerprint,
        provenance: TrainProvenance,
    ) -> Result<ModelArtifact, ServeError> {
        if model.dim() == 0 {
            return Err(ServeError::EmptyModel);
        }
        Ok(ModelArtifact {
            weights: model.weights().clone(),
            fingerprint,
            provenance,
        })
    }

    /// Exports a finished training run: extracts provenance from the
    /// output/config pair and fingerprints the training dataset.
    pub fn from_run(
        system: mlstar_core::System,
        cfg: &TrainConfig,
        out: &TrainOutput,
        ds: &SparseDataset,
    ) -> Result<ModelArtifact, ServeError> {
        ModelArtifact::new(
            &out.model,
            DatasetFingerprint::of(ds),
            out.provenance(system, cfg),
        )
    }

    /// The model's feature dimension.
    pub fn dim(&self) -> usize {
        self.weights.dim()
    }

    /// The trained weights.
    pub fn weights(&self) -> &DenseVector {
        &self.weights
    }

    /// An in-memory model ready to score.
    pub fn model(&self) -> GlmModel {
        GlmModel::from_weights(self.weights.clone())
    }

    /// The training dataset's fingerprint.
    pub fn fingerprint(&self) -> &DatasetFingerprint {
        &self.fingerprint
    }

    /// The training run's provenance.
    pub fn provenance(&self) -> &TrainProvenance {
        &self.provenance
    }

    /// Encodes the artifact into its binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::for_frame_with_capacity(96 + self.weights.dim() * 8);
        artifact::put(&mut w, self, ());
        w.into_frame(ARTIFACT_MAGIC, CODEC_VERSION)
    }

    /// Decodes an artifact, verifying magic, codec version, length, and
    /// checksum before touching the payload.
    pub fn decode(bytes: &[u8]) -> Result<ModelArtifact, ServeError> {
        let payload = decode_frame(bytes, ARTIFACT_MAGIC, CODEC_VERSION)?;
        let mut r = Reader::new(payload);
        let artifact = artifact::get(&mut r)?;
        if artifact.dim() == 0 {
            return Err(ServeError::EmptyModel);
        }
        r.finish()?;
        Ok(artifact)
    }
}

schema! {
    record artifact: ModelArtifact {
        provenance: provenance,
        fingerprint: fingerprint_codec,
        weights: weights,
    }
}
schema! {
    record provenance: TrainProvenance {
        system: str16,
        seed: u64,
        rounds_run: u64,
        total_updates: u64,
        converged: bool,
        final_objective: fixed_option(f64),
        host_threads: usize,
    }
}
schema! { map weights: DenseVector { f64s, |v| v.as_slice(), |x| Ok(DenseVector::from_vec(x)) } }

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_codec::{encode_frame, HEADER_LEN};

    fn provenance() -> TrainProvenance {
        TrainProvenance {
            system: "MLlib*".into(),
            seed: 42,
            rounds_run: 7,
            total_updates: 1234,
            converged: true,
            final_objective: Some(0.25),
            host_threads: 8,
        }
    }

    fn artifact() -> ModelArtifact {
        let model = GlmModel::from_weights(DenseVector::from_vec(vec![1.5, -2.25, 0.0, 1e-300]));
        let fp = DatasetFingerprint {
            features: 4,
            instances: 99,
            content_hash: 0xDEAD_BEEF,
        };
        ModelArtifact::new(&model, fp, provenance()).unwrap()
    }

    #[test]
    fn roundtrip_is_exact() {
        let a = artifact();
        let back = ModelArtifact::decode(&a.encode()).unwrap();
        assert_eq!(a, back);
        assert_eq!(back.weights().as_slice(), &[1.5, -2.25, 0.0, 1e-300]);
        assert_eq!(back.provenance().system, "MLlib*");
        assert_eq!(back.provenance().final_objective, Some(0.25));
        assert_eq!(back.provenance().host_threads, 8);
        assert_eq!(back.fingerprint().content_hash, 0xDEAD_BEEF);
    }

    #[test]
    fn roundtrip_without_objective() {
        let model = GlmModel::from_weights(DenseVector::from_vec(vec![1.0]));
        let fp = DatasetFingerprint {
            features: 1,
            instances: 1,
            content_hash: 0,
        };
        let a = ModelArtifact::new(
            &model,
            fp,
            TrainProvenance {
                final_objective: None,
                converged: false,
                ..provenance()
            },
        )
        .unwrap();
        let back = ModelArtifact::decode(&a.encode()).unwrap();
        assert_eq!(back.provenance().final_objective, None);
        assert!(!back.provenance().converged);
    }

    #[test]
    fn zero_dim_model_is_rejected_at_construction() {
        let fp = DatasetFingerprint {
            features: 0,
            instances: 0,
            content_hash: 0,
        };
        let err = ModelArtifact::new(&GlmModel::zeros(0), fp, provenance()).unwrap_err();
        assert!(matches!(err, ServeError::EmptyModel));
    }

    #[test]
    fn zero_dim_model_is_rejected_at_decode() {
        // Hand-craft a frame whose payload declares dim = 0 but is
        // otherwise valid (correct checksum), to pin the decode-side guard.
        let a = artifact();
        let encoded = a.encode();
        let payload = &encoded[HEADER_LEN..];
        // dim field sits 8 bytes before the first weight; rebuild the
        // payload truncated to the dim field and zero it.
        let weights_bytes = a.dim() * 8;
        let mut p = payload[..payload.len() - weights_bytes].to_vec();
        let n = p.len();
        p[n - 8..].copy_from_slice(&0u64.to_le_bytes());
        let frame = encode_frame(ARTIFACT_MAGIC, CODEC_VERSION, &p);
        assert!(matches!(
            ModelArtifact::decode(&frame),
            Err(ServeError::EmptyModel)
        ));
    }

    #[test]
    fn truncated_file_errors() {
        let encoded = artifact().encode();
        // Below the header length.
        assert!(matches!(
            ModelArtifact::decode(&encoded[..10]),
            Err(ServeError::Truncated { .. })
        ));
        // Header intact, payload short.
        assert!(matches!(
            ModelArtifact::decode(&encoded[..encoded.len() - 5]),
            Err(ServeError::Truncated { .. })
        ));
        // Trailing junk is also a length violation, not silently ignored.
        let mut long = encoded.clone();
        long.push(0);
        assert!(matches!(
            ModelArtifact::decode(&long),
            Err(ServeError::Truncated { .. })
        ));
    }

    #[test]
    fn checksum_flip_is_detected() {
        let mut encoded = artifact().encode();
        // Flip one bit in the middle of the weights.
        let idx = encoded.len() - 9;
        encoded[idx] ^= 0x10;
        assert!(matches!(
            ModelArtifact::decode(&encoded),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_is_detected() {
        let mut encoded = artifact().encode();
        encoded[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ModelArtifact::decode(&encoded),
            Err(ServeError::VersionMismatch {
                found: 99,
                supported: CODEC_VERSION
            })
        ));
    }

    #[test]
    fn version_one_files_are_refused_not_misread() {
        // A v1 frame lacks the host_threads field; decoding it under the
        // v2 layout would shift every later field by eight bytes. The
        // version gate must reject it before any field is read.
        let mut encoded = artifact().encode();
        encoded[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            ModelArtifact::decode(&encoded),
            Err(ServeError::VersionMismatch {
                found: 1,
                supported: CODEC_VERSION
            })
        ));
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut encoded = artifact().encode();
        encoded[0] ^= 0xFF;
        assert!(matches!(
            ModelArtifact::decode(&encoded),
            Err(ServeError::BadMagic(_))
        ));
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        use mlstar_linalg::SparseVector;
        let mut a = SparseDataset::empty(4);
        a.push(SparseVector::from_pairs(4, &[(0, 1.0)]).unwrap(), 1.0);
        let mut b = a.clone();
        let fa = DatasetFingerprint::of(&a);
        assert_eq!(fa, DatasetFingerprint::of(&b), "same content, same print");
        b.push(SparseVector::from_pairs(4, &[(1, 2.0)]).unwrap(), -1.0);
        let fb = DatasetFingerprint::of(&b);
        assert_ne!(fa.content_hash, fb.content_hash);
        assert_eq!(fb.instances, 2);
        // A value change alone flips the hash.
        let mut c = SparseDataset::empty(4);
        c.push(
            SparseVector::from_pairs(4, &[(0, 1.0 + 1e-12)]).unwrap(),
            1.0,
        );
        assert_ne!(fa.content_hash, DatasetFingerprint::of(&c).content_hash);
    }
}
