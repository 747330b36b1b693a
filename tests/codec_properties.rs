//! Property tests on the shared binary codec (`mlstar-codec`) and the
//! file formats built on it.
//!
//! The durable formats — model artifacts and training checkpoints — all
//! ride the same frame, so the properties are proved
//! once at the codec layer: any payload round-trips exactly, any
//! truncation point is detected, and any single flipped bit is refused
//! (the XXH64 checksum catches a payload flip; a header flip breaks the
//! magic, version, length or stored-checksum check). A final property
//! checks the artifact layer end to end with adversarial weight bit
//! patterns, and the known-answer test at the end pins the MLSA artifact
//! layout byte for byte.

use mllib_star::codec::{decode_frame, encode_frame, CodecError, Reader, Writer, HEADER_LEN};
use mllib_star::core::TrainProvenance;
use mllib_star::glm::GlmModel;
use mllib_star::linalg::DenseVector;
use mllib_star::serve::{
    DatasetFingerprint, ModelArtifact, ServeError, ARTIFACT_MAGIC, CODEC_VERSION,
};
use proptest::prelude::*;

const MAGIC: u32 = 0x4D4C_5399; // tests-only magic
const VERSION: u32 = 1;

/// Deterministic pseudo-random bytes (splitmix-style), independent of the
/// codec under test.
fn bytes_from_seed(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every payload survives the frame untouched.
    #[test]
    fn frame_roundtrip_is_exact(seed in 0u64..10_000, len in 0usize..512) {
        let payload = bytes_from_seed(seed, len);
        let frame = encode_frame(MAGIC, VERSION, &payload);
        prop_assert_eq!(frame.len(), HEADER_LEN + len);
        let back = decode_frame(&frame, MAGIC, VERSION).unwrap();
        prop_assert_eq!(back, &payload[..]);
    }

    /// Cutting a frame anywhere — header or payload — is always refused
    /// as truncation, never misparsed.
    #[test]
    fn every_truncation_point_is_detected(seed in 0u64..10_000, len in 0usize..256, cut in 0usize..1000) {
        let frame = encode_frame(MAGIC, VERSION, &bytes_from_seed(seed, len));
        let cut = cut % frame.len();
        let truncated = matches!(
            decode_frame(&frame[..cut], MAGIC, VERSION),
            Err(CodecError::Truncated { .. })
        );
        prop_assert!(truncated);
    }

    /// Any single flipped bit anywhere in the frame is refused. The exact
    /// variant depends on where the flip lands (magic, version, length,
    /// checksum, payload) — what matters is that nothing decodes.
    #[test]
    fn every_single_bit_flip_is_refused(
        seed in 0u64..10_000,
        len in 0usize..256,
        pos in 0usize..1000,
        bit in 0u32..8,
    ) {
        let mut frame = encode_frame(MAGIC, VERSION, &bytes_from_seed(seed, len));
        let pos = pos % frame.len();
        frame[pos] ^= 1 << bit;
        prop_assert!(decode_frame(&frame, MAGIC, VERSION).is_err());
    }

    /// Writer → Reader preserves every field kind bit for bit, including
    /// arbitrary `f64` bit patterns (negative zero, subnormals, NaNs), and
    /// the slice primitives write exactly what the per-element ones do.
    #[test]
    fn field_sequence_roundtrip(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        str_len in 0usize..40,
        blob_len in 0usize..128,
        seed in 0u64..10_000,
    ) {
        let s: String = bytes_from_seed(seed, str_len)
            .into_iter()
            .map(|x| char::from(b'a' + x % 26))
            .collect();
        let blob = bytes_from_seed(seed.wrapping_add(1), blob_len);
        let mut w = Writer::new();
        w.put_u8(a as u8);
        w.put_u16(a as u16);
        w.put_u32(a as u32);
        w.put_u64(a);
        w.put_f64(f64::from_bits(b));
        w.put_str16(&s);
        w.put_blob64(&blob);
        let f64s = [f64::from_bits(b), -0.0, f64::from_bits(a)];
        let u32s = [a as u32, 0, b as u32, u32::MAX];
        w.put_f64s(&f64s);
        w.put_u32s(&u32s);
        let by_slice = w.len();
        f64s.iter().for_each(|&x| w.put_f64(x));
        u32s.iter().for_each(|&x| w.put_u32(x));
        w.put_blob64_with(|w| w.put_bytes(&blob));
        let payload = w.into_payload();
        let arrays = 3 * 8 + 4 * 4;
        prop_assert_eq!(
            &payload[by_slice - arrays..by_slice],
            &payload[by_slice..by_slice + arrays]
        );

        let mut r = Reader::new(&payload);
        prop_assert_eq!(r.u8().unwrap(), a as u8);
        prop_assert_eq!(r.u16().unwrap(), a as u16);
        prop_assert_eq!(r.u32().unwrap(), a as u32);
        prop_assert_eq!(r.u64().unwrap(), a);
        prop_assert_eq!(r.f64().unwrap().to_bits(), b);
        prop_assert_eq!(r.str16().unwrap(), s);
        prop_assert_eq!(r.blob64().unwrap(), &blob[..]);
        for _ in 0..2 {
            let got: Vec<u64> = r.f64s(3).unwrap().iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = f64s.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(r.u32s(4).unwrap(), u32s);
        }
        prop_assert_eq!(r.blob64().unwrap(), &blob[..]);
        r.finish().unwrap();
    }

    /// An array count larger than what is left of the payload — by one
    /// element or by an overflowing product — is `Corrupt` before anything
    /// is allocated, and consumes nothing.
    #[test]
    fn oversized_array_counts_are_corrupt(len in 0usize..64, seed in 0u64..10_000) {
        let payload = bytes_from_seed(seed, len);
        for n in [len / 8 + 1, usize::MAX / 8, usize::MAX / 2, usize::MAX] {
            let mut r = Reader::new(&payload);
            prop_assert!(matches!(r.f64s(n), Err(CodecError::Corrupt(_))));
            prop_assert_eq!(r.remaining(), len);
        }
        for n in [len / 4 + 1, usize::MAX / 4, usize::MAX / 2, usize::MAX] {
            let mut r = Reader::new(&payload);
            prop_assert!(matches!(r.u32s(n), Err(CodecError::Corrupt(_))));
            prop_assert_eq!(r.remaining(), len);
        }
        let mut r = Reader::new(&payload);
        prop_assert_eq!(r.f64s(len / 8).unwrap().len(), len / 8);
    }

    /// The artifact codec end to end: adversarial weight bit patterns
    /// (generated from raw u64s, so NaNs and subnormals appear) survive
    /// encode/decode exactly, and a flipped bit in the body is caught.
    #[test]
    fn artifact_roundtrip_with_adversarial_weights(
        dim in 1usize..48,
        seed in 0u64..10_000,
        flip in 0usize..1000,
    ) {
        let raw = bytes_from_seed(seed, dim * 8);
        let weights: Vec<f64> = raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect();
        let artifact = ModelArtifact::new(
            &GlmModel::from_weights(DenseVector::from_vec(weights.clone())),
            DatasetFingerprint { features: dim, instances: 9, content_hash: seed },
            TrainProvenance {
                system: "MLlib*".into(),
                seed,
                rounds_run: 3,
                total_updates: 99,
                converged: false,
                final_objective: None,
                host_threads: 2,
            },
        )
        .unwrap();
        let mut encoded = artifact.encode();
        let back = ModelArtifact::decode(&encoded).unwrap();
        for (x, y) in weights.iter().zip(back.weights().as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let pos = HEADER_LEN + flip % (encoded.len() - HEADER_LEN);
        encoded[pos] ^= 0x20;
        prop_assert!(ModelArtifact::decode(&encoded).is_err());

        // A checksum-valid artifact whose weight count was crafted to
        // promise more than the payload holds is refused, not allocated.
        let encoded = artifact.encode();
        let mut payload = decode_frame(&encoded, ARTIFACT_MAGIC, CODEC_VERSION).unwrap().to_vec();
        let dim_at = payload.len() - dim * 8 - 8;
        for crafted in [dim as u64 + 1, u64::MAX / 2, u64::MAX] {
            payload[dim_at..dim_at + 8].copy_from_slice(&crafted.to_le_bytes());
            let frame = encode_frame(ARTIFACT_MAGIC, CODEC_VERSION, &payload);
            prop_assert!(ModelArtifact::decode(&frame).is_err());
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Pins a frame as hex with its envelope header apart from the payload
/// bytes, so an envelope change (version, checksum) moves only `header`.
#[track_caller]
fn assert_pinned(frame: &[u8], header: &str, payload: &str) {
    assert_eq!(hex(&frame[..HEADER_LEN]), header, "envelope header");
    assert_eq!(hex(&frame[HEADER_LEN..]), payload, "payload");
}

fn artifact(weights: Vec<f64>, final_objective: Option<f64>) -> ModelArtifact {
    let dim = weights.len();
    ModelArtifact::new(
        &GlmModel::from_weights(DenseVector::from_vec(weights)),
        DatasetFingerprint {
            features: dim,
            instances: 10,
            content_hash: 0xABCD,
        },
        TrainProvenance {
            system: "MLlib*".into(),
            seed: 42,
            rounds_run: 7,
            total_updates: 99,
            converged: final_objective.is_some(),
            final_objective,
            host_threads: 2,
        },
    )
    .unwrap()
}

/// KAT: the MLSA artifact layout, whole frames, once with a final
/// objective and once without. The absent objective is a zero flag byte
/// followed by an always-written `f64`, so both frames have one length.
#[test]
fn artifact_frames_are_pinned() {
    let cases = [
        (
            Some(0.5),
            "41534c4d030000006a00000000000000cc47be61de1bd5b7",
            "06004d4c6c69622a2a0000000000000007000000000000006300000000000000\
             0101000000000000e03f020000000000000003000000000000000a0000000000\
             0000cdab0000000000000300000000000000000000000000f83f000000000000\
             0080000000000000d03f",
        ),
        (
            None,
            "41534c4d030000006a0000000000000005619afcfdaad17b",
            "06004d4c6c69622a2a0000000000000007000000000000006300000000000000\
             00000000000000000000020000000000000003000000000000000a0000000000\
             0000cdab0000000000000300000000000000000000000000f83f000000000000\
             0080000000000000d03f",
        ),
    ];
    for (objective, header, payload) in cases {
        let a = artifact(vec![1.5, -0.0, 0.25], objective);
        let bytes = a.encode();
        assert_pinned(&bytes, header, payload);
        assert_eq!(ModelArtifact::decode(&bytes).unwrap(), a);
    }
}

/// The artifact (codec version 2) the golden above pinned before the
/// checksum changed from FNV-1a to XXH64 is refused by its version, never
/// reported as corrupt.
#[test]
fn previous_version_frames_are_refused_by_version() {
    let artifact_v2 = unhex(
        "41534c4d020000006a00000000000000d4eeeb85d3b18273\
         06004d4c6c69622a2a0000000000000007000000000000006300000000000000\
         0101000000000000e03f020000000000000003000000000000000a0000000000\
         0000cdab0000000000000300000000000000000000000000f83f000000000000\
         0080000000000000d03f",
    );
    let err = ModelArtifact::decode(&artifact_v2).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::VersionMismatch {
                found: 2,
                supported: 3
            }
        ),
        "{err}"
    );
}
