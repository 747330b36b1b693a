//! Property and KAT tests on the `net::protocol` frame codec ("MLSN"),
//! mirroring `tests/codec_properties.rs` for the newest wire format: a
//! full Hello/Assign/Ops/OpDone/Shutdown exchange round-trips exactly,
//! every truncation point is detected, and any single flipped bit is
//! refused by the FNV-1a frame check.

use mllib_star::codec::{encode_frame, CodecError, HEADER_LEN};
use mllib_star::collectives::FrameSwitch;
use mllib_star::core::{OpResult, WorkerOp};
use mllib_star::glm::{LearningRate, Loss, Regularizer};
use mllib_star::linalg::{DenseVector, SparseVector};
use mllib_star::net::{decode_msg, encode_msg, AssignedRow, Msg, NetError, NET_MAGIC, NET_VERSION};
use proptest::prelude::*;

fn sparse_row(seed: u64, dim: usize) -> SparseVector {
    let nnz = (seed as usize % dim.max(1)).min(8);
    let pairs: Vec<(u32, f64)> = (0..nnz)
        .map(|i| {
            let idx = ((seed >> (i % 8)) as usize + i * 3) % dim;
            (idx as u32, f64::from_bits(seed.rotate_left(i as u32) | 1))
        })
        .collect();
    let mut sorted: Vec<(u32, f64)> = Vec::new();
    for (i, v) in pairs {
        if sorted.iter().all(|&(j, _)| j != i) {
            sorted.push((i, v));
        }
    }
    sorted.sort_by_key(|&(i, _)| i);
    SparseVector::from_pairs(dim, &sorted).expect("valid sparse row")
}

/// The frame switch explored for a given seed (both model-payload
/// encodings must satisfy every property).
fn switch_for(seed: u64) -> FrameSwitch {
    if seed.is_multiple_of(2) {
        FrameSwitch::Dense
    } else {
        FrameSwitch::Adaptive
    }
}

/// One message of every variant, parameterized so proptest explores the
/// field space.
fn exchange(seed: u64, dim: usize) -> Vec<Msg> {
    let w = DenseVector::from_vec(
        (0..dim)
            .map(|i| f64::from_bits(seed.wrapping_add(i as u64).wrapping_mul(0x9E37)))
            .collect(),
    );
    vec![
        Msg::Hello {
            worker: seed as u32,
        },
        Msg::Assign {
            worker: seed as u32,
            dim: dim as u32,
            loss: match seed % 3 {
                0 => Loss::Hinge,
                1 => Loss::Logistic,
                _ => Loss::Squared,
            },
            reg: match seed % 3 {
                0 => Regularizer::None,
                1 => Regularizer::L2 { lambda: 0.125 },
                _ => Regularizer::L1 { lambda: 0.25 },
            },
            lr: match seed % 3 {
                0 => LearningRate::Constant(0.5),
                1 => LearningRate::InvSqrt(1.0),
                _ => LearningRate::InvT {
                    eta0: 1.0,
                    decay: 0.01,
                },
            },
            switch: switch_for(seed),
            rows: (0..(seed % 4))
                .map(|i| AssignedRow {
                    global: i as u32,
                    label: if i % 2 == 0 { 1.0 } else { -1.0 },
                    row: sparse_row(seed.wrapping_add(i), dim),
                })
                .collect(),
        },
        Msg::Ops {
            batch: seed,
            ops: vec![
                WorkerOp::SgdPass {
                    w: w.clone(),
                    order: (0..(seed % 5) as u32).collect(),
                    t0: seed,
                },
                WorkerOp::BatchGrad {
                    w: w.clone(),
                    batch: vec![0, 2, 1],
                },
                WorkerOp::MgdStep {
                    w: w.clone(),
                    batch: vec![1],
                    eta: 0.5,
                },
                WorkerOp::PartitionObjective { w: w.clone() },
            ],
        },
        Msg::OpDone {
            batch: seed,
            compute_nanos: seed.rotate_left(17),
            results: vec![
                OpResult::Model {
                    w: w.clone(),
                    t: seed.wrapping_add(3),
                },
                OpResult::Grad(w),
                OpResult::Value(f64::from_bits(seed | 1)),
            ],
        },
        Msg::Shutdown,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every message of the exchange survives its frame bit for bit,
    /// including adversarial f64 payloads.
    #[test]
    fn exchange_roundtrip_is_exact(seed in 0u64..10_000, dim in 1usize..24) {
        for msg in exchange(seed, dim) {
            let frame = encode_msg(&msg, switch_for(seed));
            let back = decode_msg(&frame).expect("decode own frame");
            prop_assert_eq!(back, msg);
        }
    }

    /// Cutting any frame of the exchange anywhere is refused — never
    /// misparsed into a different message.
    #[test]
    fn every_truncation_point_is_detected(seed in 0u64..10_000, cut in 0usize..4096) {
        for msg in exchange(seed, 6) {
            let frame = encode_msg(&msg, switch_for(seed));
            let cut = cut % frame.len();
            prop_assert!(
                decode_msg(&frame[..cut]).is_err(),
                "truncation at {cut}/{} decoded", frame.len()
            );
        }
    }

    /// Any single flipped bit anywhere in any frame of the exchange is
    /// refused (FNV-1a catches payload flips; header flips break
    /// magic/version/length checks).
    #[test]
    fn every_single_bit_flip_is_refused(
        seed in 0u64..10_000,
        pos in 0usize..4096,
        bit in 0u32..8,
    ) {
        for msg in exchange(seed, 5) {
            let mut frame = encode_msg(&msg, switch_for(seed));
            let pos = pos % frame.len();
            frame[pos] ^= 1 << bit;
            prop_assert!(
                decode_msg(&frame).is_err(),
                "bit {bit} at {pos}/{} still decoded", frame.len()
            );
        }
    }
}

/// KAT: the Hello frame layout is pinned byte for byte. Any change to
/// the envelope (magic, version, length, FNV-1a) or the Hello payload
/// encoding is a wire-format break and must be versioned, not slipped in.
#[test]
fn hello_frame_bytes_are_pinned() {
    let frame = encode_msg(&Msg::Hello { worker: 7 }, FrameSwitch::Dense);
    assert_eq!(&frame[0..4], &NET_MAGIC.to_le_bytes());
    // tag MSG_HELLO=1 (u8) + worker (u32 LE) = 5 payload bytes.
    let expected_payload = [1u8, 7, 0, 0, 0];
    assert_eq!(&frame[frame.len() - 5..], &expected_payload);
    assert_eq!(
        decode_msg(&frame).expect("pinned frame decodes"),
        Msg::Hello { worker: 7 }
    );
    // The whole frame, pinned: header (magic, version, payload_len,
    // fnv1a of payload) + payload.
    let mut expected = Vec::new();
    expected.extend_from_slice(&NET_MAGIC.to_le_bytes());
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.extend_from_slice(&5u64.to_le_bytes());
    expected.extend_from_slice(&fnv1a(&expected_payload).to_le_bytes());
    expected.extend_from_slice(&expected_payload);
    assert_eq!(frame, expected, "MLSN frame layout drifted");
}

/// Shutdown is the smallest frame: tag byte only.
#[test]
fn shutdown_frame_is_one_tag_byte() {
    let frame = encode_msg(&Msg::Shutdown, FrameSwitch::Dense);
    let payload_len = u64::from_le_bytes(frame[8..16].try_into().expect("8 bytes"));
    assert_eq!(payload_len, 1);
    assert_eq!(decode_msg(&frame).expect("shutdown decodes"), Msg::Shutdown);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// KAT: an `Ops{BatchGrad}` / `OpDone{Grad}` pair, whole frames, under
/// both switch values — the model blob (length prefix + wire frame, dense
/// or sparse) and the index array are pinned byte for byte.
#[test]
fn ops_and_op_done_frames_are_pinned_under_both_switches() {
    let mut w = DenseVector::zeros(6);
    w.set(1, -0.0);
    w.set(4, 2.5);
    let ops = Msg::Ops {
        batch: 3,
        ops: vec![WorkerOp::BatchGrad {
            w: w.clone(),
            batch: vec![7, 0, 65536],
        }],
    };
    let done = Msg::OpDone {
        batch: 3,
        compute_nanos: 1_000_001,
        results: vec![OpResult::Grad(w)],
    };
    assert_eq!(
        hex(&encode_msg(&ops, FrameSwitch::Dense)),
        "4e534c4d010000006e000000000000002e16d8f6b7bd2260\
         03030000000000000001000000000000000440000000000000002a534c4d0100\
         0000060000000000000000000000000000000000000000000080000000000000\
         0000000000000000000000000000000004400000000000000000030000000000\
         0000070000000000000000000100"
    );
    assert_eq!(
        hex(&encode_msg(&done, FrameSwitch::Dense)),
        "4e534c4d010000006200000000000000e6bdafff93e59051\
         04030000000000000041420f0000000000010000000000000002400000000000\
         00002a534c4d0100000006000000000000000000000000000000000000000000\
         0080000000000000000000000000000000000000000000000440000000000000\
         0000"
    );
    assert_eq!(
        hex(&encode_msg(&ops, FrameSwitch::Adaptive)),
        "4e534c4d01000000560000000000000082212cac149d0ad8\
         03030000000000000001000000000000000428000000000000002a534c4d0200\
         0000060000000200000001000000040000000000000000000080000000000000\
         04400300000000000000070000000000000000000100"
    );
    assert_eq!(
        hex(&encode_msg(&done, FrameSwitch::Adaptive)),
        "4e534c4d010000004a000000000000007abc005c29ac7c2b\
         04030000000000000041420f0000000000010000000000000002280000000000\
         00002a534c4d0200000006000000020000000100000004000000000000000000\
         00800000000000000440"
    );
    for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
        for msg in [&ops, &done] {
            assert_eq!(&decode_msg(&encode_msg(msg, switch)).expect("decodes"), msg);
        }
    }
}

/// A checksum-valid frame whose element count was crafted to promise far
/// more than the payload holds is refused with a typed error — for every
/// count the protocol reads (`Assign` rows, `Ops`, `OpDone`, an index
/// array) — instead of sizing an allocation from it.
#[test]
fn crafted_counts_are_refused_not_allocated() {
    let empty_lists = [
        Msg::Assign {
            worker: 0,
            dim: 1,
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.5),
            switch: FrameSwitch::Dense,
            rows: vec![],
        },
        Msg::Ops {
            batch: 0,
            ops: vec![],
        },
        Msg::OpDone {
            batch: 0,
            compute_nanos: 0,
            results: vec![],
        },
        Msg::Ops {
            batch: 0,
            ops: vec![WorkerOp::BatchGrad {
                w: DenseVector::zeros(1),
                batch: vec![],
            }],
        },
    ];
    for msg in &empty_lists {
        // With its list empty, each message ends in that list's count.
        let frame = encode_msg(msg, FrameSwitch::Dense);
        let mut payload = frame[HEADER_LEN..].to_vec();
        let count_at = payload.len() - 8;
        assert_eq!(payload[count_at..], [0; 8]);
        for count in [3, u64::MAX / 2, u64::MAX] {
            payload[count_at..].copy_from_slice(&count.to_le_bytes());
            let crafted = encode_frame(NET_MAGIC, NET_VERSION, &payload);
            let err = decode_msg(&crafted).expect_err("count exceeds the payload");
            assert!(
                matches!(
                    err,
                    NetError::Protocol(_) | NetError::Codec(CodecError::Corrupt(_))
                ),
                "count {count} in {msg:?}: {err}"
            );
        }
    }
}

/// A checksum-valid `Assign` whose row is wider than the assigned
/// dimension is refused with a typed error at decode. Accepted, its index
/// 3 would overrun the worker's 2-dimensional model and panic the worker
/// thread instead of failing the session.
#[test]
fn assign_row_of_the_wrong_dimension_is_refused() {
    let assign = Msg::Assign {
        worker: 0,
        dim: 2,
        loss: Loss::Logistic,
        reg: Regularizer::None,
        lr: LearningRate::Constant(0.5),
        switch: FrameSwitch::Dense,
        rows: vec![AssignedRow {
            global: 0,
            label: 1.0,
            row: SparseVector::from_pairs(4, &[(3, 1.0)]).unwrap(),
        }],
    };
    let err = decode_msg(&encode_msg(&assign, FrameSwitch::Dense)).unwrap_err();
    assert!(matches!(err, NetError::Protocol(_)), "{err}");
}

/// Published-vector FNV-1a (64-bit), reimplemented independently of
/// `mlstar-codec` so the KAT does not assume the code under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
