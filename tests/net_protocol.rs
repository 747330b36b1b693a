//! Property and KAT tests on the `net::protocol` frame codec ("MLSN"),
//! mirroring `tests/codec_properties.rs` for the newest wire format: a
//! full Hello/Assign/Rows/Ops/OpDone/Shutdown exchange round-trips
//! exactly, every truncation point is detected, and any single flipped
//! bit is refused by the XXH64 frame check. The session tests drive a
//! linked worker ([`serve_worker`]) through a scripted link and check
//! that it refuses every assignment sequence no orchestrator sends.

use std::collections::VecDeque;

use mllib_star::codec::{encode_frame, fnv1a, CodecError, HEADER_LEN};
use mllib_star::collectives::{wire, FrameSwitch};
use mllib_star::core::{OpResult, WorkerOp};
use mllib_star::glm::{LearningRate, Loss, Regularizer};
use mllib_star::linalg::{DenseVector, SparseVector};
use mllib_star::net::{
    decode_msg, encode_msg, encode_msg_into, row_frames, serve_worker, AssignedRow, Msg, NetError,
    Transport, NET_MAGIC, NET_VERSION, ROW_FRAME_BUDGET,
};
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
            rows: (seed % 4) as u32,
        },
        Msg::Rows {
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
    /// refused (XXH64 catches payload flips; header flips break
    /// magic/version/length/checksum checks).
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

/// A link end encodes every message into the one buffer it keeps:
/// whatever the buffer last held — nothing, a larger frame, a smaller one
/// — the frame is `encode_msg`'s, byte for byte, for every message kind
/// under both switches.
#[test]
fn encoding_into_a_kept_buffer_gives_encode_msgs_bytes() {
    for seed in 0..6u64 {
        let mut kept = Vec::new();
        for dim in [40, 3, 17] {
            for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
                for msg in exchange(seed, dim) {
                    let frame = encode_msg(&msg, switch);
                    let held = kept.capacity();
                    encode_msg_into(&msg, switch, &mut kept);
                    assert_eq!(kept, frame, "seed {seed} dim {dim} {switch:?}: {msg:?}");
                    assert_eq!(kept.capacity(), held.max(frame.len()));
                }
            }
        }
    }
}

/// The frame buffer a link end keeps holds its frame, not twice it. A
/// kddb-like `BatchGrad` frame (29 890 coordinates, 96 batch rows) is
/// 239 578 bytes, in a buffer of exactly that size, fresh or reused; a
/// smaller frame after it keeps that buffer.
#[test]
fn a_kept_frame_buffer_is_sized_to_its_largest_frame() {
    let ops = |rows: u32| Msg::Ops {
        batch: 7,
        ops: vec![WorkerOp::BatchGrad {
            w: DenseVector::filled(29_890, 0.5),
            batch: (0..rows).collect(),
        }],
    };
    for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
        let frame = encode_msg(&ops(96), switch);
        assert_eq!((frame.len(), frame.capacity()), (239_578, 239_578));
        let mut kept = encode_msg(&Msg::Hello { worker: 0 }, switch);
        encode_msg_into(&ops(96), switch, &mut kept);
        assert_eq!((kept.len(), kept.capacity()), (239_578, 239_578));
        let at = kept.as_ptr();
        encode_msg_into(&ops(10), switch, &mut kept);
        assert_eq!(kept, encode_msg(&ops(10), switch));
        assert_eq!((kept.as_ptr(), kept.capacity()), (at, 239_578));
    }
}

/// KAT: the Hello frame layout is pinned byte for byte. Any change to
/// the envelope (magic, version, length, XXH64 checksum) or the Hello
/// payload encoding is a wire-format break and must be versioned, not
/// slipped in: version 2 is version 1 with XXH64 in place of FNV-1a, and
/// version 3 streams the assignment, so both times only the header
/// literal moved.
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
    // checksum of payload), then the payload.
    assert_pinned(
        &frame,
        "4e534c4d030000000500000000000000ccc2641b4fb5109c",
        "0107000000",
    );
}

/// The Hello frame version 1 wrote (an FNV-1a checksum), as pinned
/// before the checksum changed, is refused by its version — a typed
/// mismatch a peer can report, not a checksum failure.
#[test]
fn version_1_frames_are_refused_by_version() {
    let v1_hello = unhex("4e534c4d0100000005000000000000005bc2a651a6c012380107000000");
    let err = decode_msg(&v1_hello).unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Codec(CodecError::VersionMismatch {
                found: 1,
                supported: 3
            })
        ),
        "{err}"
    );
}

/// Version 2 sent a partition as one `Assign` frame. Its frames, as
/// pinned before the assignment was streamed — a Hello and a dense `Ops`
/// — are refused by their version, so a version-2 peer's whole-partition
/// `Assign` is never read as a version-3 header.
#[test]
fn version_2_frames_are_refused_by_version() {
    let v2_hello = unhex("4e534c4d020000000500000000000000ccc2641b4fb5109c0107000000");
    let v2_ops = unhex(
        "4e534c4d020000006e00000000000000da99ed761138154c\
         03030000000000000001000000000000000440000000000000002a534c4d0100\
         0000060000000000000000000000000000000000000000000080000000000000\
         0000000000000000000000000000000004400000000000000000030000000000\
         0000070000000000000000000100",
    );
    for frame in [v2_hello, v2_ops] {
        let err = decode_msg(&frame).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Codec(CodecError::VersionMismatch {
                    found: 2,
                    supported: 3
                })
            ),
            "{err}"
        );
    }
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

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// Pins a frame as hex, its 24-byte envelope header apart from its
/// payload, so an envelope change (version, checksum) moves only the
/// header literal and the payload literal proves the rest unchanged.
#[track_caller]
fn assert_pinned(frame: &[u8], header: &str, payload: &str) {
    assert_eq!(hex(&frame[..HEADER_LEN]), header, "envelope header");
    assert_eq!(hex(&frame[HEADER_LEN..]), payload, "payload");
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
    assert_pinned(
        &encode_msg(&ops, FrameSwitch::Dense),
        "4e534c4d030000006e00000000000000da99ed761138154c",
        "03030000000000000001000000000000000440000000000000002a534c4d0100\
         0000060000000000000000000000000000000000000000000080000000000000\
         0000000000000000000000000000000004400000000000000000030000000000\
         0000070000000000000000000100",
    );
    assert_pinned(
        &encode_msg(&done, FrameSwitch::Dense),
        "4e534c4d030000006200000000000000e40632754583aa68",
        "04030000000000000041420f0000000000010000000000000002400000000000\
         00002a534c4d0100000006000000000000000000000000000000000000000000\
         0080000000000000000000000000000000000000000000000440000000000000\
         0000",
    );
    assert_pinned(
        &encode_msg(&ops, FrameSwitch::Adaptive),
        "4e534c4d030000005600000000000000cb8213c9fa621cb2",
        "03030000000000000001000000000000000428000000000000002a534c4d0200\
         0000060000000200000001000000040000000000000000000080000000000000\
         04400300000000000000070000000000000000000100",
    );
    assert_pinned(
        &encode_msg(&done, FrameSwitch::Adaptive),
        "4e534c4d030000004a00000000000000c8ca38325b2b2e63",
        "04030000000000000041420f0000000000010000000000000002280000000000\
         00002a534c4d0200000006000000020000000100000004000000000000000000\
         00800000000000000440",
    );
    for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
        for msg in [&ops, &done] {
            assert_eq!(&decode_msg(&encode_msg(msg, switch)).expect("decodes"), msg);
        }
    }
}

/// KAT: an assignment — its `Assign` header under both switch values and
/// one `Rows` frame — pinned as envelope header hex plus payload hex (the
/// header) or payload length and FNV-1a (the rows). The rows cover an
/// empty row, a `-0.0` and a subnormal value, a large value and the
/// largest global index, so the row layout (global, label, sparse frame
/// blob) is pinned however the encoder reads its rows. Version 2 sent
/// the same fields as one frame: these rows' bytes are those of its row
/// list, now behind the `Rows` tag and a row count.
#[test]
fn assign_frame_bytes_are_pinned() {
    let row = |global: u32, label: f64, pairs: &[(u32, f64)]| AssignedRow {
        global,
        label,
        row: SparseVector::from_pairs(64, pairs).expect("valid sparse row"),
    };
    let rows = vec![
        row(0, 1.0, &[(0, 1.5), (3, -0.0), (63, f64::MIN_POSITIVE)]),
        row(65_536, -1.0, &[]),
        row(7, 0.5, &[(1, -2.25), (2, 1e300), (40, 3.0)]),
        row(u32::MAX, -1.0, &[(5, 4.0)]),
    ];
    let headers = [
        (
            FrameSwitch::Dense,
            "4e534c4d030000002900000000000000717df1f4de9d6d28",
            "02010000004000000001029a9999999999a93f02000000000000e03f7b14ae47\
             e17a843f0004000000",
        ),
        (
            FrameSwitch::Adaptive,
            "4e534c4d0300000029000000000000005ad140f97ac09167",
            "02010000004000000001029a9999999999a93f02000000000000e03f7b14ae47\
             e17a843f0104000000",
        ),
    ];
    for (switch, header, payload) in headers {
        let assign = Msg::Assign {
            worker: 1,
            dim: 64,
            loss: Loss::Logistic,
            reg: Regularizer::L1 { lambda: 0.05 },
            lr: LearningRate::InvT {
                eta0: 0.5,
                decay: 0.01,
            },
            switch,
            rows: 4,
        };
        let frame = encode_msg(&assign, switch);
        assert_pinned(&frame, header, payload);
        assert_eq!(decode_msg(&frame).expect("pinned frame decodes"), assign);
    }
    let frames: Vec<Vec<u8>> = row_frames(rows.clone()).collect();
    assert_eq!(frames.len(), 1);
    let payload = &frames[0][HEADER_LEN..];
    assert_eq!(
        hex(&frames[0][..HEADER_LEN]),
        "4e534c4d03000000ed00000000000000e0e9abe6eb4c943e",
        "Rows envelope header"
    );
    assert_eq!(
        (payload.len(), fnv1a(payload)),
        (237, 0xc6dd4c6fc1b16201),
        "Rows payload length and FNV-1a"
    );
    assert_eq!(
        decode_msg(&frames[0]).expect("pinned frame decodes"),
        Msg::Rows { rows }
    );
}

/// A checksum-valid frame whose element count was crafted to promise far
/// more than the payload holds is refused with a typed error — for every
/// count the protocol reads (`Rows`, `Ops`, `OpDone`, an index array) —
/// instead of sizing an allocation from it.
#[test]
fn crafted_counts_are_refused_not_allocated() {
    let empty_lists = [
        Msg::Rows { rows: vec![] },
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

/// `MgdStep` moved from op tag 5, whose result was the stepped model, to
/// tag 8, whose result is the step it took. A checksum-valid `Ops` frame
/// holding a tag-5 op, as a peer built before the move sends it, is
/// refused as an unknown op tag, so nobody reads a step as a model.
#[test]
fn retired_mgd_step_tag_5_is_refused() {
    let ops = Msg::Ops {
        batch: 1,
        ops: vec![WorkerOp::MgdStep {
            w: DenseVector::zeros(2),
            batch: vec![0],
            eta: 0.5,
        }],
    };
    for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
        let frame = encode_msg(&ops, switch);
        let mut payload = frame[HEADER_LEN..].to_vec();
        // Message tag, batch id (u64), op count (u64), then the op's tag.
        assert_eq!(payload[17], 8, "{switch:?}");
        payload[17] = 5;
        let err = decode_msg(&encode_frame(NET_MAGIC, NET_VERSION, &payload)).unwrap_err();
        assert!(
            matches!(&err, NetError::Protocol(m) if m.contains("unknown op tag 5")),
            "{switch:?}: {err}"
        );
    }
}

/// A link whose orchestrator end has already sent `frames`: `recv_into`
/// takes them in order and then fails, as a hung-up peer does; `send`
/// keeps what the worker sent.
struct Script {
    frames: VecDeque<Vec<u8>>,
    sent: Vec<Vec<u8>>,
}

impl Transport for Script {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        self.sent.push(frame.to_vec());
        Ok(())
    }

    fn recv_into(&mut self, frame: &mut Vec<u8>) -> Result<(), NetError> {
        *frame = self
            .frames
            .pop_front()
            .ok_or_else(|| NetError::Io("peer hung up".into()))?;
        Ok(())
    }
}

/// Runs worker 0 over a link that delivers `msgs`, each as its own frame,
/// and returns how the session ended.
fn serve(msgs: &[Msg]) -> Result<(), NetError> {
    let frames = msgs.iter().map(|m| encode_msg(m, FrameSwitch::Dense));
    let mut link = Script {
        frames: frames.collect(),
        sent: Vec::new(),
    };
    serve_worker(&mut link, 0)
}

/// Worker 0's `Assign` header for `rows` rows of dimension `dim`.
fn header(dim: u32, rows: u32) -> Msg {
    Msg::Assign {
        worker: 0,
        dim,
        loss: Loss::Hinge,
        reg: Regularizer::None,
        lr: LearningRate::Constant(0.5),
        switch: FrameSwitch::Dense,
        rows,
    }
}

/// A `Rows` frame of one 4-dimensional row per global index.
fn rows(globals: &[u32]) -> Msg {
    let rows = globals
        .iter()
        .map(|&global| AssignedRow {
            global,
            label: 1.0,
            row: SparseVector::from_pairs(4, &[(global % 4, 1.0)]).expect("valid sparse row"),
        })
        .collect();
    Msg::Rows { rows }
}

fn an_op() -> Msg {
    Msg::Ops {
        batch: 0,
        ops: vec![WorkerOp::PartitionGrad {
            w: DenseVector::zeros(4),
        }],
    }
}

#[track_caller]
fn assert_refused(msgs: &[Msg], why: &str) {
    let ended = serve(msgs);
    assert!(
        matches!(&ended, Err(NetError::Protocol(m)) if m.contains(why)),
        "expected a refusal naming {why:?}, got {ended:?}"
    );
}

/// The well-formed sequence the refusals below each break once: the
/// header, rows in two frames, an op, then Shutdown.
#[test]
fn a_streamed_assignment_is_taken_and_served() {
    let session = [
        header(4, 3),
        rows(&[5, 0]),
        rows(&[2]),
        an_op(),
        Msg::Shutdown,
    ];
    serve(&session).expect("a well-formed session ends in Shutdown");
}

#[test]
fn a_rows_frame_before_assign_is_refused() {
    assert_refused(
        &[rows(&[5]), header(4, 1), Msg::Shutdown],
        "expected Assign after Hello",
    );
}

#[test]
fn more_rows_than_the_assign_declared_are_refused() {
    assert_refused(
        &[header(4, 2), rows(&[5, 0, 2])],
        "1 rows past the 2 assigned",
    );
    assert_refused(
        &[header(4, 2), rows(&[5]), rows(&[0, 2])],
        "1 rows past the 2 assigned",
    );
    // Rows after the declared count has come reach the op loop.
    assert_refused(
        &[header(4, 1), rows(&[5]), rows(&[0])],
        "unexpected message in op loop",
    );
}

#[test]
fn an_ops_frame_before_every_declared_row_is_refused() {
    assert_refused(
        &[header(4, 3), rows(&[5, 0]), an_op()],
        "expected Rows: 2 of 3 assigned rows have come",
    );
    assert_refused(
        &[header(4, 1), an_op()],
        "expected Rows: 0 of 1 assigned rows have come",
    );
}

/// A checksum-valid `Rows` frame whose row is wider than the assigned
/// dimension is refused with a typed error. Accepted, its index 3 would
/// overrun the worker's 2-dimensional model and panic the worker thread
/// instead of failing the session.
#[test]
fn assign_row_of_the_wrong_dimension_is_refused() {
    assert_refused(
        &[header(2, 1), rows(&[3]), an_op()],
        "row 3 has dimension 4, the assignment 2",
    );
}

#[test]
fn a_global_row_repeated_across_row_frames_is_refused() {
    assert_refused(
        &[header(4, 3), rows(&[5, 0]), rows(&[5]), Msg::Shutdown],
        "row 5 assigned twice",
    );
}

/// A partition ten times the row-frame budget streams in frames no larger
/// than the budget plus one row: each frame holds at most the budget, or a
/// single row wider than the budget. The frames carry every row once, in
/// partition order, and the worker takes them all.
#[test]
fn assignment_frames_stay_within_the_budget_plus_one_row() {
    let dim = 1 << 16;
    let row_len = |nnz: usize| 4 + 8 + 8 + wire::encoded_sparse_len(nnz);
    let row = |global: u32, indices: &mut dyn Iterator<Item = u32>| {
        let pairs: Vec<(u32, f64)> = indices.map(|j| (j, f64::from(global))).collect();
        AssignedRow {
            global,
            label: 1.0,
            row: SparseVector::from_pairs(dim, &pairs).expect("valid sparse row"),
        }
    };
    // Rows of 1 to 63 entries, about 10 × the budget in all, with one row
    // wider than the budget a third of the way in.
    let mut rows = Vec::new();
    let (mut total, mut wide) = (0, false);
    while total < 10 * ROW_FRAME_BUDGET {
        let global = rows.len() as u32;
        let r = if !wide && total >= 3 * ROW_FRAME_BUDGET {
            wide = true;
            row(global, &mut (0..(ROW_FRAME_BUDGET / 12 + 1) as u32))
        } else {
            let nnz = 1 + (global * 7) % 63;
            row(global, &mut (0..nnz).map(|j| j * 97))
        };
        total += row_len(r.row.nnz());
        rows.push(r);
    }
    let widest = rows
        .iter()
        .map(|r| row_len(r.row.nnz()))
        .max()
        .expect("rows");
    assert!(widest > ROW_FRAME_BUDGET, "the wide row is {widest} bytes");

    let frames: Vec<Vec<u8>> = row_frames(rows.iter().cloned()).collect();
    assert!(frames.len() >= 10, "{} frames", frames.len());
    let mut streamed = Vec::new();
    for frame in &frames {
        let Msg::Rows { rows } = decode_msg(frame).expect("a row frame decodes") else {
            panic!("row_frames made a frame that is not Rows");
        };
        let payload = frame.len() - HEADER_LEN;
        assert!(
            payload <= ROW_FRAME_BUDGET || rows.len() == 1,
            "{} rows in a {payload}-byte payload, budget {ROW_FRAME_BUDGET}",
            rows.len()
        );
        assert!(payload <= ROW_FRAME_BUDGET + widest);
        streamed.extend(rows);
    }
    assert_eq!(streamed, rows);

    let head = encode_msg(&header(dim as u32, rows.len() as u32), FrameSwitch::Dense);
    let shutdown = encode_msg(&Msg::Shutdown, FrameSwitch::Dense);
    let mut link = Script {
        frames: [vec![head], frames, vec![shutdown]].concat().into(),
        sent: Vec::new(),
    };
    serve_worker(&mut link, 0).expect("the worker takes every frame");
}
