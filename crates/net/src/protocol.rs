//! The orchestrator/worker command protocol.
//!
//! Every message is one `mlstar-codec` frame (magic `"MLSN"`,
//! checksummed payload) whose layout is the `msg` field list below: one
//! [`schema!`] declaration per message, op, result and tag type, from
//! which the encoder, the decoder and the encoded length are all
//! generated. [`encode_msg_into`] writes a frame into a buffer a link end
//! keeps for the session, reserved at that exact length, so the buffer
//! holds its frame and not twice it; [`encode_msg`] is its wrapper with a
//! fresh buffer. Vector payloads
//! reuse `collectives::wire` — the
//! exact encoding whose byte counts the simulator charges for — written
//! in place as length-prefixed blobs. Model payloads go through the adaptive
//! dense↔sparse switch ([`wire::put_adaptive`]): under
//! [`FrameSwitch::Adaptive`] a model whose exact-sparse frame is smaller
//! travels sparsely, and the decoder materializes it back bit-for-bit
//! (the sparse path is lossless). Under [`FrameSwitch::Dense`] every
//! frame is byte-identical to the legacy dense encoding. `f64`
//! round-trips through little-endian bytes exactly, so nothing a worker
//! computes is perturbed by the hop.
//!
//! The orchestrator announces the switch in `Assign`; the worker encodes
//! its `OpDone` results with the same switch, so both directions of the
//! link move the same frames the simulator charges for. Decoding is
//! switch-agnostic — the frame kind byte selects the decoder.
//!
//! A partition is streamed, never sent whole: `Assign` is a header that
//! declares the row count, and the rows follow in `Rows` frames that
//! [`row_frames`] cuts at [`ROW_FRAME_BUDGET`] payload bytes. Each frame
//! decodes on its own; the worker checks the sequence (every declared
//! row, no more, each of the assigned dimension and named once) as it
//! takes the frames in.
//!
//! Message flow:
//!
//! ```text
//! worker → orchestrator   Hello { worker }
//! orchestrator → worker   Assign { worker, dim, loss, reg, lr, switch, rows }
//! orchestrator → worker   Rows { rows }               (until `rows` have come)
//! orchestrator → worker   Ops { batch, ops }          (repeated)
//! worker → orchestrator   OpDone { batch, results }   (one per Ops)
//! orchestrator → worker   Shutdown
//! ```

use std::borrow::Borrow;

use mlstar_codec::{decode_frame, schema, Reader, Writer};
use mlstar_collectives::{wire, FrameSwitch};
use mlstar_exec::{OpResult, WorkerOp};
use mlstar_glm::{LearningRate, Loss, Regularizer};
use mlstar_linalg::{DenseVector, SparseVector};

use crate::error::NetError;

/// `"MLSN"` — the protocol frame magic.
pub const NET_MAGIC: u32 = 0x4D4C_534E;
/// Protocol version this build speaks. Version 3 streams a partition as
/// an `Assign` header and `Rows` frames (version 2 sent it as one
/// `Assign` frame; version 1 checksummed frames with FNV-1a).
pub const NET_VERSION: u32 = 3;

/// The most payload bytes a `Rows` frame from [`row_frames`] holds. A row
/// larger than this alone travels alone, in a frame of its own.
pub const ROW_FRAME_BUDGET: usize = 256 << 10;

/// One row shipped to a worker at assignment time. A decoded row owns
/// its vector; the orchestrator encodes rows that borrow theirs from the
/// dataset (`R = &SparseVector`), to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignedRow<R = SparseVector> {
    /// The row's index in the full dataset (ops address rows by this).
    pub global: u32,
    /// The row's label.
    pub label: f64,
    /// The feature vector.
    pub row: R,
}

/// A protocol message. `R` is how a `Rows` frame holds its rows' vectors:
/// owned, as decoded, or borrowed, as the orchestrator encodes them.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg<R = SparseVector> {
    /// Worker self-identification, first message on every link.
    Hello {
        /// The worker's index.
        worker: u32,
    },
    /// The worker's standing state: the GLM problem, and how many rows of
    /// its partition the `Rows` frames after it carry.
    Assign {
        /// Worker index (echoed for cross-checking).
        worker: u32,
        /// Model dimensionality.
        dim: u32,
        /// Loss function.
        loss: Loss,
        /// Regularizer.
        reg: Regularizer,
        /// Learning-rate schedule (workers evaluate it only where the op
        /// semantics say so — e.g. per-chunk inside `MgdEpoch`).
        lr: LearningRate,
        /// The frame switch both ends encode model payloads with for the
        /// rest of the session.
        switch: FrameSwitch,
        /// The partition's row count.
        rows: u32,
    },
    /// The next rows of the partition an `Assign` announced, in
    /// partition order.
    Rows {
        /// The rows this frame carries.
        rows: Vec<AssignedRow<R>>,
    },
    /// A batch of compute ops for this worker.
    Ops {
        /// Monotone batch id (echoed in the reply).
        batch: u64,
        /// The ops, executed in order.
        ops: Vec<WorkerOp>,
    },
    /// The worker's results for one `Ops` batch.
    OpDone {
        /// The batch this answers.
        batch: u64,
        /// Worker-measured pure compute time for the batch.
        compute_nanos: u64,
        /// One result per op, in op order.
        results: Vec<OpResult>,
    },
    /// Orderly end of the session.
    Shutdown,
}

schema! {
    /// A model vector: its adaptive wire frame under the session's
    /// switch, as a `u64`-length blob written in place.
    frame model: DenseVector [frames: FrameSwitch] {
        |w, v| wire::put_adaptive(w, v, frames),
        wire::decode_adaptive,
        |v| wire::encoded_adaptive_len(v, frames),
    }
}
schema! {
    frame sparse: SparseVector {
        wire::put_sparse,
        wire::decode_sparse,
        |v| wire::encoded_sparse_len(v.nnz()),
    }
}
schema! { record row: AssignedRow<R: Borrow<SparseVector>> { global: u32, label: f64, row: sparse } }
schema! { tagged loss: Loss { 0 => Hinge, 1 => Logistic, 2 => Squared } }
schema! { tagged reg: Regularizer { 0 => None, 1 => L2 { lambda: f64 }, 2 => L1 { lambda: f64 } } }
schema! {
    tagged lr: LearningRate {
        0 => Constant(eta0: f64),
        1 => InvSqrt(eta0: f64),
        2 => InvT { eta0: f64, decay: f64 },
        3 => Exponential { eta0: f64, factor: f64, period: u64 },
    }
}
schema! { tagged switch: FrameSwitch { 0 => Dense, 1 => Adaptive } }
// Tag 5 is retired: it was an `MgdStep` answered with the stepped model.
// Its successor, tag 8, is answered with the step, so an old peer's
// tag-5 op is refused as an unknown tag rather than misread.
schema! {
    tagged op: WorkerOp [frames: FrameSwitch] {
        1 => SgdPass { w: model, t0: u64, order: u32s },
        2 => SgdBatch { w: model, t0: u64, batch: u32s },
        3 => PartitionGrad { w: model },
        4 => BatchGrad { w: model, batch: u32s },
        6 => MgdEpoch { w: model, t0: u64, batch_size: u32, order: u32s },
        7 => PartitionObjective { w: model },
        8 => MgdStep { w: model, eta: f64, batch: u32s },
    }
}
schema! {
    tagged result: OpResult [frames: FrameSwitch] {
        1 => Model { w: model, t: u64 },
        2 => Grad(g: model),
        3 => Value(v: f64),
    }
}
schema! {
    tagged msg: Msg<R: Borrow<SparseVector>> [frames: FrameSwitch] {
        1 => Hello { worker: u32 },
        2 => Assign { worker: u32, dim: u32, loss: loss, reg: reg, lr: lr, switch: switch, rows: u32 },
        3 => Ops { batch: u64, ops: list(op) },
        4 => OpDone { batch: u64, compute_nanos: u64, results: list(result) },
        5 => Shutdown,
        6 => Rows { rows: list(row) },
    }
}

/// Encodes a message as one checksummed frame, in a buffer of its exact
/// size.
///
/// `switch` selects the model-payload encoding for `Ops` and `OpDone`
/// (an `Assign` carries its own switch field; `Hello`, `Rows` and
/// `Shutdown` have no model payloads). [`FrameSwitch::Dense`] reproduces
/// the legacy all-dense frames byte for byte.
pub fn encode_msg(msg: &Msg, switch: FrameSwitch) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_msg_into(msg, switch, &mut frame);
    frame
}

/// [`encode_msg`] into `frame`, replacing what it held: the bytes are the
/// same, and `frame`'s allocation is kept, growing to exactly the frame
/// only when it is too small. A link end that encodes every frame into
/// the buffer it receives into allocates for frames once per session.
pub fn encode_msg_into(msg: &Msg, switch: FrameSwitch, frame: &mut Vec<u8>) {
    encode_into(msg, switch, frame);
}

/// The encoder behind [`encode_msg_into`] and [`row_frames`], for rows
/// owned or borrowed. The frame is reserved at the length `msg::len`
/// derives from the same field list `msg::put` writes.
fn encode_into<R: Borrow<SparseVector>>(msg: &Msg<R>, switch: FrameSwitch, frame: &mut Vec<u8>) {
    let len = msg::len(msg, switch);
    let mut w = Writer::for_frame_in(std::mem::take(frame), len);
    msg::put(&mut w, msg, switch);
    debug_assert_eq!(w.len(), len, "msg::len disagrees with msg::put");
    *frame = w.into_frame(NET_MAGIC, NET_VERSION);
}

/// Cuts a partition's rows, in partition order, into `Rows` frames of at
/// most [`ROW_FRAME_BUDGET`] payload bytes each; a row that alone exceeds
/// the budget gets a frame of its own. Frames are encoded one at a time,
/// as the iterator is advanced, each into a buffer of its exact size, so
/// a sender that sends each before taking the next holds one frame of
/// the partition at a time. The rows may borrow their vectors
/// (`R = &SparseVector`).
pub fn row_frames<R: Borrow<SparseVector>>(
    rows: impl IntoIterator<Item = AssignedRow<R>>,
) -> impl Iterator<Item = Vec<u8>> {
    // The message tag and the row count come before the rows.
    const LIST_HEAD: usize = 1 + 8;
    let row_len = |r: &AssignedRow<R>| row::len(r, FrameSwitch::Dense);
    let mut rows = rows.into_iter().peekable();
    std::iter::from_fn(move || {
        let mut batch = Vec::new();
        let mut len = LIST_HEAD;
        while let Some(r) =
            rows.next_if(|r| batch.is_empty() || len + row_len(r) <= ROW_FRAME_BUDGET)
        {
            len += row_len(&r);
            batch.push(r);
        }
        if batch.is_empty() {
            return None;
        }
        let mut frame = Vec::new();
        encode_into(&Msg::Rows { rows: batch }, FrameSwitch::Dense, &mut frame);
        Some(frame)
    })
}

/// Decodes one frame into a message, validating magic, version, checksum
/// and full payload consumption. A payload no encoder produces — an
/// unknown tag, a count the bytes cannot hold — is a
/// [`NetError::Protocol`]. A frame decodes on its own: whether a `Rows`
/// frame fits the assignment it belongs to is the worker's check.
pub fn decode_msg(frame: &[u8]) -> Result<Msg, NetError> {
    let payload = decode_frame(frame, NET_MAGIC, NET_VERSION)?;
    let mut r = Reader::new(payload);
    msg::get(&mut r)
        .and_then(|msg| r.finish().map(|()| msg))
        .map_err(|e| NetError::Protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        // Both switch settings must round-trip to the identical message:
        // the adaptive sparse path is lossless by construction.
        for switch in [FrameSwitch::Dense, FrameSwitch::Adaptive] {
            let frame = encode_msg(&msg, switch);
            let back = decode_msg(&frame).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Msg::Hello { worker: 3 });
        roundtrip(Msg::Shutdown);
        roundtrip(Msg::Assign {
            worker: 1,
            dim: 4,
            loss: Loss::Logistic,
            reg: Regularizer::L2 { lambda: 0.25 },
            lr: LearningRate::Exponential {
                eta0: 0.1,
                factor: 0.5,
                period: 7,
            },
            switch: FrameSwitch::Adaptive,
            rows: 1,
        });
        roundtrip(Msg::Rows { rows: vec![] });
        roundtrip(Msg::Rows {
            rows: vec![AssignedRow {
                global: 9,
                label: -1.0,
                row: SparseVector::from_pairs(4, &[(0, 1.5), (3, -2.0)]).unwrap(),
            }],
        });
        roundtrip(Msg::Ops {
            batch: 12,
            ops: vec![
                WorkerOp::SgdPass {
                    w: DenseVector::from_vec(vec![1.0, -0.5]),
                    order: vec![2, 0, 1],
                    t0: 5,
                },
                WorkerOp::SgdBatch {
                    w: DenseVector::zeros(2),
                    batch: vec![1],
                    t0: 0,
                },
                WorkerOp::PartitionGrad {
                    w: DenseVector::zeros(2),
                },
                WorkerOp::BatchGrad {
                    w: DenseVector::zeros(2),
                    batch: vec![0, 2],
                },
                WorkerOp::MgdStep {
                    w: DenseVector::zeros(2),
                    batch: vec![0],
                    eta: 0.05,
                },
                WorkerOp::MgdEpoch {
                    w: DenseVector::zeros(2),
                    order: vec![1, 0],
                    batch_size: 1,
                    t0: 3,
                },
                WorkerOp::PartitionObjective {
                    w: DenseVector::zeros(2),
                },
            ],
        });
        roundtrip(Msg::OpDone {
            batch: 12,
            compute_nanos: 98765,
            results: vec![
                OpResult::Model {
                    w: DenseVector::from_vec(vec![0.25, f64::MIN_POSITIVE]),
                    t: 8,
                },
                OpResult::Grad(DenseVector::from_vec(vec![-1.0, 2.0])),
                OpResult::Value(0.375),
            ],
        });
    }

    #[test]
    fn borrowed_rows_encode_to_the_bytes_of_owned_rows() {
        let owned = vec![
            AssignedRow {
                global: 3,
                label: -1.0,
                row: SparseVector::from_pairs(4, &[(1, 0.5), (3, -0.0)]).unwrap(),
            },
            AssignedRow {
                global: 0,
                label: 1.0,
                row: SparseVector::from_pairs(4, &[]).unwrap(),
            },
        ];
        let borrowed = owned.iter().map(|r| AssignedRow {
            global: r.global,
            label: r.label,
            row: &r.row,
        });
        let frames: Vec<Vec<u8>> = row_frames(borrowed).collect();
        assert_eq!(frames, row_frames(owned.clone()).collect::<Vec<_>>());
        let rows = Msg::Rows { rows: owned };
        assert_eq!(frames, [encode_msg(&rows, FrameSwitch::Dense)]);
        assert_eq!(decode_msg(&frames[0]).unwrap(), rows);
    }

    #[test]
    fn lr_variants_roundtrip() {
        for lr in [
            LearningRate::Constant(0.1),
            LearningRate::InvSqrt(0.2),
            LearningRate::InvT {
                eta0: 0.3,
                decay: 0.01,
            },
        ] {
            roundtrip(Msg::Assign {
                worker: 0,
                dim: 1,
                loss: Loss::Hinge,
                reg: Regularizer::None,
                lr,
                switch: FrameSwitch::Dense,
                rows: 0,
            });
        }
        roundtrip(Msg::Assign {
            worker: 0,
            dim: 1,
            loss: Loss::Squared,
            reg: Regularizer::L1 { lambda: 0.5 },
            lr: LearningRate::Constant(0.1),
            switch: FrameSwitch::Dense,
            rows: u32::MAX,
        });
    }

    #[test]
    fn rejects_corrupt_frames() {
        let mut frame = encode_msg(&Msg::Hello { worker: 1 }, FrameSwitch::Dense);
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        assert!(matches!(decode_msg(&frame), Err(NetError::Codec(_))));
    }

    #[test]
    fn rejects_unknown_tags() {
        let mut w = Writer::for_frame();
        w.put_u8(99);
        let frame = w.into_frame(NET_MAGIC, NET_VERSION);
        assert!(matches!(decode_msg(&frame), Err(NetError::Protocol(_))));
    }

    #[test]
    fn rejects_unknown_switch_tag() {
        let assign = Msg::Assign {
            worker: 0,
            dim: 1,
            loss: Loss::Hinge,
            reg: Regularizer::None,
            lr: LearningRate::Constant(0.1),
            switch: FrameSwitch::Dense,
            rows: 0,
        };
        let frame = encode_msg(&assign, FrameSwitch::Dense);
        // The switch byte sits just before the `u32` row count.
        let mut payload = frame[mlstar_codec::HEADER_LEN..].to_vec();
        let at = payload.len() - 5;
        payload[at] = 7; // not a valid frame-switch tag
        let frame = mlstar_codec::encode_frame(NET_MAGIC, NET_VERSION, &payload);
        assert!(matches!(decode_msg(&frame), Err(NetError::Protocol(_))));
    }

    #[test]
    fn adaptive_switch_shrinks_mostly_zero_models() {
        let mut model = DenseVector::zeros(256);
        model.set(3, 1.5);
        model.set(100, -2.0);
        let msg = Msg::Ops {
            batch: 1,
            ops: vec![WorkerOp::PartitionGrad { w: model }],
        };
        let dense = encode_msg(&msg, FrameSwitch::Dense);
        let adaptive = encode_msg(&msg, FrameSwitch::Adaptive);
        assert!(
            adaptive.len() < dense.len(),
            "adaptive {} vs dense {}",
            adaptive.len(),
            dense.len()
        );
        // Same decoded message either way — the sparse hop is lossless.
        assert_eq!(decode_msg(&adaptive).unwrap(), decode_msg(&dense).unwrap());
    }
}
