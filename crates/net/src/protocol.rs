//! The orchestrator/worker command protocol.
//!
//! Every message is one `mlstar-codec` frame (magic `"MLSN"`,
//! checksummed payload) whose layout is the `msg` field list below: one
//! [`schema!`] declaration per message, op, result and tag type, from
//! which the encoder and the decoder are both generated. Vector payloads
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
//! Message flow:
//!
//! ```text
//! worker → orchestrator   Hello { worker }
//! orchestrator → worker   Assign { worker, dim, loss, reg, lr, switch, rows }
//! orchestrator → worker   Ops { batch, ops }          (repeated)
//! worker → orchestrator   OpDone { batch, results }   (one per Ops)
//! orchestrator → worker   Shutdown
//! ```

use mlstar_codec::{decode_frame, schema, Reader, Writer};
use mlstar_collectives::{wire, FrameSwitch};
use mlstar_exec::{OpResult, WorkerOp};
use mlstar_glm::{LearningRate, Loss, Regularizer};
use mlstar_linalg::{DenseVector, SparseVector};

use crate::error::NetError;

/// `"MLSN"` — the protocol frame magic.
pub const NET_MAGIC: u32 = 0x4D4C_534E;
/// Protocol version this build speaks.
pub const NET_VERSION: u32 = 1;

/// One row shipped to a worker at assignment time.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignedRow {
    /// The row's index in the full dataset (ops address rows by this).
    pub global: u32,
    /// The row's label.
    pub label: f64,
    /// The feature vector.
    pub row: SparseVector,
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker self-identification, first message on every link.
    Hello {
        /// The worker's index.
        worker: u32,
    },
    /// The worker's standing state: its partition and the GLM problem.
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
        /// The rows of this worker's partition, in partition order.
        rows: Vec<AssignedRow>,
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
    }
}
schema! { frame sparse: SparseVector { wire::put_sparse, wire::decode_sparse } }
schema! { record row: AssignedRow { global: u32, label: f64, row: sparse } }
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
schema! {
    tagged op: WorkerOp [frames: FrameSwitch] {
        1 => SgdPass { w: model, t0: u64, order: u32s },
        2 => SgdBatch { w: model, t0: u64, batch: u32s },
        3 => PartitionGrad { w: model },
        4 => BatchGrad { w: model, batch: u32s },
        5 => MgdStep { w: model, eta: f64, batch: u32s },
        6 => MgdEpoch { w: model, t0: u64, batch_size: u32, order: u32s },
        7 => PartitionObjective { w: model },
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
    tagged msg: Msg [frames: FrameSwitch] {
        1 => Hello { worker: u32 },
        2 => Assign {
            worker: u32, dim: u32, loss: loss, reg: reg, lr: lr, switch: switch, rows: list(row),
        },
        3 => Ops { batch: u64, ops: list(op) },
        4 => OpDone { batch: u64, compute_nanos: u64, results: list(result) },
        5 => Shutdown,
    }
}

/// Encodes a message as one checksummed frame.
///
/// `switch` selects the model-payload encoding for `Ops` and `OpDone`
/// (an `Assign` carries its own switch field; `Hello` and `Shutdown`
/// have no model payloads). [`FrameSwitch::Dense`] reproduces the legacy
/// all-dense frames byte for byte.
pub fn encode_msg(msg: &Msg, switch: FrameSwitch) -> Vec<u8> {
    let mut w = Writer::new();
    msg::put(&mut w, msg, switch);
    w.into_frame(NET_MAGIC, NET_VERSION)
}

/// Decodes one frame into a message, validating magic, version, checksum
/// and full payload consumption. A payload no encoder produces — an
/// unknown tag, a count the bytes cannot hold, an `Assign` row whose
/// dimension is not the assigned one — is a [`NetError::Protocol`].
pub fn decode_msg(frame: &[u8]) -> Result<Msg, NetError> {
    let payload = decode_frame(frame, NET_MAGIC, NET_VERSION)?;
    let mut r = Reader::new(payload);
    let msg = msg::get(&mut r)
        .and_then(|msg| r.finish().map(|()| msg))
        .map_err(|e| NetError::Protocol(e.to_string()))?;
    if let Msg::Assign { dim, rows, .. } = &msg {
        if let Some(bad) = rows.iter().find(|r| r.row.dim() != *dim as usize) {
            return Err(NetError::Protocol(format!(
                "row {} has dimension {}, the assignment {dim}",
                bad.global,
                bad.row.dim()
            )));
        }
    }
    Ok(msg)
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
                rows: vec![],
            });
        }
        roundtrip(Msg::Assign {
            worker: 0,
            dim: 1,
            loss: Loss::Squared,
            reg: Regularizer::L1 { lambda: 0.5 },
            lr: LearningRate::Constant(0.1),
            switch: FrameSwitch::Dense,
            rows: vec![],
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
        let mut w = Writer::new();
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
            rows: vec![],
        };
        let frame = encode_msg(&assign, FrameSwitch::Dense);
        // The switch byte sits just before the empty row list's count.
        let mut payload = frame[mlstar_codec::HEADER_LEN..].to_vec();
        let at = payload.len() - 9;
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
