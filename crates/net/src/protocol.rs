//! The orchestrator/worker command protocol.
//!
//! Every message is one `mlstar-codec` frame (magic `"MLSN"`,
//! checksummed payload). Vector payloads reuse `collectives::wire` — the
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

use mlstar_codec::{decode_frame, CodecError, Reader, Writer};
use mlstar_collectives::{wire, FrameSwitch};
use mlstar_core::{OpResult, WorkerOp};
use mlstar_glm::{LearningRate, Loss, Regularizer};
use mlstar_linalg::{DenseVector, SparseVector};

use crate::error::NetError;

/// `"MLSN"` — the protocol frame magic.
pub const NET_MAGIC: u32 = 0x4D4C_534E;
/// Protocol version this build speaks.
pub const NET_VERSION: u32 = 1;

const MSG_HELLO: u8 = 1;
const MSG_ASSIGN: u8 = 2;
const MSG_OPS: u8 = 3;
const MSG_OP_DONE: u8 = 4;
const MSG_SHUTDOWN: u8 = 5;

const OP_SGD_PASS: u8 = 1;
const OP_SGD_BATCH: u8 = 2;
const OP_PARTITION_GRAD: u8 = 3;
const OP_BATCH_GRAD: u8 = 4;
const OP_MGD_STEP: u8 = 5;
const OP_MGD_EPOCH: u8 = 6;
const OP_PARTITION_OBJECTIVE: u8 = 7;

const RES_MODEL: u8 = 1;
const RES_GRAD: u8 = 2;
const RES_VALUE: u8 = 3;

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

/// Smallest encoding of an `Assign` row: index, label, empty blob.
const MIN_ROW_BYTES: usize = 4 + 8 + 8;
/// Smallest encoding of an op or a result: tag byte and an empty blob or
/// an `f64`.
const MIN_OP_BYTES: usize = 1 + 8;

/// An element count, refused unless that many elements of at least
/// `min_bytes` each can still follow — so the count a frame declares is
/// never what sizes an allocation.
fn get_count(r: &mut Reader<'_>, min_bytes: usize) -> Result<usize, NetError> {
    let n = r.u64()?;
    usize::try_from(n)
        .ok()
        .filter(|n| n.saturating_mul(min_bytes) <= r.remaining())
        .ok_or_else(|| {
            NetError::Protocol(format!(
                "count {n} exceeds what {} payload bytes can hold",
                r.remaining()
            ))
        })
}

fn put_model(w: &mut Writer, v: &DenseVector, switch: FrameSwitch) {
    w.put_blob64_with(|w| wire::put_adaptive(w, v, switch));
}

fn get_model(r: &mut Reader<'_>) -> Result<DenseVector, NetError> {
    let frame = r.blob64()?;
    wire::decode_adaptive(frame).map_err(|e| NetError::Protocol(format!("model payload: {e}")))
}

fn put_switch(w: &mut Writer, switch: FrameSwitch) {
    w.put_u8(match switch {
        FrameSwitch::Dense => 0,
        FrameSwitch::Adaptive => 1,
    });
}

fn get_switch(r: &mut Reader<'_>) -> Result<FrameSwitch, NetError> {
    match r.u8()? {
        0 => Ok(FrameSwitch::Dense),
        1 => Ok(FrameSwitch::Adaptive),
        t => Err(NetError::Protocol(format!("unknown frame-switch tag {t}"))),
    }
}

fn put_indices(w: &mut Writer, idx: &[u32]) {
    w.put_u64(idx.len() as u64);
    w.put_u32s(idx);
}

fn get_indices(r: &mut Reader<'_>) -> Result<Vec<u32>, NetError> {
    let n = r.u64()? as usize;
    Ok(r.u32s(n)?)
}

fn put_loss(w: &mut Writer, loss: Loss) {
    w.put_u8(match loss {
        Loss::Hinge => 0,
        Loss::Logistic => 1,
        Loss::Squared => 2,
    });
}

fn get_loss(r: &mut Reader<'_>) -> Result<Loss, NetError> {
    match r.u8()? {
        0 => Ok(Loss::Hinge),
        1 => Ok(Loss::Logistic),
        2 => Ok(Loss::Squared),
        t => Err(NetError::Protocol(format!("unknown loss tag {t}"))),
    }
}

fn put_reg(w: &mut Writer, reg: Regularizer) {
    match reg {
        Regularizer::None => w.put_u8(0),
        Regularizer::L2 { lambda } => {
            w.put_u8(1);
            w.put_f64(lambda);
        }
        Regularizer::L1 { lambda } => {
            w.put_u8(2);
            w.put_f64(lambda);
        }
    }
}

fn get_reg(r: &mut Reader<'_>) -> Result<Regularizer, NetError> {
    match r.u8()? {
        0 => Ok(Regularizer::None),
        1 => Ok(Regularizer::L2 { lambda: r.f64()? }),
        2 => Ok(Regularizer::L1 { lambda: r.f64()? }),
        t => Err(NetError::Protocol(format!("unknown regularizer tag {t}"))),
    }
}

fn put_lr(w: &mut Writer, lr: LearningRate) {
    match lr {
        LearningRate::Constant(eta0) => {
            w.put_u8(0);
            w.put_f64(eta0);
        }
        LearningRate::InvSqrt(eta0) => {
            w.put_u8(1);
            w.put_f64(eta0);
        }
        LearningRate::InvT { eta0, decay } => {
            w.put_u8(2);
            w.put_f64(eta0);
            w.put_f64(decay);
        }
        LearningRate::Exponential {
            eta0,
            factor,
            period,
        } => {
            w.put_u8(3);
            w.put_f64(eta0);
            w.put_f64(factor);
            w.put_u64(period);
        }
    }
}

fn get_lr(r: &mut Reader<'_>) -> Result<LearningRate, NetError> {
    match r.u8()? {
        0 => Ok(LearningRate::Constant(r.f64()?)),
        1 => Ok(LearningRate::InvSqrt(r.f64()?)),
        2 => Ok(LearningRate::InvT {
            eta0: r.f64()?,
            decay: r.f64()?,
        }),
        3 => Ok(LearningRate::Exponential {
            eta0: r.f64()?,
            factor: r.f64()?,
            period: r.u64()?,
        }),
        t => Err(NetError::Protocol(format!("unknown learning-rate tag {t}"))),
    }
}

fn put_op(w: &mut Writer, op: &WorkerOp, switch: FrameSwitch) {
    match op {
        WorkerOp::SgdPass {
            w: model,
            order,
            t0,
        } => {
            w.put_u8(OP_SGD_PASS);
            put_model(w, model, switch);
            w.put_u64(*t0);
            put_indices(w, order);
        }
        WorkerOp::SgdBatch {
            w: model,
            batch,
            t0,
        } => {
            w.put_u8(OP_SGD_BATCH);
            put_model(w, model, switch);
            w.put_u64(*t0);
            put_indices(w, batch);
        }
        WorkerOp::PartitionGrad { w: model } => {
            w.put_u8(OP_PARTITION_GRAD);
            put_model(w, model, switch);
        }
        WorkerOp::BatchGrad { w: model, batch } => {
            w.put_u8(OP_BATCH_GRAD);
            put_model(w, model, switch);
            put_indices(w, batch);
        }
        WorkerOp::MgdStep {
            w: model,
            batch,
            eta,
        } => {
            w.put_u8(OP_MGD_STEP);
            put_model(w, model, switch);
            w.put_f64(*eta);
            put_indices(w, batch);
        }
        WorkerOp::MgdEpoch {
            w: model,
            order,
            batch_size,
            t0,
        } => {
            w.put_u8(OP_MGD_EPOCH);
            put_model(w, model, switch);
            w.put_u64(*t0);
            w.put_u32(*batch_size);
            put_indices(w, order);
        }
        WorkerOp::PartitionObjective { w: model } => {
            w.put_u8(OP_PARTITION_OBJECTIVE);
            put_model(w, model, switch);
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> Result<WorkerOp, NetError> {
    match r.u8()? {
        OP_SGD_PASS => Ok(WorkerOp::SgdPass {
            w: get_model(r)?,
            t0: r.u64()?,
            order: get_indices(r)?,
        }),
        OP_SGD_BATCH => Ok(WorkerOp::SgdBatch {
            w: get_model(r)?,
            t0: r.u64()?,
            batch: get_indices(r)?,
        }),
        OP_PARTITION_GRAD => Ok(WorkerOp::PartitionGrad { w: get_model(r)? }),
        OP_BATCH_GRAD => Ok(WorkerOp::BatchGrad {
            w: get_model(r)?,
            batch: get_indices(r)?,
        }),
        OP_MGD_STEP => Ok(WorkerOp::MgdStep {
            w: get_model(r)?,
            eta: r.f64()?,
            batch: get_indices(r)?,
        }),
        OP_MGD_EPOCH => Ok(WorkerOp::MgdEpoch {
            w: get_model(r)?,
            t0: r.u64()?,
            batch_size: r.u32()?,
            order: get_indices(r)?,
        }),
        OP_PARTITION_OBJECTIVE => Ok(WorkerOp::PartitionObjective { w: get_model(r)? }),
        t => Err(NetError::Protocol(format!("unknown op tag {t}"))),
    }
}

fn put_result(w: &mut Writer, res: &OpResult, switch: FrameSwitch) {
    match res {
        OpResult::Model { w: model, t } => {
            w.put_u8(RES_MODEL);
            put_model(w, model, switch);
            w.put_u64(*t);
        }
        OpResult::Grad(g) => {
            w.put_u8(RES_GRAD);
            put_model(w, g, switch);
        }
        OpResult::Value(v) => {
            w.put_u8(RES_VALUE);
            w.put_f64(*v);
        }
    }
}

fn get_result(r: &mut Reader<'_>) -> Result<OpResult, NetError> {
    match r.u8()? {
        RES_MODEL => Ok(OpResult::Model {
            w: get_model(r)?,
            t: r.u64()?,
        }),
        RES_GRAD => Ok(OpResult::Grad(get_model(r)?)),
        RES_VALUE => Ok(OpResult::Value(r.f64()?)),
        t => Err(NetError::Protocol(format!("unknown result tag {t}"))),
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
    match msg {
        Msg::Hello { worker } => {
            w.put_u8(MSG_HELLO);
            w.put_u32(*worker);
        }
        Msg::Assign {
            worker,
            dim,
            loss,
            reg,
            lr,
            switch: assigned,
            rows,
        } => {
            w.put_u8(MSG_ASSIGN);
            w.put_u32(*worker);
            w.put_u32(*dim);
            put_loss(&mut w, *loss);
            put_reg(&mut w, *reg);
            put_lr(&mut w, *lr);
            put_switch(&mut w, *assigned);
            w.put_u64(rows.len() as u64);
            for r in rows {
                w.put_u32(r.global);
                w.put_f64(r.label);
                w.put_blob64_with(|w| wire::put_sparse(w, &r.row));
            }
        }
        Msg::Ops { batch, ops } => {
            w.put_u8(MSG_OPS);
            w.put_u64(*batch);
            w.put_u64(ops.len() as u64);
            for op in ops {
                put_op(&mut w, op, switch);
            }
        }
        Msg::OpDone {
            batch,
            compute_nanos,
            results,
        } => {
            w.put_u8(MSG_OP_DONE);
            w.put_u64(*batch);
            w.put_u64(*compute_nanos);
            w.put_u64(results.len() as u64);
            for res in results {
                put_result(&mut w, res, switch);
            }
        }
        Msg::Shutdown => {
            w.put_u8(MSG_SHUTDOWN);
        }
    }
    w.into_frame(NET_MAGIC, NET_VERSION)
}

/// Decodes one frame into a message, validating magic, version, checksum
/// and full payload consumption.
pub fn decode_msg(frame: &[u8]) -> Result<Msg, NetError> {
    let payload = decode_frame(frame, NET_MAGIC, NET_VERSION)?;
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        MSG_HELLO => Msg::Hello { worker: r.u32()? },
        MSG_ASSIGN => {
            let worker = r.u32()?;
            let dim = r.u32()?;
            let loss = get_loss(&mut r)?;
            let reg = get_reg(&mut r)?;
            let lr = get_lr(&mut r)?;
            let switch = get_switch(&mut r)?;
            let n = get_count(&mut r, MIN_ROW_BYTES)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let global = r.u32()?;
                let label = r.f64()?;
                let frame = r.blob64()?;
                let row = wire::decode_sparse(frame)
                    .map_err(|e| NetError::Protocol(format!("sparse payload: {e}")))?;
                rows.push(AssignedRow { global, label, row });
            }
            Msg::Assign {
                worker,
                dim,
                loss,
                reg,
                lr,
                switch,
                rows,
            }
        }
        MSG_OPS => {
            let batch = r.u64()?;
            let n = get_count(&mut r, MIN_OP_BYTES)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(get_op(&mut r)?);
            }
            Msg::Ops { batch, ops }
        }
        MSG_OP_DONE => {
            let batch = r.u64()?;
            let compute_nanos = r.u64()?;
            let n = get_count(&mut r, MIN_OP_BYTES)?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                results.push(get_result(&mut r)?);
            }
            Msg::OpDone {
                batch,
                compute_nanos,
                results,
            }
        }
        MSG_SHUTDOWN => Msg::Shutdown,
        t => return Err(NetError::Protocol(format!("unknown message tag {t}"))),
    };
    r.finish().map_err(|e: CodecError| NetError::from(e))?;
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
        let mut w = Writer::new();
        w.put_u8(MSG_ASSIGN);
        w.put_u32(0);
        w.put_u32(1);
        put_loss(&mut w, Loss::Hinge);
        put_reg(&mut w, Regularizer::None);
        put_lr(&mut w, LearningRate::Constant(0.1));
        w.put_u8(7); // not a valid frame-switch tag
        w.put_u64(0);
        let frame = w.into_frame(NET_MAGIC, NET_VERSION);
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
