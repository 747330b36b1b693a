//! The orchestrator side: a [`ComputeBackend`] that ships op batches to
//! real workers and measures each phase of the exchange.
//!
//! Per dispatch batch, the orchestrator records for every participating
//! worker the serialized bytes in each direction, the worker-reported
//! pure compute time, and the orchestrator-observed turnaround — the
//! samples `cluster::calibrate` fits the cost-model rates from. All
//! timing flows through [`crate::measure`]; none of it feeds back into
//! the math.

use std::collections::BTreeMap;

use mlstar_collectives::FrameSwitch;
use mlstar_core::ComputeBackend;
use mlstar_exec::{OpResult, WorkerOp};
use mlstar_sim::{dense_op_flops, pass_flops};

use crate::error::NetError;
use crate::measure::Stopwatch;
use crate::protocol::{decode_msg, encode_msg, Msg};
use crate::transport::Transport;

/// One worker's share of one dispatch batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerBatchStats {
    /// Worker index.
    pub worker: usize,
    /// Ops executed by this worker in the batch.
    pub ops: usize,
    /// Modeled floating-point work of those ops (same formulas the
    /// simulator charges).
    pub flops: f64,
    /// Encoded bytes orchestrator → worker.
    pub bytes_out: u64,
    /// Encoded bytes worker → orchestrator.
    pub bytes_in: u64,
    /// Protocol messages exchanged (request + reply).
    pub messages: u64,
    /// Worker-reported pure compute seconds.
    pub compute_s: f64,
    /// Orchestrator-observed seconds from batch start to this worker's
    /// reply being fully received.
    pub turnaround_s: f64,
}

impl WorkerBatchStats {
    /// Turnaround minus compute — time spent serializing, in flight, and
    /// queued (clamped at zero against clock skew).
    pub fn comm_s(&self) -> f64 {
        (self.turnaround_s - self.compute_s).max(0.0)
    }
}

/// Measurements for one dispatch batch (one `Ops`/`OpDone` exchange with
/// every participating worker).
#[derive(Debug, Clone, PartialEq)]
pub struct NetBatchStats {
    /// Monotone batch id.
    pub batch: u64,
    /// Wall-clock seconds for the whole batch (send-first to
    /// last-reply).
    pub wall_s: f64,
    /// Per-worker breakdown, in worker order.
    pub workers: Vec<WorkerBatchStats>,
}

impl NetBatchStats {
    /// A worker's idle share of this batch: wall time minus its own
    /// turnaround (it had answered and sat waiting for the barrier).
    pub fn idle_s(&self, worker_stats: &WorkerBatchStats) -> f64 {
        (self.wall_s - worker_stats.turnaround_s).max(0.0)
    }
}

/// The backend a net-backed training run dispatches to. `train_net`
/// lends it to the trainer for the duration of the run and reads the
/// links, measurements and any parked failure back afterwards.
pub(crate) struct Orchestrator {
    /// One link per worker, in worker order.
    pub links: Vec<Box<dyn Transport>>,
    /// Per-dispatch-batch measurements, in dispatch order.
    pub stats: Vec<NetBatchStats>,
    /// The typed error behind a failed `run_ops`, whose own error channel
    /// carries only its rendering.
    pub failure: Option<NetError>,
    /// nnz of every dataset row, for per-op flop accounting.
    row_nnz: Vec<usize>,
    /// Total nnz per worker partition.
    part_nnz: Vec<usize>,
    dim: usize,
    /// Model-payload encoding for outgoing `Ops` frames (the same switch
    /// the workers were told in `Assign`).
    switch: FrameSwitch,
    next_batch: u64,
}

impl Orchestrator {
    pub(crate) fn new(
        links: Vec<Box<dyn Transport>>,
        row_nnz: Vec<usize>,
        part_nnz: Vec<usize>,
        dim: usize,
        switch: FrameSwitch,
    ) -> Self {
        Orchestrator {
            links,
            stats: Vec::new(),
            failure: None,
            row_nnz,
            part_nnz,
            dim,
            switch,
            next_batch: 0,
        }
    }

    /// Records the typed error and returns its rendering for the
    /// `ComputeBackend` contract.
    fn fail(&mut self, e: NetError) -> String {
        let msg = e.to_string();
        self.failure = Some(e);
        msg
    }

    fn indices_nnz(&self, idx: &[u32]) -> usize {
        idx.iter().map(|&i| self.row_nnz[i as usize]).sum()
    }

    /// The modeled flops of one op — the same formulas the trainers charge
    /// to simulated time for it.
    fn op_flops(&self, worker: usize, op: &WorkerOp) -> f64 {
        match op {
            WorkerOp::SgdPass { order, .. } => pass_flops(self.indices_nnz(order)),
            WorkerOp::SgdBatch { batch, .. } => pass_flops(self.indices_nnz(batch)),
            WorkerOp::PartitionGrad { .. } => pass_flops(self.part_nnz[worker]),
            WorkerOp::BatchGrad { batch, .. } => pass_flops(self.indices_nnz(batch)),
            WorkerOp::MgdStep { batch, .. } => {
                pass_flops(self.indices_nnz(batch)) + 2.0 * dense_op_flops(self.dim)
            }
            WorkerOp::MgdEpoch {
                order, batch_size, ..
            } => {
                let n_batches = order.len().div_ceil((*batch_size).max(1) as usize);
                pass_flops(self.indices_nnz(order))
                    + 2.0 * dense_op_flops(self.dim) * n_batches as f64
            }
            WorkerOp::PartitionObjective { .. } => pass_flops(self.part_nnz[worker]) / 2.0,
        }
    }
}

impl ComputeBackend for Orchestrator {
    #[expect(
        clippy::expect_used,
        reason = "the reply loop returns an error unless every dispatched op produced a result"
    )]
    fn run_ops(&mut self, ops: Vec<(usize, WorkerOp)>) -> Result<Vec<OpResult>, String> {
        let batch = self.next_batch;
        self.next_batch += 1;
        let n_ops = ops.len();

        // Group ops per worker, remembering each op's submission slot.
        let mut per_worker: BTreeMap<usize, (Vec<usize>, Vec<WorkerOp>, f64)> = BTreeMap::new();
        for (pos, (worker, op)) in ops.into_iter().enumerate() {
            let flops = self.op_flops(worker, &op);
            let entry = per_worker.entry(worker).or_default();
            entry.0.push(pos);
            entry.1.push(op);
            entry.2 += flops;
        }

        let sw = Stopwatch::start();
        let mut worker_stats: Vec<WorkerBatchStats> = Vec::with_capacity(per_worker.len());
        let mut positions: BTreeMap<usize, Vec<usize>> = BTreeMap::new();

        // Send phase: every worker gets its ops before any reply is
        // awaited, so workers genuinely compute concurrently.
        for (&worker, (pos, ops, flops)) in per_worker.iter_mut() {
            let frame = encode_msg(
                &Msg::Ops {
                    batch,
                    ops: std::mem::take(ops),
                },
                self.switch,
            );
            if self.links[worker].send(&frame).is_err() {
                return Err(self.fail(NetError::WorkerLost { worker }));
            }
            worker_stats.push(WorkerBatchStats {
                worker,
                ops: pos.len(),
                flops: *flops,
                bytes_out: frame.len() as u64,
                bytes_in: 0,
                messages: 2,
                compute_s: 0.0,
                turnaround_s: 0.0,
            });
            positions.insert(worker, std::mem::take(pos));
        }

        // Receive phase, in worker order (the barrier).
        let mut slots: Vec<Option<OpResult>> = (0..n_ops).map(|_| None).collect();
        for ws in worker_stats.iter_mut() {
            let worker = ws.worker;
            let frame = match self.links[worker].recv() {
                Ok(f) => f,
                Err(_) => return Err(self.fail(NetError::WorkerLost { worker })),
            };
            ws.bytes_in = frame.len() as u64;
            ws.turnaround_s = sw.elapsed_s();
            let msg = match decode_msg(&frame) {
                Ok(m) => m,
                Err(e) => return Err(self.fail(e)),
            };
            let Msg::OpDone {
                batch: echoed,
                compute_nanos,
                results,
            } = msg
            else {
                return Err(self.fail(NetError::Protocol(format!(
                    "worker {worker} sent a non-OpDone reply"
                ))));
            };
            if echoed != batch {
                return Err(self.fail(NetError::Protocol(format!(
                    "worker {worker} answered batch {echoed}, expected {batch}"
                ))));
            }
            let pos = &positions[&worker];
            if results.len() != pos.len() {
                return Err(self.fail(NetError::Protocol(format!(
                    "worker {worker} returned {} results for {} ops",
                    results.len(),
                    pos.len()
                ))));
            }
            ws.compute_s = compute_nanos as f64 * 1e-9;
            for (&slot, res) in pos.iter().zip(results) {
                slots[slot] = Some(res);
            }
        }

        let wall_s = sw.elapsed_s();
        self.stats.push(NetBatchStats {
            batch,
            wall_s,
            workers: worker_stats,
        });

        Ok(slots
            .into_iter()
            .map(|s| s.expect("every op slot filled by its worker's reply"))
            .collect())
    }
}
